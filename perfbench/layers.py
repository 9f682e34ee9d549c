"""Per-layer tracing of granum from outside the package.

``Tracer.install()`` replaces the public functions of each granum module
(and the public methods of the classes named in ``_METHODS``) with wrappers,
in every granum module that binds them, and ``uninstall()`` puts the
originals back. The layers are the modules: cli, core, gos, parthood,
counting and oracles.

Most wrappers record a span (layer, duration, time spent in child spans of
other layers). The hot leaf functions in ``_COUNT_ONLY``, and core functions
called from any layer but cli, are only counted, so their time stays in the
layer that called them; core spans are thus the input parsing done by the
cli. The counting procedures also wrap the conflict callback they receive,
so that callback time can be taken out of the counting layer's self time.
Spans are kept in memory, one list per operation, and summarised by
``op_summary()``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "core", "gos", "parthood", "counting", "oracles")
_METHODS = {"core": {"Universe": ("region",)},
            "gos": {"GranularOperatorSpace": ("signature_bits", "containment_violations")}}
_COUNT_ONLY = {"core.lower_bits", "core.upper_bits", "parthood.holds",
               "parthood.conflict", "parthood.proper_part", "counting.count_label",
               "counting.deferred_label", "counting.successor_label"}
_COUNTING_ALGOS = ("hpc_count", "pca_count", "hpca_count", "fhca_count", "fhca_rounds",
                   "verify_decomposition", "is_hpca_coherent", "find_coherent_order")


class _Frame:
    __slots__ = ("layer", "start", "foreign")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.foreign = 0.0   # time in descendant spans of other layers


class Tracer:
    """Spans and counters for the operations run while installed."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self.spans: list[tuple[str, str, float, float, str | None]] = []
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._sig_seen: set[tuple[int, int]] = set()
        self.begin_op()

    # -- per-operation state ------------------------------------------------

    def begin_op(self) -> None:
        """Clear the spans and counters (wrappers hold these very objects)."""
        self.spans.clear()
        self.calls.clear()
        self.errors.clear()
        self._sig_seen.clear()
        self.callback_s = 0.0
        self.counting_n2 = 0
        self.passes = 0
        self.retained = 0
        self.partitions = 0

    def op_summary(self) -> dict:
        """Seconds per layer metric and exact counts for the operation just run."""
        out = {"cli_self_s": 0.0, "core_parse_s": 0.0, "gos_audit_s": 0.0,
               "parthood_audit_s": 0.0, "counting_self_s": 0.0,
               "counting_verify_s": 0.0, "oracles_inverse_s": 0.0}
        for layer, name, dur, foreign, parent in self.spans:
            root = parent != layer          # first span of this layer on its path
            if layer == "cli" and parent is None:
                out["cli_self_s"] += dur - foreign
            elif layer == "core" and parent == "cli":
                out["core_parse_s"] += dur
            elif layer == "gos" and root:
                out["gos_audit_s"] += dur
            elif name == "parthood.audit_properties":
                out["parthood_audit_s"] += dur
            elif name == "oracles.inverse_rough_check":
                out["oracles_inverse_s"] += dur
            if layer == "counting":
                if root:
                    out["counting_self_s"] += dur - foreign
                if name == "counting.verify_decomposition":
                    out["counting_verify_s"] += dur
        out["counting_self_s"] -= self.callback_s
        out.update({
            "core_lower_bits_calls": self.calls["core.lower_bits"],
            "core_upper_bits_calls": self.calls["core.upper_bits"],
            "gos_signature_calls": self.calls["gos.signature_bits"],
            "gos_signature_distinct": len(self._sig_seen),
            "parthood_holds_calls": self.calls["parthood.holds"],
            "parthood_conflict_calls": self.calls["parthood.conflict"],
            "parthood_audit_errors": self.errors["parthood.audit_properties"],
            "counting_callback_calls": self.calls["counting.callback"],
            "counting_n2": self.counting_n2,
            "counting_passes": self.passes,
            "counting_retained": self.retained,
            "oracles_partitions_tried": self.partitions,
            "oracles_inverse_refusals": self.errors["oracles.inverse_rough_check"],
        })
        return out

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(layer, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                dur = clock() - frame.start
                stack.pop()
                if parent is not None:
                    parent.foreign += dur if parent.layer != layer else frame.foreign
                self.spans.append((layer, name, dur, frame.foreign,
                                   parent.layer if parent else None))
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _core(self, name: str, fn):
        spanned = self._span("core", name, fn)
        counted = self._count(name, fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1].layer == "cli":
                return spanned(*args, **kwargs)
            return counted(*args, **kwargs)
        return wrapper

    def _signature_bits(self, fn):
        calls = self.calls
        seen = self._sig_seen

        @functools.wraps(fn)
        def wrapper(space, bits):
            calls["gos.signature_bits"] += 1
            seen.add((id(space), bits))
            return fn(space, bits)
        return wrapper

    def _timed_callback(self, fn):
        if getattr(fn, "_perfbench_timed", False):
            return fn
        clock = time.perf_counter
        calls = self.calls

        def callback(a, b):
            calls["counting.callback"] += 1
            t0 = clock()
            try:
                return fn(a, b)
            finally:
                self.callback_s += clock() - t0
        callback._perfbench_timed = True
        return callback

    def _counting(self, name: str, fn):
        spanned = self._span("counting", f"counting.{name}", fn)
        stack = self._stack
        totals = name in ("hpc_count", "pca_count", "hpca_count", "fhca_count")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1].layer != "counting"
            args = list(args)
            if len(args) > 1:     # every procedure takes the conflict second
                args[1] = self._timed_callback(args[1])
            if outer and totals:
                self.counting_n2 += len(args[0].sequence) ** 2
            result = spanned(*args, **kwargs)
            if outer and totals:
                trace = result[0] if isinstance(result, tuple) else result
                self.passes += len(trace.passes)
                self.retained += sum(1 for p in trace.passes if p.retained)
            return result
        return wrapper

    def _partitions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for p in fn(*args, **kwargs):
                self.partitions += 1
                yield p
        return wrapper

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        if qual == "gos.signature_bits":
            return self._signature_bits(fn)
        if qual in _COUNT_ONLY:
            return self._count(qual, fn)
        if layer == "core":
            return self._core(qual, fn)
        if layer == "counting" and name in _COUNTING_ALGOS:
            return self._counting(name, fn)
        if qual == "oracles.all_partitions":
            return self._partitions(fn)
        return self._span(layer, qual, fn)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import granum.cli  # noqa: F401  (loads every layer)
        modules = {layer: sys.modules[f"granum.{layer}"] for layer in LAYERS}
        every = [m for name, m in sys.modules.items()
                 if name == "granum" or name.startswith("granum.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, obj)
                for other in every:
                    for bound, value in list(vars(other).items()):
                        if value is obj:
                            self._undo.append((other, bound, obj))
                            setattr(other, bound, wrapped)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)
