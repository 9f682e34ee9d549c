"""Machine-speed calibration by a fixed pure-Python reference loop.

The loop mixes the operations the granum kernels spend their time on:
integer bit masks, a memo dict, frozen-dataclass attribute reads, calls and
a little string building. It is the benchmark's own code and never calls
granum, so a change to the program cannot change the calibration. Timing
the loop right before and right after an operation gives the speed the
machine ran at during that operation; the operation's calibrated time is
its wall time scaled to the speed at which the loop takes ``REF_LOOP_MS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Median wall time of ``ref_loop()`` on the reference machine, measured
# between operations of a benchmark run (see machine.json). Calibrated
# figures are milliseconds at the reference speed:
# wall_ms * REF_LOOP_MS / loop_ms.
REF_LOOP_MS = 3.3
LOOP_ITERS = 1200
_MASKS = tuple((i * 2654435761) & 0xFFF for i in range(1, 9))


@dataclass(frozen=True)
class _Sig:
    lower: int
    upper: int


def _signature(bits: int) -> _Sig:
    lo = up = 0
    for m in _MASKS:
        if m & ~bits == 0:
            lo |= m
        if m & bits:
            up |= m
    return _Sig(lo, up)


def _kernel(n: int) -> int:
    cache: dict[int, _Sig] = {}
    out = []
    acc = 0
    for i in range(n):
        bits = (i * 40503) & 0xFFF
        sig = cache.get(bits)
        if sig is None:
            sig = cache[bits] = _signature(bits)
        acc ^= sig.lower + sig.upper
        if i & 63 == 0:
            out.append(str(acc))
    return len(",".join(out)) + acc


def ref_loop() -> float:
    """Run the reference loop once; return its wall time in milliseconds."""
    t0 = time.perf_counter()
    _kernel(LOOP_ITERS)
    return (time.perf_counter() - t0) * 1000.0


def factor(loop_before_ms: float, loop_after_ms: float) -> float:
    """Multiplier from wall time to reference-speed time for one operation."""
    return REF_LOOP_MS / ((loop_before_ms + loop_after_ms) / 2.0)
