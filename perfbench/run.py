#!/usr/bin/env python3
"""Benchmark of the granum command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

One process runs one workload: a seeded, generated list of ``granum``
subcommands (see workloads.py), executed in-process through
``granum.cli.run(argv, out=buffer)``, one at a time in a closed loop with a
single client and no threads, until ``--seconds`` of wall time have passed.
The ops of the two known-defect slices (see workloads.py) are set aside
from the timed loop: they fail today, and the timed ops are the ones that
work. They run untimed after the loop, and their outcomes are reported by
class on the detail line. A fixed reference loop (calib.py) is timed right before and right after
every operation, and each operation's time is scaled to the reference
machine speed; the raw wall figures are reported beside the calibrated ones.
Every output is checked after its operation by checks.py, which never calls
granum.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed
prefix of the list twice, slice ops included, untraced and then traced by
layers.py, and prints the per-layer metrics with the tracing overhead. The last line of standard
output is the result object; the line before it holds the details (raw wall
figures, calibration spread, sample counts, failures by class, and the
outcomes of the known-defect ops).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import calib  # noqa: E402  (the benchmark's own modules sit next to this file)
import checks  # noqa: E402
import workloads  # noqa: E402

# A trace runs a fixed prefix of the op list, so that every counter repeats
# exactly for a seed.
TRACE_OPS = {"audit": 80, "count": 40, "inverse": 100}
SMOKE_OPS = 4
SETUP_REPS = 7
# The known-defect ops run after the timed loop for at most this share of
# --seconds, so that a fix that makes them slow cannot stretch a run much.
DEFECT_SHARE = 0.1


@dataclass
class Record:
    """One op's timing and outcome; it keeps no input, so memory stays flat."""

    index: int
    kind: str
    slice: str | None
    wall_s: float
    loop_before_ms: float
    loop_after_ms: float
    outcome: str          # "ok", "wrong: ...", "exception:<type>" or "exit:<code>"
    out_bytes: int
    layers: dict | None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def cal_ms(self) -> float:
        return self.wall_s * 1000.0 * calib.factor(self.loop_before_ms, self.loop_after_ms)


def _load_program():
    if not (SRC / "granum" / "__init__.py").is_file():
        print(f"error: no granum sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import granum.cli
    return granum.cli


def _write(op: workloads.Op, work: Path) -> str:
    path = work / op.filename
    path.write_text(op.content, encoding="utf-8")
    return str(path)


def _prepare(cli, workload: str, seed: int, tag: str) -> tuple[Iterator, Path]:
    """Generate the first block of ops and warm up; this is the set-up.

    Later blocks are generated, and each op's input file is written, just
    before the op runs and outside its timed interval, so that set-up time
    depends neither on the run's length nor on the file system.
    """
    blocks = workloads.stream(workload, seed)
    first = next(blocks)
    work = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    for op in workloads.warmup(workload):
        _run_op(cli, op, _write(op, work))
    return chain(first, chain.from_iterable(blocks)), work


def _run_op(cli, op: workloads.Op, path: str):
    argv = op.resolved_argv(path)
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.run(argv, out=out)
        except Exception as e:   # a crash is a measured outcome, not a benchmark error
            exc = type(e).__name__
        wall = time.perf_counter() - t0
    return wall, code, exc, out.getvalue()


def _outcome(op: workloads.Op, code, exc, text: str) -> str:
    if exc is not None:
        return f"exception:{exc}"
    if code != 0:
        return f"exit:{code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return "wrong: output is not JSON"
    reason = checks.CHECKS[op.kind](doc, op.truth)
    return "ok" if reason is None else f"wrong: {reason}"


def _regular(ops: Iterator, aside: list) -> Iterator:
    """The ops outside the known-defect slices; slice ops go to ``aside``."""
    for op in ops:
        if op.slice is None:
            yield op
        else:
            aside.append(op)


def measure(cli, ops, work: Path, seconds: float = math.inf,
            tracer=None) -> list[Record]:
    """Closed loop over the ops until they run out or ``seconds`` pass."""
    records: list[Record] = []
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start >= seconds:
            break
        path = _write(op, work)
        gc.collect()
        before = calib.ref_loop()
        if tracer is not None:
            tracer.begin_op()
        wall, code, exc, text = _run_op(cli, op, path)
        after = calib.ref_loop()
        layers = tracer.op_summary() if tracer is not None else None
        records.append(Record(op.index, op.kind, op.slice, wall, before, after,
                              _outcome(op, code, exc, text), len(text.encode()), layers))
    return records


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: import, generate and warm up, then report and exit."""
    t0 = time.perf_counter()
    cli = _load_program()
    import_ms = (time.perf_counter() - t0) * 1000.0
    _, work = _prepare(cli, workload, seed, "probe")
    try:
        print(json.dumps({"ready": True, "import_ms": import_ms}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def probe_setups(workload: str, seed: int, reps: int) -> list[dict]:
    """Time ``reps`` fresh processes from start to their first op, calibrated."""
    samples = []
    for _ in range(reps):
        before = calib.ref_loop()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait()
        after = calib.ref_loop()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"setup probe failed with status {proc.returncode}")
        f = calib.factor(before, after)
        samples.append({"wall_s": wall, "setup_s": wall * f,
                        "import_ms": json.loads(line)["import_ms"] * f})
    return samples


# --- metrics ----------------------------------------------------------------

def _percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _failures(records: list[Record]) -> tuple[dict, bool]:
    """Failed ops by class, and whether every failure lies in a known-defect slice.

    A wrong output is never expected, in a slice or not.
    """
    classes: dict[str, int] = {}
    expected = True
    for r in records:
        if r.ok:
            continue
        wrong = r.outcome.startswith("wrong")
        key = "wrong output" if wrong else r.outcome
        classes[key] = classes.get(key, 0) + 1
        expected = expected and not wrong and r.slice is not None
    return classes, expected


def end_to_end(records: list[Record], setups: list[dict]) -> tuple[dict, dict]:
    passed = sum(r.ok for r in records)
    cal = [r.cal_ms for r in records]
    wall = [r.wall_s * 1000.0 for r in records]
    # A failed op misses every latency limit: it ranks with the slowest op.
    lat = [c if r.ok else max(cal) for c, r in zip(cal, records)]
    raw_lat = [w if r.ok else max(wall) for w, r in zip(wall, records)]
    p50, _ = _percentile(lat, 0.5)
    p90, beyond = _percentile(lat, 0.9)
    loops = [x for r in records for x in (r.loop_before_ms, r.loop_after_ms)]
    metrics = {
        "ops_per_s": (passed / (sum(cal) / 1000.0), "1/s"),
        "op_p50_ms": (p50, "ref-ms"),
        "op_p90_ms": (p90, "ref-ms"),
        "ok_ratio": (passed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    failures, _ = _failures(records)
    detail = {
        "samples": len(records), "p90_samples_beyond": beyond,
        "raw_wall": {"ops_per_s": passed / (sum(wall) / 1000.0),
                     "op_p50_ms": _percentile(raw_lat, 0.5)[0],
                     "op_p90_ms": _percentile(raw_lat, 0.9)[0],
                     "setup_s": statistics.median(s["wall_s"] for s in setups)},
        "calibration": {"ref_loop_ms": calib.REF_LOOP_MS,
                        "loop_median_ms": statistics.median(loops),
                        "loop_spread": _spread(loops)},
        "setup_samples_s": [s["setup_s"] for s in setups],
        "failures": failures,
    }
    return metrics, detail


def per_layer(traced: list[Record], plain: list[Record], setups: list[dict]) -> tuple[dict, dict]:
    k = len(traced)

    def ms(key: str) -> float:
        return sum(r.layers[key] * 1000.0 * calib.factor(r.loop_before_ms, r.loop_after_ms)
                   for r in traced) / k

    def total(key: str) -> int:
        return sum(r.layers[key] for r in traced)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    loops = [x for r in plain for x in (r.loop_before_ms, r.loop_after_ms)]
    metrics = {
        "cli.import_ms": (statistics.median(s["import_ms"] for s in setups), "ref-ms"),
        "cli.self_ms": (ms("cli_self_s"), "ref-ms"),
        "cli.out_kb": (sum(r.out_bytes for r in traced) / 1024.0, "KiB"),
        "core.parse_ms": (ms("core_parse_s"), "ref-ms"),
        "core.lower_bits_calls": (total("core_lower_bits_calls"), "count"),
        "core.upper_bits_calls": (total("core_upper_bits_calls"), "count"),
        "gos.audit_ms": (ms("gos_audit_s"), "ref-ms"),
        "gos.signature_calls": (total("gos_signature_calls"), "count"),
        "gos.signature_miss_ratio": (ratio(total("gos_signature_distinct"),
                                           total("gos_signature_calls")), "ratio"),
        "parthood.audit_ms": (ms("parthood_audit_s"), "ref-ms"),
        "parthood.holds_calls": (total("parthood_holds_calls"), "count"),
        "parthood.conflict_calls": (total("parthood_conflict_calls"), "count"),
        "parthood.audit_errors": (total("parthood_audit_errors"), "count"),
        "counting.self_ms": (ms("counting_self_s"), "ref-ms"),
        "counting.conflict_calls_per_n2": (ratio(total("counting_callback_calls"),
                                                 total("counting_n2")), "ratio"),
        "counting.verify_ms": (ms("counting_verify_s"), "ref-ms"),
        "counting.passes": (total("counting_passes"), "count"),
        "counting.pass_yield": (ratio(total("counting_retained"),
                                      total("counting_passes")), "ratio"),
        "oracles.inverse_ms": (ms("oracles_inverse_s"), "ref-ms"),
        "oracles.partitions_tried": (total("oracles_partitions_tried"), "count"),
        "oracles.inverse_refusals": (total("oracles_inverse_refusals"), "count"),
        "trace.overhead": (sum(r.cal_ms for r in traced) / sum(r.cal_ms for r in plain),
                           "ratio"),
        "calib.loop_ms": (statistics.median(loops), "ms"),
        "calib.loop_spread": (_spread(loops), "ratio"),
    }
    detail = {"traced_ops": k,
              "untraced_ops_per_s": sum(r.ok for r in plain) / (sum(r.cal_ms for r in plain) / 1000.0),
              "failures": _failures([r for r in traced if r.slice is None])[0]}
    return metrics, detail


# --- entry point ------------------------------------------------------------

def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"run only {SMOKE_OPS} ops and one setup probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    cli = _load_program()
    ops, work = _prepare(cli, args.workload, args.seed, "run")
    try:
        reps = 1 if args.smoke else SETUP_REPS
        if args.trace:
            # The layer counters see the slice ops too: parthood.audit_errors
            # and oracles.inverse_refusals count the known defects.
            k = SMOKE_OPS if args.smoke else TRACE_OPS[args.workload]
            prefix = list(islice(ops, k))
            plain = measure(cli, prefix, work)
            import layers
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = measure(cli, prefix, work, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics, detail = per_layer(traced, plain, probe_setups(
                args.workload, args.seed, reps))
            timed = [r for r in plain + traced if r.slice is None]
            defects = [r for r in plain + traced if r.slice is not None]
        else:
            aside: list[workloads.Op] = []
            regular = _regular(ops, aside)
            if args.smoke:
                regular = islice(regular, SMOKE_OPS)
            timed = measure(cli, regular, work, args.seconds)
            metrics, detail = end_to_end(timed, probe_setups(
                args.workload, args.seed, reps))
            defects = measure(cli, aside, work, args.seconds * DEFECT_SHARE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    records = timed + defects
    _, expected = _failures(records)
    passed = sum(r.ok for r in timed)
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["known_defects"] = {name: _failures([r for r in defects if r.slice == name])[0]
                               | {"ops": sum(r.slice == name for r in defects)}
                               for name in sorted({r.slice for r in defects})}
    detail["wrong"] = [f"op {r.index} ({r.kind}): {r.outcome}"
                       for r in records if r.outcome.startswith("wrong")][:5]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": expected,
        "attempted": len(timed),
        "failed": len(timed) - passed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
