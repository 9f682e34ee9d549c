"""Self-tests of the benchmark: seeded inputs, exact counters, checks, smoke runs.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("cli.out_kb", "core.lower_bits_calls", "core.upper_bits_calls",
         "gos.signature_calls", "parthood.holds_calls", "parthood.conflict_calls",
         "parthood.audit_errors", "counting.passes", "oracles.partitions_tried",
         "oracles.inverse_refusals")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=str(cwd), timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = workloads.generate(workload, 7, 2)
    b = workloads.generate(workload, 7, 2)
    assert [(o.filename, o.argv, o.content.encode()) for o in a] == \
        [(o.filename, o.argv, o.content.encode()) for o in b]
    c = workloads.generate(workload, 8, 2)
    assert [o.content for o in a] != [o.content for o in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_keep_their_composition_and_slices(workload):
    def shape(op):
        argv = [a for a, prev in zip(op.argv, [""] + op.argv) if prev != "--seed"]
        return op.slice or " ".join(argv)

    ops = workloads.generate(workload, 3, 3)
    blocks = [ops[i:i + 20] for i in range(0, len(ops), 20)]
    shapes = [sorted(shape(o) for o in b) for b in blocks]
    assert shapes[0] == shapes[1] == shapes[2]
    slices = sum(o.slice is not None for o in ops)
    assert slices == (0 if workload == "count" else len(blocks))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    res = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", trace, "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat(workload):
    runs = [_result(_run("--workload", workload, "--seed", "9", "--trace", "1",
                         "--smoke"))["metrics"] for _ in range(2)]
    for name in EXACT:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run("--workload", "audit", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()


# --- the checker agrees with granum where granum is right ---------------------

def test_planted_inverse_answers_match_the_partition_scan():
    from granum import Universe, inverse_rough_check
    ops = [o for o in workloads.generate("inverse", 4, 2)
           if o.slice is None and len(o.truth["universe"]) <= 7]
    assert ops
    for op in ops:
        u = Universe(tuple(op.truth["universe"]))
        pairs = [(u.region_from_bits(lo), u.region_from_bits(up))
                 for lo, up in op.truth["pairs"]]
        assert (inverse_rough_check(pairs, u) is not None) is op.truth["realizable"]


def test_closed_form_matches_the_partition_scan_on_random_families():
    from granum import Universe, inverse_rough_check
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        u = Universe(tuple(str(i) for i in range(n)))
        pairs = []
        for _ in range(rng.randint(1, 3)):
            up = rng.getrandbits(n)
            pairs.append((up & rng.getrandbits(n), up))
        regions = [(u.region_from_bits(lo), u.region_from_bits(up)) for lo, up in pairs]
        assert workloads.realizable_closed_form(n, pairs) is \
            (inverse_rough_check(regions, u) is not None)


def _granum_output(op) -> dict:
    import io
    from granum import cli
    path = ROOT / ".perfbench_work" / f"selftest-{op.filename}"
    path.parent.mkdir(exist_ok=True)
    path.write_text(op.content)
    try:
        buf = io.StringIO()
        assert cli.run(op.resolved_argv(str(path)), out=buf) == 0
        return json.loads(buf.getvalue())
    finally:
        path.unlink()
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def test_checks_reject_a_wrong_count():
    op = next(o for o in workloads.generate("count", 2, 1) if o.argv[2] == "hpca")
    doc = _granum_output(op)
    assert checks.check_count(doc, op.truth) is None
    doc["trace"]["categories"][0]["members"].pop()
    assert checks.check_count(doc, op.truth) is not None


def test_checks_reject_a_flipped_inverse_verdict():
    op = next(o for o in workloads.generate("inverse", 2, 1)
              if o.slice is None and o.truth["realizable"])
    doc = _granum_output(op)
    assert checks.check_inverse(doc, op.truth) is None
    doc["witness"]["realizations"][0]["region"] = []
    assert checks.check_inverse(doc, op.truth) is not None
    assert checks.check_inverse({"realizable": False, "witness": None}, op.truth) is not None


def test_checks_reject_a_wrong_audit_report():
    op = next(o for o in workloads.generate("audit", 2, 1) if o.kind == "parthood-audit"
              and o.slice is None)
    doc = _granum_output(op)
    assert checks.check_parthood_audit(doc, op.truth) is None
    doc["reports"][0]["scope"]["seed"] = op.truth["seed"] + 1
    assert checks.check_parthood_audit(doc, op.truth) is not None
