"""Golden CLI replay: stdout, stderr and exit code of every recorded run.

The recordings in ``fixtures/golden/`` (one file per input fixture) pin the
command line byte for byte: each subcommand on each fixture in both output
modes, every counting algorithm on both item collections, hpca under the
incomparability conflict, under cautious parthood and with ``--strict``,
sampled parthood audits (one on 62 elements, one of every variant on 16
overlapping elements, g-simple on 24), sampled axiom audits (every axiom on 62 and on 16
elements), an error case, every axiom audit under every parthood variant and the
rough-object count on a 14-element table (all 16384 regions) and on 13
overlapping elements that the granules do not cover, and every counting
algorithm under both conflicts and two parthood variants on a dense
120-element and a sparse 60-element context (gzipped recordings) and on 10
elements whose names need JSON escapes.
A change that alters any of them shows up here as a diff.

Regenerate the recordings, only when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py --write [FIXTURE ...]

Without fixture names every recording is rewritten.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import gzip
import io
import json
import sys

import pytest

from granum import cli, parthood as pH

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

INPUTS = {
    "ctx_vee.json": "p,q",
    "table_blocks.csv": "1,3,4",
    "pairs_yes.json": "1",
    "pairs_no.json": "1",
    "ctx_chain9.json": "a,b,d,e",
}


def _fixture_cases(name: str, region: str) -> dict[str, list[str]]:
    runs = {
        "approx": ["approx", "--region", region, "--knowledge"],
        "gos-audit": ["gos-audit"],
        "parthood-audit": ["parthood-audit"],
        "inverse": ["inverse"],
    }
    for algo in ("hpc", "pca", "hpca", "fhca"):
        for items in ("elements", "rough-objects"):
            runs[f"count-{algo}-{items}"] = ["count", "--algo", algo, "--items", items]
    for op in ("maximal-antichains", "antichain-cover", "signatures"):
        runs[f"oracle-{op}"] = ["oracle", "--op", op]
    if name in ("ctx_vee.json", "ctx_chain9.json", "table_blocks.csv"):
        runs["count-hpca-incomparability"] = ["count", "--algo", "hpca",
                                              "--conflict", "incomparability"]
        runs["count-hpca-cautious"] = ["count", "--algo", "hpca", "--parthood", "cautious"]
        runs["count-hpca-strict"] = ["count", "--algo", "hpca", "--strict"]
    if name == "table_blocks.csv":
        runs["parthood-audit-budget8-seed3"] = ["parthood-audit", "--budget", "8",
                                                "--seed", "3"]
    if name == "ctx_vee.json":
        runs["error-incomparability-lateral"] = ["count", "--conflict", "incomparability",
                                                 "--parthood", "lateral", "--algo", "hpca"]
    return {f"{case}-{output}": argv + ["--input", f"{{fixtures}}/{name}",
                                        "--output", output]
            for case, argv in runs.items() for output in ("json", "text")}


CASES = {name: _fixture_cases(name, region) for name, region in INPUTS.items()}
# 2**62 regions: the widest universe whose sampled basis rng.sample can draw.
CASES["ctx_wide62.json"] = {
    f"parthood-audit-budget48-seed5-{output}": [
        "parthood-audit", "--budget", "48", "--seed", "5",
        "--input", "{fixtures}/ctx_wide62.json", "--output", output]
    for output in ("json", "text")}
# 16 overlapping elements: a sampled audit of every variant at a real budget.
CASES["ctx_overlap16.json"] = {
    f"parthood-audit-budget256-seed7-{output}": [
        "parthood-audit", "--variant", "all", "--budget", "256", "--seed", "7",
        "--input", "{fixtures}/ctx_overlap16.json", "--output", output]
    for output in ("json", "text")}
# Past the 14-element cap gos-audit samples its 2048 regions with --seed.
for _name in ("ctx_wide62.json", "ctx_overlap16.json"):
    CASES[_name].update({
        f"gos-audit-seed7-{output}": [
            "gos-audit", "--axiom", "all", "--seed", "7",
            "--input", f"{{fixtures}}/{_name}", "--output", output]
        for output in ("json", "text")})
# Axiom audits at the exhaustive cap (14 elements, 16384 regions) under every
# parthood variant, on an 8-block table shaped as the audit workload's tables,
# and the same on 13 elements with overlapping granules that leave e05 and e09
# uncovered, where lower-stability and full-underlap fail under some variants.
# Each also counts its rough objects (1944 and 176 classes) at that size.
for _name in ("table_cap14.csv", "ctx_overlap13.json"):
    CASES[_name] = {
        f"gos-audit-{parthood}-{output}": [
            "gos-audit", "--axiom", "all", "--parthood", parthood,
            "--input", f"{{fixtures}}/{_name}", "--output", output]
        for parthood in sorted(pH.VARIANTS) for output in ("json", "text")}
    CASES[_name].update({
        f"count-pca-rough-objects-{output}": [
            "count", "--algo", "pca", "--items", "rough-objects",
            "--input", f"{{fixtures}}/{_name}", "--output", output]
        for output in ("json", "text")})
# g-simple on 24 overlapping elements, as in the audit workload.
CASES["ctx_overlap24.json"] = {
    f"parthood-audit-g-simple-budget128-seed7-{output}": [
        "parthood-audit", "--variant", "g-simple", "--budget", "128", "--seed", "7",
        "--input", "{fixtures}/ctx_overlap24.json", "--output", output]
    for output in ("json", "text")}
# Counting at benchmark scale, on contexts shaped as the count workload's:
# conflict density about 0.98 (dense, 120 elements) and 0.5 (sparse, 60).
COUNT_SCALE = ("ctx_dense120.json", "ctx_sparse60.json")
for _name in COUNT_SCALE:
    CASES[_name] = {
        f"count-{algo}-{conflict}-{parthood}-{output}": [
            "count", "--algo", algo, "--conflict", conflict, "--parthood", parthood,
            "--input", f"{{fixtures}}/{_name}", "--output", output]
        for algo in ("hpc", "pca", "hpca", "fhca")
        for conflict in ("comparability", "incomparability")
        for parthood in ("cautious", "rough-inclusion")
        for output in ("json", "text")}


# Element names that the JSON writer must escape (quote, backslash, control
# characters, non-ASCII, astral, U+2028), of different text lengths, under
# overlapping granules: multi-pass hpca runs whose rotations split the order.
CASES["ctx_escaped10.json"] = {
    f"count-{algo}-{conflict}-{parthood}-{output}": [
        "count", "--algo", algo, "--conflict", conflict, "--parthood", parthood,
        "--input", "{fixtures}/ctx_escaped10.json", "--output", output]
    for algo in ("hpc", "pca", "hpca", "fhca")
    for conflict in ("comparability", "incomparability")
    for parthood in ("cautious", "rough-inclusion")
    for output in ("json", "text")}


GZIPPED = COUNT_SCALE + ("table_cap14.csv",)   # megabytes of output


def _record_path(name: str):
    path = GOLDEN / (name.replace(".", "_") + ".json")
    return path.with_suffix(".json.gz") if name in GZIPPED else path


def replay(argv: list[str]) -> dict:
    """Run the CLI in-process and capture what a shell would see."""
    resolved = [a.replace("{fixtures}", str(FIXTURES)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(resolved, out=out)
    here = str(FIXTURES)
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue().replace(here, "{fixtures}"),
            "stderr": err.getvalue().replace(here, "{fixtures}")}


@functools.cache
def _recorded(name: str) -> dict:
    data = _record_path(name).read_bytes()
    if name in GZIPPED:
        data = gzip.decompress(data)
    return json.loads(data.decode("utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_recordings_cover_every_case(name):
    assert sorted(_recorded(name)) == sorted(CASES[name])


@pytest.mark.parametrize("name,case", [(name, case) for name in sorted(CASES)
                                       for case in sorted(CASES[name])])
def test_cli_output_matches_recording(name, case, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    want = _recorded(name)[case]
    got = replay(CASES[name][case])
    assert got["argv"] == want["argv"]
    for stream in ("stdout", "stderr"):
        if got[stream] != want[stream]:
            diff = "".join(difflib.unified_diff(
                want[stream].splitlines(True), got[stream].splitlines(True),
                "recorded", "now"))
            pytest.fail(f"{stream} differs for {case}:\n{diff}")
    assert got["exit"] == want["exit"]


def write_recordings(names: list[str]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        records = {case: replay(argv) for case, argv in CASES[name].items()}
        data = (json.dumps(records, indent=1, sort_keys=True) + "\n").encode("utf-8")
        if name in GZIPPED:
            data = gzip.compress(data, mtime=0)
        _record_path(name).write_bytes(data)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or not set(sys.argv[2:]) <= set(CASES):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write [FIXTURE ...]")
    import os
    os.environ.pop(cli.ENV_SEED, None)
    write_recordings(sys.argv[2:] or list(CASES))
