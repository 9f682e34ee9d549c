"""Counting replay: every procedure's trace, pinned on posets and random graphs.

``fixtures/counting_traces.json.gz`` holds, for each case, the JSON export (or
the error message) of ``hpc_count``, ``pca_count``, ``hpca_count`` and
``fhca_count``.  The cases are the
poset corpus and 50 seeded random relations, some of them reflexive or
asymmetric, so the refusal messages and their witnesses are pinned too.

Regenerate the recording, only when a trace change is intended, with::

    PYTHONPATH=src python tests/test_counting_replay.py --write
"""

from __future__ import annotations

import functools
import gzip
import json
import random
import sys

import pytest

from granum import counting as C

from conftest import FIXTURES, build_poset_corpus

RECORDING = FIXTURES / "counting_traces.json.gz"
RELATION_KINDS = ("symmetric", "reflexive", "asymmetric", "reflexive-asymmetric")


def random_relations(count: int = 50, seed: int = 5):
    """(name, items, conflict) for seeded random relations on 1..9 integers."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = RELATION_KINDS[k % len(RELATION_KINDS)]
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    rel |= {(i, j), (j, i)}
        if "asymmetric" in kind and n > 1:
            i, j = rng.sample(range(n), 2)
            rel ^= {(i, j)}
        if "reflexive" in kind:
            i = rng.randrange(n)
            rel.add((i, i))
        items = list(range(n))
        rng.shuffle(items)
        out.append((f"graph-{k}-{kind}", tuple(items),
                    lambda a, b, rel=frozenset(rel): (a, b) in rel))
    return out


def cases():
    posets = [(name, items, conflict) for name, (items, _, conflict) in build_poset_corpus()]
    return posets + random_relations()


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return {"error": str(exc)}


def _with_antichains(result):
    trace, antichains = result
    return {"trace": trace.to_dict(), "antichains": [list(a) for a in antichains]}


def _hpca(seq, conflict):
    trace, decomposition = C.hpca_count(seq, conflict)
    return {"trace": trace.to_dict(), "decomposition": decomposition.to_dict()}


PROCEDURES = {
    "hpc": lambda seq, cf: C.hpc_count(seq, cf).to_dict(),
    "pca": lambda seq, cf: C.pca_count(seq, cf).to_dict(),
    "hpca": _hpca,
    "fhca": lambda seq, cf: _with_antichains(C.fhca_count(seq, cf)),
}


def record(items, conflict) -> dict:
    """JSON-normalised outcome of every procedure on one arrangement."""
    seq = C.arrangement(items)
    got = {name: _outcome(lambda: run(seq, conflict)) for name, run in PROCEDURES.items()}
    return json.loads(json.dumps(got, sort_keys=True))


@functools.cache
def _recorded() -> dict:
    return json.loads(gzip.decompress(RECORDING.read_bytes()))


CASES = {name: (items, conflict) for name, items, conflict in cases()}


def test_recording_covers_every_case():
    assert sorted(_recorded()) == sorted(CASES)
    for name, case in _recorded().items():
        assert sorted(case) == sorted(PROCEDURES), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_traces_match_recording(name):
    want = _recorded()[name]
    got = record(*CASES[name])
    for proc in PROCEDURES:
        assert got[proc] == want[proc], f"{proc} differs on {name}"


def test_recording_exercises_every_refusal():
    errors = {v["error"].split(":")[0] for case in _recorded().values()
              for v in case.values() if "error" in v}
    assert errors == {"conflict relation is not irreflexive", "relation is not symmetric"}


def write_recording() -> None:
    records = {name: record(items, conflict) for name, (items, conflict) in CASES.items()}
    text = json.dumps(records, sort_keys=True, indent=0) + "\n"
    RECORDING.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_counting_replay.py --write")
    write_recording()
