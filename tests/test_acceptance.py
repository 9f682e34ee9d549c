"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every expected value here is either trivial from a
definition or frozen from an independent oracle computation.
"""

import functools
import io
import itertools
import json
import random
import time

from granum import cli
from granum import counting as C
from granum import parthood as ph
from granum.core import IndiscernibilityRelation, Universe, lower_approx, upper_approx
from granum.counting import arrangement
from granum.gos import GranularOperatorSpace, basic_rough_order, rough_objects
from granum.oracles import (brute_force_signatures, enumerate_maximal_antichains,
                            inverse_rough_check, minimum_antichain_cover)

from conftest import FIXTURES, granulation_suite, independently_realizable


def criterion(line):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {line}: FAIL")
                raise
            print(f"\nACCEPTANCE {line}: PASS")
        return wrapper
    return deco


@criterion("1 approximation-correctness")
def test_criterion_01_approximations_match_bruteforce():
    start = time.monotonic()
    suite = granulation_suite()
    assert len(suite) >= 25
    for name, g in suite:
        assert len(g.universe) <= 6
        table = brute_force_signatures(g)
        for a in g.universe.all_regions():
            got = (lower_approx(a, g), upper_approx(a, g))
            assert got == table[a], (name, sorted(a))
    assert time.monotonic() - start < 5.0


@criterion("2 quotient-bounded-partial-order")
def test_criterion_02_quotient_structure():
    start = time.monotonic()
    rng = random.Random(40)
    for trial in range(50):
        n = rng.randint(1, 6)
        els = tuple(f"e{i}" for i in range(n))
        labels = [0] + [rng.randint(0, i) for i in range(1, n)]
        blocks = {}
        for e, b in zip(els, labels):
            blocks.setdefault(b, []).append(e)
        u = Universe(els)
        rel = IndiscernibilityRelation.from_sets(u, list(blocks.values()))
        space = GranularOperatorSpace(u, rel.granulation())
        order = basic_rough_order(rough_objects(space))
        assert not order.reflexive_failures(), trial
        assert not order.transitive_failures(), trial
        assert not order.antisymmetric_failures(), trial
        assert order.is_bounded(), trial
    assert time.monotonic() - start < 30.0


@criterion("3 parthood-theorem-audit")
def test_criterion_03_parthood_audit():
    start = time.monotonic()
    contexts = [(name, g) for name, g in granulation_suite() if len(g.universe) <= 5]
    assert contexts
    always_preorders = ("bilateral", "very-cautious", "possibilist",
                        "g-simple", "rough-inclusion")
    lateral_witnessed = False
    lateral_plus_witnessed = False
    for name, g in contexts:
        space = GranularOperatorSpace(g.universe, g)
        for vname in always_preorders:
            report = ph.audit_properties(ph.variant(vname), space)
            assert report.check("reflexive").verdict == "holds-exhaustively", (name, vname)
            assert report.check("transitive").verdict == "holds-exhaustively", (name, vname)
        if space.is_definite(g.universe.full_region()):
            lpp = ph.audit_properties(ph.LATERAL_PLUS_PLUS, space)
            assert lpp.check("strictly-confluent").verdict == "holds-exhaustively", name
        for vname, flag in (("lateral", "lat"), ("lateral-plus", "lat+")):
            report = ph.audit_properties(ph.variant(vname), space)
            check = report.check("reflexive")
            if check.verdict == "fails":
                assert check.witnesses, (name, vname)
                for (w,) in check.witnesses:
                    assert not ph.holds(ph.variant(vname), w, w, space), (name, vname)
                if vname == "lateral":
                    lateral_witnessed = True
                else:
                    lateral_plus_witnessed = True
    assert lateral_witnessed and lateral_plus_witnessed
    assert time.monotonic() - start < 60.0


@criterion("4 pca-theorem")
def test_criterion_04_pca_theorem(poset_corpus):
    for name, (items, _, conflict) in poset_corpus:
        trace = C.pca_count(arrangement(items), conflict)
        maximal = {frozenset(s) for s in enumerate_maximal_antichains(conflict, items)}
        assert frozenset(trace.categories[0].members) in maximal, name
        seen = [m for c in trace.categories for m in c.members]
        assert sorted(seen) == sorted(items), name          # partition of the input
        assert sum(len(c.members) for c in trace.categories) == len(items), name
        for cat in trace.categories:
            labs = [trace.label_history(m)[0] for m in cat.members]
            assert [l.count for l in labs] == list(range(1, len(cat.members) + 1)), name
            assert all(l.type_index == cat.index for l in labs), name


@criterion("5a hpca-categories-maximal")
def test_criterion_05a_hpca_maximality(poset_corpus):
    for name, (items, _, conflict) in poset_corpus:
        trace, dec = C.hpca_count(arrangement(items), conflict)
        maximal = {frozenset(s) for s in enumerate_maximal_antichains(conflict, items)}
        for cat in trace.categories:
            assert frozenset(cat.members) in maximal, name
        union = set().union(*(set(c.members) for c in trace.categories))
        assert union <= set(items), name


@criterion("5b hpca-coherence-definition")
def test_criterion_05b_coherence_matches_unfolded_definition(vee_poset):
    items, _, conflict = vee_poset
    trace, dec = C.hpca_count(arrangement(items), conflict)
    # unfold the definition by hand: categories are maximal antichains and cover
    maximal = {frozenset(s) for s in enumerate_maximal_antichains(conflict, items)}
    unfolded = (all(frozenset(c.members) in maximal for c in trace.categories)
                and set().union(*(set(c.members) for c in trace.categories)) == set(items))
    assert dec.coherent == unfolded is True
    assert [c.members for c in trace.categories] == [("p", "s"), ("q", "r", "s")]


@criterion("5c noncoherent-arrangement-search")
def test_criterion_05c_noncoherent_pair_exists(poset_corpus):
    """Does some (poset, order) pair make hpca non-coherent?

    Searches every arrangement of every corpus poset with at most 5 elements,
    under the comparability conflict.  The answer is no: for a symmetric,
    irreflexive conflict every hpca pass is a maximal antichain and the
    markers cover every pass-1 reject (the proof is in ``hpca_count``'s
    docstring).  So the search must come back empty, and the verdict is
    checked three ways:

    1. on every arrangement the run's verified ``coherent`` equals the
       definition unfolded against the oracle: every category is a maximal
       antichain from ``enumerate_maximal_antichains`` and the categories
       cover the collection;
    2. no arrangement is non-coherent;
    3. the verdict can still say no: wherever pass 1 rejects something, the
       trace cut off after pass 1 (the run as if no marker were consumed) is
       judged not coherent by ``verify_decomposition``, with exactly pass 1's
       rejects missing.
    """
    searched = cut_checked = 0
    noncoherent = []
    for name, (items, _, conflict) in poset_corpus:
        if len(items) > 5:
            continue
        maximal = {frozenset(s) for s in enumerate_maximal_antichains(conflict, items)}
        for perm in itertools.permutations(items):
            seq = C.OrderArrangement(perm)
            trace, verified = C.hpca_count(seq, conflict)
            unfolded = (all(frozenset(c.members) in maximal for c in trace.categories)
                        and set().union(*(set(c.members) for c in trace.categories))
                        == set(items))
            verdict = verified.coherent
            assert verdict == unfolded, (name, perm, verdict, unfolded)
            searched += 1
            if not verdict:
                noncoherent.append((name, perm))

            first = trace.passes[0]
            if first.rejected:
                cut = C.CountingTrace("hpca", [seq],
                                      {x: trace.labels[x][:1] for x in perm},
                                      trace.categories[:1], [first])
                dec = C.verify_decomposition(cut, conflict)
                assert dec.coherent is False, (name, perm)
                assert dec.missing == first.rejected, (name, perm, dec.missing)
                cut_checked += 1
    assert (searched, cut_checked) == (4114, 3828)
    assert not noncoherent, (
        f"non-coherent (poset, order) pairs found, first {noncoherent[0]}: "
        "every hpca run must cover its collection with maximal antichains "
        "(see hpca_count's docstring)")


@criterion("6 fhca-coverage-and-delegation")
def test_criterion_06_fhca(poset_corpus):
    for name, (items, _, conflict) in poset_corpus:
        htrace, hdec = C.hpca_count(arrangement(items), conflict)
        ftrace, antichains = C.fhca_count(arrangement(items), conflict)
        assert not ftrace.incomplete, name
        assert set().union(*(set(a) for a in antichains)) == set(items), name
        if hdec.coherent:
            assert ftrace.labels == htrace.labels, name
            assert [c.members for c in ftrace.categories] == \
                [c.members for c in htrace.categories], name
        maximal = {frozenset(s) for s in enumerate_maximal_antichains(conflict, items)}
        for a in antichains:
            assert frozenset(a) in maximal, name


@criterion("7 mirsky-grading")
def test_criterion_07_mirsky(poset_corpus):
    for name, (items, le, conflict) in poset_corpus:
        cover = minimum_antichain_cover(le, items)
        # oracle cover meets the longest-chain bound with equality by construction;
        # re-check the levels are conflict-free and count them
        for level in cover.levels:
            for a, b in itertools.combinations(level, 2):
                assert not conflict(a, b), name
        assert len(cover.levels) == cover.longest_chain, name
        trace, dec = C.hpca_count(arrangement(items), conflict)
        if dec.coherent:
            assert len(trace.categories) >= cover.longest_chain, name


@criterion("8 inverse-problem")
def test_criterion_08_inverse(u5):
    start = time.monotonic()
    rng = random.Random(808)

    def random_partition_pairs(n, npairs):
        els = tuple(f"e{i}" for i in range(n))
        u = Universe(els)
        labels = [0] + [rng.randint(0, i) for i in range(1, n)]
        blocks = {}
        for e, b in zip(els, labels):
            blocks.setdefault(b, []).append(e)
        rel = IndiscernibilityRelation.from_sets(u, list(blocks.values()))
        g = rel.granulation()
        pairs = []
        for _ in range(npairs):
            a = u.region_from_bits(rng.randrange(1 << n))
            pairs.append((lower_approx(a, g), upper_approx(a, g)))
        return u, pairs

    for trial in range(100):
        u, pairs = random_partition_pairs(rng.randint(2, 8), rng.randint(1, 5))
        witness = inverse_rough_check(pairs, u)
        assert witness is not None, trial
        assert witness.replays(pairs), trial

    adversarial = 0
    while adversarial < 100:
        u, pairs = random_partition_pairs(rng.randint(2, 6), rng.randint(1, 4))
        n = len(u)
        k = rng.randrange(len(pairs))
        lo, up = pairs[k]
        if rng.random() < 0.5:
            lo = u.region_from_bits(lo.bits ^ (1 << rng.randrange(n)))
        else:
            up = u.region_from_bits(up.bits ^ (1 << rng.randrange(n)))
        pairs[k] = (lo, up)
        target = [(frozenset(a), frozenset(b)) for a, b in pairs]
        if independently_realizable(target, u.elements):
            continue  # mutation happened to stay realizable; try again
        adversarial += 1
        assert inverse_rough_check(pairs, u) is None, adversarial
    assert time.monotonic() - start < 300.0


def straight_line_hpc(seq, related):
    """Independent rule-by-rule reading of the counting rules."""
    def render(j, r):
        if r == 0:
            return f"1_{j}"
        if r == 1:
            return f"s(1_{j})"
        return f"s^{r}(1_{j})"

    out = [render(1, 0)]
    j, r = 1, 0
    for i in range(1, len(seq)):
        x = seq[i]
        if related(seq[i - 1], x):                               # rule two
            j, r = j + 1, 0
        elif all(not related(seq[k], x) for k in range(i)):      # rule three
            j, r = j, r + 1
        else:                                                    # gap rule
            j, r = j + 1, 0
        out.append(render(j, r))
    return out


@criterion("9 hpc-trace-conformance")
def test_criterion_09_hpc_conformance():
    rel = lambda a, b: {a, b} == {"x1", "x2"}
    seq = ("x1", "x2", "x3")
    trace = C.hpc_count(arrangement(seq), rel)
    mine = [trace.label_history(x)[0].render() for x in seq]
    assert mine == straight_line_hpc(seq, rel) == ["1_1", "1_2", "s(1_2)"]

    rng = random.Random(909)
    for trial in range(20):
        n = rng.randint(2, 10)
        items = tuple(f"y{i}" for i in range(n))
        related = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    related.add(frozenset((items[i], items[j])))
        rel = lambda a, b: frozenset((a, b)) in related
        trace = C.hpc_count(arrangement(items), rel)
        mine = "|".join(trace.label_history(x)[0].render() for x in items)
        ref = "|".join(straight_line_hpc(items, rel))
        assert mine == ref, trial


@criterion("10 cli-determinism")
def test_criterion_10_cli_determinism():
    vee = str(FIXTURES / "ctx_vee.json")
    table = str(FIXTURES / "table_blocks.csv")
    commands = [
        ["count", "--algo", "fhca", "--input", vee, "--output", "json"],
        ["gos-audit", "--input", table, "--output", "json"],
        ["parthood-audit", "--variant", "lateral", "--input", table,
         "--output", "json"],
    ]
    for argv in commands:
        outputs = set()
        for threads in ("1", "4", "1", "4", "1"):
            buf = io.StringIO()
            code = cli.run(argv + ["--threads", threads], out=buf)
            assert code == 0
            outputs.add(buf.getvalue())
        assert len(outputs) == 1, argv
        json.loads(outputs.pop())  # well-formed
