"""Brute-force verifiers: antichain enumeration, Mirsky cover, inverse search."""

import itertools
import random

import pytest

from granum import Universe, lower_approx, upper_approx
from granum.core import IndiscernibilityRelation
from granum.oracles import (MAX_COVER_ITEMS, all_partitions, brute_force_signatures,
                            enumerate_maximal_antichains, inverse_rough_check,
                            minimum_antichain_cover)

from conftest import random_poset, recursive_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


class TestMaximalAntichains:
    def test_vee_poset(self, vee_poset):
        items, _, conflict = vee_poset
        out = enumerate_maximal_antichains(conflict, items)
        assert {frozenset(s) for s in out} == {frozenset("ps"), frozenset("qrs")}

    def test_chain(self):
        out = enumerate_maximal_antichains(lambda a, b: a != b, list("abc"))
        assert out == [("a",), ("b",), ("c",)]

    def test_empty_conflict_whole_collection(self):
        out = enumerate_maximal_antichains(lambda a, b: False, list("abc"))
        assert out == [("a", "b", "c")]

    def test_outputs_conflict_free_and_incomparable(self):
        rng = random.Random(1)
        for _ in range(25):
            items, _, conflict = random_poset(rng.randint(2, 9), rng)
            out = enumerate_maximal_antichains(conflict, items)
            sets = [frozenset(s) for s in out]
            for s in out:
                for a, b in itertools.combinations(s, 2):
                    assert not conflict(a, b)
            for a, b in itertools.combinations(sets, 2):
                assert not (a <= b or b <= a)
            # cross-check against plain subset enumeration
            n = len(items)
            brute = set()
            for mask in range(1, 1 << n):
                sub = [items[i] for i in range(n) if mask >> i & 1]
                if any(conflict(x, y) for x, y in itertools.combinations(sub, 2)):
                    continue
                if any(all(not conflict(x, m) for m in sub)
                       for x in items if x not in sub):
                    continue
                brute.add(frozenset(sub))
            assert set(sets) == brute

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="too large"):
            enumerate_maximal_antichains(lambda a, b: False, list(range(21)))


class TestMirskyCover:
    def test_vee_poset_two_levels(self, vee_poset):
        items, le, _ = vee_poset
        cover = minimum_antichain_cover(le, items)
        assert cover.longest_chain == 2
        assert [set(l) for l in cover.levels] == [{"p", "s"}, {"q", "r"}]

    def test_antichain_one_level(self):
        cover = minimum_antichain_cover(lambda a, b: a == b, list("abc"))
        assert cover.longest_chain == 1

    def test_chain_of_four(self):
        order = "abcd"
        le = lambda a, b: order.index(a) <= order.index(b)
        cover = minimum_antichain_cover(le, list(order))
        assert cover.longest_chain == 4
        assert all(len(l) == 1 for l in cover.levels)

    def test_cap_refused_before_any_check(self):
        asked = []
        le = lambda a, b: asked.append((a, b)) or a <= b
        with pytest.raises(ValueError, match=f"n={MAX_COVER_ITEMS + 1} > {MAX_COVER_ITEMS}"):
            minimum_antichain_cover(le, range(MAX_COVER_ITEMS + 1))
        assert asked == []
        cover = minimum_antichain_cover(le, range(MAX_COVER_ITEMS))   # at the cap it answers
        assert cover.longest_chain == MAX_COVER_ITEMS

    def test_non_partial_order_rejected(self):
        with pytest.raises(ValueError, match="antisymmetry.*'a'.*'b'"):
            minimum_antichain_cover(lambda a, b: True, ["a", "b"])
        with pytest.raises(ValueError, match="not reflexive"):
            minimum_antichain_cover(lambda a, b: False, ["a"])

    def test_levels_are_antichains_and_meet_bound(self):
        rng = random.Random(9)
        for _ in range(30):
            items, le, conflict = random_poset(rng.randint(2, 10), rng)
            cover = minimum_antichain_cover(le, items)
            for level in cover.levels:
                for a, b in itertools.combinations(level, 2):
                    assert not conflict(a, b)
            # longest chain by brute force over permutations of small subsets
            longest = 1
            for size in range(2, len(items) + 1):
                for sub in itertools.combinations(items, size):
                    seq = sorted(sub, key=lambda x: sum(le(y, x) for y in items))
                    if all(le(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
                        longest = max(longest, size)
            assert cover.longest_chain == longest == len(cover.levels)


class TestSignatures:
    def test_fixture_spot_checks(self, u5, gran5):
        table = brute_force_signatures(gran5)
        lo, up = table[u5.region("134")]
        assert sorted(lo) == ["3"] and up == u5.full_region()
        lo, up = table[u5.empty_region()]
        assert lo.is_empty() and up.is_empty()

    def test_cap(self):
        u = Universe(tuple(f"e{i}" for i in range(15)))
        from granum import Granulation
        g = Granulation.from_sets(u, [[e] for e in u.elements])
        with pytest.raises(ValueError, match="too large"):
            brute_force_signatures(g)


class TestPartitionEnumeration:
    def test_bell_numbers(self):
        for n in range(8):
            items = tuple(str(i) for i in range(n))
            assert sum(1 for _ in all_partitions(items)) == BELL[n]

    def test_first_is_single_block_last_is_singletons(self):
        parts = list(all_partitions(("a", "b", "c")))
        assert parts[0] == (("a", "b", "c"),)
        assert parts[-1] == (("a",), ("b",), ("c",))

    def test_agrees_with_recursive_enumerator(self):
        for n in range(1, 7):
            items = tuple(str(i) for i in range(n))
            mine = {frozenset(frozenset(b) for b in p) for p in all_partitions(items)}
            other = {frozenset(frozenset(b) for b in p)
                     for p in recursive_partitions(items)}
            assert mine == other


class TestInverseRoughCheck:
    def test_two_element_witness(self):
        u = Universe(("1", "2"))
        pairs = [(u.empty_region(), u.full_region())]
        w = inverse_rough_check(pairs, u)
        assert w is not None
        assert [sorted(b) for b in w.partition.blocks] == [["1", "2"]]
        assert sorted(w.realizations[0]) == ["1"]
        assert w.replays(pairs)

    def test_two_element_no(self):
        u = Universe(("1", "2"))
        pairs = [(u.region("1"), u.full_region())]
        assert inverse_rough_check(pairs, u) is None

    def test_filter_rejects_non_nested(self):
        u = Universe(("1", "2"))
        pairs = [(u.region("1"), u.region("2"))]
        assert inverse_rough_check(pairs, u) is None

    def test_multi_pair_family(self):
        u = Universe(tuple("abcd"))
        rel = IndiscernibilityRelation.from_sets(u, [["a", "b"], ["c"], ["d"]])
        g = rel.granulation()
        regions = [u.region("a"), u.region("ac"), u.region("abd")]
        pairs = [(lower_approx(r, g), upper_approx(r, g)) for r in regions]
        w = inverse_rough_check(pairs, u)
        assert w is not None and w.replays(pairs)

    def test_witness_is_first_in_rgs_order(self):
        u = Universe(("1", "2", "3"))
        pairs = [(u.full_region(), u.full_region())]  # realized by any partition
        w = inverse_rough_check(pairs, u)
        assert [sorted(b) for b in w.partition.blocks] == [["1", "2", "3"]]

    def test_cap_refused(self):
        u = Universe(tuple(f"e{i}" for i in range(11)))
        with pytest.raises(ValueError, match="too large"):
            inverse_rough_check([], u)

    def test_agreement_with_independent_checker_on_random_families(self):
        from conftest import independently_realizable
        rng = random.Random(77)
        for trial in range(100):
            n = rng.randint(2, 5)
            els = tuple(f"e{i}" for i in range(n))
            u = Universe(els)
            pairs = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    # genuine signature under a random partition
                    labels = [0] + [rng.randint(0, i) for i in range(1, n)]
                    blocks = {}
                    for e, b in zip(els, labels):
                        blocks.setdefault(b, []).append(e)
                    g = IndiscernibilityRelation.from_sets(u, list(blocks.values())).granulation()
                    a = u.region_from_bits(rng.randrange(1 << n))
                    pairs.append((lower_approx(a, g), upper_approx(a, g)))
                else:
                    pairs.append((u.region_from_bits(rng.randrange(1 << n)),
                                  u.region_from_bits(rng.randrange(1 << n))))
            got = inverse_rough_check(pairs, u) is not None
            want = independently_realizable(
                [(frozenset(x), frozenset(y)) for x, y in pairs], els)
            assert got == want, trial

    def test_json_schema(self):
        u = Universe(("1", "2"))
        w = inverse_rough_check([(u.empty_region(), u.full_region())], u)
        doc = w.to_dict()
        assert doc == {"partition": [["1", "2"]],
                       "realizations": [{"pair": 0, "region": ["1"]}]}
