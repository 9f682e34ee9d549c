"""Tables, partitions, the approximation operators and the public surface."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granum import (Granulation, ParseError, Region, Universe,
                    indiscernibility_partition, lower_approx,
                    parse_context, parse_information_table, upper_approx)
from granum.core import _ids
from granum.parthood import ROUGH_INCLUSION, holds
from granum.oracles import brute_force_signatures

from conftest import granulation_suite


class TestParsing:
    def test_csv_roundtrip(self):
        table = parse_information_table("id,color,size\n1,red,big\n2,red,small\n3,blue,big\n")
        assert len(table.objects) == 3
        assert table.attributes == ("color", "size")
        assert table.value("color", "2") == "red"

    def test_header_only_is_no_objects(self):
        with pytest.raises(ParseError, match="no objects"):
            parse_information_table("id,color\n")

    def test_missing_value_names_column(self):
        with pytest.raises(ParseError, match="size"):
            parse_information_table("id,color,size\n1,red,big\n2,red\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate object id"):
            parse_information_table("id,c\n1,x\n1,y\n")

    def test_duplicate_id_after_many_rows_names_its_row(self):
        # the ids are kept in a dict: a wide table parses in linear time
        body = "".join(f"{i},v{i % 7}\n" for i in range(20000))
        table = parse_information_table("id,c\n" + body)
        assert len(table.objects) == 20000 and table.value("c", "19999") == "v0"
        with pytest.raises(ParseError, match=r"^row 20002: duplicate object id '0'$"):
            parse_information_table("id,c\n" + body + "0,x\n")

    def test_extra_value_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse_information_table("id,c\n1,x,y\n")

    def test_json_table(self):
        text = '{"attributes": ["c"], "objects": [["1", "red"], ["2", "blue"]]}'
        table = parse_information_table(text, "json")
        assert table.value("c", "2") == "blue"

    def test_context_granules(self):
        u, g = parse_context('{"universe": ["a", "b"], "granules": [["a"], ["a", "b"]]}')
        assert len(u) == 2 and len(g.granules) == 2

    def test_context_partition_validated(self):
        with pytest.raises(ParseError, match="disjoint"):
            parse_context('{"universe": ["a", "b"], "partition": [["a", "b"], ["b"]]}')

    def test_id_nested_past_the_encoder_is_refused(self):
        # A value decoded just inside the depth limit can be too deep to write
        # back from a deeper frame: the error names it without writing it.
        deep: list = []
        for _ in range(100000):
            deep = [deep]
        with pytest.raises(ParseError, match=r"^id nested too deeply to print in granule 0 "):
            _ids(["a", deep], "granule 0")
        table = "id,a\nx," + "v" * 140000 + "\n"   # a field past the csv module's limit
        with pytest.raises(ParseError, match=r"^row 2: field larger than field limit"):
            parse_information_table(table)


class TestPartition:
    def test_by_single_attribute(self):
        table = parse_information_table("id,color\n1,red\n2,red\n3,blue\n")
        rel = indiscernibility_partition(table, ["color"])
        assert {tuple(sorted(b)) for b in rel.blocks} == {("1", "2"), ("3",)}

    def test_all_distinct_gives_singletons(self):
        table = parse_information_table("id,c1,c2\n1,a,x\n2,a,y\n3,b,x\n")
        rel = indiscernibility_partition(table, table.attributes)
        assert all(len(b) == 1 for b in rel.blocks)

    def test_constant_attribute_gives_one_block(self):
        table = parse_information_table("id,c,k\n1,a,z\n2,b,z\n3,c,z\n")
        rel = indiscernibility_partition(table, ["k"])
        assert len(rel.blocks) == 1 and len(rel.blocks[0]) == 3

    def test_unknown_attribute(self):
        table = parse_information_table("id,c\n1,a\n")
        with pytest.raises(ValueError, match="unknown attribute"):
            indiscernibility_partition(table, ["missing"])


class TestApproximations:
    def test_lower_examples(self, u5, gran5):
        assert sorted(lower_approx(u5.region("134"), gran5)) == ["3"]
        assert lower_approx(u5.full_region(), gran5) == u5.full_region()
        assert lower_approx(u5.empty_region(), gran5) == u5.empty_region()

    def test_upper_examples(self, u5, gran5):
        assert upper_approx(u5.region("134"), gran5) == u5.full_region()
        assert sorted(upper_approx(u5.region("3"), gran5)) == ["3"]
        assert upper_approx(u5.empty_region(), gran5) == u5.empty_region()

    def test_rough_inclusion_examples(self, u5, space5):
        a = u5.region("134")
        assert holds(ROUGH_INCLUSION, a, u5.full_region(), space5)
        assert not holds(ROUGH_INCLUSION, u5.region("345"), a, space5)
        assert holds(ROUGH_INCLUSION, a, a, space5)

    def test_rough_equality_examples(self, u5, space5):
        # rough equality is equality of signatures, and rough inclusion both ways
        for a, b, equal in (("13", "23", True), ("13", "13", True), ("3", "4", False)):
            a, b = u5.region(a), u5.region(b)
            assert (space5.signature(a) == space5.signature(b)) is equal
            assert (holds(ROUGH_INCLUSION, a, b, space5)
                    and holds(ROUGH_INCLUSION, b, a, space5)) is equal

    def test_empty_lower_of_nonempty_is_fine(self, u5, gran5):
        assert lower_approx(u5.region("1"), gran5).is_empty()


def _random_granulation(rng: random.Random, n: int) -> Granulation:
    u = Universe(tuple(str(i) for i in range(n)))
    count = rng.randint(1, 2 * n)
    masks = set()
    while len(masks) < count:
        bits = rng.randrange(1, 1 << n)
        masks.add(bits)
    return Granulation(u, tuple(u.region_from_bits(b) for b in masks))


class TestInvariants:
    def test_oracle_equivalence_exhaustive(self):
        for name, g in granulation_suite():
            table = brute_force_signatures(g)
            for a in g.universe.all_regions():
                assert (lower_approx(a, g), upper_approx(a, g)) == table[a], name

    def test_monotony_exhaustive_small(self):
        for name, g in granulation_suite():
            if len(g.universe) > 4:
                continue
            regions = list(g.universe.all_regions())
            for a in regions:
                for b in regions:
                    if a.issubset(b):
                        assert lower_approx(a, g).issubset(lower_approx(b, g)), name
                        assert upper_approx(a, g).issubset(upper_approx(b, g)), name

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_monotony_random_larger(self, abits, bbits, seed):
        rng = random.Random(seed)
        g = _random_granulation(rng, 10)
        u = g.universe
        a = u.region_from_bits(abits & bbits)  # force a subset of b
        b = u.region_from_bits(bbits)
        assert lower_approx(a, g).issubset(lower_approx(b, g))
        assert upper_approx(a, g).issubset(upper_approx(b, g))

    def test_containment_and_idempotence_on_partitions(self, u5, gran5):
        for a in u5.all_regions():
            lo, up = lower_approx(a, gran5), upper_approx(a, gran5)
            assert lo.issubset(a) and a.issubset(up)
            assert lower_approx(lo, gran5) == lo
            assert upper_approx(up, gran5) == up

    def test_rough_equality_is_equivalence(self, u5, space5):
        regions = list(u5.all_regions())
        rng = random.Random(5)
        sample = rng.sample(regions, 12)

        def rough_equal(a, b):
            return space5.signature(a) == space5.signature(b)
        for a in sample:
            assert rough_equal(a, a)
            for b in sample:
                assert rough_equal(a, b) == rough_equal(b, a)
                assert rough_equal(a, b) == (holds(ROUGH_INCLUSION, a, b, space5)
                                             and holds(ROUGH_INCLUSION, b, a, space5))
                for c in sample:
                    if rough_equal(a, b) and rough_equal(b, c):
                        assert rough_equal(a, c)

    def test_rough_inclusion_is_quasi_order(self, u5, space5):
        regions = list(u5.all_regions())
        rng = random.Random(6)
        sample = rng.sample(regions, 12)
        for a in sample:
            assert holds(ROUGH_INCLUSION, a, a, space5)
            for b in sample:
                for c in sample:
                    if (holds(ROUGH_INCLUSION, a, b, space5)
                            and holds(ROUGH_INCLUSION, b, c, space5)):
                        assert holds(ROUGH_INCLUSION, a, c, space5)


class TestRegionAlgebra:
    def test_set_operations(self, u5):
        a, b = u5.region("13"), u5.region("34")
        assert sorted(a | b) == ["1", "3", "4"]
        assert sorted(a & b) == ["3"]
        assert sorted(a - b) == ["1"]
        assert sorted(a.complement()) == ["2", "4", "5"]

    def test_universe_mismatch_rejected(self, u5):
        other = Universe(("x", "y"))
        with pytest.raises(ValueError, match="different universes"):
            u5.region("1") | other.region("x")

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Universe(("a", "a"))
        # each repeated id named once, in sorted order, however often it repeats
        with pytest.raises(ValueError) as info:
            Universe(("q", "b", "z", "q", "a", "b", "q", "c"))
        assert str(info.value) == "duplicate element identifiers: ['b', 'q']"

    def test_equal_elements_make_equal_universes(self):
        a, b = Universe(("x", "y", "z")), Universe(["x", "y", "z"])
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != Universe(("y", "x", "z"))
        assert a.region("z") == b.region("z")

    def test_unknown_element_rejected(self, u5):
        for bad in ("9", 1, ["1"]):
            with pytest.raises(ValueError, match="unknown element"):
                u5.index(bad)

    def test_region_equals_checked_region(self):
        # Universe.region builds its region without the range check
        u = Universe(("a", "b", "c", "d"))
        for bits in range(16):
            members = [e for i, e in enumerate(u.elements) if bits >> i & 1]
            region = u.region(reversed(members))
            assert region == Region(u, bits) and hash(region) == hash(Region(u, bits))
            assert type(region) is Region and region.universe is u
        for bad, says in (("z", "'z'"), (1, "1"), (None, "None"), (["a"], r"\['a'\]")):
            with pytest.raises(ValueError, match=f"^unknown element {says}$"):
                u.region(["a", bad])

    def test_sparse_region_iterates_in_universe_order(self):
        u = Universe(tuple(f"e{i}" for i in range(4000)))
        picks = [3999, 0, 2047, 17, 64]
        region = u.region(f"e{i}" for i in picks)
        assert list(region) == [f"e{i}" for i in sorted(picks)]
        assert len(region) == 5 and list(u.empty_region()) == []
        assert [u.index(e) for e in region] == sorted(picks)

    def test_granulation_rejects_empty_and_duplicate(self, u5):
        with pytest.raises(ValueError, match="nonempty"):
            Granulation(u5, (u5.empty_region(),))
        with pytest.raises(ValueError, match="duplicate"):
            Granulation(u5, (u5.region("1"), u5.region("1")))


class TestPublicSurface:
    def test_star_import_binds_every_name_of_all_once(self):
        import granum
        names = {}
        exec("from granum import *", names)
        assert len(set(granum.__all__)) == len(granum.__all__)
        assert [n for n in granum.__all__ if n not in names] == []

    def test_removed_names_are_gone(self):
        import dataclasses
        import granum
        from granum import core, gos, parthood
        for module, name in ((granum, "interval_representation"),
                             (granum, "RoughRepresentation"), (granum, "rough_inclusion"),
                             (granum, "rough_equality"),
                             (granum, "audit_generalized_transitivity"),
                             (gos, "interval_representation"), (gos, "RoughRepresentation"),
                             (gos.RoughQuotient, "class_of"),
                             (core, "rough_inclusion"), (core, "rough_equality"),
                             (parthood, "audit_generalized_transitivity")):
            assert not hasattr(module, name), name
        assert [f.name for f in dataclasses.fields(gos.RoughQuotient)] == ["space", "classes"]
        assert [f.name for f in dataclasses.fields(gos.RoughClass)] == ["members", "lower",
                                                                        "upper"]
