"""Operator-space audits, rough quotients and the basic rough order."""

import dataclasses
import json
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from granum import (AxiomReport, Basis, Granulation, GranularOperatorSpace, Universe,
                    audit_full_underlap, audit_lower_stability,
                    audit_weak_representability, basic_rough_order,
                    inverse_rough_check, knowledge_validity_check, lower_approx,
                    rough_objects, rough_origin, upper_approx)
from granum import gos as gos_mod, parthood as ph
from granum.core import Region, _region_masks, lower_bits, upper_bits
from granum.gos import _axiom_basis
from granum.oracles import brute_force_signatures

from conftest import granulation_suite, planted_pairs, seeded_space


def classical_ops(granulation):
    return (lambda a: lower_approx(a, granulation),
            lambda a: upper_approx(a, granulation))


def logged_space(n, explicit=False):
    """A singleton-granule space on n elements and the log of its signature
    lookups; with ``explicit``, its operators are the classical ones, given
    explicitly."""
    u = Universe(tuple(f"e{i}" for i in range(n)))
    g = Granulation.from_sets(u, [[e] for e in u.elements])
    ops = classical_ops(g) if explicit else (None, None)
    space = GranularOperatorSpace(u, g, *ops)
    return space, _log_lookups(space)


def _log_lookups(space):
    """Log ``space``'s signature lookups from now on, replacing any earlier log."""
    space.__dict__.pop("signature_bits", None)
    scanned = []
    lookup = space.signature_bits

    def logged(bits):
        scanned.append(bits)
        return lookup(bits)
    space.signature_bits = logged
    return scanned


class TestWeakRepresentability:
    def test_classical_space_passes(self, space5):
        report = audit_weak_representability(space5)
        assert report.passed and report.mode == "exhaustive"
        assert report.checked == 32

    def test_explicit_upper_violation_witnessed(self, u5, gran5):
        lo, up = classical_ops(gran5)
        bad = u5.region("13")

        def upper(a):
            return bad if a == u5.region("1") else up(a)
        space = GranularOperatorSpace(u5, gran5, lower=lo, upper=upper)
        report = audit_weak_representability(space)
        assert not report.passed
        assert any(w["region"] == u5.region("1") and w["side"] == "upper"
                   for w in report.witnesses)

    def test_singleton_granulation_accepts_any_operators(self):
        u = Universe(("a", "b", "c"))
        g = Granulation.from_sets(u, [["a"], ["b"], ["c"]])
        rng = random.Random(3)
        table = {a: u.region_from_bits(rng.randrange(8)) for a in u.all_regions()}
        space = GranularOperatorSpace(u, g, lower=table.get, upper=table.get)
        assert audit_weak_representability(space).passed


class TestLowerStability:
    def test_rough_inclusion_passes(self, space5):
        assert audit_lower_stability(space5).passed

    def test_ultra_cautious_report_emitted(self, u5, gran5):
        space = GranularOperatorSpace(u5, gran5, parthood=ph.ULTRA_CAUTIOUS)
        report = audit_lower_stability(space)
        assert report.axiom == "lower-stability"
        assert report.mode == "exhaustive"

    def test_whole_universe_granule_trivial(self):
        u = Universe(("a", "b"))
        g = Granulation.from_sets(u, [["a", "b"]])
        assert audit_lower_stability(GranularOperatorSpace(u, g)).passed


class TestFullUnderlap:
    def test_block_pair_has_definite_witness(self, space5, u5):
        report = audit_full_underlap(space5)
        assert report.passed
        detail = next(d for d in report.details
                      if {tuple(sorted(p)) for p in d["pair"]} ==
                      {("1", "2"), ("3",)})
        z = detail["witness"]
        assert space5.is_definite(z)
        assert ph.proper_part(space5.parthood, u5.region("12"), z, space5)
        # the whole universe qualifies too
        assert ph.proper_part(space5.parthood, u5.region("3"), u5.full_region(), space5)

    def test_single_universe_granule_fails(self):
        u = Universe(("a", "b"))
        g = Granulation.from_sets(u, [["a", "b"]])
        report = audit_full_underlap(GranularOperatorSpace(u, g))
        assert not report.passed

    def test_two_singletons_witness_full(self):
        u = Universe(("1", "2"))
        g = Granulation.from_sets(u, [["1"], ["2"]])
        report = audit_full_underlap(GranularOperatorSpace(u, g))
        assert report.passed
        pair = next(d for d in report.details
                    if {tuple(sorted(p)) for p in d["pair"]} == {("1",), ("2",)})
        assert pair["witness"] == u.full_region()


def _class_of(q, a: Region):
    """The class of ``q`` whose members hold ``a``."""
    return next(c for c in q.classes if a in c.members)


def _crisp(space, c) -> bool:
    """Whether class ``c``'s signature is (A, A) for a definite member A."""
    return c.lower == c.upper and space.signature(c.lower) == (c.lower, c.lower)


def _stable(space, c) -> bool:
    """Whether ``c``'s signature is unchanged when the operators are repeated."""
    return (space.signature(c.lower)[0] == c.lower
            and space.signature(c.upper)[1] == c.upper)


def _interval(space, c) -> bool:
    """Whether ``c``'s signature is a strictly nested pair of definite regions."""
    return (c.lower.bits != c.upper.bits and c.lower.issubset(c.upper)
            and space.is_definite(c.lower) and space.is_definite(c.upper))


class TestRoughObjects:
    def test_same_signature_same_class(self, space5, u5):
        q = rough_objects(space5)
        assert _class_of(q, u5.region("13")) is _class_of(q, u5.region("23"))

    def test_definite_block_is_singleton_class(self, space5, u5):
        block = u5.region("3")
        c = _class_of(rough_objects(space5), block)
        assert c.members == (block,) and c.lower == c.upper == block

    def test_class_count_is_18(self, space5):
        assert len(rough_objects(space5).classes) == 18

    def test_classes_partition_the_power_set(self, space5):
        q = rough_objects(space5)
        seen = [m for c in q.classes for m in c.members]
        assert len(seen) == 32 and len(set(seen)) == 32

    def test_definite_only_notion(self, space5):
        # partitions are idempotent: every class is stable, so none would be filtered
        q = rough_objects(space5)
        assert len(q.classes) == 18 and all(_stable(space5, c) for c in q.classes)

    def test_definite_only_drops_unstable(self, u5, gran5):
        lo, up = classical_ops(gran5)

        def weird_upper(a):
            # not idempotent: upper({3}) = {3,4} but upper({3,4}) = {3,4,5}
            if a == u5.region("3"):
                return u5.region("34")
            return up(a)
        space = GranularOperatorSpace(u5, gran5, lower=lo, upper=weird_upper)
        q = rough_objects(space)
        assert not _stable(space, _class_of(q, u5.region("3")))
        assert 0 < sum(_stable(space, c) for c in q.classes) < len(q.classes)

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_classes_ascend_by_first_member(self, explicit):
        rng = random.Random(f"rough-object-order-{explicit}")
        for _ in range(150):
            space = seeded_space(rng, rng.randint(1, 7), explicit)
            classes = rough_objects(space).classes
            firsts = [c.members[0].bits for c in classes]
            assert firsts == sorted(firsts)
            for c in classes:
                assert [m.bits for m in c.members] == sorted(m.bits for m in c.members)


class TestBasicRoughOrder:
    def test_bottom_and_top(self, space5, u5):
        q = rough_objects(space5)
        order = basic_rough_order(q)
        bottom = q.classes.index(_class_of(q, u5.empty_region()))
        top = q.classes.index(_class_of(q, u5.full_region()))
        assert bottom in order.bottoms() and top in order.tops()
        assert order.is_bounded()

    def test_antisymmetric_for_rough_inclusion(self, space5):
        order = basic_rough_order(rough_objects(space5))
        assert not order.reflexive_failures()
        assert not order.transitive_failures()
        assert not order.antisymmetric_failures()

    def test_non_signature_variant_checks_all_pairs(self, u5, gran5):
        space = GranularOperatorSpace(u5, gran5, parthood=ph.G_SIMPLE)
        order = basic_rough_order(rough_objects(space))
        assert not order.reflexive_failures()

    def test_bottoms_and_tops_of_random_relations(self):
        rng = random.Random("bottoms-tops")
        for n in [0, 1, 2, 3, 63, 64, 65, 130] + [rng.randint(1, 20) for _ in range(40)]:
            full = (1 << n) - 1
            rows = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)]
            for i in rng.sample(range(n), rng.randint(0, min(n, 3))):
                rows[i] = full   # a bottom
            for j in rng.sample(range(n), rng.randint(0, min(n, 3))):
                rows = [row | 1 << j for row in rows]   # a top
            order = gos_mod.BasicRoughOrder(None, tuple(rows))
            m = [[row >> j & 1 for j in range(n)] for row in rows]
            assert order.bottoms() == [i for i in range(n) if all(m[i])]
            assert order.tops() == [j for j in range(n) if all(m[i][j] for i in range(n))]


class TestIntervalRepresentation:
    """The (lower, upper) pairs of rough classes, read off the quotient."""

    def test_counts_and_pairs(self, space5):
        q = rough_objects(space5)
        crisp = [c for c in q.classes if _crisp(space5, c)]
        rough = [c for c in q.classes if not _crisp(space5, c)]
        assert len(crisp) == 8 and len(q.classes) == 18 and len(rough) == 10
        for c in rough:
            assert _interval(space5, c)
            assert c.lower < c.upper  # strict nesting

    def test_class_of_singleton_maps_to_empty_and_block(self, space5, u5):
        c = _class_of(rough_objects(space5), u5.region("1"))
        assert (c.lower, c.upper) == (u5.empty_region(), u5.region("12"))

    def test_crisp_classes_excluded_from_rough(self, space5, u5):
        q = rough_objects(space5)
        assert _crisp(space5, _class_of(q, u5.region("3")))
        assert all(u5.region("3") not in c.members
                   for c in q.classes if not _crisp(space5, c))

    def test_unrepresentable_listed_not_fatal(self, u5, gran5):
        lo, up = classical_ops(gran5)

        def weird_upper(a):
            # class of {1} gets signature (empty, {1}) whose upper is not definite
            if a == u5.region("1"):
                return u5.region("1")
            return up(a)
        space = GranularOperatorSpace(u5, gran5, lower=lo, upper=weird_upper)
        q = rough_objects(space)
        c = _class_of(q, u5.region("1"))
        assert (c.lower, c.upper) == (u5.empty_region(), u5.region("1"))
        assert not _crisp(space, c) and not _interval(space, c)

    def test_json_stable(self, space5):
        def dump(q):
            return json.dumps([[[sorted(m) for m in c.members], sorted(c.lower),
                                sorted(c.upper)] for c in q.classes])
        assert dump(rough_objects(space5)) == dump(rough_objects(space5))


class TestKnowledgeValidity:
    def test_all_hold_for_partition(self, space5, u5):
        report = knowledge_validity_check(u5.region("134"), space5)
        assert report.all_hold

    def test_empty_region(self, space5, u5):
        assert knowledge_validity_check(u5.empty_region(), space5).all_hold

    def test_non_idempotent_lower_fails_with_values(self, u5, gran5):
        lo, up = classical_ops(gran5)

        def bad_lower(a):
            if a == u5.region("12"):
                return u5.region("1")
            if a == u5.region("1"):
                return u5.empty_region()
            return lo(a)
        space = GranularOperatorSpace(u5, gran5, lower=bad_lower, upper=up)
        report = knowledge_validity_check(u5.region("12"), space)
        assert not report.all_hold
        eq = next(e for e in report.equations if e["name"] == "lower-idempotent")
        assert not eq["holds"]
        assert eq["lhs"] != eq["rhs"]


class TestSpaceBasics:
    def test_partition_spaces_pass_all_audits(self):
        for name, g in granulation_suite():
            if not g.is_partition() or len(g.universe) > 6:
                continue
            space = GranularOperatorSpace(g.universe, g)
            assert audit_weak_representability(space).passed, name
            assert audit_lower_stability(space).passed, name
            if len(g.granules) > 1:
                assert audit_full_underlap(space).passed, name

    def test_containment_checked_not_assumed(self, u5, gran5):
        lo, up = classical_ops(gran5)
        space = GranularOperatorSpace(u5, gran5, lower=lambda a: a, upper=lambda a: lo(a))
        bad = space.containment_violations()
        assert bad  # upper misses parts of lower: reported, not an exception

    @pytest.mark.parametrize("cap,listed", [(-3, 0), (0, 0), (1, 1), (3, 3), (10, 4)])
    def test_containment_lists_at_most_cap(self, cap, listed):
        # lower is the full region and upper the empty one: all 4 regions violate
        u = Universe(("a", "b"))
        space = GranularOperatorSpace(u, Granulation.from_sets(u, [["a"], ["b"]]),
                                      lower=lambda r: u.full_region(),
                                      upper=lambda r: u.empty_region())
        assert len(space.containment_violations()) == 4
        assert space.containment_violations(cap) == space.containment_violations()[:listed]

    def test_explicit_mode_requires_both(self, u5, gran5):
        with pytest.raises(ValueError, match="both"):
            GranularOperatorSpace(u5, gran5, lower=lambda a: a)

    def test_sampled_audit_scans_distinct_masks(self):
        basis = _axiom_basis(16, 9)
        space, scanned = logged_space(16, explicit=True)
        report = audit_weak_representability(space, basis)
        assert (report.passed, report.mode, report.checked) == (True, "sampled", 2048)
        assert scanned == basis.masks and len(set(scanned)) == 2048
        space, scanned = logged_space(16)   # derived: the same report, nothing read
        assert audit_weak_representability(space, basis) == report
        assert space.containment_violations(basis=basis) == []
        assert scanned == [] and space._columns is None

    def test_containment_scans_the_audit_basis(self):
        space, scanned = logged_space(16, explicit=True)
        audit_weak_representability(space, _axiom_basis(16, 9))
        basis = list(scanned)
        scanned.clear()
        assert space.containment_violations(basis=_axiom_basis(16, 9)) == []
        assert scanned == basis
        scanned.clear()   # and by default both scan the basis of DEFAULT_SEED
        audit_weak_representability(space)
        basis = list(scanned)
        scanned.clear()
        assert space.containment_violations() == []
        assert scanned == basis != _axiom_basis(16, 9).masks

    def test_derived_signatures_are_nested_unions_of_granules(self):
        # Why derived spaces skip the weak-representability and containment
        # scans, checked on the set-logic signatures of the oracle.
        rng = random.Random("derived-theorems")
        kinds = set()
        for _ in range(60):
            g = seeded_space(rng, rng.randint(1, 8)).granulation
            granules = [frozenset(x) for x in g.granules]
            covered = frozenset().union(*granules)
            kinds.add((covered == frozenset(g.universe.elements),
                       sum(map(len, granules)) > len(covered)))
            for sig in brute_force_signatures(g).values():
                lo, up = map(frozenset, sig)
                for value in (lo, up):
                    assert frozenset().union(*(x for x in granules if x <= value)) == value
                assert lo <= up
        assert kinds == {(c, o) for c in (False, True) for o in (False, True)}

    def test_sampled_mode_for_large_universe(self):
        u = Universe(tuple(f"e{i}" for i in range(16)))
        g = Granulation.from_sets(u, [[e] for e in u.elements])
        space = GranularOperatorSpace(u, g)
        report = audit_weak_representability(space, _region_masks(16, 1 << 14, 64, 9))
        assert report.mode == "sampled" and report.checked == 64
        assert report.seed == 9


def _granule_masks(rng, n):
    """Random granule masks on n bits, empty and repeated ones included, that
    need not cover the bits: more than a Granulation accepts."""
    masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 2))]
    return masks + rng.sample(masks, rng.randint(0, len(masks))) + [0] * rng.randint(0, 1)


class TestSignatures:
    def test_derived_space_reads_any_mask_list_mask_by_mask(self):
        rng = random.Random("signatures")
        for _ in range(30):
            n = rng.randint(1, 10)
            space = seeded_space(rng, n)
            granules = space.granulation.masks()

            def per_mask(masks):
                return [(lower_bits(m, granules), upper_bits(m, granules)) for m in masks]
            everything = list(range(1 << n))
            some = [rng.randrange(1 << n) for _ in range(rng.randint(0, 40))]
            lowers = [lo for lo, _ in per_mask(everything)]
            for masks in (some, everything[::-1], everything, some, lowers):
                scanned = _log_lookups(space)
                assert space.signatures(masks) == per_mask(masks)
                assert scanned == masks   # one signature_bits read per mask, in order

    def test_explicit_space_reads_its_operators_mask_by_mask(self):
        rng = random.Random("signatures-explicit")
        for _ in range(10):
            n = rng.randint(1, 5)
            space = seeded_space(rng, n, explicit=True)
            region = space.universe.region_from_bits
            everything = list(range(1 << n))
            some = [rng.randrange(1 << n) for _ in range(rng.randint(0, 40))]
            called = []
            lower = space._lower_op
            space._lower_op = lambda a: called.append(a.bits) or lower(a)
            singles = [1 << e for e in range(n)]
            space.signatures(singles)
            assert called == singles   # a one-element read calls the operators too
            for masks in (everything, everything[::-1], some):
                scanned = _log_lookups(space)
                assert space.signatures(masks) == [
                    (space._lower_op(region(m)).bits, space._upper_op(region(m)).bits)
                    for m in masks]
                assert scanned == masks

    def test_explicit_foreign_region_refused(self, u5, gran5):
        other = Universe(("x",))
        space = GranularOperatorSpace(u5, gran5, lower=lambda a: a,
                                      upper=lambda a: Region(other, 1))
        with pytest.raises(ValueError, match="foreign region"):
            space.signatures(list(range(32)))
        with pytest.raises(ValueError, match="foreign region"):
            audit_weak_representability(space)
        assert space._cache == {}   # a refused signature is not memoized

    def test_fused_read_equals_lower_and_upper_bits(self):
        rng = random.Random("fused-signature-read")
        for _ in range(120):
            n = rng.randint(1, 30)
            space = seeded_space(rng, n)
            full = (1 << n) - 1
            granules = space.granulation.masks()
            masks = [0, full, *granules, *(rng.getrandbits(n) for _ in range(20))]
            masks += [g | rng.getrandbits(n) for g in granules[:3]]
            singles = [1 << e for e in range(n)]   # half read first, half last
            rng.shuffle(singles)
            masks = singles[:n // 2] + masks + singles[n // 2:]
            if rng.random() < 0.5:   # a granule list no Granulation accepts
                space._masks = tuple(_granule_masks(rng, n))
                granules = space._masks
            for bits in masks:
                want = (lower_bits(bits, granules), upper_bits(bits, granules))
                assert space.signature_bits(bits) == want, (n, granules, bits)

    def test_fused_read_equals_the_brute_force_signatures(self):
        rng = random.Random("fused-signature-oracle")
        for _ in range(60):
            space = seeded_space(rng, rng.randint(1, 8))
            for region, (lo, up) in brute_force_signatures(space.granulation).items():
                assert space.signature_bits(region.bits) == (lo.bits, up.bits)

    def test_rough_objects_reads_every_region_once(self):
        rng = random.Random("rough-objects-reads")
        for _ in range(10):
            n = rng.randint(1, 8)
            space = seeded_space(rng, n)
            lower, upper = classical_ops(space.granulation)
            explicit = GranularOperatorSpace(space.universe, space.granulation,
                                             lower=lower, upper=upper)
            classes = []
            for s in (space, explicit):
                scanned = _log_lookups(s)
                classes.append(rough_objects(s).classes)
                assert scanned == list(range(1 << n))   # one read per region, in order
            assert classes[0] == classes[1]


class TestRegionColumns:
    def test_columns_match_per_mask_signatures_bit_by_bit(self):
        rng = random.Random("region-columns")
        for n in range(1, 11):
            for _ in range(12 if n < 8 else 4):
                granules = _granule_masks(rng, n)
                table = [(lower_bits(m, granules), upper_bits(m, granules))
                         for m in range(1 << n)]
                cols = gos_mod._region_columns(granules, n)

                def column(member):   # the regions x with member(x)
                    return sum(1 << x for x in range(1 << n) if member(x))
                assert cols.everything == column(lambda x: True)
                for e in range(n):
                    assert cols.inside[e] == column(lambda x: x >> e & 1), (n, granules, e)
                    assert cols.lower[e] == column(lambda x: table[x][0] >> e & 1)
                    assert cols.upper[e] == column(lambda x: table[x][1] >> e & 1)
                    assert cols.upper_lower[e] == column(
                        lambda x: table[table[x][0]][1] >> e & 1)

    def test_only_derived_spaces_scanned_in_ascending_order_use_columns(self):
        rng = random.Random("columns-gate")
        for _ in range(20):
            n = rng.randint(2, 6)
            everything = list(range(1 << n))
            space = seeded_space(rng, n)
            assert space.columns(everything[::-1]) is None
            assert space.columns(everything[:-1]) is None
            assert space.columns(tuple(everything)) is None
            cols = space.columns(everything)
            assert cols is not None and space.columns(list(everything)) is cols
            assert seeded_space(rng, n, explicit=True).columns(everything) is None


class TestBasis:
    def test_reports_carry_the_seed_of_the_basis(self):
        # the seed a report states is the one its regions were drawn with
        space, _ = logged_space(16)
        basis = _axiom_basis(16, 3)
        for audit in (audit_weak_representability, audit_lower_stability,
                      audit_full_underlap):
            report = audit(space, basis)
            assert (report.mode, report.seed) == ("sampled", 3)
            assert report.to_dict()["seed"] == 3
        exhaustive = _axiom_basis(5, 3)
        assert (exhaustive.mode, exhaustive.seed) == ("exhaustive", None)
        assert exhaustive.masks == list(range(32))

    @pytest.mark.parametrize("mode,seed", [("exhaustive", 3), ("sampled", None),
                                           ("partial", None), ("partial", 3)])
    def test_mode_and_seed_must_agree(self, mode, seed):
        with pytest.raises(ValueError, match="exhaustive without a seed"):
            Basis([0, 1], mode, seed)

    def test_exhaustive_basis_must_hold_every_region(self):
        space, _ = logged_space(16)
        short = Basis(list(range(16)), "exhaustive", None)
        for audit in (audit_weak_representability, audit_lower_stability,
                      audit_full_underlap):
            with pytest.raises(ValueError, match="cannot hold all regions of 16"):
                audit(space, short)
        with pytest.raises(ValueError, match="cannot hold"):
            space.containment_violations(basis=short)
        assert Basis(list(range(16)), "sampled", 0).scan(space.universe) == list(range(16))


# --- the per-pair loops that parthood.relation_rows replaced: references -----

def _reference_weak_representability(gos, basis, witness_cap=10):
    u = gos.universe
    masks = gos.granulation.masks()
    witnesses = []
    failures = 0
    for bits in basis.masks:
        lo, up = gos.signature_bits(bits)
        for side, value in (("lower", lo), ("upper", up)):
            if lower_bits(value, masks) != value:
                failures += 1
                if len(witnesses) < witness_cap:
                    witnesses.append({"region": u.region_from_bits(bits), "side": side,
                                      "value": u.region_from_bits(value)})
    return AxiomReport("weak-representability", failures == 0, basis.mode,
                       len(basis.masks), tuple(witnesses), seed=basis.seed), failures


def _reference_lower_stability(gos, basis, witness_cap=10):
    u = gos.universe
    witnesses = []
    failures = 0
    for bits in basis.masks:
        x = u.region_from_bits(bits)
        xl = gos.lower(x)
        for y in gos.granulation.granules:
            if ph.holds(gos.parthood, y, x, gos) and not ph.holds(gos.parthood, y, xl, gos):
                failures += 1
                if len(witnesses) < witness_cap:
                    witnesses.append({"granule": y, "region": x})
    return AxiomReport("lower-stability", failures == 0, basis.mode,
                       len(basis.masks) * len(gos.granulation.granules), tuple(witnesses),
                       seed=basis.seed), failures


def _reference_full_underlap(gos, basis):
    u = gos.universe
    granules = gos.granulation.granules
    pairs = [(granules[i], granules[j])
             for i in range(len(granules)) for j in range(i, len(granules))]
    definite = [u.region_from_bits(bits) for bits in basis.masks
                if gos.signature_bits(bits) == (bits, bits)]

    def probe(pair):
        x, y = pair
        for z in definite:
            if ph.proper_part(gos.parthood, x, z, gos) and ph.proper_part(gos.parthood, y, z, gos):
                return z
        return None

    found = [probe(pair) for pair in pairs]
    details = tuple({"pair": [a, b], "witness": w} for (a, b), w in zip(pairs, found))
    return AxiomReport("full-underlap", all(w is not None for w in found), basis.mode,
                       len(pairs) * len(basis.masks), (), details=details, seed=basis.seed)


AUDIT_VARIANTS = list(ph.VARIANTS.values())


def _seeded_spaces(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, seeded_space(rng, rng.randint(1, max_n))


def _reference_containment(gos, basis, cap):
    return [gos.universe.region_from_bits(bits) for bits in basis.masks
            if gos.signature_bits(bits)[0] & ~gos.signature_bits(bits)[1]][:max(cap, 0)]


CAPS = (-1, 0, 1, 10, 1 << 20)   # the unlimited cap lists every failure


def _bases(rng, n):
    """The exhaustive basis, the same regions out of order, and a sample."""
    everything = list(range(1 << n))
    permuted = rng.sample(everything, 1 << n)
    if permuted == everything:
        permuted.reverse()
    return (Basis(everything, "exhaustive", None), Basis(permuted, "exhaustive", None),
            Basis(sorted(rng.sample(everything, rng.randint(1, 1 << n))), "sampled", 5))


class TestAuditsMatchPairwiseReference:
    @pytest.mark.parametrize("v", AUDIT_VARIANTS, ids=lambda v: v.name)
    def test_lower_stability_and_full_underlap(self, v):
        for rng, space in _seeded_spaces(f"audits-{v.name}", 10, 7):
            space.parthood = v
            n = len(space.universe)
            for basis in _bases(rng, n):
                for cap in CAPS:
                    want, failures = _reference_lower_stability(space, basis, cap)
                    got = audit_lower_stability(space, basis, witness_cap=cap)
                    assert got == want
                    assert len(got.witnesses) == max(min(cap, failures), 0)
                assert audit_full_underlap(space, basis) == \
                    _reference_full_underlap(space, basis)
            # the ascending basis of a derived space is read off its columns
            assert space._columns is not None

    @pytest.mark.parametrize("v", list(ph.VARIANTS.values()), ids=lambda v: v.name)
    def test_permuted_exhaustive_basis_scans_the_regions(self, v):
        rng = random.Random(f"permuted-{v.name}")
        for _ in range(8):
            n = rng.randint(2, 6)
            space = seeded_space(rng, n)
            space.parthood = v
            _, permuted, _ = _bases(rng, n)
            assert audit_weak_representability(space, permuted) == \
                _reference_weak_representability(space, permuted)[0]
            assert audit_lower_stability(space, permuted) == \
                _reference_lower_stability(space, permuted)[0]
            assert audit_full_underlap(space, permuted) == \
                _reference_full_underlap(space, permuted)
            assert space.containment_violations(basis=permuted) == \
                _reference_containment(space, permuted, 10)
            assert space._columns is None

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_lower_stability_off_the_lattice_tests_each_signature_once(self, explicit,
                                                                        monkeypatch):
        rng = random.Random(f"once-{explicit}")
        n = 8 if explicit else 30
        space = seeded_space(rng, n)
        if explicit:   # lookup tables of few values, so signatures repeat
            u, few = space.universe, rng.sample(list(space.universe.all_regions()), 3)
            space = GranularOperatorSpace(u, space.granulation,
                                          lower={a: rng.choice(few) for a in u.all_regions()},
                                          upper={a: rng.choice(few) for a in u.all_regions()})
        basis = Basis(sorted(rng.sample(range(1 << n), 200)), "sampled", 5)
        sizes = []   # the targets of each relation_rows call
        rows = ph.relation_rows
        monkeypatch.setattr(ph, "relation_rows",
                            lambda v, gos, s, t: sizes.append(len(t)) or rows(v, gos, s, t))
        assert len(set(space.signatures(basis.masks))) < len(basis.masks)
        for v in AUDIT_VARIANTS:
            space.parthood = v
            sizes.clear()
            for cap in CAPS:
                assert audit_lower_stability(space, basis, witness_cap=cap) == \
                    _reference_lower_stability(space, basis, cap)[0]
            # one region per pair of its own signature and the one the tests read
            read = ph._subset_tests(v, space)[1]
            tested = len(set(zip(space.signatures(basis.masks), read.signatures(basis.masks))))
            assert sizes == [tested, tested] * len(CAPS)

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_containment(self, explicit):
        rng = random.Random(f"containment-{explicit}")
        failing = 0
        for _ in range(20):
            space = seeded_space(rng, rng.randint(1, 6), explicit)
            for basis in _bases(rng, len(space.universe)):
                for cap in CAPS:
                    want = _reference_containment(space, basis, cap)
                    scanned = _log_lookups(space)
                    assert space.containment_violations(cap, basis) == want
                    # a derived space's lower lies inside its upper: nothing is read
                    assert scanned == (basis.masks if explicit else [])
                    failing += bool(want)
            assert space._columns is None
        assert failing if explicit else not failing

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_weak_representability(self, explicit, monkeypatch):
        tested = []
        monkeypatch.setattr(gos_mod, "lower_bits", lambda value, masks: tested.append(value)
                            or lower_bits(value, masks))
        failing = 0
        rng = random.Random(f"wra-{explicit}")
        for _ in range(20):
            n = rng.randint(1, 6)
            space = seeded_space(rng, n, explicit)
            for basis in _bases(rng, n):
                for cap in CAPS:
                    want, failures = _reference_weak_representability(space, basis, cap)
                    tested.clear()
                    scanned = _log_lookups(space)
                    assert audit_weak_representability(space, basis, witness_cap=cap) == want
                    if explicit:   # each region read, each distinct value tested once
                        assert scanned == basis.masks
                        assert sorted(tested) == sorted({v for bits in basis.masks
                                                         for v in space.signature_bits(bits)})
                    else:   # every value is a union of granules: nothing is read
                        assert not scanned and not tested and not failures
                    failing += failures > 0
            assert space._columns is None
        assert failing if explicit else not failing

    @pytest.mark.parametrize("v", AUDIT_VARIANTS, ids=lambda v: v.name)
    def test_basic_rough_order(self, v):
        for _, space in _seeded_spaces(f"order-{v.name}", 6, 4):
            space.parthood = v
            q = rough_objects(space)

            def related(a, b):
                return all(ph.holds(v, x, y, space) for x in a.members for y in b.members)
            m = [[related(a, b) for b in q.classes] for a in q.classes]
            order = basic_rough_order(q)
            n = len(m)
            assert [[order.holds(i, j) for j in range(n)] for i in range(n)] == m
            # the bool-matrix comprehensions the order's methods replaced
            assert order.reflexive_failures() == [i for i in range(n) if not m[i][i]]
            assert order.transitive_failures() == [
                (i, j, k) for i in range(n) for j in range(n) if m[i][j]
                for k in range(n) if m[j][k] and not m[i][k]]
            assert order.antisymmetric_failures() == [
                (i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] and m[j][i]]
            assert order.bottoms() == [i for i in range(n) if all(m[i])]
            assert order.tops() == [j for j in range(n) if all(m[i][j] for i in range(n))]

    @pytest.mark.parametrize("v", AUDIT_VARIANTS, ids=lambda v: v.name)
    @given(st.booleans(), st.randoms(use_true_random=False), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_order_equals_member_pair_holds(self, v, explicit, rng, n):
        # the union/intersection identity of basic_rough_order, against holds
        space = seeded_space(rng, n, explicit)
        space.parthood = v
        q = rough_objects(space)
        regions = list(space.universe.all_regions())
        above = [sum(1 << b.bits for b in regions if ph.holds(v, a, b, space)) for a in regions]
        members = [sum(1 << a.bits for a in c.members) for c in q.classes]
        want = [sum(1 << j for j, ys in enumerate(members)
                    if all(above[a.bits] & ys == ys for a in c.members))
                for c in q.classes]
        assert list(basic_rough_order(q).rows) == want

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_g_simple_order_equals_member_pair_rows(self, explicit, monkeypatch):
        # One kernel call orders every class pair: on a derived space over one
        # signature per class, on explicit operators over every member's.
        calls = []
        rows_of = ph._column_rows
        monkeypatch.setattr(ph, "_column_rows", lambda *a: calls.append(a) or rows_of(*a))
        rng = random.Random(f"g-simple-order-{explicit}")
        for _ in range(12):
            space = seeded_space(rng, rng.randint(1, 6 if not explicit else 4), explicit)
            space.parthood = ph.G_SIMPLE
            q = rough_objects(space)
            members = [[a.bits for a in c.members] for c in q.classes]
            region = space.universe.region_from_bits
            want = [sum(1 << j for j, ys in enumerate(members)
                        if all(ph.holds(ph.G_SIMPLE, region(x), region(y), space)
                               for x in xs for y in ys))
                    for xs in members]
            calls.clear()
            assert list(basic_rough_order(q).rows) == want
            assert len(calls) == 1

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_transitivity_proved_from_class_signatures(self, explicit):
        # the scan finds every failure, and none where the lemma on the
        # class signatures proves the order transitive
        scan = ph._transitive_failures
        skipped = set()
        for v in AUDIT_VARIANTS:
            for _, space in _seeded_spaces(f"order-lemma-{v.name}-{explicit}", 6, 4):
                if explicit:
                    space = GranularOperatorSpace(space.universe, space.granulation,
                                                  *classical_ops(space.granulation))
                space.parthood = v
                q = rough_objects(space)
                order = basic_rough_order(q)
                tests, read = ph._subset_tests(v, space)
                proved = ph._transitive_by_form(tests, read.signatures(
                    [a.bits for c in q.classes for a in c.members]))
                found = order.transitive_failures()
                assert found == [(i, j, k) for i, j, escape in scan(order.rows)
                                 for k in ph._bits(escape)], v.name
                if proved:
                    assert found == [], v.name
                    skipped.add(v.name)
        covered = {"very-cautious", "possibilist", "bilateral", "lateral-plus",
                   "rough-inclusion", "ultra-cautious", "g-simple"}
        assert covered <= skipped

    def test_transitivity_of_the_parthood_the_rows_were_built_from(self, u5, gran5):
        space = GranularOperatorSpace(u5, gran5, parthood=ph.CAUTIOUS)
        order = basic_rough_order(rough_objects(space))
        failures = order.transitive_failures()
        assert failures
        space.parthood = ph.ROUGH_INCLUSION   # the rows are still cautious's
        assert order.transitive_failures() == failures
        assert gos_mod.BasicRoughOrder(order.quotient, order.rows).transitive_failures() \
            == failures

    def test_rows_not_built_by_basic_rough_order_are_scanned(self, u5, gran5):
        # failing rows given with a transitive order's quotient, or swapped
        # into a copy of it, and that variant's space, report their failures
        space = GranularOperatorSpace(u5, gran5, parthood=ph.ROUGH_INCLUSION)
        proved = basic_rough_order(rough_objects(space))
        assert proved.transitive_failures() == []
        failing = (0b011, 0b110, 0b100) + proved.rows[3:]   # 0 -> 1 -> 2, not 0 -> 2
        want = [(i, j, k) for i, j, escape in ph._transitive_failures(failing)
                for k in ph._bits(escape)]
        assert (0, 1, 2) in want
        for order in (gos_mod.BasicRoughOrder(proved.quotient, failing),
                      dataclasses.replace(proved, rows=failing)):
            assert order.transitive_failures() == want
        with pytest.raises(TypeError):
            gos_mod.BasicRoughOrder(proved.quotient, failing, True)


def _universe(n):
    return Universe(tuple(f"e{i}" for i in range(n)))


def _families(seed, count):
    """Seeded pair families on at most 6 elements, of four kinds: planted,
    raw random masks (mostly not nested), nested, and planted plus one pair
    whose boundary is a single element.  Some families are empty."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 6)
        u = _universe(n)
        k = rng.randint(0, 4)
        kind = ("planted", "raw", "nested", "single-boundary")[trial % 4]
        if kind == "raw":
            pairs = [(u.region_from_bits(rng.getrandbits(n)),
                      u.region_from_bits(rng.getrandbits(n))) for _ in range(k)]
        elif kind == "nested":
            pairs = []
            for _ in range(k):
                up = rng.getrandbits(n)
                pairs.append((u.region_from_bits(up & rng.getrandbits(n)),
                              u.region_from_bits(up)))
        else:
            pairs = planted_pairs(rng, u, k)
            if kind == "single-boundary":
                lo = rng.getrandbits(n)
                bit = 1 << rng.randrange(n)
                pairs.insert(rng.randint(0, k), (u.region_from_bits(lo & ~bit),
                                                 u.region_from_bits(lo | bit)))
        yield kind, u, pairs


class TestRoughOrigin:
    """The closed form against the partition scan of the oracle."""

    def test_agrees_with_oracle_on_seeded_families(self):
        verdicts = {}
        for kind, u, pairs in _families(seed=606, count=1600):
            got = rough_origin(pairs, u)
            want = inverse_rough_check(pairs, u)
            assert (got and got.to_dict()) == (want and want.to_dict()), (kind, pairs)
            verdicts.setdefault(kind, set()).add(got is not None)
        # planted families are always realizable, single-boundary ones never
        assert verdicts == {"planted": {True}, "raw": {False, True},
                            "nested": {False, True}, "single-boundary": {False}}

    def test_empty_family_is_one_block(self):
        u = _universe(4)
        w = rough_origin([], u)
        assert w.to_dict() == inverse_rough_check([], u).to_dict() == {
            "partition": [["e0", "e1", "e2", "e3"]], "realizations": []}

    def test_foreign_region_raises_like_oracle(self):
        u, other = _universe(3), _universe(4)
        pairs = [(u.empty_region(), u.full_region()),
                 (other.empty_region(), other.full_region())]
        with pytest.raises(ValueError) as closed:
            rough_origin(pairs, u)
        with pytest.raises(ValueError) as oracle:
            inverse_rough_check(pairs, u)
        assert str(closed.value) == str(oracle.value) == \
            "pair regions must live in the given universe"

    @given(st.integers(1, 7), st.sampled_from(["planted", "nested", "raw"]),
           st.lists(st.tuples(st.integers(0, 2**7 - 1), st.integers(0, 2**7 - 1)),
                    max_size=4),
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_witnesses_replay_and_refusals_agree(self, n, kind, raw, seed):
        u = _universe(n)
        full = (1 << n) - 1
        if kind == "planted":
            pairs = planted_pairs(random.Random(seed), u, len(raw))
        else:
            pairs = [(u.region_from_bits(a & full & (b if kind == "nested" else full)),
                      u.region_from_bits(b & full)) for a, b in raw]
        w = rough_origin(pairs, u)
        if w is None:
            assert inverse_rough_check(pairs, u) is None
        else:
            assert len(w.realizations) == len(pairs) and w.replays(pairs)

    def test_wide_universes_answer_past_the_oracle_cap(self):
        rng = random.Random(11)
        for n in (11, 12, 40, 64):
            u = _universe(n)
            pairs = planted_pairs(rng, u, 4)
            w = rough_origin(pairs, u)
            assert w is not None and w.replays(pairs), n
            lone = 1 << (n - 1)   # a boundary of one element
            assert rough_origin(pairs + [(u.empty_region(), u.region_from_bits(lone))],
                                u) is None
