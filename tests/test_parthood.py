"""Parthood formulas, the relation kernel and the property auditor."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granum import GranularOperatorSpace, Universe, Granulation
from granum import core, parthood as ph
from granum.core import DEFAULT_SEED, Basis, _swap_masks, _transpose

from conftest import granulation_suite, seeded_space


@pytest.fixture()
def abc_regions(u5, space5):
    a = u5.region("134")   # lower {3}, upper U
    b = u5.region("345")   # definite: lower = upper = {3,4,5}
    return a, b


class TestFormulas:
    def test_very_cautious(self, space5, abc_regions):
        a, b = abc_regions
        assert ph.holds(ph.VERY_CAUTIOUS, a, b, space5)

    def test_ultra_cautious(self, space5, abc_regions):
        a, b = abc_regions
        assert not ph.holds(ph.ULTRA_CAUTIOUS, a, b, space5)

    def test_lateral_not_reflexive_on_definite(self, space5, abc_regions):
        _, b = abc_regions
        assert not ph.holds(ph.LATERAL, b, b, space5)

    def test_bilateral_reflexive(self, space5, abc_regions):
        a, _ = abc_regions
        assert ph.holds(ph.BILATERAL, a, a, space5)

    def test_rough_inclusion_matches_componentwise(self, space5, u5):
        a, b = u5.region("13"), u5.region("123")
        al, au = space5.signature(a)
        bl, bu = space5.signature(b)
        assert ph.holds(ph.ROUGH_INCLUSION, a, b, space5) == \
            (al.issubset(bl) and au.issubset(bu))

    def test_g_simple_reads_granules(self, space5, u5):
        # {3} is inside {3,4}; every granule inside {3,4} (just {3}) is inside {1,3}... no
        assert ph.holds(ph.G_SIMPLE, u5.region("34"), u5.region("3"), space5)
        assert not ph.holds(ph.G_SIMPLE, u5.region("12"), u5.region("3"), space5)

    def test_custom_variant(self, space5, u5):
        v = ph.ParthoodVariant.custom("subset", lambda ctx, a, b: a.issubset(b))
        assert ph.holds(v, u5.region("1"), u5.region("12"), space5)
        assert not ph.holds(v, u5.region("3"), u5.region("12"), space5)

    def test_unknown_variant_name(self):
        with pytest.raises(ValueError, match="unknown parthood variant"):
            ph.variant("nope")


class TestProperAndConflict:
    def test_proper_part_strict(self, space5, u5):
        assert ph.proper_part(ph.ROUGH_INCLUSION, u5.region("13"), u5.full_region(), space5)

    def test_proper_part_never_on_diagonal(self, space5, u5):
        for v in ph.VARIANTS.values():
            a = u5.region("134")
            assert not ph.proper_part(v, a, a, space5)

    def test_bilateral_symmetric_boundaries_not_proper(self, space5, u5):
        assert not ph.proper_part(ph.BILATERAL, u5.region("13"), u5.region("23"), space5)

    def test_incomparability_literal(self, space5, u5):
        assert ph.conflict(ph.ROUGH_INCLUSION, u5.region("1"), u5.region("3"),
                           space5, "incomparability")

    def test_comparability_excludes_diagonal(self, space5, u5):
        a = u5.region("13")
        assert not ph.conflict(ph.ROUGH_INCLUSION, a, a, space5, "comparability")

    def test_comparability_on_inclusion(self, space5, u5):
        assert ph.conflict(ph.ROUGH_INCLUSION, u5.region("13"), u5.full_region(),
                           space5, "comparability")


class TestAudits:
    def test_bilateral_reflexive_transitive(self, space5):
        report = ph.audit_properties(ph.BILATERAL, space5)
        assert report.check("reflexive").verdict == "holds-exhaustively"
        assert report.check("transitive").verdict == "holds-exhaustively"

    def test_lateral_reflexivity_fails_with_witness(self, space5, u5):
        report = ph.audit_properties(ph.LATERAL, space5)
        check = report.check("reflexive")
        assert check.verdict == "fails"
        # {3} is a genuine violation even if the recorded witness differs
        assert not ph.holds(ph.LATERAL, u5.region("3"), u5.region("3"), space5)
        for (w,) in check.witnesses:
            assert not ph.holds(ph.LATERAL, w, w, space5)

    def test_lateral_plus_plus_confluent_when_universe_definite(self, space5):
        assert space5.is_definite(space5.universe.full_region())
        report = ph.audit_properties(ph.LATERAL_PLUS_PLUS, space5)
        assert report.check("strictly-confluent").verdict == "holds-exhaustively"

    def test_witness_soundness_all_variants(self, space5):
        for v in ph.VARIANTS.values():
            report = ph.audit_properties(v, space5)
            for check in report.checks:
                if check.verdict != "fails":
                    continue
                assert check.witnesses, f"{v.name}/{check.name} fails without witness"
                for w in check.witnesses:
                    if check.name == "reflexive":
                        assert not ph.holds(v, w[0], w[0], space5)
                    elif check.name == "transitive":
                        a, b, c = w
                        assert ph.holds(v, a, b, space5) and ph.holds(v, b, c, space5)
                        assert not ph.holds(v, a, c, space5)
                    elif check.name == "antisymmetric":
                        a, b = w
                        assert a != b
                        assert ph.holds(v, a, b, space5) and ph.holds(v, b, a, space5)
                    elif check.name.startswith("strictly-confluent"):
                        a, b, c = w
                        assert ph.holds(v, a, b, space5) and ph.holds(v, a, c, space5)
                        universe = space5.universe
                        assert not any(ph.holds(v, b, e, space5) and ph.holds(v, c, e, space5)
                                       for e in universe.all_regions())

    def test_signature_permutation_invariance(self, space5, u5):
        # regions with equal signatures are interchangeable for signature variants
        sig_pairs = [(u5.region("13"), u5.region("23"))]  # both ({3}, {1,2,3})
        probe = [u5.region("134"), u5.region("45"), u5.empty_region()]
        for x, y in sig_pairs:
            assert space5.signature(x) == space5.signature(y)
            for v in ph.VARIANTS.values():
                if ph._subset_tests(v, space5) is None:
                    continue
                for b in probe:
                    assert ph.holds(v, x, b, space5) == ph.holds(v, y, b, space5)
                    assert ph.holds(v, b, x, space5) == ph.holds(v, b, y, space5)

    def test_sampled_scope_reported(self):
        u = Universe(tuple(str(i) for i in range(8)))
        g = Granulation.from_sets(u, [[e] for e in u.elements])
        space = GranularOperatorSpace(u, g)
        report = ph.audit_properties(ph.ROUGH_INCLUSION, space)
        assert report.scope["mode"] == "sampled"
        assert report.scope["seed"] == DEFAULT_SEED
        assert report.check("reflexive").verdict == "holds-sampled"
        # the stated seed is the one the basis was drawn with
        basis = ph._property_basis(8, 32, 3)
        for audit in (ph.audit_properties, ph.audit_generalized_transitivity):
            report = audit(ph.ROUGH_INCLUSION, space, basis)
            assert report.scope == {"mode": "sampled", "basis_size": 32,
                                    "universe_size": 8, "seed": 3}

    def test_exhaustive_basis_must_hold_every_region(self):
        u = Universe(tuple(str(i) for i in range(8)))
        space = GranularOperatorSpace(u, Granulation.from_sets(u, [u.elements]))
        for audit in (ph.audit_properties, ph.audit_generalized_transitivity):
            with pytest.raises(ValueError, match="cannot hold all regions of 8"):
                audit(ph.ROUGH_INCLUSION, space, Basis(list(range(32)), "exhaustive", None))

    def test_generalized_transitivity_two_readings(self, space5):
        report = ph.audit_generalized_transitivity(ph.LATERAL_PLUS_PLUS, space5)
        names = {c.name for c in report.checks}
        assert names == {"transitive", "strictly-confluent"}

    def test_provable_variants_on_small_contexts(self):
        for name, g in granulation_suite():
            if len(g.universe) > 4 or not g.is_partition():
                continue
            space = GranularOperatorSpace(g.universe, g)
            for vname in ("very-cautious", "possibilist", "bilateral",
                          "g-simple", "rough-inclusion"):
                report = ph.audit_properties(ph.variant(vname), space)
                assert report.check("reflexive").verdict == "holds-exhaustively", (name, vname)
                assert report.check("transitive").verdict == "holds-exhaustively", (name, vname)
            cautious = ph.audit_properties(ph.CAUTIOUS, space)
            assert cautious.check("reflexive").verdict == "holds-exhaustively", name

    def test_proper_confluence_reportable(self, space5):
        report = ph.audit_properties(ph.ROUGH_INCLUSION, space5,
                                     include_proper_confluence=True)
        assert any(c.name == "strictly-confluent-proper" for c in report.checks)


def _mask_lists(rng: random.Random, n: int):
    """Source/target lists with duplicates, plus the empty list on either side."""
    def draw():
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 7))]
        return masks + masks[:rng.randint(1, len(masks))]
    yield draw(), draw()
    yield [], draw()
    yield draw(), []
    yield [], []


KERNEL_VARIANTS = list(ph.VARIANTS.values()) + [
    ph.ParthoodVariant.custom("subset", lambda ctx, a, b: a.issubset(b)),
    ph.ParthoodVariant.custom("not-larger", lambda ctx, a, b: len(a) <= len(b)),
]


class TestRelationRows:
    @pytest.mark.parametrize("v", KERNEL_VARIANTS, ids=lambda v: v.name)
    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_matches_pairwise_holds(self, v, explicit):
        rng = random.Random(f"{v.name}-{explicit}")
        for _ in range(12):
            n = rng.randint(1, 5)
            space = seeded_space(rng, n, explicit)
            region = space.universe.region_from_bits
            for sources, targets in _mask_lists(rng, n):
                rows = ph.relation_rows(v, space, sources, targets)
                assert len(rows) == len(sources)
                for row, a in zip(rows, sources):
                    assert row >> len(targets) == 0
                    assert [bool(row >> j & 1) for j in range(len(targets))] == \
                        [ph.holds(v, region(a), region(b), space) for b in targets]

    @pytest.mark.parametrize("name", sorted(ph._FORMULAS))
    def test_extractors_called_once_per_signature(self, name, monkeypatch):
        # Each X is called once per distinct source signature and each Y once
        # per distinct target signature, not once per pair.
        calls = collections.Counter()

        def counted(slot, fn):
            def extract(sig):
                calls[slot, sig] += 1
                return fn(sig)
            return extract
        tests = tuple((counted(("x", t), x), counted(("y", t), y))
                      for t, (x, y) in enumerate(ph._FORMULAS[name]))
        monkeypatch.setitem(ph._FORMULAS, name, tests)
        rng = random.Random(name)
        space = seeded_space(rng, 6)
        sources = [rng.randrange(64) for _ in range(40)]
        targets = [rng.randrange(64) for _ in range(50)]
        ph.relation_rows(ph.variant(name), space, sources, targets)
        source_sigs = {space.signature_bits(a) for a in sources}
        target_sigs = {space.signature_bits(b) for b in targets}
        assert len(source_sigs) > 1 and len(target_sigs) > 1
        for t in range(len(tests)):
            assert {sig for (slot, sig) in calls if slot == ("x", t)} == source_sigs
            assert {sig for (slot, sig) in calls if slot == ("y", t)} == target_sigs
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_one_signature_read_when_sources_are_targets(self, explicit, monkeypatch):
        # One list passed as both sides is read once; an equal copy is read again.
        calls = []
        read = GranularOperatorSpace.signature_bits
        monkeypatch.setattr(GranularOperatorSpace, "signature_bits",
                            lambda self, bits: calls.append(bits) or read(self, bits))
        rng = random.Random(f"one-read-{explicit}")
        masks = [rng.randrange(64) for _ in range(40)]
        want = ph.relation_rows(ph.CAUTIOUS, seeded_space(random.Random(3), 6, explicit),
                                masks, list(masks))
        assert len(calls) == 2 * len(masks)
        calls.clear()
        rows = ph.relation_rows(ph.CAUTIOUS, seeded_space(random.Random(3), 6, explicit),
                                masks, masks)
        assert len(calls) == len(masks)
        assert rows == want

    @given(st.sampled_from(KERNEL_VARIANTS), st.booleans(), st.randoms(use_true_random=False),
           st.integers(1, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_pairwise_holds(self, v, explicit, rng, n, data):
        space = seeded_space(rng, n, explicit)
        masks = st.lists(st.integers(0, (1 << n) - 1), max_size=8)
        targets = data.draw(masks)
        targets += data.draw(st.lists(st.sampled_from(targets), max_size=3)) if targets else []
        sources = data.draw(st.one_of(st.just(targets), masks))
        rows = ph.relation_rows(v, space, sources, targets)
        region = space.universe.region_from_bits
        assert rows == [sum(1 << j for j, b in enumerate(targets)
                            if ph.holds(v, region(a), region(b), space)) for a in sources]

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_empty_x_relates_to_every_target(self, explicit):
        rng = random.Random(f"empty-x-{explicit}")
        for _ in range(20):
            space = seeded_space(rng, 4, explicit)
            targets = [rng.randrange(16) for _ in range(9)]
            for name, tests in ph._FORMULAS.items():
                sources = [a for a in range(16)
                           if all(x(space.signature_bits(a)) == 0 for x, _ in tests)]
                rows = ph.relation_rows(ph.variant(name), space, sources, targets)
                assert rows == [(1 << len(targets)) - 1] * len(sources)

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_table_matches_definitions(self, explicit):
        # The subset tests, against each variant's definition on region sets.
        space = seeded_space(random.Random(f"table-{explicit}"), 5, explicit)

        def sig(r):
            lo, up = space.signature(r)
            return set(lo), set(up)
        definitions = {
            "very-cautious": lambda al, au, bl, bu: al <= bl,
            "cautious": lambda al, au, bl, bu: al <= bu,
            "lateral": lambda al, au, bl, bu: al <= bu - bl,
            "possibilist": lambda al, au, bl, bu: au <= bu,
            "ultra-cautious": lambda al, au, bl, bu: au <= bl,
            "lateral-plus": lambda al, au, bl, bu: au <= bu - bl,
            "bilateral": lambda al, au, bl, bu: au - al <= bu - bl,
            "lateral-plus-plus": lambda al, au, bl, bu: au - al <= bl,
            "rough-inclusion": lambda al, au, bl, bu: al <= bl and au <= bu,
        }
        assert sorted(definitions) == sorted(ph._FORMULAS)
        regions = list(space.universe.all_regions())
        for name, definition in definitions.items():
            for a in regions:
                for b in regions:
                    assert ph.holds(ph.variant(name), a, b, space) == \
                        definition(*sig(a), *sig(b)), (name, a, b)

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_g_simple_rows_over_every_region_pair(self, explicit):
        # On a derived space g-simple is read as very-cautious, and the rows of
        # all 2^n x 2^n pairs equal pairwise holds.  Explicit operators that
        # disagree with the granules part the two, and g-simple keeps holds.
        rng = random.Random(f"g-simple-rows-{explicit}")
        differ = 0
        for _ in range(15):
            n = rng.randint(1, 6 if not explicit else 4)
            space = seeded_space(rng, n, explicit)
            masks = list(range(1 << n))
            regions = list(space.universe.all_regions())
            rows = ph.relation_rows(ph.G_SIMPLE, space, masks, masks)
            assert rows == [sum(1 << j for j, b in enumerate(regions)
                                if ph.holds(ph.G_SIMPLE, a, b, space)) for a in regions]
            differ += rows != ph.relation_rows(ph.VERY_CAUTIOUS, space, masks, masks)
        assert differ if explicit else not differ

    def test_transpose(self):
        rows = [0b011, 0b000, 0b110, 0b001]
        assert _transpose(rows, 3) == [0b1001, 0b0101, 0b0100]
        assert _transpose([], 2) == [0, 0]

    @pytest.mark.parametrize("density", [0, 0.05, 0.5, 0.98, 1])
    def test_transpose_matches_per_bit_reference(self, density):
        # Every width up to 200, and the padding edges 255-257 and 511-513.
        rng = random.Random(str(density))
        edges = {255, 256, 257, 511, 512, 513}
        for width in [*range(201), *sorted(edges)]:
            square = {width} if width <= 64 or width in {120, 200} | edges else set()
            for m in {0, 1, rng.randint(2, 40)} | square:
                rows = _random_rows(rng, m, width, density)
                assert _transpose(rows, width) == _reference_transpose(rows, width), (width, m)
        for m in sorted(edges):   # rows past the padding edges, on a narrow matrix
            rows = _random_rows(rng, m, 17, density)
            assert _transpose(rows, 17) == _reference_transpose(rows, 17), m

    @pytest.mark.parametrize("m, width", [(300, 17), (17, 300), (1944, 1944)])
    def test_transpose_of_non_square_and_large_matrices(self, m, width):
        rng = random.Random(f"{m}x{width}")
        rows = [rng.getrandbits(width) for _ in range(m)]   # density 0.5
        assert _transpose(rows, width) == _reference_transpose(rows, width)

    @pytest.mark.parametrize("m, width", [(1025, 1025), (1024, 3000), (3000, 1024),
                                          (1100, 2049), (0, 1500), (1500, 0)])
    def test_transpose_in_tiles_builds_only_small_swap_masks(self, m, width, monkeypatch):
        sizes = []
        monkeypatch.setattr(core, "_swap_masks", lambda k: sizes.append(k) or _swap_masks(k))
        rng = random.Random(f"tiles-{m}x{width}")
        rows = [rng.getrandbits(width) for _ in range(m)]
        assert _transpose(rows, width) == _reference_transpose(rows, width)
        assert sizes and max(sizes) == 10 if width else not sizes

    def test_transpose_of_a_tuple(self):
        rows = (0b011, 0b000, 0b110, 0b001)   # as BasicRoughOrder holds them
        assert _transpose(rows, 3) == _transpose(list(rows), 3) == [0b1001, 0b0101, 0b0100]


def _random_rows(rng, m, width, density):
    """``m`` rows of ``width`` bits, each set with probability ``density``."""
    return [sum(1 << j for j in range(width) if rng.random() < density) for _ in range(m)]


def _reference_transpose(rows, width):
    """The columns of ``rows``, bit by bit."""
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(width)]


def _reference_audit(v, ctx, basis, witness_cap=5, include_proper_confluence=False):
    """The auditor's former hand-written loops, kept as the reference."""
    masks, mode = basis.masks, basis.mode
    m = len(masks)
    rows = ph.relation_rows(v, ctx, masks, masks)

    def witness(*ids):
        return tuple(ctx.universe.region_from_bits(masks[i]) for i in ids)

    ok_tag = "holds-exhaustively" if mode == "exhaustive" else "holds-sampled"

    refl_bad = [i for i in range(m) if not rows[i] >> i & 1]
    checks = [ph.PropertyCheck("reflexive", "fails" if refl_bad else ok_tag,
                               tuple(witness(i) for i in refl_bad[:witness_cap]))]

    trans_bad = []
    for i in range(m):
        row = rows[i]
        j = 0
        rest = row
        while rest and len(trans_bad) < witness_cap:
            if rest & 1:
                escape = rows[j] & ~row
                if escape:
                    k = (escape & -escape).bit_length() - 1
                    trans_bad.append(witness(i, j, k))
            rest >>= 1
            j += 1
        if len(trans_bad) >= witness_cap:
            break
    checks.append(ph.PropertyCheck("transitive", "fails" if trans_bad else ok_tag,
                                   tuple(trans_bad[:witness_cap])))

    anti_bad = []
    for i in range(m):
        for j in range(i + 1, m):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                anti_bad.append(witness(i, j))
                if len(anti_bad) >= witness_cap:
                    break
        if len(anti_bad) >= witness_cap:
            break
    checks.append(ph.PropertyCheck("antisymmetric", "fails" if anti_bad else ok_tag,
                                   tuple(anti_bad[:witness_cap])))

    checks.append(_reference_confluence("strictly-confluent", rows, witness,
                                        ok_tag, witness_cap))
    if include_proper_confluence:
        proper_rows = [row & ~col for row, col in zip(rows, _transpose(rows, m))]
        checks.append(_reference_confluence("strictly-confluent-proper", proper_rows,
                                            witness, ok_tag, witness_cap))

    scope = {"mode": mode, "basis_size": m, "universe_size": len(ctx.universe)}
    if mode == "sampled":
        scope["seed"] = basis.seed
    return ph.PropertyReport(v.name, tuple(checks), scope)


def _reference_confluence(name, rows, witness, ok_tag, witness_cap):
    m = len(rows)
    bad = []
    joinable = [[rows[i] & rows[j] != 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        row = rows[i]
        succs = [j for j in range(m) if row >> j & 1]
        for x, j in enumerate(succs):
            for k in succs[x:]:
                if not joinable[j][k]:
                    bad.append(witness(i, j, k))
                    if len(bad) >= witness_cap:
                        return ph.PropertyCheck(name, "fails", tuple(bad))
    return ph.PropertyCheck(name, "fails" if bad else ok_tag, tuple(bad))


UNLIMITED = 1 << 30   # more witnesses than any scan here can find


def _audit_cases(v, explicit):
    """Seeded spaces with an exhaustive and a sampled basis each."""
    rng = random.Random(f"audit-{v.name}-{explicit}")
    for _ in range(12):
        n = rng.randint(1, 5)
        space = seeded_space(rng, n, explicit)
        space.parthood = v
        yield space, ph._property_basis(n, 1 << n, rng.randrange(1 << 30))   # every region
        yield space, ph._property_basis(n, rng.randint(1, (1 << n) - 1),
                                        rng.randrange(1 << 30))   # a sample


class TestAuditMatchesLoopReference:
    @pytest.mark.parametrize("v", KERNEL_VARIANTS[:-1], ids=lambda v: v.name)
    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    def test_report_equals_reference(self, v, explicit):
        modes = set()
        for space, basis in _audit_cases(v, explicit):
            for cap in (1, 5, UNLIMITED):
                for proper in (False, True):
                    got = ph.audit_properties(v, space, basis, witness_cap=cap,
                                              include_proper_confluence=proper)
                    want = _reference_audit(v, space, basis, witness_cap=cap,
                                            include_proper_confluence=proper)
                    assert got.to_dict() == want.to_dict(), (basis.seed, cap, proper)
                    modes.add(got.scope["mode"])
        assert modes == {"exhaustive", "sampled"}

    @pytest.mark.parametrize("v, explicit", [(ph.CAUTIOUS, False), (ph.LATERAL, True)],
                             ids=["derived", "explicit"])
    def test_report_equals_reference_at_scale(self, v, explicit):
        # Sampled bases of 63 to 129 of the 256 regions on 8 elements: rows past
        # the 64-bit and 128-bit edges, which _audit_cases (m <= 32) never reaches.
        rng = random.Random(f"audit-scale-{explicit}")
        space = seeded_space(rng, 8, explicit)
        space.parthood = v
        verdicts = set()
        for m in (63, 64, 65, 129):
            basis = ph._property_basis(8, m, rng.randrange(1 << 30))
            for cap in (5, UNLIMITED):
                got = ph.audit_properties(v, space, basis, witness_cap=cap,
                                          include_proper_confluence=True)
                want = _reference_audit(v, space, basis, witness_cap=cap,
                                        include_proper_confluence=True)
                assert got.scope["basis_size"] == m
                assert got.to_dict() == want.to_dict(), (m, cap)
                verdicts |= {c.verdict for c in got.checks}
        assert verdicts == {"fails", "holds-sampled"}

    def test_reference_finds_failures_of_every_check(self):
        # the comparison above is not vacuous: each check fails somewhere
        failing = set()
        for v in KERNEL_VARIANTS[:-1]:
            for space, basis in _audit_cases(v, False):
                report = _reference_audit(v, space, basis, include_proper_confluence=True)
                failing |= {c.name for c in report.checks if c.verdict == "fails"}
        assert failing == {"reflexive", "transitive", "antisymmetric",
                           "strictly-confluent", "strictly-confluent-proper"}


class TestWitnessCap:
    @pytest.mark.parametrize("v", KERNEL_VARIANTS[:-1], ids=lambda v: v.name)
    def test_verdicts_do_not_depend_on_the_cap(self, v):
        for space, basis in _audit_cases(v, False):
            full = ph.audit_properties(v, space, basis, witness_cap=UNLIMITED,
                                       include_proper_confluence=True)
            for cap in (0, 1, 5):
                got = ph.audit_properties(v, space, basis, witness_cap=cap,
                                          include_proper_confluence=True)
                assert got.scope == full.scope
                for c, f in zip(got.checks, full.checks, strict=True):
                    assert (c.name, c.verdict) == (f.name, f.verdict), cap
                    assert c.witnesses == f.witnesses[:cap], (c.name, cap)

    def test_cap_zero_keeps_failing_verdicts(self):
        u = Universe(("0", "1", "2", "3"))
        cautious = GranularOperatorSpace(
            u, Granulation.from_sets(u, [["0", "1", "2"], ["0", "3"], ["1", "3"]]))
        check = ph.audit_properties(ph.CAUTIOUS, cautious, witness_cap=0).check("transitive")
        assert (check.verdict, check.witnesses) == ("fails", ())
        lateral = GranularOperatorSpace(u, Granulation.from_sets(u, [["0"], ["1"], ["3"]]))
        check = ph.audit_properties(ph.LATERAL, lateral,
                                    witness_cap=0).check("strictly-confluent")
        assert (check.verdict, check.witnesses) == ("fails", ())


class TestFailureScans:
    def test_bits(self):
        assert list(ph._bits(0)) == []
        assert list(ph._bits(0b101001)) == [0, 3, 5]
        assert list(ph._bits(1 << 200 | 2)) == [1, 200]

    def test_scans_on_a_small_relation(self):
        rows = [0b011, 0b100, 0b011]   # 0 -> {0, 1}, 1 -> {2}, 2 -> {0, 1}
        cols = _transpose(rows, 3)
        assert list(ph._reflexive_failures(rows)) == [1, 2]
        assert list(ph._transitive_failures(rows)) == [(0, 1, 0b100), (1, 2, 0b011),
                                                       (2, 1, 0b100)]
        assert list(ph._antisymmetric_failures(rows, cols)) == [(1, 2)]
        assert list(ph._confluence_failures(rows, cols)) == [(0, 0, 1), (2, 0, 1)]

    def test_rows_found_clean_are_skipped(self):
        scanned = []

        def failures(row):
            scanned.append(row)
            return [("bad",)] if row == 3 else []
        assert list(ph._unless_clean([5, 3, 5, 3], failures)) == [(1, "bad"), (3, "bad")]
        assert scanned == [5, 3, 3]


# The variants whose transitivity the lemma proves on a derived space with a
# rough region: Y(s) <= X(s) on every signature s.
PROVED_ON_DERIVED = {"very-cautious", "possibilist", "bilateral", "lateral-plus",
                     "rough-inclusion", "ultra-cautious", "g-simple"}


def _skipped_scans(monkeypatch):
    """The audits that skipped the transitivity scan, counted from here on."""
    scans = []
    scan = ph._transitive_failures
    monkeypatch.setattr(ph, "_transitive_failures", lambda rows: scans.append(1) or scan(rows))
    return scans


class TestTransitivityLemma:
    """``_transitive_by_form``: if Y(s) <= X(s) on every scanned signature s,
    each test X(a) <= Y(b) is transitive on the basis, and the audit skips
    the scan."""

    @given(st.sampled_from(sorted(ph._FORMULAS)), st.booleans(),
           st.randoms(use_true_random=False), st.integers(1, 5), st.data())
    @settings(max_examples=400, deadline=None)
    def test_proof_means_the_scan_finds_nothing(self, name, explicit, rng, n, data):
        space = seeded_space(rng, n, explicit)
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True)
                          | st.just(list(range(1 << n))))
        rows = ph.relation_rows(ph.variant(name), space, masks, masks)
        if ph._transitive_by_form(ph._FORMULAS[name], space.signatures(masks)):
            assert not list(ph._transitive_failures(rows))

    def test_corpus_holds_proofs_and_fallbacks(self):
        # the differential corpus: explicit operators with lower outside the
        # upper, proofs on them, and failed checks on every variant
        rng = random.Random("lemma-corpus")
        seen = collections.Counter()
        for _ in range(300):
            explicit = rng.random() < 0.5
            n = rng.randint(1, 5)
            space = seeded_space(rng, n, explicit)
            sigs = space.signatures(range(1 << n))
            wild = any(lo & ~up for lo, up in sigs)   # a lower outside its upper
            for name, tests in ph._FORMULAS.items():
                rows = ph.relation_rows(ph.variant(name), space, list(range(1 << n)),
                                        list(range(1 << n)))
                proved = ph._transitive_by_form(tests, sigs)
                clean = not list(ph._transitive_failures(rows))
                assert clean or not proved, (name, explicit)
                seen[explicit, wild, name, proved, clean] += 1
        always = {"very-cautious", "possibilist", "bilateral", "lateral-plus",
                  "rough-inclusion"}
        for name in ph._FORMULAS:
            proofs = sum(seen[True, True, name, True, clean] for clean in (False, True))
            misses = sum(seen[e, w, name, False, clean] for e in (False, True)
                         for w in (False, True) for clean in (False, True))
            assert (proofs > 0 and misses == 0) if name in always else misses > 0, name
        assert seen[True, True, "ultra-cautious", False, False] > 0
        for name in ("cautious", "lateral", "lateral-plus-plus"):
            assert seen[False, False, name, False, False] > 0, name

    def test_variants_proved_on_a_derived_space(self, monkeypatch):
        u = Universe(tuple("abcd"))
        space = GranularOperatorSpace(u, Granulation.from_sets(u, ["ab", "bc", "d"]))
        masks = list(range(16))
        sigs = space.signatures(masks)
        assert any(lo != up for lo, up in sigs)   # a rough region
        proved = {name for name, v in ph.VARIANTS.items()
                  if ph._transitive_by_form(ph._subset_tests(v, space), sigs)}
        assert proved == PROVED_ON_DERIVED
        scans = _skipped_scans(monkeypatch)
        for name, v in sorted(ph.VARIANTS.items()):
            before = len(scans)
            report = ph.audit_properties(v, space)
            assert len(scans) - before == (name not in PROVED_ON_DERIVED), name
            assert report.check("transitive").verdict != "fails" or name not in proved

    def test_proved_on_every_random_derived_space(self):
        rng = random.Random("lemma-derived")
        for _ in range(100):
            n = rng.randint(1, 6)
            space = seeded_space(rng, n)
            sigs = space.signatures(ph._property_basis(n, rng.randint(1, 64), 7).masks)
            for name in PROVED_ON_DERIVED:
                assert ph._transitive_by_form(ph._subset_tests(ph.variant(name), space), sigs)

    def test_degenerate_signatures_prove_cautious_too(self):
        # every region definite: upper = lower, so cautious is very-cautious
        u = Universe(tuple("abc"))
        space = GranularOperatorSpace(u, Granulation.from_sets(u, ["a", "b", "c"]))
        assert ph._transitive_by_form(ph._FORMULAS["cautious"], space.signatures(range(8)))
        report = ph.audit_properties(ph.CAUTIOUS, space)
        assert report.to_dict() == _reference_audit(ph.CAUTIOUS, space,
                                                    ph._property_basis(3)).to_dict()

    @pytest.mark.parametrize("v", [ph.G_SIMPLE] + KERNEL_VARIANTS[-2:], ids=lambda v: v.name)
    def test_holds_only_variants_always_scan(self, v, monkeypatch):
        # custom evaluators, and g-simple on explicit operators
        scans = _skipped_scans(monkeypatch)
        space = seeded_space(random.Random("scan"), 4, explicit=True)
        ph.audit_properties(v, space)
        assert scans == [1]
