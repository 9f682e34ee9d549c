"""The audit reports through the one JSON writer, ``core._json_pieces``
(joined by ``core._json_text``): a report's ``_fields()`` and a payload of
reports are written as the bytes of ``json.dumps`` on ``to_dict()``, from
one region-text table per payload."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from granum import (AxiomReport, GranularOperatorSpace, Granulation, Universe,
                    audit_full_underlap, audit_lower_stability, audit_weak_representability,
                    parthood as ph)
from granum.core import Region, _json_text, _region_masks, _ReportTexts

from conftest import FIXTURES

# Element names that need escapes or sort apart from where they stand.
NAMES = ['say "hi"', "back\\slash", "nul\x00", "tab\t\x1f", "\x7f", "é", "中", "\U0001f600",
         "{a,b}", "", " ", "%s", "100%", " ", "a/b", "z", "A", "10", "9"]


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def written(texts: _ReportTexts, value, indent: str) -> str:
    """The joined pieces that ``texts`` writes for ``value`` at ``indent``."""
    out = []
    texts.write(out, value, indent)
    return "".join(out)


def audit_space(rng: random.Random, n: int, explicit: bool) -> GranularOperatorSpace:
    """A space on ``n`` names drawn from NAMES in a random order (so their
    sorted order is seldom universe order), with random granules; with
    ``explicit``, random operator tables, whose lower need not lie inside
    the upper nor be a union of granules."""
    u = Universe(tuple(rng.sample(NAMES, n)))
    granules = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, n + 1))}
    g = Granulation(u, tuple(u.region_from_bits(b) for b in sorted(granules)))
    if not explicit:
        return GranularOperatorSpace(u, g)
    regions = list(u.all_regions())
    return GranularOperatorSpace(u, g, lower={a: rng.choice(regions) for a in regions},
                                 upper={a: rng.choice(regions) for a in regions})


def audit_basis(rng: random.Random, n: int):
    """Every region, or a sample of them drawn with a seed."""
    if rng.random() < 0.5:
        return _region_masks(n, 1 << n, 1, 0)
    return _region_masks(n, 0, rng.randint(1, 1 << n), rng.randrange(1 << 20))


def axiom_reports(rng: random.Random) -> list[AxiomReport]:
    """The three axiom audits of one random space, basis and parthood."""
    n = rng.randint(1, 6)
    space = audit_space(rng, n, rng.random() < 0.4)
    space.parthood = rng.choice(list(ph.VARIANTS.values()))
    basis = audit_basis(rng, n)
    return [audit_weak_representability(space, basis, rng.randint(0, 10)),
            audit_lower_stability(space, basis, rng.randint(0, 10)),
            audit_full_underlap(space, basis)]


CUSTOM = [ph.ParthoodVariant.custom("subset", lambda ctx, a, b: a.issubset(b)),
          ph.ParthoodVariant.custom("not-larger", lambda ctx, a, b: len(a) <= len(b))]


def property_reports(rng: random.Random) -> list[ph.PropertyReport]:
    """Property audits of one random space under a few variants."""
    n = rng.randint(1, 6)
    space = audit_space(rng, n, rng.random() < 0.4)
    basis = audit_basis(rng, n)
    variants = rng.sample(list(ph.VARIANTS.values()) + CUSTOM, rng.randint(1, 4))
    return [ph.audit_properties(v, space, basis, witness_cap=rng.randint(0, 6),
                                include_proper_confluence=rng.random() < 0.5)
            for v in variants]


class TestAuditReports:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_axiom_reports_equal_stdlib_on_to_dict(self, rng):
        reports = axiom_reports(rng)
        for r in reports:
            assert _json_text(r._fields()) == reference(r.to_dict())
        containment = {"holds": True, "witnesses": []}
        payload = {"axioms": reports, "upper_contains_lower": containment}
        assert _json_text(payload) == reference(
            {"axioms": [r.to_dict() for r in reports], "upper_contains_lower": containment})

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_property_reports_equal_stdlib_on_to_dict(self, rng):
        reports = property_reports(rng)
        for r in reports:
            assert _json_text(r._fields()) == reference(r.to_dict())
        assert _json_text({"reports": reports}) == reference(
            {"reports": [r.to_dict() for r in reports]})

    def test_generators_reach_every_form(self):
        # the draws above are not vacuous: they hold each witness form
        rng = random.Random("report-forms")
        seen = set()
        for _ in range(300):
            wra, ls, fu = axiom_reports(rng)
            names = wra.witnesses and wra.witnesses[0]["region"].universe.elements
            seen |= {("wra witness", bool(wra.witnesses)), ("ls witness", bool(ls.witnesses)),
                     ("fu null", any(d["witness"] is None for d in fu.details)),
                     ("fu region", any(d["witness"] is not None for d in fu.details)),
                     ("mode", fu.mode), ("seeded", fu.seed is not None),
                     ("names unsorted", bool(names) and list(names) != sorted(names))}
            for r in property_reports(rng):
                seen |= {("verdict", c.verdict) for c in r.checks}
                seen.add(("scope seed", "seed" in r.scope))
        assert seen >= {("wra witness", True), ("ls witness", True), ("fu null", True),
                        ("fu region", True), ("mode", "exhaustive"), ("mode", "sampled"),
                        ("seeded", True), ("names unsorted", True), ("verdict", "fails"),
                        ("verdict", "holds-exhaustively"), ("verdict", "holds-sampled"),
                        ("scope seed", True), ("scope seed", False)}

    def test_ctx_overlap13_lateral(self):
        # lower stability and full underlap both fail: witnesses and nulls
        space = GranularOperatorSpace.from_sets(*_context("ctx_overlap13.json"),
                                                parthood=ph.LATERAL)
        reports = [audit_lower_stability(space), audit_full_underlap(space)]
        assert not any(r.passed for r in reports)
        assert any(d["witness"] is None for d in reports[1].details)
        for r in reports:
            assert _json_text(r._fields()) == reference(r.to_dict())


def _context(name):
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    return doc["universe"], doc["granules"]


# Hand-built reports: any value the generic writer takes, and regions of
# two universes (one a renamed copy, so a mask means other members).
U1 = Universe(("b", "a", "%d", "é"))
U2 = Universe(("x", "\x00", "Z", "y"))


def regions_of(u):
    return st.integers(0, (1 << len(u)) - 1).map(u.region_from_bits)


regions = regions_of(U1) | regions_of(U2) | regions_of(Universe(U1.elements))
text = st.sampled_from(NAMES) | st.text(max_size=3)
scalars = st.none() | st.booleans() | st.integers(-2**70, 2**70) | text
values = st.recursive(scalars | regions, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(text, children, max_size=4)), max_leaves=12)


class TestHandBuiltReports:
    @given(scalars, st.booleans(), scalars, st.integers(-5, 2**40),
           st.lists(values, max_size=4).map(tuple),
           st.lists(values, max_size=5).map(tuple),
           st.none() | st.integers(0, 2**64))
    @settings(max_examples=300, deadline=None)
    def test_axiom_report(self, axiom, passed, mode, checked, witnesses, details, seed):
        r = AxiomReport(axiom, passed, mode, checked, witnesses, details, seed)
        assert _json_text(r._fields()) == reference(r.to_dict())
        # one table for both, as the command line shares one per payload
        assert _json_text({"axioms": [r, r]}) == \
            reference({"axioms": [r.to_dict()] * 2})

    @given(scalars, st.lists(st.tuples(scalars, scalars,
                                       st.lists(values, max_size=3).map(tuple)), max_size=4),
           st.dictionaries(text, values, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_property_report(self, variant, checks, scope):
        r = ph.PropertyReport(variant, tuple(ph.PropertyCheck(*c) for c in checks), scope)
        assert _json_text(r._fields()) == reference(r.to_dict())


class TestRegionTexts:
    def test_masks_of_another_universe_are_not_confused(self):
        texts = _ReportTexts()
        first, other = U1.region_from_bits(0b0011), U2.region_from_bits(0b0011)
        assert written(texts, first, "\n") == reference(sorted(first))
        assert written(texts, other, "\n") == reference(sorted(other))
        assert written(texts, first, "\n") == reference(["a", "b"])
        assert written(texts, Region(Universe(U1.elements), 0b0011), "\n") == \
            reference(["a", "b"])
        # as items of a list or a dict, where the table's regions are read inline
        assert written(texts, [other, first, {"r": other}], "\n") == \
            reference([sorted(other), ["a", "b"], {"r": sorted(other)}])

    def test_the_first_region_written_names_the_universe(self):
        texts = _ReportTexts()
        first, other = U2.region_from_bits(0b0101), U1.region_from_bits(0b0101)
        assert written(texts, [first, other, first], "\n") == \
            reference([sorted(first), sorted(other), sorted(first)])
        assert texts.universe is U2

    def test_each_region_is_sorted_once_per_indent(self, monkeypatch):
        granule = U1.region_from_bits(0b0101)
        want = reference(sorted(granule))
        want_pair = reference([sorted(granule)] * 2)
        calls = []
        real = Region.__iter__
        monkeypatch.setattr(Region, "__iter__", lambda r: calls.append(r.bits) or real(r))
        texts = _ReportTexts()
        for indent in ("\n", "\n", "\n  ", "\n", "\n  "):
            assert written(texts, granule, indent) == want.replace("\n", indent)
        assert written(texts, [granule, granule], "\n") == want_pair   # items at "\n  "
        assert calls == [0b0101] * 2   # once per indent
