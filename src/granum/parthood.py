"""Parthood predicates on regions and an empirical property auditor.

Ten built-in predicate variants are evaluated from approximation signatures
(g-simple reads granule containment directly); ``relation_rows`` evaluates
one over lists of region masks as bit rows.  The auditor measures
reflexivity, transitivity, antisymmetry and strict confluence on a region
basis and reports verdicts with concrete counterexample witnesses; it never
assumes a verdict that was not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .core import DEFAULT_SEED, Region, _jsonify, _region_masks

if TYPE_CHECKING:  # pragma: no cover
    from .gos import GranularOperatorSpace

EXHAUSTIVE_REGION_LIMIT = 32  # 2^5: full pair/triple scans stay cheap below this


def _subset(x: int, y: int) -> bool:
    return x & ~y == 0


# Signature formulas: arguments are (a_lower, a_upper, b_lower, b_upper) bit masks.
_FORMULAS: dict[str, Callable[[int, int, int, int], bool]] = {
    "very-cautious": lambda al, au, bl, bu: _subset(al, bl),
    "cautious": lambda al, au, bl, bu: _subset(al, bu),
    "lateral": lambda al, au, bl, bu: _subset(al, bu & ~bl),
    "possibilist": lambda al, au, bl, bu: _subset(au, bu),
    "ultra-cautious": lambda al, au, bl, bu: _subset(au, bl),
    "lateral-plus": lambda al, au, bl, bu: _subset(au, bu & ~bl),
    "bilateral": lambda al, au, bl, bu: _subset(au & ~al, bu & ~bl),
    "lateral-plus-plus": lambda al, au, bl, bu: _subset(au & ~al, bl),
    "rough-inclusion": lambda al, au, bl, bu: _subset(al, bl) and _subset(au, bu),
}


@dataclass(frozen=True)
class ParthoodVariant:
    """One 'part of' predicate: a named formula over approximation signatures.

    ``signature_based`` variants depend only on the (lower, upper) pair of
    each argument; ``g-simple`` and custom predicates may inspect more.
    """

    name: str
    signature_based: bool = True
    evaluator: Callable[..., bool] | None = field(default=None, compare=False)

    @staticmethod
    def custom(name: str, fn: Callable[..., bool]) -> ParthoodVariant:
        """Wrap ``fn(ctx, a, b) -> bool`` as a parthood variant."""
        return ParthoodVariant(name, signature_based=False, evaluator=fn)


VERY_CAUTIOUS = ParthoodVariant("very-cautious")
CAUTIOUS = ParthoodVariant("cautious")
LATERAL = ParthoodVariant("lateral")
POSSIBILIST = ParthoodVariant("possibilist")
ULTRA_CAUTIOUS = ParthoodVariant("ultra-cautious")
LATERAL_PLUS = ParthoodVariant("lateral-plus")
BILATERAL = ParthoodVariant("bilateral")
LATERAL_PLUS_PLUS = ParthoodVariant("lateral-plus-plus")
G_SIMPLE = ParthoodVariant("g-simple", signature_based=False)
ROUGH_INCLUSION = ParthoodVariant("rough-inclusion")

VARIANTS: dict[str, ParthoodVariant] = {
    v.name: v
    for v in (VERY_CAUTIOUS, CAUTIOUS, LATERAL, POSSIBILIST, ULTRA_CAUTIOUS,
              LATERAL_PLUS, BILATERAL, LATERAL_PLUS_PLUS, G_SIMPLE, ROUGH_INCLUSION)
}


def variant(name: str) -> ParthoodVariant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown parthood variant {name!r} "
                         f"(known: {', '.join(sorted(VARIANTS))})") from None


def holds(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace") -> bool:
    """Evaluate the parthood ``v`` between regions ``a`` and ``b`` in ``ctx``."""
    if v.evaluator is not None:
        return bool(v.evaluator(ctx, a, b))
    if v.name == "g-simple":
        # Every granule contained in a is contained in b.
        for g in ctx.granulation.granules:
            if g.bits & ~a.bits == 0 and g.bits & ~b.bits != 0:
                return False
        return True
    al, au = ctx.signature_bits(a.bits)
    bl, bu = ctx.signature_bits(b.bits)
    return _FORMULAS[v.name](al, au, bl, bu)


def relation_rows(v: ParthoodVariant, ctx: "GranularOperatorSpace",
                  sources: list[int], targets: list[int]) -> list[int]:
    """Bit rows of ``v`` between region masks: one row per source.

    Bit j of row i is set iff ``v`` holds from ``sources[i]`` to
    ``targets[j]``.  A signature formula is evaluated once per pair of
    distinct (lower, upper) signatures; g-simple and custom evaluators fall
    back to :func:`holds` pair by pair.
    """
    formula = _FORMULAS.get(v.name) if v.evaluator is None else None
    if formula is None:
        region = ctx.universe.region_from_bits
        ends = [region(b) for b in targets]
        return [sum(1 << j for j, b in enumerate(ends) if holds(v, a, b, ctx))
                for a in map(region, sources)]
    classes: dict[tuple[int, int], int] = {}   # signature -> its targets' bits, disjoint
    for j, b in enumerate(targets):
        sig = ctx.signature_bits(b)
        classes[sig] = classes.get(sig, 0) | 1 << j
    by_sig: dict[tuple[int, int], int] = {}
    rows = []
    for a in sources:
        sig = ctx.signature_bits(a)
        row = by_sig.get(sig)
        if row is None:
            row = by_sig[sig] = sum(bits for (bl, bu), bits in classes.items()
                                    if formula(*sig, bl, bu))
        rows.append(row)
    return rows


def _transpose(rows: list[int], width: int) -> list[int]:
    """The ``width`` columns of a bit matrix: bit i of column j is bit j of row i."""
    cols = [0] * width
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def proper_part(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace") -> bool:
    """Parthood holds one way but not the other."""
    return holds(v, a, b, ctx) and not holds(v, b, a, ctx)


def conflict(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace",
             mode: str = "comparability") -> bool:
    """The discernibility relation used to carve antichains.

    ``comparability``: distinct regions related by parthood in either
    direction (its antichains are the conflict-free sets).
    ``incomparability``: neither direction holds; kept literal, including on
    the diagonal, so non-reflexive variants are reported as they are.
    """
    if mode == "comparability":
        return a != b and (holds(v, a, b, ctx) or holds(v, b, a, ctx))
    if mode == "incomparability":
        return not holds(v, a, b, ctx) and not holds(v, b, a, ctx)
    raise ValueError(f"unknown conflict mode {mode!r}")


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    verdict: str  # holds-exhaustively | holds-sampled | fails
    witnesses: tuple = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witnesses": [_jsonify(w) for w in self.witnesses],
        }


@dataclass(frozen=True)
class PropertyReport:
    """Measured verdicts for one parthood variant on one context."""

    variant: str
    checks: tuple[PropertyCheck, ...]
    scope: dict

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "scope": dict(self.scope),
            "checks": [c.to_dict() for c in self.checks],
        }


def audit_properties(v: ParthoodVariant, ctx: "GranularOperatorSpace",
                     budget: int | None = None, seed: int = DEFAULT_SEED,
                     witness_cap: int = 5,
                     include_proper_confluence: bool = False) -> PropertyReport:
    """Measure reflexivity, transitivity, antisymmetry and strict confluence.

    The scan is exhaustive over all regions when their number fits the budget
    (default 32, i.e. universes of up to 5 elements) and seeded-sampled
    otherwise.  Every ``fails`` verdict carries witnesses that re-evaluate to
    genuine violations.
    """
    cap = EXHAUSTIVE_REGION_LIMIT if budget is None else budget
    masks, mode = _region_masks(len(ctx.universe), cap, cap, seed)
    m = len(masks)
    rows = relation_rows(v, ctx, masks, masks)

    def witness(*ids: int) -> tuple[Region, ...]:
        return tuple(ctx.universe.region_from_bits(masks[i]) for i in ids)

    ok_tag = "holds-exhaustively" if mode == "exhaustive" else "holds-sampled"

    refl_bad = [i for i in range(m) if not rows[i] >> i & 1]
    checks = [PropertyCheck("reflexive",
                            "fails" if refl_bad else ok_tag,
                            tuple(witness(i) for i in refl_bad[:witness_cap]))]

    trans_bad = []
    for i in range(m):
        row = rows[i]
        j = 0
        rest = row
        while rest and len(trans_bad) < witness_cap:
            if rest & 1:
                escape = rows[j] & ~row  # ks with i->j, j->k but not i->k
                if escape:
                    k = (escape & -escape).bit_length() - 1
                    trans_bad.append(witness(i, j, k))
            rest >>= 1
            j += 1
        if len(trans_bad) >= witness_cap:
            break
    checks.append(PropertyCheck("transitive",
                                "fails" if trans_bad else ok_tag,
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
    checks.append(PropertyCheck("antisymmetric",
                                "fails" if anti_bad else ok_tag,
                                tuple(anti_bad[:witness_cap])))

    checks.append(_confluence_check("strictly-confluent", rows, witness,
                                    ok_tag, witness_cap))
    if include_proper_confluence:
        proper_rows = [row & ~col for row, col in zip(rows, _transpose(rows, m))]
        checks.append(_confluence_check("strictly-confluent-proper", proper_rows,
                                        witness, ok_tag, witness_cap))

    scope = {"mode": mode, "basis_size": m, "universe_size": len(ctx.universe)}
    if mode == "sampled":
        scope["seed"] = seed
    return PropertyReport(v.name, tuple(checks), scope)


def _confluence_check(name: str, rows: list[int], witness: Callable[..., tuple],
                      ok_tag: str, witness_cap: int) -> PropertyCheck:
    # holds(a,b) & holds(a,c) must admit some e with holds(b,e) & holds(c,e)
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
                        return PropertyCheck(name, "fails", tuple(bad))
    return PropertyCheck(name, "fails" if bad else ok_tag, tuple(bad))


def audit_generalized_transitivity(v: ParthoodVariant, ctx: "GranularOperatorSpace",
                                   budget: int | None = None,
                                   seed: int = DEFAULT_SEED) -> PropertyReport:
    """Report the two implemented readings of generalized transitivity.

    Plain transitivity and strict confluence are measured by the same scans
    as :func:`audit_properties`; the report is restricted to those two rows.
    """
    full = audit_properties(v, ctx, budget=budget, seed=seed)
    keep = tuple(c for c in full.checks if c.name in ("transitive", "strictly-confluent"))
    return PropertyReport(full.variant, keep, full.scope)
