"""Output checks that never call granum.

Every check re-derives what it needs from the generating structure kept by
the workload generator: signatures are recomputed from the granule masks,
parthood is evaluated from the benchmark's own table of variant formulas,
and inverse verdicts are compared with the planted answer. Each check
returns ``None`` when the output is right, or a one-line reason.
"""

from __future__ import annotations

from itertools import combinations


def _sub(x: int, y: int) -> bool:
    return x & ~y == 0


# (a_lower, a_upper, b_lower, b_upper) -> does "a is part of b" hold.
_FORMULAS = {
    "very-cautious": lambda al, au, bl, bu: _sub(al, bl),
    "cautious": lambda al, au, bl, bu: _sub(al, bu),
    "lateral": lambda al, au, bl, bu: _sub(al, bu & ~bl),
    "possibilist": lambda al, au, bl, bu: _sub(au, bu),
    "ultra-cautious": lambda al, au, bl, bu: _sub(au, bl),
    "lateral-plus": lambda al, au, bl, bu: _sub(au, bu & ~bl),
    "bilateral": lambda al, au, bl, bu: _sub(au & ~al, bu & ~bl),
    "lateral-plus-plus": lambda al, au, bl, bu: _sub(au & ~al, bl),
    "rough-inclusion": lambda al, au, bl, bu: _sub(al, bl) and _sub(au, bu),
}


class Space:
    """A universe and granulation as masks, with signatures and parthood."""

    def __init__(self, universe: list[str], granules: list[list[str]]):
        self.universe = list(universe)
        self.index = {e: i for i, e in enumerate(self.universe)}
        self.granules = [self.mask(g) for g in granules]
        self._sigs: dict[int, tuple[int, int]] = {}

    def mask(self, names) -> int:
        bits = 0
        for e in names:
            bits |= 1 << self.index[e]
        return bits

    def signature(self, bits: int) -> tuple[int, int]:
        sig = self._sigs.get(bits)
        if sig is None:
            lo = up = 0
            for g in self.granules:
                if _sub(g, bits):
                    lo |= g
                if g & bits:
                    up |= g
            sig = self._sigs[bits] = (lo, up)
        return sig

    def holds(self, variant: str, a: int, b: int) -> bool:
        if variant == "g-simple":
            return all(_sub(g, b) for g in self.granules if _sub(g, a))
        return _FORMULAS[variant](*self.signature(a), *self.signature(b))

    def proper(self, variant: str, a: int, b: int) -> bool:
        return self.holds(variant, a, b) and not self.holds(variant, b, a)


def _region(space: Space, names) -> int:
    if not isinstance(names, list) or any(e not in space.index for e in names):
        raise ValueError(f"not a region of the universe: {names!r}")
    return space.mask(names)


# --- gos-audit --------------------------------------------------------------

_AXIOMS = ["weak-representability", "lower-stability", "full-underlap"]


def check_gos_audit(doc: dict, truth: dict) -> str | None:
    sp = Space(truth["universe"], truth["granules"])
    v = truth["parthood"]
    reports = doc.get("axioms", [])
    if [r.get("axiom") for r in reports] != _AXIOMS:
        return f"axioms reported: {[r.get('axiom') for r in reports]}"
    for r in reports:
        if r["mode"] == "sampled":
            if r.get("seed") != truth["seed"]:
                return f"{r['axiom']}: sampled report states seed {r.get('seed')}"
        elif r["mode"] != "exhaustive" or "seed" in r:
            return f"{r['axiom']}: mode {r['mode']!r} with seed {r.get('seed')}"
    wra, ls, fu = reports
    for w in wra["witnesses"]:
        x, value = _region(sp, w["region"]), _region(sp, w["value"])
        side = {"lower": 0, "upper": 1}[w["side"]]
        if sp.signature(x)[side] != value or sp.signature(value)[0] == value:
            return f"weak-representability witness does not re-evaluate: {w}"
    if wra["passed"] != (not wra["witnesses"]):
        return "weak-representability verdict disagrees with its witnesses"
    for w in ls["witnesses"]:
        y, x = _region(sp, w["granule"]), _region(sp, w["region"])
        if y not in sp.granules or not sp.holds(v, y, x) \
                or sp.holds(v, y, sp.signature(x)[0]):
            return f"lower-stability witness does not re-evaluate: {w}"
    if ls["passed"] != (not ls["witnesses"]):
        return "lower-stability verdict disagrees with its witnesses"
    pairs = [(a, b) for i, a in enumerate(sp.granules) for b in sp.granules[i:]]
    details = fu.get("details", [])
    if len(details) != len(pairs):
        return f"full-underlap lists {len(details)} pairs, expected {len(pairs)}"
    for (x, y), d in zip(pairs, details):
        if [_region(sp, p) for p in d["pair"]] != [x, y]:
            return f"full-underlap pair out of order: {d['pair']}"
        if d["witness"] is not None:
            z = _region(sp, d["witness"])
            if sp.signature(z) != (z, z) or not sp.proper(v, x, z) or not sp.proper(v, y, z):
                return f"full-underlap witness does not re-evaluate: {d}"
    if fu["passed"] != all(d["witness"] is not None for d in details):
        return "full-underlap verdict disagrees with its details"
    ucl = doc.get("upper_contains_lower", {})
    if ucl.get("holds") is not True or ucl.get("witnesses"):
        return "upper-contains-lower must hold for granulation-derived operators"
    return None


# --- parthood-audit ---------------------------------------------------------

_PROPERTIES = ["reflexive", "transitive", "antisymmetric", "strictly-confluent"]


def _witness_ok(sp: Space, v: str, name: str, regions: list[int]) -> bool:
    h = sp.holds
    if name == "reflexive":
        (a,) = regions
        return not h(v, a, a)
    if name == "transitive":
        a, b, c = regions
        return h(v, a, b) and h(v, b, c) and not h(v, a, c)
    if name == "antisymmetric":
        a, b = regions
        return a != b and h(v, a, b) and h(v, b, a)
    # Strict confluence fails relative to the scanned basis, which the
    # report does not list; the antecedent is what can be re-evaluated.
    a, b, c = regions
    return h(v, a, b) and h(v, a, c)


def check_parthood_audit(doc: dict, truth: dict) -> str | None:
    sp = Space(truth["universe"], truth["granules"])
    v = truth["variant"]
    reports = doc.get("reports", [])
    if len(reports) != 1 or reports[0].get("variant") != v:
        return f"expected one report for {v}"
    rep = reports[0]
    n = len(sp.universe)
    total = 1 << n
    sampled = total > truth["budget"]
    scope = rep["scope"]
    want = {"mode": "sampled" if sampled else "exhaustive",
            "basis_size": min(total, truth["budget"]), "universe_size": n}
    if sampled:
        want["seed"] = truth["seed"]
    if scope != want:
        return f"scope {scope} does not state mode and seed {want}"
    ok_tag = "holds-sampled" if sampled else "holds-exhaustively"
    if [c["name"] for c in rep["checks"]] != _PROPERTIES:
        return f"properties reported: {[c['name'] for c in rep['checks']]}"
    for c in rep["checks"]:
        if (c["verdict"] == "fails") != bool(c["witnesses"]) \
                or c["verdict"] not in ("fails", ok_tag):
            return f"{c['name']}: verdict {c['verdict']!r} with {len(c['witnesses'])} witnesses"
        for w in c["witnesses"]:
            if not _witness_ok(sp, v, c["name"], [_region(sp, r) for r in w]):
                return f"{c['name']} witness does not re-evaluate: {w}"
    return None


# --- count ------------------------------------------------------------------

def _adjacency(sp: Space, variant: str) -> list[int]:
    """Comparability conflict between singleton regions, as row bitmasks."""
    n = len(sp.universe)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        a, b = 1 << i, 1 << j
        if sp.holds(variant, a, b) or sp.holds(variant, b, a):
            adj[i] |= b
            adj[j] |= a
    return adj


def _first_fit(adj: list[int], order: list[int]) -> list[int]:
    cats: list[int] = []
    for x in order:
        for k, members in enumerate(cats):
            if not adj[x] & members:
                cats[k] |= 1 << x
                break
        else:
            cats.append(1 << x)
    return cats


def _types(adj: list[int], order: list[int]) -> list[int]:
    """hpc's types: a new type whenever an element is related to an earlier one."""
    cats = [1 << order[0]]
    seen = 1 << order[0]
    for x in order[1:]:
        if adj[x] & seen:
            cats.append(0)
        cats[-1] |= 1 << x
        seen |= 1 << x
    return cats


def check_count(doc: dict, truth: dict) -> str | None:
    sp = Space(truth["universe"], truth["granules"])
    algo = truth["algo"]
    trace = doc.get("trace", {})
    if trace.get("algorithm") != algo or doc.get("config", {}).get("parthood") != truth["parthood"]:
        return "trace does not state the requested algorithm and parthood"
    adj = _adjacency(sp, truth["parthood"])
    n = len(sp.universe)
    full = (1 << n) - 1
    cats = [_region(sp, c["members"]) for c in trace["categories"]]
    union = 0
    for k, c in enumerate(cats, start=1):
        union |= c
        for i in range(n):
            if c >> i & 1 and adj[i] & c:
                return f"category {k} is not conflict-free"
        if algo in ("hpca", "fhca"):
            outside = full & ~c
            for i in range(n):
                if outside >> i & 1 and not adj[i] & c:
                    return f"category {k} is not maximal: {sp.universe[i]} could join"
    if union != full:
        return "categories do not cover the collection"
    order = list(range(n))
    if algo == "pca" and cats != _first_fit(adj, order):
        return "pca categories differ from first-fit replay"
    if algo == "hpc" and cats != _types(adj, order):
        return "hpc types differ from the history rule replay"
    if algo in ("hpca", "fhca"):
        dec = doc.get("decomposition", {})
        if dec.get("coverage") is not True or not all(
                d["conflict_free"] and d["maximal"] for d in dec.get("verdicts", [])):
            return "reported decomposition disagrees with the re-check"
    if algo == "fhca" and [_region(sp, a) for a in doc.get("antichains", [])] != cats:
        return "fhca antichains differ from its categories"
    return None


# --- inverse ----------------------------------------------------------------

def check_inverse(doc: dict, truth: dict) -> str | None:
    universe = truth["universe"]
    pairs = truth["pairs"]
    if doc.get("realizable") is not truth["realizable"]:
        return f"verdict {doc.get('realizable')} differs from planted {truth['realizable']}"
    witness = doc.get("witness")
    if not truth["realizable"]:
        return None if witness is None else "negative verdict carries a witness"
    index = {e: i for i, e in enumerate(universe)}
    block_of: dict[str, int] = {}
    for k, block in enumerate(witness["partition"]):
        for e in block:
            if e not in index or e in block_of:
                return f"witness partition is not a partition: {e!r}"
            block_of[e] = k
    if len(block_of) != len(universe):
        return "witness partition does not cover the universe"
    reals = witness["realizations"]
    if [r["pair"] for r in reals] != list(range(len(pairs))):
        return "witness does not realize every pair in order"
    for r, (lo, up) in zip(reals, pairs):
        region = set(r["region"])
        touched = {block_of[e] for e in region}
        lower = upper = 0
        for e in universe:
            members = {x for x in universe if block_of[x] == block_of[e]}
            if members <= region:
                lower |= 1 << index[e]
            if block_of[e] in touched:
                upper |= 1 << index[e]
        if (lower, upper) != (lo, up):
            return f"pair {r['pair']}: witness region replays to a different signature"
    return None


CHECKS = {"gos-audit": check_gos_audit, "parthood-audit": check_parthood_audit,
          "count": check_count, "inverse": check_inverse}
