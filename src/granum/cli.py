"""Command-line front door.

Subcommands cover every analysis: ``approx``, ``gos-audit``,
``parthood-audit``, ``count``, ``inverse`` and ``oracle``.
Each handler returns a plain payload dict, and ``core._json_pieces``, the
package's one JSON writer, writes it with sorted keys as a list of pieces
that ``run`` writes to the stream one by one, so identical configurations
produce byte-identical reports; count's trace and decomposition write
themselves through that writer.  Exit status: 0 on
success, 1 when a ``--strict`` run ends analysis-negative, 2 on usage or
parse errors and when the output cannot be written (a closed pipe, a full
disk), 3 on an internal error (a defect: any other exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import counting, gos as gos_mod, oracles, parthood as pH
from .core import (DEFAULT_SEED, ParseError, Region, Universe, _context_from_json,
                   _decode_json, _ids, _json_pieces, _list_field, _table_from_json,
                   _transpose, indiscernibility_partition, parse_information_table)

ENV_SEED = "GRANUM_SEED"

AXIOM_ALIASES = {
    "wra": "weak-representability",
    "weak-representability": "weak-representability",
    "ls": "lower-stability",
    "lower-stability": "lower-stability",
    "fu": "full-underlap",
    "full-underlap": "full-underlap",
}


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _load_space(args: argparse.Namespace,
                parthood: pH.ParthoodVariant = pH.ROUGH_INCLUSION) -> gos_mod.GranularOperatorSpace:
    if args.input is None:
        raise ParseError("an --input file is required")
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    fmt = args.format
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "csv":
        table = parse_information_table(text)
    else:   # decoded once, then read as a table or as a context
        try:
            doc = _decode_json(text)
        except ParseError as exc:   # not a table: raised after the context's option checks
            doc = exc
        if not (isinstance(doc, dict) and "objects" in doc and "attributes" in doc):
            for option, value in (("--attrs", args.attrs), ("--format", args.format)):
                if value is not None:
                    raise ParseError(f"{option} applies only to an information table, "
                                     f"not to a JSON context")
            if isinstance(doc, ParseError):
                raise doc
            universe, granulation = _context_from_json(doc)
            return gos_mod.GranularOperatorSpace(universe, granulation, parthood=parthood)
        table = _table_from_json(doc)
    attrs = table.attributes if args.attrs is None else args.attrs.split(",")
    granulation = indiscernibility_partition(table, attrs).granulation()
    return gos_mod.GranularOperatorSpace(table.objects, granulation, parthood=parthood)


def _parse_regions(space: gos_mod.GranularOperatorSpace, raw: list[str]) -> list[Region]:
    out = []
    for chunk in raw:
        members = [m for m in chunk.split(",") if m]
        try:
            out.append(space.universe.region(members))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return out


def _items(space: gos_mod.GranularOperatorSpace, args: argparse.Namespace):
    """The ``--items`` collection, the bit rows of its ``--conflict`` and of
    its parthood order over the collection: bit j of row i relates item i
    to item j.

    Items are universe elements (as singletons) or rough-object classes
    (named by representative, ordered by :func:`~granum.gos.basic_rough_order`);
    both relations read one set of parthood rows.
    """
    if args.items == "elements":
        items = list(space.universe.elements)
        masks = [1 << i for i in range(len(items))]
        rows = pH.relation_rows(space.parthood, space, masks, masks)
    else:
        order = gos_mod.basic_rough_order(gos_mod.rough_objects(space))
        items = ["{%s}" % ",".join(c.representative()) for c in order.quotient.classes]
        rows = order.rows
    either = [row | col for row, col in zip(rows, _transpose(rows, len(rows)))]
    if args.conflict == "comparability":   # distinct regions related either way
        conflicts = [row & ~(1 << i) for i, row in enumerate(either)]
    else:                                  # incomparability, kept literal on the diagonal
        full = (1 << len(items)) - 1
        conflicts = [row ^ full for row in either]
    return items, conflicts, rows


def _relation(items: list[str], rows: list[int]):
    """The relation that bit rows over ``items`` hold, as a callback."""
    index = {item: i for i, item in enumerate(items)}
    return lambda a, b: bool(rows[index[a]] >> index[b] & 1)


def _cmd_approx(args):
    space = _load_space(args)
    regions = _parse_regions(space, args.region or [])
    if not regions:
        raise ParseError("at least one --region is required")
    rows = []
    for r in regions:
        lo, up = space.signature(r)
        row = {
            "region": sorted(r),
            "lower": sorted(lo),
            "upper": sorted(up),
            "definite": space.is_definite(r),
        }
        if args.knowledge:
            row["knowledge"] = gos_mod.knowledge_validity_check(r, space).to_dict()
        rows.append(row)
    payload = {
        "universe": list(space.universe.elements),
        "granules": [sorted(g) for g in space.granulation.granules],
        "regions": rows,
    }
    lines = []
    for row in rows:
        lines.append(f"region {{{', '.join(row['region'])}}}: "
                     f"lower={{{', '.join(row['lower'])}}} "
                     f"upper={{{', '.join(row['upper'])}}}"
                     + (" definite" if row["definite"] else ""))
        if args.knowledge:
            for eq in row["knowledge"]["equations"]:
                mark = "ok" if eq["holds"] else "FAIL"
                lines.append(f"  {eq['name']}: {mark}")
    negative = args.knowledge and any(not e["holds"]
                                      for row in rows for e in row["knowledge"]["equations"])
    return payload, "\n".join(lines), bool(negative)


def _cmd_gos_audit(args):
    space = _load_space(args, pH.variant(args.parthood))
    wanted = AXIOM_ALIASES.get(args.axiom, args.axiom)
    basis = gos_mod._axiom_basis(len(space.universe), args.seed)   # one for every check
    audits = {"weak-representability": gos_mod.audit_weak_representability,
              "lower-stability": gos_mod.audit_lower_stability,
              "full-underlap": gos_mod.audit_full_underlap}
    reports = [audit(space, basis) for axiom, audit in audits.items()
               if wanted in (axiom, "all")]
    violations = space.containment_violations(basis=basis)
    containment = {"holds": not violations, "witnesses": [sorted(v) for v in violations]}
    if basis.seed is not None:
        containment.update(mode=basis.mode, seed=basis.seed)
    payload = {"axioms": reports, "upper_contains_lower": containment}
    lines = [f"{r.axiom}: {'pass' if r.passed else 'FAIL'} ({r.mode}, {r.checked} checks)"
             for r in reports]
    lines.append("upper-contains-lower: " + ("pass" if not violations else "FAIL")
                 + (" (sampled)" if "mode" in containment else ""))
    negative = any(not r.passed for r in reports) or bool(violations)
    return payload, "\n".join(lines), negative


def _cmd_parthood_audit(args):
    space = _load_space(args)
    names = sorted(pH.VARIANTS) if args.variant == "all" else [args.variant]
    basis = pH._property_basis(len(space.universe), args.budget, args.seed)
    reports = [pH.audit_properties(pH.variant(n), space, basis) for n in names]
    payload = {"reports": reports}
    lines = []
    for r in reports:
        cells = ", ".join(f"{c.name}={'ok' if c.verdict.startswith('holds') else 'FAIL'}"
                          for c in r.checks)
        lines.append(f"{r.variant}: {cells}")
        for c in r.checks:
            if c.verdict == "fails" and c.witnesses:
                w = c.witnesses[0]
                shown = ", ".join("{%s}" % ",".join(x) for x in w)
                lines.append(f"  {c.name} witness: ({shown})")
    negative = any(c.verdict == "fails" for r in reports for c in r.checks)
    return payload, "\n".join(lines), negative


def _cmd_count(args):
    space = _load_space(args, pH.variant(args.parthood))
    items, rows, _ = _items(space, args)
    seq = counting.arrangement(items)
    antichains = None
    decomposition = None
    if args.algo == "hpc":
        trace = counting.hpc_count(seq, None, rows=rows)
    elif args.algo == "pca":
        trace = counting.pca_count(seq, None, rows=rows)
        decomposition = counting.verify_decomposition(trace, None, rows=rows)
    elif args.algo == "hpca":
        trace, decomposition = counting.hpca_count(seq, None, rows=rows)
    else:
        trace, antichains = counting.fhca_count(seq, None, rows=rows)
        decomposition = counting.verify_decomposition(trace, None, rows=rows)
    payload = {"config": {"algorithm": args.algo, "items": args.items,
                          "parthood": args.parthood, "conflict": args.conflict},
               "trace": trace}
    if decomposition is not None:
        payload["decomposition"] = decomposition
    if antichains is not None:
        payload["antichains"] = antichains
    text = None   # JSON output writes the payload alone
    if args.output == "text":
        text = trace.render_text()
        if decomposition is not None:
            text += "\ncoverage: %s" % ("yes" if decomposition.coverage else "NO")
    negative = bool(decomposition is not None
                    and not (decomposition.coverage and decomposition.all_conflict_free))
    return payload, text, negative


def _cmd_inverse(args):
    if args.input is None:
        raise ParseError("an --input file is required")
    try:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8-sig"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read pairs file: {exc}") from None
    if not isinstance(doc, dict) or "universe" not in doc or "pairs" not in doc:
        raise ParseError("pairs file must contain 'universe' and 'pairs'")
    universe = Universe(tuple(_ids(_list_field(doc, "universe"), "the universe")))
    pairs = []
    for i, p in enumerate(_list_field(doc, "pairs")):
        if not isinstance(p, dict):
            raise ParseError(f"pair {i}: must be an object with 'lower' and 'upper'")
        try:
            pairs.append((universe.region(_ids(_list_field(p, "lower"), "'lower'")),
                          universe.region(_ids(_list_field(p, "upper"), "'upper'"))))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"pair {i}: {exc}") from None
    witness = gos_mod.rough_origin(pairs, universe)
    payload = {"realizable": witness is not None,
               "witness": witness.to_dict() if witness else None}
    if witness:
        text = "rough origin possible; witness partition: " + \
            " | ".join("{%s}" % ",".join(sorted(b)) for b in witness.partition.blocks)
    else:
        text = "no partition realizes all pairs"
    return payload, text, witness is None


def _cmd_oracle(args):
    space = _load_space(args, pH.variant(args.parthood))
    if args.op == "maximal-antichains":
        items, conflicts, _ = _items(space, args)
        chains = oracles.enumerate_maximal_antichains(_relation(items, conflicts), items)
        payload = {"maximal_antichains": [list(c) for c in chains]}
        text = "\n".join("{%s}" % ", ".join(str(m) for m in c) for c in chains)
        return payload, text, False
    if args.op == "antichain-cover":
        items, _, rows = _items(space, args)
        le = _relation(items, [row | 1 << i for i, row in enumerate(rows)])
        cover = oracles.minimum_antichain_cover(le, items)
        payload = {"cover": cover.to_dict()}
        text = "\n".join(f"level {i}: {{{', '.join(l)}}}"
                         for i, l in enumerate(cover.levels))
        text += f"\nlongest chain: {cover.longest_chain}"
        return payload, text, False
    table = oracles.brute_force_signatures(space.granulation)   # --op signatures
    payload = {"signatures": [{"region": sorted(r), "lower": sorted(lo),
                               "upper": sorted(up)}
                              for r, (lo, up) in table.items()]}
    text = "\n".join(f"{{{','.join(row['region'])}}} -> "
                     f"({{{','.join(row['lower'])}}}, {{{','.join(row['upper'])}}})"
                     for row in payload["signatures"])
    return payload, text, False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granum",
        description="Granular operator spaces: approximations, parthood audits, "
                    "antichain counting and rough-origin checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {   # options that several subcommands read; each declares only its own
        "--format": dict(choices=["csv", "json"]),
        "--attrs": dict(help="comma-separated attribute subset (CSV tables)"),
        "--parthood": dict(default="rough-inclusion", choices=sorted(pH.VARIANTS)),
        "--conflict": dict(default="comparability", choices=["comparability", "incomparability"]),
        "--seed": dict(type=int),
        "--strict": dict(action="store_true", help="exit 1 when the analysis result is negative"),
        "--items": dict(default="elements", choices=["elements", "rough-objects"]),
    }
    table = ("--format", "--attrs")   # how --input is read as a CSV or JSON table

    def command(name: str, help: str, *options: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", help="CSV table or JSON context; for inverse, JSON pairs")
        p.add_argument("--output", default="text", choices=["text", "json"])
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every run is single-threaded")
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    p = command("approx", "lower/upper approximations of regions", *table, "--strict")
    p.add_argument("--region", action="append",
                   help="comma-separated element ids; repeatable")
    p.add_argument("--knowledge", action="store_true",
                   help="include the stability equations for each region")

    p = command("gos-audit", "audit the space axioms", *table, "--parthood", "--seed",
                "--strict")
    p.add_argument("--axiom", default="all",
                   choices=sorted(set(AXIOM_ALIASES)) + ["all"])

    p = command("parthood-audit", "measure parthood properties", *table, "--seed", "--strict")
    p.add_argument("--budget", type=int, default=pH.EXHAUSTIVE_REGION_LIMIT,
                   help="regions to scan: all 2^n when that many fit, else this many "
                        "sampled; at least 1 (default 32)")
    p.add_argument("--variant", default="all",
                   choices=sorted(pH.VARIANTS) + ["all"])

    p = command("count", "run a counting procedure", *table, "--parthood", "--conflict",
                "--strict", "--items")
    p.add_argument("--algo", required=True, choices=["hpc", "pca", "hpca", "fhca"])

    command("inverse", "decide whether pairs have a rough origin", "--strict")

    p = command("oracle", "run an independent brute-force verifier", *table, "--parthood",
                "--conflict", "--items")
    p.add_argument("--op", required=True,
                   choices=["maximal-antichains", "antichain-cover", "signatures"])
    return parser


_HANDLERS = {
    "approx": _cmd_approx,
    "gos-audit": _cmd_gos_audit,
    "parthood-audit": _cmd_parthood_audit,
    "count": _cmd_count,
    "inverse": _cmd_inverse,
    "oracle": _cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building it costs more than most runs."""
    return build_parser()


def run(argv: list[str] | None = None, out=None) -> int:
    """Run the ``granum`` command line on ``argv`` and return its exit status.

    The report goes to ``out`` (default ``sys.stdout``), which must provide
    ``write(str)`` and ``flush()``.  The whole report is built first, as a
    list of pieces, so a refusal or a defect leaves ``out`` untouched; then
    each piece is written in turn, never joined, and a final newline.  A
    stream with ``line_buffering`` set, as ``sys.stdout`` is on a terminal,
    would flush at every piece that holds a newline: it is reconfigured
    without it for the writes, and with it again after them, on every
    path.  A write or flush that raises ``OSError`` (a closed pipe, a full
    disk) exits 2 with one error line on stderr.
    """
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        payload, text, negative = _HANDLERS[args.command](args)
        pieces = _json_pieces(payload) if args.output == "json" else [text]
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # a defect: exit apart from the verdict and usage codes
        tb = exc.__traceback__
        while tb.tb_next is not None:   # the frame that raised
            tb = tb.tb_next
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"(at {Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno})",
              file=sys.stderr)
        return 3
    line_buffered = getattr(out, "line_buffering", False)
    try:
        if line_buffered:
            out.reconfigure(line_buffering=False)
        write = out.write
        for piece in pieces:
            write(piece)
        write("\n")
        out.flush()
    except OSError as exc:   # the reader went away or the disk is full
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        _discard(out)
        return 2
    finally:
        if line_buffered:
            try:   # reconfiguring flushes: after a failed write, to the null device
                out.reconfigure(line_buffering=True)
            except OSError:   # a stream without a descriptor: it stays as it is
                pass
    # Only subcommands that declare --strict can report a negative result.
    return 1 if (negative and args.strict) else 0


def _discard(out) -> None:
    """Point ``out``'s file descriptor, if it has one, at the null device, so
    that the text still buffered does not fail again when Python flushes the
    stream at exit."""
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
