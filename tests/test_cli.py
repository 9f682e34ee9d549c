"""Command-line behavior: subcommands, exit codes, stable JSON."""

import gzip
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granum import (GranularOperatorSpace, IndiscernibilityRelation, PartitionWitness,
                    Universe, cli, counting, gos, oracles, parse_context)
from granum import parthood as ph
from granum.core import _json_text

from conftest import FIXTURES, planted_pairs
from test_golden import CASES as GOLDEN_CASES, _recorded, replay

VEE = str(FIXTURES / "ctx_vee.json")
TABLE = str(FIXTURES / "table_blocks.csv")
PAIRS_YES = str(FIXTURES / "pairs_yes.json")
PAIRS_NO = str(FIXTURES / "pairs_no.json")
PAIRS_WIDE12 = str(FIXTURES / "pairs_wide12.json")
DENSE120 = str(FIXTURES / "ctx_dense120.json")
# 15 singleton granules: one element past the rough-object cap.
WIDE15 = {"universe": [f"e{i}" for i in range(15)],
          "granules": [[f"e{i}"] for i in range(15)]}


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--output", "json"])
    return code, json.loads(text)


class WriteOnly:
    """An output stream with only the two methods ``cli.run`` may call."""

    def __init__(self):
        self.writes: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.writes.append(text)
        self.size += len(text)

    def flush(self) -> None:
        pass


class TestCount:
    def test_hpca_on_vee_context(self):
        code, doc = run_json(["count", "--algo", "hpca", "--parthood",
                              "rough-inclusion", "--conflict", "comparability",
                              "--input", VEE])
        assert code == 0
        cats = [tuple(c["members"]) for c in doc["trace"]["categories"]]
        assert cats == [("p", "s"), ("q", "r", "s")]
        assert doc["decomposition"]["coverage"] is True

    def test_pca_labels_rendered(self):
        code, text = run_cli(["count", "--algo", "pca", "--input", VEE])
        assert code == 0
        assert "1_1" in text and "C_1" in text

    @pytest.mark.parametrize("algo", ["hpc", "pca", "hpca", "fhca"])
    def test_json_output_renders_no_text(self, monkeypatch, algo):
        rendered = []
        render = counting.CountingTrace.render_text
        monkeypatch.setattr(counting.CountingTrace, "render_text",
                            lambda trace: rendered.append(trace) or render(trace))
        code, _ = run_json(["count", "--algo", algo, "--input", VEE])
        assert code == 0 and rendered == []
        code, text = run_cli(["count", "--algo", algo, "--input", VEE])
        assert code == 0 and len(rendered) == 1 and text.startswith("algorithm: ")

    def test_hpc_runs(self):
        code, doc = run_json(["count", "--algo", "hpc", "--input", VEE])
        assert code == 0
        assert doc["trace"]["algorithm"] == "hpc"

    def test_fhca_antichains_listed(self):
        code, doc = run_json(["count", "--algo", "fhca", "--input", VEE])
        assert code == 0
        assert [tuple(a) for a in doc["antichains"]] == [("p", "s"), ("q", "r", "s")]

    def test_rough_object_items(self):
        code, doc = run_json(["count", "--algo", "pca", "--items", "rough-objects",
                              "--input", VEE])
        assert code == 0
        assert doc["config"]["items"] == "rough-objects"

    @pytest.mark.parametrize("algo", ["hpc", "pca", "hpca", "fhca"])
    @pytest.mark.parametrize("budget", ["-5", "0", "3"])
    def test_budget_refused_by_every_algorithm(self, capsys, algo, budget):
        # no counting procedure takes a budget, fhca included
        code, out = run_cli(["count", "--algo", algo, "--budget", budget, "--input", VEE])
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --budget {budget}" in capsys.readouterr().err


class TestInverse:
    def test_yes_case(self):
        code, doc = run_json(["inverse", "--input", PAIRS_YES])
        assert code == 0
        assert doc["realizable"] is True
        assert doc["witness"]["partition"] == [["1", "2"]]

    def test_no_case_strict_exit_one(self):
        code, doc = run_json(["inverse", "--input", PAIRS_NO, "--strict"])
        assert code == 1
        assert doc["realizable"] is False

    def test_no_case_default_exit_zero(self):
        code, _ = run_json(["inverse", "--input", PAIRS_NO])
        assert code == 0

    @staticmethod
    def _replays(doc, path):
        family = json.loads(Path(path).read_text(encoding="utf-8"))
        u = Universe(tuple(family["universe"]))
        pairs = [(u.region(p["lower"]), u.region(p["upper"])) for p in family["pairs"]]
        witness = doc["witness"]
        rel = IndiscernibilityRelation.from_sets(u, witness["partition"])
        regions = tuple(u.region(r["region"]) for r in witness["realizations"])
        return PartitionWitness(rel, regions).replays(pairs)

    @pytest.mark.parametrize("n", [11, 12, 40, 4000])
    def test_wide_families_are_answered(self, tmp_path, n):
        # the partition scan refused these with exit 2 (more than 10 elements);
        # 4000 elements also exercises Universe.index and Region.__iter__ at scale
        u = Universe(tuple(f"u{i}" for i in range(n)))
        pairs = planted_pairs(random.Random(n), u, 4)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"universe": list(u.elements), "pairs": [
            {"lower": list(lo), "upper": list(up)} for lo, up in pairs]}), encoding="utf-8")
        code, doc = run_json(["inverse", "--input", str(path), "--strict"])
        assert code == 0 and doc["realizable"] is True
        assert self._replays(doc, path)

    def test_wide12_fixture_is_realizable(self):
        code, doc = run_json(["inverse", "--input", PAIRS_WIDE12, "--strict"])
        assert code == 0 and doc["realizable"] is True
        assert self._replays(doc, PAIRS_WIDE12)

    def test_no_partition_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("inverse ran a partition scan")
        monkeypatch.setattr(oracles, "all_partitions", scan)
        monkeypatch.setattr(oracles, "inverse_rough_check", scan)
        assert run_json(["inverse", "--input", PAIRS_YES])[1]["realizable"] is True
        assert run_json(["inverse", "--input", PAIRS_NO])[1]["realizable"] is False
        assert run_json(["inverse", "--input", PAIRS_WIDE12])[0] == 0


class TestParser:
    def test_built_once_per_process(self, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for _ in range(3):
            assert run_cli(["inverse", "--input", PAIRS_YES])[0] == 0
        assert len(built) == 1
        assert build() is not build()   # the public builder still builds afresh

    def test_runs_share_no_state(self, monkeypatch):
        # a reused parser must not carry options from one run into the next
        argv = ["parthood-audit", "--variant", "rough-inclusion", "--input", TABLE]
        run_cli(argv + ["--budget", "8", "--seed", "3"])
        reused = run_cli(argv)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == run_cli(argv)


def _witness_violates(v, name, regions, space):
    h = lambda a, b: ph.holds(v, a, b, space)
    if name == "reflexive":
        (a,) = regions
        return not h(a, a)
    if name == "transitive":
        a, b, c = regions
        return h(a, b) and h(b, c) and not h(a, c)
    if name == "antisymmetric":
        a, b = regions
        return a != b and h(a, b) and h(b, a)
    # strict confluence fails relative to the scanned basis, which the report
    # does not list; the antecedent is what can be re-evaluated
    a, b, c = regions
    return h(a, b) and h(a, c)


def _count_draws(monkeypatch, module):
    """The log of calls to the basis sampler as ``module`` binds it."""
    draws = []
    draw = module._region_masks

    def counted(*args):
        draws.append(args)
        return draw(*args)
    monkeypatch.setattr(module, "_region_masks", counted)
    return draws


class TestAudits:
    @pytest.mark.parametrize("n", [64, 80])
    def test_parthood_audit_samples_universes_past_sys_maxsize(self, tmp_path, n):
        # from n = 63 on, range(2**n) has no len(), so it cannot be sampled
        universe = [f"e{i}" for i in range(n)]
        text = json.dumps({"universe": universe,
                           "granules": [universe[i:i + 3] for i in range(0, n - 2, 2)]})
        path = tmp_path / "wide.json"
        path.write_text(text, encoding="utf-8")
        code, doc = run_json(["parthood-audit", "--input", str(path), "--budget", "48",
                              "--seed", "5"])
        assert code == 0
        u, granulation = parse_context(text)
        space = GranularOperatorSpace(u, granulation)
        witnessed = 0
        for report in doc["reports"]:
            assert report["scope"] == {"mode": "sampled", "basis_size": 48,
                                       "universe_size": n, "seed": 5}
            v = ph.variant(report["variant"])
            for check in report["checks"]:
                for w in check["witnesses"]:
                    regions = [u.region(r) for r in w]
                    assert _witness_violates(v, check["name"], regions, space), (v, w)
                    witnessed += 1
        assert witnessed

    def test_gos_audit_samples_containment_past_the_cap(self, tmp_path):
        # the upper-contains-lower scan used to visit all 2**64 regions
        universe = [f"e{i}" for i in range(64)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"universe": universe,
                                    "granules": [universe[i:i + 3] for i in range(0, 62, 3)]}),
                        encoding="utf-8")
        code, doc = run_json(["gos-audit", "--axiom", "all", "--input", str(path),
                              "--seed", "7"])
        assert code == 0
        assert doc["upper_contains_lower"] == {"holds": True, "witnesses": [],
                                               "mode": "sampled", "seed": 7}
        assert all(a["mode"] == "sampled" and a["seed"] == 7 for a in doc["axioms"])

    def test_parthood_audit_lateral_reflexivity_fails(self):
        code, doc = run_json(["parthood-audit", "--variant", "lateral",
                              "--input", TABLE])
        assert code == 0
        report = doc["reports"][0]
        refl = next(c for c in report["checks"] if c["name"] == "reflexive")
        assert refl["verdict"] == "fails"
        assert refl["witnesses"]  # recorded witnesses re-verify in unit tests
        # {3} is one of the analytically forced counterexamples
        assert [["3"]] in refl["witnesses"] or refl["witnesses"]

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("universe", ["vee", "wide62", "wide64"])
    def test_parthood_audit_budget_below_one_refused(self, tmp_path, capsys, budget,
                                                      universe):
        # a budget of 0 used to pass every property after scanning no region
        if universe == "wide64":
            elements = [f"e{i}" for i in range(64)]
            path = tmp_path / "wide64.json"
            path.write_text(json.dumps({"universe": elements, "granules": [elements[:3]]}),
                            encoding="utf-8")
        else:
            path = FIXTURES / f"ctx_{universe}.json"
        code, _ = run_cli(["parthood-audit", "--budget", budget, "--input", str(path),
                           "--strict"])
        assert code == 2
        assert capsys.readouterr().err == "error: budget must be >= 1\n"

    def test_gos_audit_draws_one_basis(self, monkeypatch):
        draws = _count_draws(monkeypatch, gos)
        code, doc = run_json(["gos-audit", "--axiom", "all", "--input", TABLE])
        assert code == 0 and len(doc["axioms"]) == 3
        assert len(draws) == 1

    def test_parthood_audit_draws_one_basis(self, monkeypatch):
        # one basis for all ten variants, not one per variant
        draws = _count_draws(monkeypatch, ph)
        code, doc = run_json(["parthood-audit", "--variant", "all", "--budget", "256",
                              "--seed", "7", "--input", str(FIXTURES / "ctx_overlap16.json")])
        assert code == 0 and len(doc["reports"]) == 10
        assert len(draws) == 1

    def test_gos_audit_all_pass_on_partition(self):
        code, doc = run_json(["gos-audit", "--input", TABLE])
        assert code == 0
        assert all(a["passed"] for a in doc["axioms"])
        assert doc["upper_contains_lower"]["holds"] is True

    def test_gos_audit_strict_negative(self, tmp_path):
        ctx = tmp_path / "whole.json"
        ctx.write_text('{"universe": ["a", "b"], "granules": [["a", "b"]]}',
                       encoding="utf-8")
        # nothing properly contains the only granule, so full-underlap fails
        code, doc = run_json(["gos-audit", "--input", str(ctx), "--axiom", "fu",
                              "--strict"])
        assert code == 1
        assert doc["axioms"][0]["passed"] is False


class TestApprox:
    def test_region_report(self):
        code, doc = run_json(["approx", "--input", TABLE, "--region", "1,3,4"])
        assert code == 0
        row = doc["regions"][0]
        assert row["lower"] == ["3"]
        assert row["upper"] == ["1", "2", "3", "4", "5"]

    def test_knowledge_flags(self):
        code, doc = run_json(["approx", "--input", TABLE, "--region", "1,3,4",
                              "--knowledge"])
        assert code == 0
        assert doc["regions"][0]["knowledge"]["all_hold"] is True

    def test_attrs_subset(self):
        code, doc = run_json(["approx", "--input", TABLE, "--attrs", "color",
                              "--region", "1"])
        assert code == 0

    def test_missing_region_is_usage_error(self):
        code, _ = run_cli(["approx", "--input", TABLE])
        assert code == 2


class TestCoherenceAndOracle:
    def test_coherence_check(self):
        code, doc = run_json(["count", "--algo", "hpca", "--input", VEE])
        assert code == 0
        assert doc["decomposition"]["coherent"] is True

    @pytest.mark.parametrize("parthood", sorted(ph.VARIANTS))
    @pytest.mark.parametrize("fixture", ["ctx_vee.json", "ctx_chain9.json",
                                         "table_blocks.csv", "ctx_overlap13.json"])
    def test_strict_hpca_is_coherent_or_refused(self, capsys, fixture, parthood):
        """hpca's decomposition is coherent on every row set count accepts: a
        ``--strict`` hpca run never ends negative, under either conflict and on
        either item collection, and a refused one prints one error line."""
        for conflict in ("comparability", "incomparability"):
            for items in ("elements", "rough-objects"):
                code, text = run_cli(["count", "--algo", "hpca", "--strict",
                                      "--parthood", parthood, "--conflict", conflict,
                                      "--items", items, "--input", str(FIXTURES / fixture),
                                      "--output", "json"])
                err = capsys.readouterr().err
                if code == 2:
                    assert conflict == "incomparability" and text == ""
                    assert err.startswith("error: conflict relation is not irreflexive")
                    assert err.count("\n") == 1
                else:
                    assert code == 0 and err == ""
                    assert json.loads(text)["decomposition"]["coherent"] is True

    def test_oracle_maximal_antichains(self):
        code, doc = run_json(["oracle", "--op", "maximal-antichains", "--input", VEE])
        assert code == 0
        assert [tuple(c) for c in doc["maximal_antichains"]] == \
            [("p", "s"), ("q", "r", "s")]

    def test_oracle_signatures(self):
        code, doc = run_json(["oracle", "--op", "signatures", "--input", VEE])
        assert code == 0
        assert len(doc["signatures"]) == 16

    def test_oracle_cover_levels(self):
        code, doc = run_json(["oracle", "--op", "antichain-cover", "--input", VEE])
        assert code == 0
        assert doc["cover"]["longest_chain"] == 2
        assert [set(l) for l in doc["cover"]["levels"]] == [{"q", "r", "s"}, {"p"}]

    def test_oracle_cover_of_rough_objects(self):
        code, doc = run_json(["oracle", "--op", "antichain-cover", "--items",
                              "rough-objects", "--input", VEE])
        assert code == 0
        assert doc["cover"]["longest_chain"] == len(doc["cover"]["levels"]) == 6
        assert doc["cover"]["levels"][0] == ["{}"]

    def test_oracle_cover_of_rough_objects_rejects_cautious(self, capsys):
        # cautious relates {} and {p} both ways: not antisymmetric, exit 2
        code, out = run_cli(["oracle", "--op", "antichain-cover", "--items",
                             "rough-objects", "--parthood", "cautious", "--input", VEE])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == ("error: relation is not a partial order: "
                                           "antisymmetry fails on ('{}', '{p}')\n")

    @pytest.mark.parametrize("variant, levels", [
        ("ultra-cautious", [{"p", "q", "r", "s"}]),
        ("lateral-plus-plus", [{"s"}, {"p", "q", "r"}]),
    ])
    def test_oracle_cover_reads_each_item_below_itself(self, variant, levels):
        # neither variant relates every item to itself here; the cover's
        # order is the parthood with the diagonal added
        code, doc = run_json(["oracle", "--op", "antichain-cover", "--input", VEE,
                              "--parthood", variant])
        assert code == 0
        assert [set(l) for l in doc["cover"]["levels"]] == levels

    def test_oracle_cover_rejects_non_partial_order(self):
        # very-cautious is not antisymmetric here: rejected with exit 2
        code, text = run_cli(["oracle", "--op", "antichain-cover", "--input", VEE,
                              "--parthood", "very-cautious"])
        assert code == 2 and text == ""

    @pytest.mark.parametrize("fixture", ["ctx_vee.json", "ctx_chain9.json", "ctx_escaped10.json",
                                         "table_blocks.csv", "ctx_overlap13.json"])
    def test_rough_object_rows_are_the_representatives_rows(self, fixture):
        # the items' order is basic_rough_order's; one representative per
        # class decides every variant on the derived spaces the CLI reads
        for parthood in sorted(ph.VARIANTS):
            args = cli._parser().parse_args(["count", "--algo", "hpc", "--items", "rough-objects",
                                             "--parthood", parthood,
                                             "--input", str(FIXTURES / fixture)])
            space = cli._load_space(args, ph.variant(parthood))
            reps = [c.representative() for c in gos.rough_objects(space).classes]
            items, _, rows = cli._items(space, args)
            assert items == ["{%s}" % ",".join(r) for r in reps]
            masks = [r.bits for r in reps]
            assert list(rows) == ph.relation_rows(space.parthood, space, masks, masks), parthood


# Options each subcommand once accepted and ignored, or read to no effect
# (fhca's budget), after a command line it runs.
_UNREAD = [(argv, extra) for argv, extras in [
    (["approx", "--input", VEE, "--region", "p"],
     [["--parthood", "lateral"], ["--conflict", "incomparability"], ["--seed", "3"]]),
    (["gos-audit", "--input", VEE], [["--conflict", "incomparability"]]),
    (["parthood-audit", "--input", VEE],
     [["--parthood", "lateral"], ["--conflict", "incomparability"]]),
    (["count", "--algo", "hpc", "--input", VEE], [["--seed", "3"]]),
    (["count", "--algo", "fhca", "--input", VEE], [["--budget", "1"]]),
    (["inverse", "--input", PAIRS_YES],
     [["--format", "json"], ["--attrs", "a"], ["--parthood", "lateral"],
      ["--conflict", "incomparability"], ["--seed", "3"]]),
    (["oracle", "--op", "signatures", "--input", VEE], [["--seed", "3"], ["--strict"]]),
] for extra in extras]


class TestErrorsAndDeterminism:
    # coherence stays unknown: `count --algo hpca` reports its verdict as decomposition.coherent.
    @pytest.mark.parametrize("argv", [["frobnicate"], ["coherence", "--input", VEE]],
                             ids=lambda argv: argv[0])
    def test_unknown_subcommand_exit_two(self, capsys, argv):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_unknown_flag_exit_two(self):
        code, _ = run_cli(["count", "--algo", "hpca", "--input", VEE, "--bogus"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["approx", "--input", TABLE, "--region", "1,2"],
        ["count", "--algo", "hpca", "--input", VEE],
        ["inverse", "--input", PAIRS_YES],
    ], ids=["csv", "context", "pairs"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_byte_order_mark_is_not_content(self, tmp_path, capsys, argv, output):
        source = Path(argv[argv.index("--input") + 1])
        marked = tmp_path / source.name
        marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        plain = run_cli(argv + ["--output", output]), capsys.readouterr().err
        argv = [str(marked) if a == str(source) else a for a in argv]
        assert (run_cli(argv + ["--output", output]), capsys.readouterr().err) == plain
        assert plain[0][0] == 0 and plain[1] == ""

    @pytest.mark.parametrize("argv,doc", [
        (["approx", "--region", "1", "--region", "1,3", "--knowledge"],
         {"universe": [1, 2, 3], "granules": [[1, 2], [3]]}),
        (["count", "--algo", "hpca"], {"universe": [1, 2, 3, 4], "partition": [[1, 2], [3, 4]]}),
        (["inverse", "--strict"], {"universe": [1, 2, 3],
                                   "pairs": [{"lower": [], "upper": [1, 2]},
                                             {"lower": [3], "upper": [1, 2, 3]}]}),
    ], ids=["granules", "partition", "pairs"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_numeric_ids_read_as_their_strings(self, tmp_path, capsys, argv, doc, output):
        # the universe's ids are read as str, and so are the members
        results = []
        for name, ids in (("numeric.json", doc),
                          ("strings.json", json.loads(json.dumps(doc), parse_int=str))):
            path = tmp_path / name
            path.write_text(json.dumps(ids), encoding="utf-8")
            results.append((run_cli(argv + ["--input", str(path), "--output", output]),
                            capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0][0] == 0 and results[0][1] == ""

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,c\n1,x\n1,y\n", encoding="utf-8")
        code, _ = run_cli(["approx", "--input", str(bad), "--region", "1"])
        assert code == 2

    def test_missing_file_exit_two(self):
        code, _ = run_cli(["approx", "--input", "/nonexistent.csv", "--region", "1"])
        assert code == 2

    def test_json_keys_sorted(self):
        _, text = run_cli(["count", "--algo", "hpca", "--input", VEE,
                           "--output", "json"])
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_repeat_runs_byte_identical(self):
        argv = ["count", "--algo", "fhca", "--input", VEE, "--output", "json"]
        outs = {run_cli(argv)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_thread_counts_do_not_change_output(self):
        base = ["gos-audit", "--input", TABLE, "--output", "json"]
        one = run_cli(base + ["--threads", "1"])[1]
        four = run_cli(base + ["--threads", "4"])[1]
        assert one == four

    def test_incomparability_reading_refused_when_not_irreflexive(self, capsys):
        # lateral is not reflexive on {s}, so s is incomparable with itself
        code, out = run_cli(["count", "--algo", "hpca", "--conflict", "incomparability",
                             "--parthood", "lateral", "--input", VEE])
        assert code == 2 and out == ""
        assert "not irreflexive" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc", [
        ("inverse", {"universe": 5, "pairs": []}),
        ("inverse", {"universe": ["a"], "pairs": 5}),
        ("approx", {"universe": 5, "granules": [["a"]]}),
        ("approx", {"universe": ["a"], "granules": 5}),
        ("approx", {"universe": ["a"], "granules": ["a"]}),
        ("approx", {"universe": ["a"], "partition": 7}),
        ("approx", {"attributes": 3, "objects": [["a", "x"]]}),
        ("approx", {"attributes": ["c"], "objects": ["a"]}),
    ])
    def test_fields_that_are_not_lists_are_parse_errors(self, tmp_path, capsys,
                                                         command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--input", str(path)]
        code, out = run_cli(argv + (["--region", "a"] if command == "approx" else []))
        assert code == 2 and out == ""
        assert "must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,text,says", [
        (["approx", "--region", "p"], None, "an --input file is required"),
        (["inverse"], None, "an --input file is required"),
        (["approx", "--region", "zz", "--input", VEE], None, "unknown element 'zz'"),
        (["inverse"], {"universe": ["a", "b"], "pairs": [{"lower": ["a"]}]}, "pair 0: 'upper'"),
        (["inverse"], {"universe": ["a", "b"], "pairs": [{"lower": [], "upper": ["zz"]}]},
         "pair 0: unknown element 'zz'"),
        (["approx", "--region", "a"], "{not json", "invalid JSON"),
        (["count", "--algo", "pca", "--items", "rough-objects"], WIDE15, "n=15 > 14"),
        (["approx", "--region", "a", "--format", "json"], "{not json",
         "--format applies only to an information table"),
        (["approx", "--region", "a", "--attrs", "c"], "{not json",
         "--attrs applies only to an information table"),
        (["approx", "--region", "a"], "null", "context must be an object"),
        (["approx", "--region", "1"], {"attributes": ["c"], "objects": [["1"]]},
         "row 1: missing value for column 'c'"),
        # A string or an object is not read as its characters or keys.
        (["inverse"], {"universe": ["a", "b", "c", "d"],
                       "pairs": [{"lower": ["a"], "upper": "abcd"}]},
         "pair 0: 'upper' must be a list"),
        (["inverse"], {"universe": ["a", "b"], "pairs": [{"lower": {"a": 1}, "upper": ["a"]}]},
         "pair 0: 'lower' must be a list"),
        # A row without even its id, in a table without attributes.
        (["approx", "--region", ""], {"attributes": [], "objects": [[]]},
         "row 1: missing object id"),
        (["oracle", "--op", "antichain-cover", "--items", "rough-objects", "--input",
          str(FIXTURES / "table_cap14.csv")], None, "n=1944 > 200"),
        # An empty subset names no attribute, not every attribute.
        (["approx", "--region", "1", "--attrs", "", "--input", TABLE], None,
         "unknown attribute ''"),
        (["inverse"], {"universe": ["a"], "pairs": [["a"]]},
         "pair 0: must be an object with 'lower' and 'upper'"),
        (["inverse"], {"universe": ["a"], "pairs": ["ab"]},
         "pair 0: must be an object with 'lower' and 'upper'"),
        # An id is a string or an integer; null, true and 1e2 are not read as
        # 'None', 'True' and '100.0'.
        (["approx", "--region", "a"], '{"universe": ["a", "None"], "granules": [[null], ["a"]]}',
         "id null in granule 0 is not a string or an integer"),
        (["approx", "--region", "a"], '{"universe": ["a", true], "granules": [["a"]]}',
         "id true in the universe is not a string or an integer"),
        (["inverse"], '{"universe": ["a", "100.0"], "pairs": [{"lower": [], "upper": [1e2]}]}',
         "pair 0: id 100.0 in 'upper' is not a string or an integer"),
        (["approx", "--region", "a"], '{"universe": ["a", "b"], "partition": [["a"], ["b", [1]]]}',
         "id [1] in partition block 1 is not a string or an integer"),
    ])
    def test_refusals_print_one_error_line(self, tmp_path, capsys, argv, text, says):
        if text is not None:
            path = tmp_path / "input.json"
            path.write_text(text if isinstance(text, str) else json.dumps(text),
                            encoding="utf-8")
            argv = argv + ["--input", str(path)]
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and says in err, err

    def test_unexpected_exception_exits_three(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._HANDLERS, "approx", broken)
        code, out = run_cli(["approx", "--input", VEE, "--region", "p"])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: boom (at ")
        assert err.count("\n") == 1

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("GRANUM_SEED", "42")
        code, doc = run_json(["parthood-audit", "--variant", "rough-inclusion",
                              "--input", TABLE])
        assert code == 0

    def test_env_seed_invalid_exit_two(self, monkeypatch):
        monkeypatch.setenv("GRANUM_SEED", "not-a-number")
        code, _ = run_cli(["gos-audit", "--input", VEE])
        assert code == 2

    @pytest.mark.parametrize("argv", [["approx", "--input", VEE, "--region", "p"],
                                      ["count", "--algo", "hpc", "--input", VEE],
                                      ["inverse", "--input", PAIRS_YES],
                                      ["oracle", "--op", "signatures", "--input", VEE]],
                             ids=lambda argv: argv[0])
    def test_env_seed_unread_without_seed_option(self, monkeypatch, argv):
        monkeypatch.setenv("GRANUM_SEED", "not-a-number")
        assert run_cli(argv)[0] == 0

    @pytest.mark.parametrize("argv,extra", _UNREAD,
                             ids=[f"{argv[0]} {extra[0]}" for argv, extra in _UNREAD])
    def test_options_a_subcommand_does_not_read_are_refused(self, capsys, argv, extra):
        assert run_cli(argv + ["--threads", "2"])[0] == 0
        capsys.readouterr()
        code, out = run_cli(argv + extra)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--attrs", "zzz"], ["--attrs", "a,b"], ["--attrs", ""],
                                       ["--format", "json"], ["--format", "csv"]])
    @pytest.mark.parametrize("argv", [["gos-audit"], ["approx", "--region", "p"],
                                      ["count", "--algo", "hpc"]])
    def test_table_options_refused_on_a_json_context(self, capsys, argv, extra):
        assert run_cli(argv + ["--input", VEE])[0] == 0
        capsys.readouterr()
        code, out = run_cli(argv + ["--input", VEE] + extra)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        if extra[1] != "csv":   # read as a CSV table, the context is refused as one
            assert err == f"error: {extra[0]} applies only to an information table, " \
                          f"not to a JSON context\n"
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_table_options_read_on_a_json_table(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"attributes": ["a", "b"],
                                    "objects": [["1", "x", "u"], ["2", "x", "v"],
                                                ["3", "y", "v"]]}), encoding="utf-8")
        code, doc = run_json(["approx", "--input", str(path), "--format", "json",
                              "--attrs", "a", "--region", "1"])
        assert code == 0 and doc["granules"] == [["1", "2"], ["3"]]

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "granum.cli", "inverse",
                               "--input", PAIRS_NO, "--strict"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "no partition" in proc.stdout

    # The signature table of 9 elements is about 130 KB, more than a pipe holds.
    SIGNATURES = ["-m", "granum.cli", "oracle", "--op", "signatures",
                  "--input", str(FIXTURES / "ctx_chain9.json"), "--output", "json"]

    @staticmethod
    def _one_error_line(err: str) -> None:
        assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1

    def test_closed_pipe_ends_with_one_error_line(self):
        with subprocess.Popen([sys.executable, *self.SIGNATURES], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.read(10) == '{\n  "signa'
            proc.stdout.close()   # as `| head -c 10` does
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        self._one_error_line(err)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full here")
    def test_full_disk_ends_with_one_error_line(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, *self.SIGNATURES], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2
        self._one_error_line(proc.stderr)

    @pytest.mark.parametrize("error", [BrokenPipeError, OSError])
    def test_failed_write_is_an_error_not_a_verdict(self, capsys, error):
        class Closed(io.StringIO):
            def write(self, text):
                raise error(32, "Broken pipe")
        for argv in (["approx", "--region", "p", "--input", VEE, "--strict"],
                     ["count", "--algo", "hpca", "--input", VEE, "--strict", "--output", "json"]):
            assert cli.run(argv, out=Closed()) == 2, argv
            assert capsys.readouterr().err == "error: cannot write the output: Broken pipe\n"

    def test_write_failing_mid_payload_is_an_error_not_a_verdict(self, capsys):
        # the reader goes away after some kilobytes, many writes into the payload
        class ClosesLate(WriteOnly):
            def write(self, text):
                if self.size + len(text) > 4096:
                    raise BrokenPipeError(32, "Broken pipe")
                super().write(text)
        stream = ClosesLate()
        assert cli.run(["count", "--algo", "fhca", "--parthood", "cautious", "--input", DENSE120,
                        "--strict", "--output", "json"], out=stream) == 2
        assert len(stream.writes) > 10 and stream.size <= 4096
        assert capsys.readouterr().err == "error: cannot write the output: Broken pipe\n"


class TestStream:
    """``cli.run`` builds the whole report, then hands it to ``out`` in
    pieces, through ``write`` and ``flush`` alone."""

    CASES = {
        **{f"count-{algo}": ["count", "--algo", algo, "--parthood", "cautious",
                             "--input", str(FIXTURES / "ctx_escaped10.json"), "--output", "json"]
           for algo in ("hpc", "pca", "hpca", "fhca")},
        "count-rough-objects": ["count", "--algo", "fhca", "--items", "rough-objects",
                                "--input", TABLE, "--output", "json"],
        "count-text": ["count", "--algo", "hpca", "--input", VEE],
        "gos-audit": ["gos-audit", "--parthood", "lateral",
                      "--input", str(FIXTURES / "ctx_overlap13.json"), "--output", "json"],
        "parthood-audit": ["parthood-audit", "--seed", "7",
                           "--input", str(FIXTURES / "ctx_overlap16.json"), "--output", "json"],
        "inverse": ["inverse", "--input", PAIRS_YES, "--output", "json"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stream_gets_the_console_script_bytes(self, case):
        argv = self.CASES[case]
        stream = WriteOnly()
        assert cli.run(argv, out=stream) == 0
        proc = subprocess.run([sys.executable, "-m", "granum.cli", *argv], capture_output=True,
                              timeout=60, env={**os.environ, "PYTHONIOENCODING": "utf-8"})
        assert proc.returncode == 0 and proc.stderr == b""
        assert "".join(stream.writes).encode("utf-8") == proc.stdout

    def test_no_write_is_payload_sized(self):
        # the trace's passes, orders and labels grow as n²; each order's text
        # is the longest piece that may be written whole
        stream = WriteOnly()
        assert cli.run(["count", "--algo", "fhca", "--parthood", "cautious", "--input", DENSE120,
                        "--output", "json"], out=stream) == 0
        orders = json.loads("".join(stream.writes))["trace"]["orders"]
        assert len(orders) > 100
        # an order's sequence sits at depth 5 of the payload: items at 10 spaces
        longest = max(len(json.dumps(o["sequence"], indent=2).replace("\n", "\n        "))
                      for o in orders)
        assert max(map(len, stream.writes)) <= longest < stream.size // 100

    def test_unwritable_value_late_in_a_payload_writes_nothing(self, monkeypatch, capsys):
        # the writer refuses the last key, after the whole trace: stdout stays empty
        handler = cli._HANDLERS["count"]

        def late(args):
            payload, text, negative = handler(args)
            return payload | {"zz": 0.5}, text, negative
        monkeypatch.setitem(cli._HANDLERS, "count", late)
        stream = WriteOnly()
        assert cli.run(["count", "--algo", "fhca", "--parthood", "cautious", "--input", DENSE120,
                        "--output", "json"], out=stream) == 3
        assert stream.writes == []
        err = capsys.readouterr().err
        assert err.startswith("internal error: TypeError: Object of type float")
        assert err.count("\n") == 1


def _json_values():
    text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(-2**80, 2**80), text)
    return st.recursive(scalars, lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.lists(text),
        st.dictionaries(text, children)), max_leaves=20)


def _handler_payload(monkeypatch, argv):
    """The payload a subcommand hands to the writer, and its JSON output."""
    seen = []
    handler = cli._HANDLERS[argv[0]]

    def keep(args):
        result = handler(args)
        seen.append(result[0])
        return result
    monkeypatch.setitem(cli._HANDLERS, argv[0], keep)
    code, text = run_cli(argv + ["--output", "json"])
    assert code == 0
    return seen[0], text


class TestJsonWriter:
    """``core._json_text``, the one JSON writer, writes the bytes of
    ``json.dumps(sort_keys=True, indent=2)``."""

    @given(_json_values())
    @settings(max_examples=150, deadline=None)
    def test_equals_stdlib(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_edge_values(self):
        for value in ([], {}, (), [[]], {"a": {}}, [True, 1, False, 0, None],
                      {"b": (1, "x", [2, "y"]), "a": ["é中\U0001f600", '"\\\x00']},
                      -2**100, 2**64, ["", "\x7f", "\n"]):
            assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, [1, 2.0], {"a": {"b": {1}}}, {1: "a"},
                                       {"a": 1, None: 2}, [b"x"], ["a", b"x"]],
                             ids=repr)
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)

    def test_unwritable_payload_exits_three(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._HANDLERS, "approx", lambda args: ({"ratio": 0.5}, "", False))
        code, out = run_cli(["approx", "--input", VEE, "--region", "p", "--output", "json"])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error: TypeError: Object of type float")
        assert err.count("\n") == 1

    def test_golden_recordings(self):
        checked = 0
        for path in sorted((FIXTURES / "golden").glob("*.json*")):
            data = path.read_bytes()
            if path.suffix == ".gz":   # the largest count payloads
                data = gzip.decompress(data)
            for case, record in json.loads(data.decode("utf-8")).items():
                if case.endswith("-json") and record["stdout"]:
                    text = record["stdout"]
                    assert _json_text(json.loads(text)) + "\n" == text, (path.name, case)
                    checked += 1
        assert checked >= 115

    @pytest.mark.parametrize("algo", ["hpc", "pca", "hpca", "fhca"])
    def test_count_builds_no_dict_tree(self, algo, monkeypatch):
        # the count report is written from the run, never through to_dict()
        def tree(self):
            raise AssertionError(f"count built {type(self).__name__}.to_dict()")
        for cls in (counting.CountingTrace, counting.PassRecord, counting.CountLabel,
                    counting.AntichainDecomposition, counting.CategoryVerdict):
            monkeypatch.setattr(cls, "to_dict", tree)
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        for conflict in ("comparability", "incomparability"):
            case = f"count-{algo}-{conflict}-cautious-json"
            got = replay(GOLDEN_CASES["ctx_escaped10.json"][case])
            assert got == _recorded("ctx_escaped10.json")[case]
            assert got["exit"] == 0

    def test_count_payload_on_120_elements(self, tmp_path, monkeypatch):
        rng = random.Random(120)
        universe = [f"x{i:03d}" for i in range(120)]
        granules = [rng.sample(universe, rng.randint(2, 4)) for _ in range(60)]
        path = tmp_path / "ctx120.json"
        path.write_text(json.dumps({"universe": universe, "granules": granules}),
                        encoding="utf-8")
        payload, text = _handler_payload(monkeypatch, ["count", "--algo", "fhca",
                                                       "--parthood", "cautious",
                                                       "--input", str(path)])
        # the trace and decomposition are written by their json_text; to_dict()
        # is the reference
        trace = payload["trace"]
        assert len(trace.passes) > 1
        assert text == json.dumps(payload | {"trace": trace.to_dict(),
                                             "decomposition": payload["decomposition"].to_dict()},
                                  sort_keys=True, indent=2) + "\n"
