"""Command line behavior: rendering, files, suites, and exit codes."""

import json
from fractions import Fraction

import pytest

from ctplab.cli import (
    GAME_BATTERY,
    instance_to_dot,
    main,
    random_disjoint_instance,
    render_cost,
    render_rational,
)
from ctplab.model import (
    Cost,
    InstanceBuilder,
    SplitMix64,
    Variant,
    instance_to_json,
    load_instance,
)
from ctplab.reductions import CtpReductionCertificate, SensingCertificate
from ctplab.solve import qbf_eval, solve

F = Fraction

GAME = """c a tiny winnable game
p cnf 2 1
a 1 0
e 2 0
1 2 0
"""


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.qdimacs"
    path.write_text(GAME)
    return path


class TestRendering:
    def test_integers_keep_a_decimal_point(self):
        assert render_rational(F(5)) == "5/1 (5.0)"

    def test_twenty_significant_digits(self):
        assert render_rational(F(263, 512)) == "263/512 (0.513671875)"
        assert render_rational(F(1, 3)) == (
            "1/3 (0.33333333333333333333)")

    def test_precision_parameter(self):
        assert render_rational(F(1, 3), 4) == "1/3 (0.3333)"

    def test_costs(self):
        assert render_cost(Cost.infinite()) == "inf"
        assert render_cost(Cost.of(F(1, 2))) == "1/2 (0.5)"


class TestDotExport:
    def build(self, directed):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        builder.set_endpoints("s", "t")
        builder.add_edge("s", "a", 1, id="sure", directed=directed)
        builder.add_edge("a", "t", 0, id="coin", block_p=F(1, 2))
        return builder.build()

    def test_undirected_graph(self):
        text = instance_to_dot(self.build(False))
        assert text.startswith("graph ctp {")
        assert '"s" [shape=doublecircle];' in text
        assert '"t" [shape=doubleoctagon];' in text
        assert '"a" -- "t" [label="0/1|1/2", style=dashed];' in text

    def test_directed_mixture(self):
        text = instance_to_dot(self.build(True))
        assert text.startswith("digraph ctp {")
        assert '"s" -> "a" [label="1/1"];' in text
        assert "dir=none" in text

    def test_big_denominators_render_as_decimals(self):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        builder.set_endpoints("s", "t")
        builder.add_edge("s", "t", 0, id="coin", block_p=F(1, 1 << 20))
        text = instance_to_dot(builder.build())
        assert "1048576" not in text
        assert "9.5367431640625E-7" in text


class TestBattery:
    def test_recorded_outcomes_match_the_oracle(self):
        assert len(GAME_BATTERY) >= 6
        sizes = {f.n for f, _ in GAME_BATTERY}
        assert sizes == {2, 4}
        outcomes = {w for _, w in GAME_BATTERY}
        assert outcomes == {True, False}
        for formula, winnable in GAME_BATTERY:
            assert formula.m <= 3
            assert qbf_eval(formula) is winnable


class TestToyGenerator:
    def test_deterministic_per_seed(self):
        one = random_disjoint_instance(SplitMix64(7))
        two = random_disjoint_instance(SplitMix64(7))
        assert instance_to_json(one) == instance_to_json(two)

    def test_respects_uncertain_cap(self):
        # 2 to 4 routes of 1 to 3 edges, the last one sure
        for seed in range(200):
            toy = random_disjoint_instance(SplitMix64(seed))
            assert sum(1 for e in toy.edges if e.uncertain) <= 9
            assert len(toy.edges) <= 12


class TestCommands:
    def test_qbf(self, game_file, capsys):
        assert main(["qbf", str(game_file)]) == 0
        assert "winnable" in capsys.readouterr().out

    def test_qbf_json(self, game_file, capsys):
        assert main(["qbf", str(game_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 2, "m": 1, "winnable": True}

    def test_reduce_ctpdep_and_solve(self, game_file, tmp_path, capsys):
        out = tmp_path / "dep.json"
        assert main(["reduce", "ctpdep", str(game_file),
                     "-o", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["solve", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimal_cost"] == "0/1 (0.0)"
        assert data["first_action"] == "move(enter)"
        assert {"beliefs_expanded", "boundary_evaluated",
                "boundary_skipped", "branch_tables", "regions"} <= set(data)
        stats = solve(load_instance(out)).stats
        assert (data["branch_tables"], data["regions"]) == (
            stats.branch_tables, stats.regions)
        assert 0 < stats.branch_tables <= stats.boundary_evaluated + 1
        assert main(["solve", str(out)]) == 0
        text = capsys.readouterr().out
        assert (f"boundary steps evaluated: {data['boundary_evaluated']}, "
                f"skipped: {data['boundary_skipped']}") in text
        assert (f"branch tables: {data['branch_tables']}, "
                f"regions: {data['regions']}") in text

    def test_reduce_ctp_writes_certificate(self, game_file, tmp_path,
                                           capsys):
        out = tmp_path / "full.json"
        assert main(["reduce", "ctp", str(game_file), "-o", str(out)]) == 0
        cert_path = tmp_path / "full.cert.json"
        assert cert_path.exists()
        cert = CtpReductionCertificate.from_json(cert_path.read_text())
        assert cert.D_pt == 331
        instance = load_instance(out)
        assert len(instance.vertices) == cert.vertex_count

    def test_reduce_sensing_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "probe.json"
        assert main(["reduce", "sensing", "--graph", "p3", "--k", "1",
                     "--alpha", "1/2", "-o", str(out)]) == 0
        cert_path = tmp_path / "probe.cert.json"
        cert = SensingCertificate.from_json(cert_path.read_text())
        assert cert.k == 1 and cert.coin_count == 2
        instance = load_instance(out)
        assert instance.sensing is not None

    def test_gadget_policy_flow(self, tmp_path, capsys):
        out = tmp_path / "bait.json"
        tree = tmp_path / "pi.json"
        assert main(["gadget", "baiting", "--L", "2", "-o", str(out),
                     "--policy", "baiting_pi", "--policy-out",
                     str(tree)]) == 0
        text = capsys.readouterr().out
        assert "263/512" in text
        assert main(["solve", str(out), "--policy", str(tree)]) == 0
        assert "263/512" in capsys.readouterr().out

    def test_export_dot_stdout(self, tmp_path, capsys):
        out = tmp_path / "bait.json"
        main(["gadget", "baiting", "--L", "2", "-o", str(out)])
        capsys.readouterr()
        assert main(["export-dot", str(out)]) == 0
        assert capsys.readouterr().out.startswith("graph ctp {")

    def test_verify_sensing(self, capsys):
        assert main(["verify", "sensing"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "8/8 checks passed" in lines[-1]

    def test_verify_json(self, capsys):
        assert main(["verify", "ctp-cert", "--n", "2", "--m", "1",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["suite"] == "ctp-cert"
        assert data["passed"] is True
        assert {c["status"] for c in data["checks"]} == {"pass"}


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["qbf", str(tmp_path / "nope.qdimacs")]) == 2

    def test_bad_fee_is_input_error(self, game_file, tmp_path, capsys):
        assert main(["reduce", "ctpdep", str(game_file), "--h", "1/2",
                     "-o", str(tmp_path / "x.json")]) == 2

    def test_negative_cost_is_input_error(self, tmp_path, capsys):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "x", 1, id="a")
        b.add_edge("x", "t", 3, id="b")
        b.add_edge("s", "t", 5, id="c")
        text = instance_to_json(b.build())
        path = tmp_path / "negative.json"
        path.write_text(text.replace('"cost": "1/1"', '"cost": "-1/1"'))
        assert main(["solve", str(path)]) == 2
        assert "nonnegative" in capsys.readouterr().err

    @staticmethod
    def _one_edge_document():
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("t", "s", 1, id="back")
        return json.loads(instance_to_json(b.build()))

    def test_string_directed_flag_is_input_error(self, tmp_path, capsys):
        data = self._one_edge_document()
        data["edges"][0]["directed"] = "false"
        path = tmp_path / "directed.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        assert "directed" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("edges", 5), ("vertices", [["s"], "t"]), ("s", ["s"]),
        ("edges", [5]), ("edges", [{"id": ["back"], "tail": "t",
                                    "head": "s", "cost": "1/1"}]),
        ("sensing", {"entries": 5}),
        ("sensing", {"entries": [{"vertex": ["s"], "edge": "back",
                                  "cost": "1/1"}]}),
        ("sensing", {"entries": [{"vertex": "s", "cost": "1/1"}]}),
        ("dependency", {"variables": 5}),
        ("dependency", {"variables": [{"id": "x", "cpt": 5}]}),
        ("dependency", {"variables": [{"id": "x", "parents": 5,
                                       "cpt": []}]}),
        ("dependency", {"variables": [{"id": ["x"],
                                       "cpt": [["1/2", "1/2"]]}]}),
        ("dependency", {"variables": [{"cpt": []}]}),
        ("dependency", {"max_in_degree": [1], "variables": []}),
        ("dependency", {"variables": [{"id": "x",
                                       "cpt": [["1/2", "1/2", "0/1"]]}]})])
    def test_mistyped_section_is_input_error(self, tmp_path, capsys,
                                             section, value):
        data = self._one_edge_document()
        data[section] = value
        variants = {"sensing": "sensing", "dependency": "dependent"}
        data["variant"] = variants.get(section, data["variant"])
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("document", [
        [1], {"nodes": 5}, {"nodes": {"s|": {"action": "move"}}},
        {"nodes": {"s|": 5}}, {"nodes": {"s|": {"action": {}}}},
        {"nodes": {"s|": {"action": {"kind": "move", "edge": ["back"]}}}}])
    def test_malformed_decision_tree_is_input_error(self, tmp_path, capsys,
                                                    document):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps(self._one_edge_document()))
        tree = tmp_path / "bad.json"
        tree.write_text(json.dumps(document))
        assert main(["solve", str(instance), "--policy", str(tree)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_self_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr("ctplab.cli.qbf_eval",
                            lambda formula: not qbf_eval(formula))
        assert main(["verify", "ctpdep", "--n", "2", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: ")
        assert err.count("\n") == 1

    def test_cap_exhaustion(self, game_file, tmp_path, capsys):
        out = tmp_path / "dep.json"
        main(["reduce", "ctpdep", str(game_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["solve", str(out), "--cap", "10"]) == 3

    def test_zero_cap_is_not_the_default(self, game_file, tmp_path, capsys):
        out = tmp_path / "dep.json"
        main(["reduce", "ctpdep", str(game_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["solve", str(out), "--cap", "0"]) == 3
        err = capsys.readouterr().err
        assert "beliefs exceed the cap of 0" in err
        assert err.count("\n") == 1
        assert main(["verify", "ctpdep", "--n", "2", "--cap", "0"]) == 3
        assert "beliefs exceed the cap of 0" in capsys.readouterr().err

    @pytest.mark.parametrize("filters", [["--n", "3"],
                                         ["--n", "4", "--m", "3"]])
    def test_verify_selecting_no_check_is_input_error(self, filters, capsys):
        assert main(["verify", "ctpdep", *filters]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: suite ctpdep: the filters select no check\n")

    @pytest.mark.parametrize("command", [["reduce", "sensing"],
                                         ["verify", "sensing"]])
    def test_unknown_graph_is_input_error(self, command, capsys):
        assert main([*command, "--graph", "c4"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown graph 'c4'; known: k3, p3\n")

    def test_deep_strata_exceed_cap(self, tmp_path, capsys):
        # one Python frame pair per reveal: 128 sections nest too deep
        path = tmp_path / "bait.json"
        assert main(["gadget", "baiting", "--L", "128",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ")
        assert err.count("\n") == 1

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "nope"])
        assert info.value.code == 2
