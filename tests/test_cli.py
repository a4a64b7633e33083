"""Command line behavior: rendering, files, suites, and exit codes."""

import copy
import hashlib
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ctplab.model as model_module
import ctplab.policy as policy_module
import ctplab.reductions as reductions_module
from ctplab.cli import (
    GAME_BATTERY,
    instance_to_dot,
    main,
    random_disjoint_instance,
    render_cost,
    render_rational,
)
from ctplab.gadgets import (
    observation_early_exit_expectation,
    observation_pass_cost,
    observation_pass_probability,
)
from ctplab.model import (
    Cost,
    EnumerationCapError,
    InstanceBuilder,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    instance_from_dict,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from ctplab.policy import DecisionTreePolicy
from ctplab.reductions import (
    CtpReductionCertificate,
    SensingCertificate,
    _game_graph,
    certificate,
    named_vc,
    qbf_to_ctpdep,
    vc_to_sensing,
)
from ctplab.solve import SolveStats, parse_qdimacs, qbf_eval, solve

from oracles import decomposed_cost
from test_model import coin_star, copy_chain_instance
from test_policy import hop_out_instance
from test_solve import gate_corridor_instance

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

    def test_quotes_and_backslashes_are_escaped(self):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        builder.set_endpoints('s"x', "t")
        builder.add_edge('s"x', "a\\", 1, id="in")
        builder.add_edge("a\\", "t", 2, id="out")
        text = instance_to_dot(builder.build())
        assert '  "s\\"x" [shape=doublecircle];' in text
        assert '  "s\\"x" -- "a\\\\" [label="1/1"];' in text
        assert '  "a\\\\" -- "t" [label="2/1"];' in text


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
                "boundary_skipped", "boundary_repriced",
                "branch_tables", "regions", "region_hits"} <= set(data)
        result = solve(load_instance(out))
        stats = result.stats
        assert (data["boundary_repriced"], data["branch_tables"],
                data["regions"], data["region_hits"], data["shared_hits"],
                data["tree_nodes"], data["graph_nodes"]) == (
            stats.boundary_repriced, stats.branch_tables, stats.regions,
            stats.region_hits, stats.shared_hits, stats.tree_nodes,
            stats.graph_nodes)
        # the policy holds its graph; its tree is written only in to_json
        assert stats.graph_nodes == len(result.policy.nodes) > 1
        assert stats.tree_nodes == len(result.policy.unrolled().nodes)
        # the leaves at t share one graph node
        assert 1 < stats.graph_nodes < stats.tree_nodes
        # the walk forgets the coins it passed, so strata share patches
        assert 0 < stats.shared_hits <= stats.region_hits
        assert 0 < stats.branch_tables <= stats.boundary_evaluated + 1
        assert main(["solve", str(out)]) == 0
        text = capsys.readouterr().out
        assert (f"boundary steps evaluated: {data['boundary_evaluated']}, "
                f"skipped: {data['boundary_skipped']}\n"
                "boundary pricings resumed: "
                f"{data['boundary_repriced']}\n") in text
        assert (f"branch tables: {data['branch_tables']}, "
                f"regions: {data['regions']}, "
                f"region hits: {data['region_hits']}\n"
                f"shared hits: {data['shared_hits']}\n"
                f"tree nodes: {data['tree_nodes']}\n"
                f"graph nodes: {data['graph_nodes']}\n") in text

    def test_solve_reports_phase_times(self, game_file, tmp_path, capsys):
        out = tmp_path / "dep.json"
        assert main(["reduce", "ctpdep", str(game_file),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for key in ("search_s", "export_s"):
            assert type(data[key]) is float and data[key] >= 0
        assert main(["solve", str(out)]) == 0
        assert re.search(r"^search: \d+\.\d{3} s, export and self-check: "
                         r"\d+\.\d{3} s$", capsys.readouterr().out, re.M)

    def test_solve_json_lists_every_stats_field(self, game_file, tmp_path,
                                                capsys):
        out = tmp_path / "dep.json"
        assert main(["reduce", "ctpdep", str(game_file),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(out), "--json"]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys[:2] == ["optimal_cost", "first_action"]
        assert keys[2:] == [f.name for f in fields(SolveStats)]

    def test_solve_exits_3_on_a_branch_past_the_cap(self, tmp_path, capsys,
                                                    monkeypatch):
        path = tmp_path / "star.json"
        save_instance(coin_star(12), path)
        monkeypatch.setattr(model_module, "BELIEF_CAP", 1000)
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "cap exceeded: 4096 outcomes of one observation exceed the cap "
            "of 1000"]

    def test_solve_exits_3_past_the_graph_cap(self, game_file, tmp_path,
                                              capsys, monkeypatch):
        # `solve` returns its graph, so the cap that trips is the graph's
        out = tmp_path / "dep.json"
        assert main(["reduce", "ctpdep", str(game_file),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(policy_module, "BELIEF_CAP", 2)
        assert main(["solve", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "cap exceeded: the decision graph exceeds the cap of 2 nodes "
            "past its root"]

    def test_solve_writes_no_tree_past_the_cap_it_searched_within(
            self, tmp_path, capsys, monkeypatch):
        # game 5's search expands 319 beliefs, but strata share patches,
        # so its 186 graph nodes unroll to 7,727 tree nodes: `solve` holds
        # the graph, and only writing the tree meets the tree cap
        instance = qbf_to_ctpdep(GAME_BATTERY[5][0])[0]
        path = tmp_path / "game5.json"
        save_instance(instance, path)
        monkeypatch.setattr(policy_module, "BELIEF_CAP", 1000)
        assert main(["solve", str(path), "--cap", "1000", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert (data["optimal_cost"], data["first_action"],
                data["graph_nodes"], data["tree_nodes"]) == (
            "0/1 (0.0)", "move(enter)", 186, 7727)
        with pytest.raises(EnumerationCapError) as caught:
            solve(instance, belief_cap=1000).policy.to_json()
        assert str(caught.value) == (
            "the decision tree exceeds the cap of 1000 nodes past its root")

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

    def test_reduce_sensing_defaults(self, tmp_path, capsys):
        # --k 1 and --alpha 1/2 are the parser's defaults, spelled once
        for name, extra in (("short", []), ("long", ["--k", "1", "--alpha",
                                                     "1/2"])):
            assert main(["reduce", "sensing", "--graph", "p3", *extra,
                         "-o", str(tmp_path / f"{name}.json")]) == 0
        for suffix in (".json", ".cert.json"):
            assert ((tmp_path / f"short{suffix}").read_bytes()
                    == (tmp_path / f"long{suffix}").read_bytes())

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
        # 8 leaves of the outcome tree, not one per weather of 128
        assert main(["solve", str(out), "--policy", str(tree),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"expected_cost": "263/512 (0.513671875)",
                        "outcomes": 8}

    def test_solve_policy_counts_leaves_without_a_tree(self, tmp_path,
                                                       capsys, monkeypatch):
        out = tmp_path / "bait.json"
        tree = tmp_path / "pi.json"
        assert main(["gadget", "baiting", "--L", "2", "-o", str(out),
                     "--policy", "baiting_pi", "--policy-out", str(tree)]) == 0
        capsys.readouterr()

        # pricing counts the leaves by the graph and writes no tree
        def unwritten(*args):
            raise AssertionError("solve --policy wrote a decision tree")

        monkeypatch.setattr(policy_module, "export_keyed_graph", unwritten)
        monkeypatch.setattr(DecisionTreePolicy, "unrolled", unwritten)
        assert main(["solve", str(out), "--policy", str(tree)]) == 0
        assert "outcome branches: 8\n" in capsys.readouterr().out
        assert main(["solve", str(out), "--policy", str(tree),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcomes"] == 8

    @pytest.mark.parametrize("kind", ["baiting", "observation"])
    @pytest.mark.parametrize("policy",
                             ["baiting_pi", "baiting_pi_j", "og_pi_g"])
    def test_gadget_policy_pairs(self, tmp_path, capsys, kind, policy):
        out = tmp_path / "harness.json"
        code = main(["gadget", kind, "--L", "16", "-o", str(out),
                     "--policy", policy])
        captured = capsys.readouterr()
        if (policy == "og_pi_g") != (kind == "observation"):
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                f"error: policy {policy} does not walk the {kind} gadget\n")
            assert not out.exists()
            return
        assert code == 0 and captured.err == ""
        assert (tmp_path / f"{policy}.tree.json").exists()
        if policy == "og_pi_g":
            price = decomposed_cost(observation_early_exit_expectation(16),
                                    observation_pass_probability(16),
                                    observation_pass_cost(16), 16)
            assert f"expected cost: {render_cost(Cost.of(price))}" in (
                captured.out)

    @pytest.mark.parametrize("rounds", [0, 8])
    def test_gadget_rounds_out_of_range_write_nothing(self, tmp_path, capsys,
                                                      rounds):
        # the L = 2 corridor has 7 sections: the policy is refused before
        # the harness or its tree is written
        out = tmp_path / "harness.json"
        code = main(["gadget", "baiting", "--L", "2", "-o", str(out),
                     "--policy", "baiting_pi_j", "--rounds", str(rounds)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: rounds must lie in [1, 7], got {rounds}\n")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_readme_command_lines_run(self, tmp_path, monkeypatch, capsys):
        """Every `ctplab` line of README's command-line section runs, in
        order, next to a 2-variable game file, and exits 0: the verify
        suites pass every check."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        commands = [line.split("#", 1)[0].split()[1:]
                    for line in re.findall(r"^ctplab .*$", section, re.M)]
        assert len(commands) == 15
        assert sum(argv[0] == "verify" for argv in commands) == 5
        monkeypatch.chdir(tmp_path)
        (tmp_path / "game.qdimacs").write_text(GAME)
        for argv in commands:
            assert main(argv) == 0, shlex.join(argv)
            assert capsys.readouterr().err == ""

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
        assert "10/10 checks passed" in lines[-1]

    @pytest.mark.parametrize("filters, checked", [
        ([], {"p3-k=1": "true", "k3-k=1": "false"}),
        (["--graph", "k3", "--k", "2"], {"k3-k=2": "true"})])
    def test_verify_sensing_beats_no_sensing_when_covered(
            self, capsys, filters, checked):
        assert main(["verify", "sensing", *filters]) == 0
        out = capsys.readouterr().out
        for graph, covered in checked.items():
            assert (f"PASS no-sensing-beaten-exactly-when-covered-{graph}: "
                    f"expected {covered}, got {covered}") in out

    def test_verify_json(self, capsys):
        assert main(["verify", "ctp-cert", "--n", "2", "--m", "1",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["suite"] == "ctp-cert"
        assert data["passed"] is True
        assert {c["status"] for c in data["checks"]} == {"pass"}

    @pytest.mark.parametrize("filters, sizes", [
        (["--n", "2", "--m", "1"], [(2, 1)]),
        ([], [(2, 1), (2, 2), (4, 2)])])
    def test_ctp_cert_builds_each_size_once(self, monkeypatch, capsys,
                                            filters, sizes):
        # the trip the suite walks is the one of the graph it built; a
        # build counts whether the suite reaches it by name or through
        # qbf_to_ctp
        built = []

        def counted(formula):
            built.append((formula.n, formula.m))
            return _game_graph(formula)

        monkeypatch.setattr(reductions_module, "_game_graph", counted)
        monkeypatch.setattr("ctplab.cli._game_graph", counted, raising=False)
        assert main(["verify", "ctp-cert", *filters]) == 0
        capsys.readouterr()
        assert built == sizes

    # SHA-256 of the exit code, a newline and the stdout, the elapsed time
    # masked, of each suite under cheap filters, in text and in JSON
    @pytest.mark.parametrize("filters, text_digest, json_digest", [
        (["ctp-cert", "--n", "2", "--m", "1"],
         "4e4681f4f1a803a9a2dbe0365d048ce30364fefb8ef285cfad654aca664f04b5",
         "406789ec15134f1b22d08f5a73edf19813476c07d1fcd91665a0eb131bfcccf6"),
        (["ctpdep", "--n", "2", "--m", "1"],
         "1d1de2812ce1252e57d5a2fc1a0c6fcc2d71c6f5abf006c14a027a9ce0ca74f5",
         "c76466eeae462c59aa8d7afc8c2c0066f0a888b4170b10db23ba3f70d69c287f"),
        (["sensing", "--graph", "p3"],
         "c4339e2f82e7f9a692b69a1fac2b1919aab2f34e6a1c895c41cf664f348cb484",
         "92eca1de81d73ec9ffe7802b9e907e04aba949f8a6f52cb3ec2a87bd99cd8feb"),
        (["gadgets", "--L", "2", "--trials", "64"],
         "3e0d03d1bf10436632b741d53d8a981c344a1685c53a74186703f58dff41d8b0",
         "b74f77b889756a03c1e10d3bfa039be3e1e7523dae3915bd13d8992addf1828a"),
        (["oracle"],
         "911c143b3e599fe633e0f2668c286b685923c2fc7e49d8842425ab1b79b9e179",
         "5c5e085702c4bc769a10138cf1744c59444a2e4815795d08239a3797259be9b4"),
    ], ids=["ctp-cert", "ctpdep", "sensing", "gadgets", "oracle"])
    def test_verify_reports_are_frozen(self, capsys, filters, text_digest,
                                       json_digest):
        for extra, digest in (([], text_digest), (["--json"], json_digest)):
            code = main(["verify", *filters, *extra])
            out = re.sub(r"in \d+\.\d\ds\n", "in Xs\n",
                         capsys.readouterr().out)
            out = re.sub(r'"elapsed_seconds": [0-9.e-]+',
                         '"elapsed_seconds": X', out)
            assert hashlib.sha256(
                f"{code}\n{out}".encode()).hexdigest() == digest, extra


RATIONAL_FIELD = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from(["1/2", "0/1", "3/1", "inf", "1/0", "-1/2", "3/2",
                     "1.5", "", "1/-2", "1 /2", "0x1", "½"]),
    st.text(max_size=6))


QDIMACS_LINE = st.one_of(
    st.sampled_from(["1 2 0", "-1 0", "2 -1 0", "1 2 3 4 0", "0", "3 0",
                     "1 -2", "a 1 0", "e 2 0", "p cnf 2 1", "c note", ""]),
    st.text(st.sampled_from("ace p01-2 \t"), max_size=8))


@st.composite
def near_qdimacs(draw):
    """A header and an alternating prefix for n in -1..4, then any lines."""
    n = draw(st.integers(min_value=-1, max_value=4))
    lines = draw(st.lists(QDIMACS_LINE, max_size=5))
    prefix = [f"{'ae'[i % 2]} {i + 1} 0" for i in range(n)]
    return "\n".join([f"p cnf {n} {len(lines)}", *prefix, *lines])


# nested past Python's recursion limit, which the JSON decoder obeys
DEEP_JSON = "[" * 5000

# the 43 (command, option) pairs that one flat parser for `reduce` and one
# for `verify` accepted and no code read, and two more options read on
# some paths only: each a command line that is valid without the option,
# run next to game.qdimacs, bait.json and walker.json
VALUES = {"--L": "2", "--n": "2", "--m": "1", "--graph": "p3", "--k": "1",
          "--alpha": "1/2", "--seed": "5", "--trials": "64", "--cap": "1000",
          "--h": "1/3"}
UNREAD = [
    *(["verify", suite, flag, VALUES[flag]]
      for suite, flags in {
          "gadgets": "--n --m --graph --k --alpha",
          "ctpdep": "--L --graph --k --alpha --seed --trials",
          "ctp-cert": "--L --graph --k --alpha --seed --trials --cap",
          "sensing": "--L --n --m --seed --trials",
          "oracle": "--L --n --m --graph --k --alpha --trials"}.items()
      for flag in flags.split()),
    *(["reduce", target, "game.qdimacs", flag, VALUES[flag]]
      for target, flags in (("ctpdep", "--graph --k --alpha"),
                            ("ctp", "--h --graph --k --alpha"))
      for flag in flags.split()),
    ["reduce", "sensing", "game.qdimacs", "--graph", "p3"],
    ["reduce", "sensing", "--graph", "p3", "--h", "1/3"],
    ["gadget", "baiting", "--L", "2", "--rounds", "3"],
    ["gadget", "baiting", "--L", "2", "--policy-out", "walker.json"],
    ["gadget", "baiting", "--L", "2", "--precision", "5"],
    ["solve", "bait.json", "--policy", "walker.json", "--cap", "1"],
    # read only with --policy baiting_pi_j, and only with trials to run
    ["gadget", "baiting", "--L", "2", "--policy", "baiting_pi",
     "--rounds", "3"],
    ["verify", "gadgets", "--L", "2", "--trials", "0", "--seed", "5"],
]


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["qbf", str(tmp_path / "nope.qdimacs")]) == 2

    def test_non_ascii_digits_in_qdimacs_are_input_error(self, tmp_path,
                                                          capsys):
        path = tmp_path / "wide.qdimacs"
        path.write_text("p cnf \uff12 1\na 1 0\ne 2 0\n1 2 0\n",
                        encoding="utf-8")
        assert main(["qbf", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: malformed header")
        assert err.count("\n") == 1

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

    @given(cost=RATIONAL_FIELD, block_p=RATIONAL_FIELD,
           edge=st.integers(min_value=0, max_value=2))
    def test_malformed_rational_fields_are_input_errors(
            self, tmp_path_factory, cost, block_p, edge):
        """Junk in an edge's `cost` or `block_p`: refused, never a crash.

        Each value lands on one edge and, to reach the parse memo's hit
        path, on the edge before it too.
        """
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "x", 1, id="a")
        b.add_edge("x", "t", 0, id="b", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 5, id="c")
        data = json.loads(instance_to_json(b.build()))
        for item in data["edges"][max(edge - 1, 0):edge + 1]:
            item["cost"], item["block_p"] = cost, block_p
        try:
            instance_from_dict(data)
            refused = False
        except InvalidInstanceError:
            refused = True
        path = tmp_path_factory.getbasetemp() / "junk_rationals.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["solve", str(path)])
        if refused:
            assert code == 2
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert code in (0, 3)

    def test_trailing_newline_in_a_cost_is_input_error(self, tmp_path,
                                                       capsys):
        data = self._one_edge_document()
        data["edges"][0]["cost"] = "1/1\n"
        path = tmp_path / "newline.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad rational ")
        assert err.count("\n") == 1

    COIN = {"id": "coin", "parents": [], "cpt": [["1/2", "1/2"]]}
    SENSE = {"vertex": "s", "edge": "coin", "cost": "1/1"}

    @pytest.mark.parametrize("variant, key, value, message", [
        ("dependent", "dependency", {"variables": [COIN, COIN]},
         "duplicate net variable 'coin'"),
        ("dependent", "dependency", {"variables": [COIN, {
            "id": "x", "parents": ["coin", "coin"],
            "cpt": [["1/2", "1/2"]] * 4}]},
         "variable 'x' repeats a parent"),
        ("dependent", "dependency", {"variables": [{
            "id": "x", "parents": ["coin"], "cpt": [["1/2", "1/2"]] * 2},
            COIN]},
         "variable 'x' uses parent 'coin' that is not listed before it"),
        ("dependent", "dependency", {"variables": [{
            "id": "coin", "parents": [], "cpt": [["1/2", "1/2"]] * 2}]},
         "variable 'coin' needs 1 rows, got 2"),
        ("dependent", "dependency", {"variables": []},
         "uncertain edge 'coin' has no dependency variable"),
        ("dependent", "dependency", {"variables": [COIN, {
            "id": "sure", "parents": [], "cpt": [["1/2", "1/2"]]}]},
         "variable 'sure' names a sure edge"),
        ("sensing", "vertices", ["s", "t", "s"], "duplicate vertex name"),
        ("sensing", "t", "s", "s and t must differ"),
        ("sensing", "edges", [{"id": "coin", "tail": "s", "head": "z",
                               "cost": "1/1", "block_p": "1/2"}],
         "edge 'coin' leaves the vertex set"),
        ("sensing", "sensing", {"entries": [{**SENSE, "vertex": "z"}]},
         "sensing vertex 'z' is not a vertex"),
        ("sensing", "sensing", {"entries": [{**SENSE, "cost": "inf"}]},
         "sensing costs must be finite"),
        ("sensing", "sensing", {"entries": [SENSE, SENSE]},
         "duplicate sensing entry ('s', 'coin')"),
    ], ids=["duplicate-variable", "repeated-parent", "parent-listed-later",
            "cpt-row-count", "uncertain-edge-without-variable",
            "variable-names-sure-edge", "duplicate-vertex", "s-equals-t",
            "edge-leaves-vertex-set", "unknown-sensing-vertex",
            "infinite-sensing-cost", "duplicate-sensing-entry"])
    def test_structural_refusal_is_input_error(self, tmp_path, capsys,
                                               variant, key, value, message):
        # a sure edge and a fair coin from s to t, the coin either a net
        # variable or sensed from s, with one section replaced
        data = {"variant": variant, "s": "s", "t": "t",
                "vertices": ["s", "t"],
                "edges": [{"id": "sure", "tail": "s", "head": "t",
                           "cost": "2/1"},
                          {"id": "coin", "tail": "s", "head": "t",
                           "cost": "1/1", "block_p": "1/2"}]}
        if variant == "dependent":
            data["dependency"] = {"variables": [self.COIN]}
        else:
            data["sensing"] = {"entries": [self.SENSE]}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()
        data[key] = value
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @given(text=st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",))),
        near_qdimacs()))
    def test_any_qdimacs_text_ends_in_a_documented_code(
            self, tmp_path_factory, text):
        """The parser raises only ValueError; `qbf` exits 0, 2 or 3."""
        try:
            parse_qdimacs(text)
        except ValueError:
            pass
        path = tmp_path_factory.getbasetemp() / "fuzz.qdimacs"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["qbf", str(path)])
        assert code in (0, 2, 3)
        assert (code == 0) == (err.getvalue() == "")
        assert err.getvalue().count("\n") <= 1

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

    @pytest.mark.parametrize("key", ["s|x=O,z=B", "s|y=B,x=O", "s|x=O,y=b"],
                             ids=["unknown-edge", "unsorted", "bad-status"])
    def test_tree_key_off_the_instance_never_matches(self, tmp_path, capsys,
                                                     key):
        # a key no belief on the instance writes is no node of the tree
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="x", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 2, id="y", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 5, id="sure")
        inst = b.build()
        instance = tmp_path / "inst.json"
        save_instance(inst, instance)
        tree = json.loads(solve(inst).policy.to_json())
        tree["nodes"][key] = tree["nodes"].pop("s|x=O,y=B")
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree))
        assert main(["solve", str(instance), "--policy", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: decision tree has no action at s knowing "
            "[x open, y blocked]\n")

    def test_a_looping_tree_is_a_key_cycle(self, tmp_path, capsys):
        # the tree moves back and forth along `hop` between s and m; priced
        # with each belief its own key, it meets s again before any reveal,
        # a cycle among its nodes, as `export_decision_tree` does
        instance = tmp_path / "inst.json"
        save_instance(hop_out_instance(), instance)
        hop = {"action": {"kind": "move", "edge": "hop"}}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"nodes": {"s|": hop, "m|": hop},
                                    "root": "s|"}))
        assert main(["solve", str(instance), "--policy", str(path)]) == 1
        assert capsys.readouterr().err == (
            "internal check failed: the policy loops through the key at "
            "s|\n")

    @pytest.mark.parametrize("text", [DEEP_JSON, "{"], ids=["deep", "cut"])
    @pytest.mark.parametrize("as_policy", [False, True],
                             ids=["instance", "policy"])
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, text,
                                            as_policy):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps(self._one_edge_document()))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = (["solve", str(instance), "--policy", str(bad)] if as_policy
                else ["solve", str(bad)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not valid JSON: ")
        assert err.count("\n") == 1

    def test_long_copy_chain_solves(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_instance(copy_chain_instance(1100), path)
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("optimal cost: 2/1 ")

    def test_failed_fee_sandwich_exits_1(self, monkeypatch, capsys):
        # no corridor is ever passed, so the fee gap vanishes: h = B0
        monkeypatch.setattr("ctplab.reductions.pass_probability",
                            lambda *args: Fraction(0))
        assert main(["verify", "ctp-cert", "--n", "2", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "internal check failed: the fee sandwich failed: B0 = ")
        assert err.count("\n") == 1

    def test_each_fee_check_names_its_own_failing_size(self, monkeypatch,
                                                       capsys):
        # h moved halfway to B1 at (4, 3): the sandwich still holds there
        # and only the gap identity fails, so only the gap names that size
        def shifted(n, m):
            cert = certificate(n, m)
            if (n, m) == (4, 3):
                cert = replace(cert, h=(cert.h + cert.B1) / 2)
            return cert

        monkeypatch.setattr("ctplab.cli.certificate", shifted)
        assert main(["verify", "ctp-cert", "--json"]) == 1
        checks = {check["id"]: (check["status"], check["actual"])
                  for check in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["fee-sandwich-B0-h-B1"] == ("pass", "32 sizes")
        assert checks["fee-gap-identity"] == ("fail", "(n=4, m=3)")

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
        # 0 is refused as no cap at all, and the least cap, 1, is kept
        assert main(["solve", str(out), "--cap", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: ctplab solve: argument --cap: expected a count of "
            "beliefs of at least 1, got '0'\n")
        assert main(["solve", str(out), "--cap", "1"]) == 3
        err = capsys.readouterr().err
        assert "beliefs exceed the cap of 1" in err
        assert err.count("\n") == 1
        assert main(["verify", "ctpdep", "--n", "2", "--cap", "1"]) == 3
        assert "beliefs exceed the cap of 1" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["gadgets", "sensing", "oracle"])
    def test_verify_solves_under_its_cap(self, suite, capsys):
        # p3 alone expands 126 beliefs, so no sensing check fits in 10
        assert main(["verify", suite, "--cap", "10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ")
        assert "beliefs exceed the cap of 10" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("filters", [["--n", "3"],
                                         ["--n", "4", "--m", "3"],
                                         ["--n", "0"]])
    def test_verify_selecting_no_check_is_input_error(self, filters, capsys):
        assert main(["verify", "ctpdep", *filters]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: suite ctpdep: the filters select no check\n")

    def test_verify_ctp_cert_zero_filter_is_input_error(self, capsys):
        # 0 is a size like any other, not "no filter"
        assert main(["verify", "ctp-cert", "--n", "0", "--m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be even and at least 2, got 0\n"

    @pytest.mark.parametrize("command", [["reduce", "sensing"],
                                         ["verify", "sensing"]])
    def test_unknown_graph_is_input_error(self, command, capsys):
        assert main([*command, "--graph", "c4"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown graph 'c4'; known: k3, p3\n")

    @pytest.mark.parametrize("command, message", [
        (["reduce", "sensing"], "ctplab reduce sensing: the following "
                                "arguments are required: --graph"),
        (["reduce", "ctp"], "ctplab reduce ctp: the following arguments "
                            "are required: formula"),
    ], ids=["sensing-without-graph", "ctp-without-formula"])
    def test_reduce_without_its_input_is_input_error(self, command, message,
                                                     capsys):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    def test_deep_strata_behind_a_stranded_outcome_exceed_cap(self, tmp_path,
                                                             capsys):
        # `gate` shows blocked first and strands the walker at s; the
        # search then solves the open outcome, whose 72-section corridor
        # nests past the recursion limit, inside the search
        path = tmp_path / "gate.json"
        save_instance(gate_corridor_instance(72), path)
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "cap exceeded: knowledge strata nest deeper than the recursion "
            "limit of 1000"]
        assert "Traceback" not in captured.err

    def test_unknown_suite_is_a_usage_error(self, capsys):
        # a usage error is bad input: exit 2 and one line, no usage block.
        # An option goes after the suite's name, which names its parser
        for argv in (["verify", "nope"], ["verify", "--cap", "10", "sensing"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "error: ctplab verify: argument suite: invalid choice: ")
            assert captured.err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "sensing", "--help"])
        assert info.value.code == 0
        assert "--graph" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", UNREAD, ids=shlex.join)
    def test_an_option_no_code_reads_is_refused(self, tmp_path, capsys,
                                                monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "game.qdimacs").write_text(GAME)
        assert main(["gadget", "baiting", "--L", "2", "-o", "bait.json",
                     "--policy", "baiting_pi", "--policy-out",
                     "walker.json"]) == 0
        capsys.readouterr()
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # named after the command that refused it: a reduce target or a
        # verify suite, or the command itself
        command = argv[:2] if argv[0] in ("reduce", "verify") else argv[:1]
        assert captured.err.startswith(f"error: ctplab {' '.join(command)}: ")
        assert captured.err.count("\n") == 1
        assert {path: path.read_bytes()
                for path in tmp_path.iterdir()} == files

    @pytest.mark.parametrize("digits", ["0", "-4"])
    def test_precision_below_1_is_a_usage_error(self, tmp_path, capsys,
                                                monkeypatch, digits):
        # no rendering has fewer than one significant digit
        monkeypatch.chdir(tmp_path)
        assert main(["reduce", "sensing", "--graph", "p3",
                     "--precision", digits]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ctplab reduce sensing: argument --precision: expected a "
            f"count of significant digits of at least 1, got '{digits}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["solve", "bait.json"], ["qbf", "game.qdimacs"],
        *(["verify", suite]
          for suite in ("gadgets", "ctpdep", "sensing", "oracle"))],
        ids=shlex.join)
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_1_is_a_usage_error(self, tmp_path, capsys,
                                          monkeypatch, argv, cap):
        # no run finishes under such a cap, so it is bad input, refused
        # before anything is read, built or solved. qbf caps variables
        monkeypatch.chdir(tmp_path)
        (tmp_path / "game.qdimacs").write_text(GAME)
        assert main(["gadget", "baiting", "--L", "2", "-o", "bait.json"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("ctplab.cli.solve", None)
        monkeypatch.setattr("ctplab.cli.qbf_eval", None)
        assert main([*argv, "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        command = argv if argv[0] == "verify" else argv[:1]
        what = "variables" if argv[0] == "qbf" else "beliefs"
        assert captured.err == (
            f"error: ctplab {' '.join(command)}: argument --cap: expected a "
            f"count of {what} of at least 1, got '{cap}'\n")

    @pytest.mark.parametrize("trials", ["1", "-3"])
    def test_trials_without_a_standard_error_is_a_usage_error(
            self, capsys, monkeypatch, trials):
        # one trial's mean has no spread to band, so the 4-sigma row
        # would pass without checking anything
        monkeypatch.setattr("ctplab.cli.solve", None)
        assert main(["verify", "gadgets", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ctplab verify gadgets: --trials must "
                                f"be 0 or at least 2, got {trials}\n")

    @pytest.mark.parametrize("level", ["top", "node", "action"])
    def test_unknown_key_in_a_tree_is_input_error(self, tmp_path, capsys,
                                                  level):
        # each level of a tree file refuses a key it does not know, as an
        # instance or a certificate file does
        instance = tmp_path / "bait.json"
        tree = tmp_path / "walker.json"
        assert main(["gadget", "baiting", "--L", "2", "-o", str(instance),
                     "--policy", "baiting_pi", "--policy-out",
                     str(tree)]) == 0
        capsys.readouterr()
        data = json.loads(tree.read_text())
        node = data["nodes"][data["root"]]
        place = {"top": data, "node": node, "action": node["action"]}[level]
        place["extra"] = 1
        tree.write_text(json.dumps(data))
        assert main(["solve", str(instance), "--policy", str(tree)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown keys ['extra'] in ")
        assert captured.err.count("\n") == 1


def _instance_documents():
    plain = InstanceBuilder(Variant.INDEPENDENT)
    plain.set_endpoints("s", "t")
    plain.add_edge("s", "a", 1, id="walk")
    plain.add_edge("a", "t", 0, id="coin", block_p=F(1, 2))
    plain.add_edge("s", "t", 3, id="sure")
    sensing = vc_to_sensing(named_vc("p3", 1), F(1, 2))[0]
    dependent = InstanceBuilder(Variant.DEPENDENT)
    dependent.set_endpoints("s", "t")
    dependent.add_edge("s", "t", 1, id="e1", block_p=F(1, 2))
    dependent.add_edge("s", "t", 2, id="e2", block_p=F(1, 2))
    dependent.add_edge("s", "t", 5, id="sure")
    dependent.add_variable("e1", (), [F(1, 2)])
    dependent.add_variable("e2", ("e1",), [0, 1])
    return [json.loads(instance_to_json(inst))
            for inst in (plain.build(), sensing, dependent.build())]


INSTANCE_DOCUMENTS = _instance_documents()
TREE_DOCUMENT = json.loads(solve(instance_from_dict(
    INSTANCE_DOCUMENTS[0])).policy.to_json())
CERTIFICATES = {
    CtpReductionCertificate: json.loads(certificate(2, 1).to_json()),
    SensingCertificate: json.loads(
        vc_to_sensing(named_vc("p3", 1), F(1, 2))[1].to_json()),
}
@pytest.mark.parametrize("read", [
    instance_from_json,
    lambda text: DecisionTreePolicy.from_json(
        text, instance_from_dict(INSTANCE_DOCUMENTS[0])),
    CtpReductionCertificate.from_json, SensingCertificate.from_json],
    ids=["instance", "tree", "ctp-certificate", "sensing-certificate"])
def test_too_deep_json_is_invalid(read):
    with pytest.raises(InvalidInstanceError,
                       match="^not valid JSON: .*recursion"):
        read(DEEP_JSON)


@pytest.mark.parametrize("kind, changes, message", [
    (2, {"dependency": None}, "dependent instance without a net"),
    (2, {"sensing": {"entries": []}}, "dependent instance with sensing costs"),
    (1, {"sensing": None}, "sensing instance without sensing costs"),
    (1, {"dependency": {"variables": []}},
     "sensing instance with a dependency net"),
    (0, {"sensing": {"entries": []}},
     "independent instance with extra sections")],
    ids=["dependent-no-net", "dependent-sensing", "sensing-no-costs",
         "sensing-net", "independent-extra"])
def test_variant_sections_are_checked(tmp_path, capsys, kind, changes,
                                      message):
    """Each variant needs its own section and refuses the other."""
    data = copy.deepcopy(INSTANCE_DOCUMENTS[kind])
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
        instance_from_dict(data)
    path = tmp_path / "sections.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=3),
    st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from(["1/2", "0/1", "inf", "1/0", "s", "t", "move", "halt",
                     "independent", "sensing", "dependent"]))


def _retyped(value):
    """The same content as another JSON type."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    return [value]


@st.composite
def mutated(draw, document):
    """`document` with one to three slots replaced, dropped or retyped."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node = doc
        while node:
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(
                    st.booleans()):
                node = child
                continue
            how = draw(st.sampled_from(["junk", "drop", "retype"]))
            if how == "drop":
                del node[key]
            elif how == "retype":
                node[key] = _retyped(child)
            else:
                node[key] = draw(JUNK)
            break
    return doc


def _run_documented(argv):
    """Run the command line; its code and stderr must be documented."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == "")
    assert err.getvalue().count("\n") <= 1


class TestDocumentFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_instances(self, tmp_path_factory, data):
        document = data.draw(st.sampled_from(INSTANCE_DOCUMENTS))
        path = tmp_path_factory.getbasetemp() / "mutated_instance.json"
        path.write_text(json.dumps(data.draw(mutated(document))))
        _run_documented(["solve", str(path)])

    @settings(max_examples=120, deadline=None)
    @given(tree=mutated(TREE_DOCUMENT))
    def test_mutated_trees(self, tmp_path_factory, tree):
        base = tmp_path_factory.getbasetemp()
        instance = base / "fuzz_instance.json"
        instance.write_text(json.dumps(INSTANCE_DOCUMENTS[0]))
        path = base / "mutated_tree.json"
        path.write_text(json.dumps(tree))
        _run_documented(["solve", str(instance), "--policy", str(path)])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_certificates(self, data):
        kind = data.draw(st.sampled_from(sorted(CERTIFICATES,
                                                key=lambda k: k.__name__)))
        text = json.dumps(data.draw(mutated(CERTIFICATES[kind])))
        try:
            kind.from_json(text)
        except (InvalidInstanceError, ValueError):
            pass
