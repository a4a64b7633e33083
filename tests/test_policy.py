"""Policy evaluation tests.

The headline oracles: the baiting forward policy must reproduce the frozen
corridor closed forms in both evaluation modes, and the observation-gadget
forward policy must land exactly on the decomposition assembled from the
independently derived pass/early-exit formulas. That agreement ties the
policy walker, the joint-outcome recursion, and the closed forms together.
"""
from __future__ import annotations

import gc
import hashlib
import json
from fractions import Fraction

import pytest

import ctplab.policy as policy_module
from ctplab.gadgets import (
    baiting_harness,
    bailout_policy_cost,
    decomposed_cost,
    forward_policy_cost,
    observation_early_exit_expectation,
    observation_harness,
    observation_pass_cost,
    observation_pass_probability,
    pass_cost,
    pass_probability,
)
from ctplab.model import (Belief, Cost, EnumerationCapError,
                          InstanceBuilder, InvalidInstanceError, Variant,
                          Weather)
from ctplab.policy import (
    Action,
    ActionKind,
    DecisionTreePolicy,
    Policy,
    action_from_dict,
    action_to_dict,
    evaluate_exact,
    export_decision_tree,
    reference_policy,
    simulate,
    walk_weather,
)
from ctplab.reductions import named_vc, vc_to_sensing
from ctplab.solve import solve
from test_sampling import oracle_simulate


def sure_edge_instance(cost=5):
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", cost, id="direct")
    return b.build()


def two_path_instance():
    """Cheap single uncertain edge against a sure detour."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 1, id="cheap", block_p=Fraction(1, 2))
    b.add_edge("s", "t", 3, id="sure")
    return b.build()


def anchor_instance():
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", Cost.infinite(), id="anchor")
    b.add_edge("s", "t", 2, id="road")
    return b.build()


def hop_out_instance():
    """A sure hop from s to a dead end m, and a sure way out to t."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", 1, id="hop")
    b.add_edge("s", "t", 9, id="out")
    return b.build()


def zigzag_instance():
    """A corridor s-a-b-m of sure unit edges, a coin `c` from m to t and
    a sure `out` of cost 9 from s to t."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    for u, v in (("s", "a"), ("a", "b"), ("b", "m")):
        b.add_edge(u, v, 1, id=u + v)
    b.add_edge("m", "t", 1, id="c", block_p=Fraction(1, 2))
    b.add_edge("s", "t", 9, id="out")
    return b.build()


def zigzag(instance, belief):
    """Up the corridor to m; back down it and out if `c` is blocked."""
    if belief.position == "t":
        return Action.halt()
    if belief.status("c") is False:
        way = {"m": "bm", "b": "ab", "a": "sa", "s": "out"}
    else:
        way = {"s": "sa", "a": "ab", "b": "bm", "m": "c"}
    return Action.move(way[belief.position])


def one_way_instance():
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("t", "s", 1, id="back", directed=True)
    b.add_edge("s", "t", 2, id="road")
    return b.build()


def remote_sensing_instance():
    """The uncertain edge can be sensed from m only."""
    b = InstanceBuilder(Variant.SENSING)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", 1, id="hop")
    b.add_edge("m", "t", 0, id="risky", block_p=Fraction(1, 2))
    b.add_edge("s", "t", 4, id="direct")
    b.add_sensing("m", "risky", Fraction(1, 8))
    return b.build()


class RulePolicy(Policy):
    """Ad-hoc policy from a plain function, for tests only."""

    def __init__(self, fn):
        self._fn = fn

    def decide(self, instance, belief):
        return self._fn(instance, belief)


def take_cheap_else_sure(instance, belief):
    if belief.position == "t":
        return Action.halt()
    if belief.status("cheap"):
        return Action.move("cheap")
    return Action.move("sure")


class TestActions:
    def test_halt_carries_no_edge(self):
        with pytest.raises(ValueError):
            Action(ActionKind.HALT, "e")

    def test_move_needs_edge(self):
        with pytest.raises(ValueError):
            Action(ActionKind.MOVE)

    def test_round_trip(self):
        for action in (Action.move("e1"), Action.sense("e2"),
                       Action.give_up("e3"), Action.halt(), None):
            assert action_from_dict(action_to_dict(action)) == action

    def test_str(self):
        assert str(Action.move("e1")) == "move(e1)"
        assert str(Action.halt()) == "halt"


class TestLegality:
    def test_halt_away_from_target(self):
        inst = sure_edge_instance()
        policy = RulePolicy(lambda i, b: Action.halt())
        with pytest.raises(InvalidInstanceError, match="at s"):
            evaluate_exact(inst, policy)

    def test_move_on_blocked_edge(self):
        inst = two_path_instance()
        policy = RulePolicy(lambda i, b: Action.halt()
                            if b.position == "t" else Action.move("cheap"))
        with pytest.raises(InvalidInstanceError, match="blocked"):
            evaluate_exact(inst, policy, mode="tree")

    def test_move_on_missing_edge(self):
        inst = sure_edge_instance()
        policy = RulePolicy(lambda i, b: Action.move("nope"))
        with pytest.raises(InvalidInstanceError, match="unknown edge"):
            evaluate_exact(inst, policy)

    def test_sense_outside_sensing_variant(self):
        inst = two_path_instance()
        policy = RulePolicy(lambda i, b: Action.sense("cheap"))
        with pytest.raises(InvalidInstanceError, match="variant"):
            evaluate_exact(inst, policy, mode="tree")

    def test_give_up_requires_sure_edge(self):
        inst = two_path_instance()
        policy = RulePolicy(lambda i, b: Action.give_up("cheap"))
        with pytest.raises(InvalidInstanceError, match="always open"):
            evaluate_exact(inst, policy, mode="tree")

    @pytest.mark.parametrize("walk", [
        lambda inst, policy: evaluate_exact(inst, policy, mode="tree"),
        lambda inst, policy: walk_weather(inst, policy, Weather(0)),
    ], ids=["tree", "weather"])
    @pytest.mark.parametrize("make, action", [
        (anchor_instance, Action.move("anchor")),
        (one_way_instance, Action.move("back")),
        (remote_sensing_instance, Action.sense("risky")),
    ], ids=["anchor", "against-direction", "sense-without-entry"])
    def test_move_rule_refusals(self, make, action, walk):
        policy = RulePolicy(lambda i, b: action)
        with pytest.raises(InvalidInstanceError,
                           match="cannot be taken out of s|no sensing entry"):
            walk(make(), policy)

    def test_endless_walk_hits_cap(self):
        inst = hop_out_instance()
        policy = RulePolicy(lambda i, b_: Action.move("hop"))
        # every walker steps through `_walk`, so all give its one message
        for walk in (lambda: evaluate_exact(inst, policy, mode="tree"),
                     lambda: evaluate_exact(inst, policy, mode="weathers"),
                     lambda: simulate(inst, policy, 3, 0)):
            with pytest.raises(EnumerationCapError) as caught:
                walk()
            assert str(caught.value) == (
                "no arrival within 64 steps; last at s knowing nothing")

    def test_cap_counts_from_the_last_reveal(self, monkeypatch):
        # 8 steps in all on the blocked weather, 3 before `c` shows and 5
        # after: at a cap of 5 between two reveals every walker prices it
        monkeypatch.setattr(policy_module, "_step_cap", lambda inst: 5)
        inst, policy = zigzag_instance(), RulePolicy(zigzag)
        for mode in ("tree", "weathers"):
            assert evaluate_exact(inst, policy, mode=mode).expected_cost == (
                Cost.of(Fraction(19, 2)))
        assert walk_weather(inst, policy, Weather(0)) == Cost.of(4)
        assert walk_weather(inst, policy,
                            Weather(inst.bits["c"])) == Cost.of(15)
        for seed in (4, 20260819):
            want = oracle_simulate(inst, policy, 64, seed)[0]
            got = simulate(inst, policy, 64, seed)
            assert (got[0].hex(), got[1].hex()) == (want[0].hex(),
                                                    want[1].hex())

    def test_policy_must_be_a_function_of_the_belief(self):
        # at s with nothing known it first hops to m, then takes `out`
        answers = iter(["hop", "hop", "out"])
        policy = RulePolicy(lambda i, b_: Action.halt()
                            if b_.position == "t"
                            else Action.move(next(answers)))
        with pytest.raises(InvalidInstanceError) as caught:
            export_decision_tree(hop_out_instance(), policy)
        assert str(caught.value) == (
            "policy is not a function of the belief at s|")


class TestEvaluate:
    def test_sure_edge(self):
        inst = sure_edge_instance()
        policy = RulePolicy(lambda i, b: Action.halt()
                            if b.position == "t" else Action.move("direct"))
        for mode in ("weathers", "tree"):
            result = evaluate_exact(inst, policy, mode=mode)
            assert result.expected_cost == Cost.of(5)

    def test_two_paths_expected_two(self):
        inst = two_path_instance()
        policy = RulePolicy(take_cheap_else_sure)
        for mode in ("weathers", "tree"):
            result = evaluate_exact(inst, policy, mode=mode)
            assert result.expected_cost == Cost.of(2)

    def test_breakdown_is_exact_decomposition(self):
        inst = two_path_instance()
        result = evaluate_exact(inst, RulePolicy(take_cheap_else_sure),
                                mode="tree")
        total = sum((p for _, p, _ in result.outcome_breakdown), Fraction(0))
        assert total == 1
        recombined = sum((p * c.plain for _, p, c in result.outcome_breakdown),
                         Fraction(0))
        assert Cost.of(recombined) == result.expected_cost

    def test_declaring_infeasible_costs_infinity(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="only", block_p=Fraction(1, 2))
        inst = b.build()

        def rule(instance, belief):
            if belief.position == "t":
                return Action.halt()
            if belief.status("only"):
                return Action.move("only")
            return None

        result = evaluate_exact(inst, RulePolicy(rule), mode="tree")
        assert result.expected_cost.is_infinite
        labels = {label: cost for label, _, cost in result.outcome_breakdown}
        assert labels["only=blocked"].is_infinite
        assert labels["only=open"] == Cost.of(1)

    def test_rare_infeasible_outcome_costs_infinity(self):
        # the chance is below the smallest float: chance * math.inf is nan
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="only", block_p=Fraction(1, 1 << 1100))
        inst = b.build()

        def rule(instance, belief):
            if belief.position == "t":
                return Action.halt()
            return Action.move("only") if belief.status("only") else None

        for mode in ("tree", "weathers"):
            result = evaluate_exact(inst, RulePolicy(rule), mode=mode)
            assert result.expected_cost.is_infinite

    def test_modes_agree_on_dependent_instance(self):
        from test_model import xor_net_instance
        inst = xor_net_instance()

        def rule(instance, belief):
            if belief.position == "t":
                return Action.halt()
            if belief.status("e_true"):
                return Action.move("e_true")
            return Action.move("e_false")

        by_weather = evaluate_exact(inst, RulePolicy(rule), mode="weathers")
        by_tree = evaluate_exact(inst, RulePolicy(rule), mode="tree")
        assert by_weather.expected_cost == by_tree.expected_cost

    def test_bad_mode_rejected(self):
        for mode in ("guess", "auto"):
            with pytest.raises(ValueError, match="mode"):
                evaluate_exact(sure_edge_instance(),
                               RulePolicy(lambda i, b: None), mode=mode)


class TestBaitingPolicies:
    def test_forward_policy_frozen_values(self):
        inst, handle = baiting_harness(2)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        for mode in ("weathers", "tree"):
            result = evaluate_exact(inst, policy, mode=mode)
            assert result.expected_cost == Cost.of(Fraction(263, 512))

    def test_forward_policy_zero_charge(self):
        inst, handle = baiting_harness(2, charge=0)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal="charge")
        result = evaluate_exact(inst, policy, mode="tree")
        assert result.expected_cost == Cost.of(Fraction(255, 512))

    def test_forward_policy_fractional_length(self):
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        result = evaluate_exact(inst, policy, mode="weathers")
        assert result.expected_cost == Cost.of(Fraction(789, 2048))

    @pytest.mark.parametrize("length", [2, 3, Fraction(5, 2), 24])
    def test_forward_policy_matches_closed_form(self, length):
        inst, handle = baiting_harness(length)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        result = evaluate_exact(inst, policy, mode="tree")
        assert result.expected_cost == Cost.of(
            forward_policy_cost(length, length))

    @pytest.mark.parametrize("rounds", list(range(1, 8)))
    def test_bailout_policy_matches_closed_form(self, rounds):
        inst, handle = baiting_harness(2)
        policy = reference_policy("baiting_pi_j", handle=handle,
                                  rounds=rounds, fallback="fallback")
        result = evaluate_exact(inst, policy, mode="weathers")
        assert result.expected_cost == Cost.of(bailout_policy_cost(2, rounds, 1))

    def test_bailout_policy_frozen_values(self):
        inst, handle = baiting_harness(2)
        frozen = {1: Fraction(7, 8), 3: Fraction(21, 32),
                  7: Fraction(265, 512)}
        for rounds, want in frozen.items():
            policy = reference_policy("baiting_pi_j", handle=handle,
                                      rounds=rounds, fallback="fallback")
            result = evaluate_exact(inst, policy, mode="tree")
            assert result.expected_cost == Cost.of(want)

    def test_forward_policy_decomposition_identity(self):
        result = evaluate_exact(
            *self._forward(2), mode="tree").expected_cost
        assert result == Cost.of(decomposed_cost(
            Fraction(247, 512), pass_probability(2), pass_cost(2),
            Fraction(2)))

    @staticmethod
    def _forward(length):
        inst, handle = baiting_harness(length)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        return inst, policy

    def test_single_weather_replay(self):
        inst, handle = baiting_harness(2)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        # every cut blocked: pay the full corridor plus the exit shortcut
        cuts = [inst.bits[e] for e in handle.cut_edges]
        assert walk_weather(inst, policy, Weather(sum(cuts))) == Cost.of(4)
        # first cut open: one section then a free drop to the sink
        open_first = sum(cuts[1:])
        assert walk_weather(inst, policy, Weather(open_first)) == Cost.of(
            Fraction(1, 4))


class TestObservationPolicy:
    @pytest.mark.parametrize("length", [9, 24])
    def test_two_derivations_agree(self, length):
        """Policy walk equals the independently assembled closed form."""
        inst, handle = observation_harness(length, charge=0)
        policy = reference_policy("og_pi_g", handle=handle, terminal="charge")
        result = evaluate_exact(inst, policy, mode="tree")
        want = decomposed_cost(
            observation_early_exit_expectation(length),
            observation_pass_probability(length),
            observation_pass_cost(length),
            Fraction(0))
        assert result.expected_cost == Cost.of(want)


class TestDecisionTrees:
    def test_export_and_replay(self):
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        original, tree = export_decision_tree(inst, policy)
        replayed = evaluate_exact(inst, tree, mode="weathers")
        assert replayed.expected_cost == original.expected_cost

    def test_json_round_trip(self):
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        original, tree = export_decision_tree(inst, policy)
        back = DecisionTreePolicy.from_json(tree.to_json(), inst)
        assert back == tree
        replayed = evaluate_exact(inst, back, mode="tree")
        assert replayed.expected_cost == original.expected_cost

    def test_one_json_replays_on_two_numberings(self):
        # x is bit 1 in one instance and y in the other: each load parses
        # the keys into the masks of the instance it is loaded against
        def listing(ids):
            b = InstanceBuilder(Variant.INDEPENDENT)
            b.set_endpoints("s", "t")
            for e in ids:
                b.add_edge("s", "t", 1, id=e, block_p=Fraction(1, 2))
            return b.build()

        def node(edge):
            return {"action": {"edge": edge, "kind": "move"}, "children": {}}

        text = json.dumps({"root": "s|", "nodes": {
            "s|x=O,y=B": node("x"), "s|x=B,y=O": node("y")}},
            indent=2, sort_keys=True)
        xy, yx = listing(["x", "y"]), listing(["y", "x"])
        assert xy.bits != yx.bits
        for inst in (xy, yx):
            tree = DecisionTreePolicy.from_json(text, inst)
            x, y = inst.bits["x"], inst.bits["y"]
            assert tree.decide(inst, Belief("s", x, y, inst)) == (
                Action.move("x"))
            assert tree.decide(inst, Belief("s", y, x, inst)) == (
                Action.move("y"))
            assert tree.to_json() == text
        # masks read by another instance's numbering would mean other edges
        tree = DecisionTreePolicy.from_json(text, xy)
        with pytest.raises(InvalidInstanceError, match="numbers its"):
            tree.decide(yx, Belief("s", 1, 2, yx))

    def test_names_holding_separators_round_trip(self):
        # key and label text joins names with "|", "," and "="; a name
        # holding them still reads back to its own masks
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "m|1", 1, id="a,b=O", block_p=Fraction(1, 2))
        b.add_edge("m|1", "t", 1, id="c|d", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 10, id="sure")
        inst = b.build()
        result = solve(inst)
        text = result.policy.to_json()
        assert '"m|1|a,b=O=O,c|d=B"' in text
        back = DecisionTreePolicy.from_json(text, inst)
        assert back == result.policy
        assert back.to_json() == text
        assert evaluate_exact(inst, back) == evaluate_exact(inst,
                                                            result.policy)

    def test_missing_node_names_belief(self):
        inst = two_path_instance()
        tree = DecisionTreePolicy(inst, {})
        assert tree.to_json() == json.dumps({"nodes": {}, "root": None},
                                            indent=2, sort_keys=True)
        with pytest.raises(InvalidInstanceError, match="no action"):
            evaluate_exact(inst, tree, mode="tree")

    def test_walks_leave_no_reference_cycle(self):
        # reference counting must free a walk's policy and tree at once: a
        # cycle would hold a solver's whole search until the cyclic GC
        # runs, and raise the peak memory of every solve
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            export_decision_tree(inst, policy)
            evaluate_exact(inst, policy, mode="tree")
            evaluate_exact(inst, policy, mode="weathers")
            simulate(inst, policy, 8, 0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


def _pinned_case(name):
    if name == "baiting":
        inst, handle = baiting_harness(2)
        return inst, reference_policy("baiting_pi", handle=handle,
                                      terminal=handle.exit_shortcut)
    if name == "observation":
        inst, handle = observation_harness(9, charge=0)
        return inst, reference_policy("og_pi_g", handle=handle,
                                      terminal="charge")
    if name == "xor":
        from test_model import xor_net_instance
        inst = xor_net_instance()
    else:
        inst, _ = vc_to_sensing(named_vc("p3", 1), Fraction(1, 2))
    return inst, solve(inst).policy


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestFrozenTreeEvaluation:
    """The tree evaluator's exact outputs, frozen bit for bit.

    Each case pins the expected cost, the outcome breakdown (labels, order,
    probabilities and costs, one tab-separated row each) and the exported
    decision tree's JSON, so a rewrite of the evaluator cannot reorder
    outcomes or change a recorded node unnoticed.
    """

    @pytest.mark.parametrize("name, expected, rows, breakdown_sha, tree_sha", [
        ("baiting", "263/512", 8,
         "4755ff33aed48a64f774f31f8d8bce44b48c9c440a8fe8c716b10b0dc02598a3",
         "3978831d2ba7ef4c7add7f79811001b10b814d78c8085acacc7e351374ee2b82"),
        ("observation",
         "225975662473920507522588749653783560473987565347027346784247/"
         "803469022129495137770981046170581301261101496891396417650688", 256,
         "1b9d3b82eedee407290a4924dca419582142d90b1599245ec553e40a6d18bfd7",
         "b3000897120dd33d9cfe14cf90025d82379b97bf4b2d3837d381b2dce433df9b"),
        ("xor", "0/1", 2,
         "8c564d2ffeafa63f418cccec167148eaa6d0a1e6fa4fab4d6e69aa2a24ad9eb3",
         "87685a0dacd2bf20a86cd0c868d60c3690dc379feefddfd7d68d4bffff70b1e5"),
        ("p3", "3161165579761560626969914950619/"
         "792281625142643375935439503360", 4,
         "ea3a92876fc46cc03637607a8e77bee7f83fa863db9a977e0352dfe8f97cc442",
         "273f03560ad4355c68312fda15809bb638467d3e49925604657597a5032883d7"),
    ])
    def test_frozen(self, name, expected, rows, breakdown_sha, tree_sha):
        inst, policy = _pinned_case(name)
        result = evaluate_exact(inst, policy, mode="tree")
        assert str(result.expected_cost) == expected
        assert len(result.outcome_breakdown) == rows
        text = "\n".join(f"{label}\t{prob}\t{cost}"
                         for label, prob, cost in result.outcome_breakdown)
        assert _sha256(text) == breakdown_sha
        exported, tree = export_decision_tree(inst, policy)
        assert exported == result
        assert _sha256(tree.to_json()) == tree_sha

    def test_baiting_rows_in_order(self):
        inst, policy = _pinned_case("baiting")
        breakdown = evaluate_exact(inst, policy, mode="tree").outcome_breakdown
        cuts = [f"bg.cut{i:03d}" for i in range(1, 8)]
        want = []
        for opened in range(6, -1, -1):
            labels = [f"{cut}=blocked" for cut in cuts[:opened]]
            want.append(" ; ".join(labels + [f"{cuts[opened]}=open"]))
        want.insert(0, " ; ".join(f"{cut}=blocked" for cut in cuts))
        assert [label for label, _, _ in breakdown] == want
        assert [p for _, p, _ in breakdown] == [
            Fraction(1, 128), Fraction(1, 128), Fraction(1, 64),
            Fraction(1, 32), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
            Fraction(1, 2)]
        assert [str(c) for _, _, c in breakdown] == [
            "4/1", "7/4", "3/2", "5/4", "1/1", "3/4", "1/2", "1/4"]


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="baiting_pi"):
            reference_policy("unheard_of")

    def test_rounds_out_of_range(self):
        _, handle = baiting_harness(2)
        with pytest.raises(ValueError, match="rounds"):
            reference_policy("baiting_pi_j", handle=handle, rounds=8,
                             fallback="fallback")


class TestSimulate:
    def test_sure_edge_statistics(self):
        inst = sure_edge_instance()
        policy = RulePolicy(lambda i, b: Action.halt()
                            if b.position == "t" else Action.move("direct"))
        mean, stderr = simulate(inst, policy, trials=7, seed=1)
        assert mean == 5.0
        assert stderr == 0.0

    def test_deterministic_given_seed(self):
        inst, handle = baiting_harness(2)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        a = simulate(inst, policy, trials=200, seed=11)
        b = simulate(inst, policy, trials=200, seed=11)
        assert a == b

    def test_converges_to_exact_value(self):
        inst, handle = baiting_harness(2)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        mean, stderr = simulate(inst, policy, trials=20000, seed=7)
        exact = float(Fraction(263, 512))
        assert stderr > 0
        assert abs(mean - exact) < 4 * stderr

    def test_needs_a_trial(self):
        inst = sure_edge_instance()
        with pytest.raises(ValueError):
            simulate(inst, RulePolicy(lambda i, b: None), trials=0, seed=3)

    def test_infeasible_weather_raises(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="only", block_p=Fraction(1, 2))
        inst = b.build()

        def rule(instance, belief):
            if belief.position == "t":
                return Action.halt()
            if belief.status("only"):
                return Action.move("only")
            return None

        with pytest.raises(InvalidInstanceError,
                           match="declares infeasible"):
            simulate(inst, RulePolicy(rule), trials=60, seed=5)
