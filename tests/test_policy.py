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

from ctplab.gadgets import (
    baiting_harness,
    bailout_policy_cost,
    forward_policy_cost,
    observation_early_exit_expectation,
    observation_harness,
    observation_pass_cost,
    observation_pass_probability,
    pass_cost,
    pass_probability,
)
from ctplab.cli import GAME_BATTERY
from ctplab.model import (Belief, Cost, CtpInstance, InstanceBuilder,
                          InternalCheckError, InvalidInstanceError, Variant,
                          Weather)
from ctplab.policy import (
    Action,
    ActionKind,
    DecisionTreePolicy,
    EvalResult,
    Policy,
    action_from_dict,
    describe_belief,
    evaluate_exact,
    export_decision_tree,
    reference_policy,
    simulate,
    walk_weather,
)
from ctplab.reductions import (named_vc, qbf_to_ctp, qbf_to_ctpdep,
                               vc_to_sensing)
from ctplab.solve import QbfFormula, solve

from oracles import (
    by_weathers,
    decomposed_cost,
    outcome_breakdown,
    reference_decide,
    trace,
    walked_tree,
)
from test_sampling import CountingPolicy, oracle_simulate
from test_solve import assert_is_a_tree


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
        for data, action in (
                ({"kind": "move", "edge": "e1"}, Action.move("e1")),
                ({"kind": "sense", "edge": "e2"}, Action.sense("e2")),
                ({"kind": "give_up", "edge": "e3"}, Action.give_up("e3")),
                ({"kind": "halt"}, Action.halt()),
                (None, None)):
            assert action_from_dict(data) == action

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

    def test_sense_an_edge_already_known(self):
        policy = RulePolicy(lambda i, b: Action.move("hop")
                            if b.position == "s" else Action.sense("risky"))
        with pytest.raises(InvalidInstanceError) as caught:
            walk_weather(remote_sensing_instance(), policy, Weather(0))
        assert str(caught.value) == (
            "sensing risky whose status is already known, "
            "at m knowing [risky open]")

    def test_weather_of_chance_zero_is_refused(self, solve_battery_game):
        # game 0's net gives the statuses of 0xf6 chance 0 (its component
        # of mask 0xd4 holds no row for them): the weather is refused up
        # front, before any step of the policy could be blamed
        instance = qbf_to_ctpdep(GAME_BATTERY[0][0])[0]
        policy = solve_battery_game(0).policy
        with pytest.raises(InvalidInstanceError) as caught:
            walk_weather(instance, policy, Weather(246))
        assert str(caught.value) == "weather 0xf6 has chance 0"
        # every weather of the support still walks to its cost, 0
        rows = by_weathers(instance, policy).rows
        assert evaluate_exact(instance, policy, mode="weathers") == (
            EvalResult(Cost.of(0), 16))
        assert [walk_weather(instance, policy, Weather(blocked))
                for ((_, blocked),), _, _ in rows] == [
            cost for _, _, cost in rows] == [Cost.of(0)] * 16

    def test_give_up_requires_sure_edge(self):
        inst = two_path_instance()
        policy = RulePolicy(lambda i, b: Action.give_up("cheap"))
        with pytest.raises(InvalidInstanceError, match="always open"):
            evaluate_exact(inst, policy, mode="tree")

    def test_endless_walk_loops(self):
        inst = hop_out_instance()
        policy = RulePolicy(lambda i, b_: Action.move("hop"))
        # every walker meets s again with nothing revealed and gives the
        # one loop message: the pricing walk, behind the tree mode and the
        # export, as a cycle among its nodes, and `_walk`, behind the
        # weathers mode, `walk_weather` and `simulate`, as a position stood
        # on twice since the last reveal
        for walk in (lambda: evaluate_exact(inst, policy, mode="tree"),
                     lambda: evaluate_exact(inst, policy, mode="weathers"),
                     lambda: walk_weather(inst, policy, Weather(0)),
                     lambda: simulate(inst, policy, 3, 0),
                     lambda: export_decision_tree(inst, policy)):
            with pytest.raises(InternalCheckError) as caught:
                walk()
            assert str(caught.value) == (
                "the policy loops through the key at s|")

    def test_seen_positions_restart_at_each_reveal(self):
        # on the blocked weather the walk goes up s, a and b to m, where
        # `c` shows, and then back down over b, a and s to t: it stands on
        # s, a and b twice, but never twice since the last reveal, so
        # every walker prices it
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

    def test_a_loop_is_refused_at_its_first_repeat(self):
        # on the reduction of forall x1 exists x2: (x1), a policy that
        # always moves `enter` goes s -> x1, where x1's two edges show, then
        # x1 -> s -> x1: it stands on x1 again with nothing new revealed,
        # and is refused there after 3 decisions
        inst = qbf_to_ctp(QbfFormula.of(2, ((1,),)))[0]
        policy = CountingPolicy(RulePolicy(lambda i, b_: Action.move("enter")))
        with pytest.raises(InternalCheckError) as caught:
            walk_weather(inst, policy, Weather(0))
        assert str(caught.value) == (
            "the policy loops through the key at x1|x1.false=O,x1.true=O")
        assert policy.decisions == 3

    @pytest.mark.parametrize("walk", [
        lambda inst, policy: evaluate_exact(inst, policy, mode="tree"),
        lambda inst, policy: evaluate_exact(inst, policy, mode="weathers"),
        # every uncertain edge blocked: the outcome the tree walk pops
        # first and the weather the weathers mode lists first
        lambda inst, policy: walk_weather(
            inst, policy, Weather((1 << len(inst.uncertain_edges)) - 1)),
    ], ids=["tree", "weathers", "weather"])
    @pytest.mark.parametrize("make, rule, message", [
        (anchor_instance, lambda b: Action.move("anchor"),
         "edge anchor cannot be taken out of s, at s knowing nothing"),
        (one_way_instance, lambda b: Action.move("back"),
         "edge back cannot be taken out of s, at s knowing nothing"),
        (remote_sensing_instance, lambda b: Action.sense("risky"),
         "no sensing entry for 'risky' from s, at s knowing nothing"),
        (two_path_instance, lambda b: Action.move("cheap"),
         "edge cheap is blocked, at s knowing [cheap blocked]"),
        (remote_sensing_instance,
         lambda b: Action.move("direct" if b.position == "s" else "risky"),
         "edge risky is unobserved, at t knowing nothing"),
        (two_path_instance, lambda b: Action.give_up("cheap"),
         "give-up edge cheap is not always open, at s knowing "
         "[cheap blocked]"),
        (sure_edge_instance, lambda b: Action.move("nope"),
         "unknown edge 'nope', at s knowing nothing"),
        (sure_edge_instance, lambda b: Action.halt(),
         "halt away from the target, at s knowing nothing"),
    ], ids=["anchor", "against-direction", "sense-without-entry", "blocked",
            "unobserved", "give-up-uncertain", "unknown-edge", "halt-away"])
    def test_move_rule_refusals(self, make, rule, message, walk):
        # every walker refuses a step with the same words, letter for letter
        with pytest.raises(InvalidInstanceError) as caught:
            walk(make(), RulePolicy(lambda i, b: rule(b)))
        assert str(caught.value) == message

    def test_policy_must_be_a_function_of_the_belief(self):
        # at s with nothing known it first hops to m, then takes `out`:
        # the export asks once per belief, so it sees s again, a loop
        answers = iter(["hop", "hop", "out"])
        policy = RulePolicy(lambda i, b_: Action.halt()
                            if b_.position == "t"
                            else Action.move(next(answers)))
        with pytest.raises(InternalCheckError) as caught:
            export_decision_tree(hop_out_instance(), policy)
        assert str(caught.value) == "the policy loops through the key at s|"


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
        policy = RulePolicy(take_cheap_else_sure)
        result = evaluate_exact(inst, policy, mode="tree")
        breakdown = outcome_breakdown(trace(inst, policy))
        assert len(breakdown) == result.leaves
        total = sum((p for _, p, _ in breakdown), Fraction(0))
        assert total == 1
        recombined = sum((p * c.fraction for _, p, c in breakdown),
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
        labels = {label: cost for label, _, cost in
                  outcome_breakdown(trace(inst, RulePolicy(rule)))}
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


def event_chance(instance, event):
    """The chance of `event` as the product, in Fractions, of each
    outcome's chance from `JointModel.branch` given the ones before it."""
    opened = blocked = 0
    chance = Fraction(1)
    for opened_by, blocked_by in event:
        rows = instance.joint.branch(opened, blocked, opened_by | blocked_by)
        chance *= next(Fraction(w, t) for o, b, w, t in rows
                       if (o, b) == (opened_by, blocked_by))
        opened, blocked = opened | opened_by, blocked | blocked_by
    return chance


def forward_baiting():
    instance, handle = baiting_harness(2)
    return instance, reference_policy("baiting_pi", handle=handle,
                                      terminal=handle.exit_shortcut)


# the tree walk prices a policy, and records it as a tree, on one path
both_walks = pytest.mark.parametrize(
    "walk", [evaluate_exact, export_decision_tree], ids=["evaluate", "export"])


class TestIntegerChances:
    """The tree walk carries each chance as an int over the model's total
    mass; a Fraction product of the model's chances checks it."""

    @pytest.mark.parametrize("case", [f"game{k}" for k in range(8)]
                             + ["baiting(2)", "vc(p3)"])
    def test_rows_match_the_fraction_product(self, case,
                                             solve_battery_game):
        if case.startswith("game"):
            k = int(case[4:])
            instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
            policy = solve_battery_game(k).policy
        elif case == "baiting(2)":
            instance = baiting_harness(2)[0]
            policy = solve(instance).policy
        else:
            instance = vc_to_sensing(named_vc("p3", 1), Fraction(1, 2))[0]
            policy = solve(instance).policy
        rows = trace(instance, policy).rows
        assert evaluate_exact(instance, policy).leaves == len(rows)
        assert [p for _, p, _ in rows] == [
            event_chance(instance, event) for event, _, _ in rows]
        assert sum(p for _, p, _ in rows) == 1

    @both_walks
    def test_a_missing_outcome_is_caught(self, walk, monkeypatch):
        outcomes = CtpInstance.outcomes

        def short(self, *args):
            rows = outcomes(self, *args)
            return rows[:-1] if len(rows) > 1 else rows

        monkeypatch.setattr(CtpInstance, "outcomes", short)
        with pytest.raises(InternalCheckError,
                           match="outcome probabilities do not sum to one"):
            walk(*forward_baiting())

    @pytest.mark.parametrize("walk, message", [
        (evaluate_exact, "128 times 1/6 is not whole"),
        (export_decision_tree, "128 times 1/6 is not whole"),
        # the search's first branch is the one outcome of what s shows,
        # nothing: chance 1/1, tripled to 1/3
        (lambda instance, _: solve(instance), "128 times 1/3 is not whole"),
    ], ids=["evaluate", "export", "solve"])
    def test_a_chance_outside_the_mass_is_caught(self, walk, message,
                                                 monkeypatch):
        # the harness's chances are dyadic, so its total mass is a power of
        # two, and a row whose total is tripled leaves a remainder
        outcomes = CtpInstance.outcomes

        def thirds(self, *args):
            (opened, blocked, weight, total), *rest = outcomes(self, *args)
            return [(opened, blocked, weight, 3 * total), *rest]

        monkeypatch.setattr(CtpInstance, "outcomes", thirds)
        with pytest.raises(InternalCheckError) as caught:
            walk(*forward_baiting())
        assert str(caught.value) == message


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


def reference_cases():
    """Each reference policy on a harness its table is checked on, with
    the instance, the cut edges of its corridors and its detour blockers,
    if any: baiting_pi and baiting_pi_j at every `rounds` on baiting
    harnesses 2 and 8, and og_pi_g on observation harness 16."""
    for length in (2, 8):
        inst, handle = baiting_harness(length)
        policies = {"baiting_pi": reference_policy(
            "baiting_pi", handle=handle, terminal=handle.exit_shortcut)}
        for rounds in range(1, handle.n + 1):
            policies[f"baiting_pi_j-{rounds}"] = reference_policy(
                "baiting_pi_j", handle=handle, rounds=rounds,
                fallback="fallback")
        for name, policy in policies.items():
            yield pytest.param(inst, policy, handle.cut_edges, (),
                               id=f"L{length}-{name}")
    inst, h = observation_harness(16, charge=0)
    yield pytest.param(
        inst, reference_policy("og_pi_g", handle=h, terminal="charge"),
        h.first.cut_edges + h.second.cut_edges + h.third.cut_edges,
        (h.blocker_in, h.blocker_out), id="L16-og_pi_g")


class TestReferenceTables:
    """The reference policies decide from tables built once; at every
    vertex they must choose as their rules run step by step do
    (`oracles.reference_decide`): knowing nothing, knowing one cut edge
    open or blocked, and under each status of the detour blockers."""

    @pytest.mark.parametrize("inst, policy, cuts, blockers",
                             reference_cases())
    def test_tables_match_the_step_rules(self, inst, policy, cuts,
                                         blockers):
        masks = [(0, 0)]
        for e in cuts:
            masks += [(inst.bits[e], 0), (0, inst.bits[e])]
        if blockers:
            # each blocker unknown, open or blocked: its (opened, blocked)
            first, second = ([(0, 0), (bit, 0), (0, bit)] for bit in
                             map(inst.bits.__getitem__, blockers))
            masks += [(o1 | o2, b1 | b2)
                      for o1, b1 in first for o2, b2 in second]
        for v in inst.vertices:
            for opened, blocked in masks:
                belief = Belief(v, opened, blocked, inst)
                assert policy.decide(inst, belief) == reference_decide(
                    policy, inst, belief), describe_belief(belief)


class TestDecisionTrees:
    def test_export_and_replay(self):
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        original, tree = export_decision_tree(inst, policy)
        replayed = evaluate_exact(inst, tree, mode="weathers")
        assert replayed.expected_cost == original

    def test_json_round_trip(self):
        inst, handle = baiting_harness(Fraction(3, 2))
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        original, tree = export_decision_tree(inst, policy)
        back = DecisionTreePolicy.from_json(tree.to_json(), inst)
        assert back == tree
        replayed = evaluate_exact(inst, back, mode="tree")
        assert replayed.expected_cost == original

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
        assert back == result.policy.unrolled()
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


def assert_matches_step_walk(inst, policy):
    """`export_decision_tree` writes, from a graph keyed by each belief,
    the tree the step-by-step walk records, node for node, and the walk
    and `evaluate_exact` price it the same."""
    price, tree = export_decision_tree(inst, policy)
    walked, want = walked_tree(inst, policy)
    assert_is_a_tree(tree)
    assert (tree.nodes, tree.root) == (want.nodes, want.root)
    assert price == walked == evaluate_exact(inst, policy).expected_cost


class TestOneTreeWriter:
    """Every reference policy `ctplab gadget --policy` exports goes through
    the one tree writer; the step-by-step walk is its oracle."""

    @pytest.mark.parametrize("length", [2, 8, 16])
    def test_baiting(self, length):
        inst, handle = baiting_harness(length)
        assert_matches_step_walk(inst, reference_policy(
            "baiting_pi", handle=handle, terminal=handle.exit_shortcut))
        for rounds in range(1, handle.n + 1):
            assert_matches_step_walk(inst, reference_policy(
                "baiting_pi_j", handle=handle, rounds=rounds,
                fallback="fallback"))

    @pytest.mark.parametrize("length", [9, 16])
    def test_observation(self, length):
        inst, handle = observation_harness(length, charge=0)
        assert_matches_step_walk(inst, reference_policy(
            "og_pi_g", handle=handle, terminal="charge"))


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
        breakdown = outcome_breakdown(trace(inst, policy))
        assert len(breakdown) == result.leaves == rows
        text = "\n".join(f"{label}\t{prob}\t{cost}"
                         for label, prob, cost in breakdown)
        assert _sha256(text) == breakdown_sha
        exported, tree = export_decision_tree(inst, policy)
        assert exported == result.expected_cost
        assert _sha256(tree.to_json()) == tree_sha
        # the one tree writer records what the step-by-step walk records
        walked, want = walked_tree(inst, policy)
        assert (tree.nodes, tree.root) == (want.nodes, want.root)
        assert walked == exported

    def test_baiting_rows_in_order(self):
        inst, policy = _pinned_case("baiting")
        breakdown = outcome_breakdown(trace(inst, policy))
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
