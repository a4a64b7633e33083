"""Solver tests: exact optima on toys, the disjoint-path index rule, and QBF."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctplab.cli import GAME_BATTERY, random_disjoint_instance
from ctplab.gadgets import (
    baiting_harness,
    build_baiting,
    forward_policy_cost,
)
import ctplab.model as M
import ctplab.policy as P
import ctplab.solve as S
from ctplab.model import (
    Belief,
    Cost,
    EnumerationCapError,
    InstanceBuilder,
    InternalCheckError,
    InvalidInstanceError,
    JointModel,
    SplitMix64,
    Variant,
)
from ctplab.policy import (
    Action,
    evaluate_exact,
    export_decision_tree,
    reference_policy,
)
from ctplab.reductions import (
    named_vc,
    normalize_half_prob,
    qbf_to_ctpdep,
    vc_to_sensing,
)
from ctplab.solve import (
    CommittingPolicy,
    QbfFormula,
    decompose_into_paths,
    parse_qdimacs,
    qbf_eval,
    qbf_strategy,
    solve,
    solve_disjoint_paths,
)
from oracles import (
    by_weathers,
    outcome_breakdown,
    stratum_mass,
    trace,
    walked_index_rule,
    walked_solve,
)
from test_model import coin_star
from test_oracle import random_instance


def sure_edge_instance(cost=5):
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", cost, id="direct")
    return b.build()


def two_path_instance():
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 1, id="cheap", block_p=Fraction(1, 2))
    b.add_edge("s", "t", 3, id="sure")
    return b.build()


class TestSolveIndependent:
    def test_sure_edge(self):
        result = solve(sure_edge_instance())
        assert result.optimal_cost == Cost.of(5)
        assert result.optimal_first_action == Action.move("direct")

    def test_two_paths(self):
        result = solve(two_path_instance())
        assert result.optimal_cost == Cost.of(2)
        # the cheap edge is visible at s, so the first step depends on it
        assert result.optimal_first_action is None

    def test_baiting_gadget_forward_policy_is_optimal(self):
        inst, handle = baiting_harness(2)
        result = solve(inst)
        assert result.optimal_cost == Cost.of(Fraction(263, 512))
        assert result.optimal_first_action == Action.move(
            handle.path_edges[0])

    def test_optimum_lower_bounds_reference_policies(self):
        inst, handle = baiting_harness(2)
        best = solve(inst).optimal_cost
        forward = reference_policy("baiting_pi", handle=handle,
                                   terminal=handle.exit_shortcut)
        assert best <= evaluate_exact(inst, forward).expected_cost
        for rounds in (1, 3, 7):
            bail = reference_policy("baiting_pi_j", handle=handle,
                                    rounds=rounds, fallback="fallback")
            assert best < evaluate_exact(inst, bail).expected_cost

    def test_returned_policy_achieves_the_optimum(self):
        inst, _ = baiting_harness(2)
        result = solve(inst)
        replay = evaluate_exact(inst, result.policy, mode="tree")
        assert replay.expected_cost == result.optimal_cost
        assert result.stats.beliefs_expanded > 0

    def test_solving_twice_is_identical(self):
        inst, _ = baiting_harness(Fraction(3, 2))
        a = solve(inst)
        b = solve(inst)
        assert a.optimal_cost == b.optimal_cost
        assert a.policy == b.policy

    def test_possible_disconnection_reports_infinite(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="only", block_p=Fraction(1, 2))
        result = solve(b.build())
        assert result.optimal_cost.is_infinite

    def test_belief_cap(self):
        inst, _ = baiting_harness(2)
        with pytest.raises(EnumerationCapError):
            solve(inst, belief_cap=3)

    def test_self_check_failure_raises(self, monkeypatch):
        exported = S.export_keyed_graph

        def skewed(instance, key, choose, tables):
            value, *rest = exported(instance, key, choose, tables)
            return Cost.of(value.fraction + 1), *rest

        monkeypatch.setattr(S, "export_keyed_graph", skewed)
        with pytest.raises(InternalCheckError, match="its policy prices"):
            solve(two_path_instance())

    def test_listing_order_is_not_id_order(self):
        # zz shows at s; zb then ya, listed out of id order, show at m
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "m", 1, id="zz", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 10, id="sure")
        b.add_edge("m", "t", 1, id="zb", block_p=Fraction(1, 2))
        b.add_edge("m", "t", 2, id="ya", block_p=Fraction(1, 2))
        inst = b.build()
        assert inst.bits == {"zz": 1, "zb": 2, "ya": 4}
        result = solve(inst)
        assert result.optimal_cost == Cost.of(Fraction(59, 8))
        # children keep the model's order; keys and labels write
        # statuses in id order
        assert result.policy.nodes["s", 1, 0].children == (
            ((0, 6), ("m", 1, 6)), ((4, 2), ("m", 5, 2)),
            ((2, 4), ("m", 3, 4)), ((6, 0), ("m", 7, 0)))
        nodes = json.loads(result.policy.to_json())["nodes"]
        assert nodes["s|zz=O"]["children"] == {
            "ya=blocked,zb=blocked": "m|ya=B,zb=B,zz=O",
            "ya=open,zb=blocked": "m|ya=O,zb=B,zz=O",
            "ya=blocked,zb=open": "m|ya=B,zb=O,zz=O",
            "ya=open,zb=open": "m|ya=O,zb=O,zz=O"}
        for key in nodes:
            ids = [part.split("=")[0] for part in key.split("|")[1].split(",")
                   if part]
            assert ids == sorted(ids), key
        # breakdown rows in the model's order: zb's outcomes, then ya's
        walked = evaluate_exact(inst, result.policy)
        assert walked.leaves == 5
        assert [label for label, _, _ in
                outcome_breakdown(trace(inst, result.policy))] == [
            "zz=blocked",
            "zz=open ; ya=blocked,zb=blocked",
            "zz=open ; ya=open,zb=blocked",
            "zz=open ; ya=blocked,zb=open",
            "zz=open ; ya=open,zb=open"]
        # the exported tree replays, and the weathers oracle agrees
        replayed = P.DecisionTreePolicy.from_json(result.policy.to_json(),
                                                inst)
        assert evaluate_exact(inst, replayed) == walked
        by_weather = evaluate_exact(inst, replayed, mode="weathers")
        assert by_weather.expected_cost == result.optimal_cost
        # one row per weather, in support order: the listed edges' rows
        # multiplied out, zz slowest and blocked first; labels in id order
        assert by_weather.leaves == 8
        assert [(label, str(cost)) for label, _, cost in
                outcome_breakdown(by_weathers(inst, replayed))] == [
            ("ya=blocked,zb=blocked,zz=blocked", "10/1"),
            ("ya=open,zb=blocked,zz=blocked", "10/1"),
            ("ya=blocked,zb=open,zz=blocked", "10/1"),
            ("ya=open,zb=open,zz=blocked", "10/1"),
            ("ya=blocked,zb=blocked,zz=open", "12/1"),
            ("ya=open,zb=blocked,zz=open", "3/1"),
            ("ya=blocked,zb=open,zz=open", "2/1"),
            ("ya=open,zb=open,zz=open", "2/1")]


def zero_bound(instance):
    return {v: 0 for v in instance.vertices}


def assert_matches_zero_bound(instance):
    """The free-space bound changes which steps get priced, nothing else."""
    bounded = solve(instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_free_space_bound", zero_bound)
        # a copy, so the solve builds its tables again
        eager = solve(dataclasses.replace(instance))
    assert bounded.optimal_cost == eager.optimal_cost
    assert bounded.optimal_first_action == eager.optimal_first_action
    assert bounded.policy.to_json() == eager.policy.to_json()


def sensing_instance(graph):
    return vc_to_sensing(named_vc(graph, 1), Fraction(1, 2))[0]


class TestBranchCap:
    def test_star_past_the_cap_raises(self, monkeypatch):
        star = coin_star(12)
        monkeypatch.setattr(M, "BELIEF_CAP", 1000)
        with pytest.raises(EnumerationCapError, match="4096 outcomes"):
            solve(star)
        policy = CommittingPolicy(decompose_into_paths(star))
        with pytest.raises(EnumerationCapError, match="4096 outcomes"):
            evaluate_exact(star, policy)


class TestBoundedSearch:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_random_toys_match_zero_bound(self, seed):
        assert_matches_zero_bound(random_disjoint_instance(SplitMix64(seed)))

    @pytest.mark.parametrize("build", [
        lambda: baiting_harness(Fraction(3, 2))[0],
        lambda: baiting_harness(2)[0],
        lambda: sensing_instance("p3"),
        lambda: sensing_instance("k3"),
        lambda: qbf_to_ctpdep(GAME_BATTERY[0][0])[0],
        lambda: qbf_to_ctpdep(GAME_BATTERY[1][0])[0],
    ], ids=["baiting-3/2", "baiting-2", "p3", "k3", "game0", "game1"])
    def test_harnesses_match_zero_bound(self, build):
        assert_matches_zero_bound(build())

    def test_bound_prunes_baiting_three(self):
        # the whole belief space holds 1,081,344 beliefs
        inst, handle = baiting_harness(3)
        result = solve(inst, belief_cap=1_000)
        assert result.optimal_cost == Cost.of(forward_policy_cost(3, 3))
        assert result.optimal_cost == Cost.of(Fraction(196653, 524288))
        assert result.optimal_first_action == Action.move(
            handle.path_edges[0])

    def test_bound_prunes_normal_form_toy(self):
        # the whole belief space holds 113,148 beliefs
        toy = random_disjoint_instance(SplitMix64(20260819 + 1000 + 6))
        result = solve(normalize_half_prob(toy), belief_cap=2_000)
        assert result.optimal_cost == solve_disjoint_paths(
            toy).optimal_cost
        assert result.optimal_cost == Cost.of(1)

    # baiting-2 skips steps; p3 pauses sums at the window and resumes them
    @pytest.mark.parametrize("build, busy", [
        (lambda: baiting_harness(2)[0], "boundary_skipped"),
        (lambda: sensing_instance("p3"), "boundary_repriced"),
    ], ids=["baiting-2", "p3"])
    def test_boundary_counts_add_up(self, build, busy, monkeypatch):
        instance = build()
        stats = solve(instance).stats
        priced = []
        branch_value = S._Solver.branch_value

        def counted(solver, opened, blocked, fresh, position, mass,
                    window=math.inf):
            priced.append(position)
            return branch_value(solver, opened, blocked, fresh, position,
                                mass, window)

        # each patch solve: a key, the positions and the region, kept
        # alive so that ids stay unique
        solves: dict[int, tuple[tuple, set, tuple]] = {}

        class Recorded(dict):
            def __setitem__(self, key, region):
                solves.setdefault(id(region), (key, set(), region))[1].add(
                    key[0])
                super().__setitem__(key, region)

        monkeypatch.setattr(S._Solver, "branch_value", counted)
        solver = S._Solver(instance, 200_000)
        solver._regions = Recorded()
        solver.branch_value(0, 0, instance.fresh_at(instance.s, 0),
                            instance.s, solver.total_mass)
        assert len(solves) == solver.regions == stats.regions
        assert (solver.evaluated, solver.steps, solver.repriced) == (
            stats.boundary_evaluated,
            stats.boundary_evaluated + stats.boundary_skipped,
            stats.boundary_repriced)
        # one pricing per evaluated step and one per resumed sum, plus the
        # root
        assert len(priced) == (stats.boundary_evaluated
                               + stats.boundary_repriced + 1)
        # every revealing step of every solved patch is one or the other
        steps = 0
        for (v, *_), patch, region in solves.values():
            # the stratum's own masks: t's key keeps none of them
            opened, blocked = region[3]
            known = M.Belief(v, opened, blocked, instance)
            seen = opened | blocked
            for u in patch - {instance.t}:
                steps += sum(
                    1 for edge, far in instance.moves_from(u).values()
                    if (not edge.uncertain or known.status(edge.id) is True)
                    and instance.fresh_at(far, seen))
                steps += sum(1 for e in instance.senses_from(u)
                             if known.status(e) is None)
        assert stats.boundary_evaluated + stats.boundary_skipped == steps
        assert getattr(stats, busy) > 0


def equal_offers_instance():
    """Two one-way moves out of s, worth exactly 4 each: `b` shows a
    cheaper bound, so it is priced first, and `a` then prices exactly up
    to `b`'s key, its window."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "x", 1, id="a", directed=True)
    b.add_edge("x", "t", 1, id="ax", block_p=Fraction(1, 2))
    b.add_edge("x", "t", 5, id="ax.sure")
    b.add_edge("s", "y", 1, id="b", directed=True)
    b.add_edge("y", "t", 0, id="by", block_p=Fraction(1, 2))
    b.add_edge("y", "t", 6, id="by.sure")
    return b.build()


class TestCutoffs:
    """Cases a Star1 cutoff once pruned: the pricing window and the reach
    keys keep a false game small, and the window, being strict, still
    prices a tie in full."""

    def test_false_game_fits_a_small_cap(self):
        # game 7 expands 121 beliefs; with every step priced eagerly and
        # every patch keyed by every status it took 57,408
        result = solve(qbf_to_ctpdep(GAME_BATTERY[7][0])[0],
                       belief_cap=1_000)
        assert result.optimal_cost == Cost.of(Fraction(1, 16))
        assert result.optimal_first_action == Action.move("default")

    def test_a_tie_is_priced_not_cut(self):
        # `a` reaches its window exactly; a pause there would hand s to `b`
        result = solve(equal_offers_instance())
        assert result.optimal_cost == Cost.of(4)
        assert result.optimal_first_action == Action.move("a")
        assert hashlib.sha256(result.policy.to_json().encode()).hexdigest() \
            == ("6351d9c6a226afd6007ae2a60db65c2b"
                "f929c460e2a06893d8c64384050b535f")
        assert_matches_zero_bound(equal_offers_instance())


class TestSolveDependent:
    def test_complementary_pair(self):
        from test_model import xor_net_instance
        inst = xor_net_instance()
        result = solve(inst)
        # one zero-cost route is open in every weather, so riding the
        # coin beats the sure unit edge outright
        assert result.optimal_cost == Cost.of(0)

    def test_observing_one_side_prices_the_other(self):
        # the pair hangs off a midpoint: seeing e_true's status at m fully
        # determines e_false, and the optimum exploits it
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "m", 0, id="walk")
        b.add_edge("m", "t", 1, id="e_true", block_p=Fraction(1, 2))
        b.add_edge("m", "t", 2, id="e_false", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 10, id="out")
        b.add_variable("coin", (), [Fraction(1, 2)])
        b.add_variable("e_true", ("coin",), [0, 1])
        b.add_variable("e_false", ("coin",), [1, 0])
        result = solve(b.build())
        assert result.optimal_cost == Cost.of(Fraction(3, 2))
        assert result.optimal_first_action == Action.move("walk")


class TestSolveSensing:
    def build(self, fee):
        b = InstanceBuilder(Variant.SENSING)
        b.set_endpoints("s", "t")
        b.add_edge("s", "x", 1, id="walk")
        b.add_edge("x", "t", 0, id="far", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 2, id="out")
        b.add_sensing("s", "far", fee)
        return b.build()

    def test_free_information_is_taken(self):
        result = solve(self.build(0))
        assert result.optimal_cost == Cost.of(Fraction(3, 2))
        assert result.optimal_first_action == Action.sense("far")

    def test_priced_information(self):
        result = solve(self.build(Fraction(1, 4)))
        assert result.optimal_cost == Cost.of(Fraction(7, 4))
        assert result.optimal_first_action == Action.sense("far")

    def test_overpriced_information_is_skipped(self):
        result = solve(self.build(Fraction(2, 3)))
        assert result.optimal_cost == Cost.of(2)
        assert result.optimal_first_action == Action.move("out")


def odd_chance_instance():
    """Chances 1/3, 2/5, 1/7 and 5/6 on costs over 3 and 7."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "a", Fraction(1, 3), id="sa", block_p=Fraction(1, 3))
    b.add_edge("s", "b", Fraction(2, 7), id="sb", block_p=Fraction(2, 5))
    b.add_edge("a", "b", Fraction(1, 7), id="ab", block_p=Fraction(1, 3))
    b.add_edge("a", "t", Fraction(4, 3), id="at", block_p=Fraction(1, 7))
    b.add_edge("b", "t", Fraction(5, 7), id="bt", block_p=Fraction(5, 6))
    b.add_edge("s", "t", 5, id="out")
    return b.build()


def third_fee_instance():
    """Two edges at chance 1/3 that s may sense for a fee of 1/3 each."""
    b = InstanceBuilder(Variant.SENSING)
    b.set_endpoints("s", "t")
    b.add_edge("s", "x", 1, id="walk")
    b.add_edge("x", "t", 0, id="near", block_p=Fraction(1, 3))
    b.add_edge("x", "y", Fraction(8, 7), id="on")
    b.add_edge("y", "t", Fraction(1, 3), id="far", block_p=Fraction(1, 3))
    b.add_edge("s", "t", 3, id="out")
    b.add_sensing("s", "near", Fraction(1, 3))
    b.add_sensing("s", "far", Fraction(1, 3))
    return b.build()


def third_net_instance():
    """A coin at chance 1/3 drives two edges with CPT entries 1/3 and 5/6."""
    coin, low, high = Fraction(1, 3), Fraction(1, 3), Fraction(5, 6)
    b = InstanceBuilder(Variant.DEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", Fraction(1, 7), id="walk")
    b.add_edge("m", "t", 1, id="e_a",
               block_p=(1 - coin) * low + coin * high)
    b.add_edge("m", "t", Fraction(2, 3), id="e_b",
               block_p=(1 - coin) * high + coin * low)
    b.add_edge("s", "t", 3, id="out")
    b.add_variable("coin", (), [coin])
    b.add_variable("e_a", ("coin",), [low, high])
    b.add_variable("e_b", ("coin",), [high, low])
    return b.build()


def ladder_instance(rungs):
    """A corridor of steps 1/7 whose i-th vertex has a shortcut to t of
    cost 1, blocked at chance 1/3; the last one also has a sure exit of
    cost 10."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("v00", "t")
    for i in range(rungs):
        b.add_edge(f"v{i:02d}", "t", 1, id=f"cut{i:02d}",
                   block_p=Fraction(1, 3))
        if i + 1 < rungs:
            b.add_edge(f"v{i:02d}", f"v{i + 1:02d}", Fraction(1, 7),
                       id=f"step{i:02d}")
    b.add_edge(f"v{rungs - 1:02d}", "t", 10, id="exit")
    return b.build()


def ladder_cost(rungs):
    """Walk on until a shortcut shows open, else take the exit."""
    step, blocked = Fraction(1, 7), Fraction(1, 3)
    return sum(blocked ** i * (1 - blocked) * (i * step + 1)
               for i in range(rungs)) + blocked ** rungs * (
                   (rungs - 1) * step + 10)


UNIT_BUILDS = {
    "odd-chances": odd_chance_instance,
    "third-fees": third_fee_instance,
    "third-net": third_net_instance,
    "ladder-6": lambda: ladder_instance(6),
}


class TestIntegerUnit:
    """The search computes M(K)·D·value in ints, D the common denominator
    of costs and fees and M(K) = Z·P(K) a stratum's integer mass."""

    def test_units(self):
        solver = S._Solver(odd_chance_instance(), 200_000)
        assert solver.denominator == 21
        assert solver.total_mass == 3 * 5 * 3 * 7 * 6
        solver = S._Solver(third_fee_instance(), 200_000)
        assert (solver.denominator, solver.total_mass) == (21, 9)
        # one component, its rows' chances 5/18, 2/9, 7/18 and 1/9
        solver = S._Solver(third_net_instance(), 200_000)
        assert (solver.denominator, solver.total_mass) == (21, 18)

    @pytest.mark.parametrize("name", ["odd-chances", "third-net"])
    def test_mass_is_z_times_the_chance_of_the_statuses(self, name):
        instance = UNIT_BUILDS[name]()
        solver = S._Solver(instance, 200_000)
        support = M.weather_support(instance)
        for statuses in itertools.product((None, True, False),
                                          repeat=len(instance.bits)):
            opened = sum(1 << i for i, x in enumerate(statuses) if x)
            blocked = sum(1 << i for i, x in enumerate(statuses)
                          if x is False)
            chance = sum(p for weather, p in support
                         if weather.blocked & (opened | blocked) == blocked)
            if chance:
                assert stratum_mass(instance, opened, blocked) \
                    == chance * solver.total_mass
        assert stratum_mass(instance, 0, 0) == solver.total_mass

    def test_an_unsearched_solver_cannot_choose(self):
        # `choose` reads the patches the search solved and solves none
        instance = odd_chance_instance()
        fresh = instance.fresh_at("s", 0)
        searched = S._Solver(instance, 200_000)
        searched.branch_value(0, 0, fresh, "s", searched.total_mass)
        for opened, blocked, _, _ in instance.outcomes({}, fresh, 0, 0):
            at = opened, blocked, "s"
            assert searched.choose(searched.key(*at), *at) is not None
            unsearched = S._Solver(instance, 200_000)
            with pytest.raises(InternalCheckError,
                               match="^the export reached a belief at s "
                                     "that the search never solved$"):
                unsearched.choose(unsearched.key(*at), *at)
            assert unsearched._regions == {}

    def test_both_fees_are_paid(self):
        result = solve(third_fee_instance())
        assert result.optimal_cost == Cost.of(Fraction(377, 189))
        assert result.optimal_first_action == Action.sense("far")
        actions = {node.action for node in result.policy.nodes.values()}
        assert Action.sense("near") in actions

    @pytest.mark.parametrize("name", sorted(UNIT_BUILDS))
    def test_matches_weathers_and_zero_bound(self, name):
        instance = UNIT_BUILDS[name]()
        result = solve(instance)
        assert not result.optimal_cost.is_infinite
        assert evaluate_exact(instance, result.policy,
                              mode="weathers").expected_cost \
            == result.optimal_cost
        assert_matches_zero_bound(instance)

    def test_long_ladder(self):
        # 64 edges at chance 1/3: Z = 3^64, past 2^90
        instance = ladder_instance(64)
        assert S._Solver(instance, 200_000).total_mass > 2 ** 90
        result = solve(instance)
        assert result.optimal_cost == Cost.of(ladder_cost(64))
        assert result.optimal_first_action is None

    def test_baiting_sixty_four(self):
        # a unit past 2^256
        instance, _ = baiting_harness(64)
        solver = S._Solver(instance, 200_000)
        assert (solver.total_mass * solver.denominator).bit_length() > 256
        assert solve(instance).optimal_cost == Cost.of(
            forward_policy_cost(64, 64))

    @pytest.mark.parametrize("build", [
        lambda: baiting_harness(8)[0],
        lambda: qbf_to_ctpdep(GAME_BATTERY[5][0])[0],
        lambda: sensing_instance("k3"),
    ], ids=["baiting-8", "game5", "k3"])
    def test_regions_hold_ints(self, build):
        instance = build()
        solver = S._Solver(instance, 200_000)
        root, done = solver.branch_value(
            0, 0, instance.fresh_at(instance.s, 0), instance.s,
            solver.total_mass)
        assert done
        assert Cost.of(Fraction(root, solver.total_mass
                                * solver.denominator)) == solve(
            instance).optimal_cost
        for values, _, scale, stratum in solver._regions.values():
            for value in values.values():
                assert type(value) is int or value == math.inf
            # the M(K) of the stratum the patch was solved at
            assert type(scale) is int \
                and scale == stratum_mass(instance, *stratum)

    def test_mass_that_does_not_divide_raises(self):
        instance = ladder_instance(2)
        solver = S._Solver(instance, 200_000)
        with pytest.raises(InternalCheckError, match="not whole"):
            solver.branch_value(0, 0, instance.fresh_at(instance.s, 0),
                                instance.s, 1)

    def test_mass_check_survives_optimize(self):
        # python -O strips asserts; the remainder check must still raise
        import ctplab
        script = (
            "import sys\n"
            "from ctplab.model import InternalCheckError, instance_from_json\n"
            "import ctplab.solve as S\n"
            "inst = instance_from_json(sys.stdin.read())\n"
            "solver = S._Solver(inst, 200_000)\n"
            "try:\n"
            "    solver.branch_value(0, 0, inst.fresh_at(inst.s, 0),"
            " inst.s, 1)\n"
            "except InternalCheckError:\n"
            "    print('raised')\n")
        src = os.path.dirname(os.path.dirname(ctplab.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            input=M.instance_to_json(ladder_instance(2)), capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.stdout == "raised\n", done.stderr


FROZEN_BUILDS = {
    "baiting-2": lambda: baiting_harness(2)[0],
    "p3": lambda: sensing_instance("p3"),
    # perfbench's largest solve-indep op; its walks reach every status
    "toy14.nf": lambda: normalize_half_prob(
        random_disjoint_instance(SplitMix64(20261833))),
}

# every unwinnable game is solved by taking the default edge at once
TREE_OF_DEFAULT = (
    "0c3411cccb648b7662cc4260bd518fb72e596235b13f0a8242248d78b28c8348")
# name: optimal cost, first action, sha256 of policy.to_json(),
# beliefs expanded, boundary steps evaluated and skipped
FROZEN_SOLVES = {
    "game0": ("0/1", "move(enter)", "bb55b696db8b29f229eb89bea6646a67"
              "208d8d3289c57813a5275fde2a64c7cf", 47, 20, 5),
    "game1": ("1/8", "move(default)", TREE_OF_DEFAULT, 53, 32, 0),
    "game2": ("0/1", "move(enter)", "65f0ddd2eccffc6839fd537ed5ba0f1b"
              "dae1aa914744464c4ef3a177684284f2", 88, 47, 10),
    "game3": ("1/8", "move(default)", TREE_OF_DEFAULT, 81, 54, 0),
    "game4": ("0/1", "move(enter)", "f5044011705e288a82ce15c95f9abf14"
              "6ce5c5e9213c15565a11069803ff902a", 144, 95, 8),
    "game5": ("0/1", "move(enter)", "ba3e895c054944759f6f4deee0f8dad5"
              "69fe29041cf7c35cd037a177da3707a9", 319, 206, 24),
    "game6": ("1/16", "move(default)", TREE_OF_DEFAULT, 65, 32, 4),
    "game7": ("1/16", "move(default)", TREE_OF_DEFAULT, 121, 82, 0),
    "baiting-2": ("263/512", "move(bg.path000)", "3978831d2ba7ef4c7add7f79"
                  "811001b10b814d78c8085acacc7e351374ee2b82", 88, 7, 6),
    "p3": ("3161165579761560626969914950619/"
           "792281625142643375935439503360", "move(visit.b)",
           "273f03560ad4355c68312fda15809bb638467d3e49925604657597a5032883d7",
           126, 42, 0),
    "toy14.nf": ("7287/1024", "None", "4c143eaaf32b13eebe23105c9828a325"
                 "64b114eeacc463c89f1c4aa06dec0050", 4332, 471, 5),
}


# name: branch tables, regions, the search's region-cache hits and shared
# hits, resumed pricings, graph nodes of the export
FROZEN_COUNTERS = {
    "game0": (14, 18, 13, 12, 1, 32), "game1": (12, 26, 48, 45, 10, 2),
    "game2": (30, 41, 34, 33, 2, 62), "game3": (30, 42, 78, 75, 16, 2),
    "game4": (67, 77, 80, 79, 8, 98), "game5": (75, 166, 219, 215, 22, 186),
    "game6": (15, 26, 40, 37, 8, 2), "game7": (25, 62, 126, 120, 24, 2),
    "baiting-2": (8, 15, 1, 0, 1, 17), "p3": (4, 19, 71, 0, 14, 22),
    "toy14.nf": (10, 433, 871, 0, 395, 558),
}


@pytest.fixture
def frozen_solve(solve_battery_game):
    """`solve` of a frozen instance; battery games come from the session."""
    def solved(name):
        build = FROZEN_BUILDS.get(name)
        return solve(build()) if build else solve_battery_game(int(name[4:]))
    return solved


class TestFrozenSolves:
    """Outputs and search counts of the solver, frozen bit for bit."""

    @pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
    def test_frozen(self, name, frozen_solve):
        result = frozen_solve(name)
        stats = result.stats
        got = (str(result.optimal_cost), str(result.optimal_first_action),
               hashlib.sha256(result.policy.to_json().encode()).hexdigest(),
               stats.beliefs_expanded, stats.boundary_evaluated,
               stats.boundary_skipped)
        assert got == FROZEN_SOLVES[name]

    @pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
    def test_costs_stay_fractions(self, name, frozen_solve):
        # the search holds integral costs as ints; none reach the result
        cost = frozen_solve(name).optimal_cost
        assert type(cost.fraction) is Fraction
        assert str(cost) == FROZEN_SOLVES[name][0]

    @pytest.mark.parametrize("name", sorted(FROZEN_COUNTERS))
    def test_counters(self, name, frozen_solve):
        result = frozen_solve(name)
        stats = result.stats
        assert (stats.branch_tables, stats.regions, stats.region_hits,
                stats.shared_hits, stats.boundary_repriced,
                stats.graph_nodes) == FROZEN_COUNTERS[name]
        # each pricing, and the root, asks for one table or reuses one
        assert stats.branch_tables <= stats.boundary_evaluated + 1
        assert stats.regions <= stats.beliefs_expanded
        # a patch serves other strata only where walks forget some bits
        assert stats.shared_hits <= stats.region_hits
        assert (stats.shared_hits > 0) == name.startswith("game")
        # a shared patch is expanded once but unrolled under every
        # stratum that reads it, so only the tree cap bounds the tree;
        # the policy holds its graph, each key once and every leaf at t
        # in one node
        assert stats.graph_nodes == len(result.policy.nodes) \
            <= P.BELIEF_CAP + 1
        assert stats.graph_nodes <= stats.tree_nodes


def assert_is_a_tree(tree):
    """Each node of `tree` but its root is named as a child exactly once,
    and the root never: the tree holds each belief once."""
    named = [child for node in tree.nodes.values()
             for _, child in node.children]
    assert sorted(named) == sorted(set(tree.nodes) - {tree.root})


def unrolling_fails(policy):
    raise AssertionError("a decision tree was unrolled")


def assert_matches_tree_walk(instance, belief_cap=P.BELIEF_CAP):
    """`solve` returns a graph of its search's keys and unrolls no tree:
    with the unroller failing it returns the same. The tree the graph
    unrolls to is the one the step-by-step walk of the same search
    (`walked_tree`) records, node for node, the graph decides as that
    tree at each of its beliefs, and the walk and `evaluate_exact` price
    it at the optimum."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(P.DecisionTreePolicy, "unrolled", unrolling_fails)
        unwritten = solve(instance, belief_cap)
    result, walked, tree = walked_solve(instance, belief_cap)
    assert (unwritten.optimal_cost, unwritten.optimal_first_action,
            unwritten.stats, unwritten.policy) == (
        result.optimal_cost, result.optimal_first_action, result.stats,
        result.policy)
    unrolled = result.policy.unrolled()
    assert_is_a_tree(unrolled)
    assert (unrolled.nodes, unrolled.root) == (tree.nodes, tree.root)
    for position, opened, blocked in unrolled.nodes:
        belief = Belief(position, opened, blocked, instance)
        assert result.policy.decide(instance, belief) \
            == unrolled.decide(instance, belief)
    # the pricing walk counts the tree's nodes and leaves from the graph
    assert result.stats.graph_nodes == len(result.policy.nodes)
    assert result.stats.tree_nodes == len(unrolled.nodes)
    priced = evaluate_exact(instance, result.policy)
    assert priced.leaves == sum(
        not node.children for node in unrolled.nodes.values())
    assert walked == priced.expected_cost == result.optimal_cost
    return result


def pair_clause_game(n):
    """forall x1 exists x2 ... exists xn: (x1 or x2) and (x3 or x4) and
    ..., a true game, through `qbf_to_ctpdep`."""
    formula = QbfFormula.of(n, [(i, i + 1) for i in range(1, n, 2)])
    return qbf_to_ctpdep(formula)[0]


# n: beliefs expanded, graph nodes and tree nodes of the solve
PAIR_CLAUSE_GAMES = {
    6: (2_221, 976, 15_224_991),
    8: (15_971, 4_790, 489_777_562_175),
}


def corridor_instance():
    """s walks to m, which shows `far`; past m, n shows `late`."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", 1, id="walk")
    b.add_edge("m", "t", 1, id="far", block_p=Fraction(1, 2))
    b.add_edge("m", "n", 1, id="on")
    b.add_edge("n", "t", 1, id="late", block_p=Fraction(1, 2))
    b.add_edge("s", "t", 10, id="out")
    return b.build()


def gate_corridor_instance(length):
    """s shows `gate` (1/2, cost 1) into u, a baiting gadget of `length`
    runs from u to v, and a sure edge of cost 0 leads from v to t. Once
    `gate` shows blocked the walker is stranded at s, and that outcome
    comes first at s, so the search's root sum stops before the open one."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "u", 1, id="gate", block_p=Fraction(1, 2))
    build_baiting(b, "u", "v", "t", length, "bg")
    b.add_edge("v", "t", 0, id="home")
    return b.build()


def hidden_twin_instance():
    """m shows `seen`; its twin `hidden`, which no walk from s sees, shares
    its coin, so the chances at m depend on both."""
    coin, low, high = Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)
    b = InstanceBuilder(Variant.DEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", 1, id="walk")
    b.add_edge("m", "t", 1, id="seen", block_p=(low + high) / 2)
    b.add_edge("u", "t", 1, id="hidden", block_p=(low + high) / 2)
    b.add_edge("s", "t", 10, id="out")
    b.add_variable("coin", (), [coin])
    b.add_variable("seen", ("coin",), [low, high])
    b.add_variable("hidden", ("coin",), [high, low])
    return b.build()


def searched(instance):
    """A solver that has searched `instance`."""
    solver = S._Solver(instance, P.BELIEF_CAP)
    solver.branch_value(0, 0, instance.fresh_at(instance.s, 0), instance.s,
                        solver.total_mass)
    return solver


def dropping_key(solver, edge, where=None):
    """`solver.key` whose cut leaves out the bit of `edge` at `where`, or
    at every position; the masks stay as the solver cut them, so no two
    beliefs share a node they did not share before."""
    every, drop = (1 << len(solver.instance.bits)) - 1, \
        solver.instance.bits[edge]

    def key(opened, blocked, start):
        k = solver.key(opened, blocked, start)
        if where not in (None, start):
            return k
        return (*k[:3], (k[3] if len(k) > 3 else every) & ~drop)

    return key


def own_choice(solver):
    """`solver.choose` at the solver's own key of each belief, whatever key
    the export is given: a mutant key then reaches the export's checks
    and not a missing patch."""
    return lambda _, *belief: solver.choose(solver.key(*belief), *belief)


class TestKeyedExport:
    """`solve` prices one graph node per search key and returns that
    graph; the step-by-step tree walk is the oracle of the tree it
    unrolls to."""

    def test_the_key_pass_chooses_once_per_key(self, monkeypatch):
        # game 5's graph holds 186 nodes and its tree 7,727; the export
        # builds every node with one choice per key, and writing the tree
        # meets the cap without choosing again
        instance = qbf_to_ctpdep(GAME_BATTERY[5][0])[0]
        solver, chosen = searched(instance), []

        def choose(*belief):
            chosen.append(belief)
            return solver.choose(*belief)

        monkeypatch.setattr(P, "BELIEF_CAP", 186)
        _, policy, nodes = P.export_keyed_graph(instance, solver.key, choose)
        assert (len(policy.nodes), nodes) == (186, 7727)
        assert len(chosen) == 186
        assert len({solver.key(*belief) for _, *belief in chosen}) == 186
        with pytest.raises(EnumerationCapError) as caught:
            policy.to_json()
        assert str(caught.value) == (
            "the decision tree exceeds the cap of 186 nodes past its root")
        assert len(chosen) == 186

    def test_a_tree_past_the_cap_is_refused_from_its_count(self,
                                                           monkeypatch):
        # the n = 6 pair-clause game: its 976 graph nodes unroll to
        # 15,224,991 tree nodes and 2^21 leaves, counted from the graph
        instance = pair_clause_game(6)
        solver = searched(instance)
        price, graph, leaves, nodes = P.price_keyed_graph(
            instance, solver.key, solver.choose)
        assert (price, len(graph), leaves, nodes) == (
            Cost.of(0), 976, 2 ** 21, 15_224_991)
        # the solve returns its graph; writing it refuses the tree before
        # any node of it is written
        result = solve(instance)
        monkeypatch.setattr(P, "TreeNode", None)
        with pytest.raises(EnumerationCapError) as caught:
            result.policy.to_json()
        assert str(caught.value) == (
            "the decision tree exceeds the cap of 200000 nodes past its root")

    @pytest.mark.parametrize("n", sorted(PAIR_CLAUSE_GAMES))
    def test_pair_clause_games(self, n):
        # trees of 1.5e7 and 4.9e11 nodes, never written: the solve holds
        # one node per key
        result = solve(pair_clause_game(n))
        stats = result.stats
        assert (str(result.optimal_cost), str(result.optimal_first_action),
                stats.beliefs_expanded, stats.graph_nodes,
                stats.tree_nodes) == ("0/1", "move(enter)",
                                      *PAIR_CLAUSE_GAMES[n])
        assert len(result.policy.nodes) == stats.graph_nodes

    def test_the_policy_holds_no_search(self, monkeypatch):
        # the returned policy keys its nodes by the search's cut key, which
        # holds only the reach table and the hulls: reference counting
        # frees the solver, its region cache and branch tables once the
        # solve returns
        solvers = []

        class Watched(S._Solver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(weakref.ref(self))

        monkeypatch.setattr(S, "_Solver", Watched)
        instance = qbf_to_ctpdep(GAME_BATTERY[5][0])[0]
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = solve(instance)
            assert [ref() for ref in solvers] == [None]
        finally:
            if enabled:
                gc.enable()
        assert hashlib.sha256(result.policy.to_json().encode()).hexdigest() \
            == FROZEN_SOLVES["game5"][2]

    @pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
    def test_frozen_solves(self, name):
        build = FROZEN_BUILDS.get(name)
        result = assert_matches_tree_walk(
            build() if build else
            qbf_to_ctpdep(GAME_BATTERY[int(name[4:])][0])[0])
        assert hashlib.sha256(result.policy.to_json().encode()).hexdigest() \
            == FROZEN_SOLVES[name][2]

    @pytest.mark.parametrize("length", [Fraction(3, 2), 2, 4, 8, 16])
    def test_baiting(self, length):
        assert_matches_tree_walk(baiting_harness(length)[0])

    @pytest.mark.parametrize("graph", ["p3", "k3"])
    def test_sensing(self, graph):
        assert_matches_tree_walk(sensing_instance(graph))

    def test_perfbench_inputs(self):
        for instance in perfbench_solve_inputs().values():
            assert_matches_tree_walk(instance)

    def test_a_cut_without_the_move_raises(self):
        # the walker takes the gamble once s shows it open
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="gamble", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 10, id="sure")
        instance = b.build()
        solver = searched(instance)
        with pytest.raises(InternalCheckError,
                           match="drops the status of move.gamble."):
            P.export_keyed_graph(instance, dropping_key(solver, "gamble"),
                                 own_choice(solver))

    def test_a_cut_without_what_a_step_shows_raises(self):
        instance = corridor_instance()
        solver = searched(instance)
        with pytest.raises(InternalCheckError,
                           match="drops a status that move.walk. can show"):
            P.export_keyed_graph(instance, dropping_key(solver, "far"),
                                 own_choice(solver))

    def test_a_cut_without_a_touched_component_raises(self):
        instance = hidden_twin_instance()
        solver = searched(instance)
        assert solve(instance).optimal_first_action == Action.move("walk")
        with pytest.raises(InternalCheckError,
                           match="chances of mask 0x1 depend on"):
            P.export_keyed_graph(instance, dropping_key(solver, "hidden"),
                                 own_choice(solver))
        # the search's own keys keep the twin
        P.export_keyed_graph(instance, solver.key, solver.choose)

    def test_a_child_that_keeps_more_raises(self):
        # s's key drops `late`, which m's keeps and the walk to m does
        # not show
        instance = corridor_instance()
        solver = searched(instance)
        with pytest.raises(InternalCheckError,
                           match="keeps statuses that its parent's drops"):
            P.export_keyed_graph(instance,
                                 dropping_key(solver, "late", "s"),
                                 own_choice(solver))

    def test_a_cycle_raises(self):
        # a policy that walks back and forth between s and m forever: once
        # m has shown `far`, it comes back to m knowing the same
        instance = corridor_instance()

        class Pacing(P.Policy):
            def decide(self, instance, belief):
                return Action.move("walk")

            def choose(self, key, opened, blocked, position):
                return Action.move("walk")

        with pytest.raises(InternalCheckError) as caught:
            P.export_keyed_graph(instance, searched(instance).key,
                                 Pacing().choose)
        assert str(caught.value) == (
            "the policy loops through the key at m|far=B")
        # keyed by each belief, it loops through the same one
        with pytest.raises(InternalCheckError) as caught:
            export_decision_tree(instance, Pacing())
        assert str(caught.value) == (
            "the policy loops through the key at m|far=B")


class TestStrandedRoot:
    """An outcome at s that strands the walker stops the root sum; `solve`
    then solves the other outcomes at s inside the search, and the export
    reads what the search solved."""

    def test_the_export_solves_no_patch(self):
        instance = gate_corridor_instance(64)
        region, export = S._Solver.region, S.export_keyed_graph
        exporting = []

        def searched_only(solver, *args):
            if exporting:
                raise AssertionError("the export solved a patch")
            return region(solver, *args)

        def exported(*args):
            exporting.append(True)
            return export(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(S._Solver, "region", searched_only)
            patch.setattr(S, "export_keyed_graph", exported)
            result = solve(instance)
        assert exporting
        stats = result.stats
        assert (result.optimal_cost, stats.beliefs_expanded,
                stats.graph_nodes, stats.tree_nodes) == (
            Cost.infinite(), 66_816, 516, 771)
        # the open outcome's policy is the walk into the corridor
        assert result.optimal_first_action is None
        assert {result.policy.nodes[child].action for _, child in
                result.policy.nodes[result.policy.root].children} == {
            None, Action.move("gate")}

    def test_matches_tree_walk(self):
        assert_matches_tree_walk(gate_corridor_instance(4))


def every_bit(instance):
    """`S._reach` as if each vertex reached every bit: every patch is then
    keyed by every revealed status."""
    return dict.fromkeys(instance.vertices, (1 << len(instance.bits)) - 1)


def assert_matches_whole_keys(instance, keyed=None):
    """Keying a patch by only the bits its walks can use changes which
    strata share it, nothing else; returns the search counts of `keyed`,
    the instance's `solve`, and of its solve with whole keys."""
    keyed = keyed or solve(instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_reach", every_bit)
        # a copy, so the solve builds its tables again
        whole = solve(dataclasses.replace(instance))
    assert keyed.optimal_cost == whole.optimal_cost
    assert keyed.optimal_first_action == whole.optimal_first_action
    assert keyed.policy.to_json() == whole.policy.to_json()
    assert whole.stats.shared_hits == 0
    return keyed.stats, whole.stats


def reach_by_search(instance):
    """`S._reach` by a search from each vertex on its own."""
    bits, found = instance.bits, {}
    for v in instance.vertices:
        seen, queue, mask = {v}, [v], 0
        while queue:
            u = queue.pop()
            if u == instance.t:
                continue
            mask |= instance.fresh_at(u, 0) | sum(
                bits[e] for e in instance.senses_from(u))
            for _, w in instance.moves_from(u).values():
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        found[v] = mask
    return found


class TestReach:
    def test_reach_ends_at_t(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="st")
        b.add_edge("m", "s", 0, id="back", directed=True, block_p=Fraction(1, 2))
        b.add_edge("t", "u", 1, id="tu")
        b.add_edge("u", "v", 1, id="far", block_p=Fraction(1, 2))
        inst = b.build()
        back, far = inst.bits["back"], inst.bits["far"]
        # s sees the edge into it, and m the edge it leaves by; a walk
        # ends at t, so none from u gets past it to s
        assert S._reach(inst) == {"s": back, "t": 0, "m": back, "u": far,
                                  "v": far}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.sampled_from(list(Variant)))
    def test_reach_matches_a_search_from_each_vertex(self, seed, variant):
        inst = random_instance(random.Random(seed), variant)
        assert S._reach(inst) == reach_by_search(inst)

    @pytest.mark.parametrize("k", [0, 5])
    def test_reach_of_battery_games(self, k):
        inst = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        assert S._reach(inst) == reach_by_search(inst)
        # some walks can no longer use every status
        assert S._Solver(inst, 200_000).keyed

    def test_tables_are_built_once_per_instance(self):
        inst = qbf_to_ctpdep(GAME_BATTERY[0][0])[0]
        first = S._Solver(inst, 200_000)
        assert S._Solver(inst, 200_000).moves is first.moves
        # an equal copy is another instance, with tables of its own
        copy = dataclasses.replace(inst)
        assert S._Solver(copy, 200_000).moves is not first.moves
        key = id(copy)
        del copy
        assert key not in S._STATICS


class TestReachKeys:
    """A patch is cached under only the statuses a walk from each of its
    positions can cross, see or be conditioned on; a stratum that differs
    in the rest reads it, rescaled to its own mass."""

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_battery_matches_whole_keys(self, k, solve_battery_game):
        keyed, whole = assert_matches_whole_keys(
            qbf_to_ctpdep(GAME_BATTERY[k][0])[0], solve_battery_game(k))
        assert keyed.shared_hits > 0
        assert keyed.regions < whole.regions
        assert keyed.beliefs_expanded < whole.beliefs_expanded

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_random_dependent_matches_whole_keys(self, seed):
        assert_matches_whole_keys(
            random_instance(random.Random(seed), Variant.DEPENDENT))

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_shared_values_are_rescaled_exactly(self, k):
        # every pricing of a solve, its window included, gives
        # what it gives in a search that shares no patch across strata
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        branch_value, region = S._Solver.branch_value, S._Solver.region
        priced, rescaled = [], []

        def recorded(solver, *args):
            priced.append((args, branch_value(solver, *args)))
            return priced[-1][1]

        def read(solver, opened, blocked, start, mass):
            # a patch solved at another M(K) than the outcome's share
            values, choices, scale = region(solver, opened, blocked, start,
                                            mass)
            if scale != mass:
                rescaled.append(values.get(start, math.inf))
            return values, choices, scale

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(S._Solver, "branch_value", recorded)
            patch.setattr(S._Solver, "region", read)
            solve(instance)
        # these games read finite values across strata of other masses
        assert any(0 < value < math.inf for value in rescaled)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(S, "_reach", every_bit)
            whole = dataclasses.replace(instance)
            for args, got in priced:
                assert branch_value(S._Solver(whole, 200_000),
                                    *args) == got

    def test_a_remainder_raises(self):
        assert M.times(6, 2, 4) == 3
        with pytest.raises(InternalCheckError,
                           match="^3 times 2/4 is not whole$"):
            M.times(3, 2, 4)


# the solve-indep inputs of perfbench, drawn from its default seed
PERFBENCH_SEED = 20260819


def perfbench_solve_inputs():
    """The instances perfbench's solve-indep and solve-dep workloads solve,
    by label."""
    inputs = {}
    for i in range(20):
        toy = random_disjoint_instance(SplitMix64(PERFBENCH_SEED + 1000 + i))
        inputs[f"toy{i:02d}"] = toy
        inputs[f"toy{i:02d}.nf"] = normalize_half_prob(toy)
    for length in (Fraction(3, 2), Fraction(2)):
        inputs[f"baiting({length})"] = baiting_harness(length)[0]
    for graph in ("p3", "k3"):
        inputs[f"vc({graph})"] = sensing_instance(graph)
    for k, (formula, _) in enumerate(GAME_BATTERY):
        inputs[f"game{k}"] = qbf_to_ctpdep(formula)[0]
    return inputs


def patch_unit(patch, unit):
    """Make `CtpInstance.cost_unit` read `unit(D)`, D the true one, on every
    instance built after the patch (a built one keeps its cached tables)."""
    true = M.CtpInstance.cost_unit.func
    patch.setattr(M.CtpInstance, "cost_unit",
                  property(lambda self: unit(true(self))))


def baiting_three_halves():
    """`baiting_harness(3/2)`, whose section costs are 3/16 (D = 16), and
    its forward policy."""
    instance, handle = baiting_harness(Fraction(3, 2))
    return instance, reference_policy("baiting_pi", handle=handle,
                                      terminal=handle.exit_shortcut)


def third_fees_solved():
    """`third_fee_instance` (fees in sevenths and thirds, D = 21) and its
    optimal policy."""
    instance = third_fee_instance()
    return instance, solve(instance).policy


def lcm_of_costs(instance):
    """The lcm of the denominators of the finite costs and fees, read
    straight from the instance's edges and sensing entries."""
    costs = [x.cost for x in instance.edges + (
        instance.sensing.entries if instance.sensing else ())]
    return math.lcm(*(c.fraction.denominator for c in costs
                      if not c.is_infinite))


class TestCostUnit:
    """D has one derivation, `CtpInstance.cost_unit`, read by the walks,
    the tree writer and the search alike: a D that does not divide a cost
    raises wherever it is read, and a multiple of it changes nothing."""

    @pytest.mark.parametrize("run", [
        lambda inst, policy: P.walk_weather(inst, policy, M.Weather(0)),
        lambda inst, policy: evaluate_exact(inst, policy, mode="tree"),
        lambda inst, policy: evaluate_exact(inst, policy, mode="weathers"),
        lambda inst, policy: export_decision_tree(inst, policy),
        lambda inst, policy: solve(inst),
    ], ids=["walk_weather", "tree", "weathers", "export", "solve"])
    def test_a_unit_that_does_not_divide_a_cost_raises(self, monkeypatch,
                                                       run):
        patch_unit(monkeypatch, lambda unit: unit // 2)
        instance, policy = baiting_three_halves()
        assert instance.cost_unit == 8
        with pytest.raises(InternalCheckError,
                           match="^8 times 3/16 is not whole$"):
            run(instance, policy)

    @pytest.mark.parametrize("build", [baiting_three_halves,
                                       third_fees_solved],
                             ids=["baiting-3/2", "third-fees"])
    def test_a_multiple_of_the_unit_changes_nothing(self, monkeypatch,
                                                    build):
        def outputs():
            instance, policy = build()
            price, tree = export_decision_tree(instance, policy)
            solved = solve(instance)
            return (
                instance.cost_unit // lcm_of_costs(instance),
                [P.walk_weather(instance, policy, weather)
                 for weather, _ in M.weather_support(instance)],
                [(evaluate_exact(instance, policy, mode=mode),
                  walk(instance, policy).rows)
                 for mode, walk in (("tree", trace),
                                    ("weathers", by_weathers))],
                price, tree.to_json(),
                solved.optimal_cost, solved.optimal_first_action,
                solved.policy.to_json(),
                P.simulate(instance, policy, 500, 7))

        want = outputs()
        patch_unit(monkeypatch, lambda unit: 3 * unit)
        got = outputs()
        assert (want[0], got[0]) == (1, 3)
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("name", sorted(UNIT_BUILDS))
    def test_the_solver_reads_the_instance_unit(self, name):
        instance = UNIT_BUILDS[name]()
        assert instance.cost_unit == lcm_of_costs(instance) == S._Solver(
            instance, 200_000).denominator

    def test_the_solver_reads_the_unit_on_perfbench_inputs(self):
        for label, instance in perfbench_solve_inputs().items():
            assert instance.cost_unit == lcm_of_costs(instance) == S._Solver(
                instance, 200_000).denominator, label


def assert_matches_eager_pricing(instance, windowed=None):
    """The pricing window changes which outcomes get priced, nothing else;
    returns the search counts of `windowed`, the instance's `solve`, and of
    its solve with every revealing step priced to its last outcome."""
    windowed = windowed or solve(instance)
    branch_value = S._Solver.branch_value

    def eager_sum(solver, opened, blocked, fresh, position, mass,
                  window=math.inf):
        # the window dropped: each sum runs to its last outcome
        return branch_value(solver, opened, blocked, fresh, position, mass)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S._Solver, "branch_value", eager_sum)
        eager = solve(instance)
    assert windowed.optimal_cost == eager.optimal_cost
    assert windowed.optimal_first_action == eager.optimal_first_action
    assert windowed.policy.to_json() == eager.policy.to_json()
    assert eager.stats.boundary_repriced == 0
    return windowed.stats, eager.stats


# name: regions of the eager and the windowed search, where the windowed
# one solves more; none does, as each patch is solved once per key
REGIONS_GROW = {}


class TestPricingWindow:
    """A popped step stops pricing once its outcomes pass the next key in
    its patch's heap and waits there, still lazy, for its turn."""

    @pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
    def test_frozen_solves_match_eager_pricing(self, name, frozen_solve):
        build = FROZEN_BUILDS.get(name)
        instance = (build() if build else
                    qbf_to_ctpdep(GAME_BATTERY[int(name[4:])][0])[0])
        windowed, eager = assert_matches_eager_pricing(
            instance, frozen_solve(name))
        assert windowed.regions <= eager.regions
        assert windowed.beliefs_expanded <= eager.beliefs_expanded

    def test_perfbench_inputs_match_eager_pricing(self):
        grown = {}
        for label, instance in perfbench_solve_inputs().items():
            windowed, eager = assert_matches_eager_pricing(instance)
            if windowed.regions > eager.regions:
                grown[label] = (eager.regions, windowed.regions)
        assert grown == REGIONS_GROW

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_random_toys_match_eager_pricing(self, seed):
        assert_matches_eager_pricing(
            random_disjoint_instance(SplitMix64(seed)))


class TestEachPatchOnce:
    """A cached patch is exact for every lookup of its key, so `region`
    solves a patch only when its start's key is missing from the cache.
    Overlapping patches may still write a shared position's key twice."""

    def test_perfbench_inputs_solve_no_cached_patch(self):
        region = S._Solver.region
        again: dict[str, int] = {}

        def recorded(solver, opened, blocked, start, *args):
            key = solver.key(opened, blocked, start)
            cached = solver._regions.get(key)
            got = region(solver, opened, blocked, start, *args)
            if cached is not None and solver._regions[key] is not cached:
                again[label] = again.get(label, 0) + 1
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(S._Solver, "region", recorded)
            for label, instance in perfbench_solve_inputs().items():
                solve(instance)
        assert again == {}


class TestRegionKeys:
    """A patch is stored with one `keys` call, and looked up without a
    `key` call where its start keeps every status: every cache entry must
    still sit under `key` of its position in the stratum that solved it,
    keyed or with whole masks."""

    @pytest.mark.parametrize("whole", [False, True], ids=["keyed", "whole"])
    @pytest.mark.parametrize("name", sorted(FROZEN_SOLVES))
    def test_entries_sit_under_their_key(self, name, whole):
        build = FROZEN_BUILDS.get(name)
        instance = (build() if build else
                    qbf_to_ctpdep(GAME_BATTERY[int(name[4:])][0])[0])
        with pytest.MonkeyPatch.context() as patch:
            if whole:
                patch.setattr(S, "_reach", every_bit)
                # a copy, so the solve builds its tables again
                instance = dataclasses.replace(instance)
            solver = searched(instance)
        # with whole masks no start is keyed; else t at least keeps none
        assert (solver.keyed == {}) == whole
        regions = solver._regions
        for key, (values, _, _, stratum) in regions.items():
            assert solver.key(*stratum, key[0]) == key
            # each position the patch settled is found from its own key
            for v in values:
                assert solver.key(*stratum, v) in regions
        assert len({id(region) for region in regions.values()}) \
            <= solver.regions


class TestTextAtTheEdges:
    """A solve writes no status text; the tree's JSON and the breakdown
    labels are written from masks, byte for byte as the text keys were."""

    @pytest.mark.parametrize("name", ["game5", "baiting-2", "p3"])
    def test_solve_writes_no_text(self, name, monkeypatch):
        build = FROZEN_BUILDS.get(name)
        instance = (build() if build else
                    qbf_to_ctpdep(GAME_BATTERY[int(name[4:])][0])[0])

        def refuse(*args):
            raise AssertionError("the solve wrote status text")

        with monkeypatch.context() as patched:
            patched.setattr(M.CtpInstance, "statuses", refuse)
            patched.setattr(M.CtpInstance, "edges_in", refuse)
            result = solve(instance)
        assert hashlib.sha256(result.policy.to_json().encode()).hexdigest() \
            == FROZEN_SOLVES[name][2]

    def test_round_trip_and_breakdown_rows(self):
        # every breakdown row of the benchmark's solves, one line each,
        # frozen bit for bit
        rows = hashlib.sha256()
        for label, instance in perfbench_solve_inputs().items():
            tree = solve(instance).policy
            text = tree.to_json()
            back = P.DecisionTreePolicy.from_json(text, instance)
            assert back.to_json() == text, label
            assert json.dumps(json.loads(text), indent=2,
                              sort_keys=True) == text, label
            breakdown = outcome_breakdown(trace(instance, back))
            assert evaluate_exact(instance, back).leaves == len(breakdown)
            for row in breakdown:
                rows.update("{}\t{}\t{}\t{}\n".format(label, *row).encode())
        assert rows.hexdigest() == (
            "2c410e3be3e6287e03296a048a5f603a0d43c1b4eedffe8b840a93d9317868cd")


def random_known(instance, rng):
    """Some statuses of one support row per component."""
    known = {}
    for comp in instance.joint.components:
        row, _ = comp.rows[rng.randrange(len(comp.rows))]
        for e in sorted(instance.edges_in(comp.mask)):
            if rng.random() < 0.5:
                known[e] = bool(row & instance.bits[e])
    return known


def masks(instance, known):
    """The (opened, blocked) masks of a dict of statuses."""
    bits = instance.bits
    return (sum(bits[e] for e, status in known.items() if status),
            sum(bits[e] for e, status in known.items() if not status))


def tables_copy(tables):
    return {fresh: (mask, dict(rows)) for fresh, (mask, rows) in
            tables.items()}


def random_branch(instance, rng):
    """Random consistent (opened, blocked) masks and the mask of up to
    three unknown targets."""
    known = random_known(instance, rng)
    unknown = [e for e in sorted(instance.bits) if e not in known]
    targets = rng.sample(unknown, rng.randint(0, min(3, len(unknown))))
    return (*masks(instance, known),
            sum(instance.bits[e] for e in targets))


class TestBranchMemo:
    """The memo key holds exactly what `JointModel.branch` reads."""

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_branch_reads_only_the_targets_components(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        joint = instance.joint
        rng = random.Random(k)
        for _ in range(200):
            opened, blocked, fresh = random_branch(instance, rng)
            cover = sum(comp.mask for comp in joint.components
                        if comp.mask & fresh)
            assert joint.branch(opened, blocked, fresh) == joint.branch(
                opened & cover, blocked & cover, fresh)

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_memo_matches_branch_across_conditionings(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        joint = instance.joint
        rng = random.Random(100 + k)
        tables = {}
        for _ in range(300):
            opened, blocked, fresh = random_branch(instance, rng)
            table = instance.outcomes(tables, fresh, opened, blocked)
            assert table == joint.branch(opened, blocked, fresh)
        # the 300 lookups shared tables
        assert sum(len(rows) for _, rows in tables.values()) < 300

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_memo_hit_equals_miss(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        rng = random.Random(k)
        vertices = sorted(instance.vertices)
        for _ in range(5):
            known = random_known(instance, rng)
            position = rng.choice(vertices)
            solver = S._Solver(instance, 200_000)
            opened, blocked = masks(instance, known)
            fresh = instance.fresh_at(position, opened | blocked)
            mass = stratum_mass(instance, opened, blocked)
            first = solver.branch_value(opened, blocked, fresh, position,
                                        mass)
            tables = tables_copy(solver.tables)
            again = solver.branch_value(opened, blocked, fresh, position,
                                        mass)
            assert again == first
            assert tables_copy(solver.tables) == tables

    def test_the_export_asks_for_no_table(self):
        # the self-check prices from the search's tables: a solve asks the
        # model once per table it counts, and never inside the export
        instances = perfbench_solve_inputs()
        instances.update((name, build()) for name, build in
                         FROZEN_BUILDS.items())
        assert set(FROZEN_SOLVES) <= set(instances)
        branch, export = JointModel.branch, S.export_keyed_graph
        exporting, calls = [], []

        def counted(self, *args):
            calls.append(bool(exporting))
            return branch(self, *args)

        def exported(*args):
            exporting.append(True)
            try:
                return export(*args)
            finally:
                exporting.clear()

        got, want = {}, {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(JointModel, "branch", counted)
            patch.setattr(S, "export_keyed_graph", exported)
            for label, instance in instances.items():
                calls.clear()
                stats = solve(instance).stats
                got[label] = (len(calls), sum(calls))
                want[label] = (stats.branch_tables, 0)
        assert got == want

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_masks_round_trip(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        rng = random.Random(200 + k)
        for _ in range(100):
            known = random_known(instance, rng)
            opened, blocked = masks(instance, known)
            assert not opened & blocked
            assert instance.statuses(opened, blocked) == sorted(known.items())
            belief = Belief("s", opened, blocked, instance)
            assert belief.known == sorted(known.items())
            assert all(belief.status(e) is status
                       for e, status in known.items())


def branch_every_time(instance, policy):
    """The outcome walk with `JointModel.branch` asked at every branch.

    A plain recursion over the same move rule, with no table kept and
    every cost a Fraction: the oracle for the memoized walk. Returns the
    expected cost and the breakdown rows, labels written as
    `outcome_breakdown` writes them.
    """
    joint = instance.joint
    # a walk of more steps between two reveals stands on some vertex twice
    cap = len(instance.vertices) + 1
    rows = []

    def leaf(labels, prob, cost):
        rows.append((" ; ".join(labels) or "no observations", prob, cost))

    def walk(belief, labels, prob, spent):
        for _ in range(cap):
            action = policy.decide(instance, belief)
            if action is None:
                return leaf(labels, prob, Cost.infinite())
            price, nxt, revealed = P._step(
                instance, belief.position, belief.opened, belief.blocked,
                action)
            if revealed is None:
                return leaf(labels, prob, Cost.of(spent))
            spent += Fraction(price, instance.cost_unit)
            if revealed:
                return reveal(belief, nxt, revealed, labels, prob, spent)
            belief = Belief(nxt, belief.opened, belief.blocked, instance)
        raise AssertionError("the walk loops")

    def reveal(belief, position, fresh, labels, prob, spent):
        opened, blocked = belief.opened, belief.blocked
        for opened_by, blocked_by, weight, total in joint.branch(
                opened, blocked, fresh):
            got = sorted([(e, "open") for e in instance.edges_in(opened_by)]
                         + [(e, "blocked")
                            for e in instance.edges_in(blocked_by)])
            label = ",".join(f"{e}={status}" for e, status in got)
            walk(Belief(position, opened | opened_by, blocked | blocked_by,
                        instance), labels + (label,),
                 prob * Fraction(weight, total), spent)

    start = Belief(instance.s, 0, 0, instance)
    fresh = instance.fresh_at(instance.s, 0)
    if fresh:
        reveal(start, instance.s, fresh, (), Fraction(1), Fraction(0))
    else:
        walk(start, (), Fraction(1), Fraction(0))
    if any(cost.is_infinite for _, _, cost in rows):
        return Cost.infinite(), tuple(rows)
    return Cost.of(sum(p * cost.fraction for _, p, cost in rows)), tuple(rows)


class TestWalkMemo:
    """The outcome walk's per-walk tables and carried keys change nothing."""

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_tree_price_matches_unmemoized_walk(self, k,
                                                solve_battery_game):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        result = solve_battery_game(k)
        walked = evaluate_exact(instance, result.policy, mode="tree")
        assert (walked.expected_cost,
                outcome_breakdown(trace(instance, result.policy))) == (
            branch_every_time(instance, result.policy))
        assert walked.expected_cost == result.optimal_cost
        components = instance.joint.components
        if math.prod(len(comp.rows) for comp in components) <= 4096:
            assert evaluate_exact(instance, result.policy,
                                  mode="weathers").expected_cost == (
                walked.expected_cost)

    def test_export_asks_each_table_once(self, monkeypatch,
                                         solve_battery_game):
        instance = qbf_to_ctpdep(GAME_BATTERY[5][0])[0]
        result = solve_battery_game(5)
        calls = []
        branch = JointModel.branch

        def counted(self, opened, blocked, fresh):
            calls.append(fresh)
            return branch(self, opened, blocked, fresh)

        monkeypatch.setattr(JointModel, "branch", counted)
        priced, tree = export_decision_tree(instance, result.policy)
        assert tree.to_json() == result.policy.to_json()
        assert priced == result.optimal_cost
        # 2,047 calls when every branch asked the model
        assert len(calls) <= 40

    def test_tree_cap(self, monkeypatch):
        # the cap counts nodes past the root: a 2,450-node tree passes at
        # 2,449 and not at 2,448
        inst = route_bundle(6)
        nodes = len(solve_disjoint_paths(inst).policy.nodes)
        monkeypatch.setattr(P, "BELIEF_CAP", nodes - 1)
        assert len(solve_disjoint_paths(inst).policy.nodes) == nodes
        monkeypatch.setattr(P, "BELIEF_CAP", nodes - 2)
        with pytest.raises(EnumerationCapError, match="decision tree"):
            solve_disjoint_paths(inst)
        # `solve` holds its graph, where every leaf at t shares a node:
        # only writing its tree meets the tree cap
        result = solve(inst)
        assert result.stats.graph_nodes < nodes - 2 < result.stats.tree_nodes
        with pytest.raises(EnumerationCapError, match="decision tree"):
            result.policy.to_json()
        # pricing, which writes no tree, still keeps one graph node per
        # belief, and the graph is capped alike
        paths = CommittingPolicy(decompose_into_paths(inst))
        with pytest.raises(EnumerationCapError) as caught:
            evaluate_exact(inst, paths)
        assert str(caught.value) == (
            f"the decision tree exceeds the cap of {nodes - 2} nodes past "
            "its root")


def three_path_instance(case):
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    if case == 0:
        b.add_edge("s", "a", 1, id="p1a")
        b.add_edge("a", "t", 2, id="p1b", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 4, id="p2")
        b.add_edge("s", "b", 0, id="p3a", block_p=Fraction(1, 4))
        b.add_edge("b", "t", 1, id="p3b", block_p=Fraction(1, 2))
    elif case == 1:
        b.add_edge("s", "t", 1, id="q1", block_p=Fraction(3, 4))
        b.add_edge("s", "c", Fraction(1, 2), id="q2a")
        b.add_edge("c", "t", Fraction(1, 2), id="q2b", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 3, id="q3")
    else:
        b.add_edge("s", "d", 0, id="r1a", block_p=Fraction(1, 2))
        b.add_edge("d", "e", 1, id="r1b", block_p=Fraction(1, 2))
        b.add_edge("e", "t", 0, id="r1c", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 2, id="r2")
        b.add_edge("s", "f", 1, id="r3a")
        b.add_edge("f", "t", 0, id="r3b", block_p=Fraction(1, 4))
    return b.build()


def committing_bruteforce(instance):
    """The best committing policy found by pricing every route order.

    The k! orders are tried lexicographically and the first best one
    wins; its tree is exported, as the index rule exports its own.
    """
    best = None
    for order in itertools.permutations(decompose_into_paths(instance)):
        policy = CommittingPolicy(order)
        cost = evaluate_exact(instance, policy).expected_cost
        if best is None or cost < best[0]:
            best = (cost, policy)
    cost, policy = best
    _, tree = export_decision_tree(instance, policy)
    return S.OptResult(cost, S._first_action(tree), tree,
                       S.SolveStats(len(tree.nodes)))


def route_bundle(routes):
    """3-edge routes on fair coins; only the last, dearest one is sure."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    for i in range(routes):
        sure = i == routes - 1
        p = Fraction(0) if sure else Fraction(1, 2)
        cost = 4 * routes if sure else 1
        b.add_edge("s", f"a{i}", cost, id=f"r{i}a", block_p=p)
        b.add_edge(f"a{i}", f"b{i}", cost + i, id=f"r{i}b", block_p=p)
        b.add_edge(f"b{i}", "t", cost, id=f"r{i}c", block_p=p)
    return b.build()


class TestDisjointBruteforce:
    def test_single_sure_path(self):
        result = solve_disjoint_paths(sure_edge_instance(7))
        assert result.optimal_cost == Cost.of(7)

    def test_two_paths(self):
        result = solve_disjoint_paths(two_path_instance())
        assert result.optimal_cost == Cost.of(2)

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_matches_full_solver(self, case):
        inst = three_path_instance(case)
        brute = solve_disjoint_paths(inst)
        full = solve(inst)
        assert brute.optimal_cost == full.optimal_cost

    @pytest.mark.parametrize("i", range(20))
    def test_tree_matches_the_step_walk(self, i):
        # the committing policy's tree, written from a graph keyed by each
        # belief, is the step-by-step walk's node for node, and all three
        # prices agree on the perfbench toys
        toy = random_disjoint_instance(SplitMix64(PERFBENCH_SEED + 1000 + i))
        result, walked, tree = walked_index_rule(toy)
        assert result.policy.nodes == tree.nodes
        assert result.policy.root == tree.root
        # the index rule's graph is its tree
        assert result.stats.graph_nodes == result.stats.tree_nodes == len(
            tree.nodes)
        assert walked == result.optimal_cost == evaluate_exact(
            toy, result.policy).expected_cost

    def test_decomposition_shape(self):
        paths = decompose_into_paths(three_path_instance(0))
        assert sorted(len(p.edges) for p in paths) == [1, 2, 2]

    def test_rejects_junctions(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "a", 1, id="e1")
        b.add_edge("a", "t", 1, id="e2")
        b.add_edge("a", "t", 1, id="e3")
        with pytest.raises(InvalidInstanceError, match="degree"):
            solve_disjoint_paths(b.build())

    def test_routes_listed_from_t_towards_s(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("a", "s", 1, id="as")
        b.add_edge("t", "a", 1, id="ta")
        b.add_edge("t", "s", 3, id="ts")
        assert decompose_into_paths(b.build()) == (
            S.PathInfo(("s", "a", "t"), ("as", "ta")),
            S.PathInfo(("s", "t"), ("ts",)))

    def test_every_small_multigraph_decomposes_or_is_refused(self):
        # s, t and up to 3 more vertices, up to 5 edges, every other edge
        # listed head first: each graph is refused, or splits into s-t
        # paths with disjoint interiors that use each edge exactly once
        split = refused = 0
        for extra in range(4):
            names = ["s", "t", *(f"v{i}" for i in range(extra))]
            pairs = list(itertools.combinations(names, 2))
            for count in range(6):
                for chosen in itertools.combinations_with_replacement(
                        pairs, count):
                    b = InstanceBuilder(Variant.INDEPENDENT)
                    b.set_endpoints("s", "t")
                    for name in names:
                        b.add_vertex(name)
                    for j, (u, v) in enumerate(chosen):
                        b.add_edge(*((u, v) if j % 2 else (v, u)), 1,
                                   id=f"e{j}")
                    instance = b.build()
                    try:
                        paths = decompose_into_paths(instance)
                    except InvalidInstanceError:
                        refused += 1
                        continue
                    split += 1
                    edges = instance.edge_map
                    used = [eid for p in paths for eid in p.edges]
                    assert sorted(used) == sorted(edges), chosen
                    seen: set[str] = set()
                    for p in paths:
                        assert (p.vertices[0], p.vertices[-1]) == ("s", "t")
                        assert len(set(p.vertices)) == len(p.vertices)
                        for eid, a, z in zip(p.edges, p.vertices,
                                             p.vertices[1:]):
                            assert {edges[eid].tail, edges[eid].head} == {
                                a, z}, chosen
                        assert not p.interior & seen, chosen
                        seen |= p.interior
        assert split and refused

    def test_rejects_directed(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="e1", directed=True)
        with pytest.raises(InvalidInstanceError, match="undirected"):
            solve_disjoint_paths(b.build())

    def test_opening_cap(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        for i in range(7):
            b.add_edge("s", "t", i + 1, id=f"w{i}")
        assert solve_disjoint_paths(b.build()).optimal_cost == Cost.of(1)
        # the tree's size bounds the walk, not the openings: eleven coins
        # make a 4,096-node tree
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        for i in range(11):
            b.add_edge("s", "t", i + 1, id=f"w{i}", block_p=Fraction(1, 2))
        result = solve_disjoint_paths(b.build())
        assert result.optimal_cost.is_infinite
        assert len(result.policy.nodes) == 4096
        # ten 3-coin routes make 642,372 nodes, refused before any is built
        began = time.perf_counter()
        with pytest.raises(EnumerationCapError,
                           match="642372 nodes, past the cap of 200000"):
            solve_disjoint_paths(route_bundle(11))
        assert time.perf_counter() - began < 1

    def test_tree_size_is_derived(self, monkeypatch):
        sizes = []
        derive = S._tree_size

        def recorded(instance, routes):
            sizes.append(derive(instance, routes))
            return sizes[-1]

        monkeypatch.setattr(S, "_tree_size", recorded)
        instances = [random_disjoint_instance(SplitMix64(seed))
                     for seed in range(400)]
        instances += [route_bundle(k) for k in range(1, 7)]
        for inst in instances:
            nodes = len(solve_disjoint_paths(inst).policy.nodes)
            assert sizes == [nodes]
            sizes.clear()

    def test_matches_committing_bruteforce(self):
        for seed in range(12345, 12445):
            toy = random_disjoint_instance(SplitMix64(seed))
            rule = solve_disjoint_paths(toy)
            brute = committing_bruteforce(toy)
            assert rule.optimal_cost == brute.optimal_cost
            assert rule.optimal_first_action == brute.optimal_first_action
            assert rule.policy.to_json() == brute.policy.to_json()

    @pytest.mark.parametrize("routes", [4, 6])
    def test_bundle_matches_full_solver(self, routes):
        inst = route_bundle(routes)
        assert (solve_disjoint_paths(inst).optimal_cost
                == solve(inst).optimal_cost)

    def test_skips_routes_with_an_infinite_edge(self):
        # the cover gadget's anchor routes can never be finished
        assert (solve_disjoint_paths(sensing_instance("p3")).optimal_cost
                == Cost.of(4))

    def test_rejects_dependent(self):
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="e1", block_p=Fraction(1, 2))
        b.add_edge("s", "t", 3, id="e2")
        b.add_variable("e1", (), [Fraction(1, 2)])
        with pytest.raises(InvalidInstanceError, match="independent edges"):
            solve_disjoint_paths(b.build())

    def test_self_check_failure_raises(self, monkeypatch):
        exported = S.export_decision_tree

        def skewed(instance, policy):
            price, tree = exported(instance, policy)
            return Cost.of(price.fraction + 1), tree

        monkeypatch.setattr(S, "export_decision_tree", skewed)
        with pytest.raises(InternalCheckError, match="index rule"):
            solve_disjoint_paths(two_path_instance())


SAT = QbfFormula.of(2, [(1, 2), (-1, 2)])
UNSAT = QbfFormula.of(2, [(1, 2), (1, -2)])


class TestQbf:
    def test_satisfiable(self):
        assert qbf_eval(SAT) is True

    def test_unsatisfiable(self):
        assert qbf_eval(UNSAT) is False

    def test_vacuous(self):
        assert qbf_eval(QbfFormula.of(2, [])) is True

    def test_four_variable(self):
        # x2 can copy x1 and x4 can copy x3
        f = QbfFormula.of(4, [(-1, 2), (1, -2), (-3, 4), (3, -4)])
        assert qbf_eval(f) is True
        g = QbfFormula.of(4, [(1, 2, 3), (-2,), (-3,), (-1,)])
        assert qbf_eval(g) is False

    def test_clause_validation(self):
        with pytest.raises(ValueError, match="variable"):
            QbfFormula.of(0, [])
        with pytest.raises(ValueError, match="literal"):
            QbfFormula.of(2, [(3,)])
        with pytest.raises(ValueError, match="clause"):
            QbfFormula.of(2, [(1, 2, 1, 2)])

    def test_prefix_is_derived_from_n(self):
        f = QbfFormula.of(3, [(1, -3)])
        assert f == QbfFormula(3, ((1, -3),))
        assert f.quantifiers == ("A", "E", "A")

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            qbf_eval(QbfFormula.of(30, []), cap=24)

    def test_strategy_on_satisfiable(self):
        plan = qbf_strategy(SAT)
        assert plan == {(False,): True, (True,): True}

    def test_strategy_prefers_false(self):
        f = QbfFormula.of(2, [(1, -2), (-1, 2)])  # x2 must equal x1
        assert qbf_strategy(f) == {(False,): False, (True,): True}

    def test_no_strategy_when_false(self):
        assert qbf_strategy(UNSAT) is None


def reference_value(formula: QbfFormula,
                    prefix: tuple[bool, ...] = ()) -> bool:
    """Game value after `prefix`, searching both choices at every node.

    An independent oracle for the short-circuiting search behind
    `qbf_eval` and `qbf_strategy`: no early exit, no plan.
    """
    assignment = list(prefix) + [False] * (formula.n - len(prefix))

    def play(i: int) -> bool:
        if i == formula.n:
            return all(any(assignment[abs(lit) - 1] == (lit > 0)
                           for lit in clause) for clause in formula.clauses)
        results = []
        for value in (False, True):
            assignment[i] = value
            results.append(play(i + 1))
        if formula.quantifiers[i] == "A":
            return results[0] and results[1]
        return results[0] or results[1]

    return play(len(prefix))


def small_formulas():
    """Every game on n <= 4 variables with few distinct clauses.

    Clauses are sets of 1 to 3 distinct literals and formulas sets of
    distinct clauses: up to 3 clauses for n <= 2, up to 2 for n = 3, 4.
    """
    for n in range(1, 5):
        lits = [sign * i for i in range(1, n + 1) for sign in (1, -1)]
        clauses = [c for k in (1, 2, 3)
                   for c in itertools.combinations(lits, k)]
        for m in range(4 if n <= 2 else 3):
            for chosen in itertools.combinations(clauses, m):
                yield QbfFormula.of(n, chosen)


class TestGameOracle:
    def test_value_matches_full_search(self):
        formulas = list(small_formulas())
        assert len(formulas) == 5619
        for formula in formulas:
            assert qbf_eval(formula) is reference_value(formula), formula

    def test_plan_wins_and_prefers_false(self):
        for formula in small_formulas():
            plan = qbf_strategy(formula)
            if not reference_value(formula):
                assert plan is None, formula
                continue
            consulted = set()

            def follow(values: tuple[bool, ...]) -> None:
                i = len(values)
                if i == formula.n:
                    assert reference_value(formula, values), (formula, values)
                elif formula.quantifiers[i] == "A":
                    for value in (False, True):
                        follow(values + (value,))
                else:
                    choice = plan[values]
                    consulted.add(values)
                    if choice:  # False is recorded whenever it wins
                        assert not reference_value(formula, values + (False,))
                    follow(values + (choice,))

            follow(())
            assert consulted == set(plan), formula


QDIMACS_OK = """\
c a satisfiable toy
p cnf 2 2
a 1 0
e 2 0
1 2 0
-1 2 0
"""


class TestQdimacs:
    def test_round_trip(self):
        formula = parse_qdimacs(QDIMACS_OK)
        assert formula == SAT

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_qdimacs("a 1 0\n")

    def test_bad_alternation(self):
        text = "p cnf 2 1\ne 1 0\na 2 0\n1 0\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_qdimacs(text)

    def test_out_of_order_variable(self):
        text = "p cnf 2 1\na 2 0\ne 1 0\n1 0\n"
        with pytest.raises(ValueError, match="order"):
            parse_qdimacs(text)

    def test_oversized_clause(self):
        text = "p cnf 4 1\na 1 0\ne 2 0\na 3 0\ne 4 0\n1 2 3 4 0\n"
        with pytest.raises(ValueError, match="line 6"):
            parse_qdimacs(text)

    def test_clause_count_mismatch(self):
        text = "p cnf 2 3\na 1 0\ne 2 0\n1 0\n"
        with pytest.raises(ValueError, match="promised"):
            parse_qdimacs(text)

    @pytest.mark.parametrize("text,where", [
        ("p cnf \uff12 1\na 1 0\ne 2 0\n1 2 0\n", "line 1: malformed"),
        ("p cnf 2 1\na 1 0\ne \u0662 0\n1 2 0\n", "line 3: bad variable"),
        ("p cnf 2 1\na 1 0\ne 2 0\n1 +2 0\n", "line 4: unreadable"),
        ("p cnf 2 1\na 1 0\ne 2 0\n1_0 0\n", "line 4: unreadable"),
        ("p cnf x 1\n", "^line 1: malformed header 'p cnf x 1'$"),
    ], ids=["fullwidth-header", "arabic-indic-variable", "plus-literal",
            "underscore-literal", "letter-header"])
    def test_numbers_are_ascii_digits_only(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_qdimacs(text)

    def test_quantifier_after_clause(self):
        text = "p cnf 2 1\na 1 0\n1 0\ne 2 0\n"
        with pytest.raises(ValueError, match="after clauses"):
            parse_qdimacs(text)
