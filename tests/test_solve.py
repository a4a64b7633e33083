"""Solver tests: exact optima on toys, the disjoint-path index rule, and QBF."""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctplab.cli import GAME_BATTERY, random_disjoint_instance
from ctplab.gadgets import baiting_harness, forward_policy_cost
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
    EvalResult,
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
from test_model import coin_star


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
        exported = S.export_decision_tree

        def skewed(instance, policy):
            result, tree = exported(instance, policy)
            return EvalResult(Cost.of(result.expected_cost.plain + 1),
                              result.outcome_breakdown), tree

        monkeypatch.setattr(S, "export_decision_tree", skewed)
        with pytest.raises(InternalCheckError, match="exported tree"):
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
        # keys and labels write statuses in id order
        nodes = result.policy.nodes
        assert nodes["s|zz=O"].children == (
            ("ya=blocked,zb=blocked", "m|ya=B,zb=B,zz=O"),
            ("ya=open,zb=blocked", "m|ya=O,zb=B,zz=O"),
            ("ya=blocked,zb=open", "m|ya=B,zb=O,zz=O"),
            ("ya=open,zb=open", "m|ya=O,zb=O,zz=O"))
        for key in nodes:
            ids = [part.split("=")[0] for part in key.split("|")[1].split(",")
                   if part]
            assert ids == sorted(ids), key
        # breakdown rows in the model's order: zb's outcomes, then ya's
        walked = evaluate_exact(inst, result.policy)
        assert [label for label, _, _ in walked.outcome_breakdown] == [
            "zz=blocked",
            "zz=open ; ya=blocked,zb=blocked",
            "zz=open ; ya=open,zb=blocked",
            "zz=open ; ya=blocked,zb=open",
            "zz=open ; ya=open,zb=open"]
        # the exported tree replays, and the weathers oracle agrees
        replayed = P.DecisionTreePolicy.from_json(result.policy.to_json())
        assert evaluate_exact(inst, replayed) == walked
        assert evaluate_exact(inst, replayed, mode="weathers").expected_cost \
            == result.optimal_cost


def zero_bound(instance):
    return {v: 0 for v in instance.vertices}


def assert_matches_zero_bound(instance):
    """The free-space bound changes which steps get priced, nothing else."""
    bounded = solve(instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_free_space_bound", zero_bound)
        eager = solve(instance)
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

    @pytest.mark.parametrize("build", [
        lambda: baiting_harness(2)[0],
        lambda: sensing_instance("p3"),
    ], ids=["baiting-2", "p3"])
    def test_boundary_counts_add_up(self, build, monkeypatch):
        instance = build()
        stats = solve(instance).stats
        priced = []
        branch_value = S._Solver.branch_value

        def counted(solver, opened, blocked, fresh, position):
            priced.append(position)
            return branch_value(solver, opened, blocked, fresh, position)

        monkeypatch.setattr(S._Solver, "branch_value", counted)
        solver = S._Solver(instance, 200_000)
        solver.branch_value(0, 0, instance.fresh_at(instance.s, 0),
                            instance.s)
        assert (solver.evaluated, solver.skipped) == (
            stats.boundary_evaluated, stats.boundary_skipped)
        # one pricing per evaluated step, plus the root
        assert len(priced) == stats.boundary_evaluated + 1
        # every revealing step of every solved patch is one or the other
        patches: dict[int, tuple[M.Belief, set]] = {}
        for (opened, blocked, v), region in solver._regions.items():
            known = M.Belief(v, opened, blocked, instance)
            patches.setdefault(id(region), (known, set()))[1].add(v)
        steps = 0
        for known, patch in patches.values():
            seen = known.opened | known.blocked
            for u in patch - {instance.t}:
                steps += sum(
                    1 for edge, far in instance.moves_from(u).values()
                    if (not edge.uncertain or known.status(edge.id) is True)
                    and instance.fresh_at(far, seen))
                steps += sum(1 for e in instance.senses_from(u)
                             if known.status(e) is None)
        assert stats.boundary_evaluated + stats.boundary_skipped == steps
        assert stats.boundary_skipped > 0


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


FROZEN_BUILDS = {
    "baiting-2": lambda: baiting_harness(2)[0],
    "p3": lambda: sensing_instance("p3"),
}

# every unwinnable game is solved by taking the default edge at once
TREE_OF_DEFAULT = (
    "0c3411cccb648b7662cc4260bd518fb72e596235b13f0a8242248d78b28c8348")
# name: optimal cost, first action, sha256 of policy.to_json(),
# beliefs expanded, boundary steps evaluated, boundary steps skipped
FROZEN_SOLVES = {
    "game0": ("0/1", "move(enter)", "bb55b696db8b29f229eb89bea6646a67"
              "208d8d3289c57813a5275fde2a64c7cf", 124, 29, 6),
    "game1": ("1/8", "move(default)", TREE_OF_DEFAULT, 896, 183, 0),
    "game2": ("0/1", "move(enter)", "65f0ddd2eccffc6839fd537ed5ba0f1b"
              "dae1aa914744464c4ef3a177684284f2", 384, 107, 20),
    "game3": ("1/8", "move(default)", TREE_OF_DEFAULT, 2104, 503, 16),
    "game4": ("0/1", "move(enter)", "f5044011705e288a82ce15c95f9abf14"
              "6ce5c5e9213c15565a11069803ff902a", 2352, 575, 32),
    "game5": ("0/1", "move(enter)", "ba3e895c054944759f6f4deee0f8dad5"
              "69fe29041cf7c35cd037a177da3707a9", 28344, 6651, 644),
    "game6": ("1/16", "move(default)", TREE_OF_DEFAULT, 1420, 317, 58),
    "game7": ("1/16", "move(default)", TREE_OF_DEFAULT, 57408, 11767, 0),
    "baiting-2": ("263/512", "move(bg.path000)", "3978831d2ba7ef4c7add7f79"
                  "811001b10b814d78c8085acacc7e351374ee2b82", 88, 7, 6),
    "p3": ("3161165579761560626969914950619/"
           "792281625142643375935439503360", "move(visit.b)",
           "273f03560ad4355c68312fda15809bb638467d3e49925604657597a5032883d7",
           180, 43, 15),
}


# name: branch tables, regions, region-cache hits
FROZEN_COUNTERS = {
    "game0": (14, 47, 55), "game1": (18, 367, 1), "game2": (30, 159, 207),
    "game3": (70, 903, 1), "game4": (67, 1007, 463),
    "game5": (75, 11639, 6703), "game6": (24, 547, 1),
    "game7": (27, 23535, 1), "baiting-2": (8, 15, 16), "p3": (4, 27, 81),
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
        assert (stats.branch_tables, stats.regions,
                stats.region_hits) == FROZEN_COUNTERS[name]
        # each pricing, and the root, asks for one table or reuses one
        assert stats.branch_tables <= stats.boundary_evaluated + 1
        assert stats.regions <= stats.beliefs_expanded
        # so a solve within the belief cap stays within the tree cap
        assert len(result.policy.nodes) <= stats.beliefs_expanded + 1


def random_known(joint, rng):
    """Some statuses of one support row per component."""
    known = {}
    for comp in joint.components:
        statuses, _ = comp.rows[rng.randrange(len(comp.rows))]
        for e, status in zip(comp.edge_ids, statuses):
            if rng.random() < 0.5:
                known[e] = status
    return known


def masks(instance, known):
    """The (opened, blocked) masks of a dict of statuses."""
    bits = instance.bits
    return (sum(bits[e] for e, status in known.items() if status),
            sum(bits[e] for e, status in known.items() if not status))


def tables_copy(tables):
    return {fresh: (mask, dict(rows)) for fresh, (mask, rows) in
            tables.items()}


def random_branch(joint, rng):
    """Random consistent statuses and up to three unknown targets."""
    known = random_known(joint, rng)
    unknown = [e for e in sorted(joint.component_of) if e not in known]
    return known, rng.sample(unknown, rng.randint(0, min(3, len(unknown))))


class TestBranchMemo:
    """The memo key holds exactly what `JointModel.branch` reads."""

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_branch_reads_only_the_targets_components(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        joint = instance.joint
        rng = random.Random(k)
        for _ in range(200):
            known, targets = random_branch(joint, rng)
            comps = {joint.component_of[e] for e in targets}
            restricted = {e: status for e, status in known.items()
                          if joint.component_of[e] in comps}
            assert joint.branch(known, targets) == joint.branch(
                restricted, targets)

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_memo_matches_branch_across_conditionings(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        joint = instance.joint
        rng = random.Random(100 + k)
        tables = {}
        for _ in range(300):
            known, targets = random_branch(joint, rng)
            # targets are asked for in bit order, the order of `fresh_at`
            targets.sort(key=instance.bits.get)
            fresh = sum(instance.bits[e] for e in targets)
            table = instance.outcomes(tables, fresh, *masks(instance, known))
            assert [(dict(instance.statuses(opened, blocked)), prob)
                    for opened, blocked, prob in table] == joint.branch(
                known, targets)
        # the 300 lookups shared tables
        assert sum(len(rows) for _, rows in tables.values()) < 300

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_memo_hit_equals_miss(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        rng = random.Random(k)
        vertices = sorted(instance.vertices)
        for _ in range(5):
            known = random_known(instance.joint, rng)
            position = rng.choice(vertices)
            solver = S._Solver(instance, 200_000)
            opened, blocked = masks(instance, known)
            fresh = instance.fresh_at(position, opened | blocked)
            first = solver.branch_value(opened, blocked, fresh, position)
            tables = tables_copy(solver.tables)
            again = solver.branch_value(opened, blocked, fresh, position)
            assert again == first
            assert tables_copy(solver.tables) == tables

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_masks_round_trip(self, k):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        rng = random.Random(200 + k)
        for _ in range(100):
            known = random_known(instance.joint, rng)
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
    every cost a Fraction: the oracle for the memoized walk.
    """
    joint = instance.joint
    cap = P._step_cap(instance)
    rows = []

    def leaf(labels, prob, cost):
        rows.append((" ; ".join(labels) or "no observations", prob, cost))

    def targets(mask):
        return [e.id for e in instance.uncertain_edges
                if instance.bits[e.id] & mask]

    def walk(belief, known, labels, prob, spent):
        for _ in range(cap):
            action = policy.decide(instance, belief)
            if action is None:
                return leaf(labels, prob, Cost.infinite())
            price, nxt, revealed = P._step(instance, belief, action)
            if revealed is None:
                return leaf(labels, prob, Cost.of(spent))
            spent += price
            if revealed:
                return reveal(known, nxt, targets(revealed), labels, prob,
                              spent)
            belief = Belief(nxt, belief.opened, belief.blocked, instance)
        raise AssertionError("the walk loops")

    def reveal(known, position, targets, labels, prob, spent):
        for got, p in joint.branch(known, targets):
            label = ",".join(f"{e}={'open' if v else 'blocked'}"
                             for e, v in sorted(got.items()))
            grown = {**known, **got}
            walk(Belief(position, *masks(instance, grown), instance), grown,
                 labels + (label,), prob * p, spent)

    fresh = instance.fresh_at(instance.s, 0)
    if fresh:
        reveal({}, instance.s, targets(fresh), (), Fraction(1), Fraction(0))
    else:
        walk(Belief(instance.s, 0, 0, instance), {}, (), Fraction(1),
             Fraction(0))
    return P._summed(rows)


class TestWalkMemo:
    """The outcome walk's per-walk tables and carried keys change nothing."""

    @pytest.mark.parametrize("k", range(len(GAME_BATTERY)))
    def test_tree_price_matches_unmemoized_walk(self, k,
                                                solve_battery_game):
        instance = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        result = solve_battery_game(k)
        walked = evaluate_exact(instance, result.policy, mode="tree")
        assert walked == branch_every_time(instance, result.policy)
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

        def counted(self, known, targets):
            calls.append(tuple(targets))
            return branch(self, known, targets)

        monkeypatch.setattr(JointModel, "branch", counted)
        priced, tree = export_decision_tree(instance, result.policy)
        assert tree.to_json() == result.policy.to_json()
        assert priced.expected_cost == result.optimal_cost
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
        with pytest.raises(EnumerationCapError, match="decision tree"):
            solve(inst)
        # pricing without a tree is not capped
        paths = CommittingPolicy(decompose_into_paths(inst))
        assert not evaluate_exact(inst, paths).expected_cost.is_infinite


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
            result, tree = exported(instance, policy)
            return EvalResult(Cost.of(result.expected_cost.plain + 1),
                              result.outcome_breakdown), tree

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
    ], ids=["fullwidth-header", "arabic-indic-variable", "plus-literal",
            "underscore-literal"])
    def test_numbers_are_ascii_digits_only(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_qdimacs(text)

    def test_quantifier_after_clause(self):
        text = "p cnf 2 1\na 1 0\n1 0\ne 2 0\n"
        with pytest.raises(ValueError, match="after clauses"):
            parse_qdimacs(text)
