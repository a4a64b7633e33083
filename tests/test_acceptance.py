"""Acceptance battery: one test per headline guarantee of the package.

Run with `pytest -v tests/test_acceptance.py` to get one pass or fail
line per criterion. Every comparison is exact rational equality except
the seeded simulation, which uses a four sigma statistical band.
"""

from fractions import Fraction

from ctplab.cli import GAME_BATTERY, random_disjoint_instance
from ctplab.gadgets import (
    bailout_policy_cost,
    baiting_harness,
    detour_price,
    forward_policy_cost,
    section_count,
)
from ctplab.model import Cost, SplitMix64
from ctplab.policy import Action, evaluate_exact, reference_policy, simulate
from ctplab.reductions import (
    _game_graph,
    certificate,
    named_vc,
    normalize_half_prob,
    qbf_to_ctpdep,
    vc_to_sensing,
)
from ctplab.solve import (
    CommittingPolicy,
    QbfFormula,
    decompose_into_paths,
    qbf_eval,
    solve,
    solve_disjoint_paths,
)

F = Fraction
SEED = 20260819


def test_c01_baiting_solver_matches_closed_form():
    """The exact solver reproduces the forward-walk formula on the
    baiting harness, entering the corridor first, at both spans."""
    for length in (F(3, 2), F(2)):
        instance, handle = baiting_harness(length)
        result = solve(instance)
        assert result.optimal_cost == Cost.of(
            forward_policy_cost(length, length))
        assert result.optimal_first_action == Action.move(
            handle.path_edges[0])


def test_c02_forward_walk_dominates_bailouts():
    """At every game span the forward walk stays under 3/4 and beats
    every bailout round count with a unit fallback."""
    for m in range(1, 9):
        length = F(8 * m + 16)
        forward = forward_policy_cost(length, length)
        assert forward < F(3, 4)
        for rounds in range(1, section_count(length) + 1):
            assert forward < bailout_policy_cost(length, rounds, 1)


def test_c03_observation_gadget_inequalities():
    """The four pricing inequalities that keep the observation loop
    honest hold at every game span."""
    for m in range(1, 9):
        length = F(8 * m + 16)
        spur = detour_price(length)
        p1 = certificate(2, m).p1
        assert 2 * spur + 2 < 3 * length / 2
        assert 3 * length / 2 < 2 * spur + 3 * spur / 4 + spur
        assert p1 > 1 - F(2, 3 * length + 1)
        retry = spur + 2
        assert retry < 1 + p1 * (1 + retry)


def test_c04_dependent_game_first_moves(solve_battery_game):
    """On at least six games of two and four variables, the solver
    enters the rows exactly on winnable games, at the exact fee."""
    assert len(GAME_BATTERY) >= 6
    assert {f.n for f, _ in GAME_BATTERY} == {2, 4}
    assert {w for _, w in GAME_BATTERY} == {True, False}
    for k, (formula, winnable) in enumerate(GAME_BATTERY):
        assert formula.m <= 3
        assert qbf_eval(formula) is winnable
        _, fee = qbf_to_ctpdep(formula)
        result = solve_battery_game(k)
        if winnable:
            assert result.optimal_cost == Cost.zero()
            assert result.optimal_first_action == Action.move("enter")
        else:
            assert result.optimal_cost == Cost.of(fee)
            assert result.optimal_first_action == Action.move("default")


def test_c05_certificate_fee_sandwich_and_gap():
    """B0 < h < B1 on the whole size grid, with the fee gap equal to
    (1/4)^(n/2) m P_rt P_r0 exactly."""
    for n in (2, 4, 6, 8):
        for m in range(1, 9):
            cert = certificate(n, m)
            assert cert.B0 < cert.h < cert.B1
            gap = F(1, 4 ** (n // 2)) * m * cert.P_rt * cert.P_r0
            assert cert.h - cert.B0 == gap


def test_c06_reference_trip_prices_the_ledger():
    """The everything-passes walk reaches the exam entrance and costs
    exactly D_pt at the three anchor sizes."""
    frozen = {(2, 1): 331, (2, 2): 777, (4, 2): 1457}
    for (n, m), price in frozen.items():
        instance, cert, trip = _game_graph(QbfFormula.of(n, ((1,),) * m))
        assert cert.D_pt == price
        edges = {e.id: e for e in instance.edges}
        position = instance.s
        total = F(0)
        for eid in trip:
            edge = edges[eid]
            assert position in (edge.tail, edge.head)
            position = edge.head if position == edge.tail else edge.tail
            total += edge.cost.fraction
        assert position == "exam.r0"
        assert total == cert.D_pt


def test_c07_sensing_separates_cover_from_no_cover():
    """With alpha 1/2 and budget 1, probing wins on the path graph and
    the default edge wins on the triangle, with calibrated gain signs."""
    alpha = F(1, 2)
    path_instance, path_cert = vc_to_sensing(named_vc("p3", 1), alpha)
    covered = solve(path_instance)
    assert covered.optimal_first_action != Action.move("default")
    assert covered.optimal_cost < Cost.of(4)
    tri_instance, tri_cert = vc_to_sensing(named_vc("k3", 1), alpha)
    uncovered = solve(tri_instance)
    assert uncovered.optimal_first_action == Action.move("default")
    assert uncovered.optimal_cost == Cost.of(4)
    for cert in (path_cert, tri_cert):
        assert cert.alpha == alpha
        assert cert.g_prime_lb > 0
        assert cert.g_dprime_ub < 0


def test_c08_normal_form_preserves_the_optimum():
    """Twenty random dyadic toys keep their exact optimal cost under
    the fair-coin rewrite, and the rewrite is in normal form."""
    for i in range(20):
        toy = random_disjoint_instance(SplitMix64(SEED + 1000 + i))
        rewritten = normalize_half_prob(toy)
        for edge in rewritten.edges:
            if edge.uncertain:
                assert edge.block_p == F(1, 2)
                assert edge.cost == Cost.zero()
        assert solve(rewritten).optimal_cost == solve(toy).optimal_cost


def test_c09_solver_agrees_with_independent_oracles():
    """Twenty-five random route bundles match the disjoint-path index
    rule, and ten policy evaluations agree across both engines."""
    for i in range(25):
        toy = random_disjoint_instance(SplitMix64(SEED + i))
        assert (solve_disjoint_paths(toy).optimal_cost
                == solve(toy).optimal_cost)
    for i in range(10):
        toy = random_disjoint_instance(SplitMix64(SEED + 2000 + i))
        paths = decompose_into_paths(toy)
        policy = CommittingPolicy(paths)
        assert (evaluate_exact(toy, policy, mode="weathers").expected_cost
                == evaluate_exact(toy, policy, mode="tree").expected_cost)


def test_c10_simulation_confirms_the_forward_formula():
    """A million seeded trials of the forward walker land within four
    sigma of 263/512, reruns with the seed are bit-identical, and the
    million trials keep their pinned mean and sem to the bit."""
    length = F(2)
    instance, handle = baiting_harness(length)
    policy = reference_policy("baiting_pi", handle=handle,
                              terminal=handle.exit_shortcut)
    small_one = simulate(instance, policy, 2048, seed=SEED)
    small_two = simulate(instance, policy, 2048, seed=SEED)
    assert small_one == small_two
    mean, sem = simulate(instance, policy, 1_000_000, seed=SEED)
    assert (mean.hex(), sem.hex()) == ("0x1.06cd07852f7f5p-1",
                                       "0x1.cf3d047182b82p-12")
    target = float(forward_policy_cost(length, length))
    assert forward_policy_cost(length, length) == F(263, 512)
    assert abs(mean - target) <= 4 * sem
