"""Game-to-graph translations, certificates, normal form, and sensing."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctplab.cli import GAME_BATTERY
from ctplab.gadgets import second_chain_length, section_count
from ctplab.model import (
    Cost,
    InstanceBuilder,
    InvalidInstanceError,
    Variant,
    weather_support,
)
from ctplab.policy import Action, evaluate_exact, export_decision_tree
from ctplab.reductions import (
    AssignmentWalkPolicy,
    CoverSensingPolicy,
    CtpReductionCertificate,
    SensingCertificate,
    VcInstance,
    assignment_walk_policy,
    certificate,
    dep_layout,
    has_vertex_cover,
    named_vc,
    normalize_half_prob,
    qbf_to_ctp,
    qbf_to_ctpdep,
    reference_trip,
    vc_to_sensing,
)
from ctplab.solve import QbfFormula, qbf_eval, solve

F = Fraction

SAT_SMALL = QbfFormula.of(2, ((1, 2),))
UNSAT_SMALL = QbfFormula.of(2, ((1,), (-1,)))
SAT_TWO = QbfFormula.of(2, ((1, 2), (-1, -2)))


def walk_cost(instance, trip):
    """Follow edge ids from s, asserting incidence; return (end, cost)."""
    edges = {e.id: e for e in instance.edges}
    position = instance.s
    total = F(0)
    for eid in trip:
        edge = edges[eid]
        assert position in (edge.tail, edge.head), eid
        position = edge.head if position == edge.tail else edge.tail
        total += edge.cost.fraction
    return position, total


class TestDepLayout:
    def test_counts(self):
        for n, clauses in ((2, ((1, 2),)), (2, ((1,), (2,), (1, 2))),
                           (4, ((1, 2), (3, 4)))):
            formula = QbfFormula.of(n, clauses)
            m = formula.m
            instance, _ = qbf_to_ctpdep(formula)
            assert len(instance.vertices) == 2 + n * (4 * m + 2) + 5
            assert len(instance.edges) == 2 + n * (4 * m + 3) + 8

    def test_clause_members_follow_literal_sides(self):
        layout = dep_layout(QbfFormula.of(2, ((1, -2),)))
        assert layout.clause_members == (("x1.obs.t1", "x2.obs.f1"),)

    def test_duplicate_literals_share_one_slot(self):
        layout = dep_layout(QbfFormula.of(2, ((1, 1),)))
        assert layout.clause_members == (("x1.obs.t1",),)

    def test_needs_a_clause(self):
        with pytest.raises(InvalidInstanceError):
            dep_layout(QbfFormula.of(2, ()))


class TestDependentGame:
    def test_all_marginals_are_half(self):
        instance, _ = qbf_to_ctpdep(SAT_TWO)
        assert {e.block_p for e in instance.edges if e.uncertain} == {F(1, 2)}

    def test_weather_correlations(self):
        instance, _ = qbf_to_ctpdep(SAT_TWO)
        layout = dep_layout(SAT_TWO)
        support = weather_support(instance)
        assert len(support) == 128
        assert sum(prob for _, prob in support) == 1
        for weather, _ in support:
            blocked = set(instance.edges_in(weather.blocked))
            odd = "exam.choice.odd" not in blocked
            even = "exam.choice.even" not in blocked
            assert odd != even
            x_true = "x1.true" not in blocked
            x_false = "x1.false" not in blocked
            assert x_true != x_false
            open_clauses = 0
            for ids in layout.clause_members:
                statuses = {eid not in blocked for eid in ids}
                assert len(statuses) == 1
                if statuses.pop():
                    open_clauses += 1
            assert odd == (open_clauses % 2 == 1)

    def test_default_fee_and_override(self):
        _, fee = qbf_to_ctpdep(SAT_SMALL)
        assert fee == F(1, 8)
        _, fee = qbf_to_ctpdep(SAT_SMALL, h=F(1, 16))
        assert fee == F(1, 16)
        for bad in (F(1, 4), F(1, 2), 0, F(-1, 8)):
            with pytest.raises(InvalidInstanceError):
                qbf_to_ctpdep(SAT_SMALL, h=bad)

    def test_solver_separates_outcomes(self):
        for formula in (SAT_SMALL, UNSAT_SMALL, SAT_TWO,
                        QbfFormula.of(4, ((1, 3),))):
            instance, fee = qbf_to_ctpdep(formula)
            result = solve(instance)
            if qbf_eval(formula):
                assert result.optimal_cost == Cost.zero()
                assert result.optimal_first_action == Action.move("enter")
            else:
                assert result.optimal_cost == Cost.of(fee)
                assert result.optimal_first_action == Action.move("default")

    def test_walk_policy_is_free_on_winnable_games(self):
        for formula in (SAT_SMALL, SAT_TWO,
                        QbfFormula.of(2, ((2,), (-1, 2), (1, 2)))):
            instance, _ = qbf_to_ctpdep(formula)
            policy = assignment_walk_policy(formula)
            assert isinstance(policy, AssignmentWalkPolicy)
            outcome = evaluate_exact(instance, policy)
            assert outcome.expected_cost == Cost.zero()

    # SHA-256 of the assignment walk's exported tree on each winnable
    # battery game, keyed by the game's place in GAME_BATTERY
    WALK_TREE_DIGESTS = {
        0: "bb55b696db8b29f229eb89bea6646a67208d8d3289c57813a5275fde2a64c7cf",
        2: "65f0ddd2eccffc6839fd537ed5ba0f1bdae1aa914744464c4ef3a177684284f2",
        4: "f5044011705e288a82ce15c95f9abf146ce5c5e9213c15565a11069803ff902a",
        5: "ba3e895c054944759f6f4deee0f8dad569fe29041cf7c35cd037a177da3707a9",
    }

    def test_walk_policy_trees_are_frozen(self):
        winnable = [k for k, (_, w) in enumerate(GAME_BATTERY) if w]
        assert winnable == sorted(self.WALK_TREE_DIGESTS)
        for k in winnable:
            formula = GAME_BATTERY[k][0]
            instance, _ = qbf_to_ctpdep(formula)
            _, tree = export_decision_tree(
                instance, assignment_walk_policy(formula))
            digest = hashlib.sha256(tree.to_json().encode()).hexdigest()
            assert digest == self.WALK_TREE_DIGESTS[k], k

    def test_walk_policy_refused_without_a_plan(self):
        with pytest.raises(InvalidInstanceError):
            assignment_walk_policy(UNSAT_SMALL)


def sample_certificates():
    """One certificate of each class that carries the JSON codec."""
    _, sensing = vc_to_sensing(named_vc("p3", 1), F(1, 2))
    return certificate(2, 1), sensing


class TestCertificate:
    def test_frozen_trip_prices(self):
        assert certificate(2, 1).D_pt == 331
        assert certificate(2, 2).D_pt == 777
        assert certificate(4, 2).D_pt == 1457

    def test_guard_blocking_chance(self):
        # L = 8m + 16, and p1 = 1 - 2^-z with 2^z the least power of two
        # reaching (3L + 1) / 2
        assert certificate(2, 1).p1 == F(63, 64)
        assert certificate(2, 3).p1 == F(63, 64)
        assert certificate(2, 4).p1 == F(127, 128)

    def test_fee_sandwich_and_gap(self):
        for n in (2, 4):
            for m in (1, 3, 8):
                cert = certificate(n, m)
                assert cert.B0 < cert.h < cert.B1
                gap = F(1, 4 ** (n // 2)) * m * cert.P_rt * cert.P_r0
                assert cert.h - cert.B0 == gap

    def test_rejects_bad_sizes(self):
        for n, m in ((1, 1), (3, 2), (0, 1), (2, 0), (-2, 1)):
            with pytest.raises(InvalidInstanceError, match=(
                    "^(n must be even and at least 2|m must be at least 1), "
                    "got")):
                certificate(n, m)

    def test_json_round_trip(self):
        cert = certificate(2, 1)
        again = CtpReductionCertificate.from_json(cert.to_json())
        assert again == cert

    def test_rejects_bad_keys(self):
        for cert in sample_certificates():
            data = cert.to_dict()
            data["extra"] = 1
            with pytest.raises(InvalidInstanceError, match="extra"):
                type(cert).from_dict(data)
            data = cert.to_dict()
            del data[cert._RATIONALS[0]]
            with pytest.raises(InvalidInstanceError, match="missing"):
                type(cert).from_dict(data)

    @pytest.mark.parametrize("kind", [0, 1], ids=["ctp", "sensing"])
    @pytest.mark.parametrize("count", [2.5, True, "2"])
    def test_rejects_counts_that_are_not_integers(self, kind, count):
        cert = sample_certificates()[kind]
        data = cert.to_dict()
        data[cert._INTEGERS[0]] = count
        with pytest.raises(InvalidInstanceError, match="integer"):
            type(cert).from_dict(data)

    @pytest.mark.parametrize(
        "cls", [CtpReductionCertificate, SensingCertificate])
    def test_rejects_documents_that_are_not_objects(self, cls):
        for text in ("[]", '"n"', "3", "null"):
            with pytest.raises(InvalidInstanceError, match="object"):
                cls.from_json(text)


class TestUndirectedGame:
    def test_counts_match_certificate_after_merging(self):
        instance, cert = qbf_to_ctp(SAT_SMALL)
        assert cert.vertex_count == len(instance.vertices)
        assert cert.edge_count == len(instance.edges)
        baseline = certificate(2, 1)
        merged = cert.provenance["merged_observation_slots"]
        assert merged == 2
        assert cert.vertex_count == baseline.vertex_count - merged
        assert cert.edge_count == baseline.edge_count

    def test_member_slots_land_on_exam_rows(self):
        instance, _ = qbf_to_ctp(SAT_SMALL)
        vertices = set(instance.vertices)
        assert "x1.t1.obs" not in vertices
        assert "x2.t1.obs" not in vertices
        assert "x1.f1.obs" in vertices
        edges = {e.id: e for e in instance.edges}
        spur = edges["x1.t1.og.spur_out"]
        assert "exam.c1.r5" in (spur.tail, spur.head)

    def test_guard_corridors_thread_exam_rows(self):
        instance, _ = qbf_to_ctp(SAT_SMALL)
        edges = {e.id: e for e in instance.edges}
        first = edges["guards.bg0.path000"]
        assert "guards.z0" in (first.tail, first.head)
        second = edges["guards.bg1.path000"]
        assert "exam.c1.r2" in (second.tail, second.head)
        exit_edge = edges["guards.exit"]
        assert exit_edge.cost == Cost.of(1)
        assert {exit_edge.tail, exit_edge.head} == {"guards.zend", "exam.r0"}

    def test_default_edge_charges_the_certificate_fee(self):
        instance, cert = qbf_to_ctp(SAT_SMALL)
        edges = {e.id: e for e in instance.edges}
        assert edges["default"].cost == Cost.of(cert.h)
        assert edges["exam.skip"].cost == Cost.of(cert.L)

    def test_uncertain_chances(self):
        instance, cert = qbf_to_ctp(SAT_SMALL)
        chances = {e.block_p for e in instance.edges if e.uncertain}
        assert chances == {F(1, 2), F(3, 4), cert.p1}

    def test_reference_trip_prices_the_certificate(self):
        instance, cert = qbf_to_ctp(SAT_SMALL)
        end, total = walk_cost(instance, reference_trip(SAT_SMALL))
        assert end == "exam.r0"
        assert total == cert.D_pt

    def test_odd_variable_count_pads_with_an_existential(self):
        formula = QbfFormula.of(1, ((1,),))
        instance, cert = qbf_to_ctp(formula)
        assert cert.provenance["padded"] is True
        assert cert.provenance["source_variables"] == 1
        assert cert.n == 2
        assert "x2" in instance.vertices
        edges = {e.id: e for e in instance.edges}
        assert edges["x2.true"].block_p == 0
        assert edges["x1.true"].block_p == F(1, 2)
        end, total = walk_cost(instance, reference_trip(formula))
        assert end == "exam.r0"
        assert total == cert.D_pt


class TestNormalForm:
    def build_single(self, cost, block, directed=False):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        builder.set_endpoints("s", "t")
        builder.add_edge("s", "t", cost, id="top", block_p=block,
                         directed=directed)
        builder.add_edge("s", "t", 2, id="safe")
        return builder.build()

    def assert_normal(self, instance):
        for edge in instance.edges:
            if edge.uncertain:
                assert edge.block_p == F(1, 2)
                assert edge.cost == Cost.zero()

    def test_series_realizes_high_chance(self):
        normal = normalize_half_prob(self.build_single(0, F(3, 4)))
        ids = sorted(e.id for e in normal.edges if e.id != "safe")
        assert ids == ["top.flip1", "top.flip2"]
        self.assert_normal(normal)

    def test_parallel_realizes_low_chance(self):
        normal = normalize_half_prob(self.build_single(0, F(1, 4)))
        flips = [e for e in normal.edges if e.uncertain]
        lands = [e for e in normal.edges
                 if not e.uncertain and e.id.startswith("top.land")]
        assert len(flips) == 2 and len(lands) == 2
        self.assert_normal(normal)

    def test_fee_splits_off_the_coin(self):
        normal = normalize_half_prob(self.build_single(3, F(1, 2)))
        edges = {e.id: e for e in normal.edges}
        assert edges["top.fee"].cost == Cost.of(3)
        assert edges["top.flip"].block_p == F(1, 2)
        assert "top.post" in set(normal.vertices)
        self.assert_normal(normal)

    def test_non_dyadic_chance_is_refused(self):
        with pytest.raises(InvalidInstanceError):
            normalize_half_prob(self.build_single(0, F(1, 3)))

    def test_directed_skewed_chance_is_refused(self):
        with pytest.raises(InvalidInstanceError):
            normalize_half_prob(self.build_single(0, F(3, 4), directed=True))

    def test_directed_fair_coin_is_fine(self):
        original = self.build_single(2, F(1, 2), directed=True)
        normal = normalize_half_prob(original)
        self.assert_normal(normal)
        assert solve(normal).optimal_cost == solve(original).optimal_cost

    def test_variant_is_checked(self):
        instance, _ = qbf_to_ctpdep(SAT_SMALL)
        with pytest.raises(InvalidInstanceError):
            normalize_half_prob(instance)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.data())
    def test_single_edge_optimum_is_preserved(self, power, data):
        denominator = 1 << power
        numerator = data.draw(st.integers(min_value=1,
                                          max_value=denominator - 1))
        cost = data.draw(st.integers(min_value=0, max_value=3))
        original = self.build_single(cost, F(numerator, denominator))
        normal = normalize_half_prob(original)
        self.assert_normal(normal)
        assert solve(normal).optimal_cost == solve(original).optimal_cost


class TestVertexCover:
    def test_named_graphs(self):
        assert len(named_vc("k3", 1).edges) == 3
        assert len(named_vc("p3", 1).edges) == 2
        with pytest.raises(InvalidInstanceError):
            named_vc("k4", 1)

    def test_cover_search(self):
        assert has_vertex_cover(named_vc("p3", 1)) is True
        assert has_vertex_cover(named_vc("k3", 1)) is False
        assert has_vertex_cover(named_vc("k3", 2)) is True
        assert has_vertex_cover(named_vc("k3", 0)) is False

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            VcInstance.of("ab", [("a", "a")], 1)
        with pytest.raises(InvalidInstanceError):
            VcInstance.of("ab", [("a", "b"), ("b", "a")], 1)
        with pytest.raises(InvalidInstanceError):
            VcInstance.of("ab", [("a", "c")], 1)
        with pytest.raises(InvalidInstanceError):
            VcInstance.of("ab", [("a", "b")], 3)


# construction refusals, each with its exact message
@pytest.mark.parametrize("build, message", [
    (lambda: VcInstance.of("aab", [], 1), "duplicate graph vertex"),
    (lambda: VcInstance.of("ab", [("a", "b", "a")], 1),
     "bad graph edge ('a', 'b', 'a')"),
    (lambda: vc_to_sensing(named_vc("p3", 1), F(1, 2 ** 40)),
     "no positive blocking chance keeps the all-open floor "
     "2199023255551/2199023255552 over 2 coins"),
    (lambda: qbf_to_ctp(QbfFormula.of(2, ())),
     "the exam needs at least one clause"),
], ids=["duplicate-vertex", "three-ended-edge", "alpha-below-2^-32",
        "no-clauses"])
def test_refusal_messages(build, message):
    with pytest.raises(InvalidInstanceError) as caught:
        build()
    assert str(caught.value) == message


class TestSensing:
    def setup_method(self):
        self.path = named_vc("p3", 1)
        self.path_instance, self.path_cert = vc_to_sensing(self.path,
                                                           F(1, 2))
        self.triangle = named_vc("k3", 1)
        self.tri_instance, self.tri_cert = vc_to_sensing(self.triangle,
                                                         F(1, 2))

    def test_blocking_chance_is_the_largest_dyadic(self):
        for vc, cert in ((self.path, self.path_cert),
                         (self.triangle, self.tri_cert)):
            count = len(vc.edges)
            target = F(vc.k + 1 - cert.alpha, vc.k + 1)
            assert cert.eps.denominator <= 1 << 32
            assert (1 - cert.eps) ** count >= target
            step = F(1, 1 << 32)
            assert (1 - cert.eps - step) ** count < target

    def test_triangle_with_budget_two_keeps_the_floor(self):
        _, cert = vc_to_sensing(named_vc("k3", 2), F(1, 2))
        assert (1 - cert.eps) ** 3 >= F(5, 6)

    def test_gain_bounds(self):
        for cert in (self.path_cert, self.tri_cert):
            assert cert.g_ub == -cert.eps / 2
            assert cert.g_prime_lb > 0
            assert cert.g_dprime_ub < 0

    def test_solver_separates_cover_from_no_cover(self):
        covered = solve(self.path_instance)
        assert covered.optimal_first_action != Action.move("default")
        assert covered.optimal_cost < Cost.of(4)
        uncovered = solve(self.tri_instance)
        assert uncovered.optimal_first_action == Action.move("default")
        assert uncovered.optimal_cost == Cost.of(4)

    def test_cover_policy_matches_its_closed_form(self):
        cases = (
            (self.path, self.path_instance, self.path_cert, ("b",)),
            (self.triangle, self.tri_instance, self.tri_cert, ("a", "b")),
        )
        for vc, instance, cert, cover in cases:
            policy = CoverSensingPolicy(vc, cover)
            outcome = evaluate_exact(instance, policy)
            coins = len(vc.edges)
            expected = (F(4) + 2 * cert.C * len(cover)
                        - (1 - cert.eps) ** coins * cert.eps / 2)
            assert outcome.expected_cost == Cost.of(expected)

    def test_cover_policy_is_optimal_on_the_path(self):
        policy = CoverSensingPolicy(self.path, ("b",))
        outcome = evaluate_exact(self.path_instance, policy)
        assert outcome.expected_cost == solve(
            self.path_instance).optimal_cost

    def test_spend_bound(self):
        policy = CoverSensingPolicy(self.path, ("b",))
        outcome = evaluate_exact(self.path_instance, policy)
        saved = F(4) - outcome.expected_cost.fraction
        gain = ((1 - self.path_cert.eps) ** 2 * self.path_cert.eps / 2
                - 2 * self.path_cert.C)
        assert saved == gain

    def test_alpha_and_graph_are_validated(self):
        with pytest.raises(InvalidInstanceError):
            vc_to_sensing(self.path, F(3, 2))
        with pytest.raises(InvalidInstanceError):
            vc_to_sensing(self.path, 0)
        with pytest.raises(InvalidInstanceError):
            vc_to_sensing(VcInstance.of("ab", [], 1), F(1, 2))
        with pytest.raises(InvalidInstanceError):
            CoverSensingPolicy(self.path, ("z",))

    def test_certificate_round_trip(self):
        cert = self.path_cert
        again = SensingCertificate.from_json(cert.to_json())
        assert again == cert


class TestLayoutGeometry:
    def test_observation_chain_lengths_in_trip(self):
        formula = SAT_SMALL
        trip = reference_trip(formula)
        length = F(8 * formula.m + 16)
        per_loop = 2 * (section_count(length) + 1)
        per_loop += section_count(second_chain_length(length)) + 1
        per_loop += 5
        corridors = section_count(length) + 1
        expected = (1
                    + 2 * (1 + formula.m * per_loop + 1)
                    + 1 * corridors
                    + 1 + (formula.m + 2) * corridors + 1)
        assert len(trip) == expected

    # Length and SHA-256 of "\n".join(trip) for mixed-literal formulas, so
    # that observation slots merge onto exam rows; (1, 1) is padded.
    @pytest.mark.parametrize("n, clauses, length, digest", [
        (1, ((1, -1),), 1553,
         "91945cdbcdd1e2627d6614a30d2e55d6063a02219dedf9d6366db5eec476c5bf"),
        (2, ((1, -2),), 1553,
         "91945cdbcdd1e2627d6614a30d2e55d6063a02219dedf9d6366db5eec476c5bf"),
        (2, ((1, -2), (-1, 2)), 2717,
         "29abd968354b8c4e4b9e1eef89e3cda5f780a45df7bbd202d8225fe9a1256c4b"),
        (3, ((1, -2, 3), (-1, 2, -3)), 5047,
         "bb3ea378654b693f6d6ffb6f92de1dd7d533973d62e50887838963cff15b21f7"),
        (4, ((1, -3, 4), (-2, 3, -4)), 5047,
         "bb3ea378654b693f6d6ffb6f92de1dd7d533973d62e50887838963cff15b21f7"),
    ])
    def test_reference_trip_is_pinned(self, n, clauses, length, digest):
        trip = reference_trip(QbfFormula.of(n, clauses))
        assert len(trip) == length
        assert hashlib.sha256("\n".join(trip).encode()).hexdigest() == digest
