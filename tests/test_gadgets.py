"""Gadget builders and their closed-form cost splits."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ctplab.gadgets
from ctplab.gadgets import (
    bailout_policy_cost,
    baiting_harness,
    build_baiting,
    build_observation,
    ceil_log2,
    detour_price,
    early_exit_expectation,
    forward_policy_cost,
    observation_early_exit_expectation,
    observation_harness,
    observation_pass_cost,
    observation_pass_probability,
    pass_cost,
    pass_probability,
    second_chain_length,
    section_count,
)
from ctplab.model import (Cost, InstanceBuilder, InvalidInstanceError,
                          Variant, instance_to_json, validate_instance)

from oracles import (ceil_log2_by_doubling, chain_early_exit_expectation,
                     decomposed_cost, edge_by_edge_baiting)

F = Fraction


class TestSectionCount:
    def test_known_values(self):
        table = {F(3, 2): 7, F(2): 7, F(24): 127, F(32): 127, F(40): 255,
                 F(64): 255, F(72): 511, F(80): 511}
        for length, n in table.items():
            assert section_count(length) == n

    def test_rejects_short_corridor(self):
        for bad in (1, F(1), F(1, 2), 0, -3):
            with pytest.raises(InvalidInstanceError,
                               match="corridor length must exceed 1"):
                section_count(bad)

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(F(3, 2)) == 1
        assert ceil_log2(96) == 7
        with pytest.raises(InvalidInstanceError,
                           match="ceil_log2 needs a positive"):
            ceil_log2(0)

    # positive rationals at most 1, exact powers of two, and rationals a
    # hair above or below a power of two
    @given(st.one_of(
        st.fractions(min_value=0, max_value=1).filter(lambda x: x > 0),
        st.integers(-70, 70).map(lambda k: F(2) ** k),
        st.builds(lambda k, d, sign: F(2) ** k * (1 + sign * F(1, d)),
                  st.integers(-70, 70), st.integers(2, 1 << 80),
                  st.sampled_from((-1, 1))),
        st.fractions(min_value=0, max_denominator=1 << 40).filter(
            lambda x: x > 0)))
    def test_ceil_log2_matches_doubling(self, value):
        assert ceil_log2(value) == ceil_log2_by_doubling(value)

    @given(st.integers(min_value=2, max_value=400))
    def test_count_is_enough_sections(self, twice):
        # N + 1 is the least power of two with 2L <= (N + 1) / 2.
        length = F(twice, 2)
        if length <= 1:
            return
        n = section_count(length)
        assert n + 1 >= 4 * length
        assert (n + 1) // 2 < 4 * length
        assert (n + 1) & n == 0


class TestClosedForms:
    def test_forward_values(self):
        assert forward_policy_cost(2, 2) == F(263, 512)
        assert forward_policy_cost(2, 0) == F(255, 512)
        assert forward_policy_cost(F(3, 2), F(3, 2)) == F(789, 2048)

    def test_forward_charge_range(self):
        with pytest.raises(InvalidInstanceError,
                           match="terminal charge must lie in"):
            forward_policy_cost(2, 3)
        with pytest.raises(InvalidInstanceError,
                           match="terminal charge must lie in"):
            forward_policy_cost(2, -1)

    def test_bailout_values(self):
        assert bailout_policy_cost(2, 1, 1) == F(7, 8)
        assert bailout_policy_cost(2, 3, 1) == F(21, 32)
        assert bailout_policy_cost(2, 7, 1) == F(265, 512)

    def test_bailout_rounds_range(self):
        with pytest.raises(InvalidInstanceError, match="rounds must lie in"):
            bailout_policy_cost(2, 0, 1)
        with pytest.raises(InvalidInstanceError, match="rounds must lie in"):
            bailout_policy_cost(2, 8, 1)

    def test_giving_up_never_pays_at_small_length(self):
        # both the fallback and the terminal charge cost the length
        assert all(bailout_policy_cost(2, j, 2) > forward_policy_cost(2, 2)
                   for j in range(1, 8))

    def test_early_exit_value(self):
        assert early_exit_expectation(2) == F(247, 512)

    def test_early_exit_matches_junction_sum(self):
        for length in (F(2), F(3, 2), F(24)):
            n = section_count(length)
            step = length / (n + 1)
            total = sum(F(1, 1 << i) * i * step for i in range(1, n + 1))
            assert early_exit_expectation(length) == total

    def test_pass_stats(self):
        assert pass_probability(2) == F(1, 128)
        assert pass_cost(2) == 2
        assert pass_probability(2, 3) == F(1, 1 << 21)
        assert pass_cost(2, 3) == 6

    @given(st.integers(min_value=9, max_value=48),
           st.sampled_from([F(0), F(1, 2), F(1)]))
    def test_split_reassembles_forward_cost(self, whole, ratio):
        length = F(whole, 4)
        charge = length * ratio
        left = forward_policy_cost(length, charge)
        right = decomposed_cost(early_exit_expectation(length),
                                pass_probability(length),
                                pass_cost(length), charge)
        assert left == right

    def test_chain_fold(self):
        q, w1, w2 = pass_probability(2), pass_cost(2), early_exit_expectation(2)
        assert chain_early_exit_expectation(q, w1, w2, 1) == w2
        assert chain_early_exit_expectation(q, w1, w2, 2) \
            == w2 + q * ((1 - q) * w1 + w2)
        with pytest.raises(InvalidInstanceError,
                           match="need at least one copy"):
            chain_early_exit_expectation(q, w1, w2, 0)

    def test_chain_split_matches_nested_forward(self):
        # Two corridors in series with a final charge: folding the split must
        # agree with feeding the inner forward cost in as the outer charge.
        length, charge = F(2), F(1, 2)
        inner = forward_policy_cost(length, charge)
        outer = forward_policy_cost(length, inner)
        w2 = chain_early_exit_expectation(
            pass_probability(length), pass_cost(length),
            early_exit_expectation(length), 2)
        assert outer == decomposed_cost(
            w2, pass_probability(length, 2), pass_cost(length, 2), charge)


class TestObservationForms:
    def test_constants_at_24(self):
        assert section_count(second_chain_length(24)) == 255
        assert detour_price(24) == 15
        assert observation_pass_cost(24) == 115
        assert observation_pass_probability(24) == F(1, 1 << 513)

    def test_detour_price_fractional(self):
        assert detour_price(9) == F(45, 8)

    def test_pass_cost_scales_linearly(self):
        assert observation_pass_cost(24, 3) == 3 * observation_pass_cost(24)

    def test_early_exit_mass_is_close_to_plain_chain(self):
        # The detour terms are exponentially small compared to the first
        # corridor's own early-exit mass.
        length = F(24)
        base = early_exit_expectation(length)
        extra = observation_early_exit_expectation(length) - base
        assert 0 < extra < F(1, 1 << 100)


class TestBuilders:
    def test_baiting_structure(self):
        inst, handle = baiting_harness(2)
        validate_instance(inst)
        assert handle.n == 7
        assert len(handle.path_edges) == 8
        assert len(handle.cut_edges) == 7
        for eid in handle.path_edges:
            assert inst.edge_map[eid].cost == Cost.of(F(1, 4))
        for eid in handle.cut_edges:
            edge = inst.edge_map[eid]
            assert edge.cost == Cost.zero()
            assert edge.block_p == F(1, 2)
            assert edge.head == "t"
        assert inst.edge_map[handle.entry_shortcut].cost == Cost.of(2)
        assert inst.edge_map[handle.exit_shortcut].cost == Cost.of(2)
        assert inst.edge_map["fallback"].cost == Cost.of(1)

    def test_baiting_rejects_unit_length(self):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        with pytest.raises(InvalidInstanceError,
                           match="corridor length must exceed 1"):
            build_baiting(builder, "a", "b", "t", 1, "bg")

    def test_harness_charge(self):
        inst, _ = baiting_harness(2, charge=F(1, 2))
        assert inst.edge_map["charge"].cost == Cost.of(F(1, 2))
        with pytest.raises(InvalidInstanceError,
                           match="harness charge must lie in"):
            baiting_harness(2, charge=2)

    def test_observation_structure(self):
        inst, handle = observation_harness(24)
        validate_instance(inst)
        assert handle.first.length == 24
        assert handle.second.length == 36
        assert handle.third.length == 24
        assert handle.second.entry == handle.gate
        assert handle.second.exit == handle.far_gate
        assert handle.third.entry == handle.gate2
        assert handle.third.exit == "v"
        for eid in (handle.blocker_out, handle.blocker_in):
            edge = inst.edge_map[eid]
            assert edge.cost == Cost.zero()
            assert edge.block_p == F(3, 4)
        for eid in (handle.spur_out, handle.spur_in):
            assert inst.edge_map[eid].cost == Cost.of(15)
        assert inst.edge_map[handle.sneak].cost == Cost.of(1)
        # The detour blockers hang off the gates, so gate arrivals see them.
        assert any(e.id == handle.blocker_in
                   for e in inst.visible_from(handle.gate))
        assert any(e.id == handle.blocker_out
                   for e in inst.visible_from(handle.far_gate))

    def test_observation_rejects_short_length(self):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        with pytest.raises(InvalidInstanceError,
                           match="observation gadget needs length above 8"):
            build_observation(builder, "a", "b", "o", "t", 8, "og")

    def test_prefixes_keep_ids_distinct(self):
        builder = InstanceBuilder(Variant.INDEPENDENT)
        builder.set_endpoints("a", "t")
        build_baiting(builder, "a", "b", "t", 2, "one")
        build_baiting(builder, "b", "c", "t", 2, "two")
        builder.add_edge("c", "t", 0, id="tie")
        inst = builder.build()
        assert "one.cut001" in inst.edge_map
        assert "two.cut001" in inst.edge_map


class TestBaitingRuns:
    """`build_baiting` lays its path and its cuts as two `add_edges` runs;
    `oracles.edge_by_edge_baiting` adds the same gadget one edge at a time."""

    @pytest.mark.parametrize("make, length", [
        (baiting_harness, F(3, 2)), (baiting_harness, 2),
        (baiting_harness, 9), (baiting_harness, 24), (baiting_harness, 40),
        (observation_harness, 16)])
    def test_runs_match_edge_by_edge(self, monkeypatch, make, length):
        fast, fast_handle = make(length)
        monkeypatch.setattr(ctplab.gadgets, "build_baiting",
                            edge_by_edge_baiting)
        slow, slow_handle = make(length)
        assert instance_to_json(fast) == instance_to_json(slow)
        assert fast_handle == slow_handle
