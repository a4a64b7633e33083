"""Model layer: costs, instances, joints, weathers, serialization."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ctplab.model as model_module
from ctplab.cli import GAME_BATTERY, random_disjoint_instance
from ctplab.gadgets import baiting_harness, observation_harness
from ctplab.model import (
    Belief,
    ComponentTable,
    Cost,
    CtpInstance,
    EnumerationCapError,
    InstanceBuilder,
    InternalCheckError,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    Weather,
    as_fraction,
    format_rational,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    parse_cost,
    parse_rational,
    sample_weather,
    trial_stream,
    validate_instance,
    weather_support,
)
from ctplab.reductions import (
    named_vc, qbf_to_ctp, qbf_to_ctpdep, vc_to_sensing)
from ctplab.solve import QbfFormula
from test_sampling import bernoulli

HALF = Fraction(1, 2)


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("5") == Fraction(5)
        assert format_rational(Fraction(10, 4)) == "5/2"

    def test_rejects_garbage(self):
        for text in ("", "a/b", "1/0", "1.5", "1 / 2", "1/2\n", "١/٢",
                     "３/1"):
            with pytest.raises(InvalidInstanceError):
                parse_rational(text)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_round_trip(self, num, den):
        q = Fraction(num, den)
        assert parse_rational(format_rational(q)) == q


class TestCost:
    def test_order(self):
        assert Cost.zero() < Cost.of("1/1000000")
        assert Cost.of(10) < Cost.infinite()
        assert not Cost.infinite() < Cost.infinite()

    def test_infinity_absorbs(self):
        assert Cost.of(Cost.infinite().plain + 3) == Cost.infinite()

    def test_plain_round_trips(self):
        for cost in (Cost.zero(), Cost.of(0), Cost.of(7), Cost.of("7/2"),
                     Cost.infinite()):
            assert Cost.of(cost.plain) == cost
        assert type(Cost.of(7).plain) is int
        assert Cost.of("7/2").plain == Fraction(7, 2)
        assert Cost.infinite().plain == math.inf

    def test_refuses_inexact_floats(self):
        for bad in (0.5, float("nan"), -math.inf, 2.0):
            with pytest.raises(InvalidInstanceError):
                Cost.of(bad)

    def test_rejects_negative(self):
        for make, bad in ((Cost.of, -1), (Cost.of, "-1/2"),
                          (Cost.of, Fraction(-1, 2)),
                          (parse_cost, "-1/1"), (parse_cost, 3)):
            with pytest.raises(InvalidInstanceError):
                make(bad)

    def test_text_forms(self):
        assert parse_cost("inf").is_infinite
        assert str(parse_cost("7/2")) == "7/2"


def two_path_instance() -> CtpInstance:
    """Sure detour of cost 4 against a risky free path."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 4, id="direct")
    b.add_edge("s", "x", 2, id="sx")
    b.add_edge("x", "t", 0, id="xt", block_p=HALF)
    return b.build()


class TestBuilderAndValidation:
    def test_builds_and_round_trips(self):
        inst = two_path_instance()
        again = instance_from_json(instance_to_json(inst))
        assert again == inst
        assert instance_to_json(again) == instance_to_json(inst)

    def test_duplicate_edge_id(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.add_edge("a", "b", 1, id="e")
        with pytest.raises(InvalidInstanceError):
            b.add_edge("b", "c", 1, id="e")

    def test_loop_rejected(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        with pytest.raises(InvalidInstanceError):
            b.add_edge("s", "t", 1, id="st")
            b.add_edge("s", "s", 1, id="loop")
            b.build()

    def test_endpoints_required(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.add_edge("a", "b", 1)
        with pytest.raises(InvalidInstanceError):
            b.build()

    def test_uncertain_infinite_rejected(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("a", "b")
        b.add_edge("a", "b", Cost.infinite(), block_p=HALF)
        with pytest.raises(InvalidInstanceError):
            b.build()

    def test_block_p_one_rejected(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("a", "b")
        b.add_edge("a", "b", 1, block_p=1)
        with pytest.raises(InvalidInstanceError):
            b.build()

    @pytest.mark.parametrize("block_p", [1, Fraction(1), Fraction(3, 2),
                                         Fraction(-1, 2), -1])
    def test_block_p_outside_range_rejected_directly(self, block_p):
        inst = two_path_instance()
        edges = tuple(replace(e, block_p=block_p) if e.id == "xt" else e
                      for e in inst.edges)
        with pytest.raises(InvalidInstanceError, match="need \\[0, 1\\)"):
            validate_instance(replace(inst, edges=edges))

    def test_multiedges_allowed(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("u", "t")
        b.add_edge("u", "t", 2, id="exit")
        b.add_edge("u", "t", 1, id="fallback")
        inst = b.build()
        assert len(inst.moves_from("u")) == 2

    def test_negative_json_costs_rejected(self):
        edge = instance_to_json(two_path_instance()).replace(
            '"cost": "2/1"', '"cost": "-1/1"')
        assert '"-1/1"' in edge
        sensing = instance_to_json(TestSensingSection().make()).replace(
            '"cost": "1/8"', '"cost": "-1/1"')
        assert '"-1/1"' in sensing
        for text in (edge, sensing):
            with pytest.raises(InvalidInstanceError, match="nonnegative"):
                instance_from_json(text)

    def test_floats_refused(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        with pytest.raises(InvalidInstanceError, match="float"):
            b.add_edge("s", "t", 1, id="coin", block_p=0.3)
        with pytest.raises(InvalidInstanceError, match="exact"):
            b.add_edge("s", "t", 0.1, id="short")
        with pytest.raises(InvalidInstanceError, match="float"):
            b.add_variable("coin", (), [0.5])
        b.add_edge("s", "t", 1, id="sure")
        b.add_edge("s", "t", math.inf, id="anchor")
        assert b.build().edge_map["anchor"].cost == Cost.infinite()

    def test_unknown_json_key_rejected(self):
        text = instance_to_json(two_path_instance())
        broken = text.replace('"variant"', '"flavor"')
        with pytest.raises(InvalidInstanceError):
            instance_from_json(broken)


class TestObservation:
    def test_undirected_seen_from_both_ends(self):
        inst = two_path_instance()
        assert [e.id for e in inst.visible_from("x")] == ["xt"]
        assert [e.id for e in inst.visible_from("t")] == ["xt"]
        assert inst.visible_from("s") == ()
        xt = inst.bits["xt"]
        assert inst.edges_in(inst.fresh_at("x", 0)) == ["xt"]
        assert inst.fresh_at("x", xt) == 0
        assert inst.fresh_at("s", 0) == 0
        # arriving at t ends the trip, so nothing shown there is fresh
        assert inst.fresh_at("t", 0) == 0

    def test_directed_seen_from_both_ends_traversed_from_tail(self):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="st")
        b.add_edge("s", "t", 0, id="risky", directed=True, block_p=HALF)
        b.add_edge("m", "s", 1, id="ms")
        b.add_edge("m", "s", 0, id="back", directed=True, block_p=HALF)
        inst = b.build()
        assert [e.id for e in inst.visible_from("s")] == ["risky", "back"]
        assert [e.id for e in inst.visible_from("t")] == ["risky"]
        assert inst.edges_in(inst.fresh_at("s", 0)) == ["risky", "back"]
        assert inst.edges_in(
            inst.fresh_at("s", inst.bits["risky"])) == ["back"]
        assert inst.edges_in(inst.fresh_at("m", 0)) == ["back"]
        assert list(inst.moves_from("s")) == ["st", "risky", "ms"]
        assert list(inst.moves_from("t")) == ["st"]
        assert list(inst.moves_from("m")) == ["ms", "back"]

    def test_anchors_are_not_moves(self):
        inst, _ = vc_to_sensing(named_vc("p3", 1), HALF)
        assert inst.edge_map["anchor.a"].cost.is_infinite
        assert list(inst.moves_from("node.a")) == ["visit.a"]
        assert "anchor.a" not in inst.moves_from("t")

    def test_belief_lookup(self):
        inst = unsorted_instance("bca")
        # bits follow the listing, not the ids
        assert inst.bits == {"b": 1, "c": 2, "a": 4}
        belief = Belief("x", inst.bits["a"], inst.bits["b"], inst)
        assert belief.known == [("a", True), ("b", False)]
        assert belief.status("a") is True
        assert belief.status("b") is False
        assert belief.status("c") is None
        assert belief.status("sure") is None


def xor_net_instance() -> CtpInstance:
    """Two edges driven by one hidden coin, blocked in opposition."""
    b = InstanceBuilder(Variant.DEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 0, id="e_true", block_p=HALF)
    b.add_edge("s", "t", 0, id="e_false", block_p=HALF)
    b.add_edge("s", "t", 1, id="sure")
    b.add_variable("coin", (), [HALF])
    b.add_variable("e_true", ("coin",), [0, 1])
    b.add_variable("e_false", ("coin",), [1, 0])
    return b.build()


def copy_chain_instance(length: int) -> CtpInstance:
    """One fair coin copied down `length` net variables; the last drives e."""
    b = InstanceBuilder(Variant.DEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 1, id="e", block_p=HALF)
    b.add_edge("s", "t", 3, id="sure")
    names = [f"x{i}" for i in range(length - 1)] + ["e"]
    b.add_variable(names[0], (), [HALF])
    for parent, child in zip(names, names[1:]):
        b.add_variable(child, (parent,), [0, 1])
    return b.build()


class TestDependentJoint:
    def test_marginal_consistency_enforced(self):
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 0, id="e", block_p=Fraction(1, 4))
        b.add_edge("s", "t", 1, id="sure")
        b.add_variable("e", (), [HALF])
        with pytest.raises(InvalidInstanceError):
            b.build()

    def test_branch_conditionals(self):
        inst = xor_net_instance()
        assert inst.bits == {"e_true": 1, "e_false": 2}
        outcomes = inst.joint.branch(0, 0, 3)
        assert len(outcomes) == 2
        assert all(p == HALF for _, _, p in outcomes)
        for opened, blocked, _ in outcomes:
            assert opened | blocked == 3
            assert len(inst.edges_in(opened)) == 1

    def test_open_probability(self):
        inst = xor_net_instance()
        e_true, e_false = inst.bits["e_true"], inst.bits["e_false"]
        assert inst.joint.branch(0, 0, e_true) == [
            (0, e_true, HALF), (e_true, 0, HALF)]
        assert inst.joint.branch(0, e_false, e_true) == [(e_true, 0, 1)]

    def test_weather_support_is_exclusive(self):
        inst = xor_net_instance()
        support = weather_support(inst)
        assert sum(p for _, p in support) == 1
        patterns = {tuple(sorted(inst.edges_in(w.blocked)))
                    for w, _ in support}
        assert patterns == {("e_false",), ("e_true",)}

    def test_parent_order_matters(self):
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="sure")
        b.add_edge("s", "t", 0, id="e", block_p=Fraction(1, 4))
        b.add_variable("a", (), [HALF])
        b.add_variable("b", (), [HALF])
        # Blocked only when a=1 and b=0: rows ordered a + 2b.
        b.add_variable("e", ("a", "b"), [0, 1, 0, 0])
        inst = b.build()
        e = inst.bits["e"]
        assert inst.joint.branch(0, 0, e) == [
            (0, e, Fraction(1, 4)), (e, 0, Fraction(3, 4))]

    def test_long_copy_chain_loads(self):
        # one Python frame per variable would pass the recursion limit
        inst = instance_from_json(instance_to_json(copy_chain_instance(1100)))
        (comp,) = inst.joint.components
        assert comp.mask == inst.bits["e"]
        assert comp.rows == ((0, HALF), (comp.mask, HALF))

    def test_component_support_cap(self, monkeypatch):
        monkeypatch.setattr(model_module, "_LEAF_CAP", 3)
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 0, id="e", block_p=Fraction(1, 4))
        b.add_variable("a", (), [HALF])
        b.add_variable("b", (), [HALF])
        b.add_variable("e", ("a", "b"), [0, 1, 0, 0])
        with pytest.raises(EnumerationCapError,
                           match="component support exceeds 3 rows"):
            b.build()

    def test_in_degree_cap(self):
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="sure")
        b.add_edge("s", "t", 0, id="e", block_p=HALF)
        for name in ("a", "b", "c"):
            b.add_variable(name, (), [HALF])
        b.add_variable("e", ("a", "b", "c"), [0, 0, 0, 1, 1, 1, 0, 1])
        with pytest.raises(InvalidInstanceError):
            b.build()


def coin_star(n: int) -> CtpInstance:
    """s and t joined by `n` fair coins of cost 1 and a sure edge of cost 2."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    for i in range(n):
        b.add_edge("s", "t", 1, id=f"c{i:02d}", block_p=HALF)
    b.add_edge("s", "t", 2, id="sure")
    return b.build()


class TestIndependentJoint:
    def test_tables_are_built_when_read(self):
        star = coin_star(3)
        joint = star.joint
        # building the model numbers no edge: U masks take O(U^2) bits
        assert "bits" not in vars(star)
        assert len(joint.components) == 3
        assert list(joint.components) == [
            ComponentTable(bit, ((0, HALF), (bit, HALF))) for bit in (1, 2, 4)]
        assert star.bits == {"c00": 1, "c01": 2, "c02": 4}


class TestBranchCap:
    def test_product_past_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(model_module, "BELIEF_CAP", 1000)
        star = coin_star(10)
        coins = [star.bits[e.id] for e in star.uncertain_edges]
        assert len(star.joint.branch(0, 0, sum(coins[:9]))) == 512
        with pytest.raises(EnumerationCapError,
                           match="1024 outcomes of one observation exceed "
                                 "the cap of 1000"):
            star.joint.branch(0, 0, sum(coins))

    def test_inconsistent_statuses_are_a_broken_invariant(self):
        # one coin blocks exactly one of the pair, so both open has chance
        # 0: no weather or outcome reveals that, and no input reaches it
        inst = xor_net_instance()
        with pytest.raises(InternalCheckError,
                           match="revealed statuses are inconsistent"):
            inst.joint.branch(inst.bits["e_true"] | inst.bits["e_false"],
                              0, inst.bits["e_true"])


def uneven_net_instance() -> CtpInstance:
    """Three edges over two hidden coins of chances 1/3 and 1/4: the rows
    of their one component differ in chance, so a projection sums rows of
    unequal weight."""
    b = InstanceBuilder(Variant.DEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 1, id="e1", block_p=HALF)
    b.add_edge("s", "t", 2, id="e2", block_p=Fraction(3, 10))
    b.add_edge("s", "t", 3, id="e3", block_p=Fraction(1, 4))
    b.add_edge("s", "t", 9, id="sure")
    b.add_variable("a", (), [Fraction(1, 3)])
    b.add_variable("b", (), [Fraction(1, 4)])
    b.add_variable("e1", ("a", "b"), [0, 1, 1, 1])
    b.add_variable("e2", ("a",), [Fraction(1, 5), HALF])
    b.add_variable("e3", ("b",), [0, 1])
    return b.build()


def branch_by_weathers(support, opened, blocked, fresh):
    """`JointModel.branch` by brute force, as a map from (opened_by,
    blocked_by) to chance: the weathers that agree with the masks, grouped
    by their statuses on `fresh`, normalized."""
    groups: dict[tuple[int, int], Fraction] = {}
    for weather, p in support:
        shut = weather.blocked
        if opened & shut or blocked & ~shut:
            continue
        key = (fresh & ~shut, fresh & shut)
        groups[key] = groups.get(key, 0) + p
    total = sum(groups.values())
    return {key: p / total for key, p in groups.items()}


class TestBranchByWeathers:
    """`branch` against weather enumeration, which shares none of its
    conditioning or projection code."""

    @pytest.mark.parametrize("name", [
        "game0", "game1", "game2", "game3", "game4", "game6", "baiting-2",
        "uneven"])
    def test_matches_grouped_weathers(self, name):
        if name.startswith("game"):
            k = int(name[4:])
            inst = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        elif name == "baiting-2":
            inst = baiting_harness(2)[0]
        else:
            inst = uneven_net_instance()
        support = weather_support(inst)
        assert len(support) <= 4096  # the guard `TestWalkMemo` uses
        width = len(inst.uncertain_edges)
        rng = random.Random(name)
        for _ in range(200):
            # reveal some statuses of one weather, then branch on a random
            # subset of the rest
            shut = rng.choice(support)[0].blocked
            known = rng.getrandbits(width)
            fresh = rng.getrandbits(width) & ~known
            opened, blocked = known & ~shut, known & shut
            got = inst.joint.branch(opened, blocked, fresh)
            want = branch_by_weathers(support, opened, blocked, fresh)
            assert len(got) == len(want)
            assert {(o, b): p for o, b, p in got} == want


class TestWeathers:
    def test_support_probabilities(self):
        inst = two_path_instance()
        support = dict((tuple(inst.edges_in(w.blocked)), p)
                       for w, p in weather_support(inst))
        assert support == {(): HALF, ("xt",): HALF}

    def test_cap(self, monkeypatch):
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="sure")
        for i in range(8):
            b.add_edge("s", "t", 0, id=f"u{i}", block_p=HALF)
        inst = b.build()
        monkeypatch.setattr("ctplab.model._SUPPORT_CAP", 100)
        with pytest.raises(EnumerationCapError, match="256 weathers"):
            weather_support(inst)

    def test_sampling_matches_support(self):
        inst = xor_net_instance()
        legal = {inst.bits["e_true"], inst.bits["e_false"]}
        stream = SplitMix64(7)
        seen = {sample_weather(inst, stream).blocked for _ in range(64)}
        assert seen == legal

    def test_trial_streams_are_stable(self):
        a = [trial_stream(42, 3).next64() for _ in range(2)]
        b = [trial_stream(42, 3).next64() for _ in range(2)]
        assert a == b
        assert trial_stream(42, 4).next64() != a[0]

    def test_bernoulli_is_exact_for_thirds(self):
        stream = SplitMix64(123)
        hits = sum(bernoulli(stream, Fraction(1, 3)) for _ in range(3000))
        assert 850 < hits < 1150


class TestSensingSection:
    def make(self) -> CtpInstance:
        b = InstanceBuilder(Variant.SENSING)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 4, id="direct")
        b.add_edge("s", "t", 0, id="risky", block_p=HALF)
        b.add_sensing("s", "risky", Fraction(1, 8))
        return b.build()

    def test_lookup(self):
        inst = self.make()
        assert inst.senses_from("s") == {"risky": Cost.of("1/8")}
        assert inst.senses_from("t") == {}

    def test_round_trip(self):
        inst = self.make()
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_sure_edge_target_rejected(self):
        b = InstanceBuilder(Variant.SENSING)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 4, id="direct")
        b.add_edge("s", "t", 0, id="risky", block_p=HALF)
        b.add_sensing("s", "direct", 1)
        with pytest.raises(InvalidInstanceError):
            b.build()


def unsorted_instance(ids) -> CtpInstance:
    """Fair coins from s to t listed in the order of `ids`, and a sure edge."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 1, id="sure")
    for i in ids:
        b.add_edge("s", "t", 1, id=i, block_p=HALF)
    return b.build()


@given(st.permutations(["a", "b", "c", "d"]),
       st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0,
                max_size=4, unique=True), st.integers(0, 15))
def test_belief_known_is_sorted(listing, ids, shut):
    inst = unsorted_instance(listing)
    known = {i: not shut >> k & 1 for k, i in enumerate(ids)}
    belief = Belief("s", sum(inst.bits[i] for i in ids if known[i]),
                    sum(inst.bits[i] for i in ids if not known[i]), inst)
    assert belief.known == sorted(known.items())


def test_as_fraction_forms():
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)
    shared = Fraction(3, 8)
    assert as_fraction(shared) is shared


def odd_names_instance() -> CtpInstance:
    """Names that JSON must escape: non-ASCII, quotes, backslashes."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s\u00e9", 't"\\')
    b.add_edge("s\u00e9", "\u4e2d\U0001f600", 3, id='e"\\\u00fc',
               directed=True)
    b.add_edge("\u4e2d\U0001f600", 't"\\', 0, id="tab\tline\n",
               block_p=Fraction(1, 3))
    b.add_edge("s\u00e9", 't"\\', Cost.infinite(), id="anchor")
    return b.build()


def edgeless_instance() -> CtpInstance:
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    return b.build()


WRITER_CASES = {
    "qbf_to_ctp(2,1)": lambda: qbf_to_ctp(QbfFormula.of(2, ((1,),)))[0],
    **{f"ctpdep game {k}": (lambda k=k: qbf_to_ctpdep(GAME_BATTERY[k][0])[0])
       for k in range(len(GAME_BATTERY))},
    "sensing p3": lambda: vc_to_sensing(named_vc("p3", 1), HALF)[0],
    "baiting harness": lambda: baiting_harness(2)[0],
    "observation harness": lambda: observation_harness(9, charge=0)[0],
    **{f"random disjoint {seed}":
       (lambda seed=seed: random_disjoint_instance(SplitMix64(seed)))
       for seed in range(6)},
    "odd names": odd_names_instance,
    "no edges": edgeless_instance,
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_json_writer_matches_json_dumps(case):
    """The template writer against the encoder it replaces, the oracle."""
    inst = WRITER_CASES[case]()
    text = instance_to_json(inst)
    assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
    assert instance_from_json(text) == inst
