"""Model layer: costs, instances, joints, weathers, serialization."""

import copy
import gc
import json
import math
import pickle
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import ctplab.model as model_module
import ctplab.reductions as reductions_module
from ctplab.cli import GAME_BATTERY, random_disjoint_instance
from ctplab.gadgets import baiting_harness, observation_harness
from ctplab.model import (
    Belief,
    ComponentTable,
    Cost,
    CtpInstance,
    EdgeSpec,
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
    instance_to_json,
    parse_cost,
    parse_rational,
    sample_weather,
    validate_instance,
    weather_support,
)
from ctplab.reductions import (
    named_vc, qbf_to_ctp, qbf_to_ctpdep, vc_to_sensing)
from ctplab.solve import QbfFormula

from oracles import instance_to_dict, trial_stream
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
        # a walk's total is `math.inf` once it strands, whatever it adds
        assert Cost.of(math.inf + 3) == Cost.infinite()

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

    def test_unnamed_edge_takes_the_first_free_name(self):
        # e{k:04d}, counting up from k = the number of edges: a name given
        # by hand is skipped, not refused
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("a", "c")
        assert b.add_edge("a", "b", 1) == "e0000"
        b.add_edge("a", "b", 1, id="e0002")
        b.add_edge("a", "b", 1, id="e0003")
        assert b.add_edge("b", "c", 1) == "e0004"
        assert b.add_edge("b", "c", 1) == "e0005"
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("a", "c")
        b.add_edge("a", "b", 1, id="e0001")
        assert b.add_edge("a", "c", 1) == "e0002"
        assert [e.id for e in b.build().edges] == ["e0001", "e0002"]

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
        edges = tuple(e._replace(block_p=block_p) if e.id == "xt" else e
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

    @pytest.mark.parametrize("variant, section, message", [
        (Variant.INDEPENDENT, "sensing",
         "independent instance with extra sections"),
        (Variant.INDEPENDENT, "net",
         "independent instance with extra sections"),
        (Variant.DEPENDENT, "sensing", "dependent instance with sensing costs"),
        (Variant.SENSING, "net", "sensing instance with a dependency net"),
    ], ids=["independent-sensing", "independent-net", "dependent-sensing",
            "sensing-net"])
    def test_section_of_another_variant_is_refused(self, variant, section,
                                                   message):
        b = InstanceBuilder(variant)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 1, id="a", block_p=HALF)
        b.add_edge("s", "t", 2, id="sure")
        if section == "sensing":
            b.add_sensing("s", "a", 0)
        else:
            b.add_variable("a", (), ("1/2",))
        with pytest.raises(InvalidInstanceError) as caught:
            b.build()
        assert str(caught.value) == message

    def test_net_chance_outside_unit_interval_rejected(self):
        b = InstanceBuilder(Variant.DEPENDENT)
        b.set_endpoints("s", "t")
        b.add_edge("s", "t", 0, id="e", block_p=HALF)
        b.add_edge("s", "t", 1, id="sure")
        b.add_variable("e", (), [Fraction(3, 2)])
        with pytest.raises(InvalidInstanceError) as caught:
            b.build()
        assert str(caught.value) == (
            "variable 'e' has probability 3/2 outside [0, 1]")

    def test_unknown_json_key_rejected(self):
        text = instance_to_json(two_path_instance())
        broken = text.replace('"variant"', '"flavor"')
        with pytest.raises(InvalidInstanceError):
            instance_from_json(broken)


_DROP = object()  # a field a loader case removes from its edge

# case: (edge #, the edge's new fields or a whole new item, exact message);
# edges 0, 1 and 2 of `two_path_instance` are "direct", "sx" and "xt"
LOADER_MESSAGES = {
    "edge not an object": (1, 5, "edge #1 must be an object, got 5"),
    "unknown key": (1, {"colour": "red"},
                    "unknown keys ['colour'] in edge #1"),
    "directed not a bool": (
        1, {"directed": "false"},
        "edge #1 directed must be true or false, got 'false'"),
    "missing id": (1, {"id": _DROP}, "edge #1 is missing 'id'"),
    "missing cost": (1, {"cost": _DROP}, "edge #1 is missing 'cost'"),
    "id not a string": (1, {"id": 7},
                        "edge #1 needs a string id and string endpoints"),
    "tail not a string": (1, {"tail": ["s"]},
                          "edge #1 needs a string id and string endpoints"),
    "cost a list": (1, {"cost": ["2/1"]},
                    "rational must be a string, got list"),
    "cost an int": (1, {"cost": 2}, "rational must be a string, got int"),
    "negative cost": (1, {"cost": "-2/1"},
                      "cost must be nonnegative, got -2"),
    "uncertain and infinite": (2, {"cost": "inf"},
                               "edge 'xt' is uncertain and infinite"),
    "block_p 1/0": (2, {"block_p": "1/0"}, "bad rational '1/0'"),
    "block_p 1/1": (2, {"block_p": "1/1"},
                    "edge 'xt' has block_p 1, need [0, 1)"),
    "block_p 2/1": (2, {"block_p": "2/1"},
                    "probability '2/1' outside [0, 1]"),
    "block_p null": (2, {"block_p": None},
                     "rational must be a string, got NoneType"),
    "duplicate id": (1, {"id": "direct"}, "duplicate edge id 'direct'"),
    "loop": (1, {"head": "s"}, "edge 'sx' is a loop"),
    # several faults in one edge: the first check in loading order speaks
    "missing id, directed not a bool": (
        1, {"id": _DROP, "directed": 0},
        "edge #1 directed must be true or false, got 0"),
    "missing head, bad cost": (1, {"head": _DROP, "cost": "x"},
                               "edge #1 is missing 'head'"),
    "id not a string, bad cost": (1, {"id": 7, "cost": "x"},
                                  "bad rational 'x'"),
    "negative cost, block_p 2/1": (
        2, {"cost": "-1/1", "block_p": "2/1"},
        "cost must be nonnegative, got -1"),
    "id not a string, block_p 2/1": (
        2, {"id": 7, "block_p": "2/1"}, "probability '2/1' outside [0, 1]"),
}


@pytest.mark.parametrize("case", LOADER_MESSAGES)
def test_loader_messages(case):
    index, fields, message = LOADER_MESSAGES[case]
    data = instance_to_dict(two_path_instance())
    if isinstance(fields, dict):
        item = data["edges"][index]
        for key, value in fields.items():
            if value is _DROP:
                del item[key]
            else:
                item[key] = value
    else:
        data["edges"][index] = fields
    with pytest.raises(InvalidInstanceError) as caught:
        instance_from_json(json.dumps(data))
    assert str(caught.value) == message


# a run's endpoints: s and t are named before it, a and b before it when
# `known` holds them, and c and d are new unless an earlier edge names them
RUN_ENDPOINT = st.sampled_from(["s", "t", "a", "b", "c", "d"])


class TestEdgeRuns:
    """`add_edges` against the same edges added one `add_edge` at a time,
    and against the vertex order spelled out by hand."""

    @staticmethod
    def started(known) -> InstanceBuilder:
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("s", "t")
        for vertex in known:
            b.add_vertex(vertex)
        b.add_edge("s", "t", 4, id="direct")
        return b

    @example(known=[], edges=[("c", "d")], directed=False)
    @given(known=st.lists(st.sampled_from(["a", "b"]), unique=True),
           edges=st.lists(st.tuples(RUN_ENDPOINT, RUN_ENDPOINT).filter(
               lambda edge: edge[0] != edge[1]), min_size=1, max_size=8),
           directed=st.booleans())
    def test_run_equals_edges_one_at_a_time(self, known, edges, directed):
        ids = [f"r{k}" for k in range(len(edges))]
        tails = [tail for tail, _ in edges]
        heads = [head for _, head in edges]
        by_run = self.started(known)
        by_run.add_edges(ids, tails, heads, Fraction(1, 3), HALF, directed)
        by_edge = self.started(known)
        for eid, tail, head in zip(ids, tails, heads):
            by_edge.add_edge(tail, head, Fraction(1, 3), id=eid,
                             directed=directed, block_p=HALF)
        text = instance_to_json(by_run.build())
        assert text == instance_to_json(by_edge.build())
        # every edge names its tail and then its head
        named = ["s", "t", *known]
        for tail, head in edges:
            named += [tail, head]
        assert json.loads(text)["vertices"] == list(dict.fromkeys(named))

    @pytest.mark.parametrize("ids, earlier, first", [
        (["x", "y", "x"], [], "x"),
        (["x", "y", "y", "x"], [], "y"),
        (["x", "y", "x"], ["y"], "y"),
        (["x", "x", "y"], ["y"], "x"),
        (["direct"], [], "direct"),
    ])
    def test_repeated_id_names_its_first_repeat_and_changes_nothing(
            self, ids, earlier, first):
        b = self.started([])
        untouched = self.started([])
        for eid in earlier:
            b.add_edge("s", "t", 1, id=eid)
            untouched.add_edge("s", "t", 1, id=eid)
        with pytest.raises(InvalidInstanceError) as caught:
            b.add_edges(ids, ["p"] * len(ids), ["q"] * len(ids), 1)
        assert str(caught.value) == f"duplicate edge id {first!r}"
        assert instance_to_json(b.build()) == instance_to_json(
            untouched.build())


class TestEdgeSpecValue:
    """An edge is a named tuple: read-only fields, `_replace` for a
    changed copy, and the value of the plain tuple of its fields."""

    def test_fields_are_frozen(self):
        edge = two_path_instance().edge_map["xt"]
        with pytest.raises(AttributeError):
            edge.cost = Cost.zero()

    def test_equal_by_value(self):
        edge = two_path_instance().edge_map["xt"]
        twin = edge._replace(cost=parse_cost("0/1"))
        assert twin == edge and twin is not edge
        assert hash(twin) == hash(edge)
        third = edge._replace(block_p=Fraction(1, 3))
        assert third != edge and third.block_p == Fraction(1, 3)
        assert edge == tuple(edge) and hash(edge) == hash(tuple(edge))

    def test_no_instance_dict(self):
        # a tuple keeps a large reduction's edges small
        assert not hasattr(two_path_instance().edges[0], "__dict__")

    def test_reduction_round_trips(self):
        inst = qbf_to_ctp(QbfFormula.of(2, ((1,),)))[0]
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_construction_forms_agree(self):
        cost = parse_cost("2/1")
        edge = EdgeSpec("e", "a", "b", cost, False, model_module._SURE)
        assert EdgeSpec(id="e", tail="a", head="b", cost=cost,
                        directed=False, block_p=Fraction(0)) == edge
        assert EdgeSpec("e", "a", "b", cost) == edge
        assert EdgeSpec("e", "a", "b", cost, block_p=HALF) == edge._replace(
            block_p=HALF)
        # the builder's and the loader's form
        made = tuple.__new__(EdgeSpec, ("e", "a", "b", cost, False, HALF))
        assert type(made) is EdgeSpec
        assert made == EdgeSpec("e", "a", "b", cost, block_p=HALF)

    def test_default_block_p_is_shared(self):
        edge = EdgeSpec("e", "a", "b", Cost.zero())
        assert edge.block_p is model_module._SURE
        assert edge.directed is False

    def test_missing_argument(self):
        with pytest.raises(TypeError):
            EdgeSpec("e", "a", "b")
        with pytest.raises(TypeError):
            EdgeSpec(id="e", tail="a", cost=Cost.zero())

    def test_fields_in_order(self):
        assert EdgeSpec._fields == (
            "id", "tail", "head", "cost", "directed", "block_p")
        assert EdgeSpec._field_defaults == {
            "directed": False, "block_p": model_module._SURE}

    def test_copies_are_equal(self):
        edge = two_path_instance().edge_map["xt"]
        for twin in (edge._replace(), copy.copy(edge), copy.deepcopy(edge),
                     pickle.loads(pickle.dumps(edge))):
            assert type(twin) is EdgeSpec
            assert twin == edge and hash(twin) == hash(edge)
            assert repr(twin) == repr(edge)
            with pytest.raises(AttributeError):
                twin.block_p = HALF


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
        assert all(Fraction(w, t) == HALF for _, _, w, t in outcomes)
        for opened, blocked, _, _ in outcomes:
            assert opened | blocked == 3
            assert len(inst.edges_in(opened)) == 1

    def test_open_probability(self):
        inst = xor_net_instance()
        e_true, e_false = inst.bits["e_true"], inst.bits["e_false"]
        assert inst.joint.branch(0, 0, e_true) == [
            (0, e_true, 1, 2), (e_true, 0, 1, 2)]
        assert inst.joint.branch(0, e_false, e_true) == [(e_true, 0, 1, 1)]

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
        assert inst.joint.branch(0, 0, e) == [(0, e, 1, 4), (e, 0, 3, 4)]

    def test_long_copy_chain_loads(self):
        # one Python frame per variable would pass the recursion limit
        inst = instance_from_json(instance_to_json(copy_chain_instance(1100)))
        (comp,) = inst.joint.components
        assert comp.mask == inst.bits["e"]
        assert (comp.rows, comp.total) == (((0, 1), (comp.mask, 1)), 2)

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
            ComponentTable(bit, ((0, 1), (bit, 1)), 2) for bit in (1, 2, 4)]
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
        "uneven", "odd-chances", "third-fees"])
    def test_matches_grouped_weathers(self, name):
        from test_solve import odd_chance_instance, third_fee_instance

        if name.startswith("game"):
            k = int(name[4:])
            inst = qbf_to_ctpdep(GAME_BATTERY[k][0])[0]
        elif name == "baiting-2":
            inst = baiting_harness(2)[0]
        elif name == "odd-chances":
            inst = odd_chance_instance()
        elif name == "third-fees":
            inst = third_fee_instance()
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
            assert {(o, b): Fraction(w, t) for o, b, w, t in got} == want
            # the documented order: components in model order, and within
            # one its outcomes by open flags over its fresh bits, lowest
            # bit first, blocked before open
            flags = [bit for comp in inst.joint.components for bit in
                     (1 << i for i in range(width)) if fresh & comp.mask & bit]
            rows = [(o, b) for o, b, _, _ in got]
            assert rows == sorted(rows, key=lambda row: [
                row[0] & bit != 0 for bit in flags])
            # one total per call, positive weights that sum to it
            (total,) = {t for _, _, _, t in got}
            assert all(w > 0 for _, _, w, _ in got)
            assert sum(w for _, _, w, _ in got) == total


def z_by_chances(inst: CtpInstance) -> int:
    """Z as the product over the components of the lcm of their chances'
    denominators, read from the chances themselves."""
    return math.prod(
        math.lcm(*(Fraction(w, comp.total).denominator for _, w in comp.rows))
        for comp in inst.joint.components)


class TestChanceUnit:
    """Each component holds int weights over one total, the lcm of its
    chances' denominators, and Z is the product of the totals."""

    @pytest.mark.parametrize("name", [
        *(f"game{k}" for k in range(len(GAME_BATTERY))), "odd-chances",
        "third-fees", "third-net", "ladder-6", "uneven"])
    def test_z_is_the_product_of_the_chance_lcms(self, name):
        from test_solve import UNIT_BUILDS

        if name.startswith("game"):
            inst = qbf_to_ctpdep(GAME_BATTERY[int(name[4:])][0])[0]
        elif name == "uneven":
            inst = uneven_net_instance()
        else:
            inst = UNIT_BUILDS[name]()
        assert inst.joint.scale == z_by_chances(inst)
        for comp in inst.joint.components:
            assert all(type(w) is int and w > 0 for _, w in comp.rows)
            assert sum(w for _, w in comp.rows) == comp.total


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


def shared_rational_instance() -> CtpInstance:
    """One rational, one object, as an edge's cost and its `block_p`."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    third = Fraction(1, 3)
    b.add_edge("s", "t", third, id="st", block_p=third)
    return b.build()


def run_boundary_instance() -> CtpInstance:
    """Consecutive edges that share their cost and chance objects, hold
    equal but distinct ones, or differ in value or direction alone."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    cost, twin, third = Cost.of(HALF), Cost.of(Fraction(1, 2)), Fraction(1, 3)
    for k, (c, p, directed) in enumerate([
            (cost, third, False), (cost, third, False),
            (twin, third, False), (twin, Fraction(1, 3), False),
            (twin, Fraction(1, 3), True), (cost, HALF, True),
            (Cost.of(2), HALF, True), (Cost.infinite(), 0, True),
            (Cost.infinite(), model_module._SURE, False),
            (cost, model_module._SURE, False), (cost, HALF, False)]):
        b.add_edge(f"v{k}", f"v{k + 1}", c, id=f"e{k}", block_p=p,
                   directed=directed)
    b.add_edge("s", "v0", 0, id="in")
    b.add_edge("v11", "t", 0, id="out")
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
    "shared rational": shared_rational_instance,
    "run boundaries": run_boundary_instance,
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_json_writer_matches_json_dumps(case):
    """The template writer against the encoder it replaces, the oracle."""
    inst = WRITER_CASES[case]()
    text = instance_to_json(inst)
    assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
    assert instance_from_json(text) == inst


class TestRunBoundaries:
    """The writer and the validator handle an edge's cost and chance once
    per run of edges sharing those objects: every run boundary must
    still write and refuse as an edge-by-edge pass does."""

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.booleans()), min_size=1, max_size=12))
    def test_writer_matches_the_oracle(self, picks):
        # each edge picks its cost and chance objects by index: equal
        # values as distinct objects, shared objects and other values
        costs = [Cost.of(HALF), Cost.of(Fraction(1, 2)), Cost.of(HALF),
                 Cost.of(3), Cost.infinite()]
        chances = [Fraction(1, 3), Fraction(1, 3), HALF, Fraction(0),
                   model_module._SURE]
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("v0", f"v{len(picks)}")
        for k, (c, p, directed) in enumerate(picks):
            if c == 4:  # an infinite edge must be sure
                p = 3 + p % 2
            b.add_edge(f"v{k}", f"v{k + 1}", costs[c], id=f"e{k}",
                       block_p=chances[p], directed=directed)
        inst = b.build()
        text = instance_to_json(inst)
        assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        assert instance_from_json(text) == inst

    @staticmethod
    def refusal(edges) -> str:
        """The message `validate_instance` refuses `edges` with, each
        `(id, cost, block_p)` on a path from s to t."""
        b = InstanceBuilder(Variant.INDEPENDENT)
        b.set_endpoints("v0", f"v{len(edges)}")
        for k, (eid, cost, p) in enumerate(edges):
            b.add_edge(f"v{k}", f"v{k + 1}", cost, id=eid, block_p=p)
        with pytest.raises(InvalidInstanceError) as caught:
            b.build()
        return str(caught.value)

    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(1), -HALF])
    def test_bad_block_p_after_a_good_edge_of_its_cost(self, p):
        cost = Cost.of(2)
        good = [("g1", cost, HALF), ("g2", cost, HALF)]
        for bad in ([("bad", cost, p)], [("bad", cost, p), ("next", cost, p)]):
            assert self.refusal(good + bad) == (
                f"edge 'bad' has block_p {p}, need [0, 1)")

    def test_uncertain_infinite_after_a_good_edge_of_its_chance(self):
        good = [("g1", Cost.of(1), HALF), ("g2", Cost.of(1), HALF)]
        assert self.refusal(good + [("bad", Cost.infinite(), HALF)]) == (
            "edge 'bad' is uncertain and infinite")

    def test_uncertain_infinite_after_a_good_edge_of_its_cost(self):
        anchor = Cost.infinite()
        good = [("g1", anchor, model_module._SURE), ("g2", anchor, 0)]
        assert self.refusal(good + [("bad", anchor, HALF)]) == (
            "edge 'bad' is uncertain and infinite")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_writer_refuses_a_cost_past_the_digit_limit():
    # qbf_to_ctp's fee at (6, 3) is such a cost: writing it must fail as
    # int-to-str conversion fails, not print a truncated number
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", Fraction(10 ** 4300 + 1, 3), id="fee")
    inst = b.build()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            instance_to_json(inst)
    finally:
        sys.set_int_max_str_digits(limit)


def paused_calls() -> dict:
    """Each entry point that pauses the collector, on a real input: the
    function whose frames the pause covers, and the call."""
    formula = QbfFormula.of(2, ((1,),))
    text = instance_to_json(qbf_to_ctp(formula)[0])
    return {
        "qbf_to_ctp": (reductions_module._game_graph,
                       lambda: qbf_to_ctp(formula)),
        "instance_from_json": (instance_from_json,
                               lambda: instance_from_json(text)),
    }


# each paused call made to raise on a bad argument
RAISING_CALLS = {
    "qbf_to_ctp": (InvalidInstanceError,
                   lambda: qbf_to_ctp(QbfFormula.of(2, ()))),
    "instance_from_json": (InvalidInstanceError,
                           lambda: instance_from_json('{"variant": ')),
}


class TestCollectorPause:
    """`model._gc_paused`: the large build and read run with the cyclic
    collector off and leave it as they found it."""

    @pytest.fixture(scope="class")
    def calls(self):
        return paused_calls()

    @pytest.mark.parametrize("name", sorted(RAISING_CALLS))
    def test_no_collection_inside_the_call(self, calls, name):
        # a collection is inside the call when a frame of the paused body
        # is on the stack as it starts; the one that may follow the
        # call's last allocation once the collector is back on is not
        body, call = calls[name]
        code = getattr(body, "__wrapped__", body).__code__
        inside = []

        def hook(phase, info):
            frame = sys._getframe(1) if phase == "start" else None
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if frame is not None:
                inside.append(info["generation"])

        gc.collect()
        gc.callbacks.append(hook)
        try:
            call()
        finally:
            gc.callbacks.remove(hook)
        assert inside == []

    @pytest.mark.parametrize("name", sorted(RAISING_CALLS))
    def test_collector_is_on_after_a_return_and_a_raise(self, calls, name):
        assert gc.isenabled()
        calls[name][1]()
        assert gc.isenabled()
        error, call = RAISING_CALLS[name]
        with pytest.raises(error):
            call()
        assert gc.isenabled()

    @pytest.mark.parametrize("name", sorted(RAISING_CALLS))
    def test_collector_off_before_the_call_stays_off(self, calls, name):
        error, raising = RAISING_CALLS[name]
        gc.disable()
        try:
            calls[name][1]()
            assert not gc.isenabled()
            with pytest.raises(error):
                raising()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", sorted(RAISING_CALLS))
    def test_no_cycle_is_left_behind(self, calls, name):
        # what makes the pause safe: the body leaves no garbage that only
        # the collector could free, with its result held or dropped
        gc.collect()
        result = calls[name][1]()
        assert gc.collect() == 0
        del result
        assert gc.collect() == 0

    def test_a_nested_pause_keeps_the_outer_one(self):
        with model_module._gc_paused():
            with model_module._gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
