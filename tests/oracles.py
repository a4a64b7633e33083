"""Oracles the tests compare the package against, kept out of `src/`.

No code of the package calls these; each restates a result the package
computes another way, and the tests that import them check that the two
agree:
- `instance_to_dict` builds the JSON document that `instance_to_json`
  writes, as plain values for `json.dumps`;
- `trial_stream` is the stream of one Monte Carlo trial, which
  `simulate` and the sampling tests draw from;
- `decomposed_cost` and `chain_early_exit_expectation` split a reference
  policy's closed-form cost by outcome;
- `trace` prices a policy by walking its observation outcomes depth
  first, one breakdown row per leaf, where `evaluate_exact` prices it by
  a graph of its beliefs (`price_keyed_graph`); `traced_evaluate` checks
  the two against each other, and `by_weathers` writes the weathers
  mode's rows, one per weather of the support;
- `outcome_breakdown` writes a breakdown's rows with text labels, which
  the frozen breakdown digests are taken over;
- `walked_tree` walks a policy one step at a time and records each step
  as a tree node, where `export_decision_tree` and `solve` write a graph
  of keys (`export_keyed_graph`) that `DecisionTreePolicy.unrolled`
  writes the tree from; `walked_solve` and `walked_index_rule` walk the
  policy a solve wrote its graph of;
- `stratum_mass` finds a knowledge stratum's M(K) = Z·P(K) from its
  masks by a scan of the joint model's rows, where the search carries it
  down from the root, one exact division per outcome;
- `reference_decide` decides for a reference policy by the rules
  written out step by step, scanning a corridor's sections at each call,
  where the policies read the same rules from tables they build once;
- `ceil_log2_by_doubling` doubles a Fraction up to a value, where
  `ceil_log2` takes the bit length of an int, and `edge_by_edge_baiting`
  adds a baiting gadget one `add_edge` call per edge, where
  `build_baiting` lays its path and its cuts as two `add_edges` runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial

import pytest

import ctplab.solve as S
from ctplab.gadgets import BaitingHandle
from ctplab.model import (
    Belief,
    Cost,
    CtpInstance,
    InstanceBuilder,
    InternalCheckError,
    InvalidInstanceError,
    SplitMix64,
    _rational_texts,
    _sections,
    as_fraction,
    times,
    trial_counters,
    weather_support,
)
from ctplab.policy import (
    _LABEL_WORDS,
    Action,
    ActionKind,
    BaitingBailoutPolicy,
    BaitingForwardPolicy,
    DecisionTreePolicy,
    EvalResult,
    ObservationForwardPolicy,
    Policy,
    TreeNode,
    _cost,
    _text,
    _walk,
    _weather_total,
    evaluate_exact,
)


def instance_to_dict(instance: CtpInstance) -> dict:
    """The JSON document of `instance` as plain values: what
    `instance_to_json` writes, and the oracle its tests compare it with."""
    text = _rational_texts()
    return {
        "variant": instance.variant.value,
        "s": instance.s,
        "t": instance.t,
        "vertices": list(instance.vertices),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "directed": e.directed,
                "cost": text(e.cost._value)[1:-1],
                "block_p": text(e.block_p)[1:-1],
            }
            for e in instance.edges
        ],
        **_sections(instance, text),
    }


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """The stream of trial `trial` under `seed`."""
    (counter,) = trial_counters(seed, (trial,))
    return SplitMix64(counter)


@dataclass(frozen=True)
class Breakdown:
    """An exact expected cost and the per-event decomposition behind it.

    Each leaf of `leaves` is (event, weight, spent): an event is the
    outcomes along one branch of the walk, each as the `(opened,
    blocked)` masks it reveals over the numbering of `instance`, its
    chance is the weight over `mass`, and `spent` is that branch's cost
    in 1/D (`math.inf` if the policy declares it infeasible). `rows`
    writes each leaf as (event, chance, `Cost`).
    """

    expected_cost: Cost
    leaves: tuple[tuple[tuple[tuple[int, int], ...], Fraction | int,
                        int | float], ...]
    mass: Fraction | int
    instance: CtpInstance = field(repr=False)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[tuple[int, int], ...], Fraction,
                                  Cost], ...]:
        mass, unit = self.mass, self.instance.cost_unit
        return tuple((event, Fraction(weight, mass), _cost(spent, unit))
                     for event, weight, spent in self.leaves)


def _summed(instance: CtpInstance, leaves: list,
            mass: Fraction | int) -> Breakdown:
    """The expected cost of `(event, weight, spent)` leaves, each leaf's
    chance its weight over `mass`; the weights must sum to `mass`."""
    if sum(weight for _, weight, _ in leaves) != mass:
        raise InternalCheckError("outcome probabilities do not sum to one")
    # an infinite row is not multiplied out: below the smallest float, a
    # chance times math.inf is nan
    expected = (math.inf if any(spent == math.inf for _, _, spent in leaves)
                else sum(weight * spent for _, weight, spent in leaves))
    return Breakdown(_cost(expected, mass * instance.cost_unit),
                     tuple(leaves), mass, instance)


def trace(instance: CtpInstance, policy: Policy) -> Breakdown:
    """Price `policy` by enumerating observation outcomes depth first.

    Between observations the walk is deterministic, so each pending entry
    walks (`_walk`, which refuses a loop) until the policy halts, declares
    the situation infeasible, or triggers a branch: arriving where
    unrevealed edges become visible, or sensing. Branch chances come from
    `CtpInstance.outcomes`, conditioned on everything revealed so far.
    Every leaf of the walk adds one breakdown row, in the order the model
    lists the outcomes. An entry carries its cost so far in 1/D and the
    int weight M = Z·P of the outcomes that led to it, Z
    `instance.joint.scale`; an outcome multiplies M by its chance in one
    exact division (`times`), and the leaves' weights must sum to Z. It
    holds only its stack, one entry per pending outcome, and no node per
    belief.
    """
    mass = instance.joint.scale
    tables: dict = {}
    leaves: list[tuple[tuple[tuple[int, int], ...], int, int | float]] = []
    # pending entries: belief, the outcomes that led to it, weight, cost
    # so far
    stack: list[tuple[Belief, tuple[tuple[int, int], ...], int, int]] = []

    def branch(belief: Belief, fresh: int, event: tuple, weight: int,
               spent: int) -> None:
        """Push the outcomes of revealing mask `fresh` on arrival at
        `belief`."""
        pos, opened, blocked = belief.position, belief.opened, belief.blocked
        pushed = []
        for opened_by, blocked_by, w, t in instance.outcomes(
                tables, fresh, opened, blocked):
            pushed.append((Belief(pos, opened | opened_by,
                                  blocked | blocked_by, instance),
                           event + ((opened_by, blocked_by),),
                           times(weight, w, t), spent))
        # reversed, so that outcomes pop in the order the model lists them
        stack.extend(reversed(pushed))

    start = Belief(instance.s, 0, 0, instance)
    fresh = instance.fresh_at(instance.s, 0)
    if fresh:
        branch(start, fresh, (), mass, 0)
    else:
        stack.append((start, (), mass, 0))
    while stack:
        belief, event, weight, spent = stack.pop()
        spent, belief, fresh = _walk(instance, policy.decide, belief, spent)
        if fresh is not None:
            branch(belief, fresh, event, weight, spent)
        else:
            leaves.append((event, weight, spent))
    return _summed(instance, leaves, mass)


def by_weathers(instance: CtpInstance, policy: Policy) -> Breakdown:
    """`policy` replayed on every weather of the support, one row per
    weather, its event the whole weather as one outcome: the rows behind
    `evaluate_exact(..., mode="weathers")`."""
    every = (1 << len(instance.uncertain_edges)) - 1
    return _summed(instance, [
        (((every ^ weather.blocked, weather.blocked),), prob,
         _weather_total(instance, policy, weather))
        for weather, prob in weather_support(instance)], 1)


def traced_evaluate(instance: CtpInstance, policy: Policy,
                    mode: str = "tree") -> EvalResult:
    """`evaluate_exact`, and in mode "tree" `trace` of the same policy,
    which must give the same cost and as many leaves. An error of the
    first is raised as it is."""
    result = evaluate_exact(instance, policy, mode)
    if mode == "tree":
        walked = trace(instance, policy)
        if (result.expected_cost, result.leaves) != (
                walked.expected_cost, len(walked.leaves)):
            raise AssertionError(
                f"evaluate_exact gives {result}, the outcome walk "
                f"{walked.expected_cost} over {len(walked.leaves)} leaves")
    return result


def outcome_breakdown(result: Breakdown,
                      ) -> tuple[tuple[str, Fraction, Cost], ...]:
    """The rows of `result`, each event written `id=open,id=blocked ; ...`
    (ids sorted within an outcome), or "no observations" when it shows
    nothing; each outcome's text is written once."""
    text = cache(partial(_text, result.instance))
    return tuple((" ; ".join(text(*masks, _LABEL_WORDS)
                             for masks in event) or "no observations",
                  p, cost) for event, p, cost in result.rows)


def walked_tree(instance: CtpInstance, policy: Policy,
                ) -> tuple[Cost, DecisionTreePolicy]:
    """`policy` walked one step at a time down every outcome, each step
    recorded as the tree node of its belief and each leaf priced in
    `Fraction`s: the price and tree `export_decision_tree` writes.

    It steps by `moves_from`, `senses_from` and `fresh_at`, branches by
    `JointModel.branch` and trusts each step to be legal. A belief met
    again is walked again, so a policy that gives one belief two actions,
    or comes back to a belief before the next reveal (a loop), raises."""
    nodes: dict[tuple[str, int, int], TreeNode] = {}
    price, infinite = Fraction(0), False

    def record(belief, action, children) -> None:
        if nodes.setdefault(belief, TreeNode(action, children)) != (
                action, children):
            raise ValueError(f"the policy is not a function of {belief}")

    def outcomes(pos, opened, blocked, fresh) -> list:
        """Each outcome's masks, the belief it leads to and its chance."""
        return [((by_open, by_block),
                 (pos, opened | by_open, blocked | by_block),
                 Fraction(weight, total))
                for by_open, by_block, weight, total in instance.joint.branch(
                    opened, blocked, fresh)]

    # pending beliefs, with their chance and the cost spent reaching them
    stack: list[tuple[tuple[str, int, int], Fraction, Fraction]] = []
    root, fresh = (instance.s, 0, 0), instance.fresh_at(instance.s, 0)
    if fresh:
        rows = outcomes(*root, fresh)
        record(root, None, tuple(row[:2] for row in rows))
        stack += [(below, p, Fraction(0)) for _, below, p in reversed(rows)]
    else:
        stack.append((root, Fraction(1), Fraction(0)))
    while stack:
        belief, chance, spent = stack.pop()
        since_reveal = set()
        while True:
            if belief in since_reveal:
                raise ValueError(f"the policy loops through {belief}")
            since_reveal.add(belief)
            pos, opened, blocked = belief
            action = policy.decide(instance,
                                   Belief(pos, opened, blocked, instance))
            if action is None or action.kind is ActionKind.HALT:
                record(belief, action, ())
                infinite = infinite or action is None
                price += chance * spent
                break
            if action.kind is ActionKind.SENSE:
                far, fresh = pos, instance.bits[action.edge]
                spent += instance.senses_from(pos)[action.edge].fraction
            else:
                edge, far = instance.moves_from(pos)[action.edge]
                fresh = instance.fresh_at(far, opened | blocked)
                spent += edge.cost.fraction
            if not fresh:
                record(belief, action, (((0, 0), (far, opened, blocked)),))
                belief = (far, opened, blocked)
                continue
            rows = outcomes(far, opened, blocked, fresh)
            record(belief, action, tuple(row[:2] for row in rows))
            stack += [(below, chance * p, spent)
                      for _, below, p in reversed(rows)]
            break
    return (Cost.infinite() if infinite else Cost.of(price),
            DecisionTreePolicy(instance, nodes, root))


def _walked(run, name: str, policy_of, instance: CtpInstance, *args):
    """`run(instance, *args)` with `S.<name>` recording its arguments, and
    `walked_tree` of the policy `policy_of` picks from them."""
    calls = []
    exported = getattr(S, name)

    def recorded(*call):
        calls.append(call)
        return exported(*call)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, name, recorded)
        result = run(instance, *args)
    return (result, *walked_tree(instance, policy_of(*calls[0])))


@dataclass(frozen=True)
class KeyedChoices(Policy):
    """`choose` at each belief's `key`, as a `Policy`: a solver's choices,
    asked one belief at a time."""

    key: object
    choose: object

    def decide(self, instance: CtpInstance, belief: Belief):
        at = belief.opened, belief.blocked, belief.position
        return self.choose(self.key(*at), *at)


def walked_solve(instance: CtpInstance, belief_cap: int = S.BELIEF_CAP,
                 ) -> tuple[S.OptResult, Cost, DecisionTreePolicy]:
    """`solve(instance, belief_cap)`, then `walked_tree` of the choices of
    the solver whose keys that solve wrote its graph by."""
    return _walked(S.solve, "export_keyed_graph",
                   lambda instance, key, choose, tables: KeyedChoices(
                       key, choose),
                   instance, belief_cap)


def walked_index_rule(instance: CtpInstance,
                      ) -> tuple[S.OptResult, Cost, DecisionTreePolicy]:
    """`solve_disjoint_paths(instance)`, then `walked_tree` of the
    committing policy whose tree it wrote."""
    return _walked(S.solve_disjoint_paths, "export_decision_tree",
                   lambda instance, policy: policy, instance)


def stratum_mass(instance: CtpInstance, opened: int, blocked: int) -> int:
    """M(K) of the stratum K the masks reveal, Z times its chance: the
    product over the components of the summed weight of the rows that
    agree with the masks, a component's total where they set none of its
    bits."""
    known = opened | blocked
    return math.prod(
        sum(w for row, w in comp.rows if row & known == opened & comp.mask)
        for comp in instance.joint.components)


def decomposed_cost(early_exit: Fraction, passing: Fraction,
                    walk: Fraction, charge: Fraction | int) -> Fraction:
    """Reassemble a reference policy cost from its outcome split."""
    return early_exit + passing * (walk + as_fraction(charge))


def chain_early_exit_expectation(passing: Fraction, walk: Fraction,
                                 early_exit: Fraction, copies: int) -> Fraction:
    """Early-exit mass of `copies` gadgets in series.

    Stopping inside copy i + 1 means paying i full walks first, and only the
    1 - passing share of that mass stops there; the fold keeps the split
    identity true for the whole chain with any terminal charge.
    """
    if copies < 1:
        raise InvalidInstanceError("need at least one copy")
    acc = early_exit
    for k in range(2, copies + 1):
        acc = early_exit + passing * (
            (1 - passing ** (k - 1)) * walk + acc)
    return acc


def _forward_through(handle: BaitingHandle, belief: Belief) -> Action | None:
    """Shared corridor rule: take the first open cut edge, else push on."""
    pos = belief.position
    if pos == handle.entry:
        return Action.move(handle.path_edges[0])
    if pos in handle.sections:
        i = handle.sections.index(pos)
        cut = handle.cut_edges[i]
        if belief.status(cut):
            return Action.move(cut)
        return Action.move(handle.path_edges[i + 1])
    return None


def _baiting_forward(self: BaitingForwardPolicy, instance: CtpInstance,
                     belief: Belief) -> Action | None:
    if belief.position == instance.t:
        return Action.halt()
    if belief.position == self.handle.exit:
        return Action.move(self.terminal)
    return _forward_through(self.handle, belief)


def _baiting_bailout(self: BaitingBailoutPolicy, instance: CtpInstance,
                     belief: Belief) -> Action | None:
    handle, j = self.handle, self.rounds
    pos = belief.position
    last_cut = handle.cut_edges[j - 1]
    if pos == instance.t:
        return Action.halt()
    if pos == handle.entry:
        if belief.status(last_cut) is False:
            return Action.give_up(self.fallback)
        return Action.move(handle.path_edges[0])
    if pos in handle.sections:
        i = handle.sections.index(pos)
        if i >= j:
            return None
        cut = handle.cut_edges[i]
        if belief.status(cut):
            return Action.move(cut)
        if belief.status(last_cut) is False:
            return Action.move(handle.path_edges[i])
        return Action.move(handle.path_edges[i + 1])
    return None


def _observation_forward(self: ObservationForwardPolicy,
                         instance: CtpInstance,
                         belief: Belief) -> Action | None:
    h = self.handle
    pos = belief.position
    if pos == instance.t:
        return Action.halt()
    if pos == h.gate:
        if belief.status(h.blocker_out) is None:
            return Action.move(h.second.path_edges[0])
        return Action.move(h.sneak)
    if pos == h.far_gate:
        if belief.status(h.blocker_in) and belief.status(h.blocker_out):
            return Action.move(h.blocker_out)
        return Action.give_up(h.second.exit_shortcut)
    if pos == h.out_post:
        return Action.move(h.spur_out)
    if pos == h.obs:
        return Action.move(h.spur_in)
    if pos == h.in_post:
        return Action.move(h.blocker_in)
    if pos == h.gate2:
        return Action.move(h.third.path_edges[0])
    if pos == h.exit:
        return Action.move(self.terminal)
    for corridor in (h.first, h.second, h.third):
        step = _forward_through(corridor, belief)
        if step is not None:
            return step
    return None


_REFERENCE_RULES = {BaitingForwardPolicy: _baiting_forward,
                    BaitingBailoutPolicy: _baiting_bailout,
                    ObservationForwardPolicy: _observation_forward}


def reference_decide(policy: Policy, instance: CtpInstance,
                     belief: Belief) -> Action | None:
    """What `policy`, a reference policy, decides at `belief`, by its
    rules run step by step on its handle and parameters."""
    return _REFERENCE_RULES[type(policy)](policy, instance, belief)


def ceil_log2_by_doubling(value: Fraction | int) -> int:
    """Smallest z >= 0 with 2**z >= value, by doubling a Fraction from 1."""
    x = as_fraction(value)
    if x <= 0:
        raise InvalidInstanceError(f"ceil_log2 needs a positive value, got {x}")
    z = 0
    power = Fraction(1)
    while power < x:
        power *= 2
        z += 1
    return z


def edge_by_edge_baiting(builder: InstanceBuilder, entry: str, exit: str,
                         sink: str, length: Fraction | int,
                         prefix: str) -> BaitingHandle:
    """`build_baiting`, each section added by `add_vertex` and each edge
    by its own `add_edge` call."""
    span = as_fraction(length)
    if span <= 1:
        raise InvalidInstanceError(f"corridor length must exceed 1, got {span}")
    n = (1 << ceil_log2_by_doubling(4 * span)) - 1
    step = Cost.of(span / (n + 1))
    for name in (entry, exit, sink):
        builder.add_vertex(name)
    sections = tuple(builder.add_vertex(f"{prefix}.v{i:03d}")
                     for i in range(1, n + 1))
    stops = (entry, *sections, exit)
    path_edges = tuple(
        builder.add_edge(stops[i], stops[i + 1], step,
                         id=f"{prefix}.path{i:03d}")
        for i in range(n + 1))
    cut_edges = tuple(
        builder.add_edge(sections[i - 1], sink, Cost.zero(),
                         id=f"{prefix}.cut{i:03d}",
                         block_p=Fraction(1, 2))
        for i in range(1, n + 1))
    entry_shortcut = builder.add_edge(entry, sink, span, id=f"{prefix}.exit_u")
    exit_shortcut = builder.add_edge(exit, sink, span, id=f"{prefix}.exit_v")
    return BaitingHandle(entry, exit, sink, span, sections, path_edges,
                         cut_edges, entry_shortcut, exit_shortcut)
