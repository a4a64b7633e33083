"""Policies over belief states and their exact evaluation.

A policy is a deterministic rule mapping each belief (position plus revealed
edge statuses) to an action. This module provides the action vocabulary, an
explicit decision-tree representation with JSON round-tripping, one exact
evaluator, a seeded Monte Carlo simulator, and the library of named
reference policies for the baiting and observation gadgets.

The evaluator walks a depth-first stack of observation outcomes, which
copes with gadget chains far too long to enumerate; it prices every
policy and exports decision trees. A walk keeps its branch tables from
`CtpInstance.outcomes` only until it ends, and writes no text: tree
nodes are keyed by a belief's masks, and breakdown rows hold the masks
of their outcomes. Text is written only at the edges, in `to_json`,
`outcome_breakdown`, `describe_belief` and error messages.
Replaying the policy on every weather of the support
(`evaluate_exact(..., mode="weathers")`) stays as the independent oracle
that the walk is checked against.

Every walk starts by seeing the uncertain edges at s; after that each step
obeys the solver's move rule: `CtpInstance.moves_from` and `senses_from`
list what may be done where, and arrival reveals `fresh_at`. A walk's
beliefs hold masks, and a reveal ORs the revealed bits into them; a
weather walk splits them into open and blocked by one AND with the
weather's blocked mask. `walk_weather`, `simulate` and the evaluator
share one stepping loop (`_walk`), which runs from one reveal to the
next and counts its step cap from the last reveal. The simulator keeps
the walks its trials share in a prefix tree of trajectories; on a
dyadic table a trial decides a one-edge reveal from that edge's draw
alone.

Expected costs are exact: the walks add plain numbers (`Cost.plain`) and
skip zero prices. The only floats are `math.inf`, for a walk the policy
declares infeasible, and the simulator's summary statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping

from .gadgets import BaitingHandle, ObservationHandle
from .model import (
    BELIEF_CAP,
    Belief,
    Cost,
    CtpInstance,
    EnumerationCapError,
    InternalCheckError,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    Weather,
    load_json,
    require_type,
    reveal_rule,
    sample_weather,
    trial_counters,
    weather_support,
)


# ---------------------------------------------------------------------------
# actions

class ActionKind(Enum):
    MOVE = "move"
    SENSE = "sense"
    GIVE_UP = "give_up"
    HALT = "halt"


@dataclass(frozen=True)
class Action:
    """One step: traverse an edge, sense an edge, give up, or stop at t.

    GIVE_UP is a move along a designated always-open edge; it exists so
    policies can mark the bail-out step, and it is checked more strictly
    than MOVE (the edge must be sure).
    """

    kind: ActionKind
    edge: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.HALT:
            if self.edge is not None:
                raise ValueError("halt carries no edge")
        elif not isinstance(self.edge, str):
            raise ValueError(f"{self.kind.value} needs an edge id")

    @staticmethod
    def move(edge: str) -> Action:
        return Action(ActionKind.MOVE, edge)

    @staticmethod
    def sense(edge: str) -> Action:
        return Action(ActionKind.SENSE, edge)

    @staticmethod
    def give_up(edge: str) -> Action:
        return Action(ActionKind.GIVE_UP, edge)

    @staticmethod
    def halt() -> Action:
        return Action(ActionKind.HALT)

    def __str__(self) -> str:
        if self.kind is ActionKind.HALT:
            return "halt"
        return f"{self.kind.value}({self.edge})"


def action_to_dict(action: Action | None) -> dict | None:
    if action is None:
        return None
    out: dict = {"kind": action.kind.value}
    if action.edge is not None:
        out["edge"] = action.edge
    return out


def action_from_dict(data: dict | None) -> Action | None:
    if data is None:
        return None
    require_type(data, dict, "action")
    return Action(ActionKind(data.get("kind")), data.get("edge"))


# ---------------------------------------------------------------------------
# policies

# how a tree key and an outcome label write a status: blocked, open
_KEY_WORDS = ("B", "O")
_LABEL_WORDS = ("blocked", "open")
_NO_REVEAL = (0, 0)  # the outcome masks of a step that reveals nothing


def _text(instance: CtpInstance, opened: int, blocked: int,
          words: tuple[str, str]) -> str:
    """The statuses the masks set, in edge-id order, as `id=word` joined
    by commas."""
    return ",".join(f"{e}={words[is_open]}"
                    for e, is_open in instance.statuses(opened, blocked))


def _parse(instance: CtpInstance, text: str, words: tuple[str, str],
           ) -> tuple[int, int] | None:
    """The masks `(opened, blocked)` that `_text` writes as `text`, or None
    if it writes no such text (an unknown edge id, another word, ids out
    of order). An id may hold commas and equals signs."""
    masks, pending = [0, 0], ""  # blocked, opened; an id cut at a comma
    for part in text.split(",") if text else ():
        edge, _, word = (pending + part).rpartition("=")
        if edge in instance.bits and word in words:
            masks[words.index(word)] |= instance.bits[edge]
            pending = ""
        else:
            pending += part + ","
    if pending:
        return None
    blocked, opened = masks
    return ((opened, blocked) if _text(instance, opened, blocked, words)
            == text else None)


def describe_belief(belief: Belief) -> str:
    parts = ", ".join(f"{e} {'open' if is_open else 'blocked'}"
                      for e, is_open in belief.known)
    return f"at {belief.position} knowing [{parts}]" if parts else (
        f"at {belief.position} knowing nothing")


class Policy:
    """Deterministic decision rule.

    `decide` returns the action to take at a belief, or None to declare the
    situation infeasible (the evaluator charges an infinite cost on that
    branch). Policies must be immutable; evaluation never copies them.
    """

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        raise NotImplementedError


@dataclass(frozen=True)
class TreeNode:
    """One recorded action and the nodes it leads to, each child keyed by
    the `(opened, blocked)` masks its outcome reveals (`(0, 0)` after a
    step that reveals nothing)."""

    action: Action | None
    children: tuple[tuple[tuple[int, int], tuple[str, int, int]], ...] = ()


@dataclass(frozen=True)
class DecisionTreePolicy(Policy):
    """Explicit policy: one recorded action per reachable belief.

    Nodes are keyed by a belief's `(position, opened, blocked)`, over the
    numbering of `instance`: the instance the tree was exported on or
    loaded against. `decide` is one dict lookup; a belief over an instance
    that numbers its edges otherwise is refused. Text is written only at
    the edges: `to_json` writes a key as `position|id=O,id=B` and an
    outcome as `id=open,id=blocked` (ids sorted), and `from_json` and
    `from_dict` parse them back into masks.
    """

    instance: CtpInstance = field(repr=False)
    nodes: Mapping[tuple[str, int, int], TreeNode]
    root: tuple[str, int, int] | None = None

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        if (belief.instance is not self.instance
                and belief.instance.bits != self.instance.bits):
            raise InvalidInstanceError(
                "decision tree was built on an instance that numbers its "
                "uncertain edges differently")
        node = self.nodes.get((belief.position, belief.opened,
                               belief.blocked))
        if node is None:
            raise InvalidInstanceError(
                f"decision tree has no action {describe_belief(belief)}")
        return node.action

    @classmethod
    def from_dict(cls, data: dict, instance: CtpInstance,
                  ) -> DecisionTreePolicy:
        """The tree `data` writes, its keys and labels parsed into masks of
        `instance`. A key or label that `to_json` writes for no belief or
        outcome on `instance` would never match: that node, child or root
        is left out."""
        require_type(data, dict, "decision tree")
        vertices = frozenset(instance.vertices)

        def key(text) -> tuple[str, int, int] | None:
            """The first split of `text` at a bar into a vertex and the
            statuses of some belief (a vertex name may hold bars)."""
            at = text.find("|") if isinstance(text, str) else -1
            while at >= 0:
                masks = (_parse(instance, text[at + 1:], _KEY_WORDS)
                         if text[:at] in vertices else None)
                if masks is not None:
                    return (text[:at], *masks)
                at = text.find("|", at + 1)
            return None

        nodes = {}
        for text, raw in require_type(data.get("nodes"), dict,
                                      "decision tree nodes").items():
            where = f"decision tree node {text!r}"
            raw = require_type(raw, dict, where)
            children = require_type(raw.get("children", {}), dict,
                                    f"children of {where}")
            action = action_from_dict(raw.get("action"))
            parsed = [(_parse(instance, label, _LABEL_WORDS), key(child))
                      for label, child in sorted(children.items())]
            if (node := key(text)) is not None:
                nodes[node] = TreeNode(action, tuple(
                    (masks, child) for masks, child in parsed
                    if masks is not None and child is not None))
        return cls(instance, nodes, key(data.get("root")))

    def to_json(self) -> str:
        """The tree as `json.dumps(..., indent=2, sort_keys=True)` writes it
        with text keys and labels, written node by node into one join;
        each mask pair's text is written once."""
        text = cache(partial(_text, self.instance))
        quote = encode_basestring_ascii

        def key(node: tuple[str, int, int]) -> str:
            return f"{node[0]}|{text(node[1], node[2], _KEY_WORDS)}"

        parts, sep = ['{\n  "nodes": {'], "\n"
        for written, node in sorted((key(node), node) for node in self.nodes):
            action = self.nodes[node].action
            if action is None:
                act = "null"
            elif action.edge is None:
                act = '{\n        "kind": "halt"\n      }'
            else:
                act = (f'{{\n        "edge": {quote(action.edge)},\n'
                       f'        "kind": "{action.kind.value}"\n      }}')
            kids = ",\n".join(
                f"        {quote(label)}: {quote(child)}"
                for label, child in sorted(
                    (text(*masks, _LABEL_WORDS), key(child))
                    for masks, child in self.nodes[node].children))
            kids = f"{{\n{kids}\n      }}" if kids else "{}"
            parts.append(f'{sep}    {quote(written)}: {{\n      "action": '
                         f'{act},\n      "children": {kids}\n    }}')
            sep = ",\n"
        root = "null" if self.root is None else quote(key(self.root))
        close = "}" if len(parts) == 1 else "\n  }"
        parts.append(f'{close},\n  "root": {root}\n}}')
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str, instance: CtpInstance,
                  ) -> DecisionTreePolicy:
        return cls.from_dict(load_json(text), instance)


def load_policy(path: str | Path, instance: CtpInstance,
                ) -> DecisionTreePolicy:
    return DecisionTreePolicy.from_json(Path(path).read_text(), instance)


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalResult:
    """Exact expected cost plus the per-event decomposition behind it.

    Each row of `rows` is (event, chance, cost). An event is the outcomes
    along one branch of the walk, each as the `(opened, blocked)` masks
    it reveals over the numbering of `instance`; `outcome_breakdown`
    writes them as text labels the first time it is read.
    """

    expected_cost: Cost
    rows: tuple[tuple[tuple[tuple[int, int], ...], Fraction, Cost], ...]
    instance: CtpInstance = field(repr=False)

    @cached_property
    def outcome_breakdown(self) -> tuple[tuple[str, Fraction, Cost], ...]:
        """The rows, each event written `id=open,id=blocked ; ...` (ids
        sorted within an outcome), or "no observations" when it shows
        nothing; each outcome's text is written once."""
        text = cache(partial(_text, self.instance))
        return tuple((" ; ".join(text(*masks, _LABEL_WORDS)
                                 for masks in event) or "no observations",
                      p, cost) for event, p, cost in self.rows)


def _summed(instance: CtpInstance, rows: list) -> EvalResult:
    """The expected cost of breakdown rows whose chances must sum to one."""
    if sum((p for _, p, _ in rows), Fraction(0)) != 1:
        raise InternalCheckError("outcome probabilities do not sum to one")
    # an infinite row is not multiplied out: below the smallest float, a
    # chance times math.inf is nan
    expected = (math.inf if any(c.is_infinite for _, _, c in rows) else
                sum(p * c.plain for _, p, c in rows if c.plain))
    return EvalResult(Cost.of(expected), tuple(rows), instance)


def _step_cap(instance: CtpInstance) -> int:
    """Steps a walk may take between two reveals. The masks hold still
    until the next one, so a longer walk repeats a belief: it loops."""
    return max(64, 16 * len(instance.edges))


def _illegal(message: str, belief: Belief) -> InvalidInstanceError:
    return InvalidInstanceError(f"{message}, {describe_belief(belief)}")


def _step(instance: CtpInstance, belief: Belief, action: Action,
          ) -> tuple[Fraction | int, str, int | None]:
    """Plain price, next position and the mask of the edges it reveals
    (None at halt).

    Legal exactly when the solver could take it: moves and fees come from
    `CtpInstance.moves_from`/`senses_from`, arrival reveals `fresh_at`.
    """
    pos = belief.position
    if action.kind is ActionKind.HALT:
        if pos != instance.t:
            raise _illegal("halt away from the target", belief)
        return 0, pos, None
    edge_id = action.edge
    if action.kind is ActionKind.SENSE:
        fee = instance.senses_from(pos).get(edge_id)
        if fee is None:
            if instance.variant is not Variant.SENSING:
                raise _illegal("sensing is not available in this variant",
                               belief)
            raise _illegal(f"no sensing entry for {edge_id!r} from {pos}",
                           belief)
        if belief.status(edge_id) is not None:
            raise _illegal(
                f"sensing {edge_id} whose status is already known", belief)
        return fee.plain, pos, instance.bits[edge_id]
    move = instance.moves_from(pos).get(edge_id)
    if move is None:
        if edge_id not in instance.edge_map:
            raise _illegal(f"unknown edge {edge_id!r}", belief)
        raise _illegal(f"edge {edge_id} cannot be taken out of {pos}", belief)
    edge, far = move
    if edge.uncertain:
        if action.kind is ActionKind.GIVE_UP:
            raise _illegal(f"give-up edge {edge_id} is not always open",
                           belief)
        status = belief.status(edge_id)
        if status is not True:
            state = "blocked" if status is False else "unobserved"
            raise _illegal(f"edge {edge_id} is {state}", belief)
    return edge.cost.plain, far, instance.fresh_at(
        far, belief.opened | belief.blocked)


def _walk(instance: CtpInstance, decide: Callable[..., Action | None],
          belief: Belief, total: Fraction | int,
          ) -> tuple[Fraction | int | float, Belief, int | None]:
    """Walk from `belief`, `total` spent, by a policy's `decide` to the
    next reveal, halt or action of None: the total then (`math.inf` after
    None), the belief on arrival and the mask revealed (None once the walk
    is over). The one stepping loop of `walk_weather`, `simulate` and
    `_trace`; past `_step_cap` steps it raises."""
    cap = _step_cap(instance)
    for _ in range(cap):
        action = decide(instance, belief)
        if action is None:
            return math.inf, belief, None
        price, pos, revealed = _step(instance, belief, action)
        if price:  # neither a zero price nor a zero total builds a Fraction
            total = total + price if total else price
        if revealed is None:
            return total, belief, None
        belief = Belief(pos, belief.opened, belief.blocked, instance)
        if revealed:
            return total, belief, revealed
    raise EnumerationCapError(
        f"no arrival within {cap} steps; last {describe_belief(belief)}")


def _reveal(belief: Belief, fresh: int, blocked: int) -> Belief:
    """`belief` once mask `fresh` shows, the bits `blocked` blocked."""
    return Belief(belief.position, belief.opened | (fresh ^ blocked),
                  belief.blocked | blocked, belief.instance)


def walk_weather(instance: CtpInstance, policy: Policy,
                 weather: Weather) -> Cost:
    """Run the policy against one fixed weather; return the realized cost."""
    belief = Belief(instance.s, 0, 0, instance)
    fresh, total = instance.fresh_at(instance.s, 0), 0
    while fresh is not None:
        total, belief, fresh = _walk(
            instance, policy.decide,
            _reveal(belief, fresh, fresh & weather.blocked), total)
    return Cost.infinite() if total == math.inf else Cost.of(total)


def _trace(instance: CtpInstance, policy: Policy,
           record: dict[tuple[str, int, int], TreeNode] | None,
           ) -> EvalResult:
    """Evaluate by enumerating observation outcomes depth first.

    Between observations the walk is deterministic, so each pending entry
    walks until the policy halts, declares the situation infeasible, or
    triggers a branch: arriving where unrevealed edges become visible, or
    sensing. Branch probabilities come from the joint model conditioned on
    everything revealed so far, which makes the evaluation exact for
    dependent instances too. Every leaf adds one breakdown row, and the
    expected cost is the probability-weighted sum of those rows.

    Each piece of work is done once per walk, and none of it is text. The
    branch tables come from `CtpInstance.outcomes`, kept only until the
    walk ends. With `record`, `_walk` steps with a `decide` that notes
    each step once the next decision shows where it led, under the
    belief's masks. The walk then fills `record` with the tree and raises
    `EnumerationCapError` once it holds more than `BELIEF_CAP` nodes past
    its root.
    """
    tables: dict = {}
    rows: list[tuple[tuple[tuple[int, int], ...], Fraction, Cost]] = []

    def note(children: tuple = ()) -> None:
        """Record the step taken last, which led to `children`."""
        if record is None:
            return
        seen = record.get(key)
        if seen is not None and seen.action != action:
            raise InvalidInstanceError(
                "policy is not a function of the belief at "
                f"{key[0]}|{_text(instance, key[1], key[2], _KEY_WORDS)}")
        record[key] = TreeNode(action, children)
        # past its root, every node of a solve's tree is a belief it
        # expanded, so a solve within the belief cap never trips this
        if len(record) > BELIEF_CAP + 1:
            raise EnumerationCapError(
                f"the decision tree exceeds the cap of {BELIEF_CAP} nodes "
                "past its root")

    def noting(instance: CtpInstance, belief: Belief) -> Action | None:
        """`policy.decide`, noting the step before once it shows where
        that step led."""
        nonlocal key, action
        here = (belief.position, belief.opened, belief.blocked)
        if key is not None:  # the step before led here, revealing none
            note(((_NO_REVEAL, here),))
        key, action = here, policy.decide(instance, belief)
        return action

    def branch(belief: Belief, fresh: int,
               ) -> list[tuple[tuple[int, int], Fraction, Belief]]:
        """Reveal mask `fresh` on arrival at `belief`; note and return the
        outcomes."""
        pos, opened, blocked = belief.position, belief.opened, belief.blocked
        children = [((opened_by, blocked_by), prob,
                     Belief(pos, opened | opened_by, blocked | blocked_by,
                            instance))
                    for opened_by, blocked_by, prob in instance.outcomes(
                        tables, fresh, opened, blocked)]
        if record is not None:
            note(tuple((masks, (pos, child.opened, child.blocked))
                       for masks, _, child in children))
        return children

    # pending entries: belief, the outcomes that led to it, probability,
    # cost so far
    stack: list[tuple[Belief, tuple[tuple[int, int], ...], Fraction,
                      Fraction | int]] = []

    def push(children, event, prob, spent) -> None:
        # reversed, so that outcomes pop in the order the model lists them
        for masks, p, child in reversed(children):
            stack.append((child, event + (masks,), prob * p, spent))

    decide = policy.decide if record is None else noting
    start = Belief(instance.s, 0, 0, instance)
    fresh = instance.fresh_at(instance.s, 0)
    key, action = (instance.s, 0, 0), None  # of the step taken last
    if fresh:
        push(branch(start, fresh), (), Fraction(1), 0)
    else:
        stack.append((start, (), Fraction(1), 0))
    while stack:
        belief, event, prob, spent = stack.pop()
        key = None
        spent, belief, fresh = _walk(instance, decide, belief, spent)
        if fresh is not None:
            push(branch(belief, fresh), event, prob, spent)
            continue
        note()
        rows.append((event, prob, Cost.of(spent)))

    return _summed(instance, rows)


def evaluate_exact(instance: CtpInstance, policy: Policy,
                   mode: str = "tree") -> EvalResult:
    """Exact expected cost of `policy`, with a per-event breakdown.

    mode "tree" walks the observation outcomes, one breakdown row per
    leaf, and copes with instances whose weather support is far too
    large to list. mode "weathers" replays the policy against every
    weather of the support instead, one row per weather, its event the
    whole weather as one outcome; it is the independent oracle the tree
    walk is checked against.
    """
    if mode == "tree":
        return _trace(instance, policy, None)
    if mode != "weathers":
        raise ValueError(f"unknown evaluation mode {mode!r}")
    every = (1 << len(instance.uncertain_edges)) - 1
    return _summed(instance, [
        (((every ^ weather.blocked, weather.blocked),), prob,
         walk_weather(instance, policy, weather))
        for weather, prob in weather_support(instance)])


def export_decision_tree(instance: CtpInstance, policy: Policy,
                         ) -> tuple[EvalResult, DecisionTreePolicy]:
    """Unfold `policy` over every belief it can reach, as an explicit tree."""
    nodes: dict[tuple[str, int, int], TreeNode] = {}
    result = _trace(instance, policy, nodes)
    return result, DecisionTreePolicy(instance, nodes, (instance.s, 0, 0))


_TRAJECTORY_MEMO_CAP = 4096


def simulate(instance: CtpInstance, policy: Policy, trials: int,
             seed: int) -> tuple[float, float]:
    """Average realized cost over seeded weather draws.

    Deterministic given (seed, trials): trial i's weather is that of
    `sample_weather` on trial_stream(seed, i), however calls are
    scheduled. A walk's cost depends only on the statuses it reveals, so
    the trials of one call share a prefix tree of trajectories. A node is
    a reveal point (the belief on arrival, the mask `fresh` shown there,
    the cost so far), its children are keyed by the blocked bits of
    `fresh`, and a leaf is a realized cost. On a dyadic table a trial
    decides a one-edge reveal from that edge's word alone (`reveal_rule`);
    for any other reveal it draws its whole weather, once per trial, and
    reads the bits of `fresh`. It walks (`_walk`) only where a child is
    missing; the first `_TRAJECTORY_MEMO_CAP` (4,096) nodes and leaves
    are kept. Trial i thus takes exactly the steps of
    `walk_weather` on its weather, with the same cap and errors, and the
    outputs are bit-identical to walking every trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")

    def node(belief: Belief, fresh: int, total) -> tuple:
        return belief, fresh, total, {}, reveal_rule(instance, fresh)

    root = node(Belief(instance.s, 0, 0, instance),
                instance.fresh_at(instance.s, 0), 0)
    stored = 1
    samples: list[float] = []
    for trial, counter in enumerate(trial_counters(seed, range(trials))):
        here, shut = root, None
        while type(here) is tuple:
            belief, fresh, total, children, rule = here
            if rule is not None:
                blocked = rule(counter)
            else:
                if shut is None:
                    shut = sample_weather(instance, SplitMix64(counter)).blocked
                blocked = shut & fresh
            child = children.get(blocked)
            if child is None:
                total, belief, fresh = _walk(
                    instance, policy.decide, _reveal(belief, fresh, blocked),
                    total)
                child = (float(total) if fresh is None else
                         node(belief, fresh, total))
                if stored < _TRAJECTORY_MEMO_CAP:
                    children[blocked] = child
                    stored += 1
            here = child
        if here == math.inf:
            raise InvalidInstanceError(
                f"trial {trial} hit a weather the policy declares infeasible")
        samples.append(here)
    mean = math.fsum(samples) / trials
    if trials == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in samples) / (trials - 1)
    return mean, math.sqrt(var / trials)


# ---------------------------------------------------------------------------
# reference policies: baiting gadget

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


@dataclass(frozen=True)
class BaitingForwardPolicy(Policy):
    """Cross the whole corridor, taking any open cut edge to the sink.

    At the gadget exit the policy moves along `terminal`, the edge that
    prices finishing the trip.
    """

    handle: BaitingHandle
    terminal: str

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        if belief.position == instance.t:
            return Action.halt()
        if belief.position == self.handle.exit:
            return Action.move(self.terminal)
        return _forward_through(self.handle, belief)


@dataclass(frozen=True)
class BaitingBailoutPolicy(Policy):
    """Probe the first `rounds` cut edges, then retreat and pay `fallback`.

    Advancing, it behaves like the forward policy; once the cut edge at
    section `rounds` is seen blocked it walks back to the entry and gives
    up along the fallback edge.
    """

    handle: BaitingHandle
    rounds: int
    fallback: str

    def __post_init__(self) -> None:
        if not 1 <= self.rounds <= self.handle.n:
            raise ValueError(
                f"rounds must lie in [1, {self.handle.n}], got {self.rounds}")

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
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


# ---------------------------------------------------------------------------
# reference policies: observation gadget

@dataclass(frozen=True)
class ObservationForwardPolicy(Policy):
    """Push through the observation gadget the way its analysis intends.

    Cross the first corridor, noting the inner blocker at the gate; cross
    the second; at the far gate bail along its sure exit unless both detour
    blockers are open, in which case loop through the observed vertex, take
    the unit sneak edge and cross the third corridor. Open cut edges are
    always taken.
    """

    handle: ObservationHandle
    terminal: str

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
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


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, Callable[..., Policy]] = {
    "baiting_pi": BaitingForwardPolicy,
    "baiting_pi_j": BaitingBailoutPolicy,
    "og_pi_g": ObservationForwardPolicy,
}


def reference_policy(name: str, **params) -> Policy:
    """Look up a named reference policy and bind its parameters."""
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown reference policy {name!r}; known: {known}")
    return factory(**params)


__all__ = [
    "Action",
    "ActionKind",
    "BaitingBailoutPolicy",
    "BaitingForwardPolicy",
    "DecisionTreePolicy",
    "EvalResult",
    "ObservationForwardPolicy",
    "Policy",
    "TreeNode",
    "action_from_dict",
    "action_to_dict",
    "describe_belief",
    "evaluate_exact",
    "export_decision_tree",
    "load_policy",
    "reference_policy",
    "simulate",
    "walk_weather",
]
