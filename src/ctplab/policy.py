"""Policies over belief states and their exact evaluation.

A policy is a deterministic rule mapping each belief (position plus revealed
edge statuses) to an action. This module provides the action vocabulary, an
explicit decision-tree representation with JSON round-tripping, one exact
evaluator, a seeded Monte Carlo simulator, and the library of named
reference policies for the baiting and observation gadgets.

Policies are priced by one walk, `price_keyed_graph`: it builds, checks
and prices one graph node per key of the belief, and counts the nodes
and leaves of the tree that graph unrolls to, which copes with gadget
chains far too long to enumerate. `evaluate_exact` and
`export_decision_tree` key each belief by itself, and the solver keys by
its search's cache keys. Replaying the policy on every weather of the
support (`evaluate_exact(..., mode="weathers")`) stays as the
independent oracle that the walk is checked against. The one explicit
policy, `DecisionTreePolicy`, holds one node per graph node under its
key (`export_keyed_graph`); a graph keyed by the search's keys is
unrolled into a tree only when `to_json` writes it. The walk keeps its
branch tables from `CtpInstance.outcomes` only until it ends, or reads
the search's when `solve` passes them, and writes no text: nodes are
keyed by a belief's masks. Text is written only at the edges, in
`to_json`, `describe_belief` and error messages.

Every walk starts by seeing the uncertain edges at s; after that each step
obeys the solver's move rule: `CtpInstance.moves_from` (read as one
table, `legal_moves`) and `senses_from` list what may be done where, and
arrival reveals `fresh_at`. A walk's beliefs hold masks, and a reveal
ORs the revealed bits into them; a weather walk splits them into open
and blocked by one AND with the weather's blocked mask. `walk_weather`
and `simulate` share one stepping loop (`_walk`), which runs from one
reveal to the next; the pricing walk takes one step per graph node.
Both refuse a belief met again before any reveal (`_loop_error`). The
simulator walks its trials in blocks, once for each group of trials
that have shown the same statuses, splitting the group at each reveal;
on a dyadic table a one-edge reveal is decided from that edge's draw.

Costs are exact: every walk adds ints in units of 1/D, as the search
does, and divides once. The only floats are `math.inf`, for a walk the
policy declares infeasible, and the simulator's samples and statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from heapq import heappop, heappush
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

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
    _FLIP,
    _require_keys,
    load_json,
    require_type,
    reveal_rule,
    sample_weather,
    times,
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


_HALT = Action.halt()  # actions are frozen, so one serves every walk


def action_from_dict(data: dict | None) -> Action | None:
    if data is None:
        return None
    _require_keys(data, {"kind", "edge"}, "action")
    return Action(ActionKind(data.get("kind")), data.get("edge"))


# ---------------------------------------------------------------------------
# policies

# how a tree key and an outcome label write a status: blocked, open
_KEY_WORDS = ("B", "O")
_LABEL_WORDS = ("blocked", "open")
_STAY_ROWS = ((0, 0, 1, 1),)  # its one outcome row, at chance 1/1
_NEW = object()  # a key no node is built for yet


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


# each belief its own key, as a decision tree keys its nodes
def _belief_key(opened: int, blocked: int, position: str,
                ) -> tuple[str, int, int]:
    return position, opened, blocked


class TreeNode(NamedTuple):
    """One recorded action and the nodes it leads to, each child keyed by
    the `(opened, blocked)` masks its outcome reveals (`(0, 0)` after a
    step that reveals nothing). Written by `export_keyed_graph` and
    `unrolled`, or read back by `DecisionTreePolicy.from_dict`. A tuple,
    so a policy allocates one object per node."""

    action: Action | None
    children: tuple[tuple[tuple[int, int], tuple], ...] = ()


@dataclass(frozen=True)
class DecisionTreePolicy(Policy):
    """Explicit policy: one recorded action per key of a reachable belief.

    Nodes are held under `key(opened, blocked, position)`, which starts
    with the position, over the numbering of `instance`. Keyed by each
    belief (`from_json`, `export_decision_tree`), the nodes are a decision
    tree; keyed by a solve's search, each node is listed before every
    node it leads to, and `unrolled` writes the tree. `decide` is one key
    and one lookup; a belief over an instance that numbers its edges
    otherwise is refused. `to_json` writes a key as `position|id=O,id=B`
    and an outcome as `id=open,id=blocked` (ids sorted), and `from_json`
    and `from_dict` parse them back into masks.
    """

    instance: CtpInstance = field(repr=False)
    nodes: Mapping[tuple, TreeNode]
    root: tuple | None = None
    key: Callable[[int, int, str], tuple] = field(
        default=_belief_key, repr=False, compare=False)

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        if (belief.instance is not self.instance
                and belief.instance.bits != self.instance.bits):
            raise InvalidInstanceError(
                "decision tree was built on an instance that numbers its "
                "uncertain edges differently")
        node = self.nodes.get(self.key(belief.opened, belief.blocked,
                                       belief.position))
        if node is None:
            raise InvalidInstanceError(
                f"decision tree has no action {describe_belief(belief)}")
        return node.action

    def unrolled(self) -> DecisionTreePolicy:
        """The decision tree, keyed by beliefs, where each is not its own
        key: a belief's children are its masks ORed with its key's outcome
        masks. A tree of more than `BELIEF_CAP` nodes past its root is
        refused from a count over the keys, before any node is written."""
        if self.key is _belief_key:
            return self
        # key -> (its tree's size, action, [(masks, position, child's)])
        linked: dict[tuple, tuple] = {}
        for k, (action, children) in reversed(self.nodes.items()):
            below = [(masks, child[0], linked[child])
                     for masks, child in children]
            linked[k] = (1 + sum(node[0] for _, _, node in below), action,
                         below)
        if linked[self.root][0] > BELIEF_CAP + 1:
            raise EnumerationCapError(_past_cap("tree"))
        tree, stack = {}, [((self.instance.s, 0, 0), linked[self.root])]
        while stack:
            belief, (_, action, children) = stack.pop()
            down = []
            for masks, far, node in children:
                below = (far, belief[1] | masks[0], belief[2] | masks[1])
                down.append((masks, below))
                stack.append((below, node))
            tree[belief] = tuple.__new__(TreeNode, (action, tuple(down)))
        return DecisionTreePolicy(self.instance, tree, (self.instance.s, 0, 0))

    @classmethod
    def from_dict(cls, data: dict, instance: CtpInstance,
                  ) -> DecisionTreePolicy:
        """The tree `data` writes, its keys and labels parsed into masks of
        `instance`. A key or label that `to_json` writes for no belief or
        outcome on `instance` would never match: that node, child or root
        is left out."""
        _require_keys(data, {"nodes", "root"}, "decision tree")
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
            _require_keys(raw, {"action", "children"}, where)
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
        """The tree (`unrolled`) as `json.dumps(..., indent=2,
        sort_keys=True)` writes it with text keys and labels, node by node
        into one join; each mask pair's text is written once."""
        tree = self.unrolled()
        nodes, text = tree.nodes, cache(partial(_text, self.instance))
        quote = encode_basestring_ascii

        def key(node: tuple[str, int, int]) -> str:
            return f"{node[0]}|{text(node[1], node[2], _KEY_WORDS)}"

        parts, sep = ['{\n  "nodes": {'], "\n"
        for written, node in sorted((key(node), node) for node in nodes):
            action = nodes[node].action
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
                    for masks, child in nodes[node].children))
            kids = f"{{\n{kids}\n      }}" if kids else "{}"
            parts.append(f'{sep}    {quote(written)}: {{\n      "action": '
                         f'{act},\n      "children": {kids}\n    }}')
            sep = ",\n"
        root = "null" if tree.root is None else quote(key(tree.root))
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
    """Exact expected cost and the number of outcome branches behind it:
    the leaves of the outcome tree in mode "tree", the weathers of the
    support in mode "weathers"."""

    expected_cost: Cost
    leaves: int


def _cost(total: Fraction | int | float, scale: int) -> Cost:
    """`total` units of 1/`scale` as a `Cost`; `math.inf` is infinite."""
    return Cost.of(total if total == math.inf else Fraction(total, scale))


def _loop_error(instance: CtpInstance, pos: str, *masks: int,
                ) -> InternalCheckError:
    """The refusal of a policy back at a belief before any reveal."""
    return InternalCheckError("the policy loops through the key at "
                              f"{pos}|{_text(instance, *masks, _KEY_WORDS)}")


def _illegal(message: str, instance: CtpInstance, pos: str, opened: int,
             blocked: int) -> InvalidInstanceError:
    belief = Belief(pos, opened, blocked, instance)
    return InvalidInstanceError(f"{message}, {describe_belief(belief)}")


def _step(instance: CtpInstance, pos: str, opened: int, blocked: int,
          action: Action) -> tuple[int, str, int | None]:
    """Price in units of 1/D, next position and the mask of the edges it
    reveals (None at halt), from `pos` with statuses `opened` and
    `blocked` known.

    Legal exactly when the solver could take it. A move or a give-up is
    one lookup in `CtpInstance.legal_moves`, the table of `moves_from`,
    where a miss is an unknown edge or one that cannot be taken out of
    here; arrival reveals what `fresh_at` says. Fees come from
    `senses_from`.
    """
    kind = action.kind
    where = (instance, pos, opened, blocked)
    if kind is ActionKind.HALT:
        if pos != instance.t:
            raise _illegal("halt away from the target", *where)
        return 0, pos, None
    edge_id = action.edge
    if kind is ActionKind.SENSE:
        fee = instance.senses_from(pos).get(edge_id)
        if fee is None:
            if instance.variant is not Variant.SENSING:
                raise _illegal("sensing is not available in this variant",
                               *where)
            raise _illegal(f"no sensing entry for {edge_id!r} from {pos}",
                           *where)
        bit = instance.bits[edge_id]
        if (opened | blocked) & bit:
            raise _illegal(
                f"sensing {edge_id} whose status is already known", *where)
        return (times(instance.cost_unit, *fee.fraction.as_integer_ratio()),
                pos, bit)
    move = instance.legal_moves.get((pos, edge_id))
    if move is None:
        if edge_id not in instance.edge_map:
            raise _illegal(f"unknown edge {edge_id!r}", *where)
        raise _illegal(f"edge {edge_id} cannot be taken out of {pos}", *where)
    price, far, bit, sight = move
    if bit:
        if kind is ActionKind.GIVE_UP:
            raise _illegal(f"give-up edge {edge_id} is not always open",
                           *where)
        if not opened & bit:
            state = "blocked" if blocked & bit else "unobserved"
            raise _illegal(f"edge {edge_id} is {state}", *where)
    return price, far, sight & ~(opened | blocked)


def _walk(instance: CtpInstance, decide: Callable[..., Action | None],
          belief: Belief, total: int,
          ) -> tuple[int | float, Belief, int | None]:
    """Walk from `belief`, `total` spent in 1/D, by a policy's `decide` to
    the next reveal, halt or action of None: the total then (`math.inf`
    after None), the belief on arrival and the mask revealed (None once
    the walk is over). The one stepping loop of `walk_weather` and
    `simulate`. The masks hold still up to a reveal, so a position stood
    on twice repeats a belief (`_loop_error`)."""
    opened, blocked, seen = belief.opened, belief.blocked, set()
    while belief.position not in seen:
        seen.add(belief.position)
        action = decide(instance, belief)
        if action is None:
            return math.inf, belief, None
        price, pos, revealed = _step(instance, belief.position, opened,
                                     blocked, action)
        total += price
        if revealed is None:
            return total, belief, None
        belief = Belief(pos, opened, blocked, instance)
        if revealed:
            return total, belief, revealed
    raise _loop_error(instance, belief.position, opened, blocked)


def _reveal(belief: Belief, fresh: int, blocked: int) -> Belief:
    """`belief` once mask `fresh` shows, the bits `blocked` blocked."""
    return Belief(belief.position, belief.opened | (fresh ^ blocked),
                  belief.blocked | blocked, belief.instance)


def _weather_total(instance: CtpInstance, policy: Policy,
                   weather: Weather) -> int | float:
    """`walk_weather`'s cost in units of 1/D, `math.inf` if infinite."""
    belief = Belief(instance.s, 0, 0, instance)
    fresh, total = instance.fresh_at(instance.s, 0), 0
    while fresh is not None:
        total, belief, fresh = _walk(
            instance, policy.decide,
            _reveal(belief, fresh, fresh & weather.blocked), total)
    return total


def walk_weather(instance: CtpInstance, policy: Policy,
                 weather: Weather) -> Cost:
    """Run the policy against one fixed weather; return the realized cost.
    A weather the joint model gives chance 0 raises InvalidInstanceError:
    some component holds no row, or a row of weight 0, for its statuses.
    Only a net can: an independent edge blocks at a chance inside (0, 1).
    """
    shut = weather.blocked
    if instance.dependency is not None and any(
            not dict(comp.rows).get(comp.mask & ~shut)
            for comp in instance.joint.components):
        raise InvalidInstanceError(f"weather {shut:#x} has chance 0")
    return _cost(_weather_total(instance, policy, weather), instance.cost_unit)


def _each_belief(instance: CtpInstance, policy: Policy,
                 ) -> tuple[Callable[..., tuple], Callable[..., Action | None]]:
    """The `key` and `choose` of `price_keyed_graph` that key each belief
    by itself and ask `policy` at it."""
    return _belief_key, lambda _, opened, blocked, position: policy.decide(
        instance, Belief(position, opened, blocked, instance))


def evaluate_exact(instance: CtpInstance, policy: Policy,
                   mode: str = "tree") -> EvalResult:
    """Exact expected cost of `policy` and its number of outcome branches.

    mode "tree" prices the outcome tree by its graph, each belief its own
    key (`price_keyed_graph`), and writes no tree; it copes with instances
    whose weather support is far too large to list, and refuses a policy
    that reaches more than `BELIEF_CAP + 1` beliefs. mode "weathers"
    replays the policy against every weather of the support instead, one
    branch per weather; it is the independent oracle the tree mode is
    checked against.
    """
    if mode == "tree":
        price, _, leaves, _ = price_keyed_graph(
            instance, *_each_belief(instance, policy))
        return EvalResult(price, leaves)
    if mode != "weathers":
        raise ValueError(f"unknown evaluation mode {mode!r}")
    rows = [(prob, _weather_total(instance, policy, weather))
            for weather, prob in weather_support(instance)]
    if sum(prob for prob, _ in rows) != 1:
        raise InternalCheckError("outcome probabilities do not sum to one")
    # an infinite row is not multiplied out: below the smallest float, a
    # chance times math.inf is nan
    expected = (math.inf if any(spent == math.inf for _, spent in rows)
                else sum(prob * spent for prob, spent in rows))
    return EvalResult(_cost(expected, instance.cost_unit), len(rows))


def export_decision_tree(instance: CtpInstance, policy: Policy,
                         ) -> tuple[Cost, DecisionTreePolicy]:
    """Unfold `policy` over every belief it can reach, as an explicit tree,
    and its price: `export_keyed_graph` with each belief its own key."""
    return export_keyed_graph(instance, *_each_belief(instance, policy))[:2]


def _past_cap(form: str) -> str:  # "tree", or "graph" of search keys
    return (f"the decision {form} exceeds the cap of {BELIEF_CAP} nodes "
            "past its root")


def price_keyed_graph(instance: CtpInstance,
                      key: Callable[[int, int, str], tuple],
                      choose: Callable[..., Action | None],
                      tables: dict | None = None,
                      ) -> tuple[Cost, list[list], int, int]:
    """Price a policy that decides by a key of the belief, one graph node
    per key: the price, the graph, the number of leaves of the tree it
    unrolls to and the number of that tree's nodes. The package's one
    pricing walk: `evaluate_exact` and `export_decision_tree` key each
    belief by itself, and `solve` by its search's cache keys.

    `key(opened, blocked, position)` is a belief's key: the position and
    the masks, and a fourth item where the key keeps only some statuses,
    the cut, its bits. `choose(key, opened, blocked, position)` is the
    action there. The graph lists its nodes from the root, the key of s
    knowing nothing, each before every node it leads to; a node is `[key,
    action, price in 1/D, outcomes, weight, tree nodes, leaves]`, an
    outcome `(masks, far position, child node, chance weight, chance
    total)` as the model's row.

    The walk goes depth first over the first belief of each key, the
    outcomes of a step in the model's order, and builds its node with one
    `choose`, one `_step` and, on a reveal, one `CtpInstance.outcomes`
    call; a belief whose key is built already is skipped. `tables` holds
    the branch tables of that call, a fresh dict by default; `solve`
    passes its search's, which hold every table its policy reveals
    under, so the walk builds none. The root's chance node, where s
    shows something, is one node too. A node is finished once every node
    below it is, and then counts its subtree: 1 plus its children's
    nodes, and the sum of its children's leaves, or 1 leaf if it has no
    children.

    Local checks, which read only the instance, make the graph's price
    the price of the tree it unrolls to. At each node the move's bit, the
    bits arriving can show and the joint components a reveal touches lie
    inside the cut, so each belief of the key takes the same step to the
    same outcomes at the same chances; each child's cut lies inside the
    parent's plus the bits just revealed, so each has the same child keys.
    A failed check, or a cycle among the nodes (`_loop_error`), raises
    `InternalCheckError`: with each belief its own key, a cycle is a
    policy that walks in a loop. The graph holds at most `BELIEF_CAP`
    nodes past its root; past it, a graph of search keys is refused by
    name, a graph with each belief its own key as a decision tree.

    Chances and costs are ints. Weights M = Z·P, Z `instance.joint.scale`
    and P the chance of reaching a node, flow down from the root: each
    node after every node that leads to it (the reverse of the order the
    walk finished them in), one exact division (`times`) per outcome, a
    remainder raising `InternalCheckError`, and the terminal weights must
    sum to Z. Weight times price, in 1/D, sums to one int, divided once
    by Z·D; an action of None that is reached makes the price `math.inf`.
    """
    s, mass = instance.s, instance.joint.scale
    every = (1 << len(instance.bits)) - 1
    tables = {} if tables is None else tables
    # key -> its node, made when a built node first names the key as a
    # child. The weight is _NEW until the node is built and None until
    # every node below it is finished
    graph: dict[tuple, list] = {}
    order: list[list] = []  # each node after every node it leads to
    fresh = instance.fresh_at(s, 0)

    def where(belief: tuple[str, int, int]) -> str:
        return f"{belief[0]}|{_text(instance, *belief[1:], _KEY_WORDS)}"

    start = [key(0, 0, s), None, 0, (), _NEW, 1, 1]
    graph[start[0]] = start
    # first beliefs of keys with their nodes; (None, node) finishes a node
    # once every node below it is finished
    stack: list[tuple] = [((s, 0, 0), start)]
    while stack:
        belief, node = stack.pop()
        if belief is None:
            if node[3]:
                size = leaves = 0
                for _, _, below, _, _ in node[3]:
                    size += below[5]
                    leaves += below[6]
                node[5], node[6] = size + 1, leaves
            node[4] = 0
            order.append(node)
            continue
        if node[4] is None:
            raise _loop_error(instance, *belief)
        if node[4] is not _NEW:  # an earlier belief of its key built it
            continue
        k, found = node[0], []
        pos, opened, blocked = belief
        if node is start and fresh:  # a chance node over what s shows
            price, far, shown, cut = 0, s, fresh, -1
        elif (action := choose(k, opened, blocked, pos)) is None:
            shown = None
        else:
            node[1] = action
            price, far, shown = _step(instance, pos, opened, blocked, action)
            cut = k[3] if len(k) > 3 else every
            # a key that keeps every status passes every check
            if shown is not None and cut != every:
                if action.kind is ActionKind.SENSE:
                    bit = sight = shown
                else:
                    _, _, bit, sight = instance.legal_moves[pos, action.edge]
                if bit & ~cut:
                    raise InternalCheckError(
                        f"the key at {where(belief)} drops the status of "
                        f"{action}")
                if sight & ~cut:
                    raise InternalCheckError(
                        f"the key at {where(belief)} drops a status that "
                        f"{action} can show")
        if shown is not None:
            node[2] = price
            if shown:
                rows = instance.outcomes(tables, shown, opened, blocked)
                if tables[shown][0] & ~cut:
                    raise InternalCheckError(
                        f"the key at {where(belief)} drops a status that "
                        f"the chances of mask {shown:#x} depend on")
            else:
                rows = _STAY_ROWS
            dropped = ~(cut | shown)
            for opened_by, blocked_by, w, t in rows:
                child = key(opened | opened_by, blocked | blocked_by, far)
                if (child[3] if len(child) > 3 else every) & dropped:
                    raise InternalCheckError(
                        f"the key of a child of {where(belief)} keeps "
                        "statuses that its parent's drops")
                below = graph.get(child)
                if below is None:
                    below = graph[child] = [child, None, 0, (), _NEW, 1, 1]
                found.append(((opened_by, blocked_by), far, below, w, t))
            if len(graph) > BELIEF_CAP + 1:
                raise EnumerationCapError(_past_cap(
                    "tree" if key is _belief_key else "graph"))
        node[3], node[4] = found, None
        stack.append((None, node))
        # reversed, so that outcomes pop in the order the model lists them
        for (opened_by, blocked_by), far, below, _, _ in reversed(found):
            stack.append(((far, opened | opened_by, blocked | blocked_by),
                          below))

    start[4] = mass
    order.reverse()  # now each node before every node it leads to
    ends, total, infinite = 0, 0, False
    for _, action, price, found, weight, _, _ in order:
        total += weight * price
        if not found:
            ends += weight
            infinite = infinite or action is None
        for _, _, below, w, t in found:
            below[4] += times(weight, w, t)
    if ends != mass:
        raise InternalCheckError("outcome probabilities do not sum to one")
    # an infinite price is not multiplied out
    value = _cost(math.inf if infinite else total, mass * instance.cost_unit)
    return value, order, start[6], start[5]


def export_keyed_graph(instance: CtpInstance,
                       key: Callable[[int, int, str], tuple],
                       choose: Callable[..., Action | None],
                       tables: dict | None = None,
                       ) -> tuple[Cost, DecisionTreePolicy, int]:
    """The price of a policy that decides by a key of the belief
    (`price_keyed_graph`, which reads and fills `tables`), the policy as
    one `TreeNode` per graph node under its key, and the number of nodes
    of the tree it unrolls to."""
    price, graph, _, size = price_keyed_graph(instance, key, choose, tables)
    root, nodes = graph[0][0], {}
    graph.reverse()
    while graph:  # root first; a graph node is freed once it is written
        k, action, _, found, _, _, _ = graph.pop()
        nodes[k] = tuple.__new__(TreeNode, (action, tuple(
            [(masks, below[0]) for masks, _, below, _, _ in found])))
    return price, DecisionTreePolicy(instance, nodes, root, key), size


# Trials `simulate` takes at a time: beside the samples, it holds only
# one block's groups, counters and whole draws.
_TRIAL_BLOCK = 4096


def simulate(instance: CtpInstance, policy: Policy, trials: int,
             seed: int) -> tuple[float, float]:
    """Average realized cost over seeded weather draws.

    Deterministic given (seed, trials): trial i's weather is that of
    `sample_weather` on the stream of trial i's counter
    (`trial_counters`, one lane-parallel mix per block), however calls
    are scheduled. A walk's cost depends only on the statuses it
    reveals, so the trials of a block of `_TRIAL_BLOCK` that have shown
    the same statuses form a group, which waits on a heap keyed by its
    first trial. Its walk (`_walk`) runs once and ends in a cost, which
    every trial of the group takes, or in a reveal of mask `fresh`,
    which splits the group. A one-edge reveal on a dyadic table is
    decided from that edge's word alone, the group's words mixed in one
    lane call (`reveal_rule`), and `compress` splits the group on the
    flag bytes it returns and on their complement; any other reveal
    draws each trial's whole weather, once per trial and block, and
    splits the group in one loop. Walks thus run in the order of (first
    trial, depth), as walking the trials one by one, each shared walk
    once, would run them: trial i takes exactly the steps of
    `walk_weather` on its weather, the first error is the same, and the
    outputs are bit-identical to walking every trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    unit, decide = instance.cost_unit, policy.decide
    samples: list[float] = []
    for first in range(0, trials, _TRIAL_BLOCK):
        states = trial_counters(
            seed, range(first, min(first + _TRIAL_BLOCK, trials)))
        shut: list[int | None] = [None] * len(states)
        values = [0.0] * len(states)
        # (first trial, belief before its walk, total, trials)
        heap: list[tuple] = []
        belief, fresh, total = (Belief(instance.s, 0, 0, instance),
                                instance.fresh_at(instance.s, 0), 0)
        group = range(len(states))
        while True:
            if fresh is None:
                if total == math.inf:
                    raise InvalidInstanceError(
                        f"trial {first + group[0]} hit a weather the "
                        "policy declares infeasible")
                value = total / unit  # int / int rounds as float(cost)
                for trial in group:
                    values[trial] = value
            elif not fresh:  # s shows nothing: the block walks on whole
                heappush(heap, (0, belief, total, group))
            else:
                hits = reveal_rule(instance, fresh,
                                   map(states.__getitem__, group))
                if hits is not None:
                    parts = [(fresh, list(compress(group, hits))),
                             (0, list(compress(group, hits.translate(_FLIP))))]
                else:
                    split: dict[int, list[int]] = {}
                    for trial in group:
                        if shut[trial] is None:
                            shut[trial] = sample_weather(
                                instance, SplitMix64(states[trial])).blocked
                        split.setdefault(shut[trial] & fresh, []).append(trial)
                    parts = split.items()
                for bits, part in parts:
                    if part:
                        heappush(heap, (part[0], _reveal(belief, fresh, bits),
                                        total, part))
            if not heap:
                break
            _, belief, total, group = heappop(heap)
            total, belief, fresh = _walk(instance, decide, belief, total)
        samples += values
    mean = math.fsum(samples) / trials
    if trials == 1:
        return mean, 0.0
    # the same term per trial as (x - mean) ** 2, worked out once per value
    square = {x: (x - mean) ** 2 for x in set(samples)}
    var = math.fsum(map(square.__getitem__, samples)) / (trials - 1)
    return mean, math.sqrt(var / trials)


# ---------------------------------------------------------------------------
# reference policies: one table each

class _StepTable(Policy):
    """A reference policy that decides from `_steps`, a table its
    `__post_init__` builds once over every position where it acts.

    A position maps to an action, or to a test `(edge, if open, if
    blocked, if unknown)` on one edge's status whose branches are again
    actions or tests; a position the table lacks is infeasible. At t the
    policy halts.
    """

    _steps: dict

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        if belief.position == instance.t:
            return _HALT
        step = self._steps.get(belief.position)
        while step.__class__ is tuple:
            edge, if_open, if_blocked, if_unknown = step
            status = belief.status(edge)
            step = (if_unknown if status is None
                    else if_open if status else if_blocked)
        return step


def _corridor(handle: BaitingHandle, rounds: int | None = None,
              last_cut: str | None = None) -> dict:
    """The steps of the shared corridor rule: at the entry push on; at
    each of the first `rounds` sections (all by default) take the open
    cut edge, else push on, or step back once `last_cut` is seen
    blocked."""
    path, cuts = handle.path_edges, handle.cut_edges
    steps = {}
    for i, (pos, cut) in enumerate(zip(handle.sections[:rounds], cuts)):
        on = Action.move(path[i + 1])
        if last_cut is not None:
            on = (last_cut, on, Action.move(path[i]), on)
        steps[pos] = (cut, Action.move(cut), on, on)
    steps[handle.entry] = Action.move(path[0])
    return steps


@dataclass(frozen=True)
class BaitingForwardPolicy(_StepTable):
    """Cross the whole corridor, taking any open cut edge to the sink.

    At the gadget exit the policy moves along `terminal`, the edge that
    prices finishing the trip.
    """

    handle: BaitingHandle
    terminal: str
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_steps", {
            **_corridor(self.handle),
            self.handle.exit: Action.move(self.terminal)})


@dataclass(frozen=True)
class BaitingBailoutPolicy(_StepTable):
    """Probe the first `rounds` cut edges, then retreat and pay `fallback`.

    Advancing, it behaves like the forward policy; once the cut edge at
    section `rounds` is seen blocked it walks back to the entry and gives
    up along the fallback edge.
    """

    handle: BaitingHandle
    rounds: int
    fallback: str
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        handle, j = self.handle, self.rounds
        if not 1 <= j <= handle.n:
            raise ValueError(f"rounds must lie in [1, {handle.n}], got {j}")
        last_cut = handle.cut_edges[j - 1]
        steps = _corridor(handle, j, last_cut)
        forward = steps[handle.entry]
        steps[handle.entry] = (last_cut, forward,
                               Action.give_up(self.fallback), forward)
        object.__setattr__(self, "_steps", steps)


# ---------------------------------------------------------------------------
# reference policies: observation gadget

@dataclass(frozen=True)
class ObservationForwardPolicy(_StepTable):
    """Push through the observation gadget the way its analysis intends.

    Cross the first corridor, noting the inner blocker at the gate; cross
    the second; at the far gate bail along its sure exit unless both detour
    blockers are open, in which case loop through the observed vertex, take
    the unit sneak edge and cross the third corridor. Open cut edges are
    always taken.
    """

    handle: ObservationHandle
    terminal: str
    _steps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = self.handle
        sneak = Action.move(h.sneak)
        bail = Action.give_up(h.second.exit_shortcut)
        loop = (h.blocker_out, Action.move(h.blocker_out), bail, bail)
        # a later key wins: the gates over the entries of the corridors
        # they start, an earlier corridor over a later one
        object.__setattr__(self, "_steps", {
            **_corridor(h.third), **_corridor(h.second), **_corridor(h.first),
            h.exit: Action.move(self.terminal),
            h.gate2: Action.move(h.third.path_edges[0]),
            h.in_post: Action.move(h.blocker_in),
            h.obs: Action.move(h.spur_in),
            h.out_post: Action.move(h.spur_out),
            h.far_gate: (h.blocker_in, loop, bail, bail),
            h.gate: (h.blocker_out, sneak, sneak,
                     Action.move(h.second.path_edges[0]))})


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
    "describe_belief",
    "evaluate_exact",
    "export_decision_tree",
    "load_policy",
    "reference_policy",
    "simulate",
    "walk_weather",
]
