"""Exact optimal solvers, the disjoint-path index rule, and a QBF oracle.

The main solver runs expectimin over belief states, organized by knowledge
stratum: within a fixed set of revealed statuses the walk is a deterministic
shortest-path problem, and every step that would reveal something jumps to a
deeper stratum whose value is computed recursively (knowledge only grows, so
the recursion is well founded). Within a stratum, values come from a reverse
Dijkstra seeded at the target and at every revealing step, which is sound
because all costs are nonnegative.

The one move rule, which the policy walks follow too: moves come
from `CtpInstance.moves_from`, stay-in-place sensing steps and their fees
from `CtpInstance.senses_from`, and a move reveals what `fresh_at` says
arriving at its far end exposes. Branch probabilities always condition on
everything revealed so far, so the one entry point `solve` is exact for
independent, dependent, and sensing instances alike. Every solve checks
its value against the price of the policy it returns
(`export_keyed_graph`): the package's one pricing walk
(`policy.price_keyed_graph`) builds one graph node per cache key
(`_cut_key`, below), checks each against the instance alone, prices the
graph in integer chances of its own and counts the nodes of the tree it
unrolls to. The policy is that graph; its tree is unrolled only when
`to_json` writes it. The walk reads Z (below) from the joint model and
D from the instance, where a wrong Z or D either raises a remainder or
cancels, so the check shares no search table. The export only reads
the search (`_Solver.choose`); where an outcome at s strands the walker
and stops the root sum, `solve` solves the other outcomes at s itself.

Revealing steps are priced lazily. Each enters its stratum's Dijkstra
keyed by its price plus the free-space distance to t from where it
reveals (every uncertain edge taken as open: the optimistic distance of
Eyerich, Keller & Helmert, AAAI 2010). No weather lets a walk reach t for
less, so the key never exceeds the step's exact value; that value (and
the deeper strata behind it) is computed only when the entry pops while
its vertex is unsettled, and pushed back under the same rank, edge id and
tiebreak. The heap therefore settles every vertex with the same entry as
an eager search would, so values and decision trees stay exact, and a
zero bound reproduces them.

A popped step is priced only as far as the next key in its heap, the
window (Partial Expansion A*, Yoshizumi, Miura & Ishida, AAAI 2000):
once its exact outcomes so far and the bound on the rest pass it, the sum
stops and the step goes back, still lazy and under the same rank, edge
id and tiebreak, keyed by that partial sum, a lower bound strictly above
its old key. A later pop resumes the sum, reading the finished outcomes
from the region cache. The window is strict, so ties are priced and
settled by rank, edge id and tiebreak as before. Every patch is solved in
full, so a cached patch answers every lookup of its key exactly, and no
patch is solved twice under one key.

A stratum K is the (opened, blocked) masks of a `Belief`, over the bits
of `CtpInstance.bits`, and holds each value as the int M(K)·D·value:
costs and fees are multiples of 1/D (`CtpInstance.cost_unit`), and
M(K) = Z·P(K) is whole, Z (`JointModel.scale`) the product of the
totals of the joint model's components (Papadimitriou & Yannakakis, TCS
1991), each the lcm of its chances' denominators. A branch's rows hold
int weights over one total, so an outcome's share of M(K) is one exact
division (`model.times`, the package's only one). One heap's keys share
a positive scale, so pops, ties and choices are the rationals', and a
branch's value is an int sum; `math.inf` marks a step that may strand.
Branch tables come from `CtpInstance.outcomes`, kept for one solve: game
5 of the ctpdep battery prices 206 revealing steps from 75 tables and
resumes 22 sums.

A patch is cached under a key that forgets what its walks cannot use
(`_cut_key`): the masks cut down to `_reach` of its start, the bits a
walk from there can cross, see or sense, and to every bit of each joint
component that holds one of those still unknown. That is exact. A walk
from the start crosses, reveals and senses only bits of its reach, and
`outcomes` conditions only on the components of what a step reveals, so
a position's value in real units, and the least (value, rank, edge id)
that picks its choice, depend on nothing the key drops. Only the key
forgets: walks, `fresh_at`, `outcomes` and deeper strata keep the whole
masks, so knowledge still grows down every recursion. Each entry keeps
the M(K) it was solved at. A lookup from a stratum K' of another mass
rescales the start's value by M(K')/M(K), exactly (a remainder raises
`InternalCheckError`). Where every vertex but t reaches every bit, as on
every independent and sensing input the benchmark solves, the key is the
whole masks, built with no call: a solved patch is stored under the keys
of all its positions in one call (`keys`), and `key` is called only for
a start in `keyed`. At t, where a walk ends, it keeps none, so every
belief at t shares one graph node. The reach, the move and sense tables
and the free-space bound, each in units of 1/D, are built on the first
solve of an instance and kept while it lives (`_static`).
`beliefs_expanded` counts the positions of the patches solved, so a
patch that strata share counts once, though the unrolled tree holds it
once for each: game 5 expands 319 beliefs (18,548 with every patch
keyed by every status) and returns 186 graph nodes (`graph_nodes`),
which unroll to a 7,727-node tree (`tree_nodes`, counted from the
graph).
"""
from __future__ import annotations

import heapq
import math
import re
import sys
import time
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .model import (
    BELIEF_CAP,
    Belief,
    Cost,
    CtpInstance,
    EnumerationCapError,
    InternalCheckError,
    InvalidInstanceError,
    Variant,
    times,
)
from .policy import (
    Action,
    DecisionTreePolicy,
    Policy,
    _cost,
    export_decision_tree,
    export_keyed_graph,
)

_HALT = Action.halt()  # actions are frozen, so one serves every solve


@dataclass(frozen=True)
class SolveStats:
    """What a search did; the boundary counts split its revealing steps.

    A revealing step is evaluated when first priced and skipped if never
    priced; `boundary_repriced` counts the pops that resume an unfinished
    sum. `branch_tables` counts the distinct branch tables the search asked
    `JointModel.branch` for, `regions` the strata patches it solved,
    `region_hits` the search's lookups that found one solved and
    `shared_hits` those of them answered by a patch solved in another
    stratum (`_cut_key`). `graph_nodes` counts the nodes of the returned
    policy, one per key, and `tree_nodes` those of the tree it unrolls
    to, counted from the graph (for the index rule both count its tree).
    `search_s` and `export_s` are the wall seconds `solve` spent in the
    search, every patch solve, and in the export with its self-check,
    which solves none; they vary from run to run, so equality ignores
    them.
    """

    beliefs_expanded: int
    boundary_evaluated: int = 0
    boundary_skipped: int = 0
    boundary_repriced: int = 0
    branch_tables: int = 0
    regions: int = 0
    region_hits: int = 0
    shared_hits: int = 0
    tree_nodes: int = 0
    graph_nodes: int = 0
    search_s: float = field(default=0.0, compare=False)
    export_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class OptResult:
    """An exact optimum with the policy that achieves it: for `solve`, its
    graph of search keys, which `policy.to_json()` unrolls to a tree.

    `optimal_first_action` is None when edges are already visible at the
    start, so the first decision depends on what they show and no single
    action describes it.
    """

    optimal_cost: Cost
    optimal_first_action: Action | None
    policy: DecisionTreePolicy
    stats: SolveStats


class _Solver:
    """Belief-space search; once solved, `choose` replays its choices."""

    def __init__(self, instance: CtpInstance, belief_cap: int):
        self.instance = instance
        self.belief_cap = belief_cap
        self.expanded = self.evaluated = self.steps = self.repriced = 0
        self.regions = self.region_hits = self.shared_hits = 0
        (self.denominator, self.total_mass, self.bound, self.moves,
         self.senses, self.keyed) = _static(instance)
        self.key, self.keys = _cut_key(instance, self.keyed)
        self._regions: dict[tuple, tuple] = {}
        self.tables: dict = {}  # branch tables, for `CtpInstance.outcomes`

    def choose(self, key: tuple, opened: int, blocked: int,
               position: str) -> Action | None:
        """The choice at a belief of cache key `key` in the patch the search
        solved: one lookup, which the search's counters leave out. The
        export never extends the search, so a miss raises an error."""
        patch = self._regions.get(key)
        if patch is None:
            raise InternalCheckError(
                f"the export reached a belief at {position} that the search "
                "never solved")
        return patch[1].get(position)

    def branch_value(self, opened: int, blocked: int, fresh: int,
                     position: str, mass: int,
                     window: int | float = math.inf
                     ) -> tuple[int | float, bool]:
        """Value once `fresh` is revealed on arrival, in the masks' scale,
        `mass` their M(K), and whether the sum is finished; `math.inf` if
        an outcome strands the walker. Once the outcomes and the bound on
        the rest pass `window` the sum stops, unfinished, at that lower
        bound; priced outcomes then stay in the region cache."""
        floor = self.bound.get(position, 0)
        total, rest = 0, floor * mass  # the bound on the outcomes to come
        for opened_by, blocked_by, weight, whole in self.instance.outcomes(
                self.tables, fresh, opened, blocked):
            if total + rest > window:
                return total + rest, False
            share = times(mass, weight, whole)
            rest -= floor * share
            values, _, scale = self.region(
                opened | opened_by, blocked | blocked_by, position, share)
            value = values.get(position)
            if value is None:
                return math.inf, True
            total += value if scale == share else times(value, share, scale)
        return total, True

    def region(self, opened: int, blocked: int, start: str,
               mass: int) -> tuple[dict, dict, int]:
        """Values and choices over the patch `start` reaches unrevealing,
        and the M(K) of the stratum that solved the patch, the scale of
        those values; `mass` is the masks' M(K), carried down by `times`.
        Only the search calls it, never the export. The patch is cached
        under the `key` of each of its positions, so a stratum that
        differs only in bits their walks cannot use reads it too. Each
        lookup that finds it counts in `region_hits`, and in `shared_hits`
        if another stratum solved it (for a stranded root, `solve`'s
        lookups of the outcomes at s count too)."""
        regions = self._regions
        # a start outside `keyed` keys by the whole masks (`_cut_key`)
        cached = regions.get((start, opened, blocked) if start not in
                             self.keyed else self.key(opened, blocked, start))
        if cached is not None:
            self.region_hits += 1
            self.shared_hits += cached[3] != (opened, blocked)
            return cached[:3]
        t, moves, senses, bound = (self.instance.t, self.moves, self.senses,
                                   self.bound)
        heappush, heappop = heapq.heappush, heapq.heappop
        closed, unknown = ~opened, ~(opened | blocked)
        # the patch, the unrevealing moves into each of its positions, and
        # the revealing steps out of them, each tagged with where it starts
        patch = {start}
        queue = [start]
        radj: dict[str, list[tuple]] = {}
        reveals = []
        while queue:
            u = queue.pop()
            if u == t:
                continue
            for cost, edge_id, far, bit, exposed, action in moves[u]:
                if bit & closed:
                    continue
                fresh = exposed & unknown
                if fresh:
                    reveals.append((u, cost, fresh, far, 0, edge_id, action))
                    continue
                into = radj.get(far)
                if into is None:
                    radj[far] = [(u, cost, edge_id, action)]
                else:
                    into.append((u, cost, edge_id, action))
                if far not in patch:
                    patch.add(far)
                    queue.append(far)
            for fee, edge_id, bit, action in senses[u]:
                if bit & unknown:
                    reveals.append((u, fee, bit, u, 1, edge_id, action))
        # heap entries: cost, action-rank, edge id, tiebreak, vertex, action,
        # and for a revealing step not yet priced in full, (price, fresh,
        # where, resumed); its cost is then price plus the bound, or plus the
        # outcomes priced so far and the bound on the rest: a lower bound
        seq = 0  # the tiebreaks, in push order
        heap = [(0, 0, "", seq, t, _HALT, None)] if t in patch else []
        # tiebreaks in position order, each position's moves before senses
        reveals.sort(key=lambda step: step[0])
        for u, price, fresh, where, rank, edge_id, action in reveals:
            floor = bound.get(where)
            if floor is not None:
                seq += 1
                heap.append(((price + floor) * mass, rank, edge_id, seq, u,
                             action, (price * mass, fresh, where, False)))
        # every key is distinct, so the pop order is the push order's
        heapq.heapify(heap)
        values: dict[str, int] = {}
        choices: dict[str, Action] = {}
        while heap:
            cost, rank, edge_id, tie, vertex, action, reveal = heappop(heap)
            if vertex in values:
                continue
            if reveal is not None:
                price, fresh, where, resumed = reveal
                if resumed:
                    self.repriced += 1
                else:
                    self.evaluated += 1
                # the window: the next entry's key, where the sum can wait
                rest, done = self.branch_value(
                    opened, blocked, fresh, where, mass,
                    (heap[0][0] if heap else math.inf) - price)
                if rest < math.inf:
                    heappush(heap, (
                        price + rest, rank, edge_id, tie, vertex, action,
                        None if done else (price, fresh, where, True)))
                continue
            values[vertex] = cost
            choices[vertex] = action
            for u, step, via, move in radj.get(vertex, ()):
                if u not in values:
                    seq += 1
                    heappush(heap, (step * mass + cost, 0, via, seq, u, move,
                                    None))
        region = (values, choices, mass, (opened, blocked))
        for key in self.keys(opened, blocked, patch):
            regions[key] = region
        self.regions += 1
        self.steps += len(reveals)
        self.expanded += len(patch)
        if self.expanded > self.belief_cap:
            raise EnumerationCapError(
                f"{self.expanded} beliefs exceed the cap of {self.belief_cap}")
        return values, choices, mass


# `_static` of each instance solved, dropped with the instance
_STATICS: dict[int, tuple] = {}


def _static(instance: CtpInstance) -> tuple:
    """What a solve reads of `instance` that no knowledge changes: the cost
    unit D, the total mass Z, the free-space bound in 1/D, each position's
    moves and senses, and the positions whose walks cannot use every bit,
    mapped to the bits they can (`_reach`). Built on the first solve of an
    instance and kept while it lives, so a solve of it again skips this;
    every solve of the instance reads the same tables and none writes them."""
    static = _STATICS.get(id(instance))
    if static is not None:
        return static
    unit, bound, bits = (instance.cost_unit, _free_space_bound(instance),
                         instance.bits)
    # each move (cost in 1/D) and the mask it exposes when nothing is known
    moves = {u: [(times(unit, *edge.cost.fraction.as_integer_ratio()),
                  edge.id, far, bits.get(edge.id, 0),
                  instance.fresh_at(far, 0), Action.move(edge.id))
                 for edge, far in instance.moves_from(u).values()]
             for u in instance.vertices}
    senses = {u: [(times(unit, *fee.fraction.as_integer_ratio()), e,
                   bits[e], Action.sense(e))
                  for e, fee in instance.senses_from(u).items()]
              for u in instance.vertices}
    every = (1 << len(bits)) - 1
    # a walk ends at t, so its key keeps no status: no lookup starts there,
    # and the export writes every belief at t from one graph node
    keyed = {v: mask for v, mask in _reach(instance).items() if mask != every}
    static = _STATICS[id(instance)] = (
        unit, instance.joint.scale, bound, moves, senses, keyed)
    weakref.finalize(instance, _STATICS.pop, id(instance), None)
    return static


def _cut_key(instance: CtpInstance, keyed: dict[str, int]):
    """`key(opened, blocked, start)`, a patch's cache key: start, the masks
    cut down to the bits a walk from there can cross, see or be
    conditioned on, and the cut where some bit is cut; a start outside
    `keyed` keys by the whole masks. `keys(opened, blocked, starts)` is
    the key of each of `starts`, one call for a whole patch. They hold no
    search table, so the policy a solve returns keys its nodes by `key`."""
    hulls: dict[int, int] = {}  # unknown bits -> their components

    def key(opened: int, blocked: int, start: str) -> tuple:
        keep = keyed.get(start)
        if keep is None:
            return start, opened, blocked
        if (loose := keep & ~(opened | blocked)) not in hulls:
            hulls[loose] = sum(
                comp.mask for comp in instance.joint.touched(loose))
        keep |= hulls[loose]
        return start, opened & keep, blocked & keep, keep

    def keys(opened: int, blocked: int, starts: set[str]) -> list[tuple]:
        return [(v, opened, blocked) if v not in keyed
                else key(opened, blocked, v) for v in starts]

    return key, keys


def _reach(instance: CtpInstance) -> dict[str, int]:
    """The uncertain bits a walk from each vertex can see or sense.

    `reach[v]` joins what arriving at, or sensing from, each vertex a walk
    from `v` reaches would reveal, every finite edge taken as crossable
    and t as a sink, where a walk ends and sees nothing. One pass over the
    strongly connected components (Tarjan, SIAM J. Comput. 1972) finds it
    in O(V + E): each component, finished after every one it leads to,
    joins their bits to its own.
    """
    bits, t = instance.bits, instance.t
    own = {v: 0 if v == t else instance.fresh_at(v, 0) | sum(
               bits[e] for e in instance.senses_from(v))
           for v in instance.vertices}
    reach: dict[str, int] = {}
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    slot: dict[str, int] = {}
    open_: list[str] = []  # visited, its component not yet finished
    work: list[tuple] = []  # the walk's path: vertex, its moves not tried

    def visit(v: str) -> None:
        order[v] = low[v] = len(order)
        slot[v] = len(open_)
        open_.append(v)
        work.append((v, iter(
            () if v == t else instance.moves_from(v).values())))

    for root in instance.vertices:
        if root in order:
            continue
        visit(root)
        while work:
            v, rest = work[-1]
            for _, w in rest:
                if w not in order:
                    visit(w)
                    break
                if w in reach:  # a finished component
                    own[v] |= reach[w]
                elif order[w] < low[v]:  # still open: in v's component
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:  # v's component is finished
                    members = open_[slot[v]:]
                    del open_[slot[v]:]
                    for u in members:
                        own[v] |= own[u]
                    for u in members:
                        reach[u] = own[v]
                if work:  # its caller joins what v reaches
                    u = work[-1][0]
                    own[u] |= own[v]
                    low[u] = min(low[u], low[v])
    return reach


def _free_space_bound(instance: CtpInstance) -> dict[str, int]:
    """Distance in 1/D to t from each vertex that can reach it, in free space.

    Every uncertain edge counts as open, so no weather and no revealed
    knowledge lets a walk from `v` reach t for less than `bound[v]`; a
    vertex missing from the map cannot reach t at all.
    """
    into: dict[str, list[tuple[str, int]]] = {}
    for u in instance.vertices:
        for edge, far in instance.moves_from(u).values():
            into.setdefault(far, []).append(
                (u, times(instance.cost_unit,
                         *edge.cost.fraction.as_integer_ratio())))
    bound: dict[str, int] = {}
    heap = [(0, instance.t)]
    while heap:
        cost, v = heapq.heappop(heap)
        if v in bound:
            continue
        bound[v] = cost
        for u, step in into.get(v, ()):
            if u not in bound:
                heapq.heappush(heap, (step + cost, u))
    return bound


def _first_action(policy: DecisionTreePolicy) -> Action | None:
    node = policy.nodes[policy.root]
    if node.action is not None:
        return node.action
    # chance root: a single first action exists only if all outcomes agree
    seen = {policy.nodes[child].action for _, child in node.children}
    return seen.pop() if len(seen) == 1 else None


def solve(instance: CtpInstance, belief_cap: int = BELIEF_CAP) -> OptResult:
    """Exact optimum of an independent, dependent or sensing instance."""
    began = time.perf_counter()
    solver = _Solver(instance, belief_cap)
    s, mass = instance.s, solver.total_mass
    fresh = instance.fresh_at(s, 0)
    try:
        value, _ = solver.branch_value(0, 0, fresh, s, mass)
        if value == math.inf:
            # the sum stopped at an outcome that strands the walker; the
            # export reads every outcome at s, so the rest are solved here
            for opened, blocked, weight, whole in instance.outcomes(
                    solver.tables, fresh, 0, 0):
                solver.region(opened, blocked, s, times(mass, weight, whole))
    except RecursionError:
        # each reveal nests one stratum deeper on the Python stack
        raise EnumerationCapError(
            "knowledge strata nest deeper than the recursion limit of "
            f"{sys.getrecursionlimit()}") from None
    expected = _cost(value, mass * solver.denominator)
    searched = time.perf_counter()
    priced, policy, tree_nodes = export_keyed_graph(instance, solver.key,
                                                    solver.choose)
    if priced != expected:
        raise InternalCheckError(
            f"solver value {expected} but its policy prices {priced}")
    return OptResult(expected, _first_action(policy), policy,
                     SolveStats(solver.expanded, solver.evaluated,
                                solver.steps - solver.evaluated,
                                solver.repriced,
                                sum(len(rows) for _, rows in
                                    solver.tables.values()),
                                solver.regions, solver.region_hits,
                                solver.shared_hits, tree_nodes,
                                len(policy.nodes), searched - began,
                                time.perf_counter() - searched))


# ---------------------------------------------------------------------------
# the index rule on disjoint-path graphs

@dataclass(frozen=True)
class PathInfo:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @cached_property
    def interior(self) -> frozenset[str]:
        return frozenset(self.vertices[1:-1])


@dataclass(frozen=True)
class CommittingPolicy(Policy):
    """Try `paths` in the order listed, backtracking only off dead paths."""

    paths: tuple[PathInfo, ...]

    def _current(self, belief: Belief) -> PathInfo | None:
        for path in self.paths:
            if not any(belief.status(e) is False for e in path.edges):
                return path
        return None

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        pos = belief.position
        if pos == instance.t:
            return Action.halt()
        current = self._current(belief)
        if pos == instance.s:
            if current is None:
                return None
            return Action.move(current.edges[0])
        for path in self.paths:
            if pos in path.interior:
                i = path.vertices.index(pos)
                if path == current:
                    return Action.move(path.edges[i])
                return Action.move(path.edges[i - 1])
        return None


def decompose_into_paths(instance: CtpInstance) -> tuple[PathInfo, ...]:
    """Split the graph into internally disjoint s-t paths, or fail loudly."""
    if any(e.directed for e in instance.edges):
        raise InvalidInstanceError(
            "path decomposition needs an undirected graph")
    by_vertex: dict[str, list] = {v: [] for v in instance.vertices}
    for e in instance.edges:
        by_vertex[e.tail].append(e)
        by_vertex[e.head].append(e)
    for v in instance.vertices:
        if v in (instance.s, instance.t):
            continue
        if len(by_vertex[v]) not in (0, 2):
            raise InvalidInstanceError(
                f"vertex {v} has degree {len(by_vertex[v])}; "
                "not a union of disjoint s-t paths")
    paths = []
    used: set[str] = set()
    for first in sorted(by_vertex[instance.s], key=lambda e: e.id):
        vertices = [instance.s]
        edges = []
        cur, via = first.other_end(instance.s), first
        while True:
            vertices.append(cur)
            edges.append(via.id)
            used.add(via.id)
            if cur == instance.t:
                break
            if cur == instance.s:
                raise InvalidInstanceError("a path loops back to the source")
            # the degree check left `cur` exactly one other edge
            via = [e for e in by_vertex[cur] if e.id != via.id][0]
            cur = via.other_end(cur)
        paths.append(PathInfo(tuple(vertices), tuple(edges)))
    if used != {e.id for e in instance.edges}:
        raise InvalidInstanceError(
            "some edges lie on no s-t path; not a disjoint-path graph")
    # two paths could share an interior vertex only by walking back into s
    return tuple(paths)


def _tree_size(instance: CtpInstance, routes: Sequence[PathInfo]) -> int:
    """Nodes of the tree `CommittingPolicy(routes)` exports.

    Every uncertain edge is blocked with a chance in (0, 1), so each one
    revealed branches in two. The root is a chance node over what s shows.
    From s the walk skips a route whose first edge is blocked and else
    attempts it: m + 1 nodes from s to t, and the j-th edge blocked turns
    back through j nodes to s, where the later routes follow. `nodes` sums
    that over the outcomes of the later routes' `later` uncertain openings.
    """
    edges = instance.edge_map
    nodes, later = 1, 0  # at s with every route dead: no action
    for path in reversed(routes):
        route = [edges[e] for e in path.edges]
        turns = [j for j in range(1, len(route)) if route[j].uncertain]
        attempt = ((len(route) + 1 + sum(turns)) << later) + len(turns) * nodes
        nodes = attempt + nodes if route[0].uncertain else attempt
        later += route[0].uncertain
    openings = instance.fresh_at(instance.s, 0).bit_count()
    return (openings > 0) + (nodes << (openings - later))


def solve_disjoint_paths(instance: CtpInstance) -> OptResult:
    """Best committing policy on a disjoint-path graph, by the index rule.

    Once its first edge shows open, a route costs A in expectation: its
    length if all later edges are open (chance P), else twice the distance
    to the blocked one. Trying routes by increasing A / P, ties in listed
    order, is optimal (Bnaya, Felner & Shimony, IJCAI 2009). Routes with an
    infinite-cost edge are left out and sensing is unused; the exported
    tree of the one policy must price the same value. A tree that would
    pass `BELIEF_CAP` nodes past its root is refused before it is walked.
    """
    if instance.variant is Variant.DEPENDENT:
        raise InvalidInstanceError("the index rule needs independent edges")
    paths = decompose_into_paths(instance)
    edges = instance.edge_map
    ranked = []
    for path in paths:
        route = [edges[e] for e in path.edges]
        if any(e.cost.is_infinite for e in route):
            continue
        walked = route[0].cost.fraction
        passing, attempt = Fraction(1), Fraction(0)
        for e in route[1:]:
            attempt += passing * e.block_p * 2 * walked
            passing *= 1 - e.block_p
            walked += e.cost.fraction
        attempt += passing * walked
        ranked.append((attempt / passing, path, route[0], passing, attempt))
    ranked.sort(key=lambda r: r[0])  # stable, so ties keep listed order
    remaining, value = Fraction(1), Fraction(0)
    for _, _, first, passing, attempt in ranked:
        value += remaining * (1 - first.block_p) * attempt
        remaining *= 1 - (1 - first.block_p) * passing
    expected = Cost.infinite() if remaining else Cost.of(value)
    routes = tuple(r[1] for r in ranked)
    size = _tree_size(instance, routes)
    if size > BELIEF_CAP + 1:
        raise EnumerationCapError(
            f"the decision tree would hold {size} nodes, past the cap of "
            f"{BELIEF_CAP} nodes past its root")
    checked, tree = export_decision_tree(instance, CommittingPolicy(routes))
    if checked != expected:
        raise InternalCheckError(
            f"index rule prices {expected} but its exported tree prices "
            f"{checked}")
    nodes = len(tree.nodes)
    return OptResult(expected, _first_action(tree), tree,
                     SolveStats(nodes, tree_nodes=nodes, graph_nodes=nodes))


# The old name that perfbench/workloads.py resolves; delete it with that call.
solve_disjoint_bruteforce = solve_disjoint_paths


# ---------------------------------------------------------------------------
# QBF oracle

@dataclass(frozen=True)
class QbfFormula:
    """Alternating-prefix quantified 3-CNF, universals first.

    Variables are 1..n; a literal is +i or -i. The prefix strictly
    alternates starting with a universal, so n fixes it and only n and
    the clauses are stored; `quantifiers` derives the prefix.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {clause} must have 1 to 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range")

    @staticmethod
    def of(n: int, clauses: Sequence[Sequence[int]]) -> QbfFormula:
        return QbfFormula(n, tuple(tuple(c) for c in clauses))

    @property
    def quantifiers(self) -> tuple[str, ...]:
        return tuple("A" if i % 2 == 0 else "E" for i in range(self.n))

    @property
    def m(self) -> int:
        return len(self.clauses)


# Variables a game-tree evaluation may enumerate (`ctplab qbf --cap`).
QBF_CAP = 24


def _cnf_value(formula: QbfFormula, assignment: list[bool]) -> bool:
    return all(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in formula.clauses)


def _play(formula: QbfFormula, cap: int,
          plan: dict[tuple[bool, ...], bool] | None) -> bool:
    """Game value by a short-circuiting AND/OR search over the prefix.

    Universal variables are AND nodes and existential ones OR nodes; each
    tries False first and stops at the first choice that settles it. With
    `plan`, every existential choice is recorded under the values of the
    earlier variables, and a choice whose subtree loses is taken back with
    all recorded beneath it, so a won game leaves the winning subtree
    only, False preferred.
    """
    if formula.n > cap:
        raise EnumerationCapError(
            f"{formula.n} variables exceed the evaluation cap of {cap}")
    assignment: list[bool] = [False] * formula.n

    def wins(i: int) -> bool:
        if i == formula.n:
            return _cnf_value(formula, assignment)
        if i % 2 == 0:  # universal: both choices must win
            for value in (False, True):
                assignment[i] = value
                if not wins(i + 1):
                    return False
            return True
        for value in (False, True):  # existential: one winning choice will do
            assignment[i] = value
            if plan is None:
                if wins(i + 1):
                    return True
                continue
            mark = len(plan)
            plan[tuple(assignment[:i])] = value
            if wins(i + 1):
                return True
            while len(plan) > mark:
                plan.popitem()  # a dict pops its newest entry first
        return False

    return wins(0)


def qbf_eval(formula: QbfFormula, cap: int = QBF_CAP) -> bool:
    """Game-tree truth value: AND at universals, OR at existentials."""
    return _play(formula, cap, None)


def qbf_strategy(formula: QbfFormula) -> dict[tuple[bool, ...], bool] | None:
    """Winning existential strategy, or None if there is none.

    Maps each reachable prefix of earlier variable values (as a tuple,
    one entry per preceding variable) to the winning choice for the
    existential variable that comes next. The plan covers both values of
    every universal on the winning subtree; when both choices of an
    existential win, False is recorded.
    """
    plan: dict[tuple[bool, ...], bool] = {}
    return plan if _play(formula, QBF_CAP, plan) else None


_INTEGER_RE = re.compile(r"-?[0-9]+")


def parse_qdimacs(text: str) -> QbfFormula:
    """Read the QDIMACS subset: p-header, one variable per quantifier line.

    Quantifier lines must strictly alternate a/e starting with a, covering
    variables 1..n in order; clauses hold at most three literals each.
    Errors carry the offending line number.
    """
    n = None
    m = None
    declared = 0  # quantifier lines read so far
    clauses: list[tuple[int, ...]] = []

    def fail(line_no: int, message: str) -> ValueError:
        return ValueError(f"line {line_no}: {message}")

    def number(token: str) -> int:  # ASCII digits only, as `parse_rational`
        if _INTEGER_RE.fullmatch(token) is None:
            raise ValueError(token)
        return int(token)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise fail(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise fail(line_no, f"malformed header {line!r}")
            try:
                n, m = number(parts[2]), number(parts[3])
            except ValueError:
                raise fail(line_no, f"malformed header {line!r}") from None
            continue
        if n is None:
            raise fail(line_no, "content before the p cnf header")
        if line[0] in "ae":
            if clauses:
                raise fail(line_no, "quantifier line after clauses")
            parts = line.split()
            if len(parts) != 3 or parts[2] != "0":
                raise fail(line_no,
                           "quantifier lines declare one variable then 0")
            expected = "a" if declared % 2 == 0 else "e"
            if parts[0] != expected:
                raise fail(line_no,
                           f"expected a {expected!r} line here; the prefix "
                           "alternates starting universal")
            try:
                var = number(parts[1])
            except ValueError:
                raise fail(line_no, f"bad variable {parts[1]!r}") from None
            declared += 1
            if var != declared:
                raise fail(line_no,
                           f"variables must appear in order; expected "
                           f"{declared}, got {var}")
            continue
        try:
            lits = [number(p) for p in line.split()]
        except ValueError:
            raise fail(line_no, f"unreadable clause {line!r}") from None
        if not lits or lits[-1] != 0:
            raise fail(line_no, "clause lines end with 0")
        lits = lits[:-1]
        if not 1 <= len(lits) <= 3:
            raise fail(line_no, "clauses carry 1 to 3 literals")
        for lit in lits:
            if lit == 0 or abs(lit) > n:
                raise fail(line_no, f"literal {lit} out of range")
        clauses.append(tuple(lits))
    if n is None:
        raise ValueError("line 0: missing p cnf header")
    if declared != n:
        raise ValueError(
            f"line 0: {declared} quantifier lines for {n} variables")
    if m is not None and m != len(clauses):
        raise ValueError(
            f"line 0: header promised {m} clauses, found {len(clauses)}")
    return QbfFormula(n, tuple(clauses))


__all__ = [
    "BELIEF_CAP",
    "CommittingPolicy",
    "OptResult",
    "PathInfo",
    "QBF_CAP",
    "QbfFormula",
    "SolveStats",
    "decompose_into_paths",
    "parse_qdimacs",
    "qbf_eval",
    "qbf_strategy",
    "solve",
    "solve_disjoint_paths",
]
