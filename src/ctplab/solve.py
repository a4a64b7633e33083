"""Exact optimal solvers, a committing-order brute force, and a QBF oracle.

The main solver runs expectimin over belief states, organized by knowledge
stratum: within a fixed set of revealed statuses the walk is a deterministic
shortest-path problem, and every step that would reveal something jumps to a
deeper stratum whose value is computed recursively (knowledge only grows, so
the recursion is well founded). Within a stratum, values come from a reverse
Dijkstra seeded at the target and at every revealing step, which is sound
because all costs are nonnegative.

The one move rule, which the policy evaluators walk by too: moves come
from `CtpInstance.moves_from`, stay-in-place sensing steps and their fees
from `CtpInstance.senses_from`, and a move reveals what `fresh_at` says
arriving at its far end exposes. Branch probabilities always condition on
everything revealed so far, so the one entry point `solve` is exact for
independent, dependent, and sensing instances alike. Every solve checks
its value against the tree evaluator (`export_decision_tree`).

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

Branch tables are memoized for one solve. `_Solver.outcomes` keys each
`JointModel.branch(known, fresh)` call by `fresh` and the statuses, known
or not, of every edge in the dependency components `fresh` touches.
`branch` reads nothing else: the components are independent (the
factored model of Papadimitriou & Yannakakis, TCS 1991), so statuses
revealed in other components do not move these outcomes, and a hit
returns exactly what a fresh call would. Many beliefs differ only
outside those components (game 7 of the ctpdep battery prices 11,767
revealing steps from 27 tables). The memo lives on the `_Solver` and
dies with it; `JointModel` itself stays unmemoized, so no table carries
over between solves, and the tree export still calls `branch` directly.
"""
from __future__ import annotations

import heapq
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .model import (
    Belief,
    Cost,
    CtpInstance,
    EdgeSpec,
    EnumerationCapError,
    InternalCheckError,
    InvalidInstanceError,
)
from .policy import (
    Action,
    DecisionTreePolicy,
    EvalResult,
    Policy,
    export_decision_tree,
)

# Beliefs one solve may expand before it gives up (`ctplab solve --cap`).
BELIEF_CAP = 200_000


@dataclass(frozen=True)
class SolveStats:
    """What a search did; the boundary counts split its revealing steps.

    A revealing step is evaluated when its exact value is computed and
    skipped when its vertex settled first or t is out of its reach.
    `branch_tables` counts the distinct branch tables the search asked
    `JointModel.branch` for, and `regions` the strata patches it solved.
    """

    beliefs_expanded: int
    boundary_evaluated: int = 0
    boundary_skipped: int = 0
    branch_tables: int = 0
    regions: int = 0


@dataclass(frozen=True)
class OptResult:
    """An exact optimum with the decision tree that achieves it.

    `optimal_first_action` is None when edges are already visible at the
    start, so the first decision depends on what they show and no single
    action describes it.
    """

    optimal_cost: Cost
    optimal_first_action: Action | None
    policy: DecisionTreePolicy
    stats: SolveStats


@dataclass
class _Region:
    """Values and best actions for one knowledge stratum's reachable patch."""

    values: dict[str, Cost]
    choices: dict[str, Action]


_KindKey = tuple[tuple[str, bool], ...]


class _Solver(Policy):
    """Belief-space search; once solved it replays its choices as a policy."""

    def __init__(self, instance: CtpInstance, belief_cap: int):
        self.instance = instance
        self.joint = instance.joint
        self.belief_cap = belief_cap
        self.expanded = 0
        self.evaluated = 0
        self.skipped = 0
        self.bound = _free_space_bound(instance)
        self._regions: dict[tuple[_KindKey, str], _Region] = {}
        self.regions = 0
        # `outcomes` tables; never mutated, so a hit equals a fresh call
        self._branches: dict[tuple, list] = {}

    def decide(self, instance: CtpInstance, belief: Belief) -> Action | None:
        if belief.position == instance.t:
            return Action.halt()
        region = self.region(belief.known, belief.position)
        return region.choices.get(belief.position)

    def branch_value(self, known: Mapping[str, bool], fresh: Sequence[str],
                     position: str) -> Cost:
        """Expected value after `fresh` get revealed on arrival."""
        total = Cost.zero()
        for assignment, prob in self.outcomes(known, fresh):
            grown = dict(known)
            grown.update(assignment)
            region = self.region(tuple(sorted(grown.items())), position)
            value = region.values.get(position, Cost.infinite())
            total = total + value.scale(prob)
        return total

    def outcomes(self, known: Mapping[str, bool], fresh: Sequence[str],
                 ) -> list[tuple[dict[str, bool], Fraction]]:
        """`joint.branch(known, fresh)`, computed once per key in a solve.

        The key is `fresh` with the statuses, known or not, of every edge
        in the components `fresh` touch: all that `branch` reads.
        """
        joint = self.joint
        restricted = tuple(
            known.get(e)
            for ci in sorted({joint.component_of[e] for e in fresh})
            for e in joint.components[ci].edge_ids)
        key = (tuple(fresh), restricted)
        table = self._branches.get(key)
        if table is None:
            table = self._branches[key] = joint.branch(known, fresh)
        return table

    def region(self, key: _KindKey, start: str) -> _Region:
        """Values over the patch of positions `start` reaches unrevealing.

        The finished region is cached for every position of its patch, so
        all of them share it.
        """
        cached = self._regions.get((key, start))
        if cached is not None:
            return cached
        instance = self.instance
        known = dict(key)
        t = instance.t
        # open moves out of each patch position but t, with what they reveal
        steps: dict[str, list[tuple[EdgeSpec, str, list[str]]]] = {}
        patch = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            if u == t:
                continue
            steps[u] = [(edge, far, instance.fresh_at(far, known))
                        for edge, far in instance.moves_from(u).values()
                        if not edge.uncertain or known.get(edge.id) is True]
            for _, far, fresh in steps[u]:
                if not fresh and far not in patch:
                    patch.add(far)
                    queue.append(far)
        seq = itertools.count()
        # heap entries: cost, action-rank, edge id, tiebreak, vertex, action,
        # and for a revealing step not yet priced, (price, fresh, where);
        # its cost is then price plus the bound, a lower bound
        heap: list[tuple] = []
        radj: dict[str, list[tuple[str, Cost, str]]] = {}
        if t in patch:
            heapq.heappush(heap, (Cost.zero(), 0, "", next(seq), t,
                                  Action.halt(), None))
        reveals = []
        for u in sorted(steps):
            for edge, far, fresh in steps[u]:
                if fresh:
                    reveals.append((edge.cost, fresh, far, 0, edge.id, u,
                                    Action.move(edge.id)))
                else:
                    radj.setdefault(far, []).append((u, edge.cost, edge.id))
            for edge_id, fee in instance.senses_from(u).items():
                if edge_id not in known:
                    reveals.append((fee, [edge_id], u, 1, edge_id, u,
                                    Action.sense(edge_id)))
        for price, fresh, where, rank, edge_id, u, action in reveals:
            floor = self.bound.get(where)
            if floor is None:
                self.skipped += 1
                continue
            heapq.heappush(heap, (price + floor, rank, edge_id, next(seq), u,
                                  action, (price, fresh, where)))
        values: dict[str, Cost] = {}
        choices: dict[str, Action] = {}
        while heap:
            cost, rank, edge_id, tie, vertex, action, reveal = \
                heapq.heappop(heap)
            if vertex in values:
                if reveal is not None:
                    self.skipped += 1
                continue
            if reveal is not None:
                price, fresh, where = reveal
                self.evaluated += 1
                value = price + self.branch_value(known, fresh, where)
                if not value.is_infinite:
                    heapq.heappush(heap, (value, rank, edge_id, tie, vertex,
                                          action, None))
                continue
            values[vertex] = cost
            choices[vertex] = action
            for u, step, via in radj.get(vertex, ()):
                if u in values:
                    continue
                heapq.heappush(heap, (step + cost, 0, via, next(seq),
                                      u, Action.move(via), None))
        region = _Region(values, choices)
        for v in patch:
            self._regions[(key, v)] = region
        self.regions += 1
        self.expanded += len(patch)
        if self.expanded > self.belief_cap:
            raise EnumerationCapError(
                f"{self.expanded} beliefs exceed the cap of {self.belief_cap}")
        return region


def _free_space_bound(instance: CtpInstance) -> dict[str, Cost]:
    """Distance to t from each vertex that can reach it, in free space.

    Every uncertain edge counts as open, so no weather and no revealed
    knowledge lets a walk from `v` reach t for less than `bound[v]`; a
    vertex missing from the map cannot reach t at all.
    """
    into: dict[str, list[tuple[str, Cost]]] = {}
    for u in instance.vertices:
        for edge, far in instance.moves_from(u).values():
            into.setdefault(far, []).append((u, edge.cost))
    bound: dict[str, Cost] = {}
    heap = [(Cost.zero(), instance.t)]
    while heap:
        cost, v = heapq.heappop(heap)
        if v in bound:
            continue
        bound[v] = cost
        for u, step in into.get(v, ()):
            if u not in bound:
                heapq.heappush(heap, (step + cost, u))
    return bound


def _first_action(tree: DecisionTreePolicy) -> Action | None:
    node = tree.nodes[tree.root]
    if node.action is not None:
        return node.action
    # chance root: a single first action exists only if all outcomes agree
    seen = {tree.nodes[child].action for _, child in node.children}
    return seen.pop() if len(seen) == 1 else None


def solve(instance: CtpInstance, belief_cap: int = BELIEF_CAP) -> OptResult:
    """Exact optimum of an independent, dependent or sensing instance."""
    solver = _Solver(instance, belief_cap)
    try:
        expected = solver.branch_value(
            {}, instance.fresh_at(instance.s, {}), instance.s)
    except RecursionError:
        # each reveal nests one stratum deeper on the Python stack
        raise EnumerationCapError(
            "knowledge strata nest deeper than the recursion limit of "
            f"{sys.getrecursionlimit()}") from None
    result, tree = export_decision_tree(instance, solver)
    if result.expected_cost != expected:
        raise InternalCheckError(
            f"solver value {expected} but its exported tree prices "
            f"{result.expected_cost}")
    return OptResult(expected, _first_action(tree), tree,
                     SolveStats(solver.expanded, solver.evaluated,
                                solver.skipped, len(solver._branches),
                                solver.regions))


# ---------------------------------------------------------------------------
# committing brute force on disjoint-path graphs

@dataclass(frozen=True)
class PathInfo:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @cached_property
    def interior(self) -> frozenset[str]:
        return frozenset(self.vertices[1:-1])


@dataclass(frozen=True)
class CommittingPolicy(Policy):
    """Try paths in a fixed order, backtracking only off dead paths."""

    paths: tuple[PathInfo, ...]
    order: tuple[int, ...]

    def _current(self, belief: Belief) -> PathInfo | None:
        for idx in self.order:
            path = self.paths[idx]
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
            step = [e for e in by_vertex[cur] if e.id != via.id]
            if len(step) != 1:
                raise InvalidInstanceError(
                    f"vertex {cur} does not continue a single path")
            via = step[0]
            cur = via.other_end(cur)
        paths.append(PathInfo(tuple(vertices), tuple(edges)))
    if used != {e.id for e in instance.edges}:
        raise InvalidInstanceError(
            "some edges lie on no s-t path; not a disjoint-path graph")
    interiors = [p.interior for p in paths]
    for i, a in enumerate(interiors):
        for b in interiors[i + 1:]:
            if a & b:
                raise InvalidInstanceError("paths share an interior vertex")
    return tuple(paths)


_ORDERING_CAP = 6


def solve_disjoint_bruteforce(instance: CtpInstance) -> OptResult:
    """Best committing policy, found by trying every path ordering."""
    from .policy import evaluate_exact

    paths = decompose_into_paths(instance)
    if len(paths) > _ORDERING_CAP:
        raise EnumerationCapError(
            f"{len(paths)} paths exceed the ordering cap of {_ORDERING_CAP}")
    best: tuple[Cost, CommittingPolicy, EvalResult] | None = None
    for order in itertools.permutations(range(len(paths))):
        policy = CommittingPolicy(paths, order)
        result = evaluate_exact(instance, policy, mode="tree")
        if best is None or result.expected_cost < best[0]:
            best = (result.expected_cost, policy, result)
    _, policy, result = best
    checked, tree = export_decision_tree(instance, policy)
    if checked.expected_cost != result.expected_cost:
        raise InternalCheckError(
            f"best committing order prices {result.expected_cost} but its "
            f"exported tree prices {checked.expected_cost}")
    return OptResult(result.expected_cost, _first_action(tree), tree,
                     SolveStats(len(tree.nodes)))


# ---------------------------------------------------------------------------
# QBF oracle

@dataclass(frozen=True)
class QbfFormula:
    """Alternating-prefix quantified 3-CNF, universals first.

    Variables are 1..n; a literal is +i or -i. The prefix strictly
    alternates starting with a universal, so it is fully determined by n,
    but it is stored for readability and checked.
    """

    n: int
    quantifiers: tuple[str, ...]
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        want = tuple("A" if i % 2 == 0 else "E" for i in range(self.n))
        if self.quantifiers != want:
            raise ValueError(
                "prefix must strictly alternate starting universal, "
                f"expected {want}, got {self.quantifiers}")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {clause} must have 1 to 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range")

    @staticmethod
    def of(n: int, clauses: Sequence[Sequence[int]]) -> QbfFormula:
        quantifiers = tuple("A" if i % 2 == 0 else "E" for i in range(n))
        return QbfFormula(n, quantifiers,
                          tuple(tuple(c) for c in clauses))

    @property
    def m(self) -> int:
        return len(self.clauses)


# Variables a game-tree evaluation may enumerate (`ctplab qbf --cap`).
QBF_CAP = 24


def _cnf_value(formula: QbfFormula, assignment: list[bool]) -> bool:
    return all(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in formula.clauses)


def qbf_eval(formula: QbfFormula, cap: int = QBF_CAP) -> bool:
    """Game-tree truth value: AND at universals, OR at existentials."""
    if formula.n > cap:
        raise EnumerationCapError(
            f"{formula.n} variables exceed the evaluation cap of {cap}")
    assignment: list[bool] = [False] * formula.n

    def play(i: int) -> bool:
        if i == formula.n:
            return _cnf_value(formula, assignment)
        results = []
        for value in (False, True):
            assignment[i] = value
            results.append(play(i + 1))
        if formula.quantifiers[i] == "A":
            return results[0] and results[1]
        return results[0] or results[1]

    return play(0)


def qbf_strategy(formula: QbfFormula) -> dict[tuple[bool, ...], bool] | None:
    """Winning existential strategy, or None if there is none.

    Maps each reachable prefix of earlier variable values (as a tuple,
    one entry per preceding variable) to the winning choice for the
    existential variable that comes next. Universal prefixes enumerate
    both branches; when both choices win, False is recorded.
    """
    if formula.n > QBF_CAP:
        raise EnumerationCapError(
            f"{formula.n} variables exceed the evaluation cap of {QBF_CAP}")
    assignment: list[bool] = [False] * formula.n
    plan: dict[tuple[bool, ...], bool] = {}
    memo: dict[tuple[bool, ...], bool] = {}

    def wins(i: int) -> bool:
        if i == formula.n:
            return _cnf_value(formula, assignment)
        key = tuple(assignment[:i])
        cached = memo.get(key)
        if cached is not None:
            return cached
        results = []
        for value in (False, True):
            assignment[i] = value
            results.append(wins(i + 1))
        out = (results[0] and results[1]) if formula.quantifiers[i] == "A" \
            else (results[0] or results[1])
        memo[key] = out
        return out

    def record(i: int) -> None:
        """Walk the winning subtree; preferring False keeps it canonical."""
        if i == formula.n:
            return
        if formula.quantifiers[i] == "A":
            for value in (False, True):
                assignment[i] = value
                record(i + 1)
            return
        for value in (False, True):
            assignment[i] = value
            if wins(i + 1):
                plan[tuple(assignment[:i])] = value
                record(i + 1)
                return

    if not wins(0):
        return None
    record(0)
    return plan


def parse_qdimacs(text: str) -> QbfFormula:
    """Read the QDIMACS subset: p-header, one variable per quantifier line.

    Quantifier lines must strictly alternate a/e starting with a, covering
    variables 1..n in order; clauses hold at most three literals each.
    Errors carry the offending line number.
    """
    n = None
    m = None
    quantifiers: list[str] = []
    clauses: list[tuple[int, ...]] = []

    def fail(line_no: int, message: str) -> ValueError:
        return ValueError(f"line {line_no}: {message}")

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
                n, m = int(parts[2]), int(parts[3])
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
            expected = "a" if len(quantifiers) % 2 == 0 else "e"
            if parts[0] != expected:
                raise fail(line_no,
                           f"expected a {expected!r} line here; the prefix "
                           "alternates starting universal")
            try:
                var = int(parts[1])
            except ValueError:
                raise fail(line_no, f"bad variable {parts[1]!r}") from None
            if var != len(quantifiers) + 1:
                raise fail(line_no,
                           f"variables must appear in order; expected "
                           f"{len(quantifiers) + 1}, got {var}")
            quantifiers.append(parts[0].upper())
            continue
        try:
            lits = [int(p) for p in line.split()]
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
    if len(quantifiers) != n:
        raise ValueError(
            f"line 0: {len(quantifiers)} quantifier lines for {n} variables")
    if m is not None and m != len(clauses):
        raise ValueError(
            f"line 0: header promised {m} clauses, found {len(clauses)}")
    return QbfFormula(n, tuple(quantifiers), tuple(clauses))


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
    "solve_disjoint_bruteforce",
]
