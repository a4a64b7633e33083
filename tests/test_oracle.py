"""An optimality oracle for `solve` that shares no code with its search.

The oracle reads an instance's edge list, sensing entries and dependency
net and nothing else: what a walker knows is a set of (edge id, open)
pairs, and every chance is a sum over whole weathers enumerated straight
from `block_p` or from the net's CPTs (value 1 blocks an edge). It uses
no `JointModel`, bit mask, heap, bound or region cache. Within a set of
known statuses a walker's moves are deterministic, so each such stratum
is priced by a plain Bellman-Ford; a move that reveals something, or a
sensing step, leaves the stratum at the expected value of the strata its
outcomes lead to.

Random instances of the three variants (3-5 vertices, up to 8 uncertain
edges, some directed edges, and a sure s-t fallback so that most optima
are finite) are solved by both; the optimal costs must agree, and so must
the oracle's value of each first action the solver's tree takes.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ctplab.model import Belief, Cost, InstanceBuilder, Variant
from ctplab.policy import ActionKind
from oracles import walked_solve

VERTICES = ("s", "t", "a", "b", "c")
CHANCES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
           Fraction(3, 4))
COSTS = (0, 1, 2, 3, 5, 8, Fraction(1, 2), Fraction(7, 3))
# cheap enough that trees sense
FEES = (0, Fraction(1, 4), Fraction(1, 2), 1)
FALLBACK = 12


def weathers(instance) -> list[tuple[frozenset, int]]:
    """Every weather of positive chance: its blocked edge ids, and its
    chance times the least common denominator of all of them."""
    net = instance.dependency
    if net is None:
        rows = [(frozenset(), Fraction(1))]
        for edge in instance.edges:
            if edge.block_p:
                rows = [(blocked | {edge.id}, p * edge.block_p)
                        for blocked, p in rows] + [
                    (blocked, p * (1 - edge.block_p)) for blocked, p in rows]
    else:
        drawn = [({}, Fraction(1))]
        for var in net.variables:  # parents are listed first
            grown = []
            for values, p in drawn:
                row = sum(values[parent] << j
                          for j, parent in enumerate(var.parents))
                for value, q in ((1, var.cpt[row]), (0, 1 - var.cpt[row])):
                    if q:
                        grown.append(({**values, var.id: value}, p * q))
            drawn = grown
        edges = {e.id for e in instance.edges if e.block_p}
        rows = [(frozenset(e for e in edges if values[e]), p)
                for values, p in drawn]
    rows = [(blocked, p) for blocked, p in rows if p]
    scale = math.lcm(*(p.denominator for _, p in rows))
    return [(blocked, int(p * scale)) for blocked, p in rows]


class Oracle:
    """Optimal expected costs by the Bellman equation over beliefs.

    A stratum `known` is a frozenset of (edge id, open) pairs, and its
    weight the summed weight of the weathers that agree with it. The
    oracle holds each value in the stratum times its weight and times D,
    the least common denominator of the costs and fees, so every sum is
    whole: a step that reveals costs its price times the weight plus the
    scaled values of the strata its outcomes lead to.
    """

    def __init__(self, instance):
        self.instance = instance
        priced = [e.cost.fraction for e in instance.edges
                  if not e.cost.is_infinite]
        entries = instance.sensing.entries if instance.sensing else ()
        priced += [entry.cost.fraction for entry in entries]
        self.unit = math.lcm(*(price.denominator for price in priced))
        self.uncertain = {e.id for e in instance.edges if e.block_p}
        self.moves: dict[str, list] = {v: [] for v in instance.vertices}
        self.sight: dict[str, set] = {v: set() for v in instance.vertices}
        for e in instance.edges:
            if not e.cost.is_infinite:
                cost = int(e.cost.fraction * self.unit)
                self.moves[e.tail].append((e.id, e.head, cost))
                if not e.directed:
                    self.moves[e.head].append((e.id, e.tail, cost))
            if e.block_p:
                self.sight[e.tail].add(e.id)
                self.sight[e.head].add(e.id)
        self.senses: dict[str, list] = {v: [] for v in instance.vertices}
        for entry in entries:
            self.senses[entry.vertex].append(
                (entry.edge, int(entry.cost.fraction * self.unit)))
        # the weathers that agree with each stratum, and its weight
        self.agree = {frozenset(): weathers(instance)}
        self.weight = {frozenset(): sum(w for _, w in self.agree[frozenset()])}
        self.split: dict[tuple, list] = {}
        # the scaled values found so far in each stratum
        self.strata: dict[frozenset, dict[str, int | float]] = {}

    def shows(self, vertex: str, known: frozenset) -> list[str]:
        """Unknown edges that arriving at `vertex` reveals; none at t."""
        if vertex == self.instance.t:
            return []
        return sorted(e for e in self.sight[vertex]
                      if (e, True) not in known and (e, False) not in known)

    def outcomes(self, known: frozenset, edges: list[str]) -> list:
        """The strata `known` splits into once `edges` show."""
        found = self.split.get((known, tuple(edges)))
        if found is None:
            split: dict[frozenset, list] = {}
            for row in self.agree[known]:
                split.setdefault(known | {(e, e not in row[0])
                                          for e in edges}, []).append(row)
            for grown, rows in split.items():
                self.agree[grown] = rows
                self.weight[grown] = sum(w for _, w in rows)
            found = self.split[known, tuple(edges)] = list(split)
        return found

    def arrive(self, known: frozenset, vertex: str):
        """Scaled value of arriving at `vertex`, revealing what it shows."""
        return sum(self.value(grown, vertex) for grown in
                   self.outcomes(known, self.shows(vertex, known)))

    def sense(self, known: frozenset, vertex: str, edge: str, fee: int):
        return fee * self.weight[known] + sum(
            self.value(grown, vertex)
            for grown in self.outcomes(known, [edge]))

    def step(self, known: frozenset, vertex: str, action):
        """Scaled value at `vertex` of taking `action` first."""
        if action.kind is ActionKind.SENSE:
            return self.sense(known, vertex, action.edge,
                              dict(self.senses[vertex])[action.edge])
        (far, cost), = [(far, cost) for e, far, cost in self.moves[vertex]
                        if e == action.edge]
        return cost * self.weight[known] + self.arrive(known, far)

    def value(self, known: frozenset, start: str):
        """Scaled value at `start` in stratum `known`; inf if stranded."""
        values = self.strata.setdefault(known, {})
        if start not in values:
            values.update(self.stratum(known, start))
        return values[start]

    def stratum(self, known: frozenset, start: str) -> dict:
        """Scaled values of the positions `start` reaches revealing nothing:
        each is the cheapest of its exits, relaxed along the moves among
        them."""
        t, weight = self.instance.t, self.weight[known]
        values: dict[str, int | float] = {}
        queue, inside = [start], []
        while queue:
            v = queue.pop()
            if v in values:
                continue
            values[v] = 0 if v == t else math.inf
            if v == t:
                continue
            for e, far, cost in self.moves[v]:
                if e in self.uncertain and (e, True) not in known:
                    continue
                if self.shows(far, known):
                    values[v] = min(values[v], cost * weight
                                    + self.arrive(known, far))
                else:
                    inside.append((v, far, cost * weight))
                    queue.append(far)
            for e, fee in self.senses[v]:
                if (e, True) not in known and (e, False) not in known:
                    values[v] = min(values[v], self.sense(known, v, e, fee))
        settled = False
        while not settled:  # Bellman-Ford: costs are nonnegative
            settled = True
            for v, far, cost in inside:
                if cost + values[far] < values[v]:
                    values[v], settled = cost + values[far], False
        return values

    def cost(self, known: frozenset, scaled) -> Cost:
        if scaled == math.inf:
            return Cost.infinite()
        return Cost.of(Fraction(scaled, self.weight[known] * self.unit))


def check(instance):
    """The solver's optimum and first actions, priced by the oracle; the
    tree the solve's graph of keys unrolls to is the one a step-by-step
    walk of its search records."""
    result, walked, tree = walked_solve(instance)
    assert result.policy.unrolled().nodes == tree.nodes
    assert walked == result.optimal_cost
    oracle = Oracle(instance)
    s, root = instance.s, frozenset()
    optimum = oracle.arrive(root, s)
    assert result.optimal_cost == oracle.cost(root, optimum)
    starts = oracle.outcomes(root, oracle.shows(s, root))
    first = result.optimal_first_action
    if first is not None and optimum != math.inf:
        assert sum(oracle.step(known, s, first) for known in starts) \
            == optimum
    bits = instance.bits
    for known in starts:
        best = oracle.value(known, s)
        if best == math.inf:
            continue
        belief = Belief(s, sum(bits[e] for e, status in known if status),
                        sum(bits[e] for e, status in known if not status),
                        instance)
        action = result.policy.decide(instance, belief)
        assert oracle.step(known, s, action) == best


def random_instance(rng: random.Random, variant: Variant):
    """A random instance of `variant` with a sure s-t fallback edge."""
    names = VERTICES[:rng.randint(3, 5)]
    b = InstanceBuilder(variant)
    b.set_endpoints("s", "t")
    for v in names:
        b.add_vertex(v)
    b.add_edge("s", "t", FALLBACK, id="fallback")
    hidden = rng.choice(CHANCES)
    if variant is Variant.DEPENDENT:
        b.add_variable("hidden", [], [hidden])
    for i in range(rng.randint(0, 3)):
        b.add_edge(*rng.sample(names, 2), rng.choice(COSTS), id=f"sure{i}",
                   directed=rng.random() < 0.5)
    uncertain = [f"u{i}" for i in range(rng.randint(1, 8))]
    for e in uncertain:
        if variant is Variant.DEPENDENT and rng.random() < 0.5:
            # blocked with a low or a high chance, as the hidden parent says
            cpt = rng.choice((0, *CHANCES)), rng.choice((*CHANCES, 1))
            block_p = (1 - hidden) * cpt[0] + hidden * cpt[1]
            b.add_variable(e, ["hidden"], cpt)
        else:
            block_p = rng.choice(CHANCES)
            if variant is Variant.DEPENDENT:
                b.add_variable(e, [], [block_p])
        b.add_edge(*rng.sample(names, 2), rng.choice(COSTS), id=e,
                   directed=rng.random() < 0.25, block_p=block_p)
    if variant is Variant.SENSING:
        for e in uncertain:
            # s twice as likely: a sense before the first move pays most
            # in draw order, so one seed builds one instance in every
            # process, whatever the hash seed
            for v in dict.fromkeys(rng.choice(("s", *names))
                                   for _ in range(2)):
                b.add_sensing(v, e, rng.choice(FEES))
    return b.build()


class TestOracle:
    """Each seed names one instance: `random_instance(Random(seed), ...)`
    rebuilds the one a failure reports."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_independent(self, seed):
        check(random_instance(random.Random(seed), Variant.INDEPENDENT))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_sensing(self, seed):
        check(random_instance(random.Random(seed), Variant.SENSING))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_dependent(self, seed):
        check(random_instance(random.Random(seed), Variant.DEPENDENT))
