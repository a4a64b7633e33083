"""Exact data model for Canadian Traveler instances.

Instances are finite graphs whose edges are either surely traversable or
carry a blocking probability. A weather fixes every uncertain edge at once.
A walker standing at a vertex sees the true status of every uncertain edge
touching that vertex; direction restricts travel, never sight. That split
lets a directed construction expose status signals through edges that point
into a reachable vertex from an unreachable one.

Dependent instances replace the independent coin flips with a small Bayes
net over binary variables. A variable named after an edge drives that edge,
value 1 meaning blocked; variables with other names are auxiliary coins.

Edge statuses have one numbering, the bits of `CtpInstance.bits`. A
`Belief` holds masks of the uncertain edges known open and known blocked,
a `Weather` the mask of the blocked ones, a joint-model component its rows
as open masks, and `JointModel.branch` returns outcome masks. `fresh_at`
is what an arrival adds, `outcomes` branches on it, and the id-sorted
text of keys, labels and messages is built only where it is written.

All arithmetic is exact: walks and the search add ints in units of 1/D
(`CtpInstance.cost_unit`); `Cost` parses, validates, compares and prints.
"""

from __future__ import annotations

import gc
import json
import math
import re
import sys
from array import array
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import repeat
from operator import not_
from pathlib import Path
from typing import NamedTuple


class InvalidInstanceError(ValueError):
    """Bad input (`ctplab` exit 2): a document, a policy's action or a
    construction parameter breaks a rule of its format or range."""


class EnumerationCapError(RuntimeError):
    """A cap was hit (`ctplab` exit 3): an enumeration or a walk outgrew
    its limit."""


# Beliefs one solve may expand before it gives up (`ctplab solve --cap`);
# a policy's graph, and a decision tree when written, keep the same cap.
BELIEF_CAP = 200_000


class InternalCheckError(RuntimeError):
    """A broken invariant (`ctplab` exit 1): a self-check failed."""


@contextmanager
def _gc_paused():
    """Turns the cyclic garbage collector off for the body, if it was on.

    A `with` block or a decorator (`@_gc_paused()`) for a body that
    builds many objects and no reference cycle: CPython starts a
    collection every few hundred allocations, and each rescans what the
    body has built so far. No result changes, since only unreachable
    cycles are ever collected, and the tests check that each paused call
    leaves none behind. The switch is process-wide, so this assumes one
    thread drives ctplab, as the CLI and the benchmark do. A collector
    that was off (a nested pause, or the caller's choice) stays off, and
    one that was on is turned back on however the body ends.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


# ---------------------------------------------------------------------------
# rationals

# an exact rational as the package takes one: a "num/den" string too
Rational = Fraction | int | str


def as_fraction(value: Rational) -> Fraction:
    if type(value) is Fraction:
        return value  # immutable, so shared rather than copied
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InvalidInstanceError(
            f"{value!r} is a float; give an exact int, Fraction or string")
    return Fraction(value)


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into an exact fraction."""
    if not isinstance(text, str):
        raise InvalidInstanceError(
            f"rational must be a string, got {type(text).__name__}")
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise InvalidInstanceError(f"bad rational {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError as exc:
        raise InvalidInstanceError(f"bad rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def times(value: int, num: int, den: int) -> int:
    """`value * num / den`, exactly: the package's one division of ints
    in a unit (D, Z or M(K)), where a remainder breaks the unit's
    invariant."""
    whole, rest = divmod(value * num, den)
    if rest:
        raise InternalCheckError(f"{value} times {num}/{den} is not whole")
    return whole


def parse_probability(text: str) -> Fraction:
    p = parse_rational(text)
    if not 0 <= p <= 1:
        raise InvalidInstanceError(f"probability {text!r} outside [0, 1]")
    return p


# ---------------------------------------------------------------------------
# cost

@total_ordering
@dataclass(frozen=True)
class Cost:
    """Nonnegative travel cost, possibly infinite, as a result reports it.

    Infinity dominates every finite value. Computations add ints in whole
    units of 1/D (`CtpInstance.cost_unit`), where infinity is `math.inf`,
    and `Cost.of` turns a sum, divided once, back into a `Cost`.
    """

    _value: Fraction | None

    @staticmethod
    def of(value: Cost | Rational | float) -> Cost:
        if isinstance(value, Cost):
            return value
        if isinstance(value, str):
            return parse_cost(value)
        if isinstance(value, float) and value == math.inf:
            return _INFINITE
        frac = as_fraction(value)  # refuses every other float
        if frac.numerator < 0:
            raise InvalidInstanceError(f"cost must be nonnegative, got {frac}")
        return Cost(frac)

    @staticmethod
    def zero() -> Cost:
        return _ZERO

    @staticmethod
    def infinite() -> Cost:
        return _INFINITE

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite cost has no finite value")
        return self._value

    def __lt__(self, other: Cost) -> bool:
        if not isinstance(other, Cost):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __str__(self) -> str:
        return "inf" if self._value is None else format_rational(self._value)

    def __repr__(self) -> str:
        return f"Cost({self})"


_ZERO = Cost(Fraction(0))
_INFINITE = Cost(None)


def parse_cost(text: str) -> Cost:
    if text == "inf":
        return _INFINITE
    return Cost.of(parse_rational(text))


# ---------------------------------------------------------------------------
# deterministic randomness

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_SPAN64 = 1 << 64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BIG_ENDIAN = sys.byteorder == "big"


def _mix64(x: int, lanes: int = _MASK64) -> int:
    """SplitMix64's mix of x mod 2^64; with the lane mask of a packed x
    (`_pack`), of each of its lanes at once.

    Lane j is bits 128j to 128j+63, the bits `lanes` sets. Each shift is
    masked back to the lanes, and a lane times a 64-bit constant stays
    below 2^128, so no carry crosses into the next lane: every lane
    mixes exactly as it would alone.
    """
    x &= lanes
    x = ((x ^ (x >> 30) & lanes) * _MIX1) & lanes
    x = ((x ^ (x >> 27) & lanes) * _MIX2) & lanes
    return x ^ (x >> 31) & lanes


def _pack(words: Iterable[int]) -> tuple[int, int, int]:
    """`words`, each reduced mod 2^64, one to a lane of one int (see
    `_mix64`); the int that holds 1 in each lane; and the lane count."""
    words = list(words)
    try:
        words = array("Q", words)
    except OverflowError:  # a word below 0 or from 2^64 up
        words = array("Q", [word & _MASK64 for word in words])
    packed = array("Q", bytes(16 * len(words)))
    packed[::2] = words
    if _BIG_ENDIAN:
        packed.byteswap()
    ones = int.from_bytes((b"\1" + bytes(15)) * len(words), "little")
    return int.from_bytes(packed, "little"), ones, len(words)


class SplitMix64:
    """Counter-based 64-bit generator with exact rational Bernoulli draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform_below(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection."""
        if n <= 0:
            raise ValueError("need a positive bound")
        if n == 1:
            return 0
        span = 1 << 64
        words = 1
        while span < n:
            span <<= 64
            words += 1
        limit = span - span % n
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next64()
            if value < limit:
                return value % n

    def hits(self, rows: Sequence,
             parents: Sequence[tuple[int, ...]] | None = None) -> list:
        """Keys of the rows whose chance comes true, drawn in row order.

        Each row is `(key, numerator, denominator)`, and it comes true
        when `uniform_below(denominator) < numerator`, draw for draw, so a
        denominator of 1 (chance 0 or 1) takes no word.

        With `parents`, the rows are a Bayes net's, in ancestral order:
        `rows[i]` holds variable i's rows, one per parent assignment, and
        the row drawn is `rows[i][r]`, where bit j of r is the outcome of
        variable `parents[i][j]`. Keys of None are drawn, not returned.
        """
        values: list[bool] = []  # every outcome so far, for the parents
        out = []
        for row in rows:
            if parents is not None:
                pick = 0
                for j, k in enumerate(parents[len(values)]):
                    pick |= values[k] << j
                row = row[pick]
            key, num, den = row
            hit = self.uniform_below(den) < num
            values.append(hit)
            if hit and key is not None:
                out.append(key)
        return out


def trial_counters(seed: int, trials) -> list[int]:
    """The counter each trial of `trials` (ints) starts its stream from:
    a stable, independent stream per Monte Carlo trial.

    Trial t's counter is the mix of `_mix64(seed)` + t * SALT, which
    depends on t mod 2^64 alone; all of them mix in one lane call.
    """
    packed, ones, count = _pack(trials)
    # trial * SALT + base stays below 2^128 in every lane
    mixed = _mix64(packed * _STREAM_SALT + _mix64(seed) * ones,
                   ones * _MASK64)
    words = array("Q", mixed.to_bytes(16 * count, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2].tolist()


# ---------------------------------------------------------------------------
# structure

class Variant(Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    SENSING = "sensing"


# the `block_p` of every sure edge, one shared value
_SURE = Fraction(0)


class EdgeSpec(NamedTuple):
    """One edge; `block_p` is the marginal blocking probability.

    Zero `block_p` means surely traversable. In a dependent instance the
    stored value must agree with the marginal the net induces. A named
    tuple, equal to the plain tuple of its fields, copied with `_replace`:
    the 60,000 edges of a large reduction carry no per-edge dict, and the
    builder and the loader make each one with no Python frame. Edges come
    in runs that share one `cost` and one `block_p` object, so the
    validator and the writer work once per run.
    """

    id: str
    tail: str
    head: str
    cost: Cost
    directed: bool = False
    block_p: Fraction = _SURE

    @property
    def uncertain(self) -> bool:
        return self.block_p.numerator != 0

    def other_end(self, vertex: str) -> str:
        if vertex == self.tail:
            return self.head
        if vertex == self.head:
            return self.tail
        raise ValueError(f"{vertex} is not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class NetVariable:
    """Binary variable of a dependency net.

    `cpt[r]` is P(value = 1) for parent row r, where bit j of r holds the
    value of `parents[j]`.
    """

    id: str
    parents: tuple[str, ...]
    cpt: tuple[Fraction, ...]


@dataclass(frozen=True)
class DependencyNet:
    """Bayes net over edge and auxiliary variables, listed parents first."""

    variables: tuple[NetVariable, ...]
    max_in_degree: int = 2

    @cached_property
    def moral_components(self) -> tuple[tuple[NetVariable, ...], ...]:
        """Connected components of the moralized graph, in listing order."""
        neighbors: dict[str, set[str]] = {v.id: set() for v in self.variables}
        for v in self.variables:
            for p in v.parents:
                neighbors[v.id].add(p)
                neighbors[p].add(v.id)
        seen: set[str] = set()
        groups: list[tuple[NetVariable, ...]] = []
        for v in self.variables:
            if v.id in seen:
                continue
            stack, members = [v.id], set()
            while stack:
                cur = stack.pop()
                if cur in members:
                    continue
                members.add(cur)
                stack.extend(neighbors[cur] - members)
            seen |= members
            groups.append(tuple(x for x in self.variables if x.id in members))
        return tuple(groups)


@dataclass(frozen=True)
class SensingEntry:
    vertex: str
    edge: str
    cost: Cost


@dataclass(frozen=True)
class SensingSpec:
    """Partial map from (vertex, edge) to the price of remote inspection."""

    entries: tuple[SensingEntry, ...]


@dataclass(frozen=True)
class Weather:
    """The blocked mask of one full realization of the uncertain edges."""

    blocked: int


@dataclass(slots=True)
class Belief:
    """What the walker knows: its position and every revealed status.

    The statuses are two masks over the instance's numbering
    (`CtpInstance.bits`): an uncertain edge's bit is set in `opened` once
    it is known open and in `blocked` once it is known blocked. Knowledge
    only grows, so a reveal ORs bits in.
    """

    position: str
    opened: int
    blocked: int
    instance: CtpInstance = field(repr=False)

    def status(self, edge_id: str) -> bool | None:
        """True open, False blocked, None still unknown."""
        bit = self.instance.bits.get(edge_id, 0)
        if self.opened & bit:
            return True
        if self.blocked & bit:
            return False
        return None

    @property
    def known(self) -> list[tuple[str, bool]]:
        """Every revealed `(edge id, status)`, sorted by edge id."""
        return self.instance.statuses(self.opened, self.blocked)


# ---------------------------------------------------------------------------
# joint distribution over uncertain edges

def _low_bits(mask: int):
    """The bits `mask` sets, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _by_flags(bits: Sequence[int]):
    """Sort key of an `(open mask, ...)` item: its open flags over `bits`."""
    return lambda item: [item[0] & bit != 0 for bit in bits]


@dataclass(frozen=True)
class ComponentTable:
    """Joint support of one dependency component, projected onto its edges.

    `mask` sets the bits of its uncertain edges. Each row pairs an open mask
    over them with that projection's prior probability as an int weight
    over `total`, auxiliary variables summed out; `total` is the lcm of the
    chances' denominators, so the weights sum to it. Rows are sorted by
    open flags over the id-sorted edges.
    """

    mask: int
    rows: tuple[tuple[int, int], ...]
    total: int


@dataclass(frozen=True)
class JointModel:
    """Factored distribution over edge statuses, one table per component."""

    components: Sequence[ComponentTable]

    @cached_property
    def scale(self) -> int:
        """Z, the product of the components' totals (each the lcm of its
        chances' denominators): Z times the chance of any statuses is whole."""
        return math.prod(comp.total for comp in self.components)

    @cached_property
    def _component_at(self) -> dict[int, int]:
        return {bit: i for i, comp in enumerate(self.components)
                for bit in _low_bits(comp.mask)}

    def touched(self, mask: int) -> list[ComponentTable]:
        """The components that set a bit of `mask`, in model order."""
        at = self._component_at
        return [self.components[i]
                for i in sorted({at[bit] for bit in _low_bits(mask)})]

    def branch(self, opened: int, blocked: int, fresh: int,
               ) -> list[tuple[int, int, int, int]]:
        """Joint outcomes over the bits of `fresh`, given the statuses of
        masks `opened` and `blocked`, as rows (opened, blocked, weight,
        total): an outcome's chance is its weight, a positive int, over the
        total, which every row of the call shares and its weights sum to.

        Components multiply out in model order, each one's outcomes sorted
        by open flags over its fresh bits, lowest bit first, False first.
        More than `BELIEF_CAP` outcomes raise `EnumerationCapError` before
        any is built.
        """
        factors = []
        for comp in self.touched(fresh):
            known = (opened | blocked) & comp.mask
            picks = fresh & comp.mask
            proj: dict[int, int] = {}
            for row, weight in comp.rows:
                if row & known == opened & known:  # agrees with the masks
                    key = row & picks
                    proj[key] = proj.get(key, 0) + weight
            if not proj:
                # every status revealed came from a weather or an outcome
                # of positive chance, so only a broken invariant gets here
                raise InternalCheckError(
                    "revealed statuses are inconsistent in the component "
                    f"of mask {comp.mask:#x}")
            factors.append([(key, picks ^ key, w) for key, w in sorted(
                proj.items(), key=_by_flags(list(_low_bits(picks))))])
        size = math.prod(map(len, factors))
        if size > BELIEF_CAP:
            raise EnumerationCapError(
                f"{size} outcomes of one observation exceed the cap of "
                f"{BELIEF_CAP}")
        partial = [(0, 0, 1)]
        for outcomes in factors:
            partial = [(got | add, shut | more, wa * wb)
                       for got, shut, wa in partial
                       for add, more, wb in outcomes]
        total = sum(w for _, _, w in partial)
        return [(got, shut, w, total) for got, shut, w in partial]


_LEAF_CAP = 1 << 22


def _component_table(variables: Sequence[NetVariable],
                     edge_bits: Mapping[str, int]) -> ComponentTable:
    ordered = sorted(edge_bits.items())
    rows: dict[int, Fraction] = {}
    assign: dict[str, int] = {}
    leaves = 0
    # depth-first over the support, value 0 before 1; an entry is the
    # number of variables fixed, the value of the last one and the chance
    stack = [(0, 0, Fraction(1))]
    while stack:
        i, value, prob = stack.pop()
        if i:  # parents are listed first, so deeper stale values go unread
            assign[variables[i - 1].id] = value
        if i == len(variables):
            leaves += 1
            if leaves > _LEAF_CAP:
                raise EnumerationCapError(
                    f"dependency component support exceeds {_LEAF_CAP} rows")
            key = sum(bit for e, bit in ordered if assign[e] == 0)
            rows[key] = rows.get(key, 0) + prob
            continue
        var = variables[i]
        row = 0
        for j, parent in enumerate(var.parents):
            row |= assign[parent] << j
        p_one = var.cpt[row]
        for value, p in ((1, p_one), (0, 1 - p_one)):
            if p:
                stack.append((i + 1, value, prob * p))
    bits = [bit for _, bit in ordered]
    total = math.lcm(*(p.denominator for p in rows.values()))
    return ComponentTable(sum(bits), tuple(sorted(
        [(key, total // p.denominator * p.numerator)
         for key, p in rows.items()], key=_by_flags(bits))), total)


class _EdgeTables(Sequence):
    """An independent instance's one-edge tables, each built when read: U
    edges' masks take O(U^2) bits, so the model itself holds none."""

    def __init__(self, edges: tuple[EdgeSpec, ...]):
        self._edges = edges

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, i: int) -> ComponentTable:
        p, bit = self._edges[i].block_p, 1 << i  # as `CtpInstance.bits`
        return ComponentTable(bit, ((0, p.numerator),
                                    (bit, p.denominator - p.numerator)),
                              p.denominator)


def build_joint(instance: CtpInstance) -> JointModel:
    """Factor the instance's edge-status distribution into component tables."""
    if instance.dependency is None:
        return JointModel(_EdgeTables(instance.uncertain_edges))
    bits = instance.bits
    comps = []
    for group in instance.dependency.moral_components:
        edge_bits = {v.id: bits[v.id] for v in group if v.id in bits}
        if edge_bits:
            comps.append(_component_table(group, edge_bits))
    return JointModel(tuple(comps))


# ---------------------------------------------------------------------------
# instance

@dataclass(frozen=True)
class CtpInstance:
    variant: Variant
    vertices: tuple[str, ...]
    edges: tuple[EdgeSpec, ...]
    s: str
    t: str
    dependency: DependencyNet | None = None
    sensing: SensingSpec | None = None

    @cached_property
    def edge_map(self) -> dict[str, EdgeSpec]:
        return {e.id: e for e in self.edges}

    @cached_property
    def uncertain_edges(self) -> tuple[EdgeSpec, ...]:
        return tuple(e for e in self.edges if e.uncertain)

    @cached_property
    def _moves(self) -> dict[str, dict[str, tuple[EdgeSpec, str]]]:
        table = {v: {} for v in self.vertices}
        for e in self.edges:
            if not e.cost.is_infinite:
                table[e.tail][e.id] = (e, e.head)
                if not e.directed:
                    table[e.head][e.id] = (e, e.tail)
        return table

    def moves_from(self, vertex: str) -> Mapping[str, tuple[EdgeSpec, str]]:
        """Each edge id that may leave `vertex`, mapped to (edge, far end).

        The move rule of the solver and every walker: a directed edge
        leaves its tail only, an infinite-cost anchor never, and an
        uncertain edge only once it is known open.
        """
        return self._moves[vertex]

    @cached_property
    def cost_unit(self) -> int:
        """D, the lcm of the denominators of all finite costs and fees."""
        costs = [x.cost._value for x in self.edges + (
            self.sensing.entries if self.sensing else ())]
        return math.lcm(*{c.denominator for c in costs if c is not None})

    @cached_property
    def legal_moves(self) -> dict[tuple[str, str], tuple]:
        """`moves_from` as one table keyed by `(vertex, edge id)`: the
        move's price in units of 1/D (`cost_unit`), its far end, the
        edge's bit (0 if it is sure) and the mask arriving at the far end
        shows when nothing is known (`fresh_at` its AND with the unknown
        bits). The table the policy walks take each step from."""
        bits, sight, t, unit = self.bits, self._sight, self.t, self.cost_unit
        return {(u, edge_id): (times(unit,
                                     *edge.cost.fraction.as_integer_ratio()),
                               far, bits.get(edge_id, 0),
                               0 if far == t else sight[far])
                for u, moves in self._moves.items()
                for edge_id, (edge, far) in moves.items()}

    @cached_property
    def _sense_fees(self) -> dict[str, dict[str, Cost]]:
        table = {v: {} for v in self.vertices}
        if self.variant is Variant.SENSING and self.sensing is not None:
            for entry in sorted(self.sensing.entries, key=lambda x: x.edge):
                table[entry.vertex][entry.edge] = entry.cost
        return table

    def senses_from(self, vertex: str) -> Mapping[str, Cost]:
        """Each edge id sensable from `vertex`, mapped to its fee."""
        return self._sense_fees[vertex]

    @cached_property
    def bits(self) -> dict[str, int]:
        """The numbering of a belief's masks: the i-th uncertain edge, in
        listing order, is bit `1 << i`."""
        return {e.id: 1 << i for i, e in enumerate(self.uncertain_edges)}

    @cached_property
    def _sight(self) -> dict[str, int]:
        sight = dict.fromkeys(self.vertices, 0)
        for e in self.uncertain_edges:
            sight[e.tail] |= self.bits[e.id]
            sight[e.head] |= self.bits[e.id]
        return sight

    def visible_from(self, vertex: str) -> tuple[EdgeSpec, ...]:
        """Uncertain edges whose status shows to a walker at `vertex`.

        Every uncertain edge incident on `vertex` shows its true status,
        whichever endpoint the walker stands at; nothing else does.
        """
        seen = self.edges_in(self._sight[vertex])
        return tuple(map(self.edge_map.get, seen))

    def fresh_at(self, vertex: str, known: int) -> int:
        """Mask of the unrevealed statuses that arriving at `vertex`
        exposes, given the mask `known` of those revealed.

        Arriving at t ends the trip, so nothing revealed there can matter
        (and branching on it at a gadget sink with hundreds of incident
        cut edges would explode). No deduction happens here.
        """
        return 0 if vertex == self.t else self._sight[vertex] & ~known

    def edges_in(self, mask: int) -> list[str]:
        """Ids of the uncertain edges whose bits `mask` sets, in bit order;
        the cost grows with the bits set, not with the uncertain edges."""
        edges = self.uncertain_edges
        return [edges[low.bit_length() - 1].id for low in _low_bits(mask)]

    def statuses(self, opened: int, blocked: int) -> list[tuple[str, bool]]:
        """`(edge id, status)` of every bit the two masks set, sorted by
        edge id: the order in which keys, labels and messages write them."""
        return sorted([(e, True) for e in self.edges_in(opened)]
                      + [(e, False) for e in self.edges_in(blocked)])

    def outcomes(self, tables: dict, fresh: int, opened: int, blocked: int,
                 ) -> list[tuple[int, int, int, int]]:
        """`joint.branch(opened, blocked, fresh)`, memoized: the rows
        (opened, blocked, weight, total) over the edges of mask `fresh`.

        `tables` memoizes the rows for one caller: `tables[fresh]` holds
        the mask of the dependency components `fresh` touches and the
        rows by (opened, blocked) restricted to it. `branch` reads nothing
        else, as the components are independent (the factored model of
        Papadimitriou & Yannakakis, TCS 1991), so a hit returns exactly
        what a fresh call would, and a miss passes its key straight to
        `branch`. The rows are never mutated.
        """
        memo = tables.get(fresh)
        if memo is None:
            memo = tables[fresh] = (
                sum(comp.mask for comp in self.joint.touched(fresh)), {})
        mask, rows = memo
        key = (opened & mask, blocked & mask)
        table = rows.get(key)
        if table is None:
            table = rows[key] = self.joint.branch(*key, fresh)
        return table

    @cached_property
    def joint(self) -> JointModel:
        return build_joint(self)

    @cached_property
    def draw_table(self) -> tuple:
        """What `sample_weather` draws: the `(rows, parents)` arguments of
        `SplitMix64.hits`, each row `(key, numerator, denominator)`, and
        whether the table is dyadic.

        Without a net: one row per uncertain edge, keyed by its bit, and no
        parents. The table is dyadic when every denominator is 2^k,
        1 <= k <= 64: such a draw never rejects, so row i takes exactly
        word i and can be decided alone from it (`reveal_rule`). With a
        net: per variable in listed order, one row per CPT entry, keyed by
        the bit of the uncertain edge it drives and by None for an
        auxiliary variable, and the positions of its parents; a net's
        draws depend on earlier outcomes, so it is never dyadic.
        """
        bits = self.bits
        if self.dependency is None:
            rows = tuple((bits[e.id], e.block_p.numerator,
                          e.block_p.denominator) for e in self.uncertain_edges)
            return rows, None, all(not den & (den - 1) and 1 < den <= _SPAN64
                                   for _, _, den in rows)
        variables = self.dependency.variables
        position = {v.id: i for i, v in enumerate(variables)}
        return (tuple(tuple((bits.get(var.id), p.numerator, p.denominator)
                            for p in var.cpt) for var in variables),
                tuple(tuple(position[p] for p in var.parents)
                      for var in variables), False)


# ---------------------------------------------------------------------------
# validation

def _validate_net(instance: CtpInstance) -> None:
    net = instance.dependency
    seen: set[str] = set()
    for var in net.variables:
        if var.id in seen:
            raise InvalidInstanceError(f"duplicate net variable {var.id!r}")
        if len(var.parents) > net.max_in_degree:
            raise InvalidInstanceError(
                f"variable {var.id!r} has in-degree {len(var.parents)}, "
                f"cap is {net.max_in_degree}")
        if len(set(var.parents)) != len(var.parents):
            raise InvalidInstanceError(
                f"variable {var.id!r} repeats a parent")
        for p in var.parents:
            if p not in seen:
                raise InvalidInstanceError(
                    f"variable {var.id!r} uses parent {p!r} that is not "
                    f"listed before it")
        if len(var.cpt) != 1 << len(var.parents):
            raise InvalidInstanceError(
                f"variable {var.id!r} needs {1 << len(var.parents)} rows, "
                f"got {len(var.cpt)}")
        for p in var.cpt:
            if not 0 <= p <= 1:
                raise InvalidInstanceError(
                    f"variable {var.id!r} has probability {p} outside [0, 1]")
        seen.add(var.id)

    uncertain = instance.bits
    for eid in uncertain:
        if eid not in seen:
            raise InvalidInstanceError(
                f"uncertain edge {eid!r} has no dependency variable")
    for var in net.variables:
        if var.id in instance.edge_map and var.id not in uncertain:
            raise InvalidInstanceError(
                f"variable {var.id!r} names a sure edge")

    # Stored marginals must match what the net induces: the blocked rows
    # of the edge's own component table (its rows sum to one).
    joint = instance.joint
    for edge in instance.uncertain_edges:
        bit = uncertain[edge.id]
        (comp,) = joint.touched(bit)
        marginal = Fraction(sum(w for row, w in comp.rows if not row & bit),
                            comp.total)
        if marginal != edge.block_p:
            raise InvalidInstanceError(
                f"edge {edge.id!r} stores block_p {edge.block_p} but the "
                f"net gives {marginal}")


def validate_instance(instance: CtpInstance) -> None:
    """Raise InvalidInstanceError if any structural rule fails."""
    if not all(isinstance(v, str) and v for v in instance.vertices):
        raise InvalidInstanceError("vertex names must be nonempty strings")
    vertex_set = set(instance.vertices)
    if len(vertex_set) != len(instance.vertices):
        raise InvalidInstanceError("duplicate vertex name")
    for endpoint in (instance.s, instance.t):
        if not isinstance(endpoint, str) or endpoint not in vertex_set:
            raise InvalidInstanceError(f"endpoint {endpoint!r} is not a vertex")
    if instance.s == instance.t:
        raise InvalidInstanceError("s and t must differ")

    seen_edges: set[str] = set()
    # the cost and chance objects of the edge before, which passed; none
    # before the first edge
    last_cost = last_p = object()
    for eid, tail, head, cost, _, p in instance.edges:
        if eid in seen_edges:
            raise InvalidInstanceError(f"duplicate edge id {eid!r}")
        seen_edges.add(eid)
        if tail not in vertex_set or head not in vertex_set:
            raise InvalidInstanceError(f"edge {eid!r} leaves the vertex set")
        if tail == head:
            raise InvalidInstanceError(f"edge {eid!r} is a loop")
        if cost is last_cost and p is last_p:
            continue
        num = p.numerator
        if not 0 <= num < p.denominator:
            raise InvalidInstanceError(
                f"edge {eid!r} has block_p {p}, need [0, 1)")
        if num and cost._value is None:
            raise InvalidInstanceError(
                f"edge {eid!r} is uncertain and infinite")
        last_cost, last_p = cost, p

    if instance.variant is Variant.DEPENDENT:
        if instance.dependency is None:
            raise InvalidInstanceError("dependent instance without a net")
        if instance.sensing is not None:
            raise InvalidInstanceError("dependent instance with sensing costs")
        _validate_net(instance)
    elif instance.variant is Variant.SENSING:
        if instance.sensing is None:
            raise InvalidInstanceError("sensing instance without sensing costs")
        if instance.dependency is not None:
            raise InvalidInstanceError("sensing instance with a dependency net")
    else:
        if instance.dependency is not None or instance.sensing is not None:
            raise InvalidInstanceError(
                "independent instance with extra sections")

    if instance.sensing is not None:
        seen_pairs: set[tuple[str, str]] = set()
        for entry in instance.sensing.entries:
            if entry.vertex not in vertex_set:
                raise InvalidInstanceError(
                    f"sensing vertex {entry.vertex!r} is not a vertex")
            edge = instance.edge_map.get(entry.edge)
            if edge is None or not edge.uncertain:
                raise InvalidInstanceError(
                    f"sensing entry targets {entry.edge!r}, which is not an "
                    f"uncertain edge")
            if entry.cost.is_infinite:
                raise InvalidInstanceError("sensing costs must be finite")
            pair = (entry.vertex, entry.edge)
            if pair in seen_pairs:
                raise InvalidInstanceError(f"duplicate sensing entry {pair}")
            seen_pairs.add(pair)


# ---------------------------------------------------------------------------
# building

class InstanceBuilder:
    """Mutable assembly surface; `build` validates and freezes.

    Vertices keep the order they are first named in, an edge naming its
    tail and then its head; edges keep the order they are added in."""

    def __init__(self, variant: Variant):
        self.variant = variant
        self._vertices: dict[str, None] = {}
        self._edges: dict[str, EdgeSpec] = {}
        self._variables: list[NetVariable] = []
        self._sensing: list[SensingEntry] = []
        self.s: str | None = None
        self.t: str | None = None

    def add_vertex(self, vertex: str) -> str:
        self._vertices.setdefault(vertex, None)
        return vertex

    def add_edge(self, tail: str, head: str, cost: Cost | Rational,
                 *, id: str | None = None, directed: bool = False,
                 block_p: Rational = _SURE) -> str:
        """`add_edges` for one edge; an edge without an `id` takes the
        first free e{k:04d}, counting up from k = the number of edges."""
        if id is None:
            k = len(self._edges)
            while f"e{k:04d}" in self._edges:
                k += 1
            id = f"e{k:04d}"
        self.add_edges((id,), (tail,), (head,), cost, block_p, directed)
        return id

    def add_edges(self, ids: Sequence[str], tails: Sequence[str],
                  heads: Sequence[str], cost: Cost | Rational,
                  block_p: Rational = _SURE,
                  directed: bool = False) -> None:
        """Add edge ids[k] from tails[k] to heads[k] for each k of the three
        equal-length sequences, all of one cost, chance and direction. Ids
        that repeat change nothing and raise naming the first repeat."""
        edges = self._edges
        if (not edges.keys().isdisjoint(ids)
                or len(ids) > 1 and len(set(ids)) < len(ids)):
            seen = set(edges)
            raise InvalidInstanceError("duplicate edge id %r" % next(
                i for i in ids if i in seen or seen.add(i)))
        edges.update(zip(ids, map(tuple.__new__, repeat(EdgeSpec), zip(
            ids, tails, heads, repeat(Cost.of(cost)), repeat(directed),
            repeat(as_fraction(block_p))))))
        vertices = self._vertices
        for tail, head in zip(tails, heads):
            vertices[tail] = vertices[head] = None

    def add_variable(self, id: str, parents: Sequence[str] = (),
                     p_one: Sequence[Rational] = ()) -> str:
        self._variables.append(NetVariable(
            id, tuple(parents), tuple(map(as_fraction, p_one))))
        return id

    def add_sensing(self, vertex: str, edge: str,
                    cost: Cost | Rational) -> None:
        self._sensing.append(SensingEntry(vertex, edge, Cost.of(cost)))

    def set_endpoints(self, s: str, t: str) -> None:
        self.s = self.add_vertex(s)
        self.t = self.add_vertex(t)

    def build(self) -> CtpInstance:
        if self.s is None or self.t is None:
            raise InvalidInstanceError("endpoints are not set")
        # a section of another variant passes through for validation
        dependency = sensing = None
        if self._variables or self.variant is Variant.DEPENDENT:
            dependency = DependencyNet(tuple(self._variables))
        if self._sensing or self.variant is Variant.SENSING:
            sensing = SensingSpec(tuple(self._sensing))
        instance = CtpInstance(self.variant, tuple(self._vertices),
                               tuple(self._edges.values()), self.s, self.t,
                               dependency, sensing)
        validate_instance(instance)
        return instance


# ---------------------------------------------------------------------------
# weathers

# Largest weather support `weather_support` lists.
_SUPPORT_CAP = 1 << 20


def weather_support(instance: CtpInstance) -> list[tuple[Weather, Fraction]]:
    """Every positive-probability weather with its exact probability.

    The components' rows are multiplied out in model order, the first
    component varying slowest."""
    joint = instance.joint
    count = math.prod(len(comp.rows) for comp in joint.components)
    if count > _SUPPORT_CAP:
        raise EnumerationCapError(
            f"{count} weathers exceed the cap of {_SUPPORT_CAP}")
    acc = [(0, 1)]
    for comp in joint.components:
        acc = [(blocked | (comp.mask ^ row), w * rw)
               for blocked, w in acc for row, rw in comp.rows]
    return [(Weather(blocked), Fraction(w, joint.scale)) for blocked, w in acc]


def sample_weather(instance: CtpInstance, stream: SplitMix64) -> Weather:
    """Draw one weather from `instance.draw_table` by one `hits` call.

    Edges draw in listed order; dependent nets draw each variable from
    its CPT row in listed (ancestral) order. The bits `hits` returns, each
    at most once, sum to the blocked mask.
    """
    rows, parents, _ = instance.draw_table
    return Weather(sum(stream.hits(rows, parents)))


def reveal_rule(instance: CtpInstance, fresh: int,
                states: Iterable[int]) -> list[bool] | None:
    """For a mask `fresh` of one edge: whether the weather of each trial,
    given by its counter in `states`, blocks that edge, decided from the
    counter alone; or None for any other mask, or when only the whole
    weather (`sample_weather`) decides the bits of `fresh`.

    On a dyadic table (see `draw_table`), row i takes the word of counter
    state + (i+1) * GOLDEN whatever the other rows draw, so one edge is
    decided alone, with exactly the outcome of the whole draw, by
    word & (den - 1) < num. The counters, each taken mod 2^64, pack
    one to a lane, and one `_mix64` lane call makes every trial's word;
    the test runs on all lanes at once too. Nets and other denominators
    draw in order with rejections, so their rows have no fixed word; a
    reveal of several edges takes the whole draw, which decides them all
    at once.
    """
    rows, _, dyadic = instance.draw_table
    if not dyadic or fresh.bit_count() != 1:
        return None
    _, num, den = rows[fresh.bit_length() - 1]
    packed, ones, count = _pack(states)
    step = fresh.bit_length() * _GOLDEN & _MASK64
    mixed = _mix64(packed + step * ones, ones * _MASK64)
    # a lane's bit 64, byte 8 of its 16, is set when word & (den - 1)
    # + 2^64 - num reaches 2^64, that is when the edge is open
    opens = (mixed & (den - 1) * ones) + (_SPAN64 - num) * ones
    return list(map(not_, opens.to_bytes(16 * count, "little")[8::16]))


# ---------------------------------------------------------------------------
# serialization

_EDGE_KEYS = {"id", "tail", "head", "directed", "cost", "block_p"}
_TOP_KEYS = {"variant", "s", "t", "vertices", "edges", "dependency", "sensing"}


_JSON_STR = json.encoder.encode_basestring_ascii


def _rational_texts() -> Callable[[Fraction | None], str]:
    """One document's memo from a rational to its JSON string, quoted.

    A document holds few distinct rationals, so each is formatted once,
    keyed by its integer ratio, which hashes and compares far faster than
    a Fraction. None, an infinite cost's value, is "inf".
    """
    texts: dict[tuple[int, int] | None, str] = {None: '"inf"'}

    def text(value: Fraction | None) -> str:
        key = None if value is None else value.as_integer_ratio()
        out = texts.get(key)
        if out is None:
            out = texts[key] = _JSON_STR(format_rational(value))
        return out

    return text


def _sections(instance: CtpInstance, text: Callable[[Fraction | None], str]
              ) -> dict:
    """The dependency and sensing sections `instance` has, rationals as
    the unquoted strings of `text`, the document's `_rational_texts`."""
    def plain(value: Fraction | None) -> str:
        return text(value)[1:-1]

    data: dict = {}
    if instance.dependency is not None:
        data["dependency"] = {
            "max_in_degree": instance.dependency.max_in_degree,
            "variables": [
                {
                    "id": v.id,
                    "parents": list(v.parents),
                    "cpt": [[plain(1 - p), plain(p)]
                            for p in v.cpt],
                }
                for v in instance.dependency.variables
            ],
        }
    if instance.sensing is not None:
        data["sensing"] = {
            "entries": [
                {"vertex": x.vertex, "edge": x.edge,
                 "cost": plain(x.cost._value)}
                for x in instance.sensing.entries
            ],
        }
    return data


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "true or false"}


def require_type(value, kind: type, what: str):
    """`value`, refused unless it has JSON type `kind` (bool is no int)."""
    if type(value) is not kind:
        raise InvalidInstanceError(
            f"{what} must be {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(require_type(obj, dict, where)) - allowed
    if extra:
        raise InvalidInstanceError(
            f"unknown keys {sorted(extra)} in {where}")


def instance_from_dict(data: dict) -> CtpInstance:
    """The instance a parsed JSON document describes.

    Checks the document's shape (keys, JSON types, rational strings and
    CPT rows) while reading it, then runs `validate_instance` once on the
    result. Every malformed document raises `InvalidInstanceError` with a
    one-line message, the first fault in reading order.
    """
    _require_keys(data, _TOP_KEYS, "instance")
    try:
        variant = Variant(data["variant"])
    except (KeyError, ValueError) as exc:
        raise InvalidInstanceError(f"bad variant: {exc}") from exc
    for key in ("s", "t", "vertices", "edges"):
        if key not in data:
            raise InvalidInstanceError(f"missing key {key!r}")
        if key in ("vertices", "edges"):
            require_type(data[key], list, repr(key))
    # a document holds few distinct rationals: parse each string once
    costs: dict[str, Cost] = {}
    probs: dict[str, Fraction] = {}
    edges = []
    for i, item in enumerate(data["edges"]):
        # each message is formatted only once its check has failed
        if type(item) is not dict or not item.keys() <= _EDGE_KEYS:
            _require_keys(item, _EDGE_KEYS, f"edge #{i}")
        directed = item.get("directed", False)
        if type(directed) is not bool:
            require_type(directed, bool, f"edge #{i} directed")
        try:
            eid, tail, head, text = (
                item["id"], item["tail"], item["head"], item["cost"])
        except KeyError as exc:
            raise InvalidInstanceError(
                f"edge #{i} is missing {exc}") from exc
        # a parser refuses every non-string, so only strings are memoized
        cost = costs.get(text) if type(text) is str else None
        if cost is None:
            cost = costs[text] = parse_cost(text)
        text = item.get("block_p", "0/1")
        p = probs.get(text) if type(text) is str else None
        if p is None:
            p = probs[text] = parse_probability(text)
        if not (isinstance(eid, str) and isinstance(tail, str)
                and isinstance(head, str)):
            raise InvalidInstanceError(
                f"edge #{i} needs a string id and string endpoints")
        edges.append(tuple.__new__(EdgeSpec, (eid, tail, head, cost,
                                              directed, p)))
    dependency = None
    if "dependency" in data:
        dep = data["dependency"]
        _require_keys(dep, {"max_in_degree", "variables"}, "dependency")
        variables = []
        for item in require_type(dep.get("variables", []), list, "variables"):
            _require_keys(item, {"id", "parents", "cpt"}, "net variable")
            name = require_type(item.get("id"), str, "net variable id")
            parents = tuple(
                require_type(p, str, f"a parent of {name!r}")
                for p in require_type(item.get("parents", []), list,
                                      f"parents of {name!r}"))
            cpt = []
            for row in require_type(item.get("cpt"), list, f"cpt of {name!r}"):
                chances = [parse_probability(x) for x in
                           require_type(row, list, f"a cpt row of {name!r}")]
                if len(chances) != 2 or sum(chances) != 1:
                    raise InvalidInstanceError(
                        f"cpt row {row} of {name!r} is not two "
                        "probabilities summing to 1")
                cpt.append(chances[1])
            variables.append(NetVariable(name, parents, tuple(cpt)))
        dependency = DependencyNet(tuple(variables), require_type(
            dep.get("max_in_degree", 2), int, "max_in_degree"))
    sensing = None
    if "sensing" in data:
        sec = data["sensing"]
        _require_keys(sec, {"entries"}, "sensing")
        entries = []
        for item in require_type(sec.get("entries", []), list, "entries"):
            _require_keys(item, {"vertex", "edge", "cost"}, "sensing entry")
            entries.append(SensingEntry(
                require_type(item.get("vertex"), str, "sensing vertex"),
                require_type(item.get("edge"), str, "sensing edge"),
                parse_cost(item.get("cost"))))
        sensing = SensingSpec(tuple(entries))
    instance = CtpInstance(variant, tuple(data["vertices"]), tuple(edges),
                           data["s"], data["t"], dependency, sensing)
    validate_instance(instance)
    return instance


# one edge of the document after its head: keys directed, cost and block_p,
# the last two filled with `_rational_texts` strings, already quoted
_JSON_EDGE_END = (',\n      "directed": %s,\n      "cost": %s,\n'
                  '      "block_p": %s\n    }')


def _json_list(items: list[str]) -> str:
    """A top-level list of JSON texts, laid out as `indent=2` lays it."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def instance_to_json(instance: CtpInstance) -> str:
    """`json.dumps` of the instance's document, `indent=2`, and a newline.

    `indent` turns off the C encoder, so the vertex and edge lists, nearly
    all of a large instance, are written here instead, byte for byte the
    same: strings escaped as `json.dumps` escapes them, and each edge
    written straight from its `EdgeSpec`, with no dict between, its id,
    tail and head per edge and the rest once per run of shared objects.
    Only the small dependency and sensing sections go through `json.dumps`.
    """
    text = _rational_texts()
    esc = _JSON_STR
    members = {
        "variant": esc(instance.variant.value),
        "s": esc(instance.s),
        "t": esc(instance.t),
        "vertices": _json_list(list(map(esc, instance.vertices))),
    }
    edges = []
    # a run of edges shares its cost, direction and chance objects, and so
    # the text that ends each of its edges
    last_cost = last_directed = last_p = object()
    for eid, tail, head, cost, directed, p in instance.edges:
        if (cost is not last_cost or p is not last_p
                or directed is not last_directed):
            last_cost, last_directed, last_p = cost, directed, p
            end = _JSON_EDGE_END % ("true" if directed else "false",
                                    text(cost._value), text(p))
        edges.append(f'{{\n      "id": {esc(eid)},\n      "tail": '
                     f'{esc(tail)},\n      "head": {esc(head)}{end}')
    members["edges"] = _json_list(edges)
    for key, value in _sections(instance, text).items():
        members[key] = json.dumps(value, indent=2).replace("\n", "\n  ")
    return "{\n" + ",\n".join(
        f"  {esc(key)}: {value}" for key, value in members.items()) + "\n}\n"


def load_json(text: str):
    """Parse a JSON document; malformed or too deeply nested is bad input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc


@_gc_paused()
def instance_from_json(text: str) -> CtpInstance:
    return instance_from_dict(load_json(text))


def save_instance(instance: CtpInstance, path: str | Path) -> None:
    Path(path).write_text(instance_to_json(instance), encoding="utf-8")


def load_instance(path: str | Path) -> CtpInstance:
    return instance_from_json(Path(path).read_text(encoding="utf-8"))


__all__ = [
    "BELIEF_CAP",
    "Belief",
    "ComponentTable",
    "Cost",
    "CtpInstance",
    "DependencyNet",
    "EdgeSpec",
    "EnumerationCapError",
    "InstanceBuilder",
    "InternalCheckError",
    "InvalidInstanceError",
    "JointModel",
    "NetVariable",
    "SensingEntry",
    "SensingSpec",
    "SplitMix64",
    "Variant",
    "Weather",
    "as_fraction",
    "build_joint",
    "format_rational",
    "instance_from_dict",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "load_json",
    "parse_cost",
    "parse_probability",
    "parse_rational",
    "require_type",
    "reveal_rule",
    "sample_weather",
    "save_instance",
    "times",
    "trial_counters",
    "validate_instance",
    "weather_support",
]
