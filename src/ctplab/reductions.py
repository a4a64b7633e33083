"""Hardness constructions built on the gadget library.

Three translations live here, together with the exact bookkeeping that
makes them checkable:

* `qbf_to_ctpdep` plays a quantified 3-CNF game on a directed graph whose
  edge statuses are correlated through a small dependency net. A winnable
  game makes walking the variable rows free, and an unwinnable one makes
  the direct fee edge the unique optimum.
* `qbf_to_ctp` plays the same game on an undirected graph with independent
  statuses, assembled from baiting and observation gadgets plus a guards
  section and an exam section. `certificate` produces the closed-form cost
  ledger whose fee sandwich B0 < h < B1 separates the two outcomes, and
  `_game_graph` also returns the everything-passes walk that D_pt prices.
* `vc_to_sensing` recasts a vertex-cover decision as a sensing walk in
  which buying remote coin statuses beats the default route exactly when
  a small cover exists.

`normalize_half_prob` rewrites any independent instance into the standard
form where every uncertain edge costs nothing and blocks with chance 1/2.
All arithmetic is exact rational arithmetic.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .gadgets import (
    build_baiting,
    build_observation,
    ceil_log2,
    detour_price,
    early_exit_expectation,
    observation_pass_cost,
    observation_pass_probability,
    pass_cost,
    pass_probability,
    second_chain_length,
    section_count,
)
from .model import (
    Cost,
    CtpInstance,
    InstanceBuilder,
    InternalCheckError,
    InvalidInstanceError,
    Variant,
    _gc_paused,
    as_fraction,
    format_rational,
    load_json,
    parse_rational,
    require_type,
)
from .policy import Action, Policy
from .solve import QbfFormula, qbf_strategy

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# certificates

def _parse_provenance(data: object) -> dict:
    if data is None:
        return {}
    return dict(require_type(data, dict, "provenance"))


def _json_codec(cls):
    """Give a certificate class `to_dict`/`from_dict`/`to_json`/`from_json`.

    Counts named in `_INTEGERS` travel as JSON integers, entries named in
    `_RATIONALS` as "num/den" strings, plus a free-form provenance object.
    The methods land in each class's own namespace, where the traced
    benchmark (`perfbench/tracing.py`) looks them up and patches them.
    """

    def to_dict(self) -> dict:
        data: dict = {name: getattr(self, name) for name in self._INTEGERS}
        for name in self._RATIONALS:
            data[name] = format_rational(getattr(self, name))
        data["provenance"] = dict(self.provenance)
        return data

    def from_dict(cls, data: dict):
        require_type(data, dict, "certificate")
        expected = set(cls._RATIONALS) | set(cls._INTEGERS) | {"provenance"}
        extra = set(data) - expected
        missing = (expected - {"provenance"}) - set(data)
        if extra or missing:
            raise InvalidInstanceError(
                f"bad certificate keys: extra {sorted(extra)}, "
                f"missing {sorted(missing)}")
        kwargs: dict = {}
        for name in cls._INTEGERS:
            kwargs[name] = require_type(data[name], int,
                                        f"certificate count {name!r}")
        for name in cls._RATIONALS:
            kwargs[name] = parse_rational(data[name])
        kwargs["provenance"] = _parse_provenance(data.get("provenance"))
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def from_json(cls, text: str):
        return cls.from_dict(load_json(text))

    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    cls.to_json = to_json
    cls.from_json = classmethod(from_json)
    return cls


@_json_codec
@dataclass(frozen=True)
class CtpReductionCertificate:
    """Closed-form cost ledger for one game-to-graph translation.

    The rational entries price the translation at size (n, m): the
    corridor length L, the guard blocking chance p1, the direct fee h,
    the everything-passes trip D_pt from the start vertex to the exam
    entrance, the expected spend D_st of the staged bail-out walk, the
    chance P_r0 of reaching the exam entrance without an open bait, the
    chance P_rt that the exam path is fully open, the fee sandwich
    B0 < h < B1, and the per-stage quantities q_st, w_st, z_st the
    staged walk folds over. The counts record the built graph.
    """

    n: int
    m: int
    L: Fraction
    p1: Fraction
    h: Fraction
    D_pt: Fraction
    D_st: Fraction
    P_r0: Fraction
    P_rt: Fraction
    B0: Fraction
    B1: Fraction
    q_st: Fraction
    w_st: Fraction
    z_st: Fraction
    vertex_count: int
    edge_count: int
    provenance: Mapping[str, object] = field(default_factory=dict)

    _RATIONALS = ("L", "p1", "h", "D_pt", "D_st", "P_r0", "P_rt",
                  "B0", "B1", "q_st", "w_st", "z_st")
    _INTEGERS = ("n", "m", "vertex_count", "edge_count")


@_json_codec
@dataclass(frozen=True)
class SensingCertificate:
    """Calibration record for one cover-to-sensing translation.

    eps is the blocking chance of each probe coin, C the fee of visiting
    one graph node, L the leader fee of the probe path, and alpha the
    slack parameter in (0, 1). The g entries bound the value of the three
    probing plans: g_ub is an upper bound on probing blind, g_prime_lb a
    positive lower bound on probing after buying all coins through a
    cover, and g_dprime_ub a negative upper bound when the budget cannot
    cover every coin.
    """

    eps: Fraction
    C: Fraction
    L: Fraction
    alpha: Fraction
    g_ub: Fraction
    g_prime_lb: Fraction
    g_dprime_ub: Fraction
    k: int
    coin_count: int
    provenance: Mapping[str, object] = field(default_factory=dict)

    _RATIONALS = ("eps", "C", "L", "alpha", "g_ub", "g_prime_lb",
                  "g_dprime_ub")
    _INTEGERS = ("k", "coin_count")


def _formula_digest(formula: QbfFormula) -> str:
    body = ";".join(",".join(str(lit) for lit in clause)
                    for clause in formula.clauses)
    return hashlib.sha256(f"{formula.n}|{body}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the dependent-status game graph

@dataclass(frozen=True)
class DepLayout:
    """What the walker reads of the dependent game graph of a formula.

    The walker starts at s, takes the enter edge to the first variable
    row, walks one side per variable, and arrives at the exam entrance.
    There it commits to the odd or the even room; the room's choice edge
    is open exactly when the number of open clause coins has the matching
    parity, and the flunk edge prices a wrong commitment. rows lists, per
    variable, its row vertex, true entry, false entry and whether it is
    universal. clause_members lists, per clause, the observation edges
    that share that clause's coin; every other observation edge is an
    independent decoy. The names outside the variable rows are the same
    for every formula.
    """

    rows: tuple[tuple[str, str, str, bool], ...]
    clause_members: tuple[tuple[str, ...], ...]

    enter_edge = "enter"
    exam_entry = "exam.r0"
    parity_rooms = ("exam.odd", "exam.even")
    parity_entries = ("exam.go.odd", "exam.go.even")
    choice_edges = ("exam.choice.odd", "exam.choice.even")
    flunk_edges = ("exam.flunk.odd", "exam.flunk.even")

    @cached_property
    def row_at(self) -> dict[str, int]:
        return {row[0]: k for k, row in enumerate(self.rows)}


def qbf_to_ctpdep(formula: QbfFormula,
                  h: Fraction | int | str | None = None,
                  ) -> tuple[CtpInstance, Fraction]:
    """Directed dependent-status instance playing the quantified game.

    Returns the instance and the fee h on the direct edge from s to t.
    With u universal variables, any walk into the variable rows costs at
    least 2^-(u+1) in expectation when the game is unwinnable, so h must
    lie strictly between 0 and that bound; the default is 2^-(u+2). A
    winnable game is walked for free, which makes the enter edge the
    unique optimal first move exactly when a winning plan exists.
    `_dep_game` also returns the walker's `DepLayout`.
    """
    instance, fee, _ = _dep_game(formula, h)
    return instance, fee


def _dep_game(formula: QbfFormula, h: Fraction | int | str | None,
              ) -> tuple[CtpInstance, Fraction, DepLayout]:
    """The instance and fee of `qbf_to_ctpdep`, plus the layout read off
    the edge ids the builder returned."""
    if formula.m == 0:
        raise InvalidInstanceError("the exam needs at least one clause")
    n, m = formula.n, formula.m
    universals = sum(1 for q in formula.quantifiers if q == "A")
    limit = Fraction(1, 1 << (universals + 1))
    fee = Fraction(1, 1 << (universals + 2)) if h is None else as_fraction(h)
    if not 0 < fee < limit:
        raise InvalidInstanceError(
            f"the direct fee must lie strictly between 0 and {limit}, "
            f"got {fee}")

    lay = DepLayout
    builder = InstanceBuilder(Variant.DEPENDENT)
    builder.set_endpoints("s", "t")
    builder.add_edge("s", "t", fee, id="default", directed=True)
    builder.add_edge("s", "x1", 0, id=lay.enter_edge, directed=True)
    rows = []
    # each literal's observation edge per clause, in building order
    slots: dict[tuple[int, int], str] = {}
    for i, quantifier in enumerate(formula.quantifiers, start=1):
        universal = quantifier == "A"
        block = HALF if universal else Fraction(0)
        entry, out = f"x{i}", f"x{i}.out"
        paths = [[f"x{i}.{tag}{l}" for l in range(1, m + 1)] + [out]
                 for tag in "tf"]
        true_entry, false_entry = (
            builder.add_edge(entry, path[0], 0, id=f"x{i}.{side}",
                             directed=True, block_p=block)
            for path, side in zip(paths, ("true", "false")))
        rows.append((entry, true_entry, false_entry, universal))
        for path, tag, sign in zip(paths, "tf", (1, -1)):
            for l in range(1, m + 1):
                builder.add_edge(path[l - 1], path[l], 0,
                                 id=f"x{i}.{tag}.step{l}" if l < m
                                 else f"x{i}.{tag}.done", directed=True)
            for l in range(1, m + 1):
                slots[sign * i, l] = builder.add_edge(
                    f"{entry}.o{tag}{l}", path[l - 1], 0,
                    id=f"x{i}.obs.{tag}{l}", directed=True, block_p=HALF)
        builder.add_edge(out, f"x{i + 1}" if i < n else lay.exam_entry, 0,
                         id=f"x{i}.next", directed=True)
    for which, side in enumerate(("odd", "even")):
        room = lay.parity_rooms[which]
        far = f"{room}.far"
        builder.add_edge(lay.exam_entry, room, 0,
                         id=lay.parity_entries[which], directed=True)
        builder.add_edge(room, far, 0, id=lay.choice_edges[which],
                         directed=True, block_p=HALF)
        builder.add_edge(far, "t", 0, id=f"exam.exit.{side}", directed=True)
        builder.add_edge(room, "t", 1, id=lay.flunk_edges[which],
                         directed=True)
    # a repeated literal shares its clause's one slot
    members = tuple(tuple(dict.fromkeys(slots[lit, l] for lit in clause))
                    for l, clause in enumerate(formula.clauses, start=1))

    # The net. Row r of a table reads the parents low bit first, and
    # value 1 means blocked.
    for _, true_entry, false_entry, universal in rows:
        if universal:
            builder.add_variable(true_entry, (), (HALF,))
            # blocked exactly when the sibling entry is open
            builder.add_variable(false_entry, (true_entry,), (1, 0))
    member_ids = {eid for ids in members for eid in ids}
    roots = []
    for ids in members:
        root = ids[0]
        builder.add_variable(root, (), (HALF,))
        for other in ids[1:]:
            # a straight copy of the clause coin
            builder.add_variable(other, (root,), (0, 1))
        roots.append(root)
    for eid in slots.values():
        if eid not in member_ids:
            builder.add_variable(eid, (), (HALF,))
    previous = None
    for l, root in enumerate(roots, start=1):
        aux = f"exam.parity.{l}"
        if previous is None:
            # one open coin so far is odd
            builder.add_variable(aux, (root,), (1, 0))
        else:
            # odd count so far, updated by whether this coin is open
            builder.add_variable(aux, (previous, root), (1, 0, 0, 1))
        previous = aux
    builder.add_variable(lay.choice_edges[0], (previous,), (1, 0))
    builder.add_variable(lay.choice_edges[1], (previous,), (0, 1))
    return builder.build(), fee, DepLayout(tuple(rows), members)


def assignment_walk_policy(formula: QbfFormula) -> AssignmentWalkPolicy:
    """Walker for the dependent game graph following a winning plan."""
    plan = qbf_strategy(formula)
    if plan is None:
        raise InvalidInstanceError(
            "the game has no winning plan, so there is no free walk")
    return AssignmentWalkPolicy(_dep_game(formula, None)[2], plan)


@dataclass(frozen=True)
class AssignmentWalkPolicy(Policy):
    """Play a fixed existential plan through the dependent game graph.

    At each row the walk reads the values of every variable up to and
    including this one, and takes the entry of the last. A universal
    row's value comes from its entry pair, visible on arrival with
    exactly one entry open, so the walk there is forced; an existential
    row's value is the plan's choice under the values before it. On a
    vertex with a single way out (a row's path, its link, a far room)
    the walk takes it. At the exam entrance the walk counts the clause
    coins it has seen open and commits to the room of matching parity;
    unseen coins count as blocked, which never happens under a winning
    plan. A blocked choice edge falls back to the flunk edge so the walk
    stays total off plan.
    """

    layout: DepLayout
    plan: Mapping[tuple[bool, ...], bool]

    def _values_through(self, count: int,
                        belief) -> tuple[bool, ...] | None:
        """Values of the first `count` variables, None if the plan leaves
        one open. Every row up to `count` has been walked, so each
        universal row's entries have been seen."""
        values: list[bool] = []
        for _, true_entry, _, universal in self.layout.rows[:count]:
            if universal:
                values.append(bool(belief.status(true_entry)))
            else:
                choice = self.plan.get(tuple(values))
                if choice is None:
                    return None
                values.append(choice)
        return tuple(values)

    def decide(self, instance: CtpInstance, belief) -> Action | None:
        lay = self.layout
        pos = belief.position
        if pos == instance.t:
            return Action.halt()
        if pos == instance.s:
            return Action.move(lay.enter_edge)
        k = lay.row_at.get(pos)
        if k is not None:
            values = self._values_through(k + 1, belief)
            if values is None:
                return None
            _, true_entry, false_entry, _ = lay.rows[k]
            return Action.move(true_entry if values[-1] else false_entry)
        moves = instance.moves_from(pos)
        if len(moves) == 1:
            return Action.move(next(iter(moves)))
        if pos == lay.exam_entry:
            # a clause's members share its coin, so one seen open opens it
            odd = sum(any(belief.status(eid) for eid in ids)
                      for ids in lay.clause_members) % 2
            return Action.move(lay.parity_entries[0 if odd else 1])
        if pos in lay.parity_rooms:
            which = lay.parity_rooms.index(pos)
            if belief.status(lay.choice_edges[which]) is True:
                return Action.move(lay.choice_edges[which])
            return Action.move(lay.flunk_edges[which])
        return None


# ---------------------------------------------------------------------------
# the independent-status game graph and its certificate

def _folded_mass(mass: Fraction, passing: Fraction, walk: Fraction,
                 copies: int) -> Fraction:
    """Chain fold that charges a full walk to all continuing mass."""
    acc = mass
    for _ in range(1, copies):
        acc = mass + passing * (walk + acc)
    return acc


def _construction_counts(n: int, m: int, L: Fraction,
                         merged: int) -> tuple[int, int]:
    """Vertex and edge counts of the undirected game graph.

    `merged` counts the observation slots whose vertex lands on an exam
    row instead of standing alone; merging never changes the edge count.
    """
    n_first = section_count(L)
    n_second = section_count(second_chain_length(L))
    og_vertices = 5 + 2 * n_first + n_second
    og_edges = 4 * n_first + 2 * n_second + 14
    corridor_edges = 2 * n_first + 3
    vertices = (2
                + n * (2 + 4 * m + 2 * m * og_vertices)
                + (2 * n * m - merged)
                + (n - 1) * n_first
                + 2 + (m + 2) * n_first
                + 1 + 5 * (m + 1))
    edges = (2
             + n * (2 + 2 * m * og_edges + 2 * m)
             + (n - 1) * corridor_edges
             + 1
             + (m + 2) * corridor_edges
             + 1
             + 5 * (m + 1) + 2)
    return vertices, edges


def certificate(n: int, m: int) -> CtpReductionCertificate:
    """Closed-form cost ledger for the undirected game graph at (n, m).

    Requires n even and at least 2, and m at least 1. The counts assume
    every observation slot stands alone; `qbf_to_ctp` replaces them with
    the counts of the graph it actually built. Raises InternalCheckError,
    quoting all three values, if the fee sandwich B0 < h < B1 fails.
    """
    if n < 2 or n % 2:
        raise InvalidInstanceError(f"n must be even and at least 2, got {n}")
    if m < 1:
        raise InvalidInstanceError(f"m must be at least 1, got {m}")
    L = Fraction(8 * m + 16)
    half_n = n // 2
    n_first = section_count(L)
    n_second = section_count(second_chain_length(L))
    spur = detour_price(L)
    p1 = 1 - Fraction(1, 1 << ceil_log2((3 * L + 1) / 2))
    q_b = pass_probability(L)
    w1_b = pass_cost(L)
    w2_b = early_exit_expectation(L)
    w2_b2 = early_exit_expectation(second_chain_length(L))
    # stopping mass of one observation gadget, priced corridor by corridor
    w2_og1 = w2_b + q_b * (w1_b + q_b * (
        w2_b2
        + Fraction(1, 1 << (n_first + n_second)) * second_chain_length(L)
        + Fraction(1, 1 << (n_first + n_second + 4))
        * (2 * spur + 1 + w2_b)))
    q_og = observation_pass_probability(L)
    w1_og = observation_pass_cost(L)
    q_ogm = q_og ** m
    w1_ogm = observation_pass_cost(L, m)
    w2_ogm = _folded_mass(w2_og1, q_og, w1_og, m)
    # one stage is a corridor, a universal row, a corridor, and an
    # existential row; the 3/4 is the chance that a universal entry pair
    # does not dead-end
    q_st = q_b * Fraction(3, 4) * q_ogm * q_b * q_ogm
    w_st = 2 * L + 4 + 2 * m * w1_og
    P_r0 = q_st ** half_n * pass_probability(L, m + 2)
    P_rt = (1 - p1) ** (3 * m + 2)
    z_st = w2_b + q_b * (w1_b + Fraction(1, 4) * L + Fraction(3, 4) * (
        1 + w2_ogm + q_ogm * (
            w1_ogm + 1 + w2_b + q_b * (
                w1_b + 1 + w2_ogm + q_ogm + 1))))
    stage_total = z_st + q_st * w_st
    staged = stage_total
    for _ in range(1, half_n):
        staged = stage_total + q_st * staged
    D_st = staged + q_st ** half_n * _folded_mass(w2_b, q_b, w1_b, m + 1)
    D_pt = 1 + n * (2 + m * (19 * L + 4) / 4) + (n + m + 1) * L
    exam_leg = P_rt * 2 * (m + 1) + (1 - P_rt) * L
    B0 = D_st + P_r0 * (D_pt + exam_leg)
    lost = Fraction(1, 3 ** half_n)
    B1 = D_st + P_r0 * (D_pt + lost * L + (1 - lost) * exam_leg)
    h = B0 + Fraction(1, 4 ** half_n) * m * P_rt * P_r0
    if not B0 < h < B1:
        raise InternalCheckError(
            "the fee sandwich failed: "
            f"B0 = {format_rational(B0)}, h = {format_rational(h)}, "
            f"B1 = {format_rational(B1)}")
    v_count, e_count = _construction_counts(n, m, L, 0)
    return CtpReductionCertificate(
        n=n, m=m, L=L, p1=p1, h=h, D_pt=D_pt, D_st=D_st, P_r0=P_r0,
        P_rt=P_rt, B0=B0, B1=B1, q_st=q_st, w_st=w_st, z_st=z_st,
        vertex_count=v_count, edge_count=e_count,
        provenance={"kind": "closed-form", "n": n, "m": m})


def qbf_to_ctp(formula: QbfFormula,
               ) -> tuple[CtpInstance, CtpReductionCertificate]:
    """Undirected independent-status instance playing the quantified game.

    Variable rows alternate universal and existential starting universal.
    When the formula has an odd number of variables, one trailing
    existential variable that appears in no clause pads the row count to
    even; the certificate records the padding. Each side of a variable
    row chains one observation gadget per clause, and an observation slot
    lands on the fifth vertex of that clause's exam row exactly when the
    matching literal sits in the clause. The guard corridors thread the
    second vertex of every exam row, and their final junction pays a unit
    edge into the exam entrance. `_game_graph` also returns its trip.
    """
    instance, cert, _ = _game_graph(formula)
    return instance, cert


@_gc_paused()
def _game_graph(formula: QbfFormula) -> tuple[
        CtpInstance, CtpReductionCertificate, tuple[str, ...]]:
    """The graph and certificate of `qbf_to_ctp`, plus the reference trip:
    the everything-passes walk from s to the exam entrance, which takes
    the true side of every variable row, runs the full loop of each
    observation gadget and crosses every corridor end to end. Its ids are
    the ones the builders returned, and its cost is the certificate's
    D_pt."""
    if formula.m == 0:
        raise InvalidInstanceError("the exam needs at least one clause")
    n, m = formula.n, formula.m
    padded = n % 2 == 1
    total = n + 1 if padded else n
    cert = certificate(total, m)
    L = cert.L
    p1 = cert.p1

    builder = InstanceBuilder(Variant.INDEPENDENT)
    builder.set_endpoints("s", "t")
    builder.add_edge("s", "t", cert.h, id="default")

    # exam section: one row per clause plus a sure final row
    rows = [[f"exam.c{i}.r{j}" for j in range(1, 6)]
            for i in range(1, m + 2)]
    builder.add_vertex("exam.r0")
    for row in rows:
        for vertex in row:
            builder.add_vertex(vertex)
    builder.add_edge("exam.r0", "t", L, id="exam.skip")
    builder.add_edge("exam.r0", rows[0][0], 1, id="exam.start")
    for i in range(1, m + 2):
        row = rows[i - 1]
        builder.add_edge(row[0], row[1], 0, id=f"exam.c{i}.guard1",
                         block_p=p1)
        builder.add_edge(row[1], row[2], 0, id=f"exam.c{i}.guard2",
                         block_p=p1)
        builder.add_edge(row[2], row[3], 1, id=f"exam.c{i}.mid")
        builder.add_edge(row[3], row[4], 0, id=f"exam.c{i}.clause",
                         block_p=p1 if i <= m else Fraction(0))
        if i <= m:
            builder.add_edge(row[4], rows[i][0], 1, id=f"exam.c{i}.next")
        else:
            builder.add_edge(row[4], "t", 0, id="exam.finish")

    # guards section: corridors strung through the second vertex of
    # every exam row
    junctions = (["guards.z0"]
                 + [rows[i][1] for i in range(m + 1)]
                 + ["guards.zend"])
    guard_trip: list[str] = []
    for k in range(m + 2):
        guard_trip += build_baiting(builder, junctions[k], junctions[k + 1],
                                    "t", L, f"guards.bg{k}").path_edges
    guard_trip.append(
        builder.add_edge("guards.zend", "exam.r0", 1, id="guards.exit"))

    # variable section; the trip walks the true side of every row
    clause_sets = [frozenset(clause) for clause in formula.clauses]
    merged = 0
    trip = [builder.add_edge("s", "x1", 0, id="enter")]
    for i in range(1, total + 1):
        universal = i % 2 == 1
        entry = f"x{i}"
        out = f"x{i}.out"
        block = HALF if universal else Fraction(0)
        trip.append(builder.add_edge(entry, f"x{i}.t1", 1, id=f"x{i}.true",
                                     block_p=block))
        builder.add_edge(entry, f"x{i}.f1", 1, id=f"x{i}.false",
                         block_p=block)
        for tag, sign, side in (("t", 1, trip), ("f", -1, [])):
            for j in range(1, m + 1):
                member = i <= n and sign * i in clause_sets[j - 1]
                if member:
                    obs = rows[j - 1][4]
                    merged += 1
                else:
                    obs = f"x{i}.{tag}{j}.obs"
                og = build_observation(builder, f"x{i}.{tag}{j}",
                                       f"x{i}.{tag}{j}.out", obs, "t", L,
                                       f"x{i}.{tag}{j}.og")
                side += (*og.first.path_edges, *og.second.path_edges,
                         og.blocker_out, og.spur_out, og.spur_in,
                         og.blocker_in, og.sneak, *og.third.path_edges)
                if j < m:
                    side.append(builder.add_edge(
                        f"x{i}.{tag}{j}.out", f"x{i}.{tag}{j + 1}", 0,
                        id=f"x{i}.{tag}.link{j}"))
            side.append(builder.add_edge(f"x{i}.{tag}{m}.out", out, 1,
                                         id=f"x{i}.{tag}.close"))
        if i < total:
            trip += build_baiting(builder, out, f"x{i + 1}", "t", L,
                                  f"x{i}.bridge").path_edges
    trip.append(builder.add_edge(f"x{total}.out", "guards.z0", 0,
                                 id="guards.enter"))

    instance = builder.build()
    expect = _construction_counts(total, m, L, merged)
    if (len(instance.vertices), len(instance.edges)) != expect:
        raise InternalCheckError(
            f"game graph misses the ledger's {expect} vertices and edges")
    cert = replace(
        cert,
        vertex_count=len(instance.vertices),
        edge_count=len(instance.edges),
        provenance={
            "kind": "game-graph",
            "source_variables": n,
            "n": total,
            "m": m,
            "padded": padded,
            "merged_observation_slots": merged,
            "formula_sha256": _formula_digest(formula),
        })
    return instance, cert, (*trip, *guard_trip)


# ---------------------------------------------------------------------------
# normal form

def normalize_half_prob(instance: CtpInstance) -> CtpInstance:
    """Rewrite an independent instance so every uncertain edge is a fair coin.

    The output blocks every uncertain edge with chance exactly 1/2 at
    cost 0 and has the same optimal expected cost. A positive-cost
    uncertain edge splits into a coin followed by a sure fee edge. A
    blocking chance 1/2^z becomes z parallel branches that must all
    block, 1 - 1/2^z becomes z coins in series that must all open, and
    any other dyadic chance peels one coin at a time. Exploring the
    rewritten pieces is free and reversible, so the walker can always
    recover exactly the status the original edge would have shown.
    Non-dyadic chances have no finite coin expansion and are refused, as
    are directed uncertain edges away from chance 1/2, whose rewritten
    interior could trap the walker.
    """
    if instance.variant is not Variant.INDEPENDENT:
        raise InvalidInstanceError(
            "the normal form needs independent statuses, got "
            f"{instance.variant.value}")
    builder = InstanceBuilder(Variant.INDEPENDENT)
    for vertex in instance.vertices:
        builder.add_vertex(vertex)
    builder.set_endpoints(instance.s, instance.t)
    for e in instance.edges:
        if not e.uncertain:
            builder.add_edge(e.tail, e.head, e.cost, id=e.id,
                             directed=e.directed)
            continue
        p = e.block_p
        if p.denominator & (p.denominator - 1):
            raise InvalidInstanceError(
                f"edge {e.id!r} blocks with chance {p}; only dyadic "
                "chances have a coin expansion")
        if e.directed and p != HALF:
            raise InvalidInstanceError(
                f"edge {e.id!r} is directed and blocks with chance {p}; "
                "its expansion would hide the interior mid-crossing, so "
                "only chance 1/2 is supported on directed edges")
        if p == HALF and e.cost.fraction == 0:
            builder.add_edge(e.tail, e.head, 0, id=e.id,
                             directed=e.directed, block_p=HALF)
            continue
        target = e.head
        if e.cost.fraction > 0:
            target = builder.add_vertex(f"{e.id}.post")
            builder.add_edge(target, e.head, e.cost, id=f"{e.id}.fee",
                             directed=e.directed)
        _expand_coin(builder, e.tail, target, p, e.id, e.directed)
    return builder.build()


def _expand_coin(builder: InstanceBuilder, tail: str, head: str,
                 p: Fraction, label: str, directed: bool) -> None:
    if p == HALF:
        builder.add_edge(tail, head, 0, id=f"{label}.flip",
                         directed=directed, block_p=HALF)
        return
    num, den = p.numerator, p.denominator
    z = den.bit_length() - 1
    if num == 1:
        # blocked only when every parallel branch blocks
        for k in range(1, z + 1):
            mid = builder.add_vertex(f"{label}.b{k}")
            builder.add_edge(tail, mid, 0, id=f"{label}.flip{k}",
                             block_p=HALF)
            builder.add_edge(mid, head, 0, id=f"{label}.land{k}")
        return
    if (1 - p).numerator == 1:
        # open only when every series coin opens
        stops = ([tail]
                 + [builder.add_vertex(f"{label}.n{k}")
                    for k in range(1, z)]
                 + [head])
        for k in range(z):
            builder.add_edge(stops[k], stops[k + 1], 0,
                             id=f"{label}.flip{k + 1}", block_p=HALF)
        return
    if p > HALF:
        # open only when one coin and the remainder both open
        mid = builder.add_vertex(f"{label}.s")
        builder.add_edge(tail, mid, 0, id=f"{label}.flip.s", block_p=HALF)
        _expand_coin(builder, mid, head, 2 * p - 1, f"{label}.s", False)
    else:
        # blocked only when one branch and the remainder both block
        mid = builder.add_vertex(f"{label}.p")
        builder.add_edge(tail, mid, 0, id=f"{label}.flip.p", block_p=HALF)
        builder.add_edge(mid, head, 0, id=f"{label}.land.p")
        _expand_coin(builder, tail, head, 2 * p, f"{label}.p", False)


# ---------------------------------------------------------------------------
# vertex cover as a sensing walk

@dataclass(frozen=True)
class VcInstance:
    """Undirected simple graph plus a cover budget k."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    k: int

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInstanceError("duplicate graph vertex")
        vertex_set = set(self.vertices)
        seen: set[frozenset[str]] = set()
        for edge in self.edges:
            if len(edge) != 2:
                raise InvalidInstanceError(f"bad graph edge {edge!r}")
            u, v = edge
            if u == v:
                raise InvalidInstanceError(f"graph edge {edge!r} is a loop")
            if u not in vertex_set or v not in vertex_set:
                raise InvalidInstanceError(
                    f"graph edge {edge!r} leaves the vertex set")
            key = frozenset(edge)
            if key in seen:
                raise InvalidInstanceError(f"duplicate graph edge {edge!r}")
            seen.add(key)
        if not 0 <= self.k <= len(self.vertices):
            raise InvalidInstanceError(
                f"cover budget must lie in [0, {len(self.vertices)}], "
                f"got {self.k}")

    @staticmethod
    def of(vertices, edges, k: int) -> VcInstance:
        return VcInstance(tuple(vertices),
                          tuple(tuple(edge) for edge in edges), int(k))


_NAMED_GRAPHS = {
    "k3": (("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c"))),
    "p3": (("a", "b", "c"), (("a", "b"), ("b", "c"))),
}


def named_vc(name: str, k: int) -> VcInstance:
    """Builtin graphs for quick checks: the triangle k3 and the path p3."""
    try:
        vertices, edges = _NAMED_GRAPHS[name]
    except KeyError:
        known = ", ".join(sorted(_NAMED_GRAPHS))
        raise InvalidInstanceError(
            f"unknown graph {name!r}; known: {known}") from None
    return VcInstance(vertices, edges, k)


def has_vertex_cover(vc: VcInstance) -> bool:
    """Brute-force test for a cover of at most `vc.k` vertices."""
    for combo in itertools.combinations(vc.vertices, vc.k):
        chosen = set(combo)
        if all(u in chosen or v in chosen for u, v in vc.edges):
            return True
    return False


def _largest_dyadic_blocking(coin_count: int, target: Fraction) -> Fraction:
    """Largest j / 2^32 whose all-open chance still reaches `target`."""
    scale = 1 << 32

    def reaches(j: int) -> bool:
        return Fraction(scale - j, scale) ** coin_count >= target

    if not reaches(1):
        raise InvalidInstanceError(
            "no positive blocking chance keeps the all-open floor "
            f"{target} over {coin_count} coins")
    lo, hi = 1, scale - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reaches(mid):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


def vc_to_sensing(vc: VcInstance, alpha: Fraction | int | str,
                  ) -> tuple[CtpInstance, SensingCertificate]:
    """Sensing instance in which cheap probing needs a small vertex cover.

    The default edge from s to t costs 4. One probe path of zero-cost
    coins, one per graph edge, leads to a post that can sense the payoff
    edge for free; the payoff route costs 2 and its final edge is open
    with chance 1/2, worth exactly 1 in saved expectation when its status
    is known. Each graph vertex becomes a node reachable for the fee C
    that senses its incident coins for free. The blocking chance eps is
    the largest multiple of 2^-32 that keeps the all-open chance of the
    probe path at least (k + 1 - alpha) / (k + 1), and C is tuned so
    learning every coin through at most k node visits is profitable
    (g_prime_lb > 0) while k + 1 visits are not (g_dprime_ub < 0).
    """
    a = as_fraction(alpha)
    if not 0 < a < 1:
        raise InvalidInstanceError(
            f"alpha must lie strictly between 0 and 1, got {a}")
    coin_count = len(vc.edges)
    if coin_count == 0:
        raise InvalidInstanceError("the graph needs at least one edge")
    k = vc.k
    target = Fraction(k + 1 - a, k + 1)
    eps = _largest_dyadic_blocking(coin_count, target)
    open_all = (1 - eps) ** coin_count
    denom = 2 * k + 1 - a
    visit_fee = eps * open_all / (2 * denom)
    leader_fee = HALF - eps / 4

    builder = InstanceBuilder(Variant.SENSING)
    builder.set_endpoints("s", "t")
    builder.add_edge("s", "t", 4, id="default")
    for v in vc.vertices:
        builder.add_edge("s", f"node.{v}", visit_fee, id=f"visit.{v}")
        builder.add_edge(f"node.{v}", "t", Cost.infinite(),
                         id=f"anchor.{v}")
    builder.add_edge("s", "probe.0", leader_fee, id="leader")
    for j in range(coin_count):
        builder.add_edge(f"probe.{j}", f"probe.{j + 1}", 0,
                         id=f"coin.{j}", block_p=eps)
    builder.add_edge(f"probe.{coin_count}", "t", Cost.infinite(),
                     id="anchor.probe")
    builder.add_edge("s", "x", 2, id="stem")
    builder.add_edge("x", "t", 0, id="payoff", block_p=HALF)
    for j, (u, v) in enumerate(vc.edges):
        builder.add_sensing(f"node.{u}", f"coin.{j}", 0)
        builder.add_sensing(f"node.{v}", f"coin.{j}", 0)
    builder.add_sensing(f"probe.{coin_count}", "payoff", 0)
    instance = builder.build()

    digest = hashlib.sha256(
        (",".join(vc.vertices) + "|"
         + ";".join(f"{u},{v}" for u, v in vc.edges)
         + f"|{vc.k}").encode()).hexdigest()[:16]
    cert = SensingCertificate(
        eps=eps,
        C=visit_fee,
        L=leader_fee,
        alpha=a,
        g_ub=-eps / 2,
        g_prime_lb=eps * open_all * (HALF - Fraction(k) / denom),
        g_dprime_ub=eps * open_all * (HALF - (k + 1 - a) / denom),
        k=k,
        coin_count=coin_count,
        provenance={
            "kind": "cover-sensing",
            "nodes": len(vc.vertices),
            "edges": coin_count,
            "k": k,
            "graph_sha256": digest,
        })
    return instance, cert


@dataclass(frozen=True)
class CoverSensingPolicy(Policy):
    """Buy every coin status through a fixed node set, then probe.

    The walk visits each listed node whose incident coins are still
    unknown, senses them for free, and returns. If every coin is then
    known open it walks the probe path, senses the payoff edge at the
    post, walks back, and takes the payoff route when it is open. In
    every other case it takes the default edge. When the listed nodes
    cover every graph edge the walk learns all coin statuses; otherwise
    the unknown coins count as not open and the walk defaults.
    """

    vc: VcInstance
    cover: tuple[str, ...]

    def __post_init__(self) -> None:
        vertex_set = set(self.vc.vertices)
        for v in self.cover:
            if v not in vertex_set:
                raise InvalidInstanceError(
                    f"cover names {v!r}, which is not a graph vertex")

    @cached_property
    def _incident(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {v: [] for v in self.vc.vertices}
        for j, (u, v) in enumerate(self.vc.edges):
            table[u].append(f"coin.{j}")
            table[v].append(f"coin.{j}")
        return {v: tuple(ids) for v, ids in table.items()}

    @cached_property
    def _coins(self) -> tuple[str, ...]:
        return tuple(f"coin.{j}" for j in range(len(self.vc.edges)))

    def decide(self, instance: CtpInstance, belief) -> Action | None:
        pos = belief.position
        if pos == instance.t:
            return Action.halt()
        post = f"probe.{len(self.vc.edges)}"
        if pos == instance.s:
            for v in self.cover:
                if any(belief.status(c) is None for c in self._incident[v]):
                    return Action.move(f"visit.{v}")
            if any(belief.status(c) is not True for c in self._coins):
                return Action.move("default")
            payoff = belief.status("payoff")
            if payoff is None:
                return Action.move("leader")
            if payoff:
                return Action.move("stem")
            return Action.move("default")
        if pos.startswith("node."):
            name = pos[len("node."):]
            for c in self._incident[name]:
                if belief.status(c) is None:
                    return Action.sense(c)
            return Action.move(f"visit.{name}")
        if pos.startswith("probe."):
            j = int(pos[len("probe."):])
            if belief.status("payoff") is None:
                if pos == post:
                    return Action.sense("payoff")
                return Action.move(f"coin.{j}")
            if j == 0:
                return Action.move("leader")
            return Action.move(f"coin.{j - 1}")
        if pos == "x":
            return Action.move("payoff")
        return None


__all__ = [
    "AssignmentWalkPolicy",
    "CoverSensingPolicy",
    "CtpReductionCertificate",
    "DepLayout",
    "SensingCertificate",
    "VcInstance",
    "assignment_walk_policy",
    "certificate",
    "has_vertex_cover",
    "named_vc",
    "normalize_half_prob",
    "qbf_to_ctp",
    "qbf_to_ctpdep",
    "vc_to_sensing",
]
