"""Baiting and observation gadgets with their closed-form cost accounting.

A baiting gadget stretches a length-L corridor between `entry` and `exit`
into N + 1 equal sections. Every interior junction offers a free shortcut to
the sink that is blocked half the time, and both ends keep a sure length-L
shortcut. N is tuned so that walking in is always worth one more look: the
walker who starts the corridor should finish it, yet anyone who completes it
has spent L while holding, with overwhelming probability, a free ride out
somewhere behind them.

An observation gadget wraps three baiting chains around a detour through a
designated observation vertex, so the rare walker who survives every bait is
forced to stand where the construction wants extra information revealed.

Cost bookkeeping for a gadget G splits the reference forward policy into
  cost = early_exit + pass_probability * (pass_cost + charge)
where `charge` is whatever finishing past `exit` costs. The helpers below
give each factor exactly, plus the fold that extends them to chains of
copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Cost, CtpInstance, InstanceBuilder, Variant, as_fraction

HALF = Fraction(1, 2)


class GadgetParameterError(ValueError):
    """A gadget was asked for with parameters outside its valid range."""


def ceil_log2(value: Fraction | int) -> int:
    """Smallest z >= 0 with 2**z >= value."""
    x = as_fraction(value)
    if x <= 0:
        raise GadgetParameterError(f"ceil_log2 needs a positive value, got {x}")
    z = 0
    power = Fraction(1)
    while power < x:
        power *= 2
        z += 1
    return z


def section_count(length: Fraction | int) -> int:
    """Number of interior junctions N for corridor length L."""
    span = as_fraction(length)
    if span <= 1:
        raise GadgetParameterError(f"corridor length must exceed 1, got {span}")
    return (1 << ceil_log2(4 * span)) - 1


def section_length(length: Fraction | int) -> Fraction:
    by = as_fraction(length)
    return by / (section_count(by) + 1)


# ---------------------------------------------------------------------------
# closed forms for one baiting gadget

def pass_probability(length: Fraction | int, copies: int = 1) -> Fraction:
    """Chance that a chain of `copies` gadgets never opens a shortcut."""
    n = section_count(length)
    return Fraction(1, 1 << (copies * n))


def pass_cost(length: Fraction | int, copies: int = 1) -> Fraction:
    """Distance walked when every bait stays shut."""
    return as_fraction(length) * copies


def forward_policy_cost(length: Fraction | int,
                        charge: Fraction | int) -> Fraction:
    """Expected cost of walking the corridor, taking the first open shortcut,
    and paying `charge` to finish when none opens."""
    span = as_fraction(length)
    fee = as_fraction(charge)
    if not 0 <= fee <= span:
        raise GadgetParameterError(
            f"terminal charge must lie in [0, {span}], got {fee}")
    n = section_count(span)
    return (2 * span / (n + 1)) * (1 - Fraction(1, 1 << (n + 1))) \
        + Fraction(1, 1 << n) * fee


def bailout_policy_cost(length: Fraction | int, rounds: int,
                        fallback: Fraction | int) -> Fraction:
    """Expected cost of giving up after `rounds` shut baits.

    The walker probes junctions 1..rounds, and if all their shortcuts are
    blocked walks back to `entry` and pays `fallback` to leave.
    """
    span = as_fraction(length)
    out = as_fraction(fallback)
    n = section_count(span)
    if not 1 <= rounds <= n:
        raise GadgetParameterError(
            f"rounds must lie in [1, {n}], got {rounds}")
    tail = Fraction(1, 1 << rounds)
    return (2 * span / (n + 1)) * (1 - tail) \
        + tail * rounds * span / (n + 1) + tail * out


def early_exit_expectation(length: Fraction | int) -> Fraction:
    """Expected spend on the runs that leave through an open shortcut."""
    span = as_fraction(length)
    n = section_count(span)
    return (2 * span / (n + 1)) * (1 - Fraction(1, 1 << (n + 1))) \
        - Fraction(1, 1 << n) * span


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
        raise GadgetParameterError("need at least one copy")
    acc = early_exit
    for k in range(2, copies + 1):
        acc = early_exit + passing * (
            (1 - passing ** (k - 1)) * walk + acc)
    return acc


def bailout_gap(length: Fraction | int, rounds: int) -> Fraction:
    """How much worse giving up after `rounds` baits is than pressing on,
    when both the fallback and the terminal charge cost the corridor length."""
    span = as_fraction(length)
    return bailout_policy_cost(span, rounds, span) - forward_policy_cost(span, span)


# ---------------------------------------------------------------------------
# closed forms for one observation gadget

def second_chain_length(length: Fraction | int) -> Fraction:
    return as_fraction(length) * Fraction(3, 2)


def detour_price(length: Fraction | int) -> Fraction:
    """Cost of each spur between the detour posts and the observation vertex."""
    return as_fraction(length) * Fraction(5, 8)


def observation_pass_probability(length: Fraction | int,
                                 copies: int = 1) -> Fraction:
    n = section_count(length)
    n_second = section_count(second_chain_length(length))
    return Fraction(1, 1 << (copies * (2 * n + n_second + 4)))


def observation_pass_cost(length: Fraction | int, copies: int = 1) -> Fraction:
    span = as_fraction(length)
    return copies * (19 * span + 4) / 4


def observation_early_exit_expectation(length: Fraction | int) -> Fraction:
    """Early-exit mass of the reference walk through one observation gadget.

    The reference walk chains both leading corridors, bails at the far gate
    unless both detour blockers are open (their statuses are visible from
    the gates), then runs the detour, sneaks across, and walks the last
    corridor the same way.
    """
    span = as_fraction(length)
    n = section_count(span)
    n_second = section_count(second_chain_length(span))
    spur = detour_price(span)
    first = early_exit_expectation(span)
    second = early_exit_expectation(second_chain_length(span))
    out = first
    out += Fraction(1, 1 << n) * (
        (1 - Fraction(1, 1 << n_second)) * span + second)
    out += Fraction(1, 1 << (n + n_second)) * Fraction(15, 16) * 4 * span
    out += Fraction(1, 1 << (n + n_second + 4)) * (
        (1 - Fraction(1, 1 << n)) * (Fraction(5, 2) * span + 2 * spur + 1)
        + first)
    return out


# ---------------------------------------------------------------------------
# builders

@dataclass(frozen=True)
class BaitingHandle:
    """Names of everything one baiting gadget put into a builder."""

    entry: str
    exit: str
    sink: str
    length: Fraction
    sections: tuple[str, ...]
    path_edges: tuple[str, ...]
    cut_edges: tuple[str, ...]
    entry_shortcut: str
    exit_shortcut: str

    @property
    def n(self) -> int:
        return len(self.sections)


def build_baiting(builder: InstanceBuilder, entry: str, exit: str, sink: str,
                  length: Fraction | int, prefix: str) -> BaitingHandle:
    """Add one baiting gadget between `entry` and `exit` to `builder`."""
    span = as_fraction(length)
    n = section_count(span)
    step = Cost.of(span / (n + 1))  # one shared Cost for every path edge
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
                         id=f"{prefix}.cut{i:03d}", block_p=HALF)
        for i in range(1, n + 1))
    entry_shortcut = builder.add_edge(entry, sink, span, id=f"{prefix}.exit_u")
    exit_shortcut = builder.add_edge(exit, sink, span, id=f"{prefix}.exit_v")
    return BaitingHandle(entry, exit, sink, span, sections, path_edges,
                         cut_edges, entry_shortcut, exit_shortcut)


@dataclass(frozen=True)
class ObservationHandle:
    """Names of everything one observation gadget put into a builder.

    The layout is  entry ->(first)-> gate ->(second)-> far_gate, then the
    detour far_gate -> out_post -> obs -> in_post -> gate, a unit-cost sneak
    gate -> gate2, and gate2 ->(third)-> exit. Both detour blockers are
    visible from the gates they touch, which the closed forms rely on.
    """

    entry: str
    exit: str
    obs: str
    sink: str
    length: Fraction
    first: BaitingHandle
    second: BaitingHandle
    third: BaitingHandle
    gate: str
    far_gate: str
    out_post: str
    in_post: str
    gate2: str
    blocker_out: str
    blocker_in: str
    spur_out: str
    spur_in: str
    sneak: str


def build_observation(builder: InstanceBuilder, entry: str, exit: str,
                      obs: str, sink: str, length: Fraction | int,
                      prefix: str) -> ObservationHandle:
    """Add one observation gadget to `builder`; its bait detours via `obs`."""
    span = as_fraction(length)
    if span <= 8:
        raise GadgetParameterError(
            f"observation gadget needs length above 8, got {span}")
    spur = detour_price(span)
    gate = builder.add_vertex(f"{prefix}.gate")
    far_gate = builder.add_vertex(f"{prefix}.far")
    out_post = builder.add_vertex(f"{prefix}.out")
    in_post = builder.add_vertex(f"{prefix}.in")
    gate2 = builder.add_vertex(f"{prefix}.gate2")
    builder.add_vertex(obs)
    first = build_baiting(builder, entry, gate, sink, span, f"{prefix}.bg1")
    second = build_baiting(builder, gate, far_gate, sink,
                           second_chain_length(span), f"{prefix}.bg2")
    blocker_out = builder.add_edge(far_gate, out_post, 0,
                                   id=f"{prefix}.block_out",
                                   block_p=Fraction(3, 4))
    spur_out = builder.add_edge(out_post, obs, spur, id=f"{prefix}.spur_out")
    spur_in = builder.add_edge(obs, in_post, spur, id=f"{prefix}.spur_in")
    blocker_in = builder.add_edge(in_post, gate, 0,
                                  id=f"{prefix}.block_in",
                                  block_p=Fraction(3, 4))
    sneak = builder.add_edge(gate, gate2, 1, id=f"{prefix}.sneak")
    third = build_baiting(builder, gate2, exit, sink, span, f"{prefix}.bg3")
    return ObservationHandle(entry, exit, obs, sink, span, first, second, third,
                             gate, far_gate, out_post, in_post, gate2,
                             blocker_out, blocker_in, spur_out, spur_in, sneak)


# ---------------------------------------------------------------------------
# standalone harnesses

def _close_harness(builder: InstanceBuilder, span: Fraction,
                   charge: Fraction | int | None,
                   fallback: Fraction | int) -> CtpInstance:
    """Add the fallback edge (u, t) and the optional charge edge (v, t)."""
    builder.add_edge("u", "t", fallback, id="fallback")
    if charge is not None:
        fee = as_fraction(charge)
        if not 0 <= fee < span:
            raise GadgetParameterError(
                f"harness charge must lie in [0, {span}), got {fee}")
        builder.add_edge("v", "t", fee, id="charge")
    return builder.build()


def baiting_harness(length: Fraction | int,
                    charge: Fraction | int | None = None,
                    fallback: Fraction | int = 1,
                    ) -> tuple[CtpInstance, BaitingHandle]:
    """One baiting gadget between s = u and exit v, plus a harness fallback.

    The fallback edge (u, t) prices giving up from the entry. When `charge`
    is given it must undercut the corridor length and becomes the price of
    finishing past v; otherwise finishing uses the gadget's own sure exit.
    """
    span = as_fraction(length)
    builder = InstanceBuilder(Variant.INDEPENDENT)
    builder.set_endpoints("u", "t")
    handle = build_baiting(builder, "u", "v", "t", span, "bg")
    return _close_harness(builder, span, charge, fallback), handle


def observation_harness(length: Fraction | int,
                        charge: Fraction | int | None = None,
                        fallback: Fraction | int = 1,
                        ) -> tuple[CtpInstance, ObservationHandle]:
    """One observation gadget between s = u and exit v, fallback at u."""
    span = as_fraction(length)
    builder = InstanceBuilder(Variant.INDEPENDENT)
    builder.set_endpoints("u", "t")
    handle = build_observation(builder, "u", "v", "o", "t", span, "og")
    return _close_harness(builder, span, charge, fallback), handle


__all__ = [
    "BaitingHandle",
    "GadgetParameterError",
    "ObservationHandle",
    "bailout_gap",
    "bailout_policy_cost",
    "baiting_harness",
    "build_baiting",
    "build_observation",
    "ceil_log2",
    "chain_early_exit_expectation",
    "decomposed_cost",
    "detour_price",
    "early_exit_expectation",
    "forward_policy_cost",
    "observation_early_exit_expectation",
    "observation_harness",
    "observation_pass_cost",
    "observation_pass_probability",
    "pass_cost",
    "pass_probability",
    "second_chain_length",
    "section_count",
    "section_length",
]
