"""Command line for building, solving, checking, and exporting instances.

Subcommands:

* `qbf` evaluates a QDIMACS game file.
* `reduce` translates a game file or a builtin graph into an instance
  plus a certificate file.
* `gadget` materializes a baiting or observation harness, optionally
  exporting a reference walker as a decision tree.
* `solve` finds the optimal expected cost of an instance, or evaluates a
  decision-tree policy file against it.
* `export-dot` renders an instance as Graphviz text.
* `verify` runs a named check suite and reports one line per check.

Exit codes: 0 success; 1 verify checks failed or a self-check failed
(`InternalCheckError`), which includes `solve --policy` on a tree whose
moves go round in a loop, refused as a belief met again before any
reveal; 2 bad input (`InvalidInstanceError`, any other `ValueError`, or
`OSError`), a usage error such as an option the command does not take
included; 3 an enumeration cap was exceeded (`EnumerationCapError`).
The three classes live in `ctplab.model`.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .gadgets import (
    bailout_policy_cost,
    baiting_harness,
    detour_price,
    forward_policy_cost,
    observation_harness,
    section_count,
)
from .model import (
    Cost,
    CtpInstance,
    EnumerationCapError,
    InstanceBuilder,
    InternalCheckError,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    as_fraction,
    format_rational,
    load_instance,
    save_instance,
)
from .policy import (
    Action,
    evaluate_exact,
    export_decision_tree,
    load_policy,
    reference_policy,
    simulate,
)
from .reductions import (
    certificate,
    has_vertex_cover,
    named_vc,
    normalize_half_prob,
    qbf_to_ctp,
    qbf_to_ctpdep,
    reference_trip,
    vc_to_sensing,
)
from .solve import (
    BELIEF_CAP,
    QBF_CAP,
    QbfFormula,
    decompose_into_paths,
    CommittingPolicy,
    parse_qdimacs,
    qbf_eval,
    solve,
    solve_disjoint_paths,
)

DEFAULT_PRECISION = 20
DEFAULT_SEED = 20260819

# Winnable and unwinnable games small enough to solve exactly, used by
# the ctpdep suite and the acceptance checks.
GAME_BATTERY: tuple[tuple[QbfFormula, bool], ...] = (
    (QbfFormula.of(2, ((1, 2),)), True),
    (QbfFormula.of(2, ((1,), (-1,))), False),
    (QbfFormula.of(2, ((1, 2), (-1, -2))), True),
    (QbfFormula.of(2, ((-1, 2), (1, -2), (1, 2))), False),
    (QbfFormula.of(2, ((2,), (-1, 2), (1, 2))), True),
    (QbfFormula.of(4, ((1, 2), (3, 4))), True),
    (QbfFormula.of(4, ((1, 3),)), False),
    (QbfFormula.of(4, ((3,), (-3,))), False),
)


# ---------------------------------------------------------------------------
# rendering

def _decimal(value: Fraction, precision: int) -> str:
    """`value` as a decimal with `precision` significant digits."""
    with localcontext() as ctx:
        ctx.prec = precision
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def render_rational(value: Fraction, precision: int = DEFAULT_PRECISION,
                    ) -> str:
    """Rational as `num/den (decimal)` with `precision` significant digits."""
    text = _decimal(value, precision)
    if "E" not in text and "e" not in text and "." not in text:
        text += ".0"
    return f"{value.numerator}/{value.denominator} ({text})"


def render_cost(cost: Cost, precision: int = DEFAULT_PRECISION) -> str:
    if cost.is_infinite:
        return "inf"
    return render_rational(cost.fraction, precision)


def _dot_quantity(value: Fraction, precision: int) -> str:
    if value.denominator <= 1024:
        return format_rational(value)
    return _decimal(value, precision)


def _dot_id(name: str) -> str:
    """`name` as a quoted DOT id, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def instance_to_dot(instance: CtpInstance,
                    precision: int = DEFAULT_PRECISION) -> str:
    """Graphviz text: dashed uncertain edges labeled `cost|chance`."""
    directed = any(e.directed for e in instance.edges)
    kind, op = ("digraph", "->") if directed else ("graph", "--")
    lines = [f"{kind} ctp {{", "  rankdir=LR;"]
    for vertex in instance.vertices:
        if vertex == instance.s:
            lines.append(f"  {_dot_id(vertex)} [shape=doublecircle];")
        elif vertex == instance.t:
            lines.append(f"  {_dot_id(vertex)} [shape=doubleoctagon];")
    for e in instance.edges:
        label = ("inf" if e.cost.is_infinite
                 else _dot_quantity(e.cost.fraction, precision))
        attrs = []
        if e.uncertain:
            label += f"|{_dot_quantity(e.block_p, precision)}"
            attrs.append("style=dashed")
        if directed and not e.directed:
            attrs.append("dir=none")
        attrs.insert(0, f'label="{label}"')
        lines.append(f"  {_dot_id(e.tail)} {op} {_dot_id(e.head)} "
                     f"[{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# toy generators shared by the oracle suite and the test battery

def random_disjoint_instance(stream: SplitMix64) -> CtpInstance:
    """Random instance made of 2 to 4 internally disjoint routes from s to t.

    Each route has 1 to 3 edges. The last route is always sure, so the
    optimum is finite and at most 9 edges are uncertain. Blocking
    chances are dyadic, which also makes these instances valid inputs
    for the normal-form rewrite.
    """
    chances = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
               Fraction(3, 8), Fraction(7, 8))
    builder = InstanceBuilder(Variant.INDEPENDENT)
    builder.set_endpoints("s", "t")
    paths = 2 + stream.uniform_below(3)
    for p in range(paths):
        edges = 1 + stream.uniform_below(3)
        prev = "s"
        for j in range(edges):
            nxt = "t" if j == edges - 1 else f"p{p}v{j}"
            cost = Fraction(stream.uniform_below(9), 2)
            block = Fraction(0)
            if p < paths - 1 and stream.uniform_below(3):
                block = chances[stream.uniform_below(len(chances))]
            builder.add_edge(prev, nxt, cost, id=f"p{p}e{j}", block_p=block)
            prev = nxt
    return builder.build()


# ---------------------------------------------------------------------------
# verify suites

def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _equal(cid: str, expected, actual) -> dict:
    """A report row: passes when `expected == actual`."""
    return {"id": cid, "status": "pass" if expected == actual else "fail",
            "expected": _show(expected), "actual": _show(actual)}


def _holds(cid: str, condition: bool, detail: str = "") -> dict:
    """A report row: passes when `condition` holds."""
    return {"id": cid, "status": "pass" if condition else "fail",
            "expected": "holds",
            "actual": detail or ("holds" if condition else "fails")}


def _suite_gadgets(args) -> Iterator[dict]:
    if "seed" in args.given and not args.trials:
        raise ValueError("ctplab verify gadgets: --seed needs --trials above 0")
    lengths = ([as_fraction(args.L)] if args.L
               else [Fraction(3, 2), Fraction(2)])
    for length in lengths:
        instance, handle = baiting_harness(length)
        result = solve(instance, belief_cap=args.cap)
        expected = forward_policy_cost(length, length)
        yield _equal(f"solver-matches-forward-walk-L={length}",
                     Cost.of(expected), result.optimal_cost)
        yield _equal(f"first-step-enters-corridor-L={length}",
                     str(Action.move(handle.path_edges[0])),
                     str(result.optimal_first_action))
    for m in range(1, 9):
        cert = certificate(2, m)
        length = cert.L
        forward = forward_policy_cost(length, length)
        yield _holds(f"forward-under-three-quarters-m={m}",
                     forward < Fraction(3, 4), _show(forward))
        sections = section_count(length)
        bail = min(bailout_policy_cost(length, j, 1)
                   for j in range(1, sections + 1))
        yield _holds(f"forward-beats-every-bailout-m={m}", forward < bail,
                     f"forward {_show(forward)} best bailout {_show(bail)}")
        spur = detour_price(length)
        yield _holds(f"detour-return-beats-second-corridor-m={m}",
                     2 * spur + 2 < 3 * length / 2)
        yield _holds(f"second-corridor-beats-triple-spur-m={m}",
                     3 * length / 2 < 2 * spur + 3 * spur / 4 + spur)
        yield _holds(f"guard-blocking-floor-m={m}",
                     cert.p1 > 1 - Fraction(2, 3 * length + 1))
        retry = spur + 2
        yield _holds(f"retry-recursion-contracts-m={m}",
                     retry < 1 + cert.p1 * (1 + retry))
    if args.trials:
        length = Fraction(2)
        instance, handle = baiting_harness(length)
        policy = reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)
        mean, sem = simulate(instance, policy, args.trials,
                             seed=args.seed)
        target = float(forward_policy_cost(length, length))
        gap = abs(mean - target)
        yield _holds("simulated-mean-within-4-sigma",
                     gap <= 4 * sem or sem == 0,
                     f"mean {mean:.6f} target {target:.6f} sem {sem:.6f}")


def _suite_ctpdep(args) -> Iterator[dict]:
    for formula, winnable in GAME_BATTERY:
        if (args.n not in (None, formula.n)
                or args.m not in (None, formula.m)):
            continue
        if qbf_eval(formula) is not winnable:
            raise InternalCheckError(
                f"battery game {formula.clauses} has the wrong truth value")
        instance, fee = qbf_to_ctpdep(formula)
        result = solve(instance, belief_cap=args.cap)
        label = f"n={formula.n}-m={formula.m}-{'win' if winnable else 'loss'}"
        move = "enter" if winnable else "default"
        yield _equal(f"first-move-{label}", str(Action.move(move)),
                     str(result.optimal_first_action))
        cost = Cost.zero() if winnable else Cost.of(fee)
        yield _equal(f"optimal-cost-{label}", cost, result.optimal_cost)


def _suite_ctp_cert(args) -> Iterator[dict]:
    sizes = [(n, m)
             for n in ([args.n] if args.n is not None else [2, 4, 6, 8])
             for m in ([args.m] if args.m is not None else range(1, 9))]
    # each check names the last size it failed at
    sandwich_miss = gap_miss = ""
    for n, m in sizes:
        cert = certificate(n, m)
        if not cert.B0 < cert.h < cert.B1:
            sandwich_miss = f"(n={n}, m={m})"
        gap = Fraction(1, 4 ** (n // 2)) * m * cert.P_rt * cert.P_r0
        if cert.h - cert.B0 != gap:
            gap_miss = f"(n={n}, m={m})"
    yield _holds("fee-sandwich-B0-h-B1", not sandwich_miss,
              sandwich_miss or f"{len(sizes)} sizes")
    yield _holds("fee-gap-identity", not gap_miss,
              gap_miss or f"{len(sizes)} sizes")
    for n, m in ((2, 1), (2, 2), (4, 2)):
        if (n, m) not in sizes:
            continue
        formula = QbfFormula.of(n, ((1,),) * m)
        instance, cert = qbf_to_ctp(formula)
        position = instance.s
        total = Fraction(0)
        for eid in reference_trip(formula):
            move = instance.moves_from(position).get(eid)
            if move is None:
                position = None
                break
            edge, position = move
            total += edge.cost.fraction
        yield _holds(f"trip-walks-to-exam-entrance-n={n}-m={m}",
                     position == "exam.r0")
        yield _equal(f"trip-cost-matches-ledger-n={n}-m={m}", cert.D_pt, total)


def _suite_sensing(args) -> Iterator[dict]:
    alpha = as_fraction(args.alpha)
    names = [args.graph] if args.graph else ["p3", "k3"]
    for name in names:
        vc = named_vc(name, args.k)
        instance, cert = vc_to_sensing(vc, alpha)
        covered = has_vertex_cover(vc)
        result = solve(instance, belief_cap=args.cap)
        default = result.optimal_first_action == Action.move("default")
        yield _equal(f"default-exactly-when-uncovered-{name}-k={vc.k}",
                     not covered, default)
        blind = solve_disjoint_paths(instance)
        yield _equal(f"no-sensing-beaten-exactly-when-covered-{name}-k={vc.k}",
                     covered, result.optimal_cost < blind.optimal_cost)
        yield _holds(f"cover-gain-positive-{name}-k={vc.k}",
                     cert.g_prime_lb > 0, _show(cert.g_prime_lb))
        yield _holds(f"overbudget-gain-negative-{name}-k={vc.k}",
                     cert.g_dprime_ub < 0, _show(cert.g_dprime_ub))
        target = Fraction(vc.k + 1 - alpha, vc.k + 1)
        yield _holds(f"all-open-floor-{name}-k={vc.k}",
                     (1 - cert.eps) ** len(vc.edges) >= target)


def _suite_oracle(args) -> Iterator[dict]:
    seed = args.seed
    agree = 0
    for i in range(25):
        instance = random_disjoint_instance(SplitMix64(seed + i))
        rule = solve_disjoint_paths(instance)
        exact = solve(instance, belief_cap=args.cap)
        if rule.optimal_cost == exact.optimal_cost:
            agree += 1
    yield _equal("index-rule-matches-solver", "25/25", f"{agree}/25")
    preserved = 0
    normal = 0
    for i in range(20):
        instance = random_disjoint_instance(SplitMix64(seed + 1000 + i))
        rewritten = normalize_half_prob(instance)
        if (solve(rewritten, belief_cap=args.cap).optimal_cost
                == solve(instance, belief_cap=args.cap).optimal_cost):
            preserved += 1
        if all(e.block_p == Fraction(1, 2) and e.cost == Cost.zero()
               for e in rewritten.edges if e.uncertain):
            normal += 1
    yield _equal("normal-form-preserves-optimum", "20/20", f"{preserved}/20")
    yield _equal("normal-form-is-all-fair-coins", "20/20", f"{normal}/20")
    match = 0
    for i in range(10):
        instance = random_disjoint_instance(SplitMix64(seed + 2000 + i))
        paths = decompose_into_paths(instance)
        policy = CommittingPolicy(paths)
        by_weather = evaluate_exact(instance, policy, mode="weathers")
        by_tree = evaluate_exact(instance, policy, mode="tree")
        if by_weather.expected_cost == by_tree.expected_cost:
            match += 1
    yield _equal("weather-and-tree-evaluations-agree", "10/10", f"{match}/10")


# each suite's checks and the filters they read, as keys of `_OPTIONS`
_SUITES = {
    "gadgets": (_suite_gadgets, ["--L", "--seed", "--trials", "--cap"]),
    "ctpdep": (_suite_ctpdep, ["--n", "--m", "--cap"]),
    "ctp-cert": (_suite_ctp_cert, ["--n", "--m"]),
    "sensing": (_suite_sensing, ["--graph", "--k", "--alpha", "--cap"]),
    "oracle": (_suite_oracle, ["--seed", "--cap"]),
}


# ---------------------------------------------------------------------------
# commands

def _cert_path(out_path: Path) -> Path:
    name = out_path.name
    if name.endswith(".json"):
        name = name[: -len(".json")]
    return out_path.with_name(name + ".cert.json")


def _cmd_qbf(args) -> int:
    formula = parse_qdimacs(Path(args.formula).read_text())
    winnable = qbf_eval(formula, cap=args.cap)
    if args.json:
        print(json.dumps({"n": formula.n, "m": formula.m,
                          "winnable": winnable}))
    else:
        verdict = "winnable" if winnable else "unwinnable"
        print(f"{formula.n} variables, {formula.m} clauses: {verdict}")
    return 0


def _cmd_reduce(args) -> int:
    if args.target == "sensing":
        vc = named_vc(args.graph, args.k)
        instance, cert = vc_to_sensing(vc, as_fraction(args.alpha))
        stem = args.graph
        summary = (f"eps {cert.eps} visit fee "
                   f"{render_rational(cert.C, args.precision)}")
    else:
        formula = parse_qdimacs(Path(args.formula).read_text())
        stem = Path(args.formula).stem
        if args.target == "ctpdep":
            instance, fee = qbf_to_ctpdep(formula, h=args.h)
            cert = None
            summary = f"direct fee {render_rational(fee, args.precision)}"
        else:
            instance, cert = qbf_to_ctp(formula)
            summary = (f"fee {render_rational(cert.h, args.precision)} "
                       f"over {cert.vertex_count} vertices")
    out_path = Path(args.out) if args.out else Path(f"{stem}.instance.json")
    save_instance(instance, out_path)
    print(f"wrote {out_path} ({len(instance.vertices)} vertices, "
          f"{len(instance.edges)} edges)")
    if cert is not None:
        cert_path = _cert_path(out_path)
        cert_path.write_text(cert.to_json())
        print(f"wrote {cert_path}")
    print(summary)
    return 0


def _cmd_gadget(args) -> int:
    observing = args.kind == "observation"
    if args.policy and (args.policy == "og_pi_g") != observing:
        raise InvalidInstanceError(
            f"policy {args.policy} does not walk the {args.kind} gadget")
    if "rounds" in args.given and args.policy != "baiting_pi_j":
        raise ValueError("ctplab gadget: --rounds needs --policy baiting_pi_j")
    if not args.policy and args.given & {"policy_out", "precision"}:
        raise ValueError(
            "ctplab gadget: --policy-out and --precision need --policy")
    length = as_fraction(args.L)
    charge = as_fraction(args.charge) if args.charge else None
    fallback = as_fraction(args.fallback)
    harness = observation_harness if observing else baiting_harness
    instance, handle = harness(length, charge=charge, fallback=fallback)
    if args.policy:  # built and priced before any file is written
        last = handle.third if observing else handle
        terminal = "charge" if charge is not None else last.exit_shortcut
        if args.policy == "baiting_pi_j":
            walker = reference_policy(args.policy, handle=handle,
                                      rounds=args.rounds,
                                      fallback="fallback")
        else:
            walker = reference_policy(args.policy, handle=handle,
                                      terminal=terminal)
        price, tree = export_decision_tree(instance, walker)
    out_path = Path(args.out) if args.out else Path(
        f"{args.kind}.instance.json")
    save_instance(instance, out_path)
    print(f"wrote {out_path} ({len(instance.vertices)} vertices, "
          f"{len(instance.edges)} edges)")
    if args.policy:
        policy_path = (Path(args.policy_out) if args.policy_out
                       else out_path.with_name(f"{args.policy}.tree.json"))
        policy_path.write_text(tree.to_json())
        print(f"wrote {policy_path}")
        print(f"expected cost: {render_cost(price, args.precision)}")
    return 0


def _cmd_solve(args) -> int:
    if args.policy and "cap" in args.given:
        raise ValueError("ctplab solve: --cap does not apply to --policy, whose "
                         f"pricing walk keeps its {BELIEF_CAP}-node cap")
    instance = load_instance(args.instance)
    if args.policy:
        policy = load_policy(args.policy, instance)
        outcome = evaluate_exact(instance, policy)
        if args.json:
            print(json.dumps({
                "expected_cost": render_cost(outcome.expected_cost,
                                             args.precision),
                "outcomes": outcome.leaves,
            }))
        else:
            print("expected cost: "
                  f"{render_cost(outcome.expected_cost, args.precision)}")
            print(f"outcome branches: {outcome.leaves}")
        return 0
    result = solve(instance, belief_cap=args.cap)
    first = (str(result.optimal_first_action)
             if result.optimal_first_action else "depends on opening statuses")
    stats = result.stats
    if args.json:
        print(json.dumps({
            "optimal_cost": render_cost(result.optimal_cost, args.precision),
            "first_action": first,
            **asdict(stats),
        }))
    else:
        print("optimal cost: "
              f"{render_cost(result.optimal_cost, args.precision)}")
        print(f"first action: {first}")
        print(f"beliefs expanded: {stats.beliefs_expanded}")
        print(f"boundary steps evaluated: {stats.boundary_evaluated}, "
              f"skipped: {stats.boundary_skipped}")
        print(f"boundary pricings resumed: {stats.boundary_repriced}")
        print(f"branch tables: {stats.branch_tables}, "
              f"regions: {stats.regions}, "
              f"region hits: {stats.region_hits}")
        print(f"shared hits: {stats.shared_hits}")
        print(f"tree nodes: {stats.tree_nodes}")
        print(f"graph nodes: {stats.graph_nodes}")
        print(f"search: {stats.search_s:.3f} s, "
              f"export and self-check: {stats.export_s:.3f} s")
    return 0


def _cmd_export_dot(args) -> int:
    instance = load_instance(args.instance)
    text = instance_to_dot(instance, args.precision)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    start = time.monotonic()
    checks = list(_SUITES[args.suite][0](args))
    if not checks:
        raise ValueError(f"suite {args.suite}: the filters select no check")
    elapsed = time.monotonic() - start
    passed = sum(check["status"] == "pass" for check in checks)
    if args.json:
        print(json.dumps({"suite": args.suite,
                          "elapsed_seconds": round(elapsed, 3),
                          "passed": passed == len(checks),
                          "checks": checks}, indent=2))
    else:
        for check in checks:
            print(f"{check['status'].upper():4} {check['id']}: "
                  f"expected {check['expected']}, got {check['actual']}")
        print(f"suite {args.suite}: {passed}/{len(checks)} "
              f"checks passed in {elapsed:.2f}s")
    return 0 if passed == len(checks) else 1


# a solve's tree can outgrow its search, as strata that share a patch each
# get their own tree nodes, so the tree keeps its own cap
CAP_HELP = (f"most beliefs a solve's search may expand (default "
            f"{BELIEF_CAP}); it bounds the search. The policy's graph "
            f"holds at most {BELIEF_CAP} nodes, and the decision tree cap "
            f"of {BELIEF_CAP} nodes applies only when a tree is written")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input, in one line that names the
    command whose parser refused the arguments."""

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a subcommand's unknown options up to the root
        # parser, which would report them under its own name
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


class _Given(argparse.Action):
    """Stores an option and adds its dest to `given`, so that a command
    can refuse the option on a path that does not read it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), self.dest}


def _digits(text: str) -> int:
    """A `--precision` value: a count of significant digits, at least 1."""
    digits = int(text)
    if digits < 1:
        raise argparse.ArgumentTypeError(
            f"expected a count of significant digits of at least 1, "
            f"got {text!r}")
    return digits


# the add_argument keywords of each option that a reduce target or verify
# suite takes, or more than one command takes, by its flags
_OPTIONS = {
    "-o --out": {},
    "--precision": {"type": _digits, "default": DEFAULT_PRECISION},
    "--json": {"action": "store_true"},
    "--cap": {"type": int, "default": BELIEF_CAP, "help": CAP_HELP},
    "--L": {"help": "corridor length"},
    "--h": {"help": "direct fee override"},
    "--graph": {"help": "builtin graph name"},
    "--k": {"type": int, "default": 1},
    "--alpha": {"default": "1/2"},
    "--n": {"type": int},
    "--m": {"type": int},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--trials": {"type": int, "default": 4096},
}


def _command(sub, name: str, func, options, required=(), **kwargs):
    """The parser of `name` under `sub`, run by `func`, with the `options`
    of `_OPTIONS`; those in `required` must be given. No option is
    abbreviated, so `--h` is no `--help` where `--h` is not taken."""
    parser = sub.add_parser(name, allow_abbrev=False, **kwargs)
    parser.set_defaults(func=func)
    for flags in options:
        keywords = {"action": _Given, **_OPTIONS[flags]}
        parser.add_argument(*flags.split(), required=flags in required,
                            **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctplab",
        description="Exact laboratory for Canadian Traveler constructions.")
    parser.set_defaults(given=frozenset())
    sub = parser.add_subparsers(dest="command", required=True)

    p_qbf = _command(sub, "qbf", _cmd_qbf, ["--json"],
                     help="evaluate a QDIMACS game")
    p_qbf.add_argument("formula")
    p_qbf.add_argument("--cap", type=int, default=QBF_CAP)

    targets = sub.add_parser("reduce", help="translate a game or a graph"
                             ).add_subparsers(dest="target", required=True)
    for target, options in (("ctpdep", ["--h"]), ("ctp", []),
                            ("sensing", ["--graph", "--k", "--alpha"])):
        p_red = _command(targets, target, _cmd_reduce,
                         ["-o --out", "--precision", *options],
                         required=["--graph"])
        if target != "sensing":
            p_red.add_argument("formula", help="QDIMACS file")

    p_gad = _command(sub, "gadget", _cmd_gadget,
                     ["--L", "-o --out", "--precision"], required=["--L"],
                     help="materialize a gadget harness")
    p_gad.add_argument("kind", choices=["baiting", "observation"])
    p_gad.add_argument("--charge")
    p_gad.add_argument("--fallback", default="1")
    p_gad.add_argument("--policy",
                       choices=["baiting_pi", "baiting_pi_j", "og_pi_g"])
    p_gad.add_argument("--rounds", type=int, default=1, action=_Given)
    p_gad.add_argument("--policy-out", action=_Given)

    p_sol = _command(sub, "solve", _cmd_solve,
                     ["--cap", "--precision", "--json"],
                     help="solve or evaluate an instance")
    p_sol.add_argument("instance")
    p_sol.add_argument("--policy", help="decision tree file to evaluate")

    p_dot = _command(sub, "export-dot", _cmd_export_dot,
                     ["-o --out", "--precision"],
                     help="render as Graphviz text")
    p_dot.add_argument("instance")

    suites = sub.add_parser("verify", help="run a check suite"
                            ).add_subparsers(dest="suite", required=True)
    for suite, (_, filters) in _SUITES.items():
        _command(suites, suite, _cmd_verify, [*filters, "--json"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = [
    "GAME_BATTERY",
    "build_parser",
    "instance_to_dot",
    "main",
    "random_disjoint_instance",
    "render_cost",
    "render_rational",
]


if __name__ == "__main__":
    sys.exit(main())
