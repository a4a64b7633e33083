"""Spans recorded from outside the program, for the traced benchmark run.

The tracer replaces the public functions that ctplab's own callers look
up (module globals and class attributes) with wrappers that record one
span per call: name, start, end, parent span and whether it raised. Spans
stay in memory; self time is derived at the end from the parent links.
Calls too cheap to time (`Cost.__lt__`, a policy's `decide`) are only
counted. Every benchmark op is a root span named "op". Everything is
restored when the `installed` block exits.
"""
from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span id, parent span id (0 for none), name, start, end, raised
Span = tuple[int, int, str, float, float, bool]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.weathers: set[frozenset[str]] = set()
        self._ids = itertools.count(1)
        self._open = [0]

    def span(self, name, fn, observe=None):
        """Wrap `fn` so that every call records a span named `name`."""
        spans, ids, open_ = self.spans, self._ids, self._open

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1]
            open_.append(sid)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                open_.pop()
                spans.append((sid, parent, name, start, end, failed))
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap `fn` so that every call only bumps the counter `name`."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and errors."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        out: defaultdict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        for sid, _, name, start, end, failed in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - covered[sid]
            agg["errors"] += failed
        return out


def _count_outcomes(tracer: Tracer, outcomes) -> None:
    tracer.counts["model.JointModel.branch.outcomes"] += len(outcomes)


def _note_weather(tracer: Tracer, weather) -> None:
    tracer.weathers.add(weather.blocked)


def _count_bytes(tracer: Tracer, text: str) -> None:
    tracer.counts["model.instance_to_json.bytes"] += len(text.encode())


def _wrap_attr(tracer: Tracer, owner, attr: str, name: str, observe=None,
               count_only: bool = False):
    original = vars(owner)[attr]
    fn = original.__func__ if isinstance(original, classmethod) else original
    wrapped = (tracer.counter(name, fn) if count_only
               else tracer.span(name, fn, observe))
    if isinstance(original, classmethod):
        wrapped = classmethod(wrapped)
    return owner, attr, original, wrapped


@contextmanager
def installed(tracer: Tracer, ct):
    """Patch ctplab's public entry points with tracing wrappers.

    `ct` holds the imported ctplab modules. Each patched name is the one
    the callers actually resolve at call time, so `solve` sees the wrapped
    `export_decision_tree`, `simulate` the wrapped `walk_weather` and
    `sample_weather`, `qbf_to_ctp` the wrapped certificate and gadget
    builders, and `InstanceBuilder.build` the wrapped `validate_instance`.
    """
    m, p, s, r = ct.model, ct.policy, ct.solve, ct.reductions
    cert = r.CtpReductionCertificate
    patches = [
        _wrap_attr(tracer, s, "solve", "solve.search"),
        _wrap_attr(tracer, s, "export_decision_tree",
                   "policy.export_decision_tree"),
        _wrap_attr(tracer, m.JointModel, "branch", "model.JointModel.branch",
                   _count_outcomes),
        _wrap_attr(tracer, m.Cost, "__lt__", "model.Cost.lt.calls",
                   count_only=True),
        _wrap_attr(tracer, p, "simulate", "policy.simulate"),
        _wrap_attr(tracer, p, "walk_weather", "policy.walk_weather"),
        _wrap_attr(tracer, p, "sample_weather", "model.sample_weather",
                   _note_weather),
        _wrap_attr(tracer, r, "qbf_to_ctp", "reductions.qbf_to_ctp"),
        _wrap_attr(tracer, r, "certificate", "reductions.certificate"),
        _wrap_attr(tracer, r, "build_baiting", "gadgets.build_baiting"),
        _wrap_attr(tracer, r, "build_observation", "gadgets.build_observation"),
        _wrap_attr(tracer, cert, "to_json", "reductions.cert_json"),
        _wrap_attr(tracer, cert, "from_json", "reductions.cert_json"),
        _wrap_attr(tracer, m, "instance_to_json", "model.instance_to_json",
                   _count_bytes),
        _wrap_attr(tracer, m, "instance_from_json", "model.instance_from_json"),
        _wrap_attr(tracer, m, "validate_instance", "model.validate_instance"),
        _wrap_attr(tracer, m, "build_joint", "model.build_joint"),
    ]
    try:
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


def counting_policy(ct, policy, tracer: Tracer):
    """A policy that delegates to `policy` and counts its `decide` calls."""
    counts = tracer.counts

    class CountingPolicy(ct.policy.Policy):
        def decide(self, instance, belief):
            counts["policy.decide.calls"] += 1
            return policy.decide(instance, belief)

    return CountingPolicy()


# Where each per-layer metric of one traced pass comes from. A source is
# ("span", span name, field), ("count", counter name) or ("stat", key of
# the workload's per-op statistics, summed over the pass). Names and units
# are those of BENCHMARK.json.
SOURCES = {
    "solve.search.self_s": ("span", "solve.search", "self_s"),
    "solve.beliefs_expanded": ("stat", "beliefs"),
    "solve.tree_nodes": ("stat", "tree_nodes"),
    "model.JointModel.branch.calls":
        ("span", "model.JointModel.branch", "calls"),
    "model.JointModel.branch.self_s":
        ("span", "model.JointModel.branch", "self_s"),
    "model.JointModel.branch.outcomes":
        ("count", "model.JointModel.branch.outcomes"),
    "model.Cost.lt.calls": ("count", "model.Cost.lt.calls"),
    "policy.export_decision_tree.calls":
        ("span", "policy.export_decision_tree", "calls"),
    "policy.export_decision_tree.s":
        ("span", "policy.export_decision_tree", "s"),
    "policy.walk_weather.calls": ("span", "policy.walk_weather", "calls"),
    "policy.walk_weather.self_s": ("span", "policy.walk_weather", "self_s"),
    "policy.decide.calls": ("count", "policy.decide.calls"),
    "model.sample_weather.calls": ("span", "model.sample_weather", "calls"),
    "model.sample_weather.self_s": ("span", "model.sample_weather", "self_s"),
    "policy.weather_repeat_share": ("count", "policy.weather_repeat_share"),
    "policy.distinct_weathers": ("count", "policy.distinct_weathers"),
    "reductions.qbf_to_ctp.self_s":
        ("span", "reductions.qbf_to_ctp", "self_s"),
    "reductions.certificate.s": ("span", "reductions.certificate", "s"),
    "reductions.cert_json.s": ("span", "reductions.cert_json", "s"),
    "gadgets.build_baiting.calls": ("span", "gadgets.build_baiting", "calls"),
    "gadgets.build_baiting.s": ("span", "gadgets.build_baiting", "s"),
    "gadgets.build_observation.calls":
        ("span", "gadgets.build_observation", "calls"),
    "gadgets.build_observation.s": ("span", "gadgets.build_observation", "s"),
    "model.instance_to_json.s": ("span", "model.instance_to_json", "s"),
    "model.instance_to_json.bytes": ("count", "model.instance_to_json.bytes"),
    "model.instance_to_json.errors":
        ("span", "model.instance_to_json", "errors"),
    "model.instance_from_json.self_s":
        ("span", "model.instance_from_json", "self_s"),
    "model.validate_instance.calls":
        ("span", "model.validate_instance", "calls"),
    "model.validate_instance.s": ("span", "model.validate_instance", "s"),
    "model.build_joint.s": ("span", "model.build_joint", "s"),
    "reductions.vertices": ("stat", "vertices"),
    "reductions.edges": ("stat", "edges"),
    "reductions.uncertain_edges": ("stat", "uncertain_edges"),
    "trace.spans": ("count", "trace.spans"),
    "trace.errors": ("count", "trace.errors"),
}


def layer_metrics(tracer: Tracer, stats: Counter) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    totals = tracer.totals()
    counts = Counter(tracer.counts)
    draws = totals.get("model.sample_weather", {}).get("calls", 0)
    counts["policy.distinct_weathers"] = len(tracer.weathers)
    counts["policy.weather_repeat_share"] = (
        1 - len(tracer.weathers) / draws if draws else 0.0)
    counts["trace.spans"] = len(tracer.spans)
    counts["trace.errors"] = totals.get("op", {}).get("errors", 0)
    out = {}
    for name, source in SOURCES.items():
        if source[0] == "span":
            out[name] = totals.get(source[1], {}).get(source[2], 0)
        elif source[0] == "count":
            out[name] = counts[source[1]]
        else:
            out[name] = stats[source[1]]
    return out
