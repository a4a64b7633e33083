"""Run one ctplab benchmark workload against the sources of this checkout.

    python3 perfbench/run.py --workload solve-indep --seed 20260819 \
        --seconds 20 --trace 0

The workload is set up SETUP_ROUNDS times (fresh import of ctplab, input
generation, lazy caches) and the median is reported as setup_s. Then it
runs whole passes over its fixed op list, as many as took --seconds of
wall time on the reference machine (at least one). With --trace 0 it reports the
end-to-end metrics; with --trace 1 it makes an untraced warm-up pass,
then alternates traced and untraced passes, and reports the per-layer
metrics of the traced passes (median over passes) plus the tracing
overhead against the untraced passes after the warm-up.

Every timed interval (a set-up round, an op) is measured with a
`speed.Clock`, which samples the host's speed with a fixed probe before,
during and after the interval and reports seconds at the reference
machine's speed; the raw wall times are printed and recorded too.

Every op's output is checked; an op that raises or whose output fails
its check counts as failed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A record of
the run, and for a traced run its spans, are written under
perfbench/results/.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import REFERENCE_PROBE_S, Clock
from tracing import Tracer, installed, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_ROUNDS = 11
MODULES = ("model", "gadgets", "policy", "solve", "reductions", "cli")


def import_ctplab() -> SimpleNamespace:
    """Import ctplab from scratch, dropping any copy already imported."""
    for name in [n for n in sys.modules
                 if n == "ctplab" or n.startswith("ctplab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"ctplab.{name}")
                              for name in MODULES})


def git_sha() -> str:
    """Commit of this checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(workload, clock: Clock,
             tracer: Tracer | None = None) -> SimpleNamespace:
    """Run every op once, timing each call; summarize outputs afterwards."""
    gc.collect()
    out = SimpleNamespace(latencies=[], raw=[], fps={}, stats=Counter(),
                          errors={}, tracer=tracer)
    workload.use_tracer(tracer)
    for label, op in workload.ops:
        if tracer:
            op = tracer.span("op", op)
        with installed(tracer, workload.ct) if tracer else nullcontext():
            result, error, raw, latency = clock.timed(op)
        out.raw.append(raw)
        out.latencies.append(latency)
        if error is not None:
            first_line = (str(error).splitlines() or [""])[0][:160]
            out.errors[label] = f"{type(error).__name__}: {first_line}"
            continue
        fp, stats = workload.summarize(label, result)
        del result
        out.fps[label] = fp
        out.stats.update(stats)
    workload.use_tracer(None)
    return out


def run_passes(workload, clock: Clock, seconds: float, trace: bool):
    """Untraced passes, or a warm-up pass and then traced and untraced
    passes in turn.

    The number of passes is the number that takes `seconds` on the
    reference machine (`workload.pass_seconds`), so that every commit is
    measured on the same number of samples; a traced run makes at least
    one pass of each kind after the warm-up.
    """
    count = max(1, round(seconds / workload.pass_seconds))
    if not trace:
        return [run_pass(workload, clock) for _ in range(count)], []
    plain, traced = [run_pass(workload, clock)], []
    for i in range(max(2, count)):
        if i % 2:
            plain.append(run_pass(workload, clock))
        else:
            traced.append(run_pass(workload, clock, Tracer()))
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns the latency, its percentile and the samples beyond it; with
    fewer than 11 samples that is the fastest one.
    """
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100 * (k + 1) / len(ordered), len(ordered) - k - 1


def timings(setup: list[float], passes: list[list[float]]):
    """Timing metrics from set-up rounds and per-pass op latencies.

    wall_s is the sum over ops of each op's median latency across
    passes. Returns the metrics, the tail's percentile and the samples
    beyond it.
    """
    latencies = [x for p in passes for x in p]
    tail_s, tail_pct, beyond = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(op) for op in zip(*passes)),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(latencies) / sum(latencies),
    }, tail_pct, beyond


def judge(workload, passes, frozen):
    """Check outputs; return (problems by label, attempted, failed).

    An op that raises is a problem unless its label is one of the
    workload's `expected_raises`; either way it counts as failed.
    """
    first: dict[str, list] = {}
    for p in passes:
        for label, fp in p.fps.items():
            first.setdefault(label, fp)
    problems = {label: list(found)
                for label, found in workload.check(first, frozen).items()}
    attempted = failed = 0
    for p in passes:
        for label, _ in workload.ops:
            attempted += 1
            if label in p.errors and label not in workload.expected_raises:
                found = problems.setdefault(label, [])
                msg = f"raised {p.errors[label]}"
                if msg not in found:
                    found.append(msg)
            if label in p.fps and p.fps[label] != first[label]:
                found = problems.setdefault(label, [])
                if "output differs between passes" not in found:
                    found.append("output differs between passes")
            if label in p.errors or label in problems:
                failed += 1
    return problems, attempted, failed


def by_spec(values: dict, spec: list) -> dict:
    """The metrics `spec` (a list from BENCHMARK.json) names, with units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def show(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")


def load_frozen(workload, seed: int):
    if workload.seeded and seed != DEFAULT_SEED:
        return None
    frozen = json.loads((HERE / "frozen.json").read_text())
    return frozen.get(workload.name, {})


def set_up(name: str, seed: int):
    """Import ctplab afresh and build the workload's inputs."""
    ct = import_ctplab()
    return ct, WORKLOADS[name](ct, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if not (SRC / "ctplab" / "__init__.py").is_file():
        print(f"perfbench: no ctplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with Clock() as clock:
        setup_raw, setup = [], []
        for _ in range(SETUP_ROUNDS):
            gc.collect()
            built, error, raw, scaled = clock.timed(
                lambda: set_up(args.workload, args.seed))
            if error is not None:
                raise error
            ct, workload = built
            setup_raw.append(raw)
            setup.append(scaled)
        if not Path(ct.model.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: ctplab was imported from "
                  f"{ct.model.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        plain, traced = run_passes(workload, clock, args.seconds,
                                   bool(args.trace))
    problems, attempted, failed = judge(
        workload, plain + traced, load_frozen(workload, args.seed))
    errors = {label: msg for p in plain + traced
              for label, msg in p.errors.items()}

    e2e, tail_pct, beyond = timings(setup, [p.latencies for p in plain])
    e2e["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, _, _ = timings(setup_raw, [p.raw for p in plain])
    samples = sum(len(p.latencies) for p in plain)
    env = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_sha": git_sha(),
        "trials_per_op": workload.trials_per_op,
        "int_max_str_digits": getattr(
            sys, "get_int_max_str_digits", lambda: None)(),
    }
    notes = {
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond,
                    "samples": samples},
        "failed_share": failed / attempted,
    }
    if workload.trials_per_op:
        notes["trials_per_s"] = e2e["ops_per_s"] * workload.trials_per_op

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    metrics = by_spec(e2e, spec["end_to_end"])
    show(metrics)
    print(f"{'':34s} op_tail_s is p{tail_pct:.1f}: {beyond} of "
          f"{samples} samples beyond it")
    print(f"{'':34s} raw wall-clock: " + ", ".join(
        f"{k}={v:.6g}" for k, v in raw.items()))
    if "trials_per_s" in notes:
        print(f"{'trials_per_s':34s} {notes['trials_per_s']:.6g} 1/s")
    print(f"{'failed_share':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")

    if args.trace:
        per_pass = [layer_metrics(p.tracer, p.stats) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        layers["trace.overhead"] = (
            statistics.median(sum(p.latencies) for p in traced)
            / statistics.median(sum(p.latencies) for p in plain[1:]))
        metrics = by_spec(layers, spec["per_layer"])
        show(metrics)

    for label, msg in errors.items():
        print(f"raised: {label}: {msg}")
    for label, found in problems.items():
        print(f"wrong: {label}: {'; '.join(found)}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    labels = [label for label, _ in workload.ops]
    record = {**env, **notes, "metrics": metrics, "end_to_end": e2e,
              "end_to_end_raw": raw, "setup_rounds_raw_s": setup_raw,
              "reference_probe_s": REFERENCE_PROBE_S,
              "passes": [{"traced": p.tracer is not None,
                          "latencies_s": dict(zip(labels, p.latencies)),
                          "raw_s": dict(zip(labels, p.raw))}
                         for p in plain + traced],
              "errors": errors, "problems": problems}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with gzip.open(RESULTS / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for span in traced[0].tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(f"record: {(RESULTS / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
