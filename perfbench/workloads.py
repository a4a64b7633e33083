"""The benchmark's five workloads: inputs, ops, fingerprints and checks.

A workload object is built from freshly imported ctplab modules (`ct`)
and the run seed; building it is the workload's set-up, including the
lazy caches its inputs fill on first use. `ops` is the fixed list of
(label, thunk) pairs that one pass runs. Each thunk resolves the entry
point through its module at call time, so the traced run sees the
patched names. `summarize` turns one op's output into a fingerprint (the
exact outputs, which must repeat bit for bit) and a dict of counts.
`check` judges the first pass's fingerprints and returns a problem for
every label whose output is wrong.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from tracing import counting_policy

DEFAULT_SEED = 20260819
SIM_OPS = 8
TRIALS_PER_OP = 256


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _warm(instance) -> None:
    """Fill the instance's lazy caches, as any first solve would."""
    instance.joint
    instance.edge_map
    instance.moves_from(instance.s)
    instance.visible_from(instance.s)


def _compare_frozen(fps, frozen, problems) -> None:
    if frozen is None:
        return
    for label, fp in fps.items():
        if label in frozen and frozen[label] != fp:
            problems.setdefault(label, []).append(
                f"output {fp} differs from the frozen {frozen[label]}")


class Workload:
    name = ""
    # Labels of ops known to raise at the commit that added the benchmark.
    # Any other op that raises makes the run incorrect.
    expected_raises: frozenset[str] = frozenset()
    # Wall seconds one pass, with its output checks, took on the 2-vCPU
    # machine the benchmark was built on, under that shared host's usual
    # contention. A run makes round(--seconds / pass_seconds) passes, so
    # every commit is measured on the same number of samples.
    pass_seconds = 1.0
    # True when the generated inputs depend on the run seed; frozen
    # outputs then apply only at DEFAULT_SEED.
    seeded = False
    trials_per_op = 0
    ops: list

    def use_tracer(self, tracer) -> None:
        """Hook for workloads that count calls the tracer cannot patch."""


class _SolveWorkload(Workload):
    def _ops(self, instances):
        solve = self.ct.solve
        return [(label, lambda inst=inst: solve.solve(inst))
                for label, inst in instances.items()]

    def summarize(self, label, result):
        fp = [str(result.optimal_cost), str(result.optimal_first_action),
              _digest(result.policy.to_json())]
        return fp, {"beliefs": result.stats.beliefs_expanded,
                    "tree_nodes": len(result.policy.nodes)}


class SolveIndep(_SolveWorkload):
    name = "solve-indep"
    pass_seconds = 9.0

    def __init__(self, ct, seed: int):
        self.ct = ct
        cli, red, gad = ct.cli, ct.reductions, ct.gadgets
        instances = {}
        self.toys = {}
        for i in range(20):
            toy = cli.random_disjoint_instance(
                ct.model.SplitMix64(DEFAULT_SEED + 1000 + i))
            self.toys[f"toy{i:02d}"] = toy
            instances[f"toy{i:02d}"] = toy
            instances[f"toy{i:02d}.nf"] = red.normalize_half_prob(toy)
        self.baiting = {}
        for length in (Fraction(3, 2), Fraction(2)):
            label = f"baiting({length})"
            instances[label], handle = gad.baiting_harness(length)
            self.baiting[label] = (length, handle)
        self.covers = {}
        for graph in ("p3", "k3"):
            label = f"vc({graph})"
            vc = red.named_vc(graph, 1)
            instances[label], _ = red.vc_to_sensing(vc, Fraction(1, 2))
            self.covers[label] = vc
        for instance in instances.values():
            _warm(instance)
        self.ops = self._ops(instances)

    def check(self, fps, frozen):
        ct = self.ct
        problems: dict[str, list[str]] = {}

        def expect(label, got, want, what):
            if label in fps and got != want:
                problems.setdefault(label, []).append(
                    f"{what} {got} != {want}")

        for label, toy in self.toys.items():
            brute = str(ct.solve.solve_disjoint_bruteforce(toy).optimal_cost)
            for key in (label, f"{label}.nf"):
                expect(key, fps.get(key, [None])[0], brute,
                       "optimum vs brute force")
        for label, (length, handle) in self.baiting.items():
            fp = fps.get(label, [None, None])
            expect(label, fp[0], str(ct.model.Cost.of(
                ct.gadgets.forward_policy_cost(length, length))),
                "optimum vs forward_policy_cost")
            expect(label, fp[1], str(ct.policy.Action.move(
                handle.path_edges[0])), "first move")
        default = str(ct.policy.Action.move("default"))
        for label, vc in self.covers.items():
            if label in fps:
                covered = ct.reductions.has_vertex_cover(vc)
                expect(label, fps[label][1] == default, not covered,
                       "first move is default")
        _compare_frozen(fps, frozen, problems)
        return problems


class SolveDep(_SolveWorkload):
    name = "solve-dep"
    pass_seconds = 6.5

    def __init__(self, ct, seed: int):
        self.ct = ct
        instances = {}
        self.games = {}
        for k, (formula, _) in enumerate(ct.cli.GAME_BATTERY):
            label = f"game{k}(n={formula.n},m={formula.m})"
            instances[label], fee = ct.reductions.qbf_to_ctpdep(formula)
            self.games[label] = (formula, fee)
        for instance in instances.values():
            _warm(instance)
        self.ops = self._ops(instances)

    def check(self, fps, frozen):
        ct = self.ct
        problems: dict[str, list[str]] = {}
        for label, (formula, fee) in self.games.items():
            if label not in fps:
                continue
            if ct.solve.qbf_eval(formula):
                want = [str(ct.model.Cost.zero()),
                        str(ct.policy.Action.move("enter"))]
            else:
                want = [str(ct.model.Cost.of(fee)),
                        str(ct.policy.Action.move("default"))]
            if fps[label][:2] != want:
                problems.setdefault(label, []).append(
                    f"cost and first move {fps[label][:2]} != {want}")
        _compare_frozen(fps, frozen, problems)
        return problems


class _SimWorkload(Workload):
    seeded = True
    trials_per_op = TRIALS_PER_OP

    def _setup(self, ct, seed, instance, policy, exact):
        self.ct = ct
        _warm(instance)
        self.base_policy = self.policy = policy
        self.exact = exact
        self.ops = []
        for j in range(SIM_OPS):
            self.ops.append((f"sim(seed+{j})", lambda j=j: ct.policy.simulate(
                instance, self.policy, TRIALS_PER_OP, seed=seed + j)))

    def use_tracer(self, tracer) -> None:
        self.policy = (self.base_policy if tracer is None else
                       counting_policy(self.ct, self.base_policy, tracer))

    def summarize(self, label, result):
        mean, sem = result
        return [mean.hex(), sem.hex()], {}

    def check(self, fps, frozen):
        """Pooled mean of the pass within four sigma of the exact value."""
        problems: dict[str, list[str]] = {}
        if fps:
            means = [float.fromhex(fp[0]) for fp in fps.values()]
            sems = [float.fromhex(fp[1]) for fp in fps.values()]
            mean = math.fsum(means) / len(means)
            sem = math.sqrt(math.fsum(s * s for s in sems)) / len(sems)
            if not abs(mean - float(self.exact)) <= 4 * sem:
                for label in fps:
                    problems.setdefault(label, []).append(
                        f"pooled mean {mean} is more than 4 sem ({sem}) "
                        f"from {self.exact}")
        _compare_frozen(fps, frozen, problems)
        return problems


class SimRepeat(_SimWorkload):
    name = "sim-repeat"
    pass_seconds = 0.3

    def __init__(self, ct, seed: int):
        instance, handle = ct.gadgets.baiting_harness(Fraction(2))
        policy = ct.policy.reference_policy(
            "baiting_pi", handle=handle, terminal=handle.exit_shortcut)
        self._setup(ct, seed, instance, policy, Fraction(263, 512))


class SimFresh(_SimWorkload):
    name = "sim-fresh"
    pass_seconds = 2.0

    def __init__(self, ct, seed: int):
        instance, handle = ct.gadgets.observation_harness(16, charge=0)
        policy = ct.policy.reference_policy(
            "og_pi_g", handle=handle, terminal="charge")
        exact = ct.policy.evaluate_exact(instance, policy, mode="tree")
        self._setup(ct, seed, instance, policy, exact.expected_cost.fraction)


class BuildIo(Workload):
    name = "build-io"
    pass_seconds = 4.5

    # The (6,3) fee has more than 4,300 digits, past Python's default
    # int-to-str limit, so instance_to_json raises ValueError.
    expected_raises = frozenset({"qbf_to_ctp(n=6,m=3)"})
    SIZES = ((2, 1), (2, 2), (4, 2), (4, 3), (6, 3))
    D_PT = {(2, 1): "331", (2, 2): "777", (4, 2): "1457"}

    def __init__(self, ct, seed: int):
        self.ct = ct
        self.sizes = {}
        self.ops = []
        for n, m in self.SIZES:
            label = f"qbf_to_ctp(n={n},m={m})"
            formula = ct.solve.QbfFormula.of(n, ((1,),) * m)
            self.sizes[label] = (n, m)
            self.ops.append((label, lambda f=formula: self._build_io(f)))

    def _build_io(self, formula):
        model, red = self.ct.model, self.ct.reductions
        instance, cert = red.qbf_to_ctp(formula)
        text = model.instance_to_json(instance)
        back = model.instance_from_json(text)
        back.joint
        cert_back = red.CtpReductionCertificate.from_json(cert.to_json())
        return instance, cert, text, back, cert_back

    def summarize(self, label, output):
        instance, cert, text, back, cert_back = output
        fp = [_digest(text), _digest(cert.to_json()), back == instance,
              cert_back == cert, len(instance.vertices), len(instance.edges),
              cert.vertex_count, cert.edge_count, str(cert.D_pt)]
        return fp, {"vertices": len(instance.vertices),
                    "edges": len(instance.edges),
                    "uncertain_edges": len(instance.uncertain_edges)}

    def check(self, fps, frozen):
        problems: dict[str, list[str]] = {}
        for label, fp in fps.items():
            found = []
            if not fp[2]:
                found.append("JSON round trip changed the instance")
            if not fp[3]:
                found.append("JSON round trip changed the certificate")
            if fp[4:6] != fp[6:8]:
                found.append(f"built counts {fp[4:6]} != certificate's "
                             f"{fp[6:8]}")
            want = self.D_PT.get(self.sizes[label])
            if want is not None and fp[8] != want:
                found.append(f"D_pt {fp[8]} != {want}")
            if found:
                problems[label] = found
        _compare_frozen(fps, frozen, problems)
        return problems


WORKLOADS = {w.name: w for w in (SolveIndep, SolveDep, SimRepeat, SimFresh,
                                 BuildIo)}
