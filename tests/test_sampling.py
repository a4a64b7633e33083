"""Weather sampling and seeded simulation, frozen bit for bit.

The blocked edges `sample_weather` draws, the stream state it leaves
behind, and the `(mean, sem)` pairs `simulate` returns are pinned at the
values of the original `Fraction`-and-`uniform_below` draw. `simulate`
runs its trials in blocks; in a block, the trials that share a walk form
a group, each walk runs once for its group, in the order of (first
trial, depth), and a reveal splits its group by the one-edge rule or by
each trial's whole draw. That must reproduce every pin exactly, call
`decide` at each decide point of a block once and in that order, and
hold no more per trial than its sample. `SplitMix64.hits` is also
checked against the original rule, kept here as the slow oracle.
"""
from __future__ import annotations

import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ctplab.policy as policy_module
from ctplab.cli import GAME_BATTERY
from ctplab.gadgets import baiting_harness, observation_harness
from ctplab.model import (
    EnumerationCapError,
    InstanceBuilder,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    reveal_rule,
    sample_weather,
)
from ctplab.policy import (
    Action,
    Policy,
    reference_policy,
    simulate,
    walk_weather,
)
from ctplab.reductions import named_vc, qbf_to_ctpdep, vc_to_sensing
from ctplab.solve import solve

from oracles import trial_stream


def chances_instance(chances):
    """One sure s-t edge plus one uncertain s-t edge per chance."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "t", 9, id="sure")
    for i, p in enumerate(chances):
        b.add_edge("s", "t", 1, id=f"e{i}", block_p=p)
    return b.build()


def baiting_case():
    inst, handle = baiting_harness(2)
    return inst, reference_policy("baiting_pi", handle=handle,
                                  terminal=handle.exit_shortcut)


def sampling_case(name):
    if name == "baiting":
        return baiting_harness(2)[0]
    if name == "observation":
        return observation_harness(9)[0]
    if name == "non-dyadic":
        return chances_instance(
            [Fraction(1, 3), Fraction(2, 5), Fraction(5, 7)])
    if name == "wide":
        # denominators above 2^64 take more than one 64-bit word per draw
        return chances_instance(
            [Fraction(1, 3**41), Fraction(2**69 + 1, 2**70 + 3),
             Fraction(7, 2**70), Fraction(1, 2**64), Fraction(1, 3)])
    if name == "dyadic-300":
        # 300 dyadic chances, so every row takes exactly one word
        cycle = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                 Fraction(1, 2**64)]
        return chances_instance([cycle[i % 4] for i in range(300)])
    # battery game 1: CPT rows hold 0, 1 and 1/2, two parents at most
    return qbf_to_ctpdep(GAME_BATTERY[1][0])[0]


class TestFrozenSampling:
    """Blocked sets and the final stream state over 64 trial streams."""

    @pytest.mark.parametrize("name, distinct, first, digest", [
        ("baiting", 50,
         "bg.cut002,bg.cut003,bg.cut006,bg.cut007\tce38621b8a3f9f10",
         "63e65b66306432e3efa8ad47a5a2454413691505986160f67033e3a563ad8a25"),
        ("observation", 64, None,
         "56fcb10490e15518b619465d0a3bbf270fcf68568ecc352f394b198c6538824d"),
        ("non-dyadic", 7, "e2\t555a7b358d15aebc",
         "6c88e364ad62aea055592aab02f0f1266fc5610cc78af7fbf3b9ecd9e92fd829"),
        ("wide", 4, "e1\t6c6fdbd5098a1b25",
         "e4ce794b6abd18428c6dba0928181babcee18a0c4c95aa31808ebea2cd57a186"),
        ("dyadic-300", 64, None,
         "186e73f1ca78b2167afece4d39deef5b8e1bda84cefc189a9fee12939dabd6b3"),
        ("game1", 60,
         "exam.choice.odd,x1.false,x1.obs.f2,x1.obs.t1,x2.obs.t1,x2.obs.t2"
         "\taa7558e88d4973a",
         "ed4e59ab5931bfc61c0aab1491a1d3d48bc14d4459e4918685418616329adbda"),
    ])
    def test_frozen(self, name, distinct, first, digest):
        inst = sampling_case(name)
        lines = []
        for seed in (1, 42):
            for trial in range(32):
                stream = trial_stream(seed, trial)
                weather = sample_weather(inst, stream)
                lines.append(",".join(sorted(inst.edges_in(weather.blocked)))
                             + "\t"
                             + format(stream._state, "x"))
        assert len({line.split("\t")[0] for line in lines}) == distinct
        if first is not None:
            assert lines[0] == first
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestFrozenSimulate:
    """`simulate` (mean, sem) as float.hex, over seeds and trial counts."""

    FROZEN = {
        "baiting": {
            (1, 1): ("0x1.0000000000000p-2", "0x0.0p+0"),
            (1, 7): ("0x1.a492492492492p-1", "0x1.0fd63108214adp-1"),
            (1, 500): ("0x1.1333333333333p-1", "0x1.8c2492d163ad6p-6"),
            (11, 1): ("0x1.0000000000000p-1", "0x0.0p+0"),
            (11, 7): ("0x1.4924924924925p-2", "0x1.79b545654ce5dp-5"),
            (11, 500): ("0x1.07ef9db22d0e5p-1", "0x1.68895ecb6baaap-6"),
            (20260819, 1): ("0x1.0000000000000p-1", "0x0.0p+0"),
            (20260819, 7): ("0x1.2492492492492p-2", "0x1.2492492492493p-5"),
            (20260819, 500): ("0x1.fb645a1cac083p-2", "0x1.07caa21d3d2d8p-6"),
        },
        "observation": {
            (1, 1): ("0x1.2000000000000p-3", "0x0.0p+0"),
            (1, 7): ("0x1.3492492492492p-2", "0x1.1c0dfacca3024p-3"),
            (1, 500): ("0x1.252f1a9fbe76dp-2", "0x1.3a620ff8a480bp-7"),
            (11, 1): ("0x1.2000000000000p-2", "0x0.0p+0"),
            (11, 7): ("0x1.7249249249249p-3", "0x1.a8ebee11f6828p-6"),
            (11, 500): ("0x1.1c4189374bc6ap-2", "0x1.27e0eb6d1f6acp-7"),
            (20260819, 1): ("0x1.2000000000000p-2", "0x0.0p+0"),
            (20260819, 7): ("0x1.4924924924925p-3", "0x1.4924924924925p-6"),
            (20260819, 500): ("0x1.1b645a1cac083p-2", "0x1.12d38e95f108bp-7"),
        },
        # fractional costs, D = 16 in both (3/16 and 3/2 at baiting 3/2,
        # 3/16 and 1/4 at observation 16): each sample is the walk's int
        # total over D, rounded as float of the exact cost rounds
        "baiting-3/2": {
            (1, 1): ("0x1.8000000000000p-3", "0x0.0p+0"),
            (1, 7): ("0x1.3b6db6db6db6ep-1", "0x1.97c1498c31f03p-2"),
            (1, 500): ("0x1.9cccccccccccdp-2", "0x1.291b6e1d0ac20p-6"),
            (11, 1): ("0x1.8000000000000p-2", "0x0.0p+0"),
            (11, 7): ("0x1.edb6db6db6db7p-3", "0x1.1b47f40bf9ac6p-5"),
            (11, 500): ("0x1.8be76c8b43958p-2", "0x1.0e67071890bffp-6"),
            (20260819, 1): ("0x1.8000000000000p-2", "0x0.0p+0"),
            (20260819, 7): ("0x1.b6db6db6db6dbp-3", "0x1.b6db6db6db6dcp-6"),
            (20260819, 500): ("0x1.7c8b439581062p-2", "0x1.8baff32bdbc45p-7"),
        },
        "observation-16": {
            (1, 1): ("0x1.0000000000000p-2", "0x0.0p+0"),
            (1, 7): ("0x1.1249249249249p-1", "0x1.f8fc68883e3cep-3"),
            (1, 500): ("0x1.049ba5e353f7dp-1", "0x1.17739c6b3ce43p-6"),
            (11, 1): ("0x1.0000000000000p-1", "0x0.0p+0"),
            (11, 7): ("0x1.4924924924925p-2", "0x1.79b545654ce5dp-5"),
            (11, 500): ("0x1.f95810624dd2fp-2", "0x1.0700d1448db43p-6"),
            (20260819, 1): ("0x1.0000000000000p-1", "0x0.0p+0"),
            (20260819, 7): ("0x1.2492492492492p-2", "0x1.2492492492493p-5"),
            (20260819, 500): ("0x1.f7ced916872b0p-2", "0x1.e8948bb53aba2p-7"),
        },
        # a winnable game: the solved policy walks every weather for free
        "game2": {key: ("0x0.0p+0", "0x0.0p+0")
                  for key in [(seed, trials) for seed in (1, 11, 20260819)
                              for trials in (1, 7, 500)]},
    }

    @pytest.mark.parametrize("name", ["baiting", "observation", "game2",
                                      "baiting-3/2", "observation-16"])
    def test_frozen(self, name):
        if name == "baiting":
            inst, policy = baiting_case()
        elif name == "baiting-3/2":
            inst, handle = baiting_harness(Fraction(3, 2))
            policy = reference_policy("baiting_pi", handle=handle,
                                      terminal=handle.exit_shortcut)
        elif name.startswith("observation"):
            inst, handle = observation_harness(
                16 if name == "observation-16" else 9, charge=0)
            policy = reference_policy("og_pi_g", handle=handle,
                                      terminal="charge")
        else:
            inst, _ = qbf_to_ctpdep(GAME_BATTERY[2][0])
            policy = solve(inst).policy
        for (seed, trials), want in self.FROZEN[name].items():
            mean, sem = simulate(inst, policy, trials, seed)
            assert (mean.hex(), sem.hex()) == want, (seed, trials)


def _uniform_below(stream, n):
    """The original rejection draw: whole 64-bit words, limit span - span % n."""
    if n == 1:
        return 0
    span, words = 1 << 64, 1
    while span < n:
        span <<= 64
        words += 1
    limit = span - span % n
    while True:
        value = 0
        for _ in range(words):
            value = (value << 64) | stream.next64()
        if value < limit:
            return value % n


def draw_rows(keys, ps):
    """`SplitMix64.hits` rows: chance `ps[i]` keyed by `keys[i]`."""
    return [(key, p.numerator, p.denominator) for key, p in zip(keys, ps)]


def bernoulli(stream, p):
    """One draw of chance `p` by the rule of `SplitMix64.hits`."""
    return bool(stream.hits(draw_rows([True], [p])))


def oracle_bernoulli(stream, p):
    """The original Bernoulli draw; 0 and 1 take no draw."""
    if p == 0:
        return False
    if p == 1:
        return True
    return _uniform_below(stream, p.denominator) < p.numerator


@st.composite
def chances(draw):
    den = draw(st.integers(min_value=1, max_value=2**70))
    return Fraction(draw(st.integers(min_value=0, max_value=den)), den)


@st.composite
def dyadic_chances(draw):
    den = 1 << draw(st.integers(min_value=1, max_value=64))
    return Fraction(draw(st.integers(min_value=0, max_value=den)), den)


@st.composite
def chance_lists(draw):
    """1 to 600 chances, cycling through up to 8 drawn ones: half the
    lists all dyadic, the rest mixing dyadic chances with any others."""
    chance = (dyadic_chances() if draw(st.booleans())
              else dyadic_chances() | chances())
    pool = draw(st.lists(chance, min_size=1, max_size=8))
    size = draw(st.integers(min_value=1, max_value=600))
    return [pool[i % len(pool)] for i in range(size)]


def is_dyadic(p):
    den = p.denominator
    return den & (den - 1) == 0 and den <= 2**64


class TestDrawRule:
    # all-dyadic lists make a dyadic table, whose one-edge reveals
    # `simulate` decides from one word; the rest mix in other denominators
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), chance_lists())
    def test_matches_uniform_below_oracle(self, seed, ps):
        oracle, fast = SplitMix64(seed), SplitMix64(seed)
        want = [oracle_bernoulli(oracle, p) for p in ps]
        assert [bernoulli(fast, p) for p in ps] == want
        assert fast._state == oracle._state
        # sample_weather over edges of these chances (edges need p < 1,
        # and a zero chance makes a sure edge that takes no draw)
        open_ps = [p for p in ps if p < 1]
        oracle = SplitMix64(seed)
        want = {f"e{i}" for i, p in enumerate(open_ps)
                if oracle_bernoulli(oracle, p)}
        stream = SplitMix64(seed)
        inst = chances_instance(open_ps)
        assert inst.draw_table[2] == all(is_dyadic(p) for p in open_ps if p)
        weather = sample_weather(inst, stream)
        assert set(inst.edges_in(weather.blocked)) == want
        assert stream._state == oracle._state

    @pytest.mark.parametrize("p", [
        Fraction(1, 3), Fraction(5, 7), Fraction(1, 2**64),
        Fraction(2**64 - 1, 2**64), Fraction(1, 2**64 - 59),
        Fraction(2**64 - 60, 2**64 - 59), Fraction(1, 2**64 + 1),
        Fraction(2**70 - 1, 2**70), Fraction(2), Fraction(-1)])
    def test_edge_denominators_match_oracle(self, p):
        for seed in range(64):
            oracle, fast = SplitMix64(seed), SplitMix64(seed)
            for _ in range(4):
                assert bernoulli(fast, p) == oracle_bernoulli(oracle, p)
            assert fast._state == oracle._state

    def test_certain_chances_take_no_draw(self):
        stream = SplitMix64(9)
        assert bernoulli(stream, Fraction(0)) is False
        assert bernoulli(stream, Fraction(1)) is True
        assert stream._state == SplitMix64(9)._state


class CountingPolicy(Policy):
    def __init__(self, inner):
        self.inner = inner
        self.decisions = 0

    def decide(self, instance, belief):
        self.decisions += 1
        return self.inner.decide(instance, belief)


class FirstOpen(Policy):
    """On `chances_instance`: take the first of `order` seen open, else
    the sure edge; with `force`, take `order[0]` whatever its status."""

    def __init__(self, order, force=False):
        self.order, self.force = order, force

    def decide(self, instance, belief):
        if belief.position == "t":
            return Action.halt()
        if self.force:
            return Action.move(self.order[0])
        return Action.move(next((e for e in self.order if belief.status(e)),
                                "sure"))


class OpenEdge(Policy):
    """On `chances_instance([1/2] * 3)`: take e0, e1 or e2 seen open,
    else declare the weather infeasible."""

    def decide(self, instance, belief):
        if belief.position == "t":
            return Action.halt()
        for e in ("e0", "e1", "e2"):
            if belief.status(e):
                return Action.move(e)
        return None


class Bounce(Policy):
    """Hop back and forth along `hop` forever, never reaching t."""

    def decide(self, instance, belief):
        return Action.move("hop")


def bounce_instance():
    """s -hop- m, and at m two coins whose statuses the bounce reveals."""
    b = InstanceBuilder(Variant.INDEPENDENT)
    b.set_endpoints("s", "t")
    b.add_edge("s", "m", 1, id="hop")
    b.add_edge("m", "t", 1, id="c0", block_p=Fraction(1, 2))
    b.add_edge("m", "t", 1, id="c1", block_p=Fraction(1, 3))
    return b.build()


def simulation_case(name):
    """An instance and a policy for `simulate`, covering every way a
    trajectory node decides its bits."""
    if name == "baiting":  # one fresh edge at a time, dyadic
        return baiting_case()
    if name == "observation":
        inst, handle = observation_harness(9, charge=0)
        return inst, reference_policy("og_pi_g", handle=handle,
                                      terminal="charge")
    if name == "non-dyadic":  # whole weathers from `hits`
        inst = chances_instance(
            [Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)])
        return inst, FirstOpen(["e2", "e0", "e1"])
    if name == "dyadic-star":  # 300 edges at once: the whole draw
        cycle = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]
        inst = chances_instance([cycle[i % 3] for i in range(300)])
        return inst, FirstOpen([f"e{i}" for i in (299, 3, 255, 256, 17)])
    if name == "game2":  # a net, and a solved decision tree
        inst, _ = qbf_to_ctpdep(GAME_BATTERY[2][0])
        return inst, solve(inst).policy
    inst = vc_to_sensing(named_vc("p3", 1), Fraction(1, 2))[0]
    return inst, solve(inst).policy


class RecordingPolicy(Policy):
    def __init__(self, inner, path):
        self.inner, self.path = inner, path

    def decide(self, instance, belief):
        self.path.append((belief.position, belief.opened, belief.blocked))
        return self.inner.decide(instance, belief)


def oracle_simulate(inst, policy, trials, seed):
    """Walk every trial's whole weather: `simulate`'s (mean, sem), every
    trial's decide calls, and the distinct decide points among them."""
    samples, points, calls = [], set(), 0
    for trial in range(trials):
        path = []
        counted = CountingPolicy(policy)
        weather = sample_weather(inst, trial_stream(seed, trial))
        cost = walk_weather(inst, RecordingPolicy(counted, path), weather)
        calls += counted.decisions
        points.update(enumerate(path))
        samples.append(float(cost.fraction))
    mean = math.fsum(samples) / trials
    sem = 0.0 if trials == 1 else math.sqrt(
        math.fsum((x - mean) ** 2 for x in samples) / (trials - 1) / trials)
    return (mean, sem), calls, len(points)


def walk_error(inst, policy, seed, trials, error):
    """The message of the first trial's walk that raises `error`."""
    for trial in range(trials):
        weather = sample_weather(inst, trial_stream(seed, trial))
        try:
            walk_weather(inst, policy, weather)
        except error as exc:
            return str(exc)
    raise AssertionError("no trial raised")


class TestWeatherMemo:
    """`simulate`'s blocks of trials against walking every trial's whole
    weather, with every trial in one block and in blocks of 1 and 4."""

    @pytest.mark.parametrize("block", [None, 1, 4])
    @pytest.mark.parametrize("name", ["baiting", "observation", "non-dyadic",
                                      "dyadic-star", "game2", "sensing"])
    def test_matches_the_per_trial_oracle(self, monkeypatch, name, block):
        inst, policy = simulation_case(name)
        if block is not None:
            monkeypatch.setattr(policy_module, "_TRIAL_BLOCK", block)
        for seed in (4, 20260819):
            for trials in (1, 2, 300):
                want, calls, points = oracle_simulate(inst, policy, trials,
                                                      seed)
                counted = CountingPolicy(policy)
                got = simulate(inst, counted, trials, seed)
                assert (got[0].hex(), got[1].hex()) == (
                    want[0].hex(), want[1].hex()), (seed, trials)
                # each decide point is walked once in its block, and every
                # trial walks alone in blocks of 1
                if block is None:
                    assert counted.decisions == points
                elif block == 1:
                    assert counted.decisions == calls
                else:
                    assert points <= counted.decisions <= calls

    @pytest.mark.parametrize("name", ["baiting", "observation", "non-dyadic",
                                      "dyadic-star", "game2", "sensing"])
    def test_decides_in_trial_order_at_first_visits(self, name):
        # the walk of a group runs when its first trial's would, walking
        # the trials one by one: `decide` sees each point of the trials'
        # paths (its step and belief) once, in the order of first visits
        inst, policy = simulation_case(name)
        for seed in (4, 20260819):
            want, seen = [], set()
            for trial in range(300):
                path = []
                walk_weather(inst, RecordingPolicy(policy, path),
                             sample_weather(inst, trial_stream(seed, trial)))
                for point in enumerate(path):
                    if point not in seen:
                        seen.add(point)
                        want.append(point[1])
            got = []
            simulate(inst, RecordingPolicy(policy, got), 300, seed)
            assert got == want, seed

    @pytest.mark.parametrize("name", ["non-dyadic", "dyadic-star"])
    def test_whole_draws_once_per_trial_across_blocks(self, monkeypatch,
                                                      name):
        # s shows several edges at once, so every trial draws its whole
        # weather, once, whichever of the 75 blocks of 4 it falls in
        inst, policy = simulation_case(name)
        want = oracle_simulate(inst, policy, 300, 4)[0]
        draws = []

        def counted(instance, stream):
            draws.append(stream._state)
            return sample_weather(instance, stream)

        monkeypatch.setattr(policy_module, "sample_weather", counted)
        monkeypatch.setattr(policy_module, "_TRIAL_BLOCK", 4)
        got = simulate(inst, policy, 300, 4)
        assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())
        assert draws == [trial_stream(4, trial)._state
                         for trial in range(300)]

    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_step_cap_message_matches_walk_weather(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(policy_module, "_TRIAL_BLOCK", block)
        inst = bounce_instance()
        for seed in range(6):
            want = walk_error(inst, Bounce(), seed, 1, EnumerationCapError)
            assert want.startswith("no arrival within 64 steps; last at ")
            with pytest.raises(EnumerationCapError) as caught:
                simulate(inst, Bounce(), 40, seed)
            assert str(caught.value) == want

    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_illegal_step_message_matches_walk_weather(self, monkeypatch,
                                                       block):
        if block is not None:
            monkeypatch.setattr(policy_module, "_TRIAL_BLOCK", block)
        for chances in ([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)],
                        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 8)]):
            inst = chances_instance(chances)
            policy = FirstOpen(["e1"], force=True)
            for seed in range(30):
                want = walk_error(inst, policy, seed, 64,
                                  InvalidInstanceError)
                with pytest.raises(InvalidInstanceError) as caught:
                    simulate(inst, policy, 64, seed)
                assert str(caught.value) == want

    def test_infeasible_weather_names_its_first_trial(self):
        # all three edges blocked is infeasible; under seed 16 that weather
        # first shows at trial 36, after 29 repeats of the other seven
        inst = chances_instance([Fraction(1, 2)] * 3)
        seen = []
        for trial in range(100):
            blocked = sample_weather(inst, trial_stream(16, trial)).blocked
            if inst.edges_in(blocked) == ["e0", "e1", "e2"]:
                break
            seen.append(blocked)
        assert trial == 36
        assert len(seen) - len(set(seen)) == 29
        with pytest.raises(InvalidInstanceError, match=r"^trial 36 "):
            simulate(inst, OpenEdge(), 100, seed=16)

    def test_infeasible_trial_is_numbered_across_blocks(self, monkeypatch):
        # in blocks of 5, trial 36 is the second trial of the block from 35
        monkeypatch.setattr(policy_module, "_TRIAL_BLOCK", 5)
        inst = chances_instance([Fraction(1, 2)] * 3)
        with pytest.raises(InvalidInstanceError, match=r"^trial 36 "):
            simulate(inst, OpenEdge(), 100, seed=16)

    def test_memory_grows_only_by_the_samples(self):
        # past the first blocks a trial adds one reference to the samples
        # list: its groups, counter and draw go with its block, and the
        # trials of a group share their cost's float
        inst, policy = baiting_case()
        simulate(inst, policy, 8, 7)  # fill the instance's lazy tables

        def peak(trials):
            tracemalloc.start()
            try:
                simulate(inst, policy, trials, 7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(8_192), peak(40_000)
        assert large - small <= 8 * (40_000 - 8_192) + 64 * 1024, (
            small, large)


def oracle_net(stream, parents, cpts):
    """Ancestral sampling, one `oracle_bernoulli` per variable: variable
    i draws `cpts[i][r]`, where bit j of r is the outcome of variable
    `parents[i][j]`. Returns every outcome."""
    values = []
    for pa, cpt in zip(parents, cpts):
        row = sum(values[k] << j for j, k in enumerate(pa))
        values.append(oracle_bernoulli(stream, cpt[row]))
    return values


# denominators at the edges of the draw rule: 1 takes no word, 2^63 + 1
# rejects about half of all words, 2^64 - 1 rejects one word value, and
# those above 2^64 go through `uniform_below`
HARD_DENOMINATORS = [1, 2, 3, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**70]


@st.composite
def hard_chances(draw):
    den = draw(st.sampled_from(HARD_DENOMINATORS)
               | st.integers(min_value=1, max_value=2**70))
    return Fraction(draw(st.integers(min_value=0, max_value=den)), den)


class TestBatchedDraws:
    """`hits` draws whole tables and nets row by row; every table must
    match one scalar oracle draw per row, word for word."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.lists(hard_chances(), max_size=300))
    def test_tables_match_scalar_oracle(self, seed, ps):
        oracle, fast = SplitMix64(seed), SplitMix64(seed)
        want = [i for i, p in enumerate(ps) if oracle_bernoulli(oracle, p)]
        assert fast.hits(draw_rows(range(len(ps)), ps)) == want
        assert fast._state == oracle._state

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 255, 256, 257, 300])
    @pytest.mark.parametrize("den", [2, 2**63 + 1, 2**64 - 1])
    def test_long_tables_refill_in_order(self, size, den):
        # with 2^63 + 1 about half of all words are redrawn, so a table
        # takes far more words than it has rows
        ps = [Fraction(i % den, den) for i in range(size)]
        for seed in range(8):
            oracle, fast = SplitMix64(seed), SplitMix64(seed)
            want = [i for i, p in enumerate(ps) if oracle_bernoulli(oracle, p)]
            got = fast.hits(draw_rows(range(len(ps)), ps))
            assert got == want
            assert fast._state == oracle._state

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 255, 256, 257, 600])
    def test_dyadic_tables_decide_by_lanes(self, size):
        # dyadic tables, whose rows take one word each: denominators 2^1
        # to 2^64 in turn with 2^64 - 1 over 2^64 last
        ps = [Fraction((2 * i + 1) % (1 << k), 1 << k)
              for i in range(size) for k in [1 + i % 64]]
        ps[-1] = Fraction(2**64 - 1, 2**64)
        for seed in range(8):
            oracle, fast = SplitMix64(seed), SplitMix64(seed)
            want = sum(1 << i for i, p in enumerate(ps)
                       if oracle_bernoulli(oracle, p))
            rows = draw_rows([1 << i for i in range(size)], ps)
            assert sum(fast.hits(rows)) == want
            assert fast._state == oracle._state

    def test_wide_and_certain_rows_inside_a_batch(self):
        # rows that take no word or more than one sit between one-word rows
        ps = []
        for i in range(40):
            ps += [Fraction(1, 3), Fraction(i % 2), Fraction(i, 2**64 + 1),
                   Fraction(2**63, 2**63 + 1), Fraction(1)]
        for seed in range(16):
            oracle, fast = SplitMix64(seed), SplitMix64(seed)
            want = [i for i, p in enumerate(ps) if oracle_bernoulli(oracle, p)]
            assert fast.hits(draw_rows(range(len(ps)), ps)) == want
            assert fast._state == oracle._state

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.data())
    def test_nets_match_scalar_oracle(self, seed, data):
        # a random net with up to two parents per variable; even variables
        # are keyed None, as auxiliary coins are
        size = data.draw(st.integers(min_value=0, max_value=40))
        parents = [tuple(sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=i - 1), max_size=2))))
            if i else () for i in range(size)]
        cpts = [[data.draw(hard_chances()) for _ in range(1 << len(pa))]
                for pa in parents]
        rows = [tuple(draw_rows([i if i % 2 else None] * len(cpt), cpt))
                for i, cpt in enumerate(cpts)]
        oracle, fast = SplitMix64(seed), SplitMix64(seed)
        values = oracle_net(oracle, parents, cpts)
        want = [i for i, hit in enumerate(values) if hit and i % 2]
        assert fast.hits(rows, parents) == want
        assert fast._state == oracle._state

    @pytest.mark.parametrize("game", range(len(GAME_BATTERY)))
    def test_battery_nets_match_scalar_oracle(self, game):
        inst = qbf_to_ctpdep(GAME_BATTERY[game][0])[0]
        net = inst.dependency.variables
        position = {v.id: i for i, v in enumerate(net)}
        parents = [[position[p] for p in v.parents] for v in net]
        uncertain = {e.id for e in inst.uncertain_edges}
        for trial in range(64):
            oracle, fast = trial_stream(7, trial), trial_stream(7, trial)
            values = oracle_net(oracle, parents, [v.cpt for v in net])
            blocked = sample_weather(inst, fast).blocked
            assert set(inst.edges_in(blocked)) == {
                v.id for v, hit in zip(net, values)
                if hit and v.id in uncertain}
            assert fast._state == oracle._state


def dyadic_table(size):
    """`chances_instance` of `size` dyadic chances, denominators 2^1 to
    2^64 in turn and 2^64 - 1 over 2^64 last."""
    ps = [Fraction((2 * i + 1) % (1 << k), 1 << k)
          for i in range(size) for k in [1 + i % 64]]
    ps[-1] = Fraction(2**64 - 1, 2**64)
    return chances_instance(ps)


DYADIC_TABLES = {size: dyadic_table(size)
                 for size in (1, 7, 255, 256, 257, 600)}


class TestRevealRule:
    """A group of trials decides a one-edge reveal from each trial's
    counter alone; that must equal each whole weather's draw on that
    edge. Any other reveal has no rule and takes the whole draw."""

    @pytest.mark.parametrize("size", sorted(DYADIC_TABLES))
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    max_size=5), st.data())
    def test_one_edge_matches_lane_hits(self, size, states, data):
        inst = DYADIC_TABLES[size]
        # any row, and often the first, the last, or rows 255 and 256
        row = data.draw(st.integers(min_value=0, max_value=size - 1)
                        | st.sampled_from([r for r in (0, 255, 256, size - 1)
                                           if r < size]))
        whole = [sample_weather(inst, SplitMix64(state)).blocked
                 for state in states]
        assert reveal_rule(inst, 1 << row, states) == [
            bool(blocked & 1 << row) for blocked in whole]

    def test_other_reveals_have_no_rule(self):
        for inst in (sampling_case("non-dyadic"), sampling_case("game1")):
            assert reveal_rule(inst, 0b1, [12345]) is None
            assert reveal_rule(inst, 0b11, [12345]) is None
        assert reveal_rule(DYADIC_TABLES[7], 0b101, [12345]) is None
        assert reveal_rule(DYADIC_TABLES[7], 0b100, []) == []
