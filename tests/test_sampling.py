"""Weather sampling and seeded simulation, frozen bit for bit.

The blocked sets `sample_weather` draws, the stream state it leaves
behind, and the `(mean, sem)` pairs `simulate` returns are pinned at the
values of the original `Fraction`-and-`uniform_below` draw. A faster draw
rule or a weather memo must reproduce every one of them exactly. The draw
rule is also checked against that original rule, kept here as the slow
oracle.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ctplab.policy as policy_module
from ctplab.cli import GAME_BATTERY
from ctplab.gadgets import baiting_harness, observation_harness
from ctplab.model import (
    InstanceBuilder,
    InvalidInstanceError,
    SplitMix64,
    Variant,
    _draw_row,
    sample_weather,
    trial_stream,
)
from ctplab.policy import (
    Action,
    Policy,
    reference_policy,
    simulate,
)
from ctplab.reductions import qbf_to_ctpdep
from ctplab.solve import solve


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
                lines.append(",".join(sorted(weather.blocked)) + "\t"
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
        # a winnable game: the solved policy walks every weather for free
        "game2": {key: ("0x0.0p+0", "0x0.0p+0")
                  for key in [(seed, trials) for seed in (1, 11, 20260819)
                              for trials in (1, 7, 500)]},
    }

    @pytest.mark.parametrize("name", ["baiting", "observation", "game2"])
    def test_frozen(self, name):
        if name == "baiting":
            inst, policy = baiting_case()
        elif name == "observation":
            inst, handle = observation_harness(9, charge=0)
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


def bernoulli(stream, p):
    """One draw of chance `p` by the rule of `SplitMix64.hits`."""
    return bool(stream.hits((_draw_row(True, p),)))


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


class TestDrawRule:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.lists(chances(), min_size=1, max_size=8))
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
        weather = sample_weather(chances_instance(open_ps), stream)
        assert weather.blocked == want
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


def counting(monkeypatch, name):
    """Record the result of each call to `policy_module.<name>`."""
    calls = []
    original = getattr(policy_module, name)

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(policy_module, name, counted)
    return calls


class TestWeatherMemo:
    def test_each_distinct_weather_is_walked_once(self, monkeypatch):
        inst, policy = baiting_case()
        plain = simulate(inst, policy, 2048, seed=3)
        walks = counting(monkeypatch, "walk_weather")
        draws = counting(monkeypatch, "sample_weather")
        counted = CountingPolicy(policy)
        assert simulate(inst, counted, 2048, seed=3) == plain
        assert len(draws) == 2048
        distinct = {weather.blocked for weather in draws}
        assert len(walks) == len(distinct) <= 128
        assert counted.decisions < 2048

    def test_bounded_memo_gives_the_same_result(self, monkeypatch):
        inst, policy = baiting_case()
        plain = simulate(inst, policy, 600, seed=5)
        monkeypatch.setattr(policy_module, "_WEATHER_MEMO_CAP", 4)
        walks = counting(monkeypatch, "walk_weather")
        assert simulate(inst, policy, 600, seed=5) == plain
        assert 128 < len(walks) < 600

    def test_infeasible_weather_names_its_first_trial(self):
        # all three edges blocked is infeasible; under seed 16 that weather
        # first shows at trial 36, after 29 repeats of the other seven
        inst = chances_instance([Fraction(1, 2)] * 3)

        class Rule(Policy):
            def decide(self, instance, belief):
                if belief.position == "t":
                    return Action.halt()
                for e in ("e0", "e1", "e2"):
                    if belief.status(e):
                        return Action.move(e)
                return None

        seen = []
        for trial in range(100):
            blocked = sample_weather(inst, trial_stream(16, trial)).blocked
            if blocked == {"e0", "e1", "e2"}:
                break
            seen.append(blocked)
        assert trial == 36
        assert len(seen) - len(set(seen)) == 29
        with pytest.raises(InvalidInstanceError, match=r"^trial 36 "):
            simulate(inst, Rule(), 100, seed=16)
