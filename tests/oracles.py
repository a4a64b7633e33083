"""Oracles the tests compare the package against, kept out of `src/`.

No code of the package calls these; each restates a result the package
computes another way, and the tests that import them check that the two
agree:
- `instance_to_dict` builds the JSON document that `instance_to_json`
  writes, as plain values for `json.dumps`;
- `trial_stream` is the stream of one Monte Carlo trial, which
  `simulate` and the sampling tests draw from;
- `decomposed_cost` and `chain_early_exit_expectation` split a reference
  policy's closed-form cost by outcome;
- `outcome_breakdown` writes an evaluation's breakdown rows with text
  labels, which the frozen breakdown digests are taken over;
- `walked_solve` walks the tree of a solve's own search step by step
  (`export_decision_tree`), where `solve` writes it from a graph of
  its keys (`export_keyed_tree`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

import pytest

import ctplab.solve as S
from ctplab.model import (
    Cost,
    CtpInstance,
    InvalidInstanceError,
    SplitMix64,
    _rational_texts,
    _sections,
    as_fraction,
    trial_counters,
)
from ctplab.policy import (
    _LABEL_WORDS,
    DecisionTreePolicy,
    EvalResult,
    _text,
    export_decision_tree,
)


def instance_to_dict(instance: CtpInstance) -> dict:
    """The JSON document of `instance` as plain values: what
    `instance_to_json` writes, and the oracle its tests compare it with."""
    text = _rational_texts()
    return {
        "variant": instance.variant.value,
        "s": instance.s,
        "t": instance.t,
        "vertices": list(instance.vertices),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "directed": e.directed,
                "cost": text(e.cost._value)[1:-1],
                "block_p": text(e.block_p)[1:-1],
            }
            for e in instance.edges
        ],
        **_sections(instance, text),
    }


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """The stream of trial `trial` under `seed`."""
    (counter,) = trial_counters(seed, (trial,))
    return SplitMix64(counter)


def outcome_breakdown(result: EvalResult,
                      ) -> tuple[tuple[str, Fraction, Cost], ...]:
    """The rows of `result`, each event written `id=open,id=blocked ; ...`
    (ids sorted within an outcome), or "no observations" when it shows
    nothing; each outcome's text is written once."""
    text = cache(partial(_text, result.instance))
    return tuple((" ; ".join(text(*masks, _LABEL_WORDS)
                             for masks in event) or "no observations",
                  p, cost) for event, p, cost in result.rows)


def walked_solve(instance: CtpInstance, belief_cap: int = S.BELIEF_CAP,
                 ) -> tuple[S.OptResult, EvalResult, DecisionTreePolicy]:
    """`solve(instance, belief_cap)`, then `export_decision_tree` of the
    solver whose keys that solve wrote its tree from: the walk prices and
    writes the same policy one tree node at a time."""
    solvers = []
    keyed = S.export_keyed_tree

    def recorded(instance, key, choose):
        solvers.append(key.__self__)
        return keyed(instance, key, choose)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "export_keyed_tree", recorded)
        result = S.solve(instance, belief_cap)
    return (result, *export_decision_tree(instance, solvers[0]))


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
        raise InvalidInstanceError("need at least one copy")
    acc = early_exit
    for k in range(2, copies + 1):
        acc = early_exit + passing * (
            (1 - passing ** (k - 1)) * walk + acc)
    return acc
