"""Fixtures shared by the test modules."""
import functools

import pytest

import ctplab.cli
from ctplab.cli import GAME_BATTERY
from ctplab.policy import evaluate_exact
from ctplab.reductions import qbf_to_ctpdep
from ctplab.solve import solve
from oracles import traced_evaluate


@pytest.fixture(autouse=True)
def traced_tree_mode(request, monkeypatch):
    """Every tree-mode `evaluate_exact` that a test makes, by name in its
    module or through the CLI, is checked against the depth-first outcome
    walk (`oracles.traced_evaluate`)."""
    for module in (ctplab.cli, request.module):
        if getattr(module, "evaluate_exact", None) is evaluate_exact:
            monkeypatch.setattr(module, "evaluate_exact", traced_evaluate)


@pytest.fixture(scope="session")
def solve_battery_game():
    """`solve` of ctpdep battery game k, computed once per test session.

    The acceptance battery and the frozen solves check the same optima;
    games 5 and 7 take over a second each to solve.
    """
    return functools.cache(
        lambda k: solve(qbf_to_ctpdep(GAME_BATTERY[k][0])[0]))
