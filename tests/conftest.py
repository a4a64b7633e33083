"""Fixtures shared by the test modules."""
import functools

import pytest

from ctplab.cli import GAME_BATTERY
from ctplab.reductions import qbf_to_ctpdep
from ctplab.solve import solve


@pytest.fixture(scope="session")
def solve_battery_game():
    """`solve` of ctpdep battery game k, computed once per test session.

    The acceptance battery and the frozen solves check the same optima;
    games 5 and 7 take over a second each to solve.
    """
    return functools.cache(
        lambda k: solve(qbf_to_ctpdep(GAME_BATTERY[k][0])[0]))
