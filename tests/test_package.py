"""Package surface: exported names and access to the submodules."""
import importlib
import types

import pytest

import ctplab

MODULES = ("cli", "gadgets", "model", "policy", "reductions", "solve")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"ctplab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exist():
    assert [n for n in ctplab.__all__ if not hasattr(ctplab, n)] == []


def test_solve_submodule_is_not_shadowed():
    import ctplab.solve as S

    assert isinstance(S, types.ModuleType)
    assert callable(S.solve)
