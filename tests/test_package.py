"""Package surface: exported names, submodule access, no bare asserts."""
import ast
import importlib
import types
from pathlib import Path

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


def test_no_assert_statements_in_src():
    # python -O strips asserts, so a check that must hold raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
