"""Package surface: exported names, submodule access, no bare asserts."""
import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import ctplab

MODULES = ("cli", "gadgets", "model", "policy", "reductions", "solve")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"ctplab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_library_example_runs():
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


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


def _scopes_naming(node: ast.AST, name: str, scope: str = "<module>"):
    """The innermost function around each reference to `name`."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name):
            yield scope
        yield from _scopes_naming(
            child, name, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)


def test_one_stepping_loop():
    # `_walk` is the package's only stepping loop: `walk_weather` and
    # `simulate` both step a policy through it, so they share one loop
    # rule and one loop message. The pricing walk, behind `evaluate_exact`
    # and every export, takes one step per graph node, through the same
    # move rule, and loops over none
    callers = [f"{path.name}:{scope}"
               for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
               for scope in _scopes_naming(ast.parse(path.read_text()),
                                           "_step")]
    assert callers == ["policy.py:_walk", "policy.py:price_keyed_graph"]


def _scopes_spelling(node: ast.AST, text: str, scope: str = "<module>"):
    """The innermost function around each string constant holding `text`."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                and text in child.value):
            yield scope
        yield from _scopes_spelling(
            child, text, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)


def test_one_loop_message():
    # a policy that comes back to a belief with nothing revealed loops,
    # and both walks refuse it with one error, spelled in one helper:
    # `_walk` when it stands on a position twice, the pricing walk when
    # it meets one of its nodes again below itself
    spelled = [f"{path.name}:{scope}"
               for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
               for scope in _scopes_spelling(ast.parse(path.read_text()),
                                             "loops through")]
    assert spelled == ["policy.py:_loop_error"]
    tree = ast.parse((Path(ctplab.__file__).parent / "policy.py").read_text())
    assert list(_scopes_calling(tree, "_loop_error")) == [
        "_walk", "price_keyed_graph"]


def test_one_tree_writer():
    # every explicit policy is written by `export_keyed_graph`, one node
    # per graph node, and read back by `DecisionTreePolicy.from_dict`;
    # `export_decision_tree` and `solve` both write through the first. A
    # tree node per belief is written only by `unrolled`, for `to_json`,
    # and the module level only annotates
    scopes = [f"{path.name}:{scope}"
              for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
              for scope in _scopes_naming(ast.parse(path.read_text()),
                                          "TreeNode")]
    assert sorted(set(scopes)) == ["policy.py:<module>",
                                   "policy.py:export_keyed_graph",
                                   "policy.py:from_dict",
                                   "policy.py:unrolled"]


def test_one_mix():
    # `_mix64` is the package's only SplitMix64 mix: every word a weather
    # draws and every trial counter is mixed there, one word at a time
    # (`next64`) or a block's counters or a group's one-edge words at
    # once, one to a lane (`trial_counters`, `reveal_rule`)
    for constant in ("_MIX1", "_MIX2"):
        scopes = [f"{path.name}:{scope}"
                  for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
                  for scope in _scopes_naming(ast.parse(path.read_text()),
                                              constant)]
        assert scopes == ["model.py:<module>", "model.py:_mix64"], constant


def _called(call: ast.Call) -> tuple[set, list[ast.expr]]:
    """The names of the function `call` calls, `map(f, ...)` calling f,
    and the arguments it passes that function."""
    func, args = call.func, call.args
    if getattr(func, "id", None) == "map" and args:
        func, args = args[0], args[1:]
    return {getattr(func, "id", None), getattr(func, "attr", None)}, args


def _scopes_calling(node: ast.AST, name, scope: str = "<module>"):
    """The innermost function, with its class, around each call of `name`,
    `map(name, ...)` included, or around each call that `name`, a test of
    an `ast.Call`, accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and (
                name(child) if callable(name) else name in _called(child)[0]):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = (child.name if scope == "<module>"
                     else f"{scope}.{child.name}")
        yield from _scopes_calling(child, name, inner)


def test_one_cost_unit():
    # D, the lcm of the cost and fee denominators, is taken in
    # `CtpInstance.cost_unit` alone: the walks, the tree writer and the
    # search all read it there, so a wrong D shows in all of them. The
    # other lcm is a joint component's total, over its chances, and Z is
    # the product of the totals
    scopes = [f"{path.name}:{scope}"
              for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
              for scope in _scopes_calling(ast.parse(path.read_text()),
                                           "lcm")]
    assert scopes == ["model.py:_component_table",
                      "model.py:CtpInstance.cost_unit"]


def test_one_pricing_walk():
    # `price_keyed_graph` is the package's one walk over a policy's
    # outcomes: `evaluate_exact`, `export_decision_tree` and `solve` all
    # price through it. In policy.py only it asks `CtpInstance.outcomes`
    # for branch tables, and only it and `_step` divide through `times`;
    # the weather walks read no branch table
    tree = ast.parse((Path(ctplab.__file__).parent / "policy.py").read_text())
    assert list(_scopes_calling(tree, "outcomes")) == ["price_keyed_graph"]
    assert list(_scopes_calling(tree, "times")) == ["_step",
                                                   "price_keyed_graph"]


def test_one_way_into_the_search():
    # a patch is solved only by the search: the sum of a revealing step,
    # and `solve` finishing the outcomes at s past one that strands the
    # walker. The export reads the patches the search solved, so its time
    # is export alone and a RecursionError in any patch solve is caught
    callers = [f"{path.name}:{scope}"
               for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
               for scope in _scopes_calling(ast.parse(path.read_text()),
                                            "region")]
    assert callers == ["solve.py:_Solver.branch_value", "solve.py:solve"]


def _functions(node: ast.AST, scope: str = ""):
    """Each function under `node` by its dotted name, with its class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{scope}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, f"{name}.")


def test_one_chance_unit():
    # a chance on the search's and the walks' path is an int weight over
    # an int total, as `JointModel.branch` returns it: each consumer
    # divides once, in ints, through `times`, and no Fraction comes back
    chance_path = {"model.py:JointModel.branch",
                   "solve.py:_Solver.branch_value",
                   "policy.py:price_keyed_graph",
                   "policy.py:export_keyed_graph"}
    banned = {"Fraction", "as_integer_ratio", "numerator", "denominator"}
    found, named = set(), []
    for path in sorted(Path(ctplab.__file__).parent.glob("*.py")):
        for name, function in _functions(ast.parse(path.read_text())):
            where = f"{path.name}:{name}"
            if where not in chance_path:
                continue
            found.add(where)
            named += [(where, getattr(node, "id", None) or node.attr)
                      for node in ast.walk(function)
                      if isinstance(node, (ast.Name, ast.Attribute))
                      and {getattr(node, "id", None),
                           getattr(node, "attr", None)} & banned]
    assert found == chance_path
    assert named == []


def test_one_exact_division():
    # `model.times` is the package's one exact division of ints: a cost
    # in units of 1/D, an outcome's share of a weight and a value moved
    # to another M(K) all go through it, so each raises the same text on
    # a remainder
    scopes = [f"{path.name}:{scope}"
              for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
              for scope in _scopes_calling(ast.parse(path.read_text()),
                                           "divmod")]
    assert scopes == ["model.py:times"]


def _makes_edge(call: ast.Call) -> bool:
    """Whether `call` makes an `EdgeSpec`: calls the class or its
    `_make`, copies an edge by `_replace`, or calls `tuple.__new__` on the
    class, once or mapped over `repeat(EdgeSpec)`."""
    names, args = _called(call)
    if names & {"EdgeSpec", "_make", "_replace"}:
        return True
    first = args[0] if args else None
    if (isinstance(first, ast.Call)
            and getattr(first.func, "id", None) == "repeat" and first.args):
        first = first.args[0]
    return "__new__" in names and getattr(first, "id", None) == "EdgeSpec"


def test_two_edge_building_paths():
    # an edge is built by the builder, a run at a time, or by the loader,
    # each with its own fast path; a third path would have to be made
    # fast again
    callers = [f"{path.name}:{scope}"
               for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
               for scope in _scopes_calling(ast.parse(path.read_text()),
                                            _makes_edge)]
    assert callers == ["model.py:InstanceBuilder.add_edges",
                       "model.py:instance_from_dict"]
    # the scan sees each form an edge can be made in
    forms = ("EdgeSpec('e', 'a', 'b', cost)", "EdgeSpec._make(fields)",
             "edge._replace(cost=cost)", "tuple.__new__(EdgeSpec, fields)",
             "map(tuple.__new__, repeat(EdgeSpec), rows)",
             "map(EdgeSpec, ids, tails, heads)")
    for form in forms:
        tree = ast.parse(f"def third():\n    return {form}")
        assert list(_scopes_calling(tree, _makes_edge)) == ["third"], form
    assert list(_scopes_calling(ast.parse(
        "tuple.__new__(TreeNode, fields)"), _makes_edge)) == []


def test_writer_builds_no_document_dict():
    # `instance_to_json` writes each edge once, straight from its EdgeSpec;
    # `instance_to_dict`, the document as a dict, is the oracle its tests
    # compare it with, and lives with them in tests/oracles.py
    callers = [f"{path.name}:{scope}"
               for path in sorted(Path(ctplab.__file__).parent.glob("*.py"))
               for scope in _scopes_calling(ast.parse(path.read_text()),
                                            "instance_to_dict")]
    assert callers == []


def test_gadget_names_are_spelled_in_gadgets_alone():
    # the game graph and the checks read a gadget's edge ids off the
    # handle its builder returns, never by spelling them again
    suffixes = (".path", ".bg1", ".bg2", ".bg3", ".block_out", ".block_in",
                ".spur_out", ".spur_in", ".sneak")
    found = [f"{name}:{node.lineno}:{node.value}"
             for name in ("reductions.py", "cli.py")
             for node in ast.walk(ast.parse(
                 (Path(ctplab.__file__).parent / name).read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(suffix in node.value for suffix in suffixes)]
    assert found == []


def _strings_by_statement(node: ast.AST, stmt: ast.stmt | None = None):
    """(innermost statement, text) for each string constant under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield stmt, child.value
        yield from _strings_by_statement(
            child, child if isinstance(child, ast.stmt) else stmt)


def test_dependent_game_names_are_spelled_once():
    # the dependent game graph spells each id where it adds that edge or
    # vertex, and its walker reads the ids the build returned; a second
    # naming pass would spell them again
    fragments = (".obs.", ".step", ".done", "exam.go.", "exam.choice.",
                 "exam.flunk.", "exam.exit.")
    spelled: dict[str, set[int]] = {fragment: set() for fragment in fragments}
    for stmt, text in _strings_by_statement(ast.parse(
            (Path(ctplab.__file__).parent / "reductions.py").read_text())):
        for fragment in fragments:
            if fragment in text:
                spelled[fragment].add(stmt.lineno)
    assert {fragment: sorted(lines) for fragment, lines in spelled.items()
            if len(lines) != 1} == {}


def test_three_exception_classes():
    # one class per exit code: bad input 2, a cap 3, a broken invariant 1
    defined = {(value.__module__, value.__qualname__)
               for name in MODULES
               for value in vars(importlib.import_module(
                   f"ctplab.{name}")).values()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__.startswith("ctplab")}
    assert defined == {("ctplab.model", "EnumerationCapError"),
                       ("ctplab.model", "InternalCheckError"),
                       ("ctplab.model", "InvalidInstanceError")}


def test_main_handles_by_class_alone():
    source = (Path(ctplab.__file__).parent / "cli.py").read_text()
    main = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = [ast.unparse(handler.type) for node in ast.walk(main)
               if isinstance(node, ast.Try) for handler in node.handlers]
    assert handled == ["InternalCheckError", "EnumerationCapError",
                       "(ValueError, OSError)"]


def _defined_names(tree: ast.Module):
    """(name, whether it is a class member) of the functions and classes
    a module defines, their methods and the names it assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, True) for item in node.body
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.ClassDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((name.id, False) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _references(tree: ast.Module, names: set[str], members: set[str]):
    """Add the names `tree` reads to `names`, and the attributes it takes
    and the strings it writes to both (the benchmark's tracer names what
    it patches as strings). The strings of an `__all__` list export a
    name; they do not use it."""
    body = [node for node in tree.body
            if not (isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__"
                            for target in node.targets))]
    for node in ast.walk(ast.Module(body, [])):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)


# Names no code of the package calls, kept because a test compares the
# code that does the work against them: the name, then that test.
TEST_ORACLES = {
    "observation_early_exit_expectation":
        "test_policy.py::TestObservationPolicy::test_two_derivations_agree",
    "assignment_walk_policy": "test_reductions.py::TestDependentGame"
                              "::test_walk_policy_is_free_on_winnable_games",
    "CoverSensingPolicy": "test_reductions.py::TestSensing"
                          "::test_cover_policy_matches_its_closed_form",
}

# Methods that no code of the package calls because a stdlib base class
# calls them, so no scan of the package's source can see their caller:
# the module and method, then the base class that calls it. None today:
# `cli._Parser.parse_known_args` calls `error`, and itself calls its base.
STDLIB_HOOKS: dict[str, str] = {}


def test_no_dead_code_in_src():
    # every name src/ctplab defines has a caller in the package or in the
    # benchmark, or is a test's oracle: a method one taken as an
    # attribute. Dunder methods are called by Python itself, and each
    # stdlib hook by its base class; a hook that is gone fails too.
    root = Path(__file__).parents[1]
    package = sorted((root / "src" / "ctplab").glob("*.py"))
    names: set[str] = set()
    members: set[str] = set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        _references(ast.parse(path.read_text()), names, members)
    # an oracle that gains a caller leaves the list, and each names a test
    assert sorted(set(TEST_ORACLES) & (names | members)) == []
    for test in TEST_ORACLES.values():
        path, *_, function = test.split("::")
        assert f"def {function}(" in (root / "tests" / path).read_text(), test
    members |= set(TEST_ORACLES)
    names |= members
    unused = sorted(f"{path.name}:{name}" for path in package
                    for name, member in _defined_names(
                        ast.parse(path.read_text()))
                    if name not in (members if member else names)
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == sorted(STDLIB_HOOKS)
