"""Every function the package exports has a caller outside the tests.

A function in ``coherence_kit.__all__`` must be used somewhere in the package
outside its own ``def``, or be reached as a module attribute by the
benchmark's traced replay (``perfbench/tracing.py``). The exceptions are
listed below, each with the ROADMAP item that gives the name a caller or
moves it out of the package. The list can only shrink: a listed name that
gains a caller fails the test until it is taken off.
"""

import ast
import inspect
import pathlib

import coherence_kit

PACKAGE = pathlib.Path(coherence_kit.__file__).resolve().parent
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"

WITHOUT_CALLER = {
    "breakpoint_shortcuts": "ROADMAP item 1",
    "max_coherence_bound": "ROADMAP item 1",
    "trace_norm": "ROADMAP item 9",
    "operator_norm": "ROADMAP item 9",
    "f_gap": "ROADMAP item 9",
    "check_l1_vs_relent": "ROADMAP item 9",
    "achieving_separable_state": "ROADMAP item 9",
}


def names_used(tree: ast.Module) -> set:
    """Names and attribute names a module uses, outside the ``def`` of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and loaded and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and loaded and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def module_attributes(tree: ast.Module) -> set:
    """``attr`` of every ``module.attr`` where ``module`` is a bare name."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def test_every_exported_function_has_a_caller():
    called = set()
    for path in PACKAGE.glob("*.py"):
        called |= names_used(ast.parse(path.read_text(), filename=str(path)))
    called |= module_attributes(ast.parse(TRACING.read_text(), filename=str(TRACING)))
    functions = {
        name for name in coherence_kit.__all__ if inspect.isfunction(getattr(coherence_kit, name))
    }
    assert sorted(functions - called - set(WITHOUT_CALLER)) == []
    assert sorted(set(WITHOUT_CALLER) & called) == []
    assert set(WITHOUT_CALLER) <= functions
