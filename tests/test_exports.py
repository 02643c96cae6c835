"""Every public function of the package has a caller outside the tests.

A module-level function of ``src/coherence_kit/`` and its subpackages whose name does not start
with ``_``, exported in ``coherence_kit.__all__`` or not, must be used
somewhere in the package outside its own ``def``, or be reached as a module
attribute by the benchmark's traced replay (``perfbench/tracing.py``). The exceptions are
listed below, each with the ROADMAP item that gives the name a caller or
moves it out of the package. The list can only shrink: a listed name that
gains a caller fails the test until it is taken off. Every name the replay
reads must also resolve.
"""

import ast
import pathlib
from importlib import import_module

import coherence_kit
from coherence_kit import cli

PACKAGE = pathlib.Path(coherence_kit.__file__).resolve().parent
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"

WITHOUT_CALLER = {
    "breakpoint_shortcuts": "ROADMAP item 1",
    "max_coherence_bound": "ROADMAP item 1",
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


def public_functions(tree: ast.Module) -> set:
    """Names of the module-level functions not starting with ``_``."""
    return {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def test_every_exported_function_has_a_caller():
    """Exported or not: every public function of the package."""
    called, functions = set(), set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        called |= names_used(tree)
        functions |= public_functions(tree)
    called |= module_attributes(ast.parse(TRACING.read_text(), filename=str(TRACING)))
    assert sorted(functions - called - set(WITHOUT_CALLER)) == []
    assert sorted(set(WITHOUT_CALLER) & called) == []
    assert set(WITHOUT_CALLER) <= functions


def test_every_name_the_traced_replay_reads_resolves():
    """``perfbench/tracing.py`` reads and patches package names at run time, so
    a name it reads that goes away breaks ``--trace 1`` only when it runs."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    modules = {
        alias.asname or alias.name: import_module(f"coherence_kit.{alias.name}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "coherence_kit"
        for alias in node.names
    }
    missing = []
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if not path or not isinstance(node, ast.Name) or node.id not in modules:
            continue
        value = modules[node.id]
        for attr in path:
            if not hasattr(value, attr):
                missing.append(".".join([node.id, *path]))
                break
            value = getattr(value, attr)
    assert "oracle" in modules and missing == []
    # The replay parses each call with the full parser and reads these options.
    args = cli.build_parser().parse_args(["measures", "--input", "x.json"])
    assert hasattr(args, "step_scale") and hasattr(args, "max_iters")
