"""Every name a module of the package imports is used in that module, and
numpy is imported only on one side of a fixed boundary.

No linter runs on this code, so an import left behind when the last use of a
name is deleted would go unnoticed. ``from __future__`` imports are
directives, not names, and are skipped; the export table of ``__init__.py``
is a table of strings and imports nothing.

The numpy-free modules (``NUMPY_FREE``) are what a call that needs no numpy
loads: they import neither numpy nor any other package module at module
level, only inside the functions that need them. Every other module imports
numpy once, at module level.
"""

import ast
import pathlib

import pytest

import coherence_kit

PACKAGE = pathlib.Path(coherence_kit.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


NUMPY_FREE = {
    "coherence_kit",
    "coherence_kit.config",
    "coherence_kit.errors",
    "coherence_kit.cli",
    "coherence_kit.parser",
    "coherence_kit.io",
    "coherence_kit.pure_floats",
    "coherence_kit.commands",
    *(
        f"coherence_kit.commands.{path.stem}"
        for path in (PACKAGE / "commands").glob("*.py")
        if path.stem not in ("__init__", "bench")
    ),
}


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULE_NAMES = {module_name(path) for path in MODULES}


def imports(tree: ast.Module) -> tuple[list, list]:
    """The import statements run at module level (class bodies included) and
    those inside a function."""
    top, local = [], []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                (local if in_function else top).append(child)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, in_function or inner)

    visit(tree, False)
    return top, local


def imported_modules(node, name: str, is_package: bool) -> set:
    """Absolute names of the modules an import statement in module ``name``
    loads: ``from . import io`` loads ``coherence_kit.io``, ``from . import
    __version__`` only the package."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not node.level:
        return {node.module}
    package = name if is_package else name.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    base = f"{package}.{node.module}" if node.module else package
    submodules = {f"{base}.{alias.name}" for alias in node.names} & MODULE_NAMES
    return {base} | submodules


def loads_numpy(modules: set) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_numpy_is_imported_on_one_side_of_the_boundary(path):
    name = module_name(path)
    is_package = path.name == "__init__.py"
    top, local = imports(ast.parse(path.read_text(), filename=str(path)))
    at_top = set().union(*(imported_modules(node, name, is_package) for node in top))
    if name in NUMPY_FREE:
        assert not loads_numpy(at_top)
        package = {m for m in at_top if m in MODULE_NAMES} - {name}
        assert sorted(package - NUMPY_FREE) == []
    else:
        assert "numpy" in at_top
        in_functions = set().union(*(imported_modules(node, name, is_package) for node in local))
        assert not loads_numpy(in_functions)
