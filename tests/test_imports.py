"""Every name a module of the package imports is used in that module.

No linter runs on this code, so an import left behind when the last use of a
name is deleted would go unnoticed. ``from __future__`` imports are
directives, not names, and are skipped; the export table of ``__init__.py``
is a table of strings and imports nothing.
"""

import ast
import pathlib

import pytest

import coherence_kit

MODULES = sorted(pathlib.Path(coherence_kit.__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []
