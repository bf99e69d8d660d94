"""Module hygiene: every public name resolves, and src imports no name it
does not use, so a deletion leaves no stale import behind."""

import ast
import importlib
from pathlib import Path

import pytest

import pqvirasoro

SRC = Path(pqvirasoro.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# perfbench's tracer wraps hopf.multiply, so hopf keeps the name unused
UNUSED_BY_DESIGN = {("hopf", "multiply")}


def _all(tree):
    """The names the module's __all__ lists, read from its source."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("stem", [stem for stem, tree in TREES.items() if _all(tree)])
def test_every_all_entry_resolves(stem):
    module = importlib.import_module("pqvirasoro" if stem == "__init__" else "pqvirasoro." + stem)
    names = _all(TREES[stem])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("stem", TREES)
def test_src_imports_no_name_it_does_not_use(stem):
    tree = TREES[stem]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(_all(tree))
    assert unused == {name for module, name in UNUSED_BY_DESIGN if module == stem}
