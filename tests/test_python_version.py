"""src stays within its requires-python >= 3.10: the syntax of 3.10, and no
regular-expression construct that only 3.11 compiles."""

import ast
import importlib
import re
from pathlib import Path

import pytest

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "pqvirasoro").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_each_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_no_pattern_uses_a_possessive_quantifier_or_an_atomic_group():
    """Every call into re in src compiles a module-level pattern, and none
    of those patterns holds a construct that Python 3.10 refuses."""
    patterns, calls = [], 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                     for node in ast.walk(tree))
        if path.stem != "__main__":  # importing it runs the command line
            name = "pqvirasoro" + ("" if path.stem == "__init__" else "." + path.stem)
            patterns += [v for v in vars(importlib.import_module(name)).values()
                         if isinstance(v, re.Pattern)]
    assert len(patterns) == calls >= 1
    for pattern in patterns:
        parsed = repr(sre_parse.parse(pattern.pattern, pattern.flags))
        assert "POSSESSIVE" not in parsed and "ATOMIC_GROUP" not in parsed, pattern.pattern
