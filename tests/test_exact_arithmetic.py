"""The package source stays in exact arithmetic: no floats, ever.

Each module of ``src/toricmonoids`` is parsed with :mod:`ast` and searched for
the four ways a float gets in: a float literal, a ``float(...)`` call, a true
division ``/`` or ``/=``, and a :mod:`math` import other than ``gcd``.
"""

import ast
from pathlib import Path

import pytest

import toricmonoids

MODULES = sorted(Path(toricmonoids.__file__).parent.glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` for every node of ``tree`` that can bring in a float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float(...) call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            others = [a.name for a in node.names if a.name != "gcd"]
            if others:
                found.append((node.lineno, f"from math import {', '.join(others)}"))
    return sorted(found)


def test_every_module_is_searched():
    assert {"lattice.py", "demazure.py", "algebra.py", "monoids.py", "cli.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_can_enter(path):
    found = inexact_nodes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: {what}" for line, what in found)


@pytest.mark.parametrize(
    "source, what",
    [
        ("x = 0.5", "float literal 0.5"),
        ("x = 1e3", "float literal 1000.0"),
        ("y = float(x)", "float(...) call"),
        ("y = a / b", "true division"),
        ("a /= b", "true division"),
        ("import math", "import math"),
        ("import os, math as m", "import math"),
        ("from math import gcd, sqrt", "from math import sqrt"),
    ],
)
def test_each_way_in_is_caught(source, what):
    assert inexact_nodes(ast.parse(source)) == [(1, what)]


@pytest.mark.parametrize(
    "source",
    ["from math import gcd", "q = a // b", "a //= b", "isinstance(v, float)", "Fraction(1, 2)", "s = '0.5'"],
)
def test_exact_forms_pass(source):
    assert inexact_nodes(ast.parse(source)) == []
