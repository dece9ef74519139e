"""The package source keeps no dead private helper.

Each module of ``src/toricmonoids`` is parsed with :mod:`ast`.  Every
module-level function or class whose name starts with one underscore must be
read somewhere in the package, as a name or an attribute, outside its own
definition: an import alone, or a call from its own body, does not count.
"""

import ast
from pathlib import Path

import pytest

import toricmonoids

MODULES = sorted(Path(toricmonoids.__file__).parent.glob("*.py"))


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``"module:line: name"`` for every private helper of ``sources`` read nowhere else."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    defined = {}  # helper name -> (module, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined[node.name] = (module, node.lineno, node.end_lineno)
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in defined:
                home, first, last = defined[name]
                if module != home or not first <= node.lineno <= last:
                    used.add(name)
    return sorted(f"{m}:{first}: {name}" for name, (m, first, _) in defined.items() if name not in used)


def test_every_module_is_searched():
    assert {"lattice.py", "demazure.py", "algebra.py", "monoids.py", "cli.py"} <= {
        p.name for p in MODULES
    }


def test_every_private_helper_is_used():
    found = unreferenced({p.name: p.read_text(encoding="utf-8") for p in MODULES})
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "sources, found",
    [
        ({"a.py": "def _f():\n    pass\n"}, ["a.py:1: _f"]),
        ({"a.py": "class _C:\n    pass\n"}, ["a.py:1: _C"]),
        ({"a.py": "def _f(n):\n    return _f(n - 1)\n"}, ["a.py:1: _f"]),
        ({"a.py": "def _f():\n    pass\n", "b.py": "from a import _f\n"}, ["a.py:1: _f"]),
        ({"a.py": "def _f():\n    pass\n\ndef g():\n    return _f()\n"}, []),
        ({"a.py": "def _f():\n    pass\n", "b.py": "import a\nx = a._f\n"}, []),
        ({"a.py": "def __getattr__(name):\n    pass\n\ndef f():\n    pass\n"}, []),
        ({"a.py": "class C:\n    def _m(self):\n        pass\n"}, []),
    ],
    ids=["function", "class", "only-recursive", "only-imported", "called", "attribute", "dunder",
         "method"],
)
def test_the_search(sources, found):
    assert unreferenced(sources) == found
