"""The README's library tour runs as written, and its removed names stay removed.

Run against an installed package too, from outside the checkout, so that a
public name the tour uses cannot be removed without updating the README.
"""

import re
from pathlib import Path

import toricmonoids

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_removed_names_are_gone():
    # A dotted name is a method or field of a class that stays: no class on its
    # MRO defines it, and it is not one of the class's fields, if it has any.
    section = re.search(r"^### Removed names\n(.*?)^#", README.read_text(encoding="utf-8"), re.M | re.S)
    names = re.findall(r"^\* `([^`]+)`", section.group(1), re.M)
    assert {"dual_ray_swap", "RationalPoint", "DerivationRule.__call__", "DerivationRule.scale"} <= set(names)
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner:
            cls = getattr(toricmonoids, owner)
            assert all(attr not in vars(k) for k in cls.__mro__)
            assert attr not in getattr(cls, "_fields", ())
            continue
        assert name not in toricmonoids.__all__
        assert not hasattr(toricmonoids, name)
