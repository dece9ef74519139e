"""Spans around the public functions of each layer, recorded from outside.

:class:`Tracer` rebinds each traced name to a wrapper in every
``toricmonoids`` module that holds it (so calls made inside the package are
seen too) and patches traced methods on their class.  A span is
``[name, start_ns, end_ns, parent, counts]``; spans of one invocation are
kept in memory until :meth:`Tracer.fold` adds them to the per-layer totals.
Self time is a span's duration minus the durations of its direct children.

Probes count calls without timing them: the membership tests that the scans
make, counted while the scan's span is the innermost open one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _tensor_counts(t) -> dict:
    coefs = [c for _, c in t.terms()]
    return {"terms": len(coefs), "integral": sum(1 for c in coefs if getattr(c, "denominator", 1) == 1)}


def _mul_counts(args, result) -> dict:
    left, right = args[0], args[1]
    pairs = len(left.support()) * (len(right.support()) if hasattr(right, "support") else 1)
    return {"pairs_in": pairs, **_tensor_counts(result)}


# (module, attribute path, span name, counter or None).  The counter maps the
# call's positional arguments and result to counts; it runs after the span's
# end time is taken.
TARGETS = (
    ("toricmonoids.algebra", "TensorElement.__mul__", "algebra.tensor_mul", _mul_counts),
    ("toricmonoids.algebra", "TensorElement.__rmul__", "algebra.tensor_mul", _mul_counts),
    ("toricmonoids.algebra", "TensorElement.__init__", "algebra.tensor_init", lambda a, r: _tensor_counts(a[0])),
    ("toricmonoids.algebra", "TensorElement.to_json", "algebra.to_json", None),
    ("toricmonoids.monoids", "comult", "monoids.comult", lambda a, r: {"terms": len(r.support())}),
    ("toricmonoids.monoids", "comult_monomial", "monoids.comult_monomial", None),
    ("toricmonoids.monoids", "comult_from_root_pair", "monoids.comult_from_root_pair", None),
    ("toricmonoids.monoids", "verify_comultiplication", "monoids.verify", None),
    ("toricmonoids.monoids", "multiply_points", "monoids.multiply_points", None),
    ("toricmonoids.monoids", "classify_cone", "monoids.classify_cone", None),
    ("toricmonoids.monoids", "cone_of_spec", "monoids.cone_of_spec", None),
    ("toricmonoids.monoids", "image_ideal_codim", "monoids.image_ideal_codim", None),
    ("toricmonoids.monoids", "boundary", "monoids.boundary", None),
    ("toricmonoids.lattice", "box_lattice_points", "lattice.box_lattice_points", lambda a, r: {"kept": len(r)}),
    ("toricmonoids.lattice", "hilbert_basis", "lattice.hilbert_basis", lambda a, r: {"generators": len(r)}),
    ("toricmonoids.demazure", "roots_up_to", "demazure.roots_up_to", lambda a, r: {"found": len(r)}),
)

# (module, attribute path, span name): each call made while that span is the
# innermost open one adds 1 to the span's "scanned" count.
PROBES = (
    ("toricmonoids.lattice", "Cone2.contains", "lattice.box_lattice_points"),
    ("toricmonoids.monoids", "HalfPlane.contains", "lattice.box_lattice_points"),
    ("toricmonoids.demazure", "is_demazure_root", "demazure.roots_up_to"),
)

ROOT = "cli.main"


class Tracer:
    """Records spans while installed; aggregates them per span name."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))  # span name -> count name -> total
        self.min_self_ns = 0
        self.root_ns = 0

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, result)
            return result

        return wrapper

    def probe(self, name: str, fn):
        """``fn`` wrapped so that calls made directly inside span ``name`` are counted."""
        spans, stack, counts = self.spans, self._stack, self.counts[name]

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                counts["scanned"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "toricmonoids" or name.startswith("toricmonoids.")]
        wraps = [(m, p, lambda fn, n=n, c=c: self.span(n, fn, c)) for m, p, n, c in TARGETS]
        wraps += [(m, p, lambda fn, n=n: self.probe(n, fn)) for m, p, n in PROBES]
        for module_name, path, wrap in wraps:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = wrap(original)
            if owner_path:  # a method: patch the class itself
                self._undo.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def fold(self) -> None:
        """Add the recorded spans to the totals and forget them."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, counts in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            own = end - start - child_ns[i]
            self.min_self_ns = min(self.min_self_ns, own)
            self.calls[name] += 1
            self.self_ns[name] += own
            if parent < 0:
                self.root_ns += end - start
            for key, value in (counts or {}).items():
                self.counts[name][key] += value
        spans.clear()

    def totals(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns, "counts": self.counts,
                "min_self_ns": self.min_self_ns, "root_ns": self.root_ns}

    def merge(self, totals: dict) -> None:
        """Add the :meth:`totals` of another tracer, as read back from JSON."""
        for name, n in totals["calls"].items():
            self.calls[name] += n
        for name, ns in totals["self_ns"].items():
            self.self_ns[name] += ns
        for name, counts in totals["counts"].items():
            for key, value in counts.items():
                self.counts[name][key] += value
        self.min_self_ns = min(self.min_self_ns, totals["min_self_ns"])
        self.root_ns += totals["root_ns"]

    def run_root(self, fn, *args):
        """Call ``fn`` inside a root span (the CLI entry point) and fold its spans."""
        try:
            return self.span(ROOT, fn)(*args)
        finally:
            self.fold()
