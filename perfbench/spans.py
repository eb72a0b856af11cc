"""In-memory spans around the library's layer entry points.

Each traced name is patched wherever a module of the package looks it up
(the defining module and every module that imported it), so calls through
any caller are seen.  A span stack gives each span its parent; a layer's
self time is its span's duration minus its children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

PACKAGE = "nice_einstein"

# layer name -> (defining module, attribute; "Class.method" for methods)
LAYERS = {
    "algebra.parse": [("algebra", "parse_family"), ("algebra", "parse"),
                      ("algebra", "AlgebraFamily.substitute")],
    "diagram.root_matrix": [("diagram", "root_matrix")],
    "linalg.solve_affine": [("linalg", "solve_affine")],
    "linalg.f2_solve_all": [("linalg", "f2_solve_all")],
    "linalg.solve_multiplicative": [("linalg", "solve_multiplicative")],
    "solver.feasible_orthants": [("solver", "feasible_orthants")],
    "solver.decide_condition_p": [("solver", "decide_condition_p")],
    "einstein.classify": [("einstein", "diagonal_einstein"),
                          ("einstein", "sigma_einstein")],
    "einstein.recover_metric": [("einstein", "recover_metric")],
    "einstein.parameter_solve": [("einstein", "parameter_solve")],
    "curvature.from_nice": [("curvature", "LieBrackets.from_nice")],
    "curvature.ricci_tensor": [("curvature", "ricci_tensor")],
}

# Spans the benchmark opens itself: one item (a catalog record or one oracle
# verification) and its own checks.
ROOTS = ("catalog.run_entry", "bench.verify_item", "bench.check")


def _metric_is_exact(result) -> bool:
    """recover_metric returns (metric, freedom); exact metrics are rational."""
    return all(isinstance(x, (int, Fraction)) for x in result[0].g)


# Counts recorded at the layer boundary, from the layer's return value.
COUNTERS = {
    "solver.decide_condition_p": lambda r: {"exact": bool(getattr(r, "exact", False))},
    "solver.feasible_orthants": lambda r: {"orthants": len(r)},
    "einstein.recover_metric": lambda r: {"exact": _metric_is_exact(r)},
}


class Tracer:
    """Spans as [name, start, end, parent index], plus boundary counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                for key, v in count(result).items():
                    self.counts[f"{name}.{key}"] += v
            return result
        return traced

    @contextmanager
    def instrumented(self):
        """Patch every lookup site of every layer; restore on exit."""
        restore, self.missing = patch_layers(self)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(restore):
                setattr(owner, attr, old)


def patch_layers(tracer: Tracer):
    """Replace each layer function at every site that holds it.

    Returns (restore list, names of layer targets that no longer exist).
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    restore, missing = [], []
    for layer, targets in LAYERS.items():
        for mod_name, attr in targets:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            raw = owner.__dict__.get(meth) if owner is not None else None
            if raw is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if cls_name:
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = tracer.wrap(layer, fn)
                restore.append((owner, meth, raw))
                setattr(owner, meth, classmethod(wrapped) if is_cm else wrapped)
                continue
            wrapped = tracer.wrap(layer, raw)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        restore.append((m, name, raw))
                        setattr(m, name, wrapped)
    return restore, missing


def self_times(spans) -> dict[str, tuple[int, float]]:
    """{name: (calls, self seconds)}; self = duration minus children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls_self = out.setdefault(name, [0, 0.0])
        calls_self[0] += 1
        calls_self[1] += (end - start) - child[i]
    return {k: (c, s) for k, (c, s) in out.items()}
