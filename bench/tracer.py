"""Span tracer that wraps chowtwist's layer entry points from outside the
package.

Every entry point in LAYERS is replaced, for the lifetime of an
``installed`` block, by a wrapper that records a span (name, start, end,
parent, query) while the tracer is active.  A function is rebound at every
place it is bound inside the package, because ``verify``, ``chow`` and
``cli`` import some of them by name; methods and constructors are patched
on their class.  Nothing under ``src/`` is edited.

There is one thread and no queue, so spans have no waiting time: self time
is the whole story for each layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "chowtwist"


def _shape(a):
    """(rows, cols) of a numpy array or a list of rows."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a), (len(a[0]) if len(a) else 0)
    return shape[0], (shape[1] if len(shape) > 1 else 1)


def _input_cells(pos):
    """Computed work of a kernel: m*n of the matrix argument at ``pos``."""
    def work(tracer, name, args, kwargs):
        m, n = _shape(args[pos])
        tracer.add_cells(name, m * n)
    return work


def _f2_cells(tracer, name, args, kwargs):
    span, rows = args[0], args[1]
    m = len(rows) if getattr(rows, "ndim", 2) > 1 else 1
    tracer.add_cells(name, m * span.n_bits, total=True, peak=False)


def _bar_cells(step):
    """Output m*n of the bar matrix between degrees n and n + step, and
    whether this (complex, n) is new."""
    def work(tracer, name, args, kwargs):
        bc, n = args[0], args[1]
        tracer.add_cells(name, bc.dim(n) * bc.dim(n + step),
                         total=False, peak=True)
        seen = tracer.built.setdefault(name, weakref.WeakKeyDictionary())
        degrees = seen.setdefault(bc, set())
        if n not in degrees:
            degrees.add(n)
            tracer.bump(name, "builds")
    return work


def _grew(tracer, name, result):
    if result:
        tracer.bump(name, "grew")


# (module.attribute path, work counter run before the call, hook on result)
LAYERS = [
    ("intlin.smith_normal_form", _input_cells(0), None),
    ("intlin.ColumnEchelon", _input_cells(1), None),
    ("intlin.ColumnEchelon.solve", None, None),
    ("intlin.IntLattice.add", None, None),
    ("fp.rref", _input_cells(0), None),
    ("f2.F2Span.add_matrix", _f2_cells, None),
    ("f2.F2Span.add", None, _grew),
    ("f2.F2Span.residual", None, None),
    ("cohomology.BarComplex.delta_matrix", _bar_cells(1), None),
    ("cohomology.BarComplex.boundary_matrix", _bar_cells(-1), None),
    ("cohomology.corestriction_cochain", None, None),
    ("cohomology.restriction_cochain", None, None),
    ("cohomology.IntegralClassSpace.class_of", None, None),
    ("groups.FiniteGroup", None, None),
    ("groups.Subgroup.as_group", None, None),
    ("gmodules.GModule", None, None),
    ("gmodules.GModule.trace_quotient", None, None),
    ("kleinres.coboundary_rows", None, None),
    ("graded.klein_chow_presentation", None, None),
    ("graded.minimal_free_resolution", None, None),
    ("lattices.coflasque_resolution", None, None),
    ("lattices.counterexample_lattices", None, None),
]

# per-layer statistics each entry reports, besides calls and self_s
EXTRA_STATS = {
    "intlin.smith_normal_form": ("cells", "max_cells"),
    "intlin.ColumnEchelon": ("cells", "max_cells"),
    "fp.rref": ("cells", "max_cells"),
    "f2.F2Span.add_matrix": ("cells",),
    "f2.F2Span.add": ("grew_frac",),
    "cohomology.BarComplex.delta_matrix": ("builds", "max_cells"),
    "cohomology.BarComplex.boundary_matrix": ("builds", "max_cells"),
}

ROOT = "query"


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, query index]."""

    def __init__(self):
        self.enabled = False  # this pass is traced
        self.active = False   # inside a query of a traced pass
        self.spans = []
        self.stack = []
        self.counters = {}
        self.built = {}

    def reset(self):
        self.spans, self.stack, self.counters, self.built = [], [], {}, {}

    def bump(self, name, key):
        c = self.counters.setdefault(name, {})
        c[key] = c.get(key, 0) + 1

    def add_cells(self, name, cells, total=True, peak=True):
        c = self.counters.setdefault(name, {})
        if total:
            c["cells"] = c.get("cells", 0) + cells
        if peak:
            c["max_cells"] = max(c.get("max_cells", 0), cells)

    def _open(self, name):
        stack = self.stack
        parent = stack[-1] if stack else -1
        query = self.spans[parent][4] if parent >= 0 else len(self.spans)
        rec = [name, 0.0, 0.0, parent, query]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def query(self):
        """Root span around one query; children are the layer calls."""
        if not self.enabled:
            yield
            return
        rec = self._open(ROOT)
        self.active = True
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.active = False
            self.stack.pop()

    def wrap(self, name, fn, work=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            if work is not None:
                work(tracer, name, args, kwargs)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, name, result)
            return result

        return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _resolve(path):
    """(owner, attribute, original) for a LAYERS path; a class means its
    constructor."""
    mod_name, *rest = path.split(".")
    owner = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
    for part in rest[:-1]:
        owner = getattr(owner, part)
    attr = rest[-1]
    obj = vars(owner)[attr]
    if isinstance(obj, type):
        return obj, "__init__", obj.__dict__["__init__"]
    return owner, attr, obj


@contextmanager
def installed(tracer, layers=LAYERS):
    """Patch every binding of every layer entry point; restore on exit."""
    patches = []
    try:
        for path, work, after in layers:
            owner, attr, original = _resolve(path)
            wrapper = tracer.wrap(path, original, work, after)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, k) for m in _package_modules()
                            for k, v in list(vars(m).items()) if v is original]
            for target, name in bindings:
                patches.append((target, name, original))
                setattr(target, name, wrapper)
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of it covered
    by its direct children (the union of their intervals, clipped)."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_names():
    return [ROOT] + [path for path, _, _ in LAYERS]


def aggregate(tracer):
    """{layer: {stat: value}} for every layer, zeros included."""
    agg = {name: {"calls": 0, "self_s": 0.0} for name in layer_names()}
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        a = agg[s[0]]
        a["calls"] += 1
        a["self_s"] += st
    for name, stats in EXTRA_STATS.items():
        c = tracer.counters.get(name, {})
        for stat in stats:
            if stat == "grew_frac":
                calls = agg[name]["calls"]
                agg[name][stat] = c.get("grew", 0) / calls if calls else 0.0
            else:
                agg[name][stat] = c.get(stat, 0)
    return agg
