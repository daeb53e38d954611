"""Spans and counters around gradal's public functions, from outside.

`Tracer.install` replaces each function in TRACED by a wrapper, in its
defining module and in every gradal module that imported it by name
(closure and abelian use `from .intmat import solve_int`), and on the
class for methods.  Each call records a span (id, parent id, name,
start, end, end after counting) in memory; `commit` folds the spans of
one operation into per-name totals and `discard` drops them.  Self time
is a span's duration minus the spans of its direct traced children.
"""

import importlib
import inspect
import itertools
import sys
from collections import defaultdict
from time import perf_counter

TRACED = (
    ("intmat", "solve_rational"),
    ("intmat", "solve_int"),
    ("intmat", "hermite_columns"),
    ("intmat", "smith_normal_form"),
    ("intmat", "nullspace_rational"),
    ("intmat", "inverse_unimodular"),
    ("abelian", "GroupHom.apply"),
    ("abelian", "solve_in_subgroup"),
    ("abelian", "hom_kernel"),
    ("abelian", "subgroup_generated_by"),
    ("abelian", "quotient_by"),
    ("abelian", "is_in_torsionfree_summand"),
    ("element", "Element.__mul__"),
    ("element", "nzd_test"),
    ("element", "homogeneous_unit_test"),
    ("closure", "find_integral_equation"),
    ("closure", "find_integral_equation_fraction"),
    ("closure", "components_integral_check"),
    ("closure", "lem50_iso"),
    ("closure", "graded_euclidean_division"),
    ("ringexpr", "normalize"),
    ("ringexpr", "group_algebra"),
    ("ringexpr", "coarsen"),
    ("ringexpr", "classify"),
)

MODULES = ("intmat", "abelian", "element", "closure", "ringexpr")


def _shape(a, rows, cols):
    rows = len(a) if rows is None else rows
    if cols is None:
        cols = len(a[0]) if a else 0
    return rows, cols


def _solver(rows_arg, cols_arg):
    """Counts for a linear solver: cells, nonzeros, non-None returns."""
    def make(name, signature):
        def tally(counts, args, kwargs, out):
            bound = signature.bind(*args, **kwargs).arguments
            a = bound["a"]
            rows, cols = _shape(a, bound.get(rows_arg), bound.get(cols_arg))
            counts[name + ".cells"] += rows * cols
            counts[name + ".nnz"] += sum(1 for row in a for v in row if v)
            if out is not None:
                counts[name + ".feasible"] += 1
        return tally
    return make


def _hermite(name, signature):
    def tally(counts, args, kwargs, out):
        bits = max((abs(x).bit_length() for row in out[1] for x in row), default=0)
        counts[name + ".max_out_bits"] = max(counts[name + ".max_out_bits"], bits)
    return tally


def _found(name, signature):
    def tally(counts, args, kwargs, out):
        if (type(out).__name__ != "NoWitnessUpTo"
                and getattr(out, "outcome", None) != "neither"):
            counts[name + ".found"] += 1
    return tally


def _term_products(name, signature):
    def tally(counts, args, kwargs, out):
        other = args[1]
        counts[name + ".term_products"] += len(args[0].terms) * (
            len(other.terms) if hasattr(other, "terms") else 1)
    return tally


# name -> (tally factory, metrics it adds).  A *_ratio metric divides the
# count of the same stem by calls; max_out_bits is a maximum, the rest sums.
TALLIES = {
    "intmat.solve_rational": (_solver(None, "ncols"), ("cells", "nnz", "feasible_ratio")),
    "intmat.solve_int": (_solver("m", "n"), ("cells", "nnz", "feasible_ratio")),
    "intmat.nullspace_rational": (_solver(None, "ncols"), ("cells", "nnz")),
    "intmat.hermite_columns": (_hermite, ("max_out_bits",)),
    "element.Element.__mul__": (_term_products, ("term_products",)),
    "closure.find_integral_equation": (_found, ("found_ratio",)),
    "closure.find_integral_equation_fraction": (_found, ("found_ratio",)),
    "closure.components_integral_check": (_found, ("found_ratio",)),
    "closure.lem50_iso": (_found, ("found_ratio",)),
    "closure.graded_euclidean_division": (_found, ("found_ratio",)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []

    def install(self):
        """Wrap every function in TRACED; AttributeError if gradal lacks one."""
        gradal_modules = [m for n, m in list(sys.modules.items())
                          if n == "gradal" or n.startswith("gradal.")]
        for module, qual in TRACED:
            owner = importlib.import_module("gradal." + module)
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{qual}", original)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in gradal_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.op_counts
        make, _ = TALLIES.get(name, (None, ()))
        tally = make(name, inspect.signature(fn)) if make else None

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            done = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                stack.pop()
                if done and tally is not None:
                    tally(counts, args, kwargs, out)
                spans.append((sid, parent, name, t0, t1, perf_counter()))
            return out

        return traced

    def commit(self):
        """Fold the current operation's spans and counts into the totals."""
        covered = defaultdict(float)
        for _, parent, _, t0, _, t2 in self.spans:
            covered[parent] += t2 - t0
        for sid, _, name, t0, t1, _ in self.spans:
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - covered.get(sid, 0.0)
        for key, value in self.op_counts.items():
            if key.endswith(".max_out_bits"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.discard()

    def discard(self):
        self.spans.clear()
        self.op_counts.clear()

    def take_metrics(self):
        """Per-layer values since the last call, zero for names unseen."""
        out = {}
        module_self = defaultdict(float)
        for module, qual in TRACED:
            name = f"{module}.{qual}"
            calls = self.calls.get(name, 0)
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
            module_self[module] += self.self_s.get(name, 0.0)
            for metric in TALLIES.get(name, (None, ()))[1]:
                if metric.endswith("_ratio"):
                    hits = self.counts.get(f"{name}.{metric[:-len('_ratio')]}", 0)
                    out[f"{name}.{metric}"] = hits / calls if calls else 0.0
                else:
                    out[f"{name}.{metric}"] = self.counts.get(f"{name}.{metric}", 0)
        for module in MODULES:
            out[module + ".self_s"] = module_self[module]
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return out
