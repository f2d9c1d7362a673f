"""Outside-in span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces the public layer functions of the
``zonoids`` package with timing wrappers, in every ``zonoids`` module that
bound them (so ``zonoids.cli.test_zonoid_equiv`` and
``zonoids.invariance.test_zonoid_equiv`` are both wrapped), and wraps the
``sample``/``sample_with_driver`` methods of the law classes.  The package
itself is not edited.  Each call records a span (name, start, end, parent)
plus one count; spans live in compact arrays until ``save`` writes them out.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans.  Parents are tracked per thread; the workloads
run the package single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from array import array

import numpy as np

# defining module -> (layer, functions).  Names missing from a later version of
# the package are skipped and listed in ``missing``.
LAYER_FUNCTIONS = {
    "zonoids.cli": ("cli", ("main",)),
    "zonoids.invariance": ("invariance", ("test_zonoid_equiv", "test_swap_invariance")),
    "zonoids.zonoid": ("zonoid", ("support_centred", "support_noncentred", "support_lift",
                                  "support_max", "grid_support")),
    "zonoids.laws": ("laws", ("sequence_prefix",)),
    "zonoids.lepage": ("lepage", ("simulate_lepage", "cf_check")),
    "zonoids.ergodic": ("ergodic", ("run_averages", "l1_diagnostic", "convergence_diagnostic")),
    "zonoids.report": ("report", ("write_json", "write_csv")),
}
LAW_METHODS = ("sample", "sample_with_driver")
LAYERS = ("cli", "invariance", "zonoid", "laws", "lepage", "ergodic", "report")
ROOT = "job"  # the benchmark's own span around each CLI call


def _rows_out(result, args, kwargs) -> int:
    return int(len(result))


def _terms_out(result, args, kwargs) -> int:
    return int(len(result[0]))


def _bytes_written(result, args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _make_rows_projected():
    """Rows of every Monte Carlo sample matrix times grid directions, per comparison."""
    from zonoids import invariance
    from zonoids.zonoid import is_exact_law

    sig = inspect.signature(invariance.test_zonoid_equiv)

    def count(report, args, kwargs) -> int:
        if report.mode == "exact":
            return 0
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        rows = 0
        for law, samples in ((a["law_a"], a["samples_a"]), (a["law_b"], a["samples_b"])):
            if samples is not None:
                rows += samples.shape[0]
            elif not is_exact_law(law):
                rows += int(a["budget"])
        return rows * len(report.grid)

    return count


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._local = threading.local()
        self._patches: list = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name_id: int, fn, args, kwargs, count=None):
        stack = self._stack()
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.count.append(0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()
        if count is not None:
            self.count[idx] = count(result, args, kwargs)
        return result

    def wrap(self, fn, name: str, count=None):
        name_id = self.span_id(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name_id, fn, args, kwargs, count)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions wherever ``zonoids`` modules bound them."""
        import zonoids.laws as laws

        self.missing = []
        counts = {"test_zonoid_equiv": _make_rows_projected(), "sequence_prefix": _terms_out,
                  "write_json": _bytes_written, "write_csv": _bytes_written}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zonoids" or n.startswith("zonoids."))]
        for modname, (layer, names) in LAYER_FUNCTIONS.items():
            home = sys.modules[modname]
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(orig, f"{layer}.{fname}", counts.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for cls in vars(laws).values():
            if not (isinstance(cls, type) and cls.__module__ == laws.__name__):
                continue
            for meth in LAW_METHODS:
                orig = cls.__dict__.get(meth)
                if orig is not None:
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, f"laws.{cls.__name__}.{meth}", _rows_out))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "count": np.asarray(self.count, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer metrics derived from the recorded spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent, count, name_id = a["parent"], a["count"], a["name_id"]
        has_parent = parent >= 0
        child = np.zeros(dur.shape[0])
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        codes = {lay: i for i, lay in enumerate((ROOT,) + LAYERS)}
        layer = np.array([codes.get(nm.split(".", 1)[0], -1) for nm in self.names], dtype=np.int64)[name_id]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -2)
        outermost = layer != parent_layer

        def named(*names) -> np.ndarray:
            return np.isin(name_id, [self._name_ids[nm] for nm in names if nm in self._name_ids])

        def total(mask, values=None) -> float:
            return float((mask.sum() if values is None else values[mask].sum()) / passes)

        def in_layer(lay: str) -> np.ndarray:
            return layer == codes[lay]

        laws_outer = in_layer("laws") & outermost
        is_prefix = named("laws.sequence_prefix")
        comparisons = named("invariance.test_zonoid_equiv")
        support = named(*[nm for nm in self.names if nm.startswith("zonoid.support_")])
        inv_self = total(in_layer("invariance"), self_t)
        rows_projected = total(comparisons, count)
        terms_drawn = total(laws_outer & (parent_layer == codes["lepage"]), count)
        lepage_incl = total(in_layer("lepage") & outermost, dur)
        job_s = total(in_layer(ROOT), dur)
        # cli.self_s takes in every part of a job that no wrapped function covers,
        # so only the layers below cli count as accounted for
        accounted = sum(total(in_layer(lay), self_t) for lay in LAYERS if lay != "cli")
        return {
            "laws.sample_s": total(in_layer("laws"), self_t),
            "laws.rows_drawn": total(laws_outer & ~is_prefix, count),
            "laws.sample_calls": total(laws_outer),
            "zonoid.support_s": total(in_layer("zonoid"), self_t),
            "zonoid.support_calls": total(support),
            "invariance.self_s": inv_self,
            "invariance.comparisons": total(comparisons),
            "invariance.rows_projected": rows_projected,
            "invariance.rows_per_s": rows_projected / inv_self if inv_self > 0 else 0.0,
            "lepage.self_s": total(in_layer("lepage"), self_t),
            "lepage.terms_drawn": terms_drawn,
            "lepage.terms_per_s": terms_drawn / lepage_incl if lepage_incl > 0 else 0.0,
            "ergodic.self_s": total(in_layer("ergodic"), self_t),
            "ergodic.terms": total(is_prefix, count),
            "report.write_s": total(in_layer("report"), self_t),
            "report.bytes": total(in_layer("report"), count),
            "cli.self_s": total(in_layer("cli"), self_t),
            "trace.job_s": job_s,
            "trace.accounted_share": accounted / job_s if job_s > 0 else 0.0,
        }
