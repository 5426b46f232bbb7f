"""Outside-in tracing of partialreg, for the benchmark's per-layer metrics.

The layers are partialreg's modules.  :meth:`Tracer.install` wraps every
public function of each layer module and rebinds the wrapper in every
``partialreg`` namespace that holds the function: the modules import each
other with ``from .x import f``, so rebinding only the defining module
would miss most calls.  ``Dataset.__init__`` is wrapped on the class.

A wrapped call records a span ``[name, start, end, parent, op]`` in memory.
Per-value functions (``format_number``, ``round_to_printed``, ``predict``)
are only counted: spanning their hundreds of thousands of calls would
dominate the op being measured.  ``numpy.linalg`` decompositions are
counted when called inside an ``ols`` span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "dataset", "ols", "stats", "transform", "gamma",
          "identities")

PER_VALUE = frozenset({"io.format_number", "io.round_to_printed",
                       "ols.predict"})

# Beyond the cond/svd/lstsq calls ``fit`` makes today, so that moving
# ``ols`` to another factorization still shows in ``ols.decompositions``
# instead of reading as zero work.
DECOMPOSITIONS = ("cond", "svd", "lstsq", "qr", "cholesky", "eigh",
                  "eigvalsh", "solve", "inv", "pinv")

# Counts that must repeat exactly on every op of a run and across seeds at
# one size.
EXACT_COUNTS = ("io.format_number_calls", "io.round_to_printed_calls",
                "dataset.build_calls", "ols.fit_calls", "ols.fit_simple_calls",
                "ols.decompositions", "stats.column_passes", "gamma.points")


class Tracer:
    """Spans and counts of the calls into partialreg, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._ols_depth = 0
        self._in_decomposition = False
        self._designs: dict[tuple, object] = {}
        self._cells: dict[str, list[int]] = {}
        self._op_start = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def begin_op(self, op: int) -> None:
        """Start a new op: counts and design keys restart from zero."""
        self.op = op
        self.counts.clear()
        self._designs.clear()
        for cell in self._cells.values():
            cell[0] = 0
        self._op_start = len(self.spans)

    def end_op(self) -> dict[str, float]:
        """Per-layer metrics of the op begun last; its spans are kept."""
        start = self._op_start
        spans = [[name, begin, end, parent - start if parent >= 0 else -1, op]
                 for name, begin, end, parent, op in self.spans[start:]]
        self._designs.clear()
        for key, cell in self._cells.items():
            self.counts[key] = cell[0]
        return op_metrics(spans, self.counts)

    def _spanned(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            if layer == "ols":
                self._ols_depth += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if layer == "ols":
                    self._ols_depth -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        # A list cell, not the Counter: this runs hundreds of thousands of
        # times per op, and a Counter update costs three times as much.
        cell = self._cells.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _decomposition(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._ols_depth == 0 or self._in_decomposition:
                return fn(*args, **kwargs)
            self.counts["ols.decompositions"] += 1
            self._in_decomposition = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_decomposition = False

        return wrapper

    # ------------------------------------------------------------------
    # hooks that turn a call's arguments or result into counts

    def _hook(self, name: str, fn):
        """The count-keeping hook for span ``name``, or None."""
        counts = self.counts
        signature = inspect.signature(fn)

        def arguments(args, kwargs):
            return signature.bind(*args, **kwargs).arguments

        def on_build(args, kwargs, result):
            ds = args[0]
            counts["dataset.cells_validated"] += ds.n * len(ds.names)

        def on_load(args, kwargs, result):
            counts["io.rows_loaded"] += result.n

        def on_fit(args, kwargs, result):
            bound = arguments(args, kwargs)
            ds = bound["ds"]
            # Holding the dataset keeps its id from being reused by a later
            # dataset of the same op.
            self._designs[(id(ds), bound["response"],
                           tuple(bound["predictors"]))] = ds
            counts["ols.designs"] = len(self._designs)

        def on_design(args, kwargs, result):
            bound = arguments(args, kwargs)
            k = len(tuple(bound["predictors"]))
            counts["ols.design_bytes"] += 8 * bound["ds"].n * (k + 1)

        def on_grid(args, kwargs, result):
            counts["gamma.points"] += (len(result.points)
                                       + len(result.undefined_points))
            counts["gamma.defined"] += len(result.points)

        def on_suite(args, kwargs, result):
            counts["identities.claims"] += len(result)
            counts["identities.claims_passed"] += sum(r.passed for r in result)

        return {"dataset.build": on_build, "io.load_csv": on_load,
                "ols.fit": on_fit, "ols.design_matrix": on_design,
                "gamma.gamma_surface": on_grid, "gamma.gamma_sweep": on_grid,
                "identities.run_verification_suite": on_suite}.get(name)

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        """Wrap partialreg's public functions wherever they are bound."""
        import numpy.linalg

        from partialreg.dataset import Dataset

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"partialreg.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if (not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in PER_VALUE:
                    wrapper = self._counted(name, fn)
                else:
                    wrapper = self._spanned(name, fn, self._hook(name, fn))
                wrappers[id(fn)] = (fn, wrapper)
        for attr in DECOMPOSITIONS:
            fn = getattr(numpy.linalg, attr)
            wrappers[id(fn)] = (fn, self._decomposition(fn))

        namespaces = [module for name, module in sys.modules.items()
                      if name == "partialreg" or name.startswith("partialreg.")]
        namespaces.append(numpy.linalg)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])

        init = Dataset.__init__
        self._patches.append((Dataset, "__init__", init))
        Dataset.__init__ = self._spanned(
            "dataset.build", init, self._hook("dataset.build", init))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# per-op metrics


def op_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one op from its spans and counts.

    Inclusive time of a function sums its spans that are not nested in a
    span of the same name; a layer's self time sums its spans' durations
    minus their direct children's.
    """
    child_time: dict[int, float] = defaultdict(float)
    for record in spans:
        if record[3] >= 0:
            child_time[record[3]] += record[2] - record[1]
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += end - start

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.self_s": layer_self["cli"],
        "io.load_csv_s": inclusive["io.load_csv"],
        "io.rows_per_s": ratio(counts.get("io.rows_loaded", 0),
                               inclusive["io.load_csv"]),
        "io.to_csv_s": inclusive["io.to_csv"],
        "io.format_number_calls": counts.get("io.format_number", 0),
        "io.round_to_printed_calls": counts.get("io.round_to_printed", 0),
        "dataset.build_calls": calls["dataset.build"],
        "dataset.build_s": inclusive["dataset.build"],
        "dataset.cells_validated": counts.get("dataset.cells_validated", 0),
        "ols.fit_calls": calls["ols.fit"],
        "ols.fit_simple_calls": calls["ols.fit_simple"],
        "ols.fit_s": inclusive["ols.fit"],
        "ols.fit_simple_s": inclusive["ols.fit_simple"],
        "ols.decompositions": counts.get("ols.decompositions", 0),
        "ols.designs_per_fit": ratio(counts.get("ols.designs", 0),
                                     calls["ols.fit"]),
        "ols.design_bytes": counts.get("ols.design_bytes", 0),
        "stats.column_passes": (calls["stats.column_stats"]
                                + calls["stats.covariance"]),
        "stats.self_s": layer_self["stats"],
        "transform.apply_transform_s": inclusive["transform.apply_transform"],
        "transform.residualize_s": inclusive["transform.residualize"],
        "gamma.surface_s": inclusive["gamma.gamma_surface"],
        "gamma.sweep_s": inclusive["gamma.gamma_sweep"],
        "gamma.points": counts.get("gamma.points", 0),
        "gamma.defined_frac": ratio(counts.get("gamma.defined", 0),
                                    counts.get("gamma.points", 0)),
        "identities.suite_s": inclusive["identities.run_verification_suite"],
        "identities.self_s": layer_self["identities"],
        "identities.claims": counts.get("identities.claims", 0),
        "identities.claims_passed": counts.get("identities.claims_passed", 0),
    }
