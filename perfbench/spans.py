"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``gpnam`` modules from outside the
package: each call opens a span, and a span's self time is its duration minus
the time covered by its direct child spans. Nothing under ``src/`` is edited.
Spans are aggregated in memory per function and per layer and written out
once, when the traced command ends.

Work counts are *computed* from argument shapes, not measured by hardware
counters: ``cos_evals`` is n*d*S per featurize call and ``bytes_computed`` is
2*n*D*8 per Gram matvec (the design matrix is read once for ``Phi p`` and once
for ``Phi^T t``).

Run one command under the tracer with::

    python traced_cli.py SUMMARY.json -- train --data ... (gpnam arguments)
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "data", "rff", "kernels", "solvers", "model", "metrics")


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Nested spans with self time, per-layer busy time and work counters.

    ``stats[key]`` holds calls, inclusive seconds ``s`` (recursion counted
    once), ``self_s`` and, for spans opened with ``hwm=True``, the growth of
    the process's peak RSS during the span (``hwm_delta_mb``). ``layer_s`` is
    the wall time during which at least one span of the layer was open.
    """

    def __init__(self, clock=time.perf_counter, rss=maxrss_mb):
        self._clock = clock
        self._rss = rss
        self._stack: list[list] = []
        self._key_depth: dict[str, int] = defaultdict(int)
        self._layer_depth: dict[str, int] = defaultdict(int)
        self.stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "hwm_delta_mb": 0.0})
        self.layer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, key: str, layer: str, hwm: bool = False) -> None:
        rss0 = self._rss() if hwm else None
        self._key_depth[key] += 1
        self._layer_depth[layer] += 1
        # frame: key, layer, start, time covered by children, rss at entry
        self._stack.append([key, layer, self._clock(), 0.0, rss0])

    def exit(self) -> None:
        now = self._clock()
        key, layer, start, child, rss0 = self._stack.pop()
        dur = now - start
        st = self.stats[key]
        st["calls"] += 1
        st["self_s"] += dur - child
        self._key_depth[key] -= 1
        if self._key_depth[key] == 0:
            st["s"] += dur
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_s[layer] += dur
        if rss0 is not None:
            st["hwm_delta_mb"] += self._rss() - rss0
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, key: str, layer: str, fn, count=None, hwm: bool = False):
        """Return ``fn`` wrapped in a span; ``count(args, kwargs, result)``
        returns work counters to add when the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(key, layer, hwm)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    self.counts[name] += value
            return result

        return traced

    def summary(self) -> dict:
        return {"stats": dict(self.stats), "layer_s": dict(self.layer_s),
                "counts": dict(self.counts)}


# --- work-count formulas, from the shapes of the arrays a call sees ---------

def featurize_cos_evals(X, z) -> int:
    """Cosines computed by one featurize call: n rows x d features x S."""
    n, d = X.shape
    return n * d * z.shape[0]


def gram_apply_bytes(phi) -> int:
    """Bytes of the design matrix read by one Gram matvec Phi^T (Phi p)."""
    n, D = phi.shape
    return 2 * n * D * 8


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_featurize(args, kwargs, result):
    return {"kernels.featurize.cos_evals":
            featurize_cos_evals(_arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "z"))}


def _count_gram(args, kwargs, result):
    return {"kernels.gram_apply.bytes_computed": gram_apply_bytes(_arg(args, kwargs, 0, "phi"))}


def _count_cg(args, kwargs, result):
    return {"solvers.cg.iterations": result[1]}


def _count_sgd(args, kwargs, result):
    report = result[1]
    return {"solvers.sgd.epochs": report.iterations,
            "solvers.sgd.converged": int(report.converged)}


def _count_load_csv(args, kwargs, result):
    rep = result.ingest_report
    return {"data.load_csv.rows": rep["rows_read"], "data.rows_dropped": rep["rows_dropped"]}


def _count_load_features(args, kwargs, result):
    rep = result[3]
    return {"data.load_features.rows": rep["rows_read"],
            "data.rows_dropped": rep["rows_dropped"]}


# (module, function, layer, counter, track peak-RSS growth)
TARGETS = (
    ("gpnam.cli", "main", "cli", None, False),
    ("gpnam.data", "load_csv", "data", _count_load_csv, True),
    ("gpnam.data", "load_features", "data", _count_load_features, True),
    ("gpnam.data", "standardize", "data", None, False),
    ("gpnam.data", "split", "data", None, False),
    ("gpnam.rff", "build_basis", "rff", None, False),
    ("gpnam.rff", "pair_feature_map", "rff", None, False),
    ("gpnam._kernels", "featurize", "kernels", _count_featurize, False),
    ("gpnam._kernels", "gram_apply", "kernels", _count_gram, False),
    ("gpnam.solvers", "stack_features", "solvers", None, True),
    ("gpnam.solvers", "solve_ridge_cg", "solvers", None, False),
    ("gpnam.solvers", "conjugate_gradients", "solvers", _count_cg, False),
    ("gpnam.solvers", "fit_logistic_sgd", "solvers", _count_sgd, False),
    ("gpnam.solvers", "logistic_objective", "solvers", None, False),
    ("gpnam.model", "predict", "model", None, False),
    ("gpnam.model", "save", "model", None, False),
    ("gpnam.model", "load", "model", None, False),
    ("gpnam.model", "shape_function", "model", None, False),
    ("gpnam.model", "write_shape_csv", "model", None, False),
    ("gpnam.metrics", "auc", "metrics", None, False),
    ("gpnam.metrics", "error_rate", "metrics", None, False),
    ("gpnam.metrics", "mse", "metrics", None, False),
    ("gpnam.metrics", "rmse", "metrics", None, False),
)


def install(tracer: Tracer) -> None:
    """Replace every target function with its traced wrapper, in its own
    module and wherever a ``gpnam`` module bound it by ``from ... import``."""
    for module_name, fn_name, layer, count, hwm in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, fn_name)
        traced = tracer.wrap(f"{layer}.{fn_name}", layer, original, count, hwm)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gpnam" or name.startswith("gpnam.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
