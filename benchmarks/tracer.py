"""Span tracer installed on lipem from outside the package.

``Tracer.installed()`` replaces each function named in ``LAYERS`` (and
the likelihood model methods in ``MODEL_METHODS``) with a wrapper that
records one span per call: name, parent span, start and end. The
wrapper goes on the defining module and on every lipem module that
imported the function by name (``lipem.bench.run_em``,
``lipem.em.clamp_psd``, ``lipem.cli.fit_lip``, ...), so no call path
is missed. Nothing under ``src/`` changes.

Spans live in flat arrays in memory and are written out once, by
``write``, when the benchmark ends. Counters the layers do not expose
(rows, bytes, iterations, repairs) are read from each call's arguments
and result after the span closes, so they never count as layer time.

Warnings raised inside a wrapped call are recorded, counted once at the
innermost span that saw them, and issued again on the way out, so the
program's own filters (such as the ``simplefilter("ignore")`` around
the turbofan baselines) still decide whether they are shown.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import warnings
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# per layer, the public functions whose calls are recorded as spans
LAYERS = {
    "likelihood": ("spline_design", "clamp_psd", "pooled_noise_variance"),
    "em": (
        "build_sufficient_stats",
        "relevant_marginal_loglik",
        "null_loglik",
        "tempering_schedule",
        "e_step",
        "m_step_exact",
        "run_em",
    ),
    "lip": (
        "choice_probability",
        "nll_objective",
        "minimize_worths",
        "fit_lip",
        "simulated_judge",
        "simulate_elicitation",
        "write_records",
        "read_records",
    ),
    "bench": (
        "generate_hierarchical",
        "baselines",
        "gaussian_experiment",
        "cmapss_experiment",
    ),
    "cli": ("dispatch", "ingest_cmapss", "write_report"),
}
# methods of both likelihood families, recorded as likelihood.<method>
MODEL_METHODS = ("loglik", "gradient", "hessian", "mle")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_rows(counters, args, kwargs, result):
    counters["likelihood.spline_design.rows"] += np.size(
        _first_arg(args, kwargs, "inputs")
    )


def _count_repairs(counters, args, kwargs, result):
    # clamp_psd repairs exactly when the symmetrized input has a
    # negative eigenvalue; repeat its test here, outside the span
    matrix = np.asarray(_first_arg(args, kwargs, "matrix"), dtype=float)
    vals = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    if vals.size and vals[0] < 0.0:
        counters["likelihood.clamp_psd.repairs"] += 1


def _count_cross_evals(counters, args, kwargs, result):
    n = len(args[1] if len(args) > 1 else kwargs["datasets"])
    counters["em.build_sufficient_stats.cross_evals"] += n * n


def _count_run_em(counters, args, kwargs, result):
    report = result[1]
    counters["em.run_em.iterations"] += report.iterations
    counters["em.run_em.converged"] += bool(report.converged)
    counters["em.run_em.dropped_sources"] += len(report.dropped_sources)


def _count_newton(counters, args, kwargs, result):
    counters["lip.minimize_worths.iterations"] += result.iterations


def _bytes_of_path_arg(metric, arg_name):
    def hook(counters, args, kwargs, result):
        counters[metric] += os.path.getsize(_first_arg(args, kwargs, arg_name))

    return hook


def _count_report_bytes(counters, args, kwargs, result):
    counters["cli.write_report.bytes"] += sum(os.path.getsize(p) for p in result)


HOOKS = {
    "likelihood.spline_design": _count_rows,
    "likelihood.clamp_psd": _count_repairs,
    "em.build_sufficient_stats": _count_cross_evals,
    "em.run_em": _count_run_em,
    "lip.minimize_worths": _count_newton,
    "lip.write_records": _bytes_of_path_arg("lip.write_records.bytes", "path"),
    "lip.read_records": _bytes_of_path_arg("lip.read_records.bytes", "path"),
    "cli.ingest_cmapss": _bytes_of_path_arg("cli.ingest_cmapss.bytes", "path"),
    "cli.write_report": _count_report_bytes,
}


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._counted: dict[int, Warning] = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            caught: list = []
            t0 = t1 = perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    t0 = perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        t1 = perf_counter()
            finally:
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer._reissue(name, caught)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _reissue(self, name, caught):
        for w in caught:
            if id(w.message) not in self._counted:
                self._counted[id(w.message)] = w.message
                if issubclass(w.category, RuntimeWarning):
                    self.counters["warnings.runtime"] += 1
                    if name == "em.tempering_schedule" and "singular" in str(w.message):
                        self.counters["em.tempering.downgrades"] += 1
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, source=w.source
            )
        if not self._stack:
            self._counted.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function and method; restore them on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "lipem" or n.startswith("lipem."))
        ]
        patches = []
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"lipem.{layer}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        likelihood = importlib.import_module("lipem.likelihood")
        for cls in (likelihood.GaussianMeanModel, likelihood.SplineGlmModel):
            for method in MODEL_METHODS:
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, self._wrap(f"likelihood.{method}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass two marks to ``summary``."""
        return len(self.start)

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls and self time per span name for spans first..last-1.

        Self time is a span's duration minus the durations of its
        direct children, so summing it over every span gives the time
        covered by the outermost spans.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = (
            np.frombuffer(self.end, dtype=float)[first:last]
            - np.frombuffer(self.start, dtype=float)[first:last]
        )
        has_parent = parent >= first
        child = np.bincount(
            parent[has_parent] - first, weights=dur[has_parent], minlength=dur.size
        )
        self_time = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_time[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Save every span recorded so far as arrays in one .npz file."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
