"""Spans and counters around hardyliou's functions, installed from outside.

``install`` replaces each traced function with a wrapper in every
``hardyliou`` module that holds it (``from .series import multiply`` copies
the binding, so patching the defining module alone would miss callers), and
patches the traced methods on their classes so internal calls are seen too.

A span is ``(name, start, end, parent, op)``; spans stay in memory until
the run ends.  A layer's self time is its span time minus the time of its
child spans.  Counts marked "computed" are derived from the arguments and
results (for example 16 (N+1)^2 bytes per operator matrix), not measured.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

from hardyliou import acceptance, cli, dmd, occupation, operators, series
from hardyliou import spectral, weighted

RESOLVED_MODE_RESIDUAL = 1e-3  # a DMD mode with a smaller residual is useful

SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = SETUP
        self.sums = defaultdict(float)  # (phase, key) -> total
        self.maxima = defaultdict(float)  # key -> largest value seen

    @property
    def phase(self):
        return SETUP if self.op == SETUP else "cycle"

    def add(self, key, amount):
        self.sums[(self.phase, key)] += amount

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            self.add(f"{name}.calls", 1)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, result, *args, **kwargs)
            return result

        return wrapper

    def layer_totals(self):
        """(phase, name) -> (self seconds, inclusive seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0])
        for (name, start, end, _, op), inner in zip(self.spans, child):
            entry = totals[(SETUP if op == SETUP else "cycle", name)]
            entry[0] += end - start - inner
            entry[1] += end - start
        return totals


# --- counters, called after the traced function returns ----------------------


def _eval(tr, result, poly, z):
    tr.add("series.eval.coeff_points", poly.coeffs.size * np.size(z))


def _build(tr, result, *args, **kwargs):
    entries = result.entries
    tr.add("operators.build.bytes", entries.nbytes)  # computed: 16 (N+1)^2
    tr.add("operators.entries_nonzero", np.count_nonzero(entries))
    tr.add("operators.entries_built", entries.size)


def _eig(tr, result, matrix):
    tr.maxima["spectral.eig.dim"] = max(
        tr.maxima["spectral.eig.dim"], matrix.entries.shape[0]
    )


def _kernel_moments(tr, result, *args, **kwargs):
    # computed: samples x (N+1) moments per kernel
    samples = result.source.times.size
    tr.add("occupation.kernel.moments", samples * result.series.coeffs.size)


def _csv_bytes(tr, result, trajectory):
    if tr.innermost() == "occupation.digest":
        tr.add("occupation.digest.bytes", len(result))


def _csv_read(tr, result, path, *args, **kwargs):
    tr.add("occupation.csv_read.bytes", os.path.getsize(path))


def _rk4(tr, result, *args, **kwargs):
    tr.add("occupation.rk4.steps", result.times.size - 1)


def _fit(tr, result, *args, **kwargs):
    size = result.gram.shape[0]
    tr.maxima["dmd.fit.gram_dim"] = max(tr.maxima["dmd.fit.gram_dim"], size)
    resolved = int(np.sum(result.mode_residuals <= RESOLVED_MODE_RESIDUAL))
    tr.add("dmd.modes_resolved", resolved)
    tr.add("dmd.modes_computed", result.eigenvalues.size)


def _model_bytes(tr, result, model):
    tr.add("dmd.model_bytes", len(result))


def _report_bytes(tr, result, payload, path):
    tr.add("cli.report_bytes", path.stat().st_size)


# layer -> functions it covers, as (owner, attribute name)
SPANS = {
    "series.eval": [(series.TaylorPolynomial, "__call__")],
    "series.fft": [
        (series, "to_boundary"),
        (series, "project_h2"),
        (series, "outer_from_modulus"),
    ],
    "series.multiply": [(series, "multiply")],
    "series.kernel": [(series, "kernel")],
    "series.exp_series": [(series, "exp_series")],
    "operators.build": [
        (operators, "liouville_matrix"),
        (operators, "scaled_liouville_matrix"),
        (operators, "weighted_liouville_matrix"),
    ],
    "operators.adjoint_matrix": [(operators, "adjoint_matrix")],
    "operators.apply": [(operators.OperatorMatrix, "apply")],
    "operators.boundary_adjoint": [(operators, "adjoint_apply_boundary")],
    "spectral.eig": [(spectral, "eigendecompose")],
    "occupation.kernel": [(occupation, "occupation_kernel")],
    "occupation.digest": [(occupation.Trajectory, "content_digest")],
    "occupation.csv_read": [(occupation, "read_trajectory_csv")],
    "occupation.rk4": [(occupation, "integrate_ode")],
    "occupation.residual": [
        (occupation, "liouville_occupation_residual"),
        (occupation, "weighted_occupation_residual"),
    ],
    "weighted.hs_norm": [(weighted, "hs_norm")],
    "weighted.bounds": [(weighted, "boundedness_bound")],
    "dmd.fit": [(dmd, "fit")],
    "dmd.predict": [(dmd, "predict")],
    "dmd.to_json": [(dmd.DmdModel, "to_json")],
    "cli.run": [(cli, "run")],
    "cli.ingest": [(cli, "ingest_trajectories")],
    "acceptance.findings": [(acceptance, "findings")],
}
for _k in range(1, 14):
    SPANS[f"acceptance.criterion_{_k:02d}"] = [(acceptance, f"criterion_{_k}")]

COUNTS = {
    "series.eval": _eval,
    "operators.build": _build,
    "spectral.eig": _eig,
    "occupation.kernel": _kernel_moments,
    "occupation.csv_read": _csv_read,
    "occupation.rk4": _rk4,
    "dmd.fit": _fit,
    "dmd.to_json": _model_bytes,
}

# counted without a span, so their time stays in the caller's self time
COUNTERS = [
    (occupation, "_csv_bytes", _csv_bytes),
    (cli, "_write_report", _report_bytes),
]


def _rebind(original, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "hardyliou" or name.startswith("hardyliou."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    acceptance._CRITERIA = tuple(
        wrapper if fn is original else fn for fn in acceptance._CRITERIA
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method for the rest of the process."""
    for layer, targets in SPANS.items():
        for owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = tracer.span(layer, original, COUNTS.get(layer))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
    for module, attr, count in COUNTERS:
        _rebind(getattr(module, attr), tracer.counter(getattr(module, attr), count))


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer values for one setup plus one average cycle of operations."""
    totals = tracer.layer_totals()

    def per_run(setup, cycle):
        return setup + cycle / cycles

    def total(key):
        return per_run(tracer.sums[(SETUP, key)], tracer.sums[("cycle", key)])

    metrics = {}
    for layer in SPANS:
        setup_self, setup_incl = totals.get((SETUP, layer), (0.0, 0.0))
        cycle_self, cycle_incl = totals.get(("cycle", layer), (0.0, 0.0))
        if layer.startswith("acceptance."):
            metrics[f"{layer}.s"] = (per_run(setup_incl, cycle_incl), "s")
        else:
            metrics[f"{layer}.self_s"] = (per_run(setup_self, cycle_self), "s")
    for key in (
        "series.eval.calls",
        "series.multiply.calls",
        "series.kernel.calls",
        "operators.build.calls",
        "spectral.eig.calls",
        "dmd.predict.calls",
        "series.eval.coeff_points",
        "occupation.kernel.moments",
        "occupation.rk4.steps",
    ):
        metrics[key] = (total(key), "count")
    for key in (
        "operators.build.bytes",
        "occupation.digest.bytes",
        "occupation.csv_read.bytes",
        "dmd.model_bytes",
        "cli.report_bytes",
    ):
        metrics[key] = (total(key), "B")
    metrics["spectral.eig.dim"] = (tracer.maxima["spectral.eig.dim"], "count")
    metrics["dmd.fit.gram_dim"] = (tracer.maxima["dmd.fit.gram_dim"], "count")
    built = total("operators.entries_built")
    metrics["operators.fill_ratio"] = (
        total("operators.entries_nonzero") / built if built else 0.0,
        "ratio",
    )
    computed = total("dmd.modes_computed")
    metrics["dmd.useful_mode_ratio"] = (
        total("dmd.modes_resolved") / computed if computed else 0.0,
        "ratio",
    )
    return metrics
