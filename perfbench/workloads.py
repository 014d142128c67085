"""Seeded inputs and the closed-loop operation mix of each workload.

Every workload runs the same operations, so every run reports every
end-to-end metric; the workload sets the scale of each operation:

* ``acceptance``: small operators (N = 128) and a 20-trajectory DMD, so
  ``verify-all`` and per-call overhead dominate.
* ``dmd-wide``: a 500-trajectory DMD at N = 64 (1001 RK4 samples each);
  operators stay small.
* ``operators-deep``: operators at N = 1024 with a 10k-step trajectory; the
  DMD stays at 20 trajectories.

All randomness comes from ``numpy.random.default_rng(seed)``.  The program
sees only the CSV files and configs written here; the in-memory
trajectories feed the library path ``dmd.fit``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hardyliou import cli, dmd, occupation
from hardyliou.series import TaylorPolynomial


@dataclass(frozen=True)
class Scale:
    trajectories: int  # m, the DMD batch size
    operator_order: int  # N of spectrum, occupation, hs-norm, adjoint-check
    horizon: float  # T of the occupation command's trajectory


WORKLOADS = {
    "acceptance": Scale(trajectories=20, operator_order=128, horizon=1.0),
    "dmd-wide": Scale(trajectories=500, operator_order=128, horizon=1.0),
    "operators-deep": Scale(trajectories=20, operator_order=1024, horizon=10.0),
}

RATE = complex(-0.5, 1.0)  # every trajectory solves zdot = RATE * z
DT = 1e-3
DMD_ORDER = 64
START_RADIUS = 0.6  # DMD starts are uniform in this disk
FORECAST_RADIUS = 0.5  # forecast starts lie inside the data region
FORECASTS = 32
ADJOINT_CASES = 20
# a seeded f of fixed degree keeps adjoint-check's cost the same for every seed
ADJOINT_DEGREE = 4
# criterion 12's forecast tolerance and the spectrum command's default
FORECAST_TOL = 1e-3
SPECTRUM_TOL = 1e-8
# dmd's identity_observable_capture certificate tolerance
IDENTITY_TOL = 1e-2


@dataclass
class Inputs:
    trajectories: list  # in-memory Trajectory objects, the dmd.fit input
    csv_paths: list
    configs: dict  # command -> config dict, read back from its JSON file
    forecasts: list  # (z0, t) pairs for dmd.predict


def _disk_points(rng, count, radius):
    radii = radius * np.sqrt(rng.uniform(size=count))
    return radii * np.exp(2j * np.pi * rng.uniform(size=count))


def generate(scale: Scale, seed: int, workdir: Path) -> Inputs:
    """Integrate, write the CSVs and configs, and read the configs back."""
    rng = np.random.default_rng(seed)
    field = TaylorPolynomial([0.0, RATE])
    starts = _disk_points(rng, scale.trajectories, START_RADIUS)
    trajectories = [
        occupation.integrate_ode(field, complex(z0), 1.0, DT) for z0 in starts
    ]
    csv_dir = workdir / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    for k, trajectory in enumerate(trajectories):
        path = csv_dir / f"trajectory_{k:04d}.csv"
        occupation.write_trajectory_csv(trajectory, path)
        csv_paths.append(str(path))
    forecast_starts = _disk_points(rng, FORECASTS, FORECAST_RADIUS)
    forecast_times = rng.uniform(0.0, 1.0, FORECASTS)
    forecasts = [
        (complex(z0), float(t)) for z0, t in zip(forecast_starts, forecast_times)
    ]
    cli_start = complex(_disk_points(rng, 1, FORECAST_RADIUS)[0])
    cli_times = sorted(float(t) for t in rng.uniform(0.0, 1.0, FORECASTS))
    adjoint_f = rng.standard_normal((ADJOINT_DEGREE + 1, 2)).tolist()
    order = scale.operator_order
    configs = {
        "verify-all": {},
        "dmd": {
            "N": DMD_ORDER,
            "trajectories": csv_paths,
            "predict": {"z0": [cli_start.real, cli_start.imag], "times": cli_times},
        },
        "spectrum": {"N": order, "f": [0.1, 0.9]},
        "occupation": {
            "N": order,
            "f": [0.0, [RATE.real, RATE.imag]],
            "ode": {"z0": [0.6, 0.1], "T": scale.horizon, "dt": DT},
        },
        "hs-norm": {"N": order, "f": [0.3, 0.5], "phi": [0.1, 0.5, 0.2]},
        "adjoint-check": {
            "N": order,
            "f": adjoint_f,
            "cases": ADJOINT_CASES,
            "seed": seed,
        },
    }
    config_dir = workdir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    for command, config in configs.items():
        path = config_dir / f"{command}.json"
        path.write_text(json.dumps(config, sort_keys=True))
        configs[command] = json.loads(path.read_text())
    return Inputs(trajectories, csv_paths, configs, forecasts)


def reference_forecast(z0: np.ndarray, t: np.ndarray, steps: int = 10_000):
    """Independent vectorised RK4 for zdot = RATE z, with dt = t/steps <= 1e-4."""
    z = np.asarray(z0, dtype=np.complex128).copy()
    h = np.asarray(t, dtype=np.float64) / steps
    for _ in range(steps):
        k1 = RATE * z
        k2 = RATE * (z + 0.5 * h * k1)
        k3 = RATE * (z + 0.5 * h * k2)
        k4 = RATE * (z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_cli(command, config, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(command, config, out_dir)


class Mix:
    """One closed-loop client: each operation starts when the last returns.

    Each operation returns one ``(start, end, check)`` sample per call it
    timed, with ``time.perf_counter`` stamps; ``check()`` runs outside the
    timed region and lists every failed check.
    """

    def __init__(self, inputs: Inputs, out_dir: Path):
        self.inputs = inputs
        self.out_dir = out_dir
        self.model = None
        self.first_digests = {}  # output file -> sha256 of its first write
        dmd_cfg = inputs.configs["dmd"]
        z0 = complex(*dmd_cfg["predict"]["z0"])
        times = np.array(dmd_cfg["predict"]["times"])
        self.cli_reference = reference_forecast(np.full(times.size, z0), times)
        starts, horizons = zip(*inputs.forecasts)
        self.forecast_reference = reference_forecast(
            np.array(starts), np.array(horizons)
        )
        self.file_digests = [_sha256(p) for p in inputs.csv_paths]

    def operations(self):
        """(metric, operation) in cycle order."""
        return [
            ("verify_all_s", lambda: self._command("verify-all", self._all_criteria)),
            ("dmd_s", lambda: self._command("dmd", self._dmd_report)),
            ("dmd_fit_s", self.fit),
            ("predict_per_s", self.predict),
            ("spectrum_s", lambda: self._command("spectrum", self._spectrum)),
            ("occupation_s", lambda: self._command("occupation")),
            ("hs_norm_s", lambda: self._command("hs-norm")),
            ("adjoint_check_s", lambda: self._command("adjoint-check")),
        ]

    def _same_bytes(self, key, digest):
        first = self.first_digests.setdefault(key, digest)
        return [] if digest == first else [f"{key} differs from its first write"]

    def _command(self, command, check=None):
        out = self.out_dir / command
        start = time.perf_counter()
        code = _run_cli(command, self.inputs.configs[command], out)
        end = time.perf_counter()
        return [(start, end, lambda: self._check_command(command, out, code, check))]

    def _check_command(self, command, out, code, check):
        errors = [] if code == 0 else [f"{command} exited with code {code}"]
        report_path = out / f"{command.replace('-', '_')}_report.json"
        report = json.loads(report_path.read_text())
        errors += [
            f"{command}: certificate {cert['name']} failed"
            for cert in report["certificates"]
            if not cert["passed"]
        ]
        errors += self._same_bytes(report_path.name, _sha256(report_path))
        if command == "dmd":
            model_path = out / "dmd_model.json"
            errors += self._same_bytes(model_path.name, _sha256(model_path))
        if check is not None:
            errors += check(report)
        return errors

    def _all_criteria(self, report):
        passed = [c for c in report["certificates"] if c["passed"]]
        if len(passed) == 13:
            return []
        return [f"verify-all: {len(passed)} of 13 criteria PASS"]

    def _spectrum(self, report):
        values = np.array([complex(*v) for v in report["eigenvalues"]])
        expected = 0.9 * np.arange(report["inputs"]["N"] + 1)
        if values.size == expected.size:
            gap = float(np.max(np.abs(values - expected)))
            if gap <= SPECTRUM_TOL:
                return []
            return [f"spectrum: eigenvalues miss {{0.9n}} by {gap:.3e}"]
        return [f"spectrum: {values.size} eigenvalues, expected {expected.size}"]

    def _dmd_report(self, report):
        values = np.array([complex(*p["value"]) for p in report["predictions"]])
        errors = []
        if values.size != self.cli_reference.size:
            errors.append(f"dmd: {values.size} forecasts, expected {FORECASTS}")
        elif np.max(np.abs(values - self.cli_reference)) > FORECAST_TOL:
            errors.append("dmd: a forecast misses the RK4 reference")
        if report["trajectory_digests"] != self.file_digests:
            errors.append("dmd: trajectory digests differ from the file sha256")
        return errors

    def fit(self):
        self.model = None
        start = time.perf_counter()
        model = dmd.fit(self.inputs.trajectories, order=DMD_ORDER)
        end = time.perf_counter()
        self.model = model
        return [(start, end, lambda: self._check_fit(model))]

    def _check_fit(self, model):
        errors = []
        if not model.identity_residual <= IDENTITY_TOL:
            errors.append(f"dmd.fit: identity residual {model.identity_residual:.3e}")
        if list(model.trajectory_digests) != self.file_digests:
            errors.append("dmd.fit: in-memory digests differ from the file sha256")
        digest = hashlib.sha256(model.eigenvalues.tobytes()).hexdigest()
        errors += self._same_bytes("dmd.fit eigenvalues", digest)
        return errors

    def predict(self):
        if self.model is None:
            raise RuntimeError("dmd.predict needs the model of a successful fit")
        samples = []
        for (z0, t), expected in zip(self.inputs.forecasts, self.forecast_reference):
            start = time.perf_counter()
            value = dmd.predict(self.model, z0, t)
            end = time.perf_counter()
            check = functools.partial(_forecast_gap, value, expected)
            samples.append((start, end, check))
        return samples


def _forecast_gap(value, expected):
    gap = abs(value - expected)
    return [] if gap <= FORECAST_TOL else [f"dmd.predict misses by {gap:.3e}"]
