"""Config-driven experiment runner.

Every subcommand reads one JSON config, drives the corresponding library
operations, writes a JSON report (plus CSV tables where plotting makes
sense), and exits 0 only if every certificate in the report passed.  Reports
are deterministic byte for byte for identical configs and inputs: sorted
keys, fixed seeds, complex numbers as [re, im] pairs, and no wall-clock
values inside the payload.

Exit codes: 0 all certificates pass; 1 a numerical certificate failed;
2 no certificate was computed, because the config, an input file or a
value derived from them is invalid (any :class:`HardyliouError`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import EllipsisType
from typing import Callable, Iterable

import numpy as np

from . import acceptance, dmd
from .errors import (
    ConfigError,
    HardyliouError,
    StepBudgetError,
    TrajectoryIngestionError,
)
from .occupation import (
    Trajectory,
    _invalid_start,
    _reproduction_gap,
    integrate_ode,
    liouville_occupation_residual,
    read_trajectory_csv,
    weighted_occupation_residual,
)
from .operators import (
    _RANDOM_SYMBOL_DEGREE,
    _boundary_floor,
    _naming_overflow,
    adjoint_battery,
    smirnov_decompose,
)
from .series import TaylorPolynomial, complex_pairs, json_text, to_boundary
from .spectral import _liouville_spectrum
from .weighted import boundedness_bound, hs_norm, polar_grid

_SCHEMA = 1


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _fail(field: str, message: str):
    raise ConfigError(f"config field '{field}': {message}")


def _lookup(cfg: dict, field: str, default=...):
    """``field``, named by its full dotted path, read from ``cfg`` by the
    path's last part (``ode.T`` is ``T`` in ``ode``).  Missing or null, it
    is not given: it takes ``default``, or is required if that is ``...``."""
    value = cfg.get(field.rpartition(".")[2])
    if value is None and default is ...:
        _fail(field, "is required for this command")
    return default if value is None else value


# memory budgets, checked before anything is allocated: one dense (N+1)^2
# complex matrix at N = MAX_ORDER takes 269 MB, and one complex sample array
# on MAX_BOUNDARY_SIZE points (the M circle, or the bounds polar grid) 16.8 MB
MAX_ORDER = 4096
MAX_BOUNDARY_SIZE = 2**20
# run-time budget for the adjoint battery, 10x its default: one case takes
# about 0.5 ms at the default N = 64 and 0.44 s at N = MAX_ORDER with
# M = MAX_BOUNDARY_SIZE, so the longest battery stays under 8 minutes
MAX_CASES = 1000


def _get_int(cfg: dict, field: str, default=..., minimum=1, maximum=None):
    value = _lookup(cfg, field, default)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"must be an integer, got {value!r}")
    if value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(field, f"must be <= {maximum} (memory budget), got {value}")
    return value


def _number(value, field: str) -> float:
    """``value`` as a float: a JSON number, not a boolean, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"must be a number, got {value!r}")
    # false for NaN, +-Infinity (json.loads accepts both) and huge JSON ints
    if not abs(value) <= sys.float_info.max:
        _fail(field, f"must be finite, got {value!r}")
    return float(value)


def _get_float(cfg: dict, field: str, default=..., positive=False):
    value = _lookup(cfg, field, default)
    number = _number(value, field)
    if positive and number <= 0:
        _fail(field, f"must be positive, got {value}")  # as given: -1, not -1.0
    return number


def _get_bool(cfg: dict, field: str, default):
    value = _lookup(cfg, field, default)
    if value is not None and not isinstance(value, bool):
        _fail(field, "must be a boolean")
    return value


def _parse_complex(value, field: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(field, f"must be a number or [re, im] pair, got {value!r}")
    return complex(*(_number(v, field) for v in parts))


def _parse_coeffs(cfg: dict, field: str) -> TaylorPolynomial:
    raw = _lookup(cfg, field)
    if not isinstance(raw, list) or not raw:
        _fail(field, "must be a nonempty coefficient list")
    coeffs = [
        _parse_complex(item, f"{field}[{k}]") for k, item in enumerate(raw)
    ]
    return TaylorPolynomial(coeffs)


@dataclass(frozen=True)
class _Command:
    """One subcommand: the fields it shares with others, then its own body.

    ``order`` is the default of ``N`` (``...``: required), ``boundary`` the
    floor of the default ``M = max(floor, 4(N+1))`` (or "optional": no
    default, echoed as null), ``tolerance`` the default tolerance and
    ``symbols`` the coefficient lists it reads.  ``None`` skips a field.
    """

    body: Callable[[dict, dict, Path], dict]
    order: int | EllipsisType | None = None
    boundary: int | str | None = None
    tolerance: float | None = None
    symbols: tuple[str, ...] = ()


def _read_shared(cfg: dict, command: _Command) -> tuple[dict, dict]:
    """Parse the fields ``command`` shares; returns them and their echo."""
    got = {}
    if command.order is not None:
        got["N"] = _get_int(cfg, "N", command.order, maximum=MAX_ORDER)
    if command.boundary is not None:
        order, optional = got["N"], command.boundary == "optional"
        default = None if optional else max(command.boundary, 4 * (order + 1))
        got["M"] = None
        if _lookup(cfg, "M", default) is not None:
            size = _get_int(cfg, "M", default, minimum=2, maximum=MAX_BOUNDARY_SIZE)
            if size < 2 * order + 2:
                _fail("M", f"must be >= 2N+2 = {2 * order + 2}, got {size}")
            got["M"] = size
    for name in command.symbols:
        got[name] = _parse_coeffs(cfg, name)
    echo = {
        k: complex_pairs(v.coeffs) if k in command.symbols else v
        for k, v in got.items()
    }
    if command.tolerance is not None:
        got["tolerance"] = _get_float(
            cfg, "tolerance", default=command.tolerance, positive=True
        )
    return got, echo


def ingest_trajectories(path) -> Trajectory:
    """Read and validate one trajectory CSV; ingestion errors cite file and row."""
    traj = read_trajectory_csv(path)
    if traj.times.size < 3:
        raise TrajectoryIngestionError(
            f"{path}: {traj.times.size} data rows; the occupation "
            "quadrature needs at least 3"
        )
    return traj


def _trajectories_from_config(cfg: dict) -> Iterable[Trajectory]:
    """The config's trajectories, once its fields are checked: the CSV files
    read lazily, one :func:`ingest_trajectories` call per path as the
    iterator reaches it, or the one orbit that ``ode`` integrates."""
    paths = _lookup(cfg, "trajectories", None)
    if paths is not None:
        if not isinstance(paths, list) or not paths:
            _fail("trajectories", "must be a nonempty list of CSV paths")
        for k, p in enumerate(paths):
            if not isinstance(p, str):
                _fail(f"trajectories[{k}]", "must be a path string")
            if not Path(p).is_file():
                _fail(f"trajectories[{k}]", f"file not found: {p}")
        return map(ingest_trajectories, paths)
    ode = _lookup(cfg, "ode", None)
    if ode is not None:
        if not isinstance(ode, dict):
            _fail("ode", "must be an object {z0, T, dt}")
        f = _parse_coeffs(cfg, "f")
        z0 = _parse_complex(_lookup(ode, "ode.z0"), "ode.z0")
        t_final = _get_float(ode, "ode.T", positive=True)
        dt = _get_float(ode, "ode.dt", positive=True)
        try:
            return [integrate_ode(f, z0, t_final, dt)]
        except StepBudgetError as exc:
            raise ConfigError(f"config fields 'ode.T' and 'ode.dt': {exc}") from None
    _fail("trajectories", "either 'trajectories' or 'ode' must be given")


def _keeping_first(trajectories: Iterable[Trajectory], kept: list):
    """``trajectories`` as they come, read once; the first also goes into ``kept``."""
    for traj in trajectories:
        if not kept:
            kept.append(traj)
        yield traj


def _certificate(name, residual, tolerance, formula, passed=None):
    return {
        "name": name,
        "passed": bool(residual <= tolerance if passed is None else passed),
        "residual": float(residual),
        "tolerance": float(tolerance),
        "tolerance_formula": formula,
    }


def _write_report(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload))


# ---------------------------------------------------------------------------
# subcommands: each gets the shared fields _read_shared parsed and returns
# its report body, with its own fields under "inputs"; run() adds schema,
# command and the shared inputs echo
# ---------------------------------------------------------------------------


def _cmd_spectrum(cfg: dict, got: dict, out_dir: Path) -> dict:
    values, residuals = _liouville_spectrum(got["f"], got["N"])
    cert = _certificate(
        "eigenpair_residual",
        float(np.max(residuals)),
        got["tolerance"],
        "max_k ||A v_k - lambda_k v_k||_2 <= tolerance, unit v_k",
    )
    return {
        "eigenvalues": complex_pairs(values),
        "residuals": residuals.tolist(),
        "certificates": [cert],
    }


def _cmd_adjoint_check(cfg: dict, got: dict, out_dir: Path) -> dict:
    cases = _get_int(cfg, "cases", default=100)
    if cases > MAX_CASES:
        _fail("cases", f"must be <= {MAX_CASES} (run-time budget), got {cases}")
    seed = _get_int(cfg, "seed", default=0, minimum=0)
    f = None if _lookup(cfg, "f", None) is None else _parse_coeffs(cfg, "f")
    degree = _RANDOM_SYMBOL_DEGREE if f is None else f.order
    floor = _boundary_floor(got["N"], degree)
    if got["M"] < floor:  # the boundary route's floor: its integrand aliases below it
        why = f"deg f = {degree}" + (", the top degree of the random symbols" if f is None else "")
        _fail("M", f"must be >= max(4(N+1), N + deg f) = {floor} ({why}), got {got['M']}")
    cert = _certificate(
        "adjoint_route_agreement",
        adjoint_battery(got["N"], got["M"], cases, seed, f),
        got["tolerance"],
        "max over battery of ||transpose_route - boundary_route||_2 <= tolerance",
    )
    return {
        "inputs": {
            "cases": cases,
            "seed": seed,
            "f": None if f is None else complex_pairs(f.coeffs),
        },
        "certificates": [cert],
    }


def _cmd_occupation(cfg: dict, got: dict, out_dir: Path) -> dict:
    """``occupation``, and ``weighted`` when the row reads a ``phi``."""
    f, phi, order = got["f"], got.get("phi"), got["N"]
    # every file is read before the first residual, as the errors are ordered
    trajectories = list(_trajectories_from_config(cfg))
    if phi is None:
        residuals = [liouville_occupation_residual(f, t, order) for t in trajectories]
        name, endpoints = "occupation_adjoint_identity", "K_end_i - K_start_i"
    else:
        residuals = [
            weighted_occupation_residual(f, phi, t, order) for t in trajectories
        ]
        name = "weighted_occupation_adjoint_identity"
        endpoints = "K_phi(end_i) - K_phi(start_i)"
    cert = _certificate(
        name,
        max(residuals),
        got["tolerance"],
        f"max_i ||A*_matrix Gamma_i - ({endpoints})||_2 <= tolerance",
    )
    return {
        "residuals": residuals,
        "trajectory_digests": [t.content_digest() for t in trajectories],
        "certificates": [cert],
    }


def _cmd_dmd(cfg: dict, got: dict, out_dir: Path) -> dict:
    ridge = None if _lookup(cfg, "ridge", None) is None else _get_float(cfg, "ridge")
    if ridge is not None and ridge < 0:
        _fail("ridge", "must be nonnegative")
    z0 = times = None
    block = _lookup(cfg, "predict", None)
    if block is not None:
        if not isinstance(block, dict):
            _fail("predict", "must be an object {z0, times}")
        z0 = _parse_complex(_lookup(block, "predict.z0"), "predict.z0")
        invalid = _invalid_start(z0)  # dmd.predict's rule, before the fit
        if invalid is not None:
            _fail("predict.z0", invalid[1])
        times = _lookup(block, "predict.times")
        if not isinstance(times, list) or not times:
            _fail("predict.times", "must be a nonempty list of reals")
        times = [_number(t, f"predict.times[{k}]") for k, t in enumerate(times)]
    # one pass: dmd.fit drops each orbit once its block of moments is done,
    # except the first, which the reproduction check reads again
    first = []
    trajectories = _keeping_first(_trajectories_from_config(cfg), first)
    model = dmd.fit(trajectories, order=got["N"], ridge=ridge)
    residual, tolerance = _reproduction_gap(first[0], model.basis)
    certs = [
        _certificate(
            "occupation_kernel_reproduction",
            residual,
            tolerance,
            "max_j |(S^H S)_0j - sum_t w_t Gamma_j(gamma_0(t))|, j in "
            "{0, m // 2, m - 1}, <= 1e-12 * ||S_0|| * max_j ||S_j||",
            passed=residual <= tolerance < math.inf,
        ),
        _certificate(
            "identity_observable_capture",
            model.identity_residual,
            got["tolerance"],
            "||least-squares residual of id(z)=z against kernel span||_2 "
            "<= tolerance",
        ),
    ]
    predictions = []
    if times is not None:
        values = complex_pairs(dmd.predict(model, z0, np.array(times)))
        predictions = [{"t": t, "value": v} for t, v in zip(times, values)]
    model_path = out_dir / "dmd_model.json"
    model_path.parent.mkdir(parents=True, exist_ok=True)
    model_path.write_text(model.to_json())
    return {
        "inputs": {"ridge_requested": ridge},
        "rank": model.rank,
        "singular_value_ratio": model.singular_value_ratio,
        "regularization": model.regularization,
        "eigenvalues": complex_pairs(model.eigenvalues),
        "mode_residuals": model.mode_residuals.tolist(),
        "identity_residual": model.identity_residual,
        "trajectory_digests": list(model.trajectory_digests),
        "predictions": predictions,
        "certificates": certs,
    }


def _cmd_bounds(cfg: dict, got: dict, out_dir: Path) -> dict:
    n_radii = _get_int(cfg, "n_radii", default=64)
    n_angles = _get_int(cfg, "n_angles", default=256)
    if n_radii * n_angles > MAX_BOUNDARY_SIZE:
        raise ConfigError(
            f"config fields 'n_radii' and 'n_angles': n_radii * n_angles must be "
            f"<= {MAX_BOUNDARY_SIZE} (memory budget), got {n_radii * n_angles}"
        )
    r_max = _get_float(cfg, "r_max", default=0.995, positive=True)
    if not r_max < 1.0:
        _fail("r_max", f"must be < 1, got {r_max}")
    expect = _get_bool(cfg, "expect_diverges", None)
    grid = polar_grid(n_radii, n_angles, r_max)
    result = boundedness_bound(got["f"], got["phi"], grid)
    if expect is None:
        cert = _certificate(
            "growth_supremum_finite",
            result.supremum,
            math.inf,
            "sup over polar grid of the growth expression is finite",
        )
    else:
        cert = _certificate(
            "divergence_flag_matches",
            result.supremum,
            math.inf,
            "radial maxima climbing past 1e3 at the grid edge <=> declared "
            "expectation",
            passed=result.diverges == expect,
        )
    csv_path = out_dir / "bounds_profile.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["radius,value"]
    for r, v in zip(result.profile.radii, result.profile.values):
        lines.append(f"{r:.17g},{v:.17g}")
    csv_path.write_text("\n".join(lines) + "\n")
    return {
        "inputs": {"n_radii": n_radii, "n_angles": n_angles, "r_max": r_max},
        "supremum": result.supremum,
        "diverges": result.diverges,
        "profile_csv": csv_path.name,
        "certificates": [cert],
    }


def _cmd_hs_norm(cfg: dict, got: dict, out_dir: Path) -> dict:
    expect_finite = _get_bool(cfg, "expect_finite", True)
    result = hs_norm(got["f"], got["phi"], got["N"], got["M"])
    if result.finite:
        cert = _certificate(
            "hilbert_schmidt_dual_route",
            abs(result.frobenius_sq - result.quadrature_sq),
            got["tolerance"],
            "|Frobenius^2 - quadrature^2| <= tolerance",
        )
    else:
        cert = _certificate(
            "hilbert_schmidt_finiteness",
            math.inf,
            math.inf,
            "quadrature diverges because |phi| reaches the circle; passes "
            "iff divergence was declared via expect_finite=false",
            passed=not expect_finite,
        )
    return {
        "frobenius_sq": result.frobenius_sq,
        "quadrature_sq": result.quadrature_sq,
        "finite": result.finite,
        "certificates": [cert],
    }


def _cmd_smirnov(cfg: dict, got: dict, out_dir: Path) -> dict:
    order, size = got["N"], got["M"]
    with _naming_overflow("f", "its boundary samples"):
        samples = to_boundary(got["f"].truncated(order), size)
    pair = smirnov_decompose(samples, order)
    cert = _certificate(
        "modulus_identity",
        pair.defect,
        got["tolerance"],
        "max over boundary grid of ||a|^2 + |b|^2 - 1| <= tolerance",
    )
    return {
        "normalized": pair.normalized,
        "a0": complex_pairs(pair.a(0)),
        "certificates": [cert],
    }


def _cmd_verify_all(cfg: dict, got: dict, out_dir: Path) -> dict:
    # criterion 12 fits the standard batch; findings() reuses that model
    with acceptance.standard_fit_scope():
        results = acceptance.run_all()
        findings = acceptance.findings()
    certs = []
    for result in results:
        cert = _certificate(
            f"criterion_{result.index:02d}_"
            + result.name.replace(" ", "_").replace("-", "_"),
            result.residual,
            result.tolerance,
            "fixed acceptance tolerance; see tests/test_acceptance.py",
            passed=result.passed,
        )
        cert["detail"] = result.detail
        certs.append(cert)
    return {"certificates": certs, "findings": findings}


# name: (body, N default, M floor, tolerance default, symbols); see _Command
_COMMANDS = {
    "spectrum": _Command(_cmd_spectrum, ..., None, 1e-8, ("f",)),
    "adjoint-check": _Command(_cmd_adjoint_check, 64, 512, 1e-8),
    "occupation": _Command(_cmd_occupation, 80, None, 1e-6, ("f",)),
    "weighted": _Command(_cmd_occupation, 80, None, 1e-6, ("f", "phi")),
    "dmd": _Command(_cmd_dmd, 64, None, 1e-2),
    "bounds": _Command(_cmd_bounds, symbols=("f", "phi")),
    "hs-norm": _Command(_cmd_hs_norm, 64, "optional", 1e-8, ("f", "phi")),
    "smirnov": _Command(_cmd_smirnov, 256, 1024, 1e-10, ("f",)),
    "verify-all": _Command(_cmd_verify_all),
}


def run(command: str, config: dict, out_dir) -> int:
    """Run one subcommand against a parsed config; returns the exit code."""
    out_path = Path(out_dir)
    if command not in _COMMANDS:
        raise ConfigError(
            f"unknown command '{command}'; expected one of "
            + ", ".join(sorted(_COMMANDS))
        )
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    name = _lookup(config, "output", f"{command.replace('-', '_')}_report.json")
    # a plain name keeps the report inside out_dir; the OS refuses a NUL byte
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or Path(name).name != name
        or "\0" in name
    ):
        _fail("output", f"must be a plain file name inside --out, got {name!r}")
    row = _COMMANDS[command]
    got, inputs = _read_shared(config, row)
    body = row.body(config, got, out_path)
    inputs.update(body.pop("inputs", {}))
    report = {"schema": _SCHEMA, "command": command, **body}
    if inputs:
        report["inputs"] = inputs
    _write_report(report, out_path / name)
    for cert in report["certificates"]:
        status = "PASS" if cert["passed"] else "FAIL"
        print(
            f"{status} {cert['name']}: residual {cert['residual']:.3e} "
            f"(tolerance {cert['tolerance']:.3e})"
        )
    return 0 if all(cert["passed"] for cert in report["certificates"]) else 1


def console_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardyliou",
        description="Certificate-driven experiments on truncated Hardy-space "
        "operators.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument(
        "--config",
        required=False,
        help="path to a JSON config (optional for verify-all)",
    )
    parser.add_argument(
        "--out", default=".", help="directory for reports (default: cwd)"
    )
    args = parser.parse_args(argv)
    try:
        if args.config is None:
            if args.command != "verify-all":
                raise ConfigError("--config is required for this command")
            config = {}
        else:
            try:
                config = json.loads(Path(args.config).read_text())
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except OSError as exc:  # a directory, no permission, ...
                raise ConfigError(f"config {args.config} could not be read: {exc}")
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise ConfigError(f"config {args.config} is not valid JSON: {exc}")
        return run(args.command, config, args.out)
    except HardyliouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
