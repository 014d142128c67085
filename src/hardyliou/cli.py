"""Config-driven experiment runner.

Every subcommand reads one JSON config, drives the corresponding library
operations, writes a JSON report (plus CSV tables where plotting makes
sense), and exits 0 only if every certificate in the report passed.  Reports
are deterministic byte for byte for identical configs and inputs: sorted
keys, fixed seeds, complex numbers as [re, im] pairs, and no wall-clock
values inside the payload.

Exit codes: 0 all certificates pass; 1 a numerical certificate failed;
2 the config or an input file is invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, dmd
from .errors import (
    ConfigError,
    HardyliouError,
    StepBudgetError,
    SymbolOverflowError,
    TrajectoryIngestionError,
)
from .occupation import (
    Trajectory,
    integrate_ode,
    liouville_occupation_residual,
    read_trajectory_csv,
    weighted_occupation_residual,
)
from .operators import (
    adjoint_battery,
    liouville_matrix,
    modulus_identity_defect,
    smirnov_decompose,
)
from .series import TaylorPolynomial, complex_pairs, to_boundary
from .spectral import eigendecompose
from .weighted import boundedness_bound, hs_norm, polar_grid

_SCHEMA = 1


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _fail(field: str, message: str):
    raise ConfigError(f"config field '{field}': {message}")


def _require(cfg: dict, field: str):
    if field not in cfg:
        _fail(field, "is required for this command")
    return cfg[field]


# memory budgets, checked before anything is allocated: one dense (N+1)^2
# complex matrix at N = MAX_ORDER takes 269 MB, and one complex sample array
# on MAX_BOUNDARY_SIZE points (the M circle, or the bounds polar grid) 16.8 MB
MAX_ORDER = 4096
MAX_BOUNDARY_SIZE = 2**20
# run-time budget for the adjoint battery, 10x its default: one case takes
# about 0.5 ms at the default N = 64 and 0.44 s at N = MAX_ORDER with
# M = MAX_BOUNDARY_SIZE, so the longest battery stays under 8 minutes
MAX_CASES = 1000


def _get_int(cfg: dict, field: str, default=None, minimum=1, maximum=None):
    value = cfg.get(field, default)
    if value is None:
        _fail(field, "is required for this command")
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"must be an integer, got {value!r}")
    if value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(field, f"must be <= {maximum} (memory budget), got {value}")
    return value


def _get_order(cfg: dict, default=None):
    return _get_int(cfg, "N", default=default, maximum=MAX_ORDER)


def _get_float(cfg: dict, field: str, default=None, positive=False):
    value = cfg.get(field, default)
    if value is None:
        _fail(field, "is required for this command")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # see _parse_complex
        _fail(field, f"must be finite, got {value!r}")
    if positive and value <= 0:
        _fail(field, f"must be positive, got {value}")
    return float(value)


def _parse_complex(value, field: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(field, f"must be a number or [re, im] pair, got {value!r}")
    # false for NaN, +-Infinity (json.loads accepts both) and huge JSON ints
    if not all(abs(v) <= sys.float_info.max for v in parts):
        _fail(field, f"must be finite, got {value!r}")
    return complex(*parts)


def _parse_coeffs(cfg: dict, field: str, required=True) -> TaylorPolynomial | None:
    if field not in cfg:
        if required:
            _fail(field, "is required for this command")
        return None
    raw = cfg[field]
    if not isinstance(raw, list) or not raw:
        _fail(field, "must be a nonempty coefficient list")
    coeffs = [
        _parse_complex(item, f"{field}[{k}]") for k, item in enumerate(raw)
    ]
    return TaylorPolynomial(coeffs)


def _check_boundary_size(cfg: dict, order: int, default: int | None = None):
    if "M" not in cfg and default is None:
        return None
    size = _get_int(cfg, "M", default=default, minimum=2, maximum=MAX_BOUNDARY_SIZE)
    if size < 2 * order + 2:
        _fail("M", f"must be >= 2N+2 = {2 * order + 2}, got {size}")
    return size


def ingest_trajectories(paths) -> list[Trajectory]:
    """Read and validate trajectory CSVs; ingestion errors cite file and row."""
    out = []
    for path in paths:
        traj = read_trajectory_csv(path)
        if traj.times.size < 3:
            raise TrajectoryIngestionError(
                f"{path}: {traj.times.size} data rows; the occupation "
                "quadrature needs at least 3"
            )
        out.append(traj)
    return out


def _trajectories_from_config(cfg: dict) -> list[Trajectory]:
    if "trajectories" in cfg:
        paths = cfg["trajectories"]
        if not isinstance(paths, list) or not paths:
            _fail("trajectories", "must be a nonempty list of CSV paths")
        for k, p in enumerate(paths):
            if not isinstance(p, str):
                _fail(f"trajectories[{k}]", "must be a path string")
            if not Path(p).is_file():
                _fail(f"trajectories[{k}]", f"file not found: {p}")
        return ingest_trajectories(paths)
    if "ode" in cfg:
        ode = cfg["ode"]
        if not isinstance(ode, dict):
            _fail("ode", "must be an object {z0, T, dt}")
        f = _parse_coeffs(cfg, "f")
        z0 = _parse_complex(_require(ode, "z0"), "ode.z0")
        t_final = _get_float(ode, "T", positive=True)
        dt = _get_float(ode, "dt", positive=True)
        try:
            return [integrate_ode(f, z0, t_final, dt)]
        except StepBudgetError as exc:
            raise ConfigError(f"config fields 'ode.T' and 'ode.dt': {exc}") from None
    _fail("trajectories", "either 'trajectories' or 'ode' must be given")


def _certificate(name, residual, tolerance, formula, passed=None):
    return {
        "name": name,
        "passed": bool(residual <= tolerance if passed is None else passed),
        "residual": float(residual),
        "tolerance": float(tolerance),
        "tolerance_formula": formula,
    }


def _strict_json(value):
    # RFC 8259 JSON has no Infinity or NaN, so non-finite floats become strings
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "infinite" if value > 0 else "-infinite"
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_report(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns its report body; run() adds schema and command
# ---------------------------------------------------------------------------


def _cmd_spectrum(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg)
    f = _parse_coeffs(cfg, "f")
    tolerance = _get_float(cfg, "tolerance", default=1e-8, positive=True)
    pairs = eigendecompose(liouville_matrix(f, order))
    cert = _certificate(
        "eigenpair_residual",
        max(p.residual for p in pairs),
        tolerance,
        "max_k ||A v_k - lambda_k v_k||_2 <= tolerance, unit v_k",
    )
    return {
        "inputs": {"N": order, "f": complex_pairs(f.coeffs)},
        "eigenvalues": complex_pairs([p.value for p in pairs]),
        "residuals": [p.residual for p in pairs],
        "certificates": [cert],
    }


def _cmd_adjoint_check(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=64)
    size = _check_boundary_size(cfg, order, default=max(512, 4 * (order + 1)))
    cases = _get_int(cfg, "cases", default=100)
    if cases > MAX_CASES:
        _fail("cases", f"must be <= {MAX_CASES} (run-time budget), got {cases}")
    seed = _get_int(cfg, "seed", default=0, minimum=0)
    tolerance = _get_float(cfg, "tolerance", default=1e-8, positive=True)
    f = _parse_coeffs(cfg, "f", required=False)
    cert = _certificate(
        "adjoint_route_agreement",
        adjoint_battery(order, size, cases, seed, f),
        tolerance,
        "max over battery of ||transpose_route - boundary_route||_2 <= tolerance",
    )
    return {
        "inputs": {
            "N": order,
            "M": size,
            "cases": cases,
            "seed": seed,
            "f": None if f is None else complex_pairs(f.coeffs),
        },
        "certificates": [cert],
    }


def _cmd_occupation(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=80)
    f = _parse_coeffs(cfg, "f")
    tolerance = _get_float(cfg, "tolerance", default=1e-6, positive=True)
    trajectories = _trajectories_from_config(cfg)
    residuals = [
        float(liouville_occupation_residual(f, traj, order))
        for traj in trajectories
    ]
    cert = _certificate(
        "occupation_adjoint_identity",
        max(residuals),
        tolerance,
        "max_i ||A*_matrix Gamma_i - (K_end_i - K_start_i)||_2 <= tolerance",
    )
    return {
        "inputs": {"N": order, "f": complex_pairs(f.coeffs)},
        "residuals": residuals,
        "trajectory_digests": [t.content_digest() for t in trajectories],
        "certificates": [cert],
    }


def _cmd_weighted(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=80)
    f = _parse_coeffs(cfg, "f")
    phi = _parse_coeffs(cfg, "phi")
    tolerance = _get_float(cfg, "tolerance", default=1e-6, positive=True)
    trajectories = _trajectories_from_config(cfg)
    residuals = [
        float(weighted_occupation_residual(f, phi, traj, order))
        for traj in trajectories
    ]
    cert = _certificate(
        "weighted_occupation_adjoint_identity",
        max(residuals),
        tolerance,
        "max_i ||A*_matrix Gamma_i - (K_phi(end_i) - K_phi(start_i))||_2 "
        "<= tolerance",
    )
    return {
        "inputs": {
            "N": order,
            "f": complex_pairs(f.coeffs),
            "phi": complex_pairs(phi.coeffs),
        },
        "residuals": residuals,
        "trajectory_digests": [t.content_digest() for t in trajectories],
        "certificates": [cert],
    }


def _cmd_dmd(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=64)
    tolerance = _get_float(cfg, "tolerance", default=1e-2, positive=True)
    ridge = cfg.get("ridge")
    if ridge is not None:
        ridge = _get_float(cfg, "ridge")
        if ridge < 0:
            _fail("ridge", "must be nonnegative")
    trajectories = _trajectories_from_config(cfg)
    model = dmd.fit(trajectories, order=order, ridge=ridge)
    gram = model.gram
    psd_defect = float(max(0.0, -np.min(np.linalg.eigvalsh(gram))))
    psd_floor = 1e-12 * float(np.trace(gram).real)
    certs = [
        _certificate(
            "gram_positive_semidefinite",
            psd_defect,
            psd_floor,
            "max(0, -min eig(G)) <= 1e-12 * trace(G)",
        ),
        _certificate(
            "identity_observable_capture",
            model.identity_residual,
            tolerance,
            "||least-squares residual of id(z)=z against kernel span||_2 "
            "<= tolerance",
        ),
    ]
    predictions = []
    if "predict" in cfg:
        block = cfg["predict"]
        if not isinstance(block, dict):
            _fail("predict", "must be an object {z0, times}")
        z0 = _parse_complex(_require(block, "z0"), "predict.z0")
        times = block.get("times")
        if not isinstance(times, list) or not times:
            _fail("predict.times", "must be a nonempty list of reals")
        for k, t in enumerate(times):
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                _fail(f"predict.times[{k}]", "must be a real number")
        times = [float(t) for t in times]
        values = complex_pairs(dmd.predict(model, z0, np.array(times)))
        predictions = [{"t": t, "value": v} for t, v in zip(times, values)]
    model_path = out_dir / "dmd_model.json"
    model_path.parent.mkdir(parents=True, exist_ok=True)
    model_path.write_text(model.to_json())
    return {
        "inputs": {"N": order, "ridge_requested": ridge},
        "rank": model.rank,
        "singular_value_ratio": model.singular_value_ratio,
        "regularization": model.regularization,
        "eigenvalues": complex_pairs(model.eigenvalues),
        "mode_residuals": [float(r) for r in model.mode_residuals],
        "identity_residual": model.identity_residual,
        "trajectory_digests": list(model.trajectory_digests),
        "predictions": predictions,
        "certificates": certs,
    }


def _cmd_bounds(cfg: dict, out_dir: Path) -> dict:
    f = _parse_coeffs(cfg, "f")
    phi = _parse_coeffs(cfg, "phi")
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
    result = boundedness_bound(f, phi, polar_grid(n_radii, n_angles, r_max))
    expect = cfg.get("expect_diverges")
    if expect is not None and not isinstance(expect, bool):
        _fail("expect_diverges", "must be a boolean")
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
        "inputs": {
            "f": complex_pairs(f.coeffs),
            "phi": complex_pairs(phi.coeffs),
            "n_radii": n_radii,
            "n_angles": n_angles,
            "r_max": r_max,
        },
        "supremum": result.supremum,
        "diverges": result.diverges,
        "profile_csv": csv_path.name,
        "certificates": [cert],
    }


def _cmd_hs_norm(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=64)
    f = _parse_coeffs(cfg, "f")
    phi = _parse_coeffs(cfg, "phi")
    size = _check_boundary_size(cfg, order)
    tolerance = _get_float(cfg, "tolerance", default=1e-8, positive=True)
    result = hs_norm(f, phi, order, size)
    if result.finite:
        cert = _certificate(
            "hilbert_schmidt_dual_route",
            abs(result.frobenius_sq - result.quadrature_sq),
            tolerance,
            "|Frobenius^2 - quadrature^2| <= tolerance",
        )
    else:
        expect_finite = cfg.get("expect_finite", True)
        if not isinstance(expect_finite, bool):
            _fail("expect_finite", "must be a boolean")
        cert = _certificate(
            "hilbert_schmidt_finiteness",
            math.inf,
            math.inf,
            "quadrature diverges because |phi| reaches the circle; passes "
            "iff divergence was declared via expect_finite=false",
            passed=not expect_finite,
        )
    return {
        "inputs": {
            "N": order,
            "M": size,
            "f": complex_pairs(f.coeffs),
            "phi": complex_pairs(phi.coeffs),
        },
        "frobenius_sq": result.frobenius_sq,
        "quadrature_sq": result.quadrature_sq,
        "finite": result.finite,
        "certificates": [cert],
    }


def _cmd_smirnov(cfg: dict, out_dir: Path) -> dict:
    order = _get_order(cfg, default=256)
    f = _parse_coeffs(cfg, "f")
    size = _check_boundary_size(cfg, order, default=max(1024, 4 * (order + 1)))
    tolerance = _get_float(cfg, "tolerance", default=1e-10, positive=True)
    pair = smirnov_decompose(to_boundary(f.truncated(order), size), order)
    cert = _certificate(
        "modulus_identity",
        modulus_identity_defect(pair.a, pair.b, size),
        tolerance,
        "max over boundary grid of ||a|^2 + |b|^2 - 1| <= tolerance",
    )
    return {
        "inputs": {"N": order, "M": size, "f": complex_pairs(f.coeffs)},
        "normalized": pair.normalized,
        "a0": complex_pairs(pair.a(0)),
        "certificates": [cert],
    }


def _cmd_verify_all(cfg: dict, out_dir: Path) -> dict:
    certs = []
    for result in acceptance.run_all():
        cert = _certificate(
            f"criterion_{result.index:02d}_"
            + result.name.replace(" ", "_").replace("-", "_"),
            result.residual,
            result.tolerance,
            "fixed acceptance tolerance; see tests/test_acceptance.py",
            passed=result.passed,
        )
        # wall-clock detail would break byte-for-byte report determinism
        cert["detail"] = {
            k: v for k, v in result.detail.items() if k != "runtime_seconds"
        }
        certs.append(cert)
    return {"certificates": certs, "findings": acceptance.findings()}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "adjoint-check": _cmd_adjoint_check,
    "occupation": _cmd_occupation,
    "weighted": _cmd_weighted,
    "dmd": _cmd_dmd,
    "bounds": _cmd_bounds,
    "hs-norm": _cmd_hs_norm,
    "smirnov": _cmd_smirnov,
    "verify-all": _cmd_verify_all,
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
    name = config.get("output", f"{command.replace('-', '_')}_report.json")
    # a plain name keeps the report inside out_dir; the OS refuses a NUL byte
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or Path(name).name != name
        or "\0" in name
    ):
        _fail("output", f"must be a plain file name inside --out, got {name!r}")
    report = {"schema": _SCHEMA, "command": command}
    report.update(_COMMANDS[command](config, out_path))
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
    except (ConfigError, SymbolOverflowError, TrajectoryIngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HardyliouError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(console_main())
