"""End-to-end checks of the console entry point.

Each test drives ``console_main`` with a config file in a temp directory and
inspects the exit code, the printed certificate lines, and the JSON report.
"""

import dataclasses
import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hardyliou import (
    TaylorPolynomial,
    Trajectory,
    acceptance,
    cli,
    adjoint_apply_boundary,
    integrate_ode,
    liouville_adjoint_apply,
    write_trajectory_csv,
)
from hardyliou.cli import console_main, run
from hardyliou.errors import ConfigError, TrajectoryMismatchWarning


def _run(tmp_path, command, config, out="out"):
    cfg_path = tmp_path / f"{command}_cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = console_main(
        [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    )
    return code, tmp_path / out


def _report(out_dir, name):
    return json.loads((out_dir / name).read_text())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_spectrum_exit_zero_and_report_contents(tmp_path):
    code, out = _run(
        tmp_path, "spectrum", {"N": 12, "f": [[0.1, 0.0], [0.9, 0.0]]}
    )
    assert code == 0
    report = _report(out, "spectrum_report.json")
    assert report["schema"] == 1
    eigs = [complex(re, im) for re, im in report["eigenvalues"]]
    assert eigs == [0.9 * n for n in range(13)]
    cert = report["certificates"][0]
    assert cert["passed"] and "tolerance_formula" in cert


def test_reports_are_byte_identical_across_runs(tmp_path):
    config = {"N": 10, "f": [0.0, 1.0]}
    _run(tmp_path, "spectrum", config, out="a")
    _run(tmp_path, "spectrum", config, out="b")
    first = (tmp_path / "a" / "spectrum_report.json").read_bytes()
    second = (tmp_path / "b" / "spectrum_report.json").read_bytes()
    assert first == second
    # two dmd fits of the same CSVs, with forecasts: report and model alike
    field, paths = TaylorPolynomial([0.0, -0.3 + 1.0j]), []
    for k in range(6):
        paths.append(str(tmp_path / f"orbit_{k}.csv"))
        write_trajectory_csv(integrate_ode(field, 0.1 * (k + 1) * 1j**k, 1.0, 1e-3), paths[-1])
    config = {"N": 16, "trajectories": paths, "predict": {"z0": 0.1, "times": [0, 0.5, 1]}}
    for out in ("dmd_a", "dmd_b"):
        assert _run(tmp_path, "dmd", config, out=out)[0] == 0
    for name in ("dmd_report.json", "dmd_model.json"):
        assert (tmp_path / "dmd_a" / name).read_bytes() == (tmp_path / "dmd_b" / name).read_bytes()


def test_certificate_failure_exits_one(tmp_path, capsys):
    # dual-route HS gap is ~1e-16 but never exactly zero here
    config = {
        "N": 32,
        "f": [1.0],
        "phi": [0.0, 0.5],
        "tolerance": 1e-30,
    }
    code, out = _run(tmp_path, "hs-norm", config)
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    report = _report(out, "hs_norm_report.json")
    assert not report["certificates"][0]["passed"]
    assert report["certificates"][0]["residual"] > 0


def test_invalid_config_exits_two_and_names_field(tmp_path, capsys):
    code, _ = _run(tmp_path, "spectrum", {"N": 0, "f": [0.0, 1.0]})
    assert code == 2
    err = capsys.readouterr().err
    assert "'N'" in err and ">= 1" in err


def test_missing_coefficients_named(tmp_path, capsys):
    code, _ = _run(tmp_path, "spectrum", {"N": 4})
    assert code == 2
    assert "'f'" in capsys.readouterr().err


def test_bad_complex_entry_named_with_index(tmp_path, capsys):
    code, _ = _run(tmp_path, "spectrum", {"N": 4, "f": [0.0, "one"]})
    assert code == 2
    assert "f[1]" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = console_main(
        ["spectrum", "--config", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_config_that_is_a_directory_exits_two(tmp_path, capsys):
    code = console_main(["spectrum", "--config", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config {tmp_path} could not be read" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = console_main(["spectrum", "--config", str(bad)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_config_required_except_verify_all(capsys):
    code = console_main(["spectrum"])
    assert code == 2
    assert "--config" in capsys.readouterr().err


def test_boundary_size_constraint_enforced(tmp_path, capsys):
    config = {"N": 64, "M": 100, "cases": 1, "seed": 0}
    code, _ = _run(tmp_path, "adjoint-check", config)
    assert code == 2
    assert "2N+2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, symbol",
    [
        ("spectrum", {"N": 8, "f": [1e308, 1e308]}, "symbol f "),
        ("adjoint-check", {"N": 8, "f": [1e308, 1e308], "cases": 1}, "symbol f "),
        ("hs-norm", {"N": 8, "f": [0.3, 0.5], "phi": [0.1, 1e308, 1e308]}, "symbol phi"),
        ("hs-norm", {"N": 8, "f": [1e308, 0.5], "phi": [0.1, 0.3]}, "symbol f "),
        (
            "occupation",
            {"N": 8, "f": [1e308, 1e308], "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01}},
            "symbol f ",
        ),
        ("adjoint-check", {"N": 1, "M": 8, "f": [1e308, 1e308], "cases": 1}, "symbol f "),
        ("smirnov", {"N": 8, "f": [0.1, 1e308]}, "symbol f "),
        ("bounds", {"f": [1e308], "phi": [0, 0.5]}, "symbol f "),
        ("smirnov", {"N": 8, "f": [1e308, 1e308]}, "symbol f "),
        # dense route: the spectrum is linear in f, and at 2.5e307 its top
        # eigenvalue (about 3.1e308) is past the largest double
        ("spectrum", {"N": 6, "f": [2.5e307] * 3}, "symbol f overflows the eigenvalues"),
        # phi(0) = 0, read off the coefficients: no product that overflows
        ("hs-norm", {"N": 8, "f": [1], "phi": [0, [1e308, 1e308]]}, "symbol phi"),
        # a finite phi that leaves the disk on the orbit or the polar grid is
        # refused the same way
        (
            "weighted",
            {"f": [0.1, 0.9], "phi": [0, 5], "ode": {"z0": 0.2, "T": 0.5, "dt": 0.01}},
            "phi must map into",
        ),
        ("bounds", {"f": [1], "phi": [0, 2]}, "phi must map into"),
        # a finite weight |f phi'|^2 whose quadrature integrand overflows
        # where |phi| is near 1
        (
            "hs-norm",
            {"N": 4, "f": [1e153], "phi": [0, 0.999]},
            "symbol f (with phi) overflows the Hilbert-Schmidt norm at order 4",
        ),
        ("hs-norm", {"f": [1e140], "phi": [0, 0.999999999999999]}, "symbol f (with phi)"),
    ],
)
def test_overflowing_symbol_exits_two_naming_it(tmp_path, capsys, command, config, symbol):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = _run(tmp_path, command, config)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and symbol in lines[0]


def test_field_overflowing_on_the_samples_exits_without_traceback(tmp_path, capsys):
    # the orbit reaches z = 0.87, where f's Horner sum passes the largest double
    orbit = integrate_ode(TaylorPolynomial([0.0, 1.0]), 0.5, 0.55, 0.01)
    write_trajectory_csv(orbit, tmp_path / "orbit.csv")
    huge = [0, [1e308, 1e308], [1e308, 1e308]]
    config = {"N": 16, "f": huge, "trajectories": [str(tmp_path / "orbit.csv")]}
    # the overflowing defect is nan, which still warns
    with pytest.warns(TrajectoryMismatchWarning, match="defect nan"):
        code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: symbol f ")
    with pytest.warns(TrajectoryMismatchWarning, match="defect nan"):
        code, _ = _run(tmp_path, "weighted", {**config, "phi": [0, 0.5]}, out="weighted")
    assert code == 1
    printed = capsys.readouterr()
    assert "FAIL weighted_occupation_adjoint_identity" in printed.out
    assert "Traceback" not in printed.err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": float("nan"), "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": float("inf"), "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": [0.1, float("-inf")], "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("spectrum", {"N": 8, "f": [0.1, float("nan")]}, "f[1]"),
        ("spectrum", {"N": 8, "f": [0.1, 10**400]}, "f[1]"),
        ("bounds", {"f": [0.1, 0.5], "phi": [0, float("inf")]}, "phi[1]"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": 0.2, "T": float("nan"), "dt": 0.01}}, "ode.T"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": 0.2, "T": 0.1, "dt": float("inf")}}, "ode.dt"),
        ("spectrum", {"N": 8, "f": [0.1, 0.9], "tolerance": float("nan")}, "tolerance"),
        ("dmd", {"N": 8, "ridge": float("inf")}, "ridge"),
        (
            "dmd",
            {
                "N": 8,
                "f": [0, 1],
                "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01},
                "predict": {"z0": 0.1, "times": [0.5, 10**400]},
            },
            "predict.times[1]",
        ),
        *(
            (
                "dmd",
                {
                    "N": 8,
                    "f": [0, 1],
                    "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01},
                    "predict": {"z0": 0.1, "times": [time, 0.5]},
                },
                "predict.times[0]",
            )
            for time in (float("nan"), float("inf"), float("-inf"))
        ),
        ("spectrum", {"N": 8, "f": [[float("nan"), 0]]}, "f[0]"),
    ],
)
def test_nonfinite_config_number_exits_two_naming_the_field(
    tmp_path, capsys, command, config, field
):
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and f"'{field}'" in lines[0] and "finite" in lines[0]


_REQUIRED = "is required for this command"


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("occupation", {"ode": {"T": 1, "dt": 0.01}}, f"'ode.z0': {_REQUIRED}"),
        ("occupation", {"ode": {"z0": 0.2, "T": -1, "dt": 0.01}}, "'ode.T': must be positive, got -1"),
        ("occupation", {"ode": {"z0": 0.2, "T": 1}}, f"'ode.dt': {_REQUIRED}"),
        (
            "dmd",
            {"ode": {"z0": 0.2, "T": 0.1, "dt": 0.01}, "predict": {"times": [0.5]}},
            f"'predict.z0': {_REQUIRED}",
        ),
    ],
)
def test_nested_field_is_named_by_its_full_path(tmp_path, capsys, command, config, message):
    code, _ = _run(tmp_path, command, {"N": 8, "f": [0, 1], **config})
    assert code == 2
    assert capsys.readouterr().err == f"error: config field {message}\n"


def test_non_boolean_expect_finite_exits_two_on_a_finite_norm(tmp_path, capsys):
    config = {"N": 64, "f": [1.0], "phi": [0, 0.5], "expect_finite": "yes"}
    code, _ = _run(tmp_path, "hs-norm", config)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: config field 'expect_finite': must be a boolean\n"
    )


_SMALL_ODE = {"z0": 0.2, "T": 0.1, "dt": 0.01}
# each command with only the fields it requires, so every other field it
# reads takes its default or stays optional
_BARE = {
    "spectrum": {"N": 6, "f": [0.1, 0.9]},
    "adjoint-check": {"cases": 2},
    "occupation": {"f": [0, 1], "ode": _SMALL_ODE},
    "weighted": {"f": [0, 1], "phi": [0, 0, 1], "ode": _SMALL_ODE},
    "dmd": {"f": [0, 1], "ode": _SMALL_ODE},
    "bounds": {"f": [1.0], "phi": [0, 0.5], "n_radii": 4, "n_angles": 8},
    "hs-norm": {"f": [1.0], "phi": [0, 0.5]},
    "smirnov": {"f": [0.5, 0.2]},
    "verify-all": {},
}
_OPTIONAL_FIELDS = [
    *(
        (c, "N")
        for c in ("adjoint-check", "occupation", "weighted", "dmd", "hs-norm", "smirnov")
    ),
    *((c, "M") for c in ("adjoint-check", "hs-norm", "smirnov")),
    *((c, "tolerance") for c in _BARE if c not in ("bounds", "verify-all")),
    *((c, "output") for c in _BARE),
    ("adjoint-check", "cases"),
    ("adjoint-check", "seed"),
    ("adjoint-check", "f"),
    ("dmd", "ridge"),
    ("dmd", "predict"),
    *((c, "trajectories") for c in ("occupation", "weighted", "dmd")),
    *(("bounds", k) for k in ("n_radii", "n_angles", "r_max", "expect_diverges")),
    ("hs-norm", "expect_finite"),
]


def _outcome(tmp_path, capsys, command, config, out):
    code, out_dir = _run(tmp_path, command, config, out=out)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command, field", _OPTIONAL_FIELDS)
def test_null_field_is_the_field_left_out(tmp_path, capsys, command, field):
    config = {k: v for k, v in _BARE[command].items() if k != field}
    left_out = _outcome(tmp_path, capsys, command, config, "left_out")
    null = _outcome(tmp_path, capsys, command, {**config, field: None}, "null")
    assert left_out[0] in (0, 1) and left_out[2]
    assert null == left_out


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("spectrum", {"N": None, "f": [0.1, 0.9]}, "N"),
        ("spectrum", {"N": 6, "f": None}, "f"),
        ("weighted", {"f": [0, 1], "phi": None, "ode": _SMALL_ODE}, "phi"),
        ("bounds", {"f": [1.0], "phi": None}, "phi"),
        ("hs-norm", {"f": [1.0], "phi": None}, "phi"),
        *(
            ("occupation", {"f": [0, 1], "ode": {**_SMALL_ODE, key: None}}, f"ode.{key}")
            for key in ("z0", "T", "dt")
        ),
        *(
            (
                "dmd",
                {
                    "f": [0, 1],
                    "ode": _SMALL_ODE,
                    "predict": {"z0": 0.1, "times": [0.5], key: None},
                },
                f"predict.{key}",
            )
            for key in ("z0", "times")
        ),
    ],
)
def test_null_required_field_exits_two(tmp_path, capsys, command, config, field):
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"error: config field '{field}': {_REQUIRED}\n"


def _never_called(*args, **kwargs):
    raise AssertionError("computed before every field was checked")


@pytest.mark.parametrize(
    "command, config, target, field",
    [
        (
            "dmd",
            {
                "N": 8,
                "f": [0, 1],
                "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01},
                "predict": {"z0": 0.1, "times": [0.5, "soon"]},
            },
            (cli.dmd, "fit"),
            "predict.times[1]",
        ),
        (
            "bounds",
            {"f": [1.0], "phi": [0, 0.5], "expect_diverges": "no"},
            (cli, "boundedness_bound"),
            "expect_diverges",
        ),
        (
            "hs-norm",
            {"N": 8, "f": [1.0], "phi": [0, 0.5], "expect_finite": "yes"},
            (cli, "hs_norm"),
            "expect_finite",
        ),
        (
            "dmd",
            {
                "N": 8,
                "f": [0, 1],
                "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01},
                "predict": {"z0": 1.5, "times": [0.5]},
            },
            (cli.dmd, "fit"),
            "predict.z0",
        ),
        (
            "dmd",
            {
                "N": 8,
                "trajectories": ["missing.csv"],
                "predict": {"z0": 5.0, "times": [0.5]},
            },
            (cli, "ingest_trajectories"),
            "predict.z0",
        ),
    ],
)
def test_every_field_is_checked_before_the_command_computes(
    tmp_path, capsys, monkeypatch, command, config, target, field
):
    monkeypatch.setattr(*target, _never_called)
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config field '{field}': ")


@pytest.mark.parametrize("f", [[1e300, 1e300], [1e300, 1e300, 1e300]])
def test_huge_symbol_gets_a_finite_eigenpair_residual(tmp_path, capsys, f):
    # triangular, then dense: the images are finite, only their squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "spectrum", {"N": 6, "f": f})
    assert code == 1
    residual = _report(out, "spectrum_report.json")["certificates"][0]["residual"]
    assert isinstance(residual, float) and 1e280 < residual < 1e290


def test_largest_finite_dense_spectrum_reports_its_residual(tmp_path, capsys):
    # top eigenvalue 1.2459e308, just inside the range of doubles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "spectrum", {"N": 6, "f": [1e307] * 3})
    assert code == 1
    residual = _report(out, "spectrum_report.json")["certificates"][0]["residual"]
    assert isinstance(residual, float) and 1e290 < residual < 1e295


@pytest.mark.parametrize(
    "ode", [{"z0": 0.2, "T": 1e300, "dt": 1e-300}, {"z0": 0.2, "T": 1.0, "dt": 1e-7}]
)
def test_ode_over_step_budget_exits_two_naming_t_and_dt(tmp_path, capsys, ode):
    code, _ = _run(tmp_path, "occupation", {"N": 8, "f": [0, 1], "ode": ode})
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "'ode.T'" in lines[0] and "'ode.dt'" in lines[0] and "budget" in lines[0]


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("spectrum", {"N": 1_000_000, "f": [0.1, 0.9]}, "N"),
        ("hs-norm", {"N": 8, "M": 10**12, "f": [0.1, 0.9], "phi": [0, 0.5]}, "M"),
        (
            "bounds",
            {"f": [0.1], "phi": [0, 0.5], "n_radii": 1_000_000, "n_angles": 1_000_000},
            "n_radii,n_angles",
        ),
        ("adjoint-check", {"N": 8, "cases": 10**12}, "cases"),
    ],
)
def test_order_and_boundary_size_over_budget_exit_two(tmp_path, capsys, command, config, field):
    # without the budgets all but adjoint-check die in numpy's allocator with a
    # traceback; adjoint-check would run for years
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "budget" in lines[0]
    assert all(f"'{name}'" in lines[0] for name in field.split(","))


@pytest.mark.parametrize(
    # None stands for an absolute path
    "name", ["../x/../../escape.json", "../up.json", "sub/r.json", "..", ".", "a\0b", None]
)
def test_output_outside_out_dir_exits_two_before_computing(tmp_path, capsys, name):
    if name is None:
        name = str(tmp_path / "abs.json")
    config = {"N": 8, "f": [0.1, 0.9], "ode": _ODE, "output": name}
    code, _ = _run(tmp_path, "dmd", config, out="a/o")
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "'output'" in err
    # dmd writes its model file first, so nothing under tmp_path means
    # nothing was computed
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dmd_cfg.json"]


def test_nonfinite_predict_z0_exits_two(tmp_path, capsys):
    f = TaylorPolynomial([0.1, 0.9])
    paths = []
    for k, z0 in enumerate((0.05, 0.1j, -0.1)):
        path = tmp_path / f"traj{k}.csv"
        write_trajectory_csv(integrate_ode(f, z0, 0.5, 1e-2), path)
        paths.append(str(path))
    config = {
        "N": 8,
        "trajectories": paths,
        "predict": {"z0": float("nan"), "times": [0.1]},
    }
    code, _ = _run(tmp_path, "dmd", config)
    assert code == 2
    assert "'predict.z0': must be finite" in capsys.readouterr().err


def test_adjoint_check_battery_passes(tmp_path):
    config = {"N": 24, "M": 128, "cases": 6, "seed": 1}
    code, out = _run(tmp_path, "adjoint-check", config)
    assert code == 0
    report = _report(out, "adjoint_check_report.json")
    assert report["inputs"]["seed"] == 1
    assert report["certificates"][0]["residual"] < 1e-8


def test_occupation_from_ode_config(tmp_path):
    config = {
        "N": 80,
        "f": [0.0, 1.0],
        "ode": {"z0": [0.2, 0.0], "T": 1.0, "dt": 1e-3},
        "output": "occ.json",
    }
    code, out = _run(tmp_path, "occupation", config)
    assert code == 0
    report = _report(out, "occ.json")
    # the integrated orbit is cited by the sha256 of its CSV file
    write_trajectory_csv(integrate_ode(TaylorPolynomial([0.0, 1.0]), 0.2, 1.0, 1e-3), tmp_path / "orbit.csv")
    assert report["trajectory_digests"] == [_sha256(tmp_path / "orbit.csv")]
    assert report["certificates"][0]["residual"] < 1e-6


def test_occupation_from_csv_files(tmp_path):
    f = TaylorPolynomial([0.0, 1.0])
    paths = []
    for k, z0 in enumerate((0.2, 0.1 + 0.1j)):
        traj = integrate_ode(f, z0, 1.0, 1e-3)
        path = tmp_path / f"traj{k}.csv"
        write_trajectory_csv(traj, path)
        paths.append(str(path))
    config = {"N": 80, "f": [0.0, 1.0], "trajectories": paths}
    code, out = _run(tmp_path, "occupation", config)
    assert code == 0
    report = _report(out, "occupation_report.json")
    assert report["trajectory_digests"] == [_sha256(path) for path in paths]
    assert len(report["residuals"]) == 2
    assert max(report["residuals"]) < 1e-6


def test_missing_trajectory_file_exits_two(tmp_path, capsys):
    config = {
        "N": 16,
        "f": [0.0, 1.0],
        "trajectories": [str(tmp_path / "ghost.csv")],
    }
    code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_corrupt_trajectory_row_cited(tmp_path, capsys):
    path = tmp_path / "corrupt.csv"
    path.write_text("t,re,im\n0.0,0.1,0.0\n0.5,oops,0.0\n")
    config = {"N": 16, "f": [0.0, 1.0], "trajectories": [str(path)]}
    code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    err = capsys.readouterr().err
    # rows are counted from the top of the file, header included
    assert "corrupt.csv" in err and "row 3" in err


def test_nonfinite_trajectory_sample_cited(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("t,re,im\n0,0.1,0\n0.1,nan,0\n0.2,0.1,0\n")
    config = {"N": 16, "f": [0.0, 1.0], "trajectories": [str(path)]}
    code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "nan.csv" in err and "row 3" in err and "not finite" in err


@pytest.mark.parametrize("command", ["occupation", "dmd"])
def test_time_span_beyond_the_largest_double_exits_two(tmp_path, capsys, command):
    # 1e308 - (-1e308) overflows; the quadrature weights would be infinite
    path = tmp_path / "wide.csv"
    path.write_text("t,re,im\n-1e308,0.1,0\n0,0.2,0\n1e308,0.3,0\n")
    config = {"N": 8, "f": [0.0, 1.0], "trajectories": [str(path)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: row 4 has a time span from the first sample that is not finite\n"
    )


def test_huge_finite_time_span(tmp_path, capsys):
    # every sample rule holds, but the moments near 2e300 square past the
    # largest double in the DMD Gram matrix and in the identity's residual
    path = tmp_path / "huge.csv"
    path.write_text("t,re,im\n0,0.1,0\n1e300,0.2,0\n2e300,0.3,0\n")
    config = {"N": 8, "f": [0.0, 1.0], "trajectories": [str(path)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = _run(tmp_path, "dmd", config)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the Gram matrix of the occupation kernels overflows: the "
            "trajectories span up to 2e+300 time units; rescale time\n"
        )
        # the samples do not follow f, so the certificate fails, on a finite
        # residual in place of inf
        code, out_dir = _run(tmp_path, "occupation", config)
    assert code == 1
    residual = _report(out_dir, "occupation_report.json")["residuals"][0]
    assert 1e299 < residual < 1e301


def test_non_utf8_inputs_exit_two_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t,re,im\n0,0.1,0\n0.1,0.2\xff,0\n0.2,0.1,0\n")
    config = {"N": 16, "f": [0.0, 1.0], "trajectories": [str(path)]}
    code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "latin.csv" in err and "row 3" in err and "Traceback" not in err

    cfg_path = tmp_path / "latin.json"
    cfg_path.write_bytes(b'{"N": 8, "f": [0\xff, 1]}')
    code = console_main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "latin.json" in err and "Traceback" not in err


def test_short_trajectory_file_rejected(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("t,re,im\n0,0.1,0\n0.1,0.11,0\n")
    config = {"N": 16, "f": [0.0, 1.0], "trajectories": [str(path)]}
    code, _ = _run(tmp_path, "occupation", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "short.csv" in err and "at least 3" in err


# perfbench's adjoint-check symbol at seed 7 (acceptance N = 128, operators-deep
# N = 1024); the residuals below are the bytes of the case-by-case battery
_PERFBENCH_ADJOINT_F = [
    [0.7349267092583915, -0.02344391855484465],
    [0.07144184429260535, -0.7523114724455892],
    [0.4547841629969166, -0.539297349487321],
    [-0.1429032084967607, -1.108260792181513],
    [-1.2161027602081953, 1.3355318553000226],
]


def test_adjoint_residuals_keep_their_bytes(tmp_path):
    assert acceptance.criterion_3().residual.hex() == "0x1.b4e7d0635515cp-47"
    for order, pinned in ((128, "0x1.1bdb0899fbb7ap-48"), (1024, "0x1.3d81ecf6ad46fp-48")):
        config = {"N": order, "f": _PERFBENCH_ADJOINT_F, "cases": 20, "seed": 7}
        assert run("adjoint-check", config, tmp_path / str(order)) == 0
        report = _report(tmp_path / str(order), "adjoint_check_report.json")
        assert report["certificates"][0]["residual"].hex() == pinned


@pytest.mark.parametrize(
    "config, route",
    [
        ({"N": 8}, "liouville matrix at order 8"),
        ({"N": 1, "M": 8}, "boundary adjoint route at order 1"),
    ],
)
def test_adjoint_check_overflow_past_one_chunk_exits_two(tmp_path, capsys, config, route):
    config = {**config, "f": [1e308, 1e308], "cases": 600}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = _run(tmp_path, "adjoint-check", config)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    message = f"symbol f overflows the {route}; its values must be finite"
    assert message in capsys.readouterr().err


def test_adjoint_check_gap_whose_squares_overflow_fails_with_a_finite_residual(
    tmp_path, capsys
):
    config = {"N": 1, "M": 8, "f": [0, 0, 1e307], "cases": 3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "adjoint-check", config)
    assert code == 1
    residual = _report(out, "adjoint_check_report.json")["certificates"][0]["residual"]
    assert np.isfinite(residual) and residual > 1e290
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"N": 1, "M": 8, "cases": 30}, "must be >= max(4(N+1), N + deg f) = 9 (deg f = 8, the top degree"),
        ({"N": 1, "M": 8, "f": [0] * 8 + [1], "cases": 3}, "must be >= max(4(N+1), N + deg f) = 9 (deg f = 8), got 8"),
        ({"N": 2, "M": 12, "f": [0] * 11 + [1], "cases": 3}, "must be >= max(4(N+1), N + deg f) = 13"),
    ],
)
def test_adjoint_check_grid_below_the_degree_floor_exits_two(
    tmp_path, capsys, config, message
):
    code, _ = _run(tmp_path, "adjoint-check", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'M': ") and message in err
    code, out = _run(tmp_path, "adjoint-check", {**config, "M": config["M"] + 1})
    assert code == 0


def test_adjoint_check_shares_the_criterion_3_battery(tmp_path, capsys):
    run("adjoint-check", {"N": 64, "cases": 100, "seed": 0}, tmp_path / "a")
    report = _report(tmp_path / "a", "adjoint_check_report.json")
    residual = report["certificates"][0]["residual"]
    assert residual == acceptance.criterion_3().residual
    # a fixed symbol draws nothing for f: replaying only (r, phases) from
    # the seed through the public routes gives the same value bit for bit
    config = {"N": 32, "cases": 7, "seed": 3, "f": [0.2, [0.1, -0.3], 0.5]}
    run("adjoint-check", config, tmp_path / "b")
    report = _report(tmp_path / "b", "adjoint_check_report.json")
    residual = report["certificates"][0]["residual"]
    f = TaylorPolynomial([0.2, 0.1 - 0.3j, 0.5])
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(7):
        r = float(rng.uniform(0.2, 0.8))
        phases = np.exp(2j * np.pi * rng.uniform(size=33))
        h = TaylorPolynomial(r ** np.arange(33) * phases)
        gap = liouville_adjoint_apply(f, h, 32).coeffs - adjoint_apply_boundary(
            f, h, 32, report["inputs"]["M"]
        ).coeffs
        worst = max(worst, float(np.linalg.norm(gap)))
    assert residual == worst
    assert residual == 5.425198602104162e-16


def test_weighted_command(tmp_path):
    config = {
        "N": 80,
        "f": [0.0, 1.0],
        "phi": [0.0, 0.0, 1.0],
        "ode": {"z0": [0.2, 0.0], "T": 1.0, "dt": 1e-3},
    }
    code, out = _run(tmp_path, "weighted", config)
    assert code == 0
    report = _report(out, "weighted_report.json")
    assert report["certificates"][0]["residual"] < 1e-6


def test_dmd_command_fits_and_predicts(tmp_path):
    f = TaylorPolynomial([0.1, 0.9])
    paths = []
    for k, r in enumerate((0.1, 0.2, 0.3)):
        for j in range(4):
            z0 = r * np.exp(2j * np.pi * j / 4)
            traj = integrate_ode(f, z0, 1.0, 5e-3)
            path = tmp_path / f"dmd{k}_{j}.csv"
            write_trajectory_csv(traj, path)
            paths.append(str(path))
    config = {
        "N": 48,
        "trajectories": paths,
        "predict": {"z0": [0.2, 0.0], "times": [0.0, 0.5]},
    }
    code, out = _run(tmp_path, "dmd", config)
    assert code == 0
    report = _report(out, "dmd_report.json")
    assert report["identity_residual"] < 1e-2
    assert len(report["predictions"]) == 2
    t0 = complex(*report["predictions"][0]["value"])
    assert abs(t0 - 0.2) < 1e-3
    model = json.loads((out / "dmd_model.json").read_text())
    assert model["schema"] == 2
    assert report["rank"] == model["rank"] == 12
    ratio = report["singular_value_ratio"]
    assert ratio == model["singular_value_ratio"] and 0.0 < ratio < 1.0


def test_dmd_command_holds_one_block_of_orbits_not_all(tmp_path):
    # 200 CSV orbits of 1001 samples: holding every orbit's times and points
    # takes m T 24 bytes, which the command peaked at 1.4 times; read in one
    # pass it holds one block of 32 orbits and its moments (0.43 times)
    count, samples = 200, 1001
    rng = np.random.default_rng(2)
    field = TaylorPolynomial([0.0, complex(-0.5, 1.0)])
    starts = 0.6 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    paths = []
    for k, z0 in enumerate(starts):
        paths.append(str(tmp_path / f"orbit_{k:03d}.csv"))
        write_trajectory_csv(integrate_ode(field, complex(z0), 1.0, 1e-3), paths[-1])
    # imports and caches outside the measurement
    _run(tmp_path, "dmd", {"N": 16, "trajectories": paths[:2]}, out="warm")
    tracemalloc.start()
    try:
        code, out = _run(tmp_path, "dmd", {"N": 16, "trajectories": paths})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert _report(out, "dmd_report.json")["trajectory_digests"] == [
        hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths
    ]
    assert peak < count * samples * 12


def test_dmd_command_ingests_each_path_once_in_config_order(tmp_path, monkeypatch):
    f = TaylorPolynomial([0.1, 0.9])
    paths = []
    for k in range(6):
        paths.append(str(tmp_path / f"orbit_{5 - k}.csv"))
        z0 = 0.2 * np.exp(2j * np.pi * k / 6)
        write_trajectory_csv(integrate_ode(f, z0, 1.0, 1e-2), paths[-1])
    ingest, calls = cli.ingest_trajectories, []

    def spy(arg):
        calls.append(arg)
        return ingest(arg)

    monkeypatch.setattr(cli, "ingest_trajectories", spy)
    code, _ = _run(tmp_path, "dmd", {"N": 8, "trajectories": paths})
    assert code == 0
    # one call per file, in config order, each reading that file alone
    assert [[a] if isinstance(a, str) else list(a) for a in calls] == [
        [path] for path in paths
    ]


def test_dmd_command_holds_no_m_by_m_array(tmp_path):
    # m = 1000 orbits of 11 samples at N = 2: one m x m complex array takes
    # 16 m^2 bytes (the Gram of the old positive-semidefinite certificate);
    # the reproduction check reads three columns of S and the first orbit
    count = 1000
    rng = np.random.default_rng(37)
    times = np.linspace(0.0, 1.0, 11)
    paths = []
    for k in range(count):
        points = 0.5 * rng.uniform(size=11) * np.exp(2j * np.pi * rng.uniform(size=11))
        paths.append(str(tmp_path / f"orbit_{k:04d}.csv"))
        write_trajectory_csv(Trajectory(times, points), paths[-1])
    config = {"N": 2, "trajectories": paths, "tolerance": 1.0}
    run("dmd", dict(config, trajectories=paths[:2]), tmp_path / "warm")
    tracemalloc.start()
    try:
        code = run("dmd", config, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * count**2


def _non_real_batch_config(tmp_path, first_start=None):
    # 12 orbits of zdot = 0.1 + 0.9z, none of them real unless the first
    # starts at a real ``first_start``: on a real orbit a dropped conjugate
    # leaves the reproducing property intact
    f = TaylorPolynomial([0.1, 0.9])
    paths = []
    for k, r in enumerate((0.1, 0.2, 0.3)):
        for j in range(4):
            z0 = r * np.exp(2j * np.pi * (j + 0.5) / 4)
            if first_start is not None and not paths:
                z0 = first_start
            paths.append(str(tmp_path / f"orbit_{k}_{j}.csv"))
            write_trajectory_csv(integrate_ode(f, z0, 1.0, 5e-3), paths[-1])
    return {"N": 48, "trajectories": paths}


def _dropped_conjugate(moments):
    def plant(trajectories, count):
        conjugated = [Trajectory(t.times, np.conj(t.points)) for t in trajectories]
        return moments(conjugated, count)

    return plant


def _shifted_power(moments):
    def plant(trajectories, count):
        shifted, simpson = moments(trajectories, count + 1)
        return shifted[:, 1:], simpson

    return plant


_PLANTS = [None, _dropped_conjugate, _shifted_power]


@pytest.mark.parametrize(
    "plant, first_start",
    [(plant, None) for plant in _PLANTS] + [(plant, 0.1) for plant in _PLANTS],
    ids=[
        "None",
        "_dropped_conjugate",
        "_shifted_power",
        "None-real_first",
        "_dropped_conjugate-real_first",
        "_shifted_power-real_first",
    ],
)
def test_reproduction_certificate_catches_planted_moment_errors(
    tmp_path, capsys, monkeypatch, plant, first_start
):
    # a planted error in the moments that the identity capture misses; with a
    # real first orbit the check reads the first non-real one instead
    config = _non_real_batch_config(tmp_path, first_start)
    if plant is not None:
        monkeypatch.setattr(cli.dmd, "_conj_moments", plant(cli.dmd._conj_moments))
    code, out = _run(tmp_path, "dmd", config)
    reproduction, capture = _report(out, "dmd_report.json")["certificates"]
    assert reproduction["name"] == "occupation_kernel_reproduction"
    assert capture["passed"]
    assert reproduction["passed"] is (plant is None)
    assert code == (0 if plant is None else 1)
    if plant is not None:
        assert reproduction["residual"] > 0.1


@pytest.mark.parametrize(
    "column, value",
    [(0, np.inf), (11, np.inf), (6, np.nan), (0, 1e300)],
    ids=["inf_first", "inf_last", "nan_middle", "huge_first"],
)
def test_reproduction_certificate_fails_on_a_non_finite_basis_entry(
    tmp_path, capsys, monkeypatch, column, value
):
    # fit refuses a basis that is not finite; planted after it, such an
    # entry, or a finite one whose square overflows (residual and tolerance
    # both inf), must fail the certificate, and the report stays strict JSON
    fit = cli.dmd.fit

    def planted(*args, **kwargs):
        model = fit(*args, **kwargs)
        basis = np.array(model.basis)
        basis[5, column] = value
        digests = list(model.trajectory_digests)
        return dataclasses.replace(model, basis=basis, trajectories=digests)

    monkeypatch.setattr(cli.dmd, "fit", planted)
    code, out = _run(tmp_path, "dmd", _non_real_batch_config(tmp_path))
    assert code == 1
    text = (out / "dmd_report.json").read_text()
    reproduction = json.loads(text, parse_constant=pytest.fail)["certificates"][0]
    assert reproduction["name"] == "occupation_kernel_reproduction"
    assert not reproduction["passed"]
    assert reproduction["tolerance"] in ("infinite", "nan")
    if value == 1e300:
        assert reproduction["residual"] == reproduction["tolerance"] == "infinite"


def test_bounds_writes_profile_csv(tmp_path):
    config = {
        "f": [1.0],
        "phi": [0.0, 0.5],
        "n_radii": 12,
        "n_angles": 32,
    }
    code, out = _run(tmp_path, "bounds", config)
    assert code == 0
    lines = (out / "bounds_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "radius,value"
    assert len(lines) == 13
    radius, value = lines[-1].split(",")
    assert 0 < float(radius) < 1 and float(value) > 0
    report = _report(out, "bounds_report.json")
    assert report["diverges"] is False


def test_bounds_divergence_expectation(tmp_path):
    config = {"f": [1.0], "phi": [0.0, 1.0], "expect_diverges": True}
    code, out = _run(tmp_path, "bounds", config)
    assert code == 0
    report = _report(out, "bounds_report.json")
    assert report["diverges"] is True
    # declaring the wrong expectation must flip the exit code
    config["expect_diverges"] = False
    code, _ = _run(tmp_path, "bounds", config, out="wrong")
    assert code == 1


def test_hs_norm_infinite_case_needs_declaration(tmp_path):
    config = {"N": 32, "f": [1.0], "phi": [0.0, 1.0]}
    code, out = _run(tmp_path, "hs-norm", config)
    assert code == 1
    config["expect_finite"] = False
    code, out = _run(tmp_path, "hs-norm", config, out="declared")
    assert code == 0
    report = _report(out, "hs_norm_report.json")
    assert report["quadrature_sq"] == "infinite"


@pytest.mark.parametrize(
    "command, config",
    [
        ("hs-norm", {"N": 8}),
        ("bounds", {}),
        ("weighted", {"N": 8, "ode": {"z0": 0.2, "T": 0.1, "dt": 0.01}}),
    ],
)
def test_constant_phi_just_inside_the_circle_passes_every_disk_rule(
    tmp_path, capsys, command, config
):
    # |phi| = 0x1.fffffffffffffp-1 by hypot, while np.abs rounds it to 1.0
    phi = [[-0.9626681429324231, -0.2706844040262379]]
    code, _ = _run(tmp_path, command, {"f": [1.0], "phi": phi, **config})
    assert code == 0
    assert capsys.readouterr().err == ""


def test_smirnov_command(tmp_path):
    config = {"N": 128, "f": [1.0, -0.5]}
    code, out = _run(tmp_path, "smirnov", config)
    assert code == 0
    report = _report(out, "smirnov_report.json")
    assert report["certificates"][0]["residual"] < 1e-10
    assert report["normalized"] is True


def test_verify_all_covers_every_criterion(tmp_path, capsys):
    code = console_main(["verify-all", "--out", str(tmp_path)])
    assert code == 0
    out_text = capsys.readouterr().out
    assert out_text.count("PASS") == 13
    report = _report(tmp_path, "verify_all_report.json")
    assert len(report["certificates"]) == 13
    assert all(c["passed"] for c in report["certificates"])
    assert set(report["findings"]) == {
        "adjoint_kernel_weights",
        "kernel_action_power",
        "hs_quadrature_exponent",
        "occupation_relation_readings",
        "dmd_identity_capture",
    }
    text = (tmp_path / "verify_all_report.json").read_text()
    # measured wall-clock never lands in a report; fixed budgets may
    assert "runtime_seconds" not in text


def _count_fits(monkeypatch, on_fit=None):
    calls = []
    fit = acceptance.dmd.fit

    def spy(*args, **kwargs):
        calls.append(1)
        if on_fit is not None:
            on_fit()
        return fit(*args, **kwargs)

    monkeypatch.setattr(acceptance.dmd, "fit", spy)
    return calls


def test_verify_all_fits_the_standard_batch_once_per_run(
    tmp_path, monkeypatch, capsys
):
    # criterion 12 and the identity-capture finding share one fit per run,
    # and the shared model does not outlive the run
    calls = _count_fits(monkeypatch)
    assert run("verify-all", {}, tmp_path / "a") == 0
    assert run("verify-all", {}, tmp_path / "b") == 0
    assert len(calls) == 2
    first = (tmp_path / "a" / "verify_all_report.json").read_bytes()
    assert (tmp_path / "b" / "verify_all_report.json").read_bytes() == first
    # called alone, criterion 12 and findings() each fit afresh
    acceptance.criterion_12()
    acceptance.findings()
    assert len(calls) == 4


def test_verify_all_times_the_standard_fit_inside_criterion_12(
    tmp_path, monkeypatch, capsys
):
    # a fit that takes 100 s on the patched clock breaks only criterion 12's
    # 60 s budget, so the shared fit runs inside that criterion's timed region
    now = [0.0]
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def hundred_seconds():
        now[0] += 100.0

    calls = _count_fits(monkeypatch, on_fit=hundred_seconds)
    assert run("verify-all", {}, tmp_path) == 1
    assert len(calls) == 1
    report = _report(tmp_path, "verify_all_report.json")
    failed = [c["name"] for c in report["certificates"] if not c["passed"]]
    assert failed == ["criterion_12_data_driven_spectrum_and_forecast"]


def test_unknown_command_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        console_main(["frobnicate", "--config", "x.json"])
    assert excinfo.value.code == 2


def test_run_api_rejects_an_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="^unknown command 'frobnicate'; expected one of "):
        run("frobnicate", {}, tmp_path)


def test_empty_forecast_times_exit_two_naming_the_field(tmp_path, capsys):
    config = {"N": 8, "f": [0, 1], "ode": _ODE, "predict": {"z0": 0.1, "times": []}}
    code, _ = _run(tmp_path, "dmd", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'predict.times'" in err and "nonempty list" in err


def test_run_api_rejects_non_dict_config(tmp_path):
    with pytest.raises(ConfigError):
        run("spectrum", [1, 2], tmp_path)


def _reject_constant(token):
    raise AssertionError(f"report contains the non-JSON token {token}")


_ODE = {"z0": 0.2, "T": 0.1, "dt": 1e-2}


@pytest.mark.parametrize(
    "command, config",
    [
        ("spectrum", {"N": 8, "f": [0.1, 0.9]}),
        ("adjoint-check", {"N": 8, "cases": 2}),
        ("occupation", {"N": 16, "f": [0.0, 1.0], "ode": _ODE}),
        ("weighted", {"N": 16, "f": [0.0, 1.0], "phi": [0.0, 0.0, 1.0], "ode": _ODE}),
        pytest.param(
            "dmd",
            {"N": 8, "f": [0.1, 0.9], "ode": _ODE,
             "predict": {"z0": 0.2, "times": [0.0]}},
            marks=pytest.mark.filterwarnings("ignore::UserWarning"),
        ),
        ("bounds", {"f": [1.0], "phi": [0.0, 0.5], "n_radii": 4, "n_angles": 8}),
        ("bounds", {"f": [1.0], "phi": [0.0, 1.0], "expect_diverges": True}),
        ("hs-norm", {"N": 8, "f": [1.0], "phi": [0.0, 1.0], "expect_finite": False}),
        ("smirnov", {"N": 16, "f": [1.0, -0.5]}),
        ("verify-all", {}),
    ],
)
def test_reports_are_strict_json(tmp_path, capsys, command, config):
    run(command, config, tmp_path)
    name = f"{command.replace('-', '_')}_report.json"
    text = (tmp_path / name).read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["command"] == command
