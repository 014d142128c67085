"""End-to-end checks of the console entry point.

Each test drives ``console_main`` with a config file in a temp directory and
inspects the exit code, the printed certificate lines, and the JSON report.
"""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hardyliou import (
    TaylorPolynomial,
    acceptance,
    adjoint_apply_boundary,
    integrate_ode,
    liouville_adjoint_apply,
    write_trajectory_csv,
)
from hardyliou.cli import console_main, run
from hardyliou.errors import ConfigError


def _run(tmp_path, command, config, out="out"):
    cfg_path = tmp_path / f"{command}_cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = console_main(
        [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    )
    return code, tmp_path / out


def _report(out_dir, name):
    return json.loads((out_dir / name).read_text())


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


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": float("nan"), "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": float("inf"), "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": [0.1, float("-inf")], "T": 0.1, "dt": 0.01}}, "ode.z0"),
        ("spectrum", {"N": 8, "f": [0.1, float("nan")]}, "f[1]"),
        ("spectrum", {"N": 8, "f": [0.1, 10**400]}, "f[1]"),
        ("bounds", {"f": [0.1, 0.5], "phi": [0, float("inf")]}, "phi[1]"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": 0.2, "T": float("nan"), "dt": 0.01}}, "T"),
        ("occupation", {"N": 8, "f": [0, 1], "ode": {"z0": 0.2, "T": 0.1, "dt": float("inf")}}, "dt"),
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
    assert len(report["trajectory_digests"]) == 1
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
