"""The report contract of every CLI command, and config fuzzing.

The contract pins what a reader of a report relies on: the top-level keys,
the ``inputs`` echo, each certificate's name, tolerance and formula, and the
message a config with one bad field gets.  Only strings and values copied
from the config or fixed in the code are pinned, never a computed float, so
the contract holds on every BLAS build.  The fuzzing drives each command
with valid, malformed, huge and non-finite values for every field: the exit
code is 0, 1 or 2, and no exception escapes.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hardyliou import (
    CompositionWarning,
    LowConfidenceWarning,
    TaylorPolynomial,
    TrajectoryMismatchWarning,
    integrate_ode,
    write_trajectory_csv,
)
from hardyliou.cli import console_main

_LIBRARY_WARNINGS = (CompositionWarning, TrajectoryMismatchWarning, LowConfidenceWarning)
_ACCEPTANCE = "fixed acceptance tolerance; see tests/test_acceptance.py"
_ODE = {"z0": 0.2, "T": 0.2, "dt": 0.01}

# command: (config, top-level keys, inputs echo, certificates as
# (name, tolerance or None when computed, formula), one bad field, its error)
CONTRACT = {
    "spectrum": (
        {"N": 6, "f": [0.1, [0.9, 0.0]]},
        {"eigenvalues", "residuals"},
        {"N": 6, "f": [[0.1, 0.0], [0.9, 0.0]]},
        [
            (
                "eigenpair_residual",
                1e-8,
                "max_k ||A v_k - lambda_k v_k||_2 <= tolerance, unit v_k",
            )
        ],
        ("N", None),
        "config field 'N': is required for this command",
    ),
    "adjoint-check": (
        {"N": 8, "cases": 3, "seed": 2},
        set(),
        {"N": 8, "M": 512, "cases": 3, "seed": 2, "f": None},
        [
            (
                "adjoint_route_agreement",
                1e-8,
                "max over battery of ||transpose_route - boundary_route||_2 "
                "<= tolerance",
            )
        ],
        ("M", 10),
        "config field 'M': must be >= 2N+2 = 18, got 10",
    ),
    "occupation": (
        {"N": 16, "f": [0.0, 1.0], "ode": _ODE},
        {"residuals", "trajectory_digests"},
        {"N": 16, "f": [[0.0, 0.0], [1.0, 0.0]]},
        [
            (
                "occupation_adjoint_identity",
                1e-6,
                "max_i ||A*_matrix Gamma_i - (K_end_i - K_start_i)||_2 "
                "<= tolerance",
            )
        ],
        ("tolerance", -1),
        "config field 'tolerance': must be positive, got -1",
    ),
    "weighted": (
        {"N": 16, "f": [0.0, 1.0], "phi": [0.0, 0.0, 1.0], "ode": _ODE},
        {"residuals", "trajectory_digests"},
        {
            "N": 16,
            "f": [[0.0, 0.0], [1.0, 0.0]],
            "phi": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        },
        [
            (
                "weighted_occupation_adjoint_identity",
                1e-6,
                "max_i ||A*_matrix Gamma_i - (K_phi(end_i) - K_phi(start_i))||_2 "
                "<= tolerance",
            )
        ],
        ("phi", [0.0, "a"]),
        "config field 'phi[1]': must be a number or [re, im] pair, got 'a'",
    ),
    "dmd": (
        {"N": 8, "f": [0.0, 1.0], "ode": _ODE},
        {
            "rank",
            "singular_value_ratio",
            "regularization",
            "eigenvalues",
            "mode_residuals",
            "identity_residual",
            "trajectory_digests",
            "predictions",
        },
        {"N": 8, "ridge_requested": None},
        [
            (
                "occupation_kernel_reproduction",
                None,
                "max_j |(S^H S)_rj - sum_t w_t Gamma_j(gamma_r(t))|, j in "
                "{r, m // 2, m - 1}, r the first orbit with a non-real sample "
                "(0 if none), <= 1e-12 * ||S_r|| * max_j ||S_j||",
            ),
            (
                "identity_observable_capture",
                1e-2,
                "||least-squares residual of id(z)=z against kernel span||_2 "
                "<= tolerance",
            ),
        ],
        ("ridge", -1),
        "config field 'ridge': must be nonnegative",
    ),
    "bounds": (
        {"f": [1.0], "phi": [0.0, 0.5], "n_radii": 4, "n_angles": 8},
        {"supremum", "diverges", "profile_csv"},
        {
            "f": [[1.0, 0.0]],
            "phi": [[0.0, 0.0], [0.5, 0.0]],
            "n_radii": 4,
            "n_angles": 8,
            "r_max": 0.995,
        },
        [
            (
                "growth_supremum_finite",
                "infinite",
                "sup over polar grid of the growth expression is finite",
            )
        ],
        ("r_max", 1.0),
        "config field 'r_max': must be < 1, got 1.0",
    ),
    "hs-norm": (
        {"N": 8, "f": [1.0], "phi": [0.0, 0.5]},
        {"frobenius_sq", "quadrature_sq", "finite"},
        {"N": 8, "M": None, "f": [[1.0, 0.0]], "phi": [[0.0, 0.0], [0.5, 0.0]]},
        [
            (
                "hilbert_schmidt_dual_route",
                1e-8,
                "|Frobenius^2 - quadrature^2| <= tolerance",
            )
        ],
        ("M", 1),
        "config field 'M': must be >= 2, got 1",
    ),
    "smirnov": (
        {"N": 8, "f": [0.5, 0.2]},
        {"normalized", "a0"},
        {"N": 8, "M": 1024, "f": [[0.5, 0.0], [0.2, 0.0]]},
        [
            (
                "modulus_identity",
                1e-10,
                "max over boundary grid of ||a|^2 + |b|^2 - 1| <= tolerance",
            )
        ],
        ("N", 5000),
        "config field 'N': must be <= 4096 (memory budget), got 5000",
    ),
}


def _run(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return console_main([command, "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_report_keys_inputs_and_certificates(tmp_path, capsys, command):
    config, keys, inputs, certs, _, _ = CONTRACT[command]
    code, out = _run(tmp_path, command, config)
    assert code in (0, 1)
    report = json.loads(
        (out / f"{command.replace('-', '_')}_report.json").read_text()
    )
    assert set(report) == keys | {"schema", "command", "inputs", "certificates"}
    assert report["inputs"] == inputs
    got = [
        (c["name"], c["tolerance"] if tol is not None else None, c["tolerance_formula"])
        for c, (_, tol, _) in zip(report["certificates"], certs)
    ]
    assert got == certs


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_one_bad_field_gets_its_message(tmp_path, capsys, command):
    config, _, _, _, (field, value), message = CONTRACT[command]
    config = dict(config)
    if value is None:
        del config[field]
    else:
        config[field] = value
    code, _ = _run(tmp_path, command, config)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_adjoint_check_needs_four_samples_per_coefficient(tmp_path, capsys):
    # 2N+2 <= M < 4(N+1) passes the shared check and fails the boundary route's
    config = dict(CONTRACT["adjoint-check"][0], M=20)
    code, _ = _run(tmp_path, "adjoint-check", config)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: config field 'M': must be >= max(4(N+1), N + deg f) = 36 "
        "(deg f = 8, the top degree of the random symbols), got 20\n"
    )


def test_verify_all_report_contract(tmp_path, capsys):
    out = tmp_path / "out"
    assert console_main(["verify-all", "--out", str(out)]) == 0
    report = json.loads((out / "verify_all_report.json").read_text())
    assert set(report) == {"schema", "command", "certificates", "findings"}
    tolerances = [1e-12, 1e-10, 1e-8, 1e-6, 1e-6, 1e-8, 1e-8]
    tolerances += [1e-14, 1e-10, 1e-10, 1e-8, 1e-2, "infinite"]
    assert [c["tolerance"] for c in report["certificates"]] == tolerances
    assert {c["tolerance_formula"] for c in report["certificates"]} == {_ACCEPTANCE}
    assert [c["name"][:13] for c in report["certificates"]] == [
        f"criterion_{k:02d}_" for k in range(1, 14)
    ]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"output": "../x"}))
    capsys.readouterr()
    assert console_main(["verify-all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: config field 'output': must be a plain file name inside "
        "--out, got '../x'\n"
    )


# values no field accepts, or only at its edge
_JUNK = st.sampled_from(
    [None, True, "x", [], {}, [1, "a"], -1, 0, 1.5, 10**400, 1e308, -1e308]
    + [math.nan, math.inf, -math.inf]
)


def _or_junk(valid):
    return st.one_of(valid, _JUNK)


_PART = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([1e308, 2.9e307, math.nan, math.inf])
)
_COMPLEX = _or_junk(st.one_of(_PART, st.lists(_PART, min_size=2, max_size=2)))
_SYMBOL = _or_junk(st.lists(_COMPLEX, min_size=1, max_size=4))
# the valid sizes stay small, so one example costs milliseconds
_FIELDS = {
    "N": _or_junk(st.one_of(st.integers(1, 24), st.just(4097))),
    "M": _or_junk(st.one_of(st.integers(2, 160), st.just(2**20 + 1))),
    "tolerance": _or_junk(st.sampled_from([1e-30, 1e-8, 1.0])),
    "cases": _or_junk(st.one_of(st.integers(1, 4), st.just(1001))),
    "seed": _or_junk(st.integers(0, 3)),
    "ridge": _or_junk(st.sampled_from([0, 1e-8, 1.0])),
    "n_radii": _or_junk(st.one_of(st.integers(1, 12), st.just(2**21))),
    "n_angles": _or_junk(st.integers(1, 12)),
    "r_max": _or_junk(st.sampled_from([0.5, 0.995, 1.0])),
    "expect_diverges": _or_junk(st.booleans()),
    "expect_finite": _or_junk(st.booleans()),
    "output": _or_junk(st.sampled_from(["r.json", "..", "a/b", ""])),
    "f": _SYMBOL,
    "phi": _SYMBOL,
    "ode": _or_junk(
        st.fixed_dictionaries(
            {},
            optional={
                "z0": _COMPLEX,
                "T": _or_junk(st.sampled_from([0.2, 1.0, 8.8, 1e300])),
                "dt": _or_junk(st.sampled_from([0.01, 0.05, 4.4, 1e-300])),
            },
        )
    ),
    "trajectories": _or_junk(
        st.lists(
            st.sampled_from(["orbit.csv", "missing.csv", 3]), min_size=1, max_size=3
        )
    ),
    "predict": _or_junk(
        st.fixed_dictionaries(
            {},
            optional={
                "z0": _COMPLEX,
                "times": _or_junk(st.lists(_or_junk(st.floats(0.0, 2.0)), max_size=3)),
            },
        )
    ),
}


# one field set to one value; a few of these change a contract config
_CHANGE = st.one_of(*(st.tuples(st.just(k), v) for k, v in _FIELDS.items()))


@settings(
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(sorted(CONTRACT)), changes=st.lists(_CHANGE, max_size=3))
# an RK4 state whose |z| overflows a float, though both its parts are finite
@example(
    "occupation",
    [("N", 8), ("f", [[2.9e307, 2.9e307]]), ("ode", {"z0": 0.0, "T": 8.8, "dt": 4.4})],
)
# a JSON integer too large for a float, as a forecast time
@example("dmd", [("predict", {"z0": 0.0, "times": [10**400]})])
# a constant phi whose |phi|^2 overflows a float
@example("hs-norm", [("N", 8), ("f", [1.0]), ("phi", [1e308])])
# phi(0) = 0 exactly, though evaluating it as (1e308+1e308j) * 0 raises the
# overflow flag
@example("hs-norm", [("phi", [0, [1e308, 1e308]])])
# phi maps a sample out of the disk, and an orbit that leaves the disk: no
# certificate is computed, so both exit 2
@example("weighted", [("phi", [0.0, 5.0])])
@example("occupation", [("ode", {"z0": 0.9, "T": 1.0, "dt": 0.01})])
def test_any_config_exits_zero_one_or_two(
    tmp_path, monkeypatch, capsys, command, changes
):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "orbit.csv").exists():
        orbit = integrate_ode(TaylorPolynomial([0.0, -0.5 + 1.0j]), 0.3, 0.2, 0.01)
        write_trajectory_csv(orbit, tmp_path / "orbit.csv")
    config = dict(CONTRACT[command][0], **dict(changes))
    (tmp_path / "config.json").write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = console_main([command, "--config", "config.json", "--out", "out"])
    printed = capsys.readouterr()  # one example's output at a time
    assert code in (0, 1, 2)
    # a drawn config may trip the library's own warnings, and nothing else
    for caught_warning in caught:
        assert issubclass(caught_warning.category, _LIBRARY_WARNINGS), caught_warning
    # exit 1 means a certificate failed and was printed; exit 2 computed none
    if code == 1:
        assert any(line.startswith("FAIL ") for line in printed.out.splitlines())
    if code == 2:
        assert printed.err.startswith("error: ") and printed.out == ""
