"""Release gate: all thirteen certificates at their frozen tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see each criterion's
result; ``hardyliou verify-all`` reports the same residuals and tolerances as
its certificates.
"""

import pytest

from hardyliou import acceptance


def _check(result):
    print(result)
    assert result.passed, result


def test_criterion_01_monomial_spectrum():
    _check(acceptance.criterion_1())


def test_criterion_02_affine_spectrum():
    _check(acceptance.criterion_2())


def test_criterion_03_adjoint_dual_route():
    _check(acceptance.criterion_3())


def test_criterion_04_occupation_identity():
    _check(acceptance.criterion_4())


def test_criterion_05_weighted_occupation_identity():
    _check(acceptance.criterion_5())


def test_criterion_06_monomial_eigenfunctions():
    _check(acceptance.criterion_6())


def test_criterion_07_zero_eigenspace():
    _check(acceptance.criterion_7())


def test_criterion_08_self_adjointness():
    _check(acceptance.criterion_8())


def test_criterion_09_hilbert_schmidt():
    _check(acceptance.criterion_9())


def test_criterion_10_smirnov():
    _check(acceptance.criterion_10())


def test_criterion_11_flow_relation():
    _check(acceptance.criterion_11())


def test_criterion_12_data_driven():
    _check(acceptance.criterion_12())


def test_criterion_13_boundedness():
    _check(acceptance.criterion_13())


def test_run_all_is_complete():
    results = acceptance.run_all()
    assert [r.index for r in results] == list(range(1, 14))


def test_findings_report_keys():
    report = acceptance.findings()
    assert set(report) == {
        "adjoint_kernel_weights",
        "kernel_action_power",
        "hs_quadrature_exponent",
        "occupation_relation_readings",
        "dmd_identity_capture",
    }
    # the convention experiments must decisively favor the shipped choices
    weights = report["adjoint_kernel_weights"]
    assert weights["weighted_vs_oracle"] < 1e-8
    assert weights["unweighted_vs_oracle"] > 1e-2
    power = report["kernel_action_power"]
    assert power["squared_formula"] == pytest.approx(
        power["numeric"], rel=1e-9
    )
    exponent = report["hs_quadrature_exponent"]
    assert exponent["exponent_2n_minus_2"] == pytest.approx(
        20.0 / 27.0, abs=1e-10
    )
    assert abs(exponent["exponent_2n"] - 20.0 / 27.0) > 1e-3
