"""Release gate: all thirteen certificates at their frozen tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see each criterion's
result; ``hardyliou verify-all`` reports the same residuals and tolerances as
its certificates.
"""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import pytest

from hardyliou import acceptance
from hardyliou.series import TaylorPolynomial


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


@pytest.mark.parametrize("criterion", acceptance._CRITERIA)
def test_criterion_fields_are_plain_python_numbers(criterion):
    result = criterion()
    assert type(result.passed) is bool
    assert type(result.residual) is float
    assert type(result.tolerance) is float


def _wrapping(name, change):
    # patch acceptance's ``name`` with ``change(original, *args)``
    def patch(monkeypatch):
        original = getattr(acceptance, name)
        monkeypatch.setattr(
            acceptance, name, lambda *args: change(original, *args)
        )

    return patch


def _constant(name, value):
    return _wrapping(name, lambda original, *args: value)


def _slow_clock(monkeypatch):
    # every reading of the clock is 61 s after the one before
    clock = SimpleNamespace(monotonic=itertools.count(0.0, 61.0).__next__)
    monkeypatch.setattr(acceptance, "time", clock)


def _forecast_off(monkeypatch):
    monkeypatch.setattr(acceptance.dmd, "predict", lambda *args: 10.0)


def _never_diverges(original, f, phi):
    return dataclasses.replace(original(f, phi), diverges=False)


def _infinite_supremum(original, f, phi):
    return dataclasses.replace(original(f, phi), supremum=math.inf)


def _battery_gap(original, f, phi, order, *size):
    # the anchor call passes no boundary size; the battery calls do
    result = original(f, phi, order, *size)
    shift = 1e-6 if size else 0.0
    return dataclasses.replace(result, quadrature_sq=result.quadrature_sq + shift)


def _scaled_outer(original, grid, order):
    return TaylorPolynomial(original(grid, order).coeffs * 1.001)


@pytest.mark.parametrize(
    "criterion, plant",
    [
        (acceptance.criterion_4, _constant("liouville_occupation_residual", 1e-9)),
        (acceptance.criterion_8, _constant("hermitian_defect", 0.0)),
        (acceptance.criterion_9, _wrapping("hs_norm", _battery_gap)),
        (acceptance.criterion_10, _wrapping("outer_from_modulus", _scaled_outer)),
        (acceptance.criterion_12, _forecast_off),
        (acceptance.criterion_12, _slow_clock),
        (acceptance.criterion_13, _wrapping("boundedness_bound", _never_diverges)),
        (
            acceptance.criterion_13,
            _wrapping("boundedness_bound", _infinite_supremum),
        ),
    ],
    ids=[
        "4_order",
        "8_floor",
        "9_battery",
        "10_roundtrip",
        "12_forecast",
        "12_runtime",
        "13_unbounded_probe",
        "13_infinite_supremum",
    ],
)
def test_every_secondary_bound_fails_its_criterion(monkeypatch, criterion, plant):
    # the residual stays within its tolerance; only the other bound fails
    plant(monkeypatch)
    result = criterion()
    assert result.residual <= result.tolerance
    assert result.passed is False
    assert type(result.residual) is float
    assert type(result.tolerance) is float
