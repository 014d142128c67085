"""Trajectories, quadrature, occupation kernels, and their adjoint identities."""

import numpy as np
import pytest

from hardyliou import occupation
from hardyliou import (
    CompositionOutOfDiskError,
    DiskDomainError,
    DiskExitError,
    InsufficientDataError,
    SymbolOverflowError,
    TaylorPolynomial,
    Trajectory,
    TrajectoryIngestionError,
    adjoint_matrix,
    adjoint_on_signal,
    endpoint_kernel_difference,
    field_defect,
    inner_product,
    integrate_ode,
    liouville_matrix,
    liouville_occupation_residual,
    monomial,
    norm,
    occupation_kernel,
    read_trajectory_csv,
    szego_kernel,
    weighted_occupation_residual,
    write_trajectory_csv,
)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.1]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, np.nan]), np.array([0.1, 0.2]))


def test_trajectory_disk_margin_cites_sample():
    with pytest.raises(DiskDomainError) as info:
        Trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.1, 0.9995, 0.2], dtype=complex),
        )
    assert "sample 1" in str(info.value)


def test_trajectory_properties():
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.3j]))
    assert traj.duration == 1.0
    assert traj.r_max == pytest.approx(0.3)
    assert traj.uniform
    skew = Trajectory(np.array([0.0, 0.5, 2.0]), np.array([0.1, 0.2, 0.3]))
    assert not skew.uniform


def test_trajectory_immutable_arrays():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        traj.times[0] = 5.0


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0, 1, 17))
    points = 0.5 * (rng.standard_normal(17) + 1j * rng.standard_normal(17)) / 3
    traj = Trajectory(times, points)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.points, traj.points)
    # file digest equals the canonical content digest
    assert back.content_digest() == traj.content_digest()


def test_csv_bytes_match_per_row_fstring():
    traj = Trajectory(
        np.array([-0.0, 5e-324, 1e-300, 0.1, 1.0]),
        np.array([
            complex(-0.0, 0.1),
            complex(5e-324, -0.0),
            complex(1e-300, 5e-324),
            complex(0.1, 1e-300),
            complex(-0.0, -0.0),
        ]),
    )
    lines = ["t,re,im"]
    for t, z in zip(traj.times, traj.points):
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g}")
    assert occupation._csv_bytes(traj) == ("\n".join(lines) + "\n").encode()


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y\n0,0.1,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "header" in str(info.value)


def test_csv_errors_cite_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0,0.1,0\n1,oops,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n0,0.1,0\n1,0.2\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n0,0.1,0\n1,2.0,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row 3" in str(info.value)

    path.write_text("t,re,im\n1,0.1,0\n0,0.2,0\n")
    with pytest.raises(TrajectoryIngestionError) as info:
        read_trajectory_csv(path)
    assert "row" in str(info.value)


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def test_integrate_linear_field_endpoint():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    assert complex(traj.points[-1]) == pytest.approx(0.2 * np.e, abs=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    # even interval count so Simpson applies directly
    assert (traj.times.size - 1) % 2 == 0
    assert traj.uniform


def test_integrate_convergence_order():
    # RK4: halving dt cuts the endpoint error by about 2^4
    exact = 0.2 * np.exp(1.0)
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_ode(monomial(1), 0.2, 1.0, dt)
        errs.append(abs(complex(traj.points[-1]) - exact))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_integrate_disk_exit():
    with pytest.raises(DiskExitError) as info:
        integrate_ode(monomial(1), 0.9, 2.0, 1e-3)
    assert info.value.exit_time is not None
    assert 0.0 < info.value.exit_time < 2.0


def test_integrate_nonfinite_state_names_symbol():
    # the state overflows to nan, for which |z| > limit is false
    with pytest.raises(SymbolOverflowError, match="symbol f .* t = 0.01"):
        integrate_ode(TaylorPolynomial([1e308, 1e308]), 0.2, 0.1, 0.01)


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate_ode(monomial(1), 0.2, -1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_ode(monomial(1), 0.2, 1.0, 0.0)
    with pytest.raises(DiskDomainError):
        integrate_ode(monomial(1), 0.9999, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# occupation kernels
# ---------------------------------------------------------------------------


def test_occupation_kernel_constant_trajectory_frozen():
    # theta(t) = c: moments are conj(c)^n T, i.e. T times the point kernel
    c = 0.4 + 0.2j
    times = np.linspace(0.0, 2.0, 41)
    traj = Trajectory(times, np.full(41, c))
    gamma = occupation_kernel(traj, 24)
    expected = 2.0 * szego_kernel(c, 24).coeffs
    assert np.allclose(gamma.series.coeffs, expected, atol=1e-12)
    assert gamma.quadrature == "simpson"


def test_occupation_kernel_pairing_is_time_integral():
    # <g, Gamma> = integral of g(gamma(t)) dt; for g=z along 0.2 e^t the
    # integral is 0.2 (e - 1)
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    gamma = occupation_kernel(traj, 32)
    value = inner_product(monomial(1, order=32), gamma.series)
    assert value == pytest.approx(0.2 * (np.e - 1.0), abs=1e-10)


def test_running_product_moments_match_power_formula():
    # N = 1024 and T = 10001 samples: the running product must agree with
    # the T x (N+1) power matrix it replaces
    f = TaylorPolynomial([0.0, -0.5 + 1.0j])
    traj = integrate_ode(f, 0.6 + 0.1j, 10.0, 1e-3)
    assert traj.times.size == 10001
    order = 1024
    weights, _ = occupation._quadrature_weights(traj)
    powers = np.conj(traj.points)[:, None] ** np.arange(order + 1)[None, :]
    expected = weights @ powers
    got = occupation_kernel(traj, order).series.coeffs
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    fbar = np.conj(f(traj.points))
    moments = (weights * fbar) @ powers[:, :order]
    expected = np.concatenate(([0.0], np.arange(1, order + 1) * moments))
    got = adjoint_on_signal(f, traj, order).coeffs
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_occupation_kernel_trapezoid_tag():
    times = np.array([0.0, 0.3, 1.0, 1.1])
    traj = Trajectory(times, np.full(4, 0.2))
    gamma = occupation_kernel(traj, 8)
    assert gamma.quadrature == "trapezoid"


def test_occupation_kernel_needs_three_samples():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(InsufficientDataError):
        occupation_kernel(traj, 8)


def test_field_defect_detects_wrong_field():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    assert field_defect(monomial(1), traj) < 1e-5
    assert field_defect(TaylorPolynomial([0, 2.0]), traj) > 1e-2


# ---------------------------------------------------------------------------
# adjoint identities
# ---------------------------------------------------------------------------


def test_endpoint_kernel_difference():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    diff = endpoint_kernel_difference(traj, 16)
    expected = (
        szego_kernel(complex(traj.points[-1]), 16).coeffs
        - szego_kernel(complex(traj.points[0]), 16).coeffs
    )
    assert np.allclose(diff.coeffs, expected)


def test_liouville_occupation_residual_small():
    # A_f* Gamma = K_end - K_start, certified through the matrix route
    for coeffs, z0 in [([0, 1.0], 0.2), ([0.05, 0.5, 0.1], 0.1)]:
        f = TaylorPolynomial(coeffs)
        traj = integrate_ode(f, z0, 1.0, 1e-3)
        assert liouville_occupation_residual(f, traj, 64) < 1e-8


def test_weighted_occupation_residual_small():
    f = monomial(1)
    phi = monomial(2)
    traj = integrate_ode(f, 0.2, 1.0, 1e-3)
    assert weighted_occupation_residual(f, phi, traj, 64) < 1e-8


def test_weighted_occupation_residual_out_of_disk():
    f = monomial(1)
    traj = integrate_ode(f, 0.2, 1.0, 1e-2)
    phi = TaylorPolynomial([0, 2.0])  # pushes 0.54 out to 1.09
    with pytest.raises(CompositionOutOfDiskError):
        weighted_occupation_residual(f, phi, traj, 32)


def test_adjoint_on_signal_matches_matrix_route():
    f = TaylorPolynomial([0.1, 0.8, 0.05])
    traj = integrate_ode(f, 0.15, 1.0, 1e-3)
    gamma = occupation_kernel(traj, 48).series
    oracle = adjoint_matrix(liouville_matrix(f, 48)).apply(gamma)
    signal = adjoint_on_signal(f, traj, 48)
    assert norm(TaylorPolynomial(oracle.coeffs - signal.coeffs)) < 1e-8
