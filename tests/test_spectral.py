"""Spectra, eigenfunction families, and the flow relation."""

import numpy as np
import pytest

from hardyliou import (
    DiskDomainError,
    InvalidIndexError,
    SymbolHasZerosError,
    TaylorPolynomial,
    TrajectoryMismatchWarning,
    adjoint_matrix,
    derivative,
    eigendecompose,
    exp_eigenfunction,
    flow_check,
    hk_eigenfunction,
    integrate_ode,
    liouville_matrix,
    monic_from_zeros,
    monomial,
    norm,
    zero_eigenspace,
    zero_free_certificate,
)


# ---------------------------------------------------------------------------
# direct spectra
# ---------------------------------------------------------------------------


def test_spectrum_of_differentiation_by_z():
    pairs = eigendecompose(liouville_matrix(monomial(1), 20))
    values = np.array([p.value for p in pairs])
    assert np.allclose(values, np.arange(21), atol=1e-12)
    assert np.allclose(values.imag, 0.0, atol=1e-12)


def test_spectrum_affine_symbol_exact():
    # f = alpha z + beta gives an upper-triangular matrix: spectrum
    # {alpha n} read off the diagonal without perturbation
    for alpha, beta in [(1.0, 0.5), (2.0, 0.3), (1 + 0.5j, 0.2)]:
        A = liouville_matrix(TaylorPolynomial([beta, alpha]), 16)
        values = np.array([p.value for p in eigendecompose(A)])
        expected = np.array(sorted(
            (alpha * n for n in range(17)),
            key=lambda z: (z.real, z.imag),
        ))
        assert np.allclose(values, expected, atol=1e-10)


def test_eigendecompose_sorted_and_residuals():
    rng = np.random.default_rng(2)
    f = TaylorPolynomial(rng.standard_normal(3))
    A = liouville_matrix(f, 12)
    pairs = eigendecompose(A)
    keys = [(p.value.real, p.value.imag) for p in pairs]
    assert keys == sorted(keys)
    for p in pairs:
        assert norm(p.vector) == pytest.approx(1.0, abs=1e-12)
        direct = np.linalg.norm(
            A.entries @ p.vector.coeffs - p.value * p.vector.coeffs
        )
        assert p.residual == pytest.approx(direct, abs=1e-12)


def test_blocked_residuals_match_per_column_loop():
    # 150 columns span two full residual blocks and a partial one
    rng = np.random.default_rng(8)
    f = TaylorPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    A = liouville_matrix(f, 149)
    values, vectors = np.linalg.eig(A.entries)
    order = np.lexsort((values.imag, values.real))
    bound = 150 * np.finfo(float).eps * np.max(np.sum(np.abs(A.entries), axis=0))
    pairs = eigendecompose(A)
    assert len(pairs) == 150
    for pair, k in zip(pairs, order):
        vec = vectors[:, k] / np.linalg.norm(vectors[:, k])
        residual = np.linalg.norm(A.entries @ vec - values[k] * vec)
        assert pair.value == values[k]
        assert np.array_equal(pair.vector.coeffs, vec)
        assert abs(pair.residual - residual) <= bound


# ---------------------------------------------------------------------------
# zero-free certificate
# ---------------------------------------------------------------------------


def test_zero_free_certificate_decisions():
    assert zero_free_certificate(TaylorPolynomial([1.0, 0.5]))
    assert zero_free_certificate(TaylorPolynomial([6.0, -5.0, 1.0]))  # zeros 2, 3
    assert not zero_free_certificate(monomial(1))  # zero at the origin
    assert not zero_free_certificate(TaylorPolynomial([-0.5, 1.0]))  # zero at 0.5
    assert not zero_free_certificate(TaylorPolynomial([0.25, 0, 1.0]))  # +-0.5j


def test_zero_free_certificate_near_boundary_zero():
    # zero at 1.02, just outside: winding still 0
    assert zero_free_certificate(TaylorPolynomial([-1.02, 1.0]), size=4096)


# ---------------------------------------------------------------------------
# eigenfunction families
# ---------------------------------------------------------------------------


def test_exp_eigenfunction_constant_symbol_frozen():
    import math

    # f = 1: g = exp(lam z), eigenfunction of plain differentiation
    lam = 0.7 - 0.2j
    g = exp_eigenfunction(TaylorPolynomial([1.0]), lam, 12)
    expected = np.array([lam**n / math.factorial(n) for n in range(13)])
    assert np.allclose(g.coeffs, expected, atol=1e-14)


def test_exp_eigenfunction_satisfies_ode():
    f = TaylorPolynomial([1.0, 0.5, -0.1])
    lam = 1.3 + 0.4j
    g = exp_eigenfunction(f, lam, 96)
    assert complex(g(0)) == pytest.approx(1.0)
    # residual f g' - lam g at interior points
    for z in [0.2, -0.3j, 0.25 + 0.25j]:
        lhs = complex(f(z)) * complex(derivative(g)(z))
        rhs = lam * complex(g(z))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_exp_eigenfunction_rejects_vanishing_symbol():
    with pytest.raises(SymbolHasZerosError):
        exp_eigenfunction(monomial(1), 1.0, 16)
    with pytest.raises(SymbolHasZerosError):
        exp_eigenfunction(TaylorPolynomial([-0.5, 1.0]), 1.0, 16)


def test_hk_eigenfunction_m2_collapses_to_z_exp():
    import math

    lam = 1 + 1j
    h = hk_eigenfunction(2, 1, lam, 16)
    expected = np.zeros(17, dtype=np.complex128)
    for n in range(16):
        expected[n + 1] = lam**n / math.factorial(n)
    assert np.allclose(h.coeffs, expected, atol=1e-13)


def test_hk_eigenfunction_adjoint_residual_battery():
    # A_{z^m} has real integer entries, so its adjoint is the plain
    # transpose and H_k(lam) is an eigenvector with eigenvalue lam itself
    order = 64
    for m in (2, 3, 4):
        Astar = adjoint_matrix(liouville_matrix(monomial(m), order))
        for k in range(1, m):
            for lam in (0.0, 1.0, 1 + 1j, -2.0):
                h = hk_eigenfunction(m, k, lam, order)
                image = Astar.apply(h)
                target = lam * h.coeffs
                # adjoint truncation touches only rows above order-m, where
                # the coefficients have already decayed past 1e-30
                assert np.max(np.abs(image.coeffs - target)) < 1e-8


def test_hk_eigenfunction_validation():
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(1, 1, 1.0, 8)
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(3, 0, 1.0, 8)
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(3, 3, 1.0, 8)


# ---------------------------------------------------------------------------
# zero eigenspaces
# ---------------------------------------------------------------------------


def test_monic_from_zeros_frozen():
    p = monic_from_zeros([(1.0, 1), (2.0, 1)])
    assert np.allclose(p.coeffs, [2.0, -3.0, 1.0])
    q = monic_from_zeros([(0.5, 2)])
    assert np.allclose(q.coeffs, [0.25, -1.0, 1.0])


def test_zero_eigenspace_annihilated_by_adjoint():
    zeros = [(0.3, 1), (-0.2 + 0.1j, 2)]
    f = monic_from_zeros(zeros)
    order = 64
    Astar = adjoint_matrix(liouville_matrix(f, order))
    basis = zero_eigenspace(zeros, order)
    assert len(basis) == 3
    for member in basis:
        image = Astar.apply(member)
        assert norm(image) / norm(member) < 1e-10


def test_zero_eigenspace_validation():
    with pytest.raises(DiskDomainError):
        zero_eigenspace([(1.5, 1)], 8)
    with pytest.raises(InvalidIndexError):
        zero_eigenspace([(0.3, 0)], 8)


# ---------------------------------------------------------------------------
# flow relation
# ---------------------------------------------------------------------------


def test_flow_relation_linear_field():
    f = monomial(1)
    traj = integrate_ode(f, 0.2, 1.0, 1e-3)
    for n in range(1, 6):
        defect = flow_check(f, monomial(n), float(n), traj)
        assert defect < 1e-9


def test_flow_check_warns_on_wrong_field():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    wrong = TaylorPolynomial([0, 2.0])
    with pytest.warns(TrajectoryMismatchWarning):
        flow_check(wrong, monomial(1), 2.0, traj)
