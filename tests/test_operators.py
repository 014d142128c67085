"""Operator truncations, the two adjoint routes, and Smirnov factorization."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyliou import occupation as occupation_module
from hardyliou import operators as operators_module
from hardyliou import (
    AliasingError,
    CompositionWarning,
    InvalidIndexError,
    KernelSpec,
    OperatorMatrix,
    SymbolOverflowError,
    TaylorPolynomial,
    Trajectory,
    TrajectoryMismatchWarning,
    adjoint_apply_boundary,
    adjoint_battery,
    adjoint_matrix,
    adjoint_on_derivative_kernel,
    antiderivative,
    default_boundary_size,
    derivative,
    endpoint_kernel_difference,
    hermitian_defect,
    hs_norm,
    integrate_ode,
    kernel,
    liouville_adjoint_apply,
    liouville_matrix,
    liouville_occupation_residual,
    modulus_identity_defect,
    monomial,
    multiply,
    norm,
    occupation_kernel,
    project_h2,
    scaled_liouville_matrix,
    smirnov_decompose,
    szego_kernel,
    to_boundary,
    unit_circle_points,
    weighted_liouville_matrix,
    weighted_occupation_residual,
)
from hardyliou.series import BoundaryGrid


# ---------------------------------------------------------------------------
# forward matrices
# ---------------------------------------------------------------------------


def test_liouville_matrix_monomial_symbol_is_diagonal():
    A = liouville_matrix(monomial(1), 8)
    assert np.array_equal(A.entries, np.diag(np.arange(9.0)))


def test_liouville_matrix_affine_frozen_entries():
    # f = 2z + 3: column n puts 3n at row n-1 and 2n at row n
    f = TaylorPolynomial([3, 2])
    A = liouville_matrix(f, 5)
    expected = np.zeros((6, 6), dtype=np.complex128)
    for n in range(1, 6):
        expected[n - 1, n] = 3 * n
        expected[n, n] = 2 * n
    assert np.array_equal(A.entries, expected)


def test_liouville_forward_action_matches_pointwise():
    rng = np.random.default_rng(3)
    f = TaylorPolynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    g = TaylorPolynomial(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    out = liouville_matrix(f, 32).apply(g)
    for z in [0.2, -0.5j, 0.3 + 0.4j]:
        expected = complex(f(z)) * complex(derivative(g)(z))
        assert complex(out(z)) == pytest.approx(expected, abs=1e-12)


def test_scaled_equals_weighted_binary_exact_for_half():
    rng = np.random.default_rng(11)
    f = TaylorPolynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    direct = scaled_liouville_matrix(f, 0.5, 24)
    via_weighted = weighted_liouville_matrix(
        f, TaylorPolynomial([0, 0.5]), 24
    )
    assert np.array_equal(direct.entries, via_weighted.entries)


def test_scaled_vs_weighted_generic_scale():
    rng = np.random.default_rng(12)
    f = TaylorPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    a = 0.3 - 0.25j
    direct = scaled_liouville_matrix(f, a, 20)
    via_weighted = weighted_liouville_matrix(f, TaylorPolynomial([0, a]), 20)
    assert np.max(np.abs(direct.entries - via_weighted.entries)) < 1e-13


def test_weighted_forward_action_matches_pointwise():
    rng = np.random.default_rng(5)
    f = TaylorPolynomial(rng.standard_normal(4))
    phi = TaylorPolynomial([0, 0.5, 0.2])
    g = TaylorPolynomial(rng.standard_normal(6))
    out = weighted_liouville_matrix(f, phi, 64).apply(g)
    for z in [0.1, 0.4j, -0.3 + 0.2j]:
        w = complex(phi(z))
        expected = complex(f(z)) * complex(derivative(phi)(z)) * complex(
            derivative(g)(w)
        )
        assert complex(out(z)) == pytest.approx(expected, abs=1e-12)


def test_weighted_warns_when_origin_leaves_disk():
    # the warning names the caller of each route, not a library line
    f = monomial(1)
    phi = TaylorPolynomial([1.0, -0.5])  # |phi(0)| = 1, but phi(0.2..0.6) is inside
    traj = integrate_ode(f, 0.2, 1.0, 1e-2)
    calls = [
        lambda: weighted_liouville_matrix(f, phi, 8),
        lambda: weighted_liouville_matrix(f, TaylorPolynomial([1.5, 0.1]), 8),
        lambda: hs_norm(f, phi, 8),
        lambda: weighted_occupation_residual(f, phi, traj, 8),
    ]
    for call in calls:
        with pytest.warns(CompositionWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_operator_matrix_validation_and_json():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))


def test_apply_truncates_long_input():
    A = liouville_matrix(monomial(1), 4)
    h = monomial(9)  # beyond truncation: cut to zero polynomial
    out = A.apply(h)
    assert out.order == 4
    assert np.allclose(out.coeffs, 0.0)


# ---------------------------------------------------------------------------
# adjoint routes
# ---------------------------------------------------------------------------


def test_adjoint_matrix_is_conjugate_transpose():
    f = TaylorPolynomial([1 + 1j, 2])
    A = liouville_matrix(f, 6)
    assert np.array_equal(adjoint_matrix(A).entries, A.entries.conj().T)


def test_adjoint_pairing_identity():
    # <A g, h> == <g, A* h> exactly in the truncated space
    rng = np.random.default_rng(21)
    f = TaylorPolynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    A = liouville_matrix(f, 24)
    g = TaylorPolynomial(rng.standard_normal(25) + 1j * rng.standard_normal(25))
    h = TaylorPolynomial(rng.standard_normal(25) + 1j * rng.standard_normal(25))
    lhs = np.vdot(h.coeffs, A.apply(g).coeffs)
    rhs = np.vdot(adjoint_matrix(A).apply(h).coeffs, g.coeffs)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


def test_adjoint_boundary_route_matches_transpose_oracle():
    rng = np.random.default_rng(42)
    order, size = 48, 256
    for _ in range(10):
        deg = rng.integers(1, 9)
        f = TaylorPolynomial(
            rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        )
        r = rng.uniform(0.3, 0.8)
        h = TaylorPolynomial(r ** np.arange(order + 1) * np.exp(
            2j * np.pi * rng.uniform(size=order + 1)
        ))
        oracle = adjoint_matrix(liouville_matrix(f, order)).apply(h)
        boundary = adjoint_apply_boundary(f, h, order, size)
        assert norm(TaylorPolynomial(oracle.coeffs - boundary.coeffs)) < 1e-10


def test_adjoint_boundary_aliasing_guard():
    f = monomial(1)
    h = szego_kernel(0.5, 16)
    with pytest.raises(AliasingError):
        adjoint_apply_boundary(f, h, 16, size=32)  # needs >= 68
    with pytest.raises(ValueError):
        adjoint_apply_boundary(f, szego_kernel(0.5, 32), 16)


# ---------------------------------------------------------------------------
# structured routes against the dense and loop oracles
# ---------------------------------------------------------------------------


def _random_poly(rng, degree):
    return TaylorPolynomial(
        rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    )


def _loop_liouville(f, order):
    # column-by-column reference build
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    for n in range(1, order + 1):
        col = n * f.coeffs
        hi = min(order + 1, n - 1 + col.size)
        entries[n - 1 : hi, n] = col[: hi - n + 1]
    return entries


def _loop_scaled(f, a, order):
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    a = complex(a)
    power = a
    for n in range(1, order + 1):
        col = n * power * f.coeffs
        hi = min(order + 1, n - 1 + col.size)
        entries[n - 1 : hi, n] = col[: hi - n + 1]
        power *= a
    return entries


def _padded_weighted(f, phi, order):
    # reference build with the weight f * phi' zero-padded to order + 1
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    weight = multiply(f, derivative(phi), order)
    power = TaylorPolynomial(np.ones(1))
    for n in range(1, order + 1):
        entries[:, n] = n * multiply(weight, power, order).coeffs
        power = multiply(power, phi, order)
    return entries


def _horner_boundary_adjoint(f, h, order, size):
    # boundary route with h and h' sampled by Horner instead of FFT
    z = unit_circle_points(size)
    hv, hpv = h(z), derivative(h)(z)
    combo = np.conj(f(z)) * z * (hv + z * hpv) - np.conj(derivative(f)(z)) * hv
    return project_h2(BoundaryGrid(combo), order)


def test_liouville_builders_match_column_loop():
    rng = np.random.default_rng(31)
    scales = (0.5, 0.3 - 0.25j, 1.7 + 0.4j, -0.9j)
    for degree, order in [(0, 0), (0, 9), (3, 0), (4, 1), (5, 33), (12, 7), (2, 80)]:
        f = _random_poly(rng, degree)
        assert np.array_equal(
            liouville_matrix(f, order).entries, _loop_liouville(f, order)
        )
        for a in scales:
            assert np.array_equal(
                scaled_liouville_matrix(f, a, order).entries,
                _loop_scaled(f, a, order),
            )


def test_weighted_build_matches_padded_oracle():
    rng = np.random.default_rng(32)
    cases = [(3, 2, 40), (1, 3, 120), (6, 4, 3), (0, 1, 25), (2, 5, 0)]
    for f_degree, phi_degree, order in cases:
        f = _random_poly(rng, f_degree)
        phi = TaylorPolynomial(0.3 * _random_poly(rng, phi_degree).coeffs / phi_degree)
        built = weighted_liouville_matrix(f, phi, order).entries
        oracle = _padded_weighted(f, phi, order)
        scale = max(np.max(np.abs(oracle)), np.finfo(float).tiny)
        assert np.max(np.abs(built - oracle)) <= 1e-15 * scale


def _disk_poly(coeffs, radius):
    # scaled so that sum |c_k| <= radius, hence |phi| <= radius on the disk
    c = np.asarray(coeffs, dtype=np.complex128)
    total = float(np.sum(np.abs(c)))
    return TaylorPolynomial(c * (radius / total) if total > radius else c)


# parts below 1e-30 are flushed to zero: squares below the normal range
# lose relative precision in the oracle's Frobenius sum itself
_part = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) >= 1e-30 else 0.0)
_complex = st.builds(complex, _part, _part)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_complex, min_size=1, max_size=7),
    st.lists(_complex, min_size=2, max_size=6),
    st.integers(0, 160),
)
@example([1.0, 0.5j], [0.1, 0.2, 0.1, -0.3, 0.1, 0.1], 2)
def test_weighted_column_routes_match_padded_oracle(f_coeffs, phi_coeffs, order):
    f = TaylorPolynomial(f_coeffs)
    phi = _disk_poly(phi_coeffs, 0.9)
    oracle = _padded_weighted(f, phi, order)
    scale = max(np.max(np.abs(oracle)), np.finfo(float).tiny)
    built = weighted_liouville_matrix(f, phi, order).entries
    assert np.max(np.abs(built - oracle)) <= 1e-15 * scale

    oracle_sq = float(np.sum(np.abs(oracle) ** 2))
    frobenius_sq = hs_norm(f, phi, order).frobenius_sq
    assert abs(frobenius_sq - oracle_sq) <= 1e-14 * oracle_sq

    # any path inside the disk will do: only the adjoint side is compared
    times = np.linspace(0.0, 1.0, 21)
    traj = Trajectory(times, 0.5 * np.exp(1j * times))
    gamma = occupation_kernel(traj, order).series.coeffs
    rhs = endpoint_kernel_difference(traj, order, phi).coeffs
    expected = np.linalg.norm(oracle.conj().T @ gamma - rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrajectoryMismatchWarning)
        residual = weighted_occupation_residual(f, phi, traj, order)
    bound = 1e-14 * np.linalg.norm(oracle) * np.linalg.norm(gamma)
    assert abs(residual - expected) <= bound


def test_weighted_overflow_messages():
    matrix = (
        "symbol phi (with f) overflows the weighted matrix at order 16; "
        "its values must be finite"
    )
    with pytest.raises(SymbolOverflowError) as info:
        hs_norm(TaylorPolynomial([1e200]), TaylorPolynomial([0, 1e200]), 16)
    assert str(info.value) == matrix
    with pytest.raises(SymbolOverflowError) as info:
        hs_norm(TaylorPolynomial([1e300]), TaylorPolynomial([0, 0.5]), 16)
    assert str(info.value) == (
        "symbol f (with phi) overflows the Hilbert-Schmidt norm at order 16; "
        "its values must be finite"
    )
    # column 3 is 3 * 0.81 * 9e307; phi = 0.9z keeps the samples inside
    traj = integrate_ode(TaylorPolynomial([0.0, 1.0]), 0.2, 1.0, 1e-2)
    with pytest.warns(TrajectoryMismatchWarning), pytest.raises(SymbolOverflowError) as info:
        weighted_occupation_residual(
            TaylorPolynomial([1e308]), TaylorPolynomial([0, 0.9]), traj, 16
        )
    assert str(info.value) == matrix


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weighted_column_routes_stay_in_linear_memory():
    # one (N+1)^2 complex matrix at N = 1024 is 16.8 MB
    f = TaylorPolynomial([0.3, 0.5])
    phi = TaylorPolynomial([0.1, 0.5, 0.2])
    assert _traced_peak(lambda: hs_norm(f, phi, 1024)) < 2_000_000
    field = TaylorPolynomial([0.05, 0.5, 0.1])
    traj = integrate_ode(field, 0.1, 1.0, 1e-3)
    peak = _traced_peak(lambda: weighted_occupation_residual(field, phi, traj, 1024))
    assert peak < 2_000_000


def test_adjoint_boundary_fft_sampling_matches_horner():
    rng = np.random.default_rng(33)
    for order, size in [(0, 4), (16, 68), (48, 256), (300, 1204)]:
        f = _random_poly(rng, int(rng.integers(0, 9)))
        h = TaylorPolynomial(
            0.97 ** np.arange(order + 1) * np.exp(2j * np.pi * rng.uniform(size=order + 1))
        )
        fft = adjoint_apply_boundary(f, h, order, size)
        horner = _horner_boundary_adjoint(f, h, order, size)
        scale = 1.0 + norm(horner)
        assert norm(TaylorPolynomial(fft.coeffs - horner.coeffs)) <= 1e-12 * scale


@settings(deadline=None, max_examples=150)
@given(
    degree=st.integers(0, 10),
    order=st.integers(0, 80),
    h_extra=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_stencil_matches_dense_oracle(degree, order, h_extra, seed):
    rng = np.random.default_rng(seed)
    f = _random_poly(rng, degree)
    h = _random_poly(rng, max(0, order + h_extra))  # cut or padded to order
    stencil = liouville_adjoint_apply(f, h, order)
    A = liouville_matrix(f, order)
    oracle = adjoint_matrix(A).apply(h)
    scale = (order + 1) * norm(f) * norm(h)
    assert stencil.order == order
    assert np.max(np.abs(stencil.coeffs - oracle.coeffs)) <= 1e-14 * scale
    # pairing <A g, h> = <g, A* h> with the stencil on the right
    g = _random_poly(rng, order)
    lhs = np.vdot(h.truncated(order).coeffs, A.apply(g).coeffs)
    rhs = np.vdot(stencil.coeffs, g.coeffs)
    assert abs(lhs - rhs) <= 1e-13 * scale * norm(g)


def test_adjoint_stencil_overflow_names_symbol():
    with pytest.raises(SymbolOverflowError, match="symbol f "):
        liouville_adjoint_apply(TaylorPolynomial([1e308, 1e308]), szego_kernel(0.1, 8), 8)


def test_hot_adjoint_paths_never_build_the_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix built on a hot adjoint path")

    for module in (operators_module, occupation_module):
        for name in ("liouville_matrix", "adjoint_matrix"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    f = TaylorPolynomial([0.2, 0.9j, -0.1])
    assert adjoint_battery(16, 68, 3, 0) < 1e-8
    assert adjoint_battery(16, 68, 3, 0, f) < 1e-8
    traj = integrate_ode(TaylorPolynomial([0.0, 1.0]), 0.2, 1.0, 1e-3)
    assert liouville_occupation_residual(TaylorPolynomial([0.0, 1.0]), traj, 16) < 1e-6


def test_adjoint_on_evaluation_kernel_classic_formula():
    # A* K_w = conj(f(w)) K^(1)_w for j = 1
    f = TaylorPolynomial([0.3, 1.0, -0.2])
    w = 0.35 - 0.1j
    out = adjoint_on_derivative_kernel(f, w, 1, 40)
    k1 = kernel(KernelSpec(w, order=1), 40)
    expected = np.conj(complex(f(w))) * k1.coeffs
    assert np.allclose(out.coeffs, expected, atol=1e-13)


def test_adjoint_on_derivative_kernel_matches_matrix_oracle():
    f = TaylorPolynomial([0, 0, 1.0])  # f = z^2
    w = 0.3 + 0.2j
    order = 64
    for j in (1, 2, 3):
        analytic = adjoint_on_derivative_kernel(f, w, j, order)
        h = kernel(KernelSpec(w, order=j - 1), order)
        oracle = adjoint_matrix(liouville_matrix(f, order)).apply(h)
        # rows above order - deg f are truncation-affected; |w| < 0.5 keeps
        # the kernel tail far below the comparison tolerance
        assert np.allclose(analytic.coeffs, oracle.coeffs, atol=1e-10)


def test_adjoint_on_derivative_kernel_frozen_j3():
    # f = z^2, j = 3: coefficient n is n^2 (n+1) conj(w)^(n-1) with the
    # product-rule weights, n (n^2 - n + 2) conj(w)^(n-1) without them
    f = TaylorPolynomial([0, 0, 1.0])
    w = 0.3 + 0.2j
    n = np.arange(13)
    wb = np.conj(w)
    with_weights = adjoint_on_derivative_kernel(f, w, 3, 12, leibniz=True)
    expected = n**2 * (n + 1) * wb ** np.maximum(n - 1, 0)
    expected[0] = 0.0
    assert np.allclose(with_weights.coeffs, expected, atol=1e-12)
    without = adjoint_on_derivative_kernel(f, w, 3, 12, leibniz=False)
    expected2 = n * (n**2 - n + 2) * wb ** np.maximum(n - 1, 0)
    expected2[0] = 0.0
    assert np.allclose(without.coeffs, expected2, atol=1e-12)


def test_adjoint_variants_agree_only_below_j3():
    f = TaylorPolynomial([0.1, 0.4, 0.7, -0.2])
    w = 0.25j
    for j in (1, 2):
        a = adjoint_on_derivative_kernel(f, w, j, 20, leibniz=True)
        b = adjoint_on_derivative_kernel(f, w, j, 20, leibniz=False)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)
    a = adjoint_on_derivative_kernel(f, w, 3, 20, leibniz=True)
    b = adjoint_on_derivative_kernel(f, w, 3, 20, leibniz=False)
    assert np.max(np.abs(a.coeffs - b.coeffs)) > 1e-3


def test_adjoint_on_derivative_kernel_validation():
    with pytest.raises(InvalidIndexError):
        adjoint_on_derivative_kernel(monomial(1), 0.5, 0, 8)


def test_hermitian_defect_diagonal_symbols():
    for c in (1.0, 2.0, -0.7):
        A = liouville_matrix(TaylorPolynomial([0, c]), 16)
        assert hermitian_defect(A) == 0.0
    # any polynomial perturbation of cz breaks self-adjointness
    A = liouville_matrix(TaylorPolynomial([0, 1, 0.1]), 16)
    assert hermitian_defect(A) > 1e-3
    A = liouville_matrix(TaylorPolynomial([0, 1 + 0.1j]), 16)
    assert hermitian_defect(A) > 1e-3


# ---------------------------------------------------------------------------
# Smirnov factorization
# ---------------------------------------------------------------------------


def _boundary_of(f: TaylorPolynomial, size: int) -> BoundaryGrid:
    return to_boundary(f.truncated(max(f.order, size // 4)), size)


def test_smirnov_decompose_polynomial_symbol():
    f = TaylorPolynomial([0.5, 1.0])
    size = 1024
    grid = to_boundary(f, size)
    pair = smirnov_decompose(grid, 128)
    assert pair.normalized
    assert modulus_identity_defect(pair.a, pair.b, size) < 1e-10
    a0 = complex(pair.a(0))
    assert abs(a0.imag) < 1e-12 and a0.real > 0
    # b/a reproduces f on the boundary
    z = unit_circle_points(size)
    ratio = np.asarray(pair.b(z)) / np.asarray(pair.a(z))
    assert np.max(np.abs(ratio - np.asarray(f(z)))) < 1e-8


def test_smirnov_quotient_battery():
    # truncation order 256 keeps the outer-coefficient tail below the defect
    # tolerance even when the modulus has structure near the circle
    rng = np.random.default_rng(8)
    for _ in range(5):
        deg = rng.integers(1, 5)
        f = TaylorPolynomial(
            rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        )
        grid = to_boundary(f, 1024)
        pair = smirnov_decompose(grid, 256)
        assert modulus_identity_defect(pair.a, pair.b, 1024) < 1e-10


def test_membership_reconstruction_integral():
    # the candidate is c + J(a h); check J and the evaluation agree at 0
    f = TaylorPolynomial([1.0, 0.5])
    pair = smirnov_decompose(to_boundary(f, 512), 64)
    h = monomial(0, order=4)
    g = TaylorPolynomial(
        antiderivative(multiply(pair.a, h, 64)).coeffs
    )
    assert complex(g(0)) == 0
