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
    compose,
    default_boundary_size,
    derivative,
    endpoint_kernel_difference,
    exp_eigenfunction,
    exp_series,
    hermitian_defect,
    hk_eigenfunction,
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
    occupation_self_adjoint_relation,
    outer_from_modulus,
    project_h2,
    reciprocal,
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


_HALF_Z = TaylorPolynomial([0.0, 0.5])
_BUILDERS = {
    "liouville": lambda f, order: liouville_matrix(f, order),
    "scaled": lambda f, order: scaled_liouville_matrix(f, 0.5, order),
    "weighted": lambda f, order: weighted_liouville_matrix(f, monomial(1), order),
    "hs_norm": lambda f, order: hs_norm(f, _HALF_Z, order),
    # every other public function that truncates at an order takes the same rule
    "truncated": lambda f, order: f.truncated(order),
    "monomial": lambda f, order: monomial(0, order),
    "multiply": lambda f, order: multiply(f, f, order),
    "reciprocal": lambda f, order: reciprocal(f, order),
    "exp_series": lambda f, order: exp_series(f, order),
    "compose": lambda f, order: compose(f, _HALF_Z, order),
    "project_h2": lambda f, order: project_h2(to_boundary(f, 8), order),
    "outer_from_modulus": lambda f, order: outer_from_modulus(BoundaryGrid(np.full(8, 2.0)), order),
    "smirnov_decompose": lambda f, order: smirnov_decompose(to_boundary(f, 8), order),
    "liouville_adjoint_apply": lambda f, order: liouville_adjoint_apply(f, f, order),
    "adjoint_apply_boundary": lambda f, order: adjoint_apply_boundary(f, TaylorPolynomial([1.0]), order),
    "adjoint_battery": lambda f, order: adjoint_battery(order, 512, 5, 0),
    "exp_eigenfunction": lambda f, order: exp_eigenfunction(TaylorPolynomial([1.0, 0.5]), 0.3, order),
    "hk_eigenfunction": lambda f, order: hk_eigenfunction(2, 1, 0.3, order),
    "occupation_kernel": lambda f, order: occupation_kernel(integrate_ode(f, 0.2, 0.5, 0.01), order),
    "liouville_occupation_residual": lambda f, order: liouville_occupation_residual(
        f, integrate_ode(f, 0.2, 0.5, 0.01), order
    ),
    "weighted_occupation_residual": lambda f, order: weighted_occupation_residual(
        f, _HALF_Z, integrate_ode(f, 0.2, 0.5, 0.01), order
    ),
    "occupation_self_adjoint_relation": lambda f, order: occupation_self_adjoint_relation(
        f, _HALF_Z, integrate_ode(f, 0.2, 0.5, 0.01), order
    ),
}


@pytest.mark.parametrize("order", [-1, -2])
@pytest.mark.parametrize("build", list(_BUILDERS.values()), ids=list(_BUILDERS))
def test_builders_reject_a_negative_order(build, order):
    # the one order rule names the order before anything is allocated; order 0
    # still builds.  The kernels keep their own rule (InvalidKernelSpecError),
    # and dmd.fit needs order 1
    f = TaylorPolynomial([0.1, 0.9])
    with pytest.raises(InvalidIndexError, match=f"order must be at least 0, got {order}$"):
        build(f, order)
    build(f, 0)


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


def test_weighted_overflow_in_a_later_block_of_columns():
    # at N = 256 a block holds 127 columns: 1-127, 128-254, 255-256.  With
    # f = 1 and phi = 100z, column n is n * 100^n on row n - 1, first inf at
    # n = 154, in the second block
    f, phi = TaylorPolynomial([1.0]), TaylorPolynomial([0, 100.0])
    columns = operators_module._weighted_columns(f, phi, 256)
    with pytest.raises(SymbolOverflowError) as info:
        for n, column in columns:
            if n == 5:
                kept, snapshot = column, column.copy()
    assert str(info.value) == (
        "symbol phi (with f) overflows the weighted matrix at order 256; "
        "its values must be finite"
    )
    assert n == 127  # the last column yielded before the failing block
    assert kept[4] == 5 * 100.0**5
    assert np.array_equal(kept, snapshot)


# Frobenius sum of operators-deep's hs-norm config at N = 1024
_HS_NORM_1024_FROBENIUS = "0x1.cc71bef88efeap+1"


def test_hs_norm_frobenius_sum_is_pinned_at_order_1024():
    f, phi = TaylorPolynomial([0.3, 0.5]), TaylorPolynomial([0.1, 0.5, 0.2])
    assert hs_norm(f, phi, 1024).frobenius_sq.hex() == _HS_NORM_1024_FROBENIUS


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
        size = max(size, order + f.order)  # below it the negative modes alias
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


def _battery_case_by_case(order, size, cases, seed, f):
    """The battery as one loop over its cases through the public routes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        symbol = f
        if symbol is None:
            deg = int(rng.integers(1, 9))
            symbol = TaylorPolynomial(
                rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            )
        r = float(rng.uniform(0.2, 0.8))
        phases = np.exp(2j * np.pi * rng.uniform(size=order + 1))
        h = TaylorPolynomial(r ** np.arange(order + 1) * phases)
        gap = liouville_adjoint_apply(symbol, h, order).coeffs - adjoint_apply_boundary(
            symbol, h, order, size
        ).coeffs
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst


_BATTERY_SYMBOL = TaylorPolynomial([0.73 - 0.02j, 0.07 - 0.75j, 0.45 - 0.54j, -0.14 - 1.1j])


@settings(deadline=None, max_examples=60)
@given(
    order=st.integers(1, 64),
    extra=st.integers(0, 300),
    cases=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    fixed=st.booleans(),
)
# 20 chunks of one case each
@example(order=1024, extra=0, cases=20, seed=7, fixed=True)
def test_adjoint_battery_is_the_worst_case_of_the_public_routes(
    order, extra, cases, seed, fixed
):
    f = _BATTERY_SYMBOL if fixed else None
    # the grid floor of the symbols: degree 3, or the random ones' top degree 8
    size = (4 * (order + 1) if fixed else max(4 * (order + 1), order + 8)) + extra
    chunked = adjoint_battery(order, size, cases, seed, f)
    assert chunked.hex() == _battery_case_by_case(order, size, cases, seed, f).hex()


def test_adjoint_battery_rejects_an_empty_battery():
    for cases in (0, -3):
        with pytest.raises(InvalidIndexError, match="cases"):
            adjoint_battery(16, 68, cases, 0)


@pytest.mark.parametrize(
    "order, size, cases, seed, coeffs, route",
    [
        # 600 cases are more than one chunk holds at either size
        (8, 36, 600, 0, [1e308, 1e308], "liouville matrix"),
        (1, 8, 600, 0, [1e308, 1e308], "boundary adjoint route"),
        # each route fails on some cases: seed 1 fails first in a transpose
        # route, seed 2 in a boundary route, and later cases in the other
        (1, 8, 20, 1, [1.7e308, 1.7e308], "liouville matrix"),
        (1, 8, 20, 2, [1.7e308, 1.7e308], "boundary adjoint route"),
        # only the coefficients of f' overflow
        (0, 4, 3, 0, [0.0, 0.0, 1e308], "boundary adjoint route"),
    ],
)
def test_adjoint_battery_overflow_names_the_first_failing_route(
    order, size, cases, seed, coeffs, route
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SymbolOverflowError) as info:
            adjoint_battery(order, size, cases, seed, TaylorPolynomial(coeffs))
    assert str(info.value) == (
        f"symbol f overflows the {route} at order {order}; its values must be finite"
    )


def test_adjoint_battery_memory_stays_in_chunks():
    f = TaylorPolynomial([0.3, 0.5 + 0.2j, -0.1])
    assert _traced_peak(lambda: adjoint_battery(1024, 4100, 20, 7, f)) <= 2**20
    # the case-by-case battery peaked at 134,306,276 bytes (NumPy 2.4)
    assert _traced_peak(lambda: adjoint_battery(1024, 2**20, 2, 7, f)) <= 134_306_276


def test_boundary_grid_floor_counts_the_degree_of_f():
    # conj(f) z (h + z h') has modes down to 1 - deg f: at N = 1 a symbol of
    # degree 8 needs N + 8 = 9 points, more than 4(N+1) = 8
    rng = np.random.default_rng(8)
    f = _random_poly(rng, 8)
    h = _random_poly(rng, 1)
    oracle = adjoint_matrix(liouville_matrix(f, 1)).apply(h)
    boundary = adjoint_apply_boundary(f, h, 1, 9)
    assert norm(TaylorPolynomial(boundary.coeffs - oracle.coeffs)) < 1e-12 * norm(oracle)
    with pytest.raises(AliasingError, match="need at least 9"):
        adjoint_apply_boundary(f, h, 1, 8)
    # without a grid the route takes the next power of two, 16
    assert adjoint_apply_boundary(f, h, 1).coeffs.tobytes() == adjoint_apply_boundary(
        f, h, 1, 16
    ).coeffs.tobytes()
    # a fixed symbol of degree 8, and the random ones of degree up to 8
    for symbol in (f, None):
        assert adjoint_battery(1, 9, 30, 0, symbol) < 1e-12
        with pytest.raises(AliasingError, match="need at least 9"):
            adjoint_battery(1, 8, 30, 0, symbol)


def test_adjoint_battery_gap_whose_squares_overflow_keeps_a_finite_norm():
    # both routes are finite near 1e307, and so are their gaps, whose
    # squares overflow; the norm is taken again at a power-of-two scale
    f = TaylorPolynomial([0.0, 0.0, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = adjoint_battery(1, 8, 3, 0, f)
    assert np.isfinite(worst) and worst > 1e290


def test_rescued_norm_takes_its_scale_from_the_largest_part():
    # |1.5e308 + 1.5e308j| is not finite, but each part is: the norm is inf,
    # with no warning; at 1.2e308 the modulus is finite and so is the norm
    image = np.array([[1.5e308 + 1.5e308j, 1.2e308 + 1.2e308j], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = np.full(2, np.inf)
        operators_module._rescue_norms(norms, image)
    assert norms[0] == np.inf
    assert norms[1] == pytest.approx(1.2e308 * np.sqrt(2.0), rel=1e-15)
    assert f"{norms[1]:.4g}" == "1.697e+308"


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
    k1 = kernel(w, 1, 40)
    expected = np.conj(complex(f(w))) * k1.coeffs
    assert np.allclose(out.coeffs, expected, atol=1e-13)


def test_adjoint_on_derivative_kernel_matches_matrix_oracle():
    f = TaylorPolynomial([0, 0, 1.0])  # f = z^2
    w = 0.3 + 0.2j
    order = 64
    for j in (1, 2, 3):
        analytic = adjoint_on_derivative_kernel(f, w, j, order)
        h = kernel(w, j - 1, order)
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
    # the order rule, before the (order + 1)-long result is allocated
    for order in (-1, -2):
        with pytest.raises(InvalidIndexError, match=f"order must be at least 0, got {order}$"):
            adjoint_on_derivative_kernel(monomial(1), 0.5, 1, order)


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


def test_smirnov_pair_keeps_its_modulus_defect():
    # the defect smirnov_decompose measured, on the grid it was given
    for coeffs, size in (([0.5, 1.0], 1024), ([1.0, -0.5, 3.0], 128)):
        pair = smirnov_decompose(to_boundary(TaylorPolynomial(coeffs), size), size // 8)
        assert pair.defect == modulus_identity_defect(pair.a, pair.b, size)
        assert pair.normalized == (pair.defect <= 1e-10)


def test_membership_reconstruction_integral():
    # the candidate is c + J(a h); check J and the evaluation agree at 0
    f = TaylorPolynomial([1.0, 0.5])
    pair = smirnov_decompose(to_boundary(f, 512), 64)
    h = monomial(0, order=4)
    g = TaylorPolynomial(
        antiderivative(multiply(pair.a, h, 64)).coeffs
    )
    assert complex(g(0)) == 0
