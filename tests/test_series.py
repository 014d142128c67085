"""Series layer: kernels, arithmetic, boundary transforms, outer functions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyliou import (
    AliasingError,
    CompositionOutOfDiskError,
    DiskDomainError,
    InvalidIndexError,
    InvalidKernelSpecError,
    LogDomainError,
    SingularSymbolError,
    TaylorPolynomial,
    antiderivative,
    compose,
    default_boundary_size,
    derivative,
    derivative_kernel,
    exp_series,
    geometric_tail,
    inner_product,
    kernel,
    kernel_tail,
    monomial,
    multiply,
    norm,
    OperatorMatrix,
    RadialProfile,
    dmd,
    eigendecompose,
    integrate_ode,
    liouville_matrix,
    outer_from_modulus,
    project_h2,
    reciprocal,
    szego_kernel,
    to_boundary,
    Trajectory,
    unit_circle_points,
)
from hardyliou.series import BoundaryGrid, _composed_points, _modulus


# ---------------------------------------------------------------------------
# TaylorPolynomial basics
# ---------------------------------------------------------------------------


def test_taylor_evaluation_scalar_and_array():
    p = TaylorPolynomial([1, 2, 3])  # 1 + 2z + 3z^2
    assert p(0.5) == pytest.approx(1 + 1 + 0.75)
    vals = p(np.array([0.0, 1.0, -1.0]))
    assert np.allclose(vals, [1.0, 6.0, 2.0])
    assert isinstance(p(0.5), complex)


def test_taylor_coeffs_readonly():
    p = TaylorPolynomial([1, 2])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_taylor_truncated_extends_and_cuts():
    p = TaylorPolynomial([1, 2, 3])
    assert p.truncated(1).order == 1
    assert np.allclose(p.truncated(1).coeffs, [1, 2])
    assert np.allclose(p.truncated(4).coeffs, [1, 2, 3, 0, 0])


def test_monomial():
    m = monomial(3)
    assert m.order == 3
    assert m.coeffs[3] == 1.0
    assert np.count_nonzero(m.coeffs) == 1
    assert monomial(2, order=5).order == 5
    # a negative degree is refused, not read from the end of the vector (z^2)
    for args, message in [
        ((-2, 3), "degree must be at least 0, got -2"),
        ((-1,), "degree must be at least 0, got -1"),
        ((5, 3), "order must be at least 5, got 3"),
    ]:
        with pytest.raises(InvalidIndexError, match=f"^{message}$"):
            monomial(*args)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TaylorPolynomial([0.1, 0.9]),
        lambda: BoundaryGrid([1.0, 1j, -1.0]),
        lambda: Trajectory([0.0, 0.5, 1.0], [0.1, 0.2j, 0.3]),
        lambda: OperatorMatrix(np.eye(3)),
    ],
    ids=["TaylorPolynomial", "BoundaryGrid", "Trajectory", "OperatorMatrix"],
)
def test_array_value_types_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the arrays inside a tuple and raise
    a, twin = make(), make()
    assert a == a
    assert a != twin
    assert hash(a) == hash(a)
    assert len({a, twin}) == 2


def _held_arrays():
    # every array field of each value and result type, by Type.field
    f = TaylorPolynomial([0.1, 0.9])
    orbits = [integrate_ode(f, z0, 0.5, 0.05) for z0 in (0.2, 0.3j, -0.4)]
    model = dmd.fit(orbits, order=4)
    holders = [
        f,
        BoundaryGrid([1.0, 1j, -1.0]),
        liouville_matrix(f, 4),
        orbits[0],
        RadialProfile([0.1, 0.2], [1.0, 2.0]),
        eigendecompose(liouville_matrix(f, 4)),
        model,
    ]
    arrays = {
        f"{type(holder).__name__}.{name}": value
        for holder in holders
        for name, value in vars(holder).items()
        if isinstance(value, np.ndarray)
    }
    arrays["DmdModel.gram"] = model.gram
    arrays["dmd._exponents"] = dmd._exponents(4)
    return arrays


_HELD_ARRAYS = _held_arrays()


@pytest.mark.parametrize("name", sorted(_HELD_ARRAYS))
def test_held_arrays_can_never_be_written(name):
    # NumPy lets an array that owns its memory be made writable again; a
    # stale DmdModel._forecast_map, say, would then forecast from old fields
    array = _HELD_ARRAYS[name]
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 0
    with pytest.raises(ValueError):
        array.setflags(write=True)


# ---------------------------------------------------------------------------
# inner products and kernels
# ---------------------------------------------------------------------------


def test_monomials_orthonormal():
    for i in range(4):
        for j in range(4):
            ip = inner_product(monomial(i, order=5), monomial(j, order=5))
            assert ip == (1.0 if i == j else 0.0)


def test_szego_kernel_reproduces_evaluation():
    g = TaylorPolynomial([1.0, -0.5, 0.25j, 2.0])
    w = 0.4 - 0.3j
    k = szego_kernel(w, 32)
    assert inner_product(g, k) == pytest.approx(complex(g(w)), abs=1e-15)


def test_szego_kernel_norm_frozen():
    # <K_w, K_w> = 1/(1-|w|^2); at w=0.5 that is 4/3
    k = szego_kernel(0.5, 200)
    assert inner_product(k, k).real == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_derivative_kernel_reproduces_derivative():
    g = TaylorPolynomial([0.3, 1.0, -2.0, 0.5j])
    w = 0.25 + 0.1j
    k1 = kernel(w, 1, 32)
    assert inner_product(g, k1) == pytest.approx(
        complex(derivative(g)(w)), abs=1e-14
    )
    # second derivative too
    k2 = kernel(w, 2, 32)
    assert inner_product(g, k2) == pytest.approx(
        complex(derivative(derivative(g))(w)), abs=1e-13
    )


def test_derivative_kernel_norm_closed_form():
    w = 0.3 - 0.4j
    r2 = abs(w) ** 2
    _, norm_sq = derivative_kernel(w, 600)
    assert norm_sq == pytest.approx((1 + r2) / (1 - r2) ** 3, rel=1e-13)
    # truncated series norm converges to the closed form
    series, _ = derivative_kernel(w, 600)
    assert norm(series) ** 2 == pytest.approx(norm_sq, rel=1e-10)


def test_kernel_validation():
    with pytest.raises(DiskDomainError):
        szego_kernel(1.0, 16)
    # the open-disk rule is "not |w| < 1", which a NaN fails
    for j in (0, 1):
        with pytest.raises(DiskDomainError, match="got [|]w[|] = nan$"):
            kernel(complex("nan"), j, 16)
    with pytest.raises(InvalidKernelSpecError):
        kernel(0.5, -1, 16)
    with pytest.raises(InvalidKernelSpecError):
        kernel(0.5, 20, 16)


@pytest.mark.parametrize("order", [True, 2.0, 16.0, "16"])
@pytest.mark.parametrize("j", [0, 1])
def test_kernel_refuses_an_order_that_is_not_an_integer(j, order):
    # the kernels' own rule: an order that is not an integer is a bad kernel spec
    with pytest.raises(InvalidKernelSpecError, match=f"^order must be an integer, got {order!r}$"):
        kernel(0.1, j, order)
    assert np.array_equal(kernel(0.1, j, np.int64(16)).coeffs, kernel(0.1, j, 16).coeffs)


def test_kernel_point_modulus_past_the_largest_double():
    # finite parts whose modulus overflows: complex abs raises OverflowError
    with pytest.raises(DiskDomainError, match="got [|]w[|] = inf$"):
        kernel(complex(1.5e308, 1.5e308), 0, 4)
    # elsewhere the modulus is complex abs's, bit for bit
    for w in (0.6 + 0.8j, 1.0 + 1e-300j, complex("inf"), complex(1e308, 1e308)):
        with pytest.raises(DiskDomainError, match=re.escape(f"got |w| = {abs(w)}") + "$"):
            kernel(w, 0, 4)
    assert kernel(0.6 + 0.79j, 0, 4).coeffs[1] == 0.6 - 0.79j


def test_every_disk_rule_measures_with_complex_abs():
    # np.abs differs from abs (libm hypot) in the last bit for about half of
    # the points near a circle, and math.hypot for some, so one point could
    # pass one disk rule and fail another
    rng = np.random.default_rng(4)
    for radius in (0.999, 1.0):
        scale = radius * (1.0 + rng.uniform(-4e-16, 4e-16, 20000))
        points = scale * np.exp(2j * np.pi * rng.uniform(size=20000))
        expected = np.array([abs(complex(w)) for w in points])
        assert _modulus(points).tobytes() == expected.tobytes()
    # abs(w) is 1.0; math.hypot read 0.9999999999999999 and let it in
    with pytest.raises(DiskDomainError, match="got [|]w[|] = 1.0$"):
        kernel(0.10140995205361931 + 0.9948447223685124j, 0, 4)
    # np.abs(w) < 1 <= abs(w): w is no kernel point, and phi = z may not
    # compose onto it either
    w = -0.9462606126801407 + 0.32340509100848214j
    with pytest.raises(DiskDomainError):
        kernel(w, 0, 4)
    with pytest.raises(CompositionOutOfDiskError):
        _composed_points(TaylorPolynomial([0.0, 1.0]), np.array([0.5, w]))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def test_derivative_and_antiderivative():
    p = TaylorPolynomial([5, 1, 2, 3])
    dp = derivative(p)
    assert np.allclose(dp.coeffs, [1, 4, 9])
    J = antiderivative(dp)
    # J drops the constant: reconstructs p minus p(0)
    assert np.allclose(J.coeffs, [0, 1, 2, 3])


def test_antiderivative_starts_at_zero():
    J = antiderivative(TaylorPolynomial([2, 4]))
    assert J.coeffs[0] == 0
    assert complex(J(0)) == 0


def test_multiply_exact_vs_truncated():
    p = TaylorPolynomial([1, 1])
    q = TaylorPolynomial([1, -1, 2])
    exact = multiply(p, q)
    assert exact.order == 3
    assert np.allclose(exact.coeffs, np.convolve([1, 1], [1, -1, 2]))
    cut = multiply(p, q, order=1)
    assert cut.order == 1
    assert np.allclose(cut.coeffs, exact.coeffs[:2])


def test_reciprocal_and_exp():
    import math

    # 1/(1-z) = sum z^n
    p = TaylorPolynomial([1, -1])
    r = reciprocal(p, 10)
    assert np.allclose(r.coeffs, np.ones(11))
    with pytest.raises(SingularSymbolError):
        reciprocal(TaylorPolynomial([0, 1]), 4)
    # exp(z) coefficients 1/n!
    e = exp_series(monomial(1), 8)
    expected = np.array([1.0 / math.factorial(n) for n in range(9)])
    assert np.allclose(e.coeffs, expected)


def test_exp_series_matches_double_loop():
    rng = np.random.default_rng(13)
    for size, order in [(1, 6), (4, 0), (9, 40), (300, 256)]:
        c = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 0.9 ** np.arange(size)
        loop = np.zeros(order + 1, dtype=np.complex128)
        loop[0] = np.exp(c[0])
        for n in range(1, order + 1):
            acc = 0.0 + 0.0j
            for k in range(1, min(n, size - 1) + 1):
                acc += k * c[k] * loop[n - k]
            loop[n] = acc / n
        out = exp_series(TaylorPolynomial(c), order).coeffs
        assert np.max(np.abs(out - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_exp_requires_zero_constant_handled():
    # exp of series with constant term: e^(c) factor appears
    g = TaylorPolynomial([1.0, 1.0])
    e = exp_series(g, 6)
    import math
    expected = math.e * np.array([1.0 / math.factorial(n) for n in range(7)])
    assert np.allclose(e.coeffs, expected)


def test_compose_matches_pointwise():
    g = TaylorPolynomial([1, 2, 3])
    h = TaylorPolynomial([0, 0.5, -0.25])
    c = compose(g, h, 8)
    for z in [0.1, 0.3 + 0.2j, -0.4j]:
        assert complex(c(z)) == pytest.approx(
            complex(g(complex(h(z)))), abs=1e-12
        )


# ---------------------------------------------------------------------------
# boundary transforms
# ---------------------------------------------------------------------------


def test_to_boundary_matches_direct_evaluation():
    p = TaylorPolynomial([1, 2j, -0.5])
    grid = to_boundary(p, 16)
    z = unit_circle_points(16)
    assert np.allclose(grid.values, p(z))


def test_boundary_roundtrip_exact():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    p = TaylorPolynomial(coeffs)
    back = project_h2(to_boundary(p, 64), 8)
    assert np.allclose(back.coeffs, p.coeffs, atol=1e-14)


def test_to_boundary_aliasing_guard():
    p = monomial(10)
    with pytest.raises(AliasingError):
        to_boundary(p, 16)  # needs >= 22


def test_default_boundary_size():
    assert default_boundary_size(64) == 512  # >= 4*65 = 260 -> 512
    assert default_boundary_size(1) == 8
    assert default_boundary_size(127) == 512


def test_project_h2_discards_negative_frequencies():
    z = unit_circle_points(32)
    grid = BoundaryGrid(np.conj(z))  # conj(e^{i t}) has frequency -1
    p = project_h2(grid, 8)
    assert np.allclose(p.coeffs, 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# outer functions
# ---------------------------------------------------------------------------


def test_outer_from_modulus_polynomial_frozen():
    # |1 - e^{it}/2| is the boundary modulus of the outer function 1 - z/2
    z = unit_circle_points(256)
    grid = BoundaryGrid(np.abs(1.0 - z / 2.0).astype(np.complex128))
    G = outer_from_modulus(grid, 32)
    expected = np.zeros(33, dtype=np.complex128)
    expected[0] = 1.0
    expected[1] = -0.5
    assert np.allclose(G.coeffs, expected, atol=1e-13)


def test_outer_from_modulus_exp_cos_frozen():
    # e^{cos t} = |e^{e^{it}}| on the circle; outer function is e^z
    import math

    z = unit_circle_points(512)
    grid = BoundaryGrid(np.exp(np.real(z)).astype(np.complex128))
    G = outer_from_modulus(grid, 24)
    expected = np.array([1.0 / math.factorial(n) for n in range(25)])
    assert np.allclose(G.coeffs, expected, atol=1e-13)


def test_outer_rejects_nonpositive_modulus():
    z = unit_circle_points(64)
    vals = np.abs(1.0 - z) ** 2  # vanishes at t = 0
    vals[0] = 0.0
    with pytest.raises(LogDomainError):
        outer_from_modulus(BoundaryGrid(vals.astype(np.complex128)), 8)


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


def test_geometric_tail_frozen():
    # lead r^(N+1)/(1-r) with lead=1, r=0.5, N=9: 2^-10 / 0.5 = 2^-9
    assert geometric_tail(1.0, 0.5, 9) == pytest.approx(2.0**-9)


def test_kernel_tail_dominates_actual_truncation_error():
    w = 0.7
    full = szego_kernel(w, 4000)
    trunc = szego_kernel(w, 30).truncated(4000)
    actual = norm(TaylorPolynomial(full.coeffs - trunc.coeffs))
    bound = kernel_tail(1.0, w, 30)
    assert actual <= bound
    assert bound < 2 * actual * 3  # not wildly loose


# ---------------------------------------------------------------------------
# property tests (kept few on purpose)
# ---------------------------------------------------------------------------


coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@settings(deadline=None, max_examples=60)
@given(coeff_lists)
def test_antiderivative_never_increases_norm(coeffs):
    p = TaylorPolynomial(coeffs)
    assert norm(antiderivative(p)) <= norm(p) + 1e-12


@settings(deadline=None, max_examples=60)
@given(coeff_lists)
def test_boundary_roundtrip_property(coeffs):
    p = TaylorPolynomial(coeffs)
    size = default_boundary_size(p.order)
    back = project_h2(to_boundary(p, size), p.order)
    assert np.allclose(back.coeffs, p.coeffs, atol=1e-9 * (1 + norm(p)))


@settings(deadline=None, max_examples=60)
@given(
    coeff_lists,
    st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
)
def test_kernel_reproduces_evaluation_property(coeffs, w):
    p = TaylorPolynomial(coeffs)
    k = szego_kernel(complex(w), p.order)
    lhs = inner_product(p, k)
    assert abs(lhs - complex(p(w))) <= 1e-9 * (1 + norm(p))
