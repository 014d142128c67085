"""Growth certificates, Blaschke symbols, and the dual Hilbert-Schmidt routes."""

import numpy as np
import pytest

from hardyliou import (
    AliasingError,
    BlaschkeProduct,
    CompositionOutOfDiskError,
    DiskDomainError,
    InvalidIndexError,
    TaylorPolynomial,
    adjoint_matrix,
    blaschke_ratio_profile,
    boundedness_bound,
    hs_norm,
    integrate_ode,
    monomial,
    norm,
    normalized_kernel_action_sq,
    occupation_self_adjoint_relation,
    polar_grid,
    self_adjoint_symbol_relation,
    szego_kernel,
    unit_circle_points,
    weighted_adjoint_on_kernel,
    weighted_liouville_matrix,
    weighted_occupation_residual,
)
from hardyliou.weighted import RadialProfile


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_polar_grid_shape_and_range():
    grid = polar_grid(10, 16, 0.9)
    assert grid.shape == (10, 16)
    radii = np.abs(grid[:, 0])
    assert np.all(np.diff(radii) > 0)
    assert radii[-1] == pytest.approx(0.9)
    assert np.max(np.abs(grid)) < 1.0


@pytest.mark.parametrize(
    "counts", [(0, 4), (4, 0), (-2, 4)], ids=["no_radii", "no_angles", "negative_radii"]
)
def test_polar_grid_refuses_fewer_than_one_radius_or_angle(counts):
    # zero radii would divide by zero, and an empty grid would reach
    # boundedness_bound, which would blame the symbol for its empty maximum
    with pytest.raises(InvalidIndexError, match="must be at least 1"):
        polar_grid(*counts)


def test_boundedness_bound_names_an_empty_grid_not_the_symbol():
    f, phi = TaylorPolynomial([1.0]), TaylorPolynomial([0.0, 0.5])
    for grid in (np.zeros((4, 0), complex), np.zeros((0, 4), complex)):
        with pytest.raises(AliasingError, match="growth expression; need at least 1"):
            boundedness_bound(f, phi, grid)


def test_hs_norm_refuses_an_empty_quadrature_grid():
    f, phi = TaylorPolynomial([1.0]), TaylorPolynomial([0.0, 0.5])
    with pytest.raises(AliasingError, match="Hilbert-Schmidt quadrature; need at least 1"):
        hs_norm(f, phi, 8, size=0)


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.2, 0.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.1]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# kernel-level adjoint
# ---------------------------------------------------------------------------


def test_weighted_adjoint_on_kernel_matches_matrix_oracle():
    f = TaylorPolynomial([0.3, 1.0])
    phi = TaylorPolynomial([0, 0.5, 0.2])
    order = 64
    W = adjoint_matrix(weighted_liouville_matrix(f, phi, order))
    for w in (0.3, -0.2 + 0.4j, 0.5j):
        oracle = W.apply(szego_kernel(complex(w), order))
        analytic = weighted_adjoint_on_kernel(f, phi, w, order)
        assert norm(TaylorPolynomial(oracle.coeffs - analytic.coeffs)) < 1e-9


def test_weighted_adjoint_on_kernel_validation():
    f = monomial(1)
    with pytest.raises(DiskDomainError):
        weighted_adjoint_on_kernel(f, monomial(1), 1.2, 16)
    with pytest.raises(CompositionOutOfDiskError):
        weighted_adjoint_on_kernel(f, TaylorPolynomial([0, 3.0]), 0.5, 16)


def test_normalized_kernel_action_closed_form():
    f = TaylorPolynomial([0.4, 0.7])
    phi = TaylorPolynomial([0, 0.5, 0.1])
    w = 0.4 - 0.2j
    # numeric route: (1 - |w|^2) ||A* K_w||^2 with a converged kernel norm
    image = weighted_adjoint_on_kernel(f, phi, w, 512)
    numeric = (1.0 - abs(w) ** 2) * norm(image) ** 2
    assert normalized_kernel_action_sq(f, phi, w) == pytest.approx(
        numeric, rel=1e-10
    )


@pytest.mark.parametrize("w", [2.0, 1.0, float("nan")])
def test_normalized_kernel_action_refuses_a_point_outside_the_disk(w):
    # phi(w) = 0.1 w stays inside, so only the kernel point's own rule can
    # refuse it, as weighted_adjoint_on_kernel does
    f, phi = TaylorPolynomial([1.0]), TaylorPolynomial([0.0, 0.1])
    for action in (normalized_kernel_action_sq, weighted_adjoint_on_kernel):
        with pytest.raises(DiskDomainError, match=f"got [|]w[|] = {w}$"):
            action(f, phi, w)


_ORBIT = integrate_ode(TaylorPolynomial([0.0, -0.3 + 1.0j]), 0.5, 0.5, 0.01)
_COMPOSITIONS = {
    "weighted_occupation_residual": lambda f, phi: weighted_occupation_residual(
        f, phi, _ORBIT, 8
    ),
    "weighted_adjoint_on_kernel": lambda f, phi: weighted_adjoint_on_kernel(
        f, phi, 0.5, 8
    ),
    "normalized_kernel_action_sq": lambda f, phi: normalized_kernel_action_sq(
        f, phi, 0.5
    ),
    "boundedness_bound": lambda f, phi: boundedness_bound(f, phi),
    "occupation_self_adjoint_relation": lambda f, phi: occupation_self_adjoint_relation(
        f, phi, _ORBIT, 8
    ),
}


@pytest.mark.parametrize("site", sorted(_COMPOSITIONS))
@pytest.mark.parametrize(
    "phi, top",
    [([0.0, 5.0], r"[2-4]\.[0-9]+"), ([1.5e308, 1e308], "inf")],  # overflows at 0.5
    ids=["outside", "overflow"],
)
def test_composition_sites_share_the_open_disk_rule(site, phi, top):
    # every site refuses with one message naming the largest |phi| it read,
    # and an overflowing phi leaks no RuntimeWarning
    f = TaylorPolynomial([0.0, -0.3 + 1.0j])
    message = f"^phi must map into [|]w[|] < 1, got max [|]phi[|] = {top}$"
    with pytest.raises(CompositionOutOfDiskError, match=message):
        _COMPOSITIONS[site](f, TaylorPolynomial(phi))


def test_composed_nan_fails_the_open_disk_rule():
    # a NaN grid point gives a NaN phi-value, which is not inside the disk
    grid = np.full((3, 4), np.nan + 0j)
    with pytest.raises(CompositionOutOfDiskError, match="max [|]phi[|] = nan$"):
        boundedness_bound(TaylorPolynomial([1.0]), monomial(1), grid)


# ---------------------------------------------------------------------------
# self-adjointness constraints
# ---------------------------------------------------------------------------


def test_self_adjoint_pair_passes_both_residuals():
    for c in (1.0, 2.0, -0.7):
        result = self_adjoint_symbol_relation(
            TaylorPolynomial([0, c]), monomial(1), order=32
        )
        assert result.symbol_residual < 1e-12
        assert result.kernel_defect < 1e-12


def test_symbol_relation_is_necessary_not_sufficient():
    # f = -2i z with phi = i z satisfies the printed symbol identity yet the
    # operator is not Hermitian; the kernel defect catches it
    result = self_adjoint_symbol_relation(
        TaylorPolynomial([0, -2j]), TaylorPolynomial([0, 1j]), order=32
    )
    assert result.symbol_residual < 1e-12
    assert result.kernel_defect > 0.1


def test_generic_pair_fails_symbol_relation():
    result = self_adjoint_symbol_relation(
        TaylorPolynomial([0.2, 1.0]), TaylorPolynomial([0, 0.5, 0.1]), order=32
    )
    assert result.symbol_residual > 1e-3
    assert result.kernel_defect > 1e-3


@pytest.mark.parametrize(
    "call",
    [
        lambda f, phi, order: self_adjoint_symbol_relation(f, phi, order),
        lambda f, phi, order: weighted_adjoint_on_kernel(f, phi, 0.3, order),
    ],
    ids=["self_adjoint_symbol_relation", "weighted_adjoint_on_kernel"],
)
@pytest.mark.parametrize("order", [0, -1])
def test_derivative_kernel_sites_need_order_one(call, order):
    # both build the first-derivative kernel, so order 0 is refused up front
    # by the order rule, not by the kernel inside
    f, phi = TaylorPolynomial([0.1, 0.9]), TaylorPolynomial([0.0, 0.5])
    with pytest.raises(InvalidIndexError, match=f"^order must be at least 1, got {order}$"):
        call(f, phi, order)


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------


def test_boundedness_contractive_scaling():
    result = boundedness_bound(monomial(0), TaylorPolynomial([0, 0.5]))
    assert not result.diverges
    # expression peaks at the center with value 1/4 and decays outward
    assert 0.24 <= result.supremum <= 0.25
    assert result.profile.values[-1] < result.profile.values[0]


def test_boundedness_identity_composition_diverges():
    result = boundedness_bound(monomial(0), monomial(1))
    assert result.diverges
    assert result.supremum > 1e3


# ---------------------------------------------------------------------------
# Blaschke symbols
# ---------------------------------------------------------------------------


def test_blaschke_identity_factor():
    b = BlaschkeProduct((0.0,))
    z = np.array([0.3, 0.5j, -0.2 + 0.1j])
    assert np.allclose(b(z), z)
    assert np.allclose(b.derivative(z), 1.0)


def test_blaschke_unimodular_on_circle():
    b = BlaschkeProduct((0.3, -0.5j, 0.0))
    assert np.max(np.abs(np.abs(b(unit_circle_points(512))) - 1.0)) < 1e-13


def test_blaschke_derivative_matches_finite_difference():
    b = BlaschkeProduct((0.4, 0.2 - 0.3j))
    h = 1e-6
    for z in (0.1, 0.3 + 0.2j):
        fd = (b(z + h) - b(z - h)) / (2 * h)
        assert complex(b.derivative(z)) == pytest.approx(fd, abs=1e-8)


def test_blaschke_zero_validation():
    with pytest.raises(DiskDomainError):
        BlaschkeProduct((1.2,))
    # each zero obeys the kernel-point rule, which a NaN fails
    for zero in (1.2, 1.0, complex("nan")):
        message = f"Blaschke zero must satisfy [|]w[|] < 1, got [|]w[|] = {abs(zero)}$"
        with pytest.raises(DiskDomainError, match=message):
            BlaschkeProduct((0.3, zero))
    with pytest.raises(ValueError):
        BlaschkeProduct(())


def test_blaschke_ratio_tends_to_one():
    # single factors are automorphisms: the hyperbolic ratio is exactly 1
    for zero in (0.0, 0.5, 0.3 - 0.2j):
        exact = blaschke_ratio_profile(BlaschkeProduct((zero,)))
        assert np.max(exact.values) < 1e-11
    # genuine products deviate in the interior, reaching 1 at the boundary
    profile = blaschke_ratio_profile(BlaschkeProduct((0.5, 0.0)))
    assert profile.values[0] > 1e-3
    assert np.all(np.diff(profile.values) < 0)
    assert profile.values[-1] < 1e-4


# ---------------------------------------------------------------------------
# norm sequences and Hilbert-Schmidt
# ---------------------------------------------------------------------------


def test_hs_norm_frozen_twenty_over_27():
    result = hs_norm(monomial(0), TaylorPolynomial([0, 0.5]), 64)
    assert result.finite
    assert result.frobenius_sq == pytest.approx(20.0 / 27.0, abs=1e-10)
    assert result.quadrature_sq == pytest.approx(20.0 / 27.0, abs=1e-10)


def test_hs_norm_battery_dual_routes():
    pairs = [
        (TaylorPolynomial([0, 1.0]), TaylorPolynomial([0, 0.8])),
        (TaylorPolynomial([0.5, 0.1]), TaylorPolynomial([0, 0.3, 0.3])),
        (TaylorPolynomial([1.0]), TaylorPolynomial([0.1, 0.5])),
    ]
    for f, phi in pairs:
        result = hs_norm(f, phi, 64, 1024)
        assert result.finite
        assert result.frobenius_sq == pytest.approx(
            result.quadrature_sq, abs=1e-8
        )


def test_hs_norm_identity_composition_infinite():
    result = hs_norm(monomial(0), monomial(1), 32)
    assert not result.finite
    assert result.quadrature_sq == np.inf
    assert np.isfinite(result.frobenius_sq)


def test_disk_rules_agree_on_a_constant_phi_just_inside_the_circle():
    # abs(c) is 0x1.fffffffffffffp-1 but np.abs(c) rounds to 1.0; every disk
    # rule measures with hypot, so with phi' = 0 the operator is zero
    c = complex(-0.9626681429324231, -0.2706844040262379)
    assert abs(c) < 1.0 == np.abs(np.array([c]))[0]
    phi = TaylorPolynomial([c])
    result = hs_norm(monomial(0), phi, 8)
    assert result.finite
    assert result.frobenius_sq == result.quadrature_sq == 0.0
    assert boundedness_bound(monomial(0), phi).supremum == 0.0
    orbit = integrate_ode(monomial(0), 0.2, 0.1, 0.01)
    assert weighted_occupation_residual(monomial(0), phi, orbit, 8) == 0.0


# ---------------------------------------------------------------------------
# occupation form of the self-adjoint identity
# ---------------------------------------------------------------------------


def test_occupation_relation_self_adjoint_field():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    residual = occupation_self_adjoint_relation(
        monomial(1), monomial(1), traj, 64
    )
    assert residual < 1e-6


def test_occupation_relation_readings_agree_for_identity_phi():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    plain = occupation_self_adjoint_relation(
        monomial(1), monomial(1), traj, 32, reading="plain"
    )
    composed = occupation_self_adjoint_relation(
        monomial(1), monomial(1), traj, 32, reading="composed"
    )
    assert plain == pytest.approx(composed, abs=1e-12)
    with pytest.raises(ValueError):
        occupation_self_adjoint_relation(
            monomial(1), monomial(1), traj, 32, reading="bogus"
        )


def test_occupation_relation_detects_skew_field():
    # f = i z is skew-adjoint: the relation flips sign, residual = 2 ||rhs||
    f = TaylorPolynomial([0, 1j])
    traj = integrate_ode(f, 0.2, 1.0, 1e-3)
    residual = occupation_self_adjoint_relation(f, monomial(1), traj, 64)
    end = szego_kernel(complex(traj.points[-1]), 64)
    start = szego_kernel(complex(traj.points[0]), 64)
    rhs_norm = norm(TaylorPolynomial(end.coeffs - start.coeffs))
    assert residual == pytest.approx(2.0 * rhs_norm, rel=1e-4)
