"""Boundedness probes, Hilbert-Schmidt norms and self-adjointness checks for
weighted operators.

The operator ``g -> f * phi' * (g' o phi)`` acts boundedly exactly when the
growth expression

    B(w) = |f(w)|^2 |phi'(w)|^2 (1 - |w|^2) (1 + |phi(w)|^2) / (1 - |phi(w)|^2)^3

stays bounded over the disk.  This module evaluates B on a polar grid and
flags per-radius maxima that still climb at its outer edge (a numerical
probe, not a proof), computes the squared Hilbert-Schmidt norm by two
independent routes (Frobenius sum of the truncated matrix versus boundary
quadrature), checks the self-adjointness constraints on the symbol pair
(symbol relation, kernel defect and the occupation-kernel endpoint
identity), and builds finite Blaschke products with their boundary-ratio
profile.

Note on the quadrature exponent: the squared norm of the image of ``z^n`` is
``n^2/(2 pi) * integral |f|^2 |phi'|^2 |phi|^(2(n-1))``, with exponent
``2(n-1)``; summing gives the integrand ``(1 + |phi|^2)/(1 - |phi|^2)^3``
with no extra ``|phi|^2`` factor.  The Frobenius route is the ground truth
certifying this normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .occupation import Trajectory, _defect_norm, endpoint_kernel_difference, occupation_kernel
from .series import (
    TaylorPolynomial,
    DEFAULT_ORDER,
    _composed_points,
    _kernel_point,
    _modulus,
    _require_order,
    compose,
    default_boundary_size,
    derivative,
    kernel,
    multiply,
    szego_kernel,
    unit_circle_points,
)
from .operators import (
    _finite,
    _naming_overflow,
    _weighted_columns,
    weighted_liouville_matrix,
)

DIVERGENCE_THRESHOLD = 1e3


# ---------------------------------------------------------------------------
# grids and profiles
# ---------------------------------------------------------------------------


def polar_grid(
    n_radii: int = 64, n_angles: int = 256, r_max: float = 0.995
) -> np.ndarray:
    """Polar sampling of the disk, shape ``(n_radii, n_angles)``, radii increasing."""
    if not 0.0 < r_max < 1.0:
        raise ValueError("r_max must lie in (0, 1)")
    radii = np.linspace(r_max / n_radii, r_max, n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return radii[:, None] * np.exp(1j * angles)[None, :]


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Per-radius maxima of a disk function, radii strictly increasing."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.array(self.radii, dtype=np.float64, copy=True).reshape(-1)
        values = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if radii.size != values.size or radii.size == 0:
            raise ValueError("radii and values must be nonempty and aligned")
        if radii.size > 1 and np.min(np.diff(radii)) <= 0:
            raise ValueError("radii must be strictly increasing")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class BoundednessResult:
    """Grid supremum of the growth expression plus a divergence verdict."""

    supremum: float
    diverges: bool
    profile: RadialProfile


@dataclass(frozen=True)
class SelfAdjointDefect:
    """Residuals of the self-adjointness constraints on a symbol pair."""

    symbol_residual: float
    kernel_defect: float


@dataclass(frozen=True)
class HsNormResult:
    """Squared Hilbert-Schmidt norm via both routes; ``finite`` is the verdict."""

    frobenius_sq: float
    quadrature_sq: float
    finite: bool


# ---------------------------------------------------------------------------
# kernel-level adjoint
# ---------------------------------------------------------------------------


def weighted_adjoint_on_kernel(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    w: complex,
    order: int = DEFAULT_ORDER,
) -> TaylorPolynomial:
    """Adjoint image of the evaluation kernel at ``w``.

    Equals ``conj(f(w) phi'(w))`` times the first-derivative kernel at
    ``phi(w)``, since ``<A g, K_w> = f(w) phi'(w) g'(phi(w))`` for every
    ``g`` in the space.  ``w`` and ``phi(w)`` must lie in ``|w| < 1``, and
    ``order`` must be at least 1, the order of the first-derivative kernel.
    """
    _require_order(order, 1)
    w = _kernel_point(w)
    pw = complex(_composed_points(phi, w))
    factor = np.conj(complex(f(w)) * complex(derivative(phi)(w)))
    return TaylorPolynomial(factor * kernel(pw, 1, order).coeffs)


def normalized_kernel_action_sq(
    f: TaylorPolynomial, phi: TaylorPolynomial, w: complex
) -> float:
    """Closed form ``||A* k_w||^2`` on the unit-norm kernel at ``w``.

    ``|f(w)|^2 |phi'(w)|^2 (1 - |w|^2) (1 + |phi(w)|^2) / (1 - |phi(w)|^2)^3``;
    note the squared modulus on ``f(w)`` -- certified against the
    conjugate-transpose oracle, which rules out the first-power variant.
    ``w`` and ``phi(w)`` obey the rule of :func:`weighted_adjoint_on_kernel`.
    """
    w = _kernel_point(w)
    pw = complex(_composed_points(phi, w))
    amp = abs(complex(f(w))) ** 2 * abs(complex(derivative(phi)(w))) ** 2
    return (
        amp
        * (1.0 - abs(w) ** 2)
        * (1.0 + abs(pw) ** 2)
        / (1.0 - abs(pw) ** 2) ** 3
    )


# ---------------------------------------------------------------------------
# self-adjointness constraints
# ---------------------------------------------------------------------------


def self_adjoint_symbol_relation(
    f: TaylorPolynomial, phi: TaylorPolynomial, order: int = DEFAULT_ORDER
) -> SelfAdjointDefect:
    """How far the pair ``(f, phi)`` is from generating a self-adjoint operator.

    ``symbol_residual`` is the max deviation, over the polar grid of 16
    radii up to 0.9 and 64 angles, of ``phi'(z) f(z)`` from the rational
    expression its origin data must generate when the operator is
    self-adjoint:

        ((z - conj(phi(0)) z^2) conj(phi'(0) f'(0) + f(0) phi''(0))
         + 2 z^2 conj(phi'(0) f(0))) / (1 - conj(phi(0)) z)^3.

    ``kernel_defect`` is the max over ``alpha`` in ``{0.3, -0.2 + 0.4i,
    0.5i}`` of ``||A K_alpha - A* K_alpha||`` with both sides in the
    truncated space.  ``order`` must be at least 1, as in
    :func:`weighted_adjoint_on_kernel`.
    """
    _require_order(order, 1)
    points = polar_grid(16, 64, 0.9).ravel()
    fpad = f.truncated(max(f.order, 1)).coeffs
    ppad = phi.truncated(max(phi.order, 2)).coeffs
    lhs = np.asarray(derivative(phi)(points)) * np.asarray(f(points))
    head = np.conj(ppad[1] * fpad[1] + fpad[0] * 2.0 * ppad[2])
    numerator = (points - np.conj(ppad[0]) * points**2) * head
    numerator += 2.0 * points**2 * np.conj(ppad[1] * fpad[0])
    rhs = numerator / (1.0 - np.conj(ppad[0]) * points) ** 3
    symbol_residual = float(np.max(np.abs(lhs - rhs)))

    matrix = weighted_liouville_matrix(f, phi, order)
    defect = 0.0
    for alpha in (0.3, -0.2 + 0.4j, 0.5j):
        k_alpha = szego_kernel(complex(alpha), order)
        forward = matrix.apply(k_alpha)
        backward = weighted_adjoint_on_kernel(f, phi, complex(alpha), order)
        defect = max(
            defect, float(np.linalg.norm(forward.coeffs - backward.coeffs))
        )
    return SelfAdjointDefect(symbol_residual=symbol_residual, kernel_defect=defect)


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------


def _growth_expression(
    f: TaylorPolynomial, phi: TaylorPolynomial, grid: np.ndarray
) -> np.ndarray:
    fv = np.abs(np.asarray(f(grid))) ** 2
    r2 = _modulus(_composed_points(phi, grid)) ** 2
    dv = np.asarray(derivative(phi)(grid))
    return (
        fv
        * np.abs(dv) ** 2
        * (1.0 - np.abs(grid) ** 2)
        * (1.0 + r2)
        / (1.0 - r2) ** 3
    )


def boundedness_bound(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    grid: np.ndarray | None = None,
) -> BoundednessResult:
    """Grid supremum of the growth expression with a radial divergence probe.

    ``diverges`` is set when the per-radius maxima still climb at the outer
    edge of the grid and have passed ``DIVERGENCE_THRESHOLD`` -- the
    numerical surrogate for an unbounded supremum.  An overflowing growth
    expression raises :class:`SymbolOverflowError` naming ``f``.
    """
    if grid is None:
        grid = polar_grid()
    if grid.ndim != 2:
        raise ValueError("grid must be a 2-d polar grid (radii x angles)")
    with _naming_overflow("f (with phi)", "the growth expression"):
        values = _finite(_growth_expression(f, phi, grid))
    per_radius = np.max(values, axis=1)
    radii = np.abs(grid[:, 0])
    profile = RadialProfile(radii=radii, values=per_radius)
    climbing = bool(
        per_radius.size >= 3
        and per_radius[-1] > per_radius[-2] > per_radius[-3]
    )
    diverges = bool(climbing and per_radius[-1] > DIVERGENCE_THRESHOLD)
    return BoundednessResult(
        supremum=float(np.max(values)), diverges=diverges, profile=profile
    )


# ---------------------------------------------------------------------------
# Blaschke symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with the classical normalization per factor.

    A zero ``a != 0`` contributes ``(|a|/a) (a - z)/(1 - conj(a) z)``; a zero
    at the origin contributes ``z``.  Unimodular on the circle by
    construction.  Each zero obeys the kernel-point rule ``|a| < 1``.
    """

    zeros: tuple

    def __post_init__(self):
        zs = tuple(_kernel_point(a, "Blaschke zero") for a in self.zeros)
        if not zs:
            raise ValueError("a Blaschke product needs at least one zero")
        object.__setattr__(self, "zeros", zs)

    def _factors(self, z: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.zeros),) + z.shape, dtype=np.complex128)
        for i, a in enumerate(self.zeros):
            if a == 0:
                out[i] = z
            else:
                out[i] = (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    def _factor_derivatives(self, z: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.zeros),) + z.shape, dtype=np.complex128)
        for i, a in enumerate(self.zeros):
            if a == 0:
                out[i] = 1.0
            else:
                out[i] = (abs(a) / a) * (abs(a) ** 2 - 1.0) / (
                    1.0 - np.conj(a) * z
                ) ** 2
        return out

    def __call__(self, z):
        zarr = np.asarray(z, dtype=np.complex128)
        result = np.prod(self._factors(zarr), axis=0)
        return complex(result) if result.shape == () else result

    def derivative(self, z):
        """Product-rule derivative, stable even where a factor vanishes."""
        zarr = np.asarray(z, dtype=np.complex128)
        factors = self._factors(zarr)
        primes = self._factor_derivatives(zarr)
        total = np.zeros(zarr.shape, dtype=np.complex128)
        for i in range(len(self.zeros)):
            rest = np.prod(np.delete(factors, i, axis=0), axis=0)
            total += primes[i] * rest
        return complex(total) if total.shape == () else total


def blaschke_ratio_profile(phi: BlaschkeProduct) -> RadialProfile:
    """Deviation of ``|phi'(w)| (1 - |w|^2) / (1 - |phi(w)|^2)`` from 1.

    The ratio tends to 1 at the boundary for finite Blaschke products; the
    profile records the max deviation over 256 angles at each of 12 radii
    from 0.9 to 0.999.
    """
    radii = np.linspace(0.9, 0.999, 12)
    grid = radii[:, None] * unit_circle_points(256)[None, :]
    ratio = (
        np.abs(phi.derivative(grid))
        * (1.0 - np.abs(grid) ** 2)
        / (1.0 - np.abs(phi(grid)) ** 2)
    )
    return RadialProfile(
        radii=radii, values=np.max(np.abs(ratio - 1.0), axis=1)
    )


# ---------------------------------------------------------------------------
# the Hilbert-Schmidt check
# ---------------------------------------------------------------------------


def hs_norm(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    order: int = DEFAULT_ORDER,
    size: int | None = None,
) -> HsNormResult:
    """Squared Hilbert-Schmidt norm via Frobenius sum and boundary quadrature.

    The quadrature integrand is ``|f|^2 |phi'|^2 (1+|phi|^2)/(1-|phi|^2)^3``.
    When ``|phi|`` reaches the circle the integral is infinite: the result
    carries ``finite=False`` and an infinite quadrature value while the
    Frobenius sum of the truncation stays finite.  A finite symbol whose
    squared Frobenius sum, boundary weight ``|f phi'|^2``, quadrature
    integrand or its mean overflows raises :class:`SymbolOverflowError`
    naming ``f``.  The Frobenius sum takes the columns of
    :func:`_weighted_columns` one at a time and never forms the (N+1)^2
    matrix; each column's square is its own ``vdot``, since a batched norm
    rounds differently.  At N = 1024 the columns take about 80% of the call
    (about 9.7 us each at deg phi = 2) and their ``vdot`` about 2 us each.
    ``order`` must be at least 0.
    """
    _require_order(order)
    column_sq = np.zeros(order + 1)
    for n, column in _weighted_columns(f, phi, order):
        column_sq[n] = np.vdot(column, column).real
    if size is None:
        size = default_boundary_size(max(order, f.order + phi.order))
    z = unit_circle_points(size)
    with np.errstate(over="ignore"):  # |phi| past sqrt(max float) is inf, silently
        r2 = _modulus(phi(z)) ** 2
    diverges = np.max(r2) >= 1.0
    quadrature_sq = math.inf
    with _naming_overflow("f (with phi)", f"the Hilbert-Schmidt norm at order {order}"):
        frobenius_sq = float(_finite(np.sum(column_sq)))
        base = np.abs(np.asarray(f(z)) * np.asarray(derivative(phi)(z))) ** 2
        _finite(base)
        if not diverges:
            # a finite weight still overflows where |phi| is near 1
            integrand = base * (1.0 + r2) / (1.0 - r2) ** 3
            quadrature_sq = float(_finite(np.mean(integrand)))
    return HsNormResult(
        frobenius_sq=frobenius_sq, quadrature_sq=quadrature_sq, finite=not diverges
    )


# ---------------------------------------------------------------------------
# occupation-kernel form of the self-adjoint identity
# ---------------------------------------------------------------------------


def occupation_self_adjoint_relation(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    trajectory: Trajectory,
    order: int = DEFAULT_ORDER,
    reading: str = "plain",
) -> float:
    """Residual of the endpoint identity for self-adjoint weighted operators.

    ``reading="plain"`` tests ``Gamma' * phi' * f = K_{phi(end)} - K_{phi(start)}``
    with the occupation-kernel derivative taken as-is; ``reading="composed"``
    first composes ``Gamma'`` with ``phi``.  The two readings coincide for
    ``phi = z``; both residuals are worth recording when probing a general
    self-adjoint pair.  ``phi`` must keep the samples in ``|w| < 1``.
    """
    _composed_points(phi, trajectory.points)
    gamma = occupation_kernel(trajectory, order).series
    dgamma = derivative(gamma).truncated(order)
    if reading == "composed":
        dgamma = compose(dgamma, phi, order)
    elif reading != "plain":
        raise ValueError("reading must be 'plain' or 'composed'")
    weight = multiply(f, derivative(phi), order)
    lhs = multiply(dgamma, weight, order)
    rhs = endpoint_kernel_difference(trajectory, order, phi)
    return _defect_norm(lhs.coeffs - rhs.coeffs)
