"""Truncated power-series arithmetic on the Hardy space of the unit disk.

Analytic functions with square-summable Taylor coefficients are represented
by truncated coefficient vectors.  The inner product is the coefficient sum
``<g, h> = sum_n g_n * conj(h_n)``, so the monomials are an orthonormal
basis and the norm of a truncation is the Euclidean norm of its
coefficients.

Conventions used throughout the package:

* every operation takes an explicit truncation order ``N`` (the default is
  ``DEFAULT_ORDER``) and returns a new immutable value;
* boundary sampling uses ``M`` uniform points on the circle with
  ``M >= 2N + 2`` so that projection back onto the first ``N + 1``
  nonnegative Fourier modes is alias-free;
* truncation error is controlled through the tail helpers
  (:func:`geometric_tail`, :func:`kernel_tail`) rather than magic numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    DiskDomainError,
    InvalidKernelSpecError,
    LogDomainError,
    SingularSymbolError,
)

DEFAULT_ORDER = 64


def default_boundary_size(order: int) -> int:
    """Smallest power of two with at least ``4 * (order + 1)`` samples."""
    size = 1
    while size < 4 * (order + 1):
        size *= 2
    return size


def unit_circle_points(size: int) -> np.ndarray:
    """The ``size`` uniform samples ``exp(2i*pi*m/size)`` of the circle."""
    return np.exp(2j * np.pi * np.arange(size) / size)


def require_grid(size: int, minimum: int, what: str) -> None:
    """Raise :class:`AliasingError` when ``size`` samples cannot resolve ``what``."""
    if size < minimum:
        raise AliasingError(
            f"grid of {size} points cannot resolve {what}; need at least {minimum}"
        )


def complex_pairs(values) -> list:
    """JSON form of complex values: each becomes ``[re, im]``, shape kept."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorPolynomial:
    """Truncated series ``sum_{n<=N} c_n z^n`` with finite coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a TaylorPolynomial needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """Evaluate by Horner's rule; accepts scalars or arrays."""
        zarr = np.asarray(z, dtype=np.complex128)
        out = np.full(zarr.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * zarr + c
        return complex(out) if out.shape == () else out

    def truncated(self, order: int) -> "TaylorPolynomial":
        """Coefficients re-cut to ``order`` (zero padded when extending)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        out = np.zeros(order + 1, dtype=np.complex128)
        keep = min(order, self.order) + 1
        out[:keep] = self.coeffs[:keep]
        return TaylorPolynomial(out)

    def __add__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=np.complex128)
        out[: self.coeffs.size] += self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return TaylorPolynomial(out)

    def __sub__(self, other: "TaylorPolynomial") -> "TaylorPolynomial":
        return self + (-other)

    def __neg__(self) -> "TaylorPolynomial":
        return TaylorPolynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, TaylorPolynomial):
            return TaylorPolynomial(np.convolve(self.coeffs, other.coeffs))
        return TaylorPolynomial(self.coeffs * complex(other))

    __rmul__ = __mul__


def monomial(degree: int, order: int | None = None) -> TaylorPolynomial:
    """The monomial ``z**degree``, optionally padded to ``order``."""
    size = (degree if order is None else order) + 1
    if degree >= size:
        raise ValueError("order too small for the requested degree")
    out = np.zeros(size, dtype=np.complex128)
    out[degree] = 1.0
    return TaylorPolynomial(out)


@dataclass(frozen=True)
class BoundaryGrid:
    """Samples of a circle function at the uniform angles ``2*pi*m/M``."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a BoundaryGrid needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class KernelSpec:
    """A point-evaluation kernel: point ``w``, derivative order ``j``."""

    point: complex
    order: int = 0


# ---------------------------------------------------------------------------
# inner product and kernels
# ---------------------------------------------------------------------------


def inner_product(g: TaylorPolynomial, h: TaylorPolynomial) -> complex:
    """Coefficient inner product ``sum g_n conj(h_n)``; shorter side padded."""
    n = min(g.coeffs.size, h.coeffs.size)
    return complex(np.sum(g.coeffs[:n] * np.conj(h.coeffs[:n])))


def norm(g: TaylorPolynomial) -> float:
    """Hardy-space norm of the truncation (Euclidean coefficient norm)."""
    return float(np.linalg.norm(g.coeffs))


def kernel(spec: KernelSpec, order: int = DEFAULT_ORDER) -> TaylorPolynomial:
    """Truncated point-evaluation kernel for ``<h, kernel> = h^(j)(w)``.

    The ``j``-th derivative kernel has coefficients
    ``n!/(n-j)! * conj(w)^(n-j)`` for ``n >= j``; ``j = 0`` is the geometric
    kernel ``1/(1 - conj(w) z)``.
    """
    w = complex(spec.point)
    j = int(spec.order)
    if abs(w) >= 1.0:
        raise DiskDomainError(f"kernel point must satisfy |w| < 1, got |w| = {abs(w)}")
    if j < 0:
        raise InvalidKernelSpecError("derivative order must be nonnegative")
    if j > order:
        raise InvalidKernelSpecError(
            f"derivative order {j} exceeds truncation order {order}"
        )
    n = np.arange(order + 1)
    wbar = np.conj(w)
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    if j == 0:
        coeffs[:] = wbar ** n
    else:
        falling = np.ones(order + 1 - j)
        for i in range(j):
            falling *= n[j:] - i
        coeffs[j:] = falling * wbar ** (n[j:] - j)
    return TaylorPolynomial(coeffs)


def szego_kernel(w: complex, order: int = DEFAULT_ORDER) -> TaylorPolynomial:
    """Geometric evaluation kernel at ``w`` (see :func:`kernel`)."""
    return kernel(KernelSpec(point=w, order=0), order)


def derivative_kernel(
    w: complex, order: int = DEFAULT_ORDER
) -> tuple[TaylorPolynomial, float]:
    """First-derivative kernel ``sum n conj(w)^(n-1) z^n`` and its norm^2.

    The squared norm has the closed form ``(1 + |w|^2) / (1 - |w|^2)^3``.
    """
    series = kernel(KernelSpec(point=w, order=1), order)
    r2 = abs(complex(w)) ** 2
    norm_sq = (1.0 + r2) / (1.0 - r2) ** 3
    return series, norm_sq


# ---------------------------------------------------------------------------
# series algebra
# ---------------------------------------------------------------------------


def multiply(
    g: TaylorPolynomial, h: TaylorPolynomial, order: int | None = None
) -> TaylorPolynomial:
    """Product truncated at ``order`` (exact when ``order`` is None)."""
    prod = np.convolve(g.coeffs, h.coeffs)
    if order is not None:
        prod = prod[: order + 1] if prod.size > order + 1 else np.pad(
            prod, (0, order + 1 - prod.size)
        )
    return TaylorPolynomial(prod)


def derivative(g: TaylorPolynomial) -> TaylorPolynomial:
    """Term-by-term derivative; the constant maps to the zero series."""
    if g.order == 0:
        return TaylorPolynomial([0.0])
    return TaylorPolynomial(g.coeffs[1:] * np.arange(1, g.coeffs.size))


def antiderivative(h: TaylorPolynomial) -> TaylorPolynomial:
    """Primitive vanishing at 0: ``c_n -> c_n/(n+1)`` shifted up one slot.

    Never increases the norm: the shift is isometric and each coefficient
    is divided by ``n + 1 >= 1``.
    """
    out = np.zeros(h.coeffs.size + 1, dtype=np.complex128)
    out[1:] = h.coeffs / np.arange(1, h.coeffs.size + 1)
    return TaylorPolynomial(out)


def reciprocal(g: TaylorPolynomial, order: int) -> TaylorPolynomial:
    """Multiplicative inverse mod ``z^(order+1)``; needs ``g(0) != 0``."""
    c = g.coeffs
    if c[0] == 0:
        raise SingularSymbolError("reciprocal requires a nonzero constant term")
    inv = np.zeros(order + 1, dtype=np.complex128)
    inv[0] = 1.0 / c[0]
    for n in range(1, order + 1):
        top = min(n, c.size - 1)
        acc = np.dot(c[1 : top + 1], inv[n - top : n][::-1]) if top else 0.0
        inv[n] = -acc / c[0]
    return TaylorPolynomial(inv)


def exp_series(g: TaylorPolynomial, order: int) -> TaylorPolynomial:
    """Exponential mod ``z^(order+1)`` via ``(e^g)' = g' e^g``."""
    kc = np.arange(g.coeffs.size) * g.coeffs
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = np.exp(g.coeffs[0])
    for n in range(1, order + 1):
        top = min(n, kc.size - 1)
        acc = np.dot(kc[1 : top + 1], out[n - top : n][::-1]) if top else 0.0
        out[n] = acc / n
    return TaylorPolynomial(out)


def compose(
    g: TaylorPolynomial, h: TaylorPolynomial, order: int
) -> TaylorPolynomial:
    """Polynomial composition ``g(h(z))`` truncated at ``order`` (Horner)."""
    result = TaylorPolynomial(np.array([g.coeffs[-1]]))
    for c in g.coeffs[-2::-1]:
        result = multiply(result, h, order)
        base = np.zeros(result.coeffs.size, dtype=np.complex128)
        base[0] = c
        result = TaylorPolynomial(result.coeffs + base)
    return result.truncated(order)


# ---------------------------------------------------------------------------
# boundary sampling, projection, outer functions
# ---------------------------------------------------------------------------


def to_boundary(g: TaylorPolynomial, size: int | None = None) -> BoundaryGrid:
    """Values of ``g`` on the uniform circle grid (alias-free sampling)."""
    if size is None:
        size = default_boundary_size(g.order)
    require_grid(size, 2 * g.order + 2, f"order {g.order}")
    padded = np.zeros(size, dtype=np.complex128)
    padded[: g.coeffs.size] = g.coeffs
    return BoundaryGrid(np.fft.ifft(padded) * size)


def project_h2(grid: BoundaryGrid, order: int) -> TaylorPolynomial:
    """Keep Fourier modes ``0..order``; negative modes are discarded."""
    require_grid(grid.size, 2 * order + 2, f"order {order}")
    modes = np.fft.fft(grid.values) / grid.size
    return TaylorPolynomial(modes[: order + 1])


def outer_from_modulus(grid: BoundaryGrid, order: int) -> TaylorPolynomial:
    """Outer function with the prescribed boundary modulus.

    For strictly positive samples ``m`` this is
    ``G = exp(c_0 + 2 * sum_{n>=1} c_n z^n)`` where ``c_n`` are the Fourier
    coefficients of ``log m``; then ``|G| = m`` on the circle and ``G(0)``
    equals ``exp(mean log m) > 0``.
    """
    vals = grid.values
    scale = float(np.max(np.abs(vals))) or 1.0
    if np.any(vals.real <= 0) or np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise LogDomainError("boundary modulus must be strictly positive")
    require_grid(grid.size, 2 * order + 2, f"order {order}")
    chat = np.fft.fft(np.log(vals.real)) / grid.size
    g = np.zeros(order + 1, dtype=np.complex128)
    g[0] = chat[0]
    g[1:] = 2.0 * chat[1 : order + 1]
    return exp_series(TaylorPolynomial(g), order)


# ---------------------------------------------------------------------------
# tail tolerances
# ---------------------------------------------------------------------------


def geometric_tail(lead: float, ratio: float, order: int) -> float:
    """Bound on ``sum_{n > order} lead * ratio^n`` for ``0 <= ratio < 1``."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    return lead * ratio ** (order + 1) / (1.0 - ratio)


def kernel_tail(g_norm: float, radius: float, order: int) -> float:
    """Cauchy-Schwarz bound on ``|sum_{n > order} g_n w^n|`` at ``|w| = radius``."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return g_norm * radius ** (order + 1) / math.sqrt(1.0 - radius * radius)
