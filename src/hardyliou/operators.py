"""Truncated Liouville-type operators and their adjoints.

``A_f g = f * g'`` acts on the truncated Hardy space through its matrix in
the monomial basis: column ``n`` holds the coefficients of ``n * f * z^(n-1)``
cut at the truncation order.  The weighted variant ``A_{f,phi} g =
f * phi' * (g' o phi)`` has column ``n`` equal to
``n * f * phi' * phi^(n-1)``.

Two independent adjoint routes are kept side by side on purpose: the
conjugate transpose of the truncated matrix (the oracle) and the boundary
formula.  Tests certify that they agree, which is what makes the closed-form
kernel identities in the rest of the package trustworthy.  On the hot paths
the conjugate transpose is applied as a banded stencil
(:func:`liouville_adjoint_apply`), and the weighted columns come one at a
time from the recurrence ``q_(n+1) = trunc(q_n * phi)``
(``_weighted_columns``), which the Hilbert-Schmidt sum and the weighted
occupation adjoint consume in O(N) memory.  The dense matrices stay as
their oracles.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompositionWarning,
    DiskDomainError,
    HardyliouError,
    InvalidIndexError,
    SymbolOverflowError,
)
from .series import (
    BoundaryGrid,
    KernelSpec,
    TaylorPolynomial,
    DEFAULT_ORDER,
    default_boundary_size,
    derivative,
    kernel,
    outer_from_modulus,
    project_h2,
    require_grid,
    to_boundary,
    unit_circle_points,
)

# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of a truncated operator in the monomial basis.

    ``entries[m, n]`` is the coefficient of ``z^m`` in the image of ``z^n``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return self.entries.shape[0] - 1

    def apply(self, h: TaylorPolynomial) -> TaylorPolynomial:
        """Matrix-vector action on a series cut to the matrix order."""
        vec = h.truncated(self.order).coeffs
        return TaylorPolynomial(self.entries @ vec)


@contextlib.contextmanager
def _naming_overflow(symbols: str, what: str):
    # a finite symbol can still overflow to inf/nan; the ValueError a value
    # type or _finite then raises names the symbol (library errors pass)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except HardyliouError:
        raise
    except ValueError as exc:
        raise SymbolOverflowError(
            f"symbol {symbols} overflows {what}; its values must be finite"
        ) from exc


def _finite(values):
    """``values`` itself; raises ValueError when one of them is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def _diagonals(f: TaylorPolynomial, order: int):
    """The nonzero diagonals of the truncated ``g -> f * g'`` pattern.

    Yields ``(k, n)``: column ``n`` (an int array) carries ``f_k`` times its
    column factor on row ``n - 1 + k``.  Taps ``k > order`` never reach a
    row of the truncation.
    """
    for k in range(min(f.order, order) + 1):
        yield k, np.arange(1, min(order, order + 1 - k) + 1)


def liouville_matrix(f: TaylorPolynomial, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Matrix of ``g -> f * g'``: column ``n`` is ``n * f`` shifted by ``n-1``."""
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    with _naming_overflow("f", f"the liouville matrix at order {order}"):
        for k, n in _diagonals(f, order):
            entries[n - 1 + k, n] = n * f.coeffs[k]
        return OperatorMatrix(entries)


def scaled_liouville_matrix(
    f: TaylorPolynomial, a: complex, order: int = DEFAULT_ORDER
) -> OperatorMatrix:
    """Matrix of ``g -> a * f * g'(a z)``: column ``n`` is ``n a^n f`` shifted.

    Same operator as the weighted construction with ``phi = a z``; built
    directly so the two routes can be cross-checked column by column.
    """
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    a = complex(a)
    # a^n by repeated scalar multiplication, so every entry keeps its rounding
    scale = np.zeros(order + 1, dtype=np.complex128)
    power = a
    for n in range(1, order + 1):
        scale[n] = n * power
        power *= a
    with _naming_overflow("f", f"the scaled matrix at order {order}"):
        for k, n in _diagonals(f, order):
            entries[n - 1 + k, n] = scale[n] * f.coeffs[k]
        return OperatorMatrix(entries)


def _weighted_columns(f: TaylorPolynomial, phi: TaylorPolynomial, order: int):
    """Columns of :func:`weighted_liouville_matrix`, one at a time.

    Yields ``(n, n * q_n)`` for ``n = 1 .. order``, where
    ``q_1 = trunc(f * phi')`` and ``q_(n+1) = trunc(q_n * phi)``.  The step
    is exact in real arithmetic: ``phi`` has no negative powers, so
    ``trunc(trunc(P) * phi) = trunc(P * phi)``.  Each step is ``deg phi + 1``
    shifted multiply-adds on one length-``order + 1`` buffer: all columns
    take O(N^2 deg phi) time and O(N) memory.  Warns for the caller of the
    consumer when ``phi(0)`` leaves the disk; a non-finite column raises
    :class:`SymbolOverflowError` naming ``phi``.
    """
    if abs(phi(0.0)) >= 1.0:
        warnings.warn(
            "phi(0) lies outside the open unit disk; composition leaves the "
            "Hardy space",
            CompositionWarning,
            stacklevel=3,
        )
    where = f"the weighted matrix at order {order}"
    taps = phi.coeffs[: order + 1]
    q = np.zeros(order + 1, dtype=np.complex128)
    with _naming_overflow("phi (with f)", where):
        weight = np.convolve(f.coeffs, derivative(phi).coeffs)[: order + 1]
        q[: weight.size] = _finite(weight)
    for n in range(1, order + 1):
        # an overflowing step leaves inf/nan in q, caught by the next column
        with _naming_overflow("phi (with f)", where):
            column = _finite(n * q)
            step = taps[0] * q
            for j in range(1, taps.size):
                step[j:] += taps[j] * q[: q.size - j]
        yield n, column
        q = step


def weighted_liouville_matrix(
    f: TaylorPolynomial, phi: TaylorPolynomial, order: int = DEFAULT_ORDER
) -> OperatorMatrix:
    """Matrix of ``g -> f * phi' * (g' o phi)``.

    Column ``n`` is the truncation of ``n * f * phi' * phi^(n-1)``, filled
    from :func:`_weighted_columns`.  The hot paths consume those columns
    without forming this matrix; it stays as their oracle.
    """
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    for n, column in _weighted_columns(f, phi, order):
        entries[:, n] = column
    return OperatorMatrix(entries)


def adjoint_matrix(matrix: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose; the adjoint oracle for every identity here."""
    return OperatorMatrix(matrix.entries.conj().T)


def liouville_adjoint_apply(
    f: TaylorPolynomial, h: TaylorPolynomial, order: int = DEFAULT_ORDER
) -> TaylorPolynomial:
    """Adjoint action ``A_f* h`` of the truncated matrix, without forming it.

    Column ``n`` of :func:`liouville_matrix` lives on rows ``n-1 .. n-1+deg f``,
    so the conjugate transpose is the correlation
    ``(A_f* h)_n = n * sum_k conj(f_k) h_(n-1+k)``: O(N deg f) work.  ``h``
    is cut to ``order`` like :meth:`OperatorMatrix.apply` does.  Each term
    uses the matrix entry ``n * f_k`` itself, so the result is non-finite
    (and raises :class:`SymbolOverflowError`) whenever the matrix would be.
    """
    hv = h.truncated(order).coeffs
    out = np.zeros(order + 1, dtype=np.complex128)
    with _naming_overflow("f", f"the liouville matrix at order {order}"):
        for k, n in _diagonals(f, order):
            out[n] += np.conj(n * f.coeffs[k]) * hv[n - 1 + k]
        return TaylorPolynomial(out)


def hermitian_defect(matrix: OperatorMatrix) -> float:
    """Largest entrywise deviation from self-adjointness, ``max|A - A*|``."""
    return float(np.max(np.abs(matrix.entries - matrix.entries.conj().T)))


# ---------------------------------------------------------------------------
# boundary route for the plain adjoint
# ---------------------------------------------------------------------------


def adjoint_apply_boundary(
    f: TaylorPolynomial,
    h: TaylorPolynomial,
    order: int = DEFAULT_ORDER,
    size: int | None = None,
) -> TaylorPolynomial:
    """Adjoint action computed on the circle instead of through the matrix.

    On ``|z| = 1`` the adjoint is the analytic projection of
    ``conj(f(z)/z) * (z h(z))' - conj(f'(z)) * h(z)``, and
    ``conj(f(z)/z) = conj(f(z)) * z`` there.  All factors are trigonometric
    polynomials, so with ``size >= 4 * (order + 1)`` the projection onto
    modes ``0..order`` is exact up to rounding.  ``h`` and ``h'`` are
    sampled by FFT; ``f`` and ``f'`` by Horner, so a symbol of any degree
    needs no larger grid.
    """
    if h.order > order:
        raise ValueError("h must have order at most the truncation order")
    if size is None:
        size = default_boundary_size(order)
    require_grid(size, 4 * (order + 1), f"the adjoint route at order {order}")
    z = unit_circle_points(size)
    with _naming_overflow("f", f"the boundary adjoint route at order {order}"):
        fv = f(z)
        fpv = derivative(f)(z)
        hv = to_boundary(h, size).values
        hpv = to_boundary(derivative(h), size).values
        combo = np.conj(fv) * z * (hv + z * hpv) - np.conj(fpv) * hv
        return project_h2(BoundaryGrid(combo), order)


def adjoint_battery(
    order: int,
    size: int,
    cases: int,
    seed: int,
    f: TaylorPolynomial | None = None,
) -> float:
    """Largest gap between the two adjoint routes over a seeded battery.

    Each case compares the conjugate transpose of the truncated matrix,
    applied as the stencil :func:`liouville_adjoint_apply`, with
    :func:`adjoint_apply_boundary` on a random ``h`` whose coefficients
    decay geometrically with a ratio drawn from ``[0.2, 0.8]``.  Without a
    fixed ``f`` every case also draws a symbol of random degree 1..8 with
    standard normal complex coefficients.
    """
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
        transpose = liouville_adjoint_apply(symbol, h, order)
        boundary = adjoint_apply_boundary(symbol, h, order, size)
        worst = max(worst, float(np.linalg.norm(transpose.coeffs - boundary.coeffs)))
    return worst


def adjoint_on_derivative_kernel(
    f: TaylorPolynomial,
    w: complex,
    j: int,
    order: int = DEFAULT_ORDER,
    leibniz: bool = True,
) -> TaylorPolynomial:
    """Closed-form adjoint action on the ``(j-1)``-th derivative kernel.

    Returns ``sum_{l=0}^{j-1} B(l) * conj(f^(l)(w)) * kernel(w, j-l)`` where
    ``B(l)`` is the binomial ``C(j-1, l)`` for the default Leibniz weighting
    and ``1`` otherwise.  Differentiating the product ``f * h'`` requires the
    binomial weights, and the conjugate-transpose oracle confirms it: the two
    variants first differ at ``j = 3``, where only the weighted one matches.
    The unweighted variant is kept for comparison.
    """
    if j < 1:
        raise InvalidIndexError("j must be at least 1")
    if abs(complex(w)) >= 1.0:
        raise DiskDomainError("the kernel point must lie inside the unit disk")
    result = np.zeros(order + 1, dtype=np.complex128)
    deriv = f
    for ell in range(j):
        weight = np.conj(deriv(w))
        if leibniz:
            weight *= math.comb(j - 1, ell)
        result += weight * kernel(KernelSpec(point=w, order=j - ell), order).coeffs
        deriv = derivative(deriv)
    return TaylorPolynomial(result)


# ---------------------------------------------------------------------------
# bounded-quotient decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmirnovPair:
    """Quotient representation ``f = b / a`` with ``a`` outer.

    ``normalized`` records whether ``|a|^2 + |b|^2 = 1`` held on the boundary
    grid (within 1e-10) when the pair was built.
    """

    a: TaylorPolynomial
    b: TaylorPolynomial
    normalized: bool

    def __post_init__(self):
        a0 = self.a.coeffs[0]
        if not (a0.real > 0 and abs(a0.imag) <= 1e-12 * a0.real):
            raise ValueError("the outer factor must satisfy a(0) real positive")


def smirnov_decompose(f_boundary: BoundaryGrid, order: int) -> SmirnovPair:
    """Canonical pair ``(a, b)`` for boundary samples of a bounded symbol.

    ``a`` is the outer function with modulus ``(1 + |f|^2)^(-1/2)`` and
    ``b`` is the analytic projection of ``f * a``.
    """
    fv = f_boundary.values
    with _naming_overflow("f", "the modulus (1 + |f|^2)^(-1/2)"):
        modulus = 1.0 / np.sqrt(_finite(1.0 + np.abs(fv) ** 2))
    a = outer_from_modulus(BoundaryGrid(modulus), order)
    av = np.asarray(a(unit_circle_points(f_boundary.size)))
    b = project_h2(BoundaryGrid(fv * av), order)
    defect = modulus_identity_defect(a, b, f_boundary.size)
    return SmirnovPair(a=a, b=b, normalized=bool(defect <= 1e-10))


def modulus_identity_defect(
    a: TaylorPolynomial, b: TaylorPolynomial, size: int
) -> float:
    """Max boundary deviation ``| |a|^2 + |b|^2 - 1 |`` on the ``size``-grid."""
    z = unit_circle_points(size)
    av = np.asarray(a(z))
    bv = np.asarray(b(z))
    return float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)))
