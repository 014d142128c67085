"""Truncated Liouville-type operators and their adjoints.

``A_f g = f * g'`` acts on the truncated Hardy space through its matrix in
the monomial basis: column ``n`` holds the coefficients of ``n * f * z^(n-1)``
cut at the truncation order.  The weighted variant ``A_{f,phi} g =
f * phi' * (g' o phi)`` has column ``n`` equal to
``n * f * phi' * phi^(n-1)``.

Two independent adjoint routes are kept side by side on purpose: the
conjugate transpose of the truncated matrix (the oracle), applied as a
banded stencil, and the boundary formula.  :func:`adjoint_battery` certifies
that they agree, which is what makes the closed-form kernel identities in
the rest of the package trustworthy; it runs its cases in chunks, one
stencil update per diagonal and one FFT per step for the whole chunk, and
each public route is the one-row call of that code.  The weighted columns
come in blocks of about 512 KiB from ``q_(n+1) = trunc(q_n * phi)``
(``_weighted_columns``), which the Hilbert-Schmidt sum and the weighted
occupation adjoint consume a column at a time without the (N+1)^2 matrix.
The dense matrices stay as their oracles.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompositionWarning,
    HardyliouError,
    InvalidIndexError,
    SymbolOverflowError,
)
from .series import (
    BoundaryGrid,
    TaylorPolynomial,
    DEFAULT_ORDER,
    _kernel_point,
    _require_order,
    default_boundary_size,
    derivative,
    kernel,
    outer_from_modulus,
    project_h2,
    require_grid,
    unit_circle_points,
)

# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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


def _rescue_norms(norms: np.ndarray, image: np.ndarray) -> None:
    """Take again, scaled by a power of two (exact), each inf in ``norms``
    (the 2-norms of ``image``'s columns) whose column is finite: only the
    squares of such a column overflowed.  The scale is read off the largest
    part, finite where a modulus may not be."""
    for k in np.flatnonzero(np.isinf(norms)):
        column = image[:, k]
        if np.isfinite(column).all():
            top = max(np.max(np.abs(column.real)), np.max(np.abs(column.imag)))
            scale = 2.0 ** -float(np.frexp(top)[1])
            norms[k] = float(np.linalg.norm(column * scale)) / scale


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``rows``, with no overflow warning:
    a finite row whose squares overflow is rescued (:func:`_rescue_norms`)."""
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(row) for row in rows])
    _rescue_norms(norms, rows.T)
    return norms


def _diagonals(degree: int, order: int):
    """The nonzero diagonals of the truncated ``g -> f * g'`` pattern.

    Yields ``(k, n)`` for the taps ``k <= degree`` that reach a row: column
    ``n`` (an int array) carries ``f_k`` times its column factor on row ``n - 1 + k``.
    """
    for k in range(min(degree, order) + 1):
        yield k, np.arange(1, min(order, order + 1 - k) + 1)


def _shifted_columns(f: TaylorPolynomial, scale, order: int, what: str) -> OperatorMatrix:
    """The matrix whose column ``n`` is ``scale[n] * f`` shifted by ``n-1``."""
    entries = np.zeros((order + 1, order + 1), dtype=np.complex128)
    with _naming_overflow("f", f"{what} at order {order}"):
        for k, n in _diagonals(f.order, order):
            entries[n - 1 + k, n] = scale[n] * f.coeffs[k]
        return OperatorMatrix(entries)


def liouville_matrix(f: TaylorPolynomial, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Matrix of ``g -> f * g'``: column ``n`` is ``n * f`` shifted by ``n-1``; ``order >= 0``."""
    _require_order(order)
    return _shifted_columns(f, np.arange(order + 1), order, "the liouville matrix")


def scaled_liouville_matrix(
    f: TaylorPolynomial, a: complex, order: int = DEFAULT_ORDER
) -> OperatorMatrix:
    """Matrix of ``g -> a * f * g'(a z)``: column ``n`` is ``n a^n f`` shifted.

    Same operator as the weighted construction with ``phi = a z``; built
    directly so the two routes can be cross-checked column by column.
    ``order`` must be at least 0, as for every builder here.
    """
    _require_order(order)
    a = complex(a)
    # a^n by repeated scalar multiplication, so every entry keeps its rounding
    scale = np.zeros(order + 1, dtype=np.complex128)
    power = a
    for n in range(1, order + 1):
        scale[n] = n * power
        power *= a
    return _shifted_columns(f, scale, order, "the scaled matrix")


# bytes of columns per overflow scope of _weighted_columns: 31 columns at
# N = 1024 and all of them up to N = 180, so entering the scope is not a
# per-column cost
_COLUMN_BLOCK_BYTES = 512 * 1024
# bytes of one (cases x M) array of adjoint_battery: 1 case at N = 1024, 7 at N = 128
_CASE_CHUNK_BYTES = 64 * 1024
# the top degree of the battery's random symbols, whose grid must suit it
_RANDOM_SYMBOL_DEGREE = 8


def _weighted_columns(f: TaylorPolynomial, phi: TaylorPolynomial, order: int):
    """Columns of :func:`weighted_liouville_matrix`, in blocks.

    Yields ``(n, n * q_n)`` for ``n = 1 .. order``, where
    ``q_1 = trunc(f * phi')`` and ``q_(n+1) = trunc(q_n * phi)``.  The step
    is exact in real arithmetic: ``phi`` has no negative powers, so
    ``trunc(trunc(P) * phi) = trunc(P * phi)``.  Each step is ``deg phi + 1``
    shifted multiply-adds on one length-``order + 1`` buffer: all columns
    take O(N^2 deg phi) time.  A block of about ``_COLUMN_BLOCK_BYTES`` of
    columns is computed in one overflow scope and checked at once, then
    yielded outside it; each block is a new array, so a kept column is never
    overwritten.  Warns for the caller of the consumer when ``phi(0)`` leaves
    the disk; a non-finite column raises :class:`SymbolOverflowError` naming
    ``phi``.
    """
    if abs(phi.coeffs[0]) >= 1.0:  # phi(0), with no product to overflow
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
    width = max(1, _COLUMN_BLOCK_BYTES // q.nbytes)
    for first in range(1, order + 1, width):
        count = min(width, order + 1 - first)
        block = np.empty((count, order + 1), dtype=np.complex128)
        # an overflowing step leaves inf/nan in q, so in the next column,
        # which the check of its block catches
        with _naming_overflow("phi (with f)", where):
            for i, column in enumerate(block):
                np.multiply(first + i, q, out=column)
                step = taps[0] * q
                for j in range(1, taps.size):
                    step[j:] += taps[j] * q[: q.size - j]
                q = step
            _finite(block)
        for i, column in enumerate(block):
            yield first + i, column


def weighted_liouville_matrix(
    f: TaylorPolynomial, phi: TaylorPolynomial, order: int = DEFAULT_ORDER
) -> OperatorMatrix:
    """Matrix of ``g -> f * phi' * (g' o phi)``.

    Column ``n`` is the truncation of ``n * f * phi' * phi^(n-1)``, filled
    from :func:`_weighted_columns`.  The hot paths consume those columns
    without forming this matrix; it stays as their oracle.
    """
    _require_order(order)
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
    out = _stencil_rows(f.coeffs[None], h.truncated(order).coeffs[None], order)
    with _naming_overflow("f", f"the liouville matrix at order {order}"):
        return TaylorPolynomial(out[0])


def _stencil_rows(coeffs: np.ndarray, rows: np.ndarray, order: int) -> np.ndarray:
    """The stencil on each row, a diagonal at a time; ``f`` shared or one per row."""
    out = np.zeros(rows.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in _diagonals(coeffs.shape[1] - 1, order):  # n runs 1..n.size
            out[:, 1 : n.size + 1] += np.conj(n * coeffs[:, k, None]) * rows[:, k : k + n.size]
    return out


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
    polynomials, and the integrand's modes run from ``1 - deg f`` to
    ``order + 1``, so with ``size >= max(4 * (order + 1), order + deg f)``
    (:func:`_boundary_floor`, where ``deg f`` is ``f.order``) none of them
    aliases into modes ``0..order`` and the projection is exact up to
    rounding; a smaller ``size`` raises :class:`AliasingError`, and without
    one the grid is the smallest power of two that meets the floor.  ``h``
    and ``h'`` are sampled by FFT; ``f`` and ``f'`` by Horner.
    """
    _require_order(order)
    if h.order > order:
        raise ValueError("h must have order at most the truncation order")
    if size is None:
        size = default_boundary_size(order)
        while size < _boundary_floor(order, f.order):
            size *= 2
    z = unit_circle_points(size)
    rows = h.truncated(order).coeffs[None]
    modes = _boundary_rows(rows, *_symbol_on_circle(f, z), z, f.order)
    with _naming_overflow("f", f"the boundary adjoint route at order {order}"):
        return TaylorPolynomial(modes[0])


def _symbol_on_circle(f: TaylorPolynomial, z: np.ndarray):
    """The boundary route's factors ``conj(f(z)) * z`` and ``conj(f'(z))``, by Horner."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.conj(f(z)) * z, np.conj(derivative(f)(z))
        except ValueError:  # f' overflows: NaN, which the route reports
            return np.conj(f(z)) * z, np.full(z.shape, np.nan + 0j)


def _boundary_floor(order: int, degree: int) -> int:
    """Fewest grid points for the boundary route at ``order`` with a symbol
    of ``degree``: its integrand's modes ``1 - degree .. -1`` alias into
    ``0..order`` on a grid of fewer than ``order + degree`` points."""
    return max(4 * (order + 1), order + degree)


def _boundary_rows(rows: np.ndarray, fz, dfz, z: np.ndarray, degree: int) -> np.ndarray:
    """The boundary route's modes for each row, with the factors of
    :func:`_symbol_on_circle` (of symbols up to ``degree``) in one row for
    all or one row each.  NumPy transforms a 2-D array row by row, so each
    row keeps its bytes."""
    size, order = z.size, rows.shape[1] - 1
    require_grid(
        size,
        _boundary_floor(order, degree),
        f"the adjoint route at order {order} with a symbol of degree {degree}",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        hv = np.fft.ifft(rows, size) * size  # h and h' zero padded to the grid
        combo = np.fft.ifft(rows[:, 1:] * np.arange(1, order + 1), size) * size
        np.multiply(z, combo, out=combo)  # fz * (hv + z * combo) - dfz * hv
        np.multiply(fz, np.add(hv, combo, out=combo), out=combo)
        np.subtract(combo, np.multiply(dfz, hv, out=hv), out=combo)
        return np.fft.fft(combo)[:, : order + 1] / size


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
    standard normal complex coefficients, and the grid must suit degree 8
    (:func:`_boundary_floor`).  Each route runs once per chunk of cases,
    with the bytes it gives each case alone; the first case where a route
    is not finite names it, the transpose first.  A gap whose squares
    overflow keeps a finite norm (:func:`_row_norms`).
    """
    _require_order(order)
    if cases < 1:
        raise InvalidIndexError(f"cases must be at least 1, got {cases}")
    rng, z = np.random.default_rng(seed), unit_circle_points(size)
    if f is not None:
        coeffs, (fz, dfz) = f.coeffs[None], _symbol_on_circle(f, z)
    chunk, worst = max(1, _CASE_CHUNK_BYTES // (16 * size)), 0.0
    for first in range(0, cases, chunk):
        rows = np.empty((min(chunk, cases - first), order + 1), dtype=np.complex128)
        if f is None:  # zero padded to the top degree: a zero tap adds a signed zero
            coeffs = np.zeros((rows.shape[0], _RANDOM_SYMBOL_DEGREE + 1), dtype=np.complex128)
            fz, dfz = np.empty((2, rows.shape[0], size), dtype=np.complex128)
        for i, row in enumerate(rows):
            if f is None:
                deg = int(rng.integers(1, _RANDOM_SYMBOL_DEGREE + 1))
                symbol = coeffs[i, : deg + 1]
                symbol[:] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                fz[i], dfz[i] = _symbol_on_circle(TaylorPolynomial(symbol), z)
            r = float(rng.uniform(0.2, 0.8))
            row[:] = r ** np.arange(order + 1) * np.exp(2j * np.pi * rng.uniform(size=order + 1))
        transpose = _stencil_rows(coeffs, rows, order)
        boundary = _boundary_rows(rows, fz, dfz, z, coeffs.shape[1] - 1)
        finite = np.isfinite(transpose).all(axis=1), np.isfinite(boundary).all(axis=1)
        for case in np.flatnonzero(~(finite[0] & finite[1]))[:1]:  # the first failing case
            route = "boundary adjoint route" if finite[0][case] else "liouville matrix"
            with _naming_overflow("f", f"the {route} at order {order}"):
                raise ValueError(f"case {first + case} is not finite")
        with np.errstate(over="ignore"):
            gaps = transpose - boundary
        worst = max(worst, *_row_norms(gaps).tolist())
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
    w = _kernel_point(w)
    _require_order(order)
    result = np.zeros(order + 1, dtype=np.complex128)
    deriv = f
    for ell in range(j):
        weight = np.conj(deriv(w))
        if leibniz:
            weight *= math.comb(j - 1, ell)
        result += weight * kernel(w, j - ell, order).coeffs
        deriv = derivative(deriv)
    return TaylorPolynomial(result)


# ---------------------------------------------------------------------------
# bounded-quotient decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmirnovPair:
    """Quotient representation ``f = b / a`` with ``a`` outer.

    ``defect`` is :func:`modulus_identity_defect` on the boundary grid the
    pair was built from; ``normalized`` is whether it is within 1e-10.
    """

    a: TaylorPolynomial
    b: TaylorPolynomial
    defect: float

    def __post_init__(self):
        a0 = self.a.coeffs[0]
        if not (a0.real > 0 and abs(a0.imag) <= 1e-12 * a0.real):
            raise ValueError("the outer factor must satisfy a(0) real positive")

    @property
    def normalized(self) -> bool:
        return self.defect <= 1e-10


def smirnov_decompose(f_boundary: BoundaryGrid, order: int) -> SmirnovPair:
    """Canonical pair ``(a, b)`` for boundary samples of a bounded symbol.

    ``a`` is the outer function with modulus ``(1 + |f|^2)^(-1/2)`` and
    ``b`` is the analytic projection of ``f * a``.
    """
    fv = f_boundary.values
    with _naming_overflow("f", "the modulus (1 + |f|^2)^(-1/2)"):
        modulus = 1.0 / np.sqrt(_finite(1.0 + np.abs(fv) ** 2))
    a = outer_from_modulus(BoundaryGrid(modulus), order)
    z = unit_circle_points(f_boundary.size)
    av = np.asarray(a(z))
    b = project_h2(BoundaryGrid(fv * av), order)
    return SmirnovPair(a=a, b=b, defect=_modulus_defect(av, np.asarray(b(z))))


def modulus_identity_defect(
    a: TaylorPolynomial, b: TaylorPolynomial, size: int
) -> float:
    """Max boundary deviation ``| |a|^2 + |b|^2 - 1 |`` on the ``size``-grid."""
    z = unit_circle_points(size)
    return _modulus_defect(np.asarray(a(z)), np.asarray(b(z)))


def _modulus_defect(av: np.ndarray, bv: np.ndarray) -> float:
    # the samples of a and b on one grid; smirnov_decompose already holds a's
    return float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)))
