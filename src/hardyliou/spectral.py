"""Spectra and eigenfunctions of truncated Liouville-type operators.

Column ``n`` of the truncated ``A_f`` lies on rows ``n-1 .. n-1+deg f``, so
the matrix is triangular when ``deg f <= 1`` (upper bidiagonal) or
``f(0) = 0`` (lower triangular).  :func:`eigendecompose` reads such a
spectrum off the diagonal, exactly, and takes the eigenvectors by banded
substitution at ``O(N * bandwidth)`` each, one block of columns at a time,
scaling a column by a power of two where it would overflow; any other matrix
goes to the dense eigensolver, which also stays as the test oracle.  The
``spectrum`` command runs the same sweep on the diagonals of ``f`` and keeps
no eigenvector.  The interesting structure is in the closed-form
eigenfunction families:

* zero-free symbols admit ``g = exp(J(lambda / f))`` for every ``lambda``,
  so the spectrum fills the plane;
* monomial symbols ``z^m`` give an explicit one-parameter family for the
  adjoint on each residue class of coefficient indices mod ``m - 1``;
* zeros of ``f`` inside the disk pin down the kernel of the adjoint, spanned
  by derivative kernels at those zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenConvergenceError,
    InvalidIndexError,
    SymbolHasZerosError,
)
from .occupation import Trajectory, _warn_on_mismatch
from .operators import (
    OperatorMatrix,
    _diagonals,
    _naming_overflow,
    _rescue_norms,
    liouville_matrix,
)
from .series import (
    TaylorPolynomial,
    DEFAULT_ORDER,
    _finite,
    _kernel_point,
    _read_only,
    _require_order,
    antiderivative,
    exp_series,
    kernel,
    reciprocal,
    unit_circle_points,
)


# eigenpair residuals are checked this many columns per matrix product, in
# two reused (N+1) x 64 buffers
_RESIDUAL_BLOCK = 64
# the substitution sweep holds about this many bytes of eigenvector columns
# at a time: (N+1) rows by a whole number of residual blocks (256 columns at
# N = 1024, 64 at 4096), filled by blocks as wide as their rows allow
_SWEEP_BLOCK_BYTES = 4 * 2**20
# an eigenvector entry past 2^500 scales its column by 2^-500, which is exact;
# every entry then stays below 2^500, so a column's sum of squares stays
# finite for any N below 2^24
_RESCALE_BITS = 500
_RESCALE_LIMIT = 2.0**_RESCALE_BITS
_RESCALE = 2.0**-_RESCALE_BITS


@dataclass(frozen=True, eq=False)
class Eigendecomposition:
    """All eigenpairs of a truncation, sorted by (real, imag), read-only.

    ``values[k]`` is an eigenvalue, ``vectors[:, k]`` its unit-norm
    eigenvector (coefficients in the monomial basis) and ``residuals[k]``
    the certified ``||A v_k - values[k] v_k||``.  Each array is a view of a
    read-only owner (:func:`~hardyliou.series._read_only`), so none can be
    made writable again.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def eigendecompose(matrix: OperatorMatrix) -> Eigendecomposition:
    """All eigenpairs, sorted by (real, imag), with recomputed residuals.

    A triangular matrix with a pairwise-distinct diagonal takes the banded
    substitution route; every other matrix takes the dense eigensolver.
    Either way the residual ``||A v - lambda v||`` is recomputed from the
    entries: it bounds the backward error of each pair, not the forward
    error of the vector.
    """
    entries = matrix.entries
    found = _triangular_eigenpairs(entries)
    values, vectors, residuals = _dense_eigenpairs(entries) if found is None else found
    values, residuals, vectors = _sorted(values, residuals, vectors)
    return Eigendecomposition(*map(_read_only, (values, vectors, residuals)))


def _liouville_spectrum(f: TaylorPolynomial, order: int):
    """Sorted eigenvalues and residuals of ``liouville_matrix(f, order)``.

    The same arrays as :func:`eigendecompose` gives.  A triangular
    truncation with a distinct diagonal is swept from the diagonals of
    ``f`` and keeps no eigenvector, so it holds one column block and no
    ``(N+1)^2`` array.  Any other builds the matrix and goes straight to
    the dense eigensolver, as :func:`eigendecompose` would once its own
    structure test (the same band) or sweep failed.
    """
    band = _symbol_band(f, order)
    found = None if band is None else _band_eigenpairs(band, keep_vectors=False)
    if found is None:
        what = f"the eigenvalues of the liouville matrix at order {order}"
        with _naming_overflow("f", what):
            found = _dense_eigenpairs(liouville_matrix(f, order).entries)
    values, _, residuals = found
    values, residuals, _ = _sorted(values, residuals)
    return values, residuals


def _sorted(values, residuals, vectors=None):
    order = np.lexsort((values.imag, values.real))
    # an ascending diagonal (f = a + bz with Re b > 0) is already sorted, and
    # gathering would copy the (N+1)^2 vectors for nothing
    if np.array_equal(order, np.arange(values.size)):
        return values, residuals, vectors
    return values[order], residuals[order], None if vectors is None else vectors[:, order]


def _dense_eigenpairs(entries: np.ndarray):
    """Eigenpairs from ``np.linalg.eig``: unit columns, blocked residuals.

    Raises ValueError when an eigenvalue is past the range of doubles.
    """
    try:
        values, vectors = np.linalg.eig(entries)
    except np.linalg.LinAlgError as exc:
        condition = float(np.linalg.cond(entries + 0.0))
        raise EigenConvergenceError(
            f"eigenvalue iteration failed ({exc}); matrix condition ~ {condition:.3e}"
        ) from exc
    _finite(values)
    for k in range(values.size):
        vectors[:, k] /= np.linalg.norm(vectors[:, k])
    residuals = np.empty(values.size)
    for start in range(0, values.size, _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = vectors[:, cols]
        image = entries @ block - block * values[cols]
        with np.errstate(over="ignore", invalid="ignore"):
            residuals[cols] = np.linalg.norm(image, axis=0)
        _rescue_norms(residuals[cols], image)
    return values, vectors, residuals


def _triangular_eigenpairs(entries: np.ndarray):
    """Eigenpairs of a triangular matrix by banded substitution, or None.

    None when ``entries`` is not triangular, its diagonal repeats, or one
    substitution step grows a column past the range of doubles (see
    :func:`_band_eigenpairs`).
    """
    # nonzero on the boolean mask takes half the time it takes on complex
    rows, cols = np.nonzero(entries != 0)
    diagonals = {int(k): np.diagonal(entries, k) for k in np.unique(cols - rows)}
    diagonals[0] = np.diagonal(entries)
    band = _band(diagonals)
    return None if band is None else _band_eigenpairs(band)


def _symbol_band(f: TaylorPolynomial, order: int):
    """:func:`_band` of ``liouville_matrix(f, order)``, read off ``f``.

    Raises :class:`SymbolOverflowError` naming ``f`` where the matrix would.
    """
    size = order + 1
    diagonals = {0: np.zeros(size, dtype=np.complex128)}
    with _naming_overflow("f", f"the liouville matrix at order {order}"):
        for k, n in _diagonals(f.order, order):
            if f.coeffs[k] != 0:
                # column n carries n f_k on row n - 1 + k
                offset = 1 - k
                diagonal = diagonals.setdefault(
                    offset, np.zeros(size - abs(offset), dtype=np.complex128)
                )
                diagonal[n - max(offset, 0)] = _finite(n * f.coeffs[k])
    return _band(diagonals)


def _band(diagonals: dict):
    """``(values, taps, flip)`` of a triangular matrix for the sweep, or None.

    ``diagonals`` maps each offset ``k`` of a nonzero diagonal, and 0, to
    ``np.diagonal(entries, k)``.  None when the matrix is not triangular or
    its diagonal repeats.  A lower triangular matrix is solved as the upper
    triangular one it becomes with rows and columns reversed (``flip``).
    ``values`` is that matrix's diagonal and ``taps[i, d - 1]`` its entry
    ``(i, i + d)``.
    """
    offsets = [k for k in diagonals if k != 0]
    flip = min(offsets, default=0) < 0
    if flip and max(offsets) > 0:
        return None
    values = (diagonals[0][::-1] if flip else diagonals[0]).copy()
    if np.unique(values).size < values.size:
        return None
    size, band = values.size, max(map(abs, offsets), default=0)
    taps = np.zeros((size, band), dtype=np.complex128)
    for k in offsets:
        if flip:  # row r holds entries (r, r - band .. r - 1)
            taps[-k:, band + k] = diagonals[k]
        else:
            taps[: size - k, k - 1] = diagonals[k]
    # reversed in both axes, a row of taps walks its matrix row backwards, as
    # a row of the reversed matrix does; matmul picks its kernel, and so the
    # rounding, by that layout
    return values, taps[::-1, ::-1] if flip else taps, flip


def _band_eigenpairs(band, keep_vectors: bool = True):
    """``(values, vectors, residuals)`` of :func:`_band`'s matrix, or None.

    The upper triangular matrix has diagonal ``values`` (pairwise distinct)
    and entry ``(i, i + d)`` in ``taps[i, d - 1]``.  Eigenvector ``j`` lives
    on rows ``0..j`` with ``v_j = 1``; row ``i`` solves
    ``(a_ii - lambda_j) v_i + sum_{0 < d <= width} a_{i,i+d} v_{i+d} = 0``,
    ``width`` the number of columns of ``taps``.  The sweep solves each
    block of :func:`_sweep_plan` on its rows at ``O(N * width)`` per
    column, normalises it and takes its residuals before it starts the next
    block.  With ``keep_vectors`` each block is solved in its own columns
    of ``vectors``; without, ``vectors`` is None and one buffer of the
    plan's largest block is reused.  A ``flip`` band gives the pairs of the
    lower triangular matrix it came from.

    A block with an overflowing column is solved again with its columns
    rescaled, so no eigenvector overflows.  None only when one substitution
    step grows an entry past the range of doubles, about 2^2000 times the
    column: a band entry near 1e307 over a gap near 1e-300 does, and so does
    a gap below about 2^-1024, whose reciprocal overflows in complex
    division whatever the scale.
    """
    values, taps, flip = band
    size, width = taps.shape
    plan = _sweep_plan(size, width)
    vectors = np.zeros((size, size), dtype=np.complex128) if keep_vectors else None
    if vectors is None:
        entries = max(rows * (stop - start) for start, stop, rows in plan)
        buffer = np.empty(entries, dtype=np.complex128)
    scratch = np.empty((2, size * _RESIDUAL_BLOCK), dtype=np.complex128)
    residuals = np.empty(size)
    for start, stop, rows in plan:
        if vectors is None:
            block = buffer[: rows * (stop - start)].reshape(rows, stop - start)
        else:
            block = vectors[:rows, start:stop]
        if not _solve_block(values, taps, start, block, rescale=False):
            if not _solve_block(values, taps, start, block, rescale=True):
                return None
        _block_residuals(values, taps, start, block, scratch, residuals)
    if flip:
        values, residuals = values[::-1], residuals[::-1]
        vectors = None if vectors is None else vectors[::-1, ::-1]
    return values, vectors, residuals


def _sweep_plan(size: int, band: int) -> list:
    """``(start, stop, rows)`` of each column block of the sweep, in order.

    Columns ``start..stop-1`` vanish below row ``stop - 1``, and ``band``
    rows more give each row's product the length it has on the whole
    matrix, so a block is solved on its first ``rows`` rows.  A block
    starts on a multiple of ``_RESIDUAL_BLOCK`` (so residuals group their
    columns as one block of all of them would) and takes as many residual
    blocks as fit ``(N+1)`` rows by ``_SWEEP_BLOCK_BYTES`` worth of whole
    residual blocks, and at least one: blocks of early columns are short,
    so they are wide.  A last run of fewer than ``_RESIDUAL_BLOCK`` columns
    joins the block before it rather than sweeping every row on its own.
    """

    def rows(stop):
        return min(stop - 1 + band, size - 1) + 1

    step = _RESIDUAL_BLOCK
    budget = size * step * round(_SWEEP_BLOCK_BYTES / (16 * size * step))
    plan, start = [], 0
    while start < size:
        stop = start + step
        while stop + step <= size and rows(stop + step) * (stop + step - start) <= budget:
            stop += step
        if size - stop < step:
            stop = size
        plan.append((start, stop, rows(stop)))
        start = stop
    return plan


def _solve_block(values, taps, start, block, rescale: bool) -> bool:
    """Unit eigenvectors of columns ``start..`` into ``block``, or False.

    Without ``rescale``, False when a column overflows.  With it, a column
    whose new entry passes ``_RESCALE_LIMIT`` (or overflows) is scaled by
    ``_RESCALE`` on the rows solved so far, and the entry is solved again,
    up to five times; False when the entry still passes, or the column has
    underflowed to zero on the way.  Only the band of rows that the next
    rows read is scaled at once, and the rest of the column after the
    sweep: a symbol that rescales on every row (f = 1 + 1e-300z) costs
    ``O(band)`` per rescale, not ``O(N)``.
    """
    size, band = taps.shape
    stop = start + block.shape[1]
    columns = values[start:stop]
    # the sweep writes every row above start; below it, only above the diagonal
    block[start:] = 0.0
    block[np.arange(start, stop), np.arange(stop - start)] = 1.0
    # rescales[i, c]: how often column c was scaled while solving row i
    rescales = np.zeros(block.shape, dtype=np.int8) if rescale else None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(stop - 2, -1, -1):
            if i >= start - 1:
                # row i solves columns lo.. of the block; the rows above
                # start - 1 solve all of them, through the view of lo = 0
                lo = i + 1 - start
                tail = columns[lo:]
            row = block[i, lo:]
            # matmul: a product of single band rows rounds differently, and
            # would change the eigenvector bytes
            known = taps[i, : size - 1 - i] @ block[i + 1 : i + 1 + band, lo:]
            np.divide(known, tail - values[i], out=row)
            for tries in range(6 if rescale else 0):
                if np.max(np.abs(row)) <= _RESCALE_LIMIT:
                    break
                if tries == 5:
                    return False
                cols = lo + np.flatnonzero(~(np.abs(row) <= _RESCALE_LIMIT))
                block[i + 1 : i + 1 + band, cols] *= _RESCALE
                rescales[i, cols] += 1
                known = taps[i, : size - 1 - i] @ block[i + 1 : i + 1 + band, cols]
                block[i, cols] = known / (columns[cols] - values[i])
        if rescale:
            _apply_rescales(block, rescales, band)
        # einsum sums the squares without a block-sized temporary
        norms = np.sqrt(
            np.einsum("ij,ij->j", block.real, block.real)
            + np.einsum("ij,ij->j", block.imag, block.imag)
        )
    if not np.all(np.isfinite(norms) & (norms > 0)):
        return False
    block *= 1.0 / norms
    return True


def _apply_rescales(block, rescales, band) -> None:
    """Scale each entry once per rescale of its column more than ``band``
    rows above it: :func:`_solve_block` scaled only the band at once."""
    missed = np.zeros(block.shape, dtype=np.int32)
    np.cumsum(rescales[: -band - 1], axis=0, dtype=np.int32, out=missed[band + 1 :])
    exponents = -_RESCALE_BITS * missed
    # ldexp, as a product by 2^-1500 and less would underflow to zero
    block.real[...] = np.ldexp(block.real, exponents)
    block.imag[...] = np.ldexp(block.imag, exponents)


def _block_residuals(values, taps, start, block, scratch, out) -> None:
    """``||A v - lambda v||`` of the unit columns in ``block`` into ``out``.

    Column ``c`` of ``block`` is eigenvector ``start + c``.  Each run of
    ``_RESIDUAL_BLOCK`` columns forms its image in ``scratch[0]`` and its
    squares in ``scratch[1]``, in place.
    """
    band = taps.shape[1]
    stop_block = start + block.shape[1]
    for first in range(start, stop_block, _RESIDUAL_BLOCK):
        # columns first..stop-1 vanish below row stop-1, and so do their images
        stop = min(first + _RESIDUAL_BLOCK, stop_block)
        width = stop - first
        cols = block[:stop, first - start : stop - start]
        image = scratch[0, : stop * width].reshape(stop, width)
        np.subtract(values[:stop, None], values[first:stop], out=image)
        image *= cols
        for d in range(1, min(band, stop - 1) + 1):
            term = scratch[1, : (stop - d) * width].reshape(stop - d, width)
            np.multiply(taps[: stop - d, d - 1, None], cols[d:], out=term)
            image[:-d] += term
        # np.linalg.norm(image, axis=0), with its two temporaries in scratch[1]
        squares = scratch[1, : stop * width].reshape(stop, width)
        np.conjugate(image, out=squares)
        with np.errstate(over="ignore", invalid="ignore"):
            squares *= image
            out[first:stop] = np.sqrt(np.add.reduce(squares.real, axis=0))
        _rescue_norms(out[first:stop], image)


def zero_free_certificate(f: TaylorPolynomial, size: int = 1024) -> bool:
    """Winding-number check that ``f`` has no zeros in the closed disk.

    Samples ``f`` on the circle; the argument-principle winding count equals
    the number of interior zeros, and a vanishing boundary minimum flags
    zeros on the circle itself.
    """
    size = max(size, 8 * (f.order + 1))
    fv = np.asarray(f(unit_circle_points(size)))
    if np.min(np.abs(fv)) == 0.0:
        return False
    ratios = fv[np.r_[1:size, 0]] / fv
    winding = np.sum(np.angle(ratios)) / (2.0 * np.pi)
    return bool(abs(winding) < 0.5)


def exp_eigenfunction(
    f: TaylorPolynomial, lam: complex, order: int = DEFAULT_ORDER
) -> TaylorPolynomial:
    """Eigenfunction ``exp(J(lambda / f))`` for a zero-free symbol.

    Any ``lambda`` is an eigenvalue: ``f g' = lambda g`` by construction,
    and ``g(0) = 1``.  Raises when the zero-free certificate fails, since
    the antiderivative of ``lambda / f`` then stops being single-valued.
    """
    if not zero_free_certificate(f):
        raise SymbolHasZerosError(
            "the symbol must be zero-free on the closed disk"
        )
    integrand = TaylorPolynomial(complex(lam) * reciprocal(f, order).coeffs)
    return exp_series(antiderivative(integrand), order)


def hk_eigenfunction(
    m: int, k: int, lam: complex, order: int = DEFAULT_ORDER
) -> TaylorPolynomial:
    """Adjoint eigenfunction for the monomial symbol ``z^m`` on branch ``k``.

    ``H_k(z) = sum_n lam^n z^(k + n(m-1)) / prod_{j<n} (k + j(m-1))`` has
    super-exponentially decaying coefficients, so truncation is benign.  For
    ``m = 2, k = 1`` it collapses to ``z * exp(lam * z)``.
    """
    if int(m) != m or m < 2:
        raise InvalidIndexError("m must be an integer >= 2")
    if int(k) != k or not 1 <= k <= m - 1:
        raise InvalidIndexError(f"branch index k must lie in 1..{m - 1}")
    _require_order(order)
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    term = 1.0 + 0.0j
    index = k
    n = 0
    while index <= order:
        coeffs[index] = term
        term *= complex(lam) / (k + n * (m - 1))
        index += m - 1
        n += 1
    return TaylorPolynomial(coeffs)


def zero_eigenspace(
    zeros: list[tuple[complex, int]], order: int = DEFAULT_ORDER
) -> list[TaylorPolynomial]:
    """Basis of the adjoint kernel pinned by interior zeros of the symbol.

    A zero of multiplicity ``m_i`` at ``z_i`` contributes the derivative
    kernels of orders ``0..m_i - 1`` at ``z_i``.  Dimension equals the total
    zero count with multiplicity.  Each ``z_i`` needs ``|z_i| < 1``.
    """
    basis = []
    for point, multiplicity in zeros:
        point = _kernel_point(point)
        if int(multiplicity) != multiplicity or multiplicity < 1:
            raise InvalidIndexError("multiplicities must be positive integers")
        for j in range(int(multiplicity)):
            basis.append(kernel(point, j, order))
    return basis


def flow_check(
    f: TaylorPolynomial,
    phi_eig: TaylorPolynomial,
    lam: complex,
    trajectory: Trajectory,
) -> float:
    """Largest deviation of ``phi(gamma(t))`` from ``phi(gamma(0)) e^(lam t)``.

    An eigenfunction of the Liouville operator evolves multiplicatively
    along trajectories of its own vector field; the returned maximum is the
    empirical defect of that relation.  Warns if the samples do not follow
    ``f`` in the first place, since the relation is vacuous then.
    """
    _warn_on_mismatch(f, trajectory)
    values = np.asarray(phi_eig(trajectory.points))
    elapsed = trajectory.times - trajectory.times[0]
    reference = phi_eig(trajectory.points[0]) * np.exp(complex(lam) * elapsed)
    return float(np.max(np.abs(values - reference)))
