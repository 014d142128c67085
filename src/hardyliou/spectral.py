"""Spectra and eigenfunctions of truncated Liouville-type operators.

Column ``n`` of the truncated ``A_f`` lies on rows ``n-1 .. n-1+deg f``, so
the matrix is triangular when ``deg f <= 1`` (upper bidiagonal) or
``f(0) = 0`` (lower triangular).  :func:`eigendecompose` reads such a
spectrum off the diagonal, exactly, and takes the eigenvectors by banded
substitution at ``O(N * bandwidth)`` each; any other matrix goes to the dense
eigensolver, which also stays as the test oracle.  The interesting structure
is in the closed-form eigenfunction families:

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
    DiskDomainError,
    EigenConvergenceError,
    InvalidIndexError,
    SymbolHasZerosError,
)
from .occupation import Trajectory, _warn_on_mismatch
from .operators import OperatorMatrix
from .series import (
    KernelSpec,
    TaylorPolynomial,
    DEFAULT_ORDER,
    antiderivative,
    exp_series,
    kernel,
    reciprocal,
    unit_circle_points,
)


# eigenpair residuals are checked this many columns per matrix product,
# which keeps the temporaries at (N+1) x 64 instead of (N+1)^2, far below
# the eigensolver's own (N+1)^2 buffers
_RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class Eigendecomposition:
    """All eigenpairs of a truncation, sorted by (real, imag), read-only.

    ``values[k]`` is an eigenvalue, ``vectors[:, k]`` its unit-norm
    eigenvector (coefficients in the monomial basis) and ``residuals[k]``
    the certified ``||A v_k - values[k] v_k||``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def eigendecompose(matrix: OperatorMatrix) -> Eigendecomposition:
    """All eigenpairs, sorted by (real, imag), with recomputed residuals.

    A triangular matrix with a pairwise-distinct diagonal takes the banded
    substitution route; every other matrix, and a substitution that
    overflows, takes the dense eigensolver.  Either way the residual
    ``||A v - lambda v||`` is recomputed from ``matrix.entries``: it bounds
    the backward error of each pair, not the forward error of the vector.
    """
    entries = matrix.entries
    found = _triangular_eigenpairs(entries)
    values, vectors, residuals = _dense_eigenpairs(entries) if found is None else found
    order = np.lexsort((values.imag, values.real))
    # an ascending diagonal (f = a + bz with Re b > 0) is already sorted, and
    # gathering would copy the (N+1)^2 vectors for nothing
    if not np.array_equal(order, np.arange(values.size)):
        values, vectors, residuals = values[order], vectors[:, order], residuals[order]
    for array in (values, vectors, residuals):
        array.setflags(write=False)
    return Eigendecomposition(values, vectors, residuals)


def _dense_eigenpairs(entries: np.ndarray):
    """Eigenpairs from ``np.linalg.eig``: unit columns, blocked residuals."""
    try:
        values, vectors = np.linalg.eig(entries)
    except np.linalg.LinAlgError as exc:
        condition = float(np.linalg.cond(entries + 0.0))
        raise EigenConvergenceError(
            f"eigenvalue iteration failed ({exc}); matrix condition ~ {condition:.3e}"
        ) from exc
    for k in range(values.size):
        vectors[:, k] /= np.linalg.norm(vectors[:, k])
    residuals = np.empty(values.size)
    for start in range(0, values.size, _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = vectors[:, cols]
        residuals[cols] = np.linalg.norm(entries @ block - block * values[cols], axis=0)
    return values, vectors, residuals


def _triangular_eigenpairs(entries: np.ndarray):
    """Eigenpairs of a triangular matrix by banded substitution, or None.

    None when ``entries`` is not triangular, its diagonal repeats, or an
    eigenvector overflows.  A lower triangular matrix is solved as the upper
    triangular one it becomes with rows and columns reversed.
    """
    # nonzero on the boolean mask takes half the time it takes on complex
    rows, cols = np.nonzero(entries != 0)
    offsets = cols - rows
    flip = np.min(offsets, initial=0) < 0
    if flip and np.max(offsets, initial=0) > 0:
        return None
    upper = entries[::-1, ::-1] if flip else entries
    band = int(np.max(np.abs(offsets), initial=0))
    values = np.diagonal(upper).copy()
    if np.unique(values).size < values.size:
        return None
    n = values.size
    # eigenvector j lives on rows 0..j with v_j = 1; row i solves
    # (a_ii - lambda_j) v_i + sum_{0 < d <= band} a_{i,i+d} v_{i+d} = 0
    vectors = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            reach = slice(i + 1, i + 1 + band)
            known = upper[i, reach] @ vectors[reach, i + 1:]
            vectors[i, i + 1:] = known / (values[i + 1:] - values[i])
        # einsum sums the squares without an (N+1)^2 temporary
        norms = np.sqrt(
            np.einsum("ij,ij->j", vectors.real, vectors.real)
            + np.einsum("ij,ij->j", vectors.imag, vectors.imag)
        )
    if not np.all(np.isfinite(norms)):
        return None
    vectors *= 1.0 / norms
    residuals = np.empty(n)
    for start in range(0, n, _RESIDUAL_BLOCK):
        # columns start..stop-1 vanish below row stop-1, and so do their images
        stop = min(start + _RESIDUAL_BLOCK, n)
        block = vectors[:stop, start:stop]
        image = (values[:stop, None] - values[start:stop]) * block
        for d in range(1, min(band, stop - 1) + 1):
            image[:-d] += np.diagonal(upper, d)[: stop - d, None] * block[d:]
        residuals[start:stop] = np.linalg.norm(image, axis=0)
    if flip:
        return values[::-1], vectors[::-1, ::-1], residuals[::-1]
    return values, vectors, residuals


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
    zero count with multiplicity.
    """
    basis = []
    for point, multiplicity in zeros:
        if abs(complex(point)) >= 1.0:
            raise DiskDomainError(
                "eigenspace construction needs zeros strictly inside the disk"
            )
        if int(multiplicity) != multiplicity or multiplicity < 1:
            raise InvalidIndexError("multiplicities must be positive integers")
        for j in range(int(multiplicity)):
            basis.append(kernel(KernelSpec(point=point, order=j), order))
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
