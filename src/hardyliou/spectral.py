"""Spectra and eigenfunctions of truncated Liouville-type operators.

The truncated matrices are small and dense, so the spectra come from a
direct eigensolver.  The interesting structure is in the closed-form
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
class EigenPair:
    """Eigenvalue, unit-norm eigenvector, and its certified residual."""

    value: complex
    vector: TaylorPolynomial
    residual: float


def eigendecompose(matrix: OperatorMatrix) -> list[EigenPair]:
    """All eigenpairs, sorted by (real, imag), with recomputed residuals."""
    entries = matrix.entries
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
    return [
        EigenPair(
            value=complex(values[k]),
            vector=TaylorPolynomial(vectors[:, k]),
            residual=float(residuals[k]),
        )
        for k in np.lexsort((values.imag, values.real))
    ]


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


def monic_from_zeros(zeros: list[tuple[complex, int]]) -> TaylorPolynomial:
    """The monic polynomial ``prod (z - z_i)^(m_i)``."""
    coeffs = np.array([1.0 + 0.0j])
    for point, multiplicity in zeros:
        if int(multiplicity) != multiplicity or multiplicity < 1:
            raise InvalidIndexError("multiplicities must be positive integers")
        factor = np.array([-complex(point), 1.0 + 0.0j])
        for _ in range(int(multiplicity)):
            coeffs = np.convolve(coeffs, factor)
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
