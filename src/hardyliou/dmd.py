"""Data-driven spectral decomposition from trajectory snapshots.

Occupation kernels computed from observed trajectories span a finite
subspace; compressing the adjoint generator to that subspace needs no model
for the vector field, only the trajectory endpoints.  With basis matrix
``S`` ((N+1) x m, columns are occupation-kernel coefficient vectors) and
target matrix ``T`` (columns ``K_end - K_start`` per trajectory), the
Tikhonov-regularized compression is

    C = (S^H S + ridge I)^{-1} S^H T.

``S`` has rank at most ``k = min(m, N+1)``, so the fit works in rank
coordinates (exact DMD on a thin SVD, Tu et al. 2014).  With
``S = U diag(sigma) V^H`` thin, ``(S^H S + ridge I)^{-1} S^H = V diag(F) U^H``
with the filter factors ``F = sigma / (sigma^2 + ridge)``, hence
``C = V diag(F) U^H T`` and ``C V = V K`` for the k x k operator

    K = diag(F) U^H T V.

Its eigenvalues are the nonzero spectrum of ``C`` (``AB`` and ``BA`` share
their nonzero eigenvalues); the ``m - k`` structural zeros of ``C`` when
``m > N+1`` come from the null space of ``S`` and are dropped.  An
eigenvector ``w`` of ``K`` gives the eigenvector ``V w`` of ``C`` and the
mode ``S V w = U diag(sigma) w``.  Eigenvalues estimate the adjoint
spectrum; conjugating recovers the forward generator's spectrum for
prediction.

Prediction evaluates the identity observable pushed through the compressed
evolution.  The forecast at time ``t`` is ``conj(first coefficient of
U diag(sigma) W e^{t diag(mu)} W^{-1} diag(F) U^H c)`` with
``c = conj(z0^n)``, n = 0..N.  At ``t = 0`` this reduces exactly to the
ridge-regularized projection ``S (G + ridge I)^{-1} S^H`` of the identity
observable evaluated at ``z0``, the correctness anchor for the whole chain.
Only ``c`` and ``e^{t diag(mu)}`` depend on ``(z0, t)``, so the model
stores ``W^{-1} diag(F) U^H`` and ``(U diag(sigma) W)[1, :]`` once, and a
forecast is one k x (N+1) matrix-vector product and k exponentials.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedError,
    InsufficientDataError,
    InvalidIndexError,
    LowConfidenceWarning,
)
from .occupation import Trajectory, _conj_moments, endpoint_kernel_difference
from .series import DEFAULT_ORDER, TaylorPolynomial, complex_pairs

_COND_LIMIT = 1e14


def _filter_factors(singular_values: np.ndarray, ridge: float) -> np.ndarray:
    # Tikhonov on the Gram system: (G + ridge I)^{-1} S^H = V diag(F) U^H
    return singular_values / (singular_values**2 + ridge)


@dataclass(frozen=True)
class DmdModel:
    """Fitted compression of the adjoint generator onto trajectory data.

    ``basis`` is ``S`` and ``left_singular_vectors`` / ``singular_values``
    its thin SVD at rank ``k = min(m, N+1)``.  ``operator`` is the k x k
    compression ``K = diag(F) U^H T V``.  ``eigenvalues`` estimate adjoint
    eigenvalues mu; the forward generator's eigenvalues are their
    conjugates.  ``eigenvectors[:, j]`` is ``w_j`` in rank coordinates,
    scaled so that the mode ``U diag(sigma) w_j`` has unit norm;
    ``modes[j]`` is that eigenfunction estimate and ``mode_residuals[j]``
    the data-space residual ``||T v - mu S v||`` at ``v = V w_j``.
    ``identity_residual`` measures how well the identity observable is
    captured by the span; predictions degrade once it grows.
    """

    basis: np.ndarray
    left_singular_vectors: np.ndarray
    singular_values: np.ndarray
    operator: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    modes: tuple
    mode_residuals: np.ndarray
    regularization: float
    identity_residual: float
    order: int
    trajectory_digests: tuple
    # derived in __post_init__ so they always match the fields above
    _forecast_map: np.ndarray = field(init=False, repr=False, compare=False)
    _readout: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the (z0, t)-independent part of predict: W^{-1} diag(F) U^H, solved
        # against W, never inverted, and r = (U diag(sigma) W)[1, :]
        filtered = _filter_factors(self.singular_values, self.regularization)
        forecast_map = np.linalg.solve(
            self.eigenvectors,
            filtered[:, None] * self.left_singular_vectors.conj().T,
        )
        readout = (
            self.left_singular_vectors[1] * self.singular_values
        ) @ self.eigenvectors
        forecast_map.setflags(write=False)
        readout.setflags(write=False)
        object.__setattr__(self, "_forecast_map", forecast_map)
        object.__setattr__(self, "_readout", readout)

    @property
    def n_trajectories(self) -> int:
        return self.basis.shape[1]

    @property
    def rank(self) -> int:
        """``k = min(m, N+1)``, the number of rank coordinates."""
        return self.singular_values.size

    @property
    def singular_value_ratio(self) -> float:
        """``sigma_k / sigma_1``; for m <= N+1, ``cond(G)`` is its inverse squared."""
        return float(self.singular_values[-1] / self.singular_values[0])

    @property
    def gram(self) -> np.ndarray:
        """The m x m Gram matrix ``S^H S``, computed on each access."""
        gram = self.basis.conj().T @ self.basis
        gram.setflags(write=False)
        return gram

    def to_json(self) -> str:
        payload = {
            "schema": 2,
            "order": self.order,
            "n_trajectories": self.n_trajectories,
            "rank": self.rank,
            "singular_value_ratio": self.singular_value_ratio,
            "regularization": self.regularization,
            "identity_residual": self.identity_residual,
            "singular_values": [float(s) for s in self.singular_values],
            "operator": complex_pairs(self.operator),
            "eigenvalues": complex_pairs(self.eigenvalues),
            "mode_residuals": [float(r) for r in self.mode_residuals],
            "modes": [complex_pairs(m.coeffs) for m in self.modes],
            "trajectory_digests": list(self.trajectory_digests),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _snapshot_matrices(trajectories, order):
    n = order + 1
    m = len(trajectories)
    basis = np.zeros((n, m), dtype=np.complex128)
    targets = np.zeros((n, m), dtype=np.complex128)
    # orbits that share a sample count share blocks of the moment computation
    by_length = defaultdict(list)
    for j, traj in enumerate(trajectories):
        by_length[traj.times.size].append(j)
    for columns in by_length.values():
        basis[:, columns] = _conj_moments([trajectories[j] for j in columns], n).T
    if not np.isfinite(basis).all():
        # the rule of the TaylorPolynomial each column is; the weights of a
        # time span near the largest double can sum past it
        raise ValueError("coefficients must be finite")
    for j, traj in enumerate(trajectories):
        targets[:, j] = endpoint_kernel_difference(traj, order).coeffs
    digests = tuple(traj.content_digest() for traj in trajectories)
    return basis, targets, digests


def fit(
    trajectories,
    order: int = DEFAULT_ORDER,
    ridge: float | None = None,
) -> DmdModel:
    """Compress the adjoint generator onto the span of occupation kernels.

    ``ridge`` regularizes the Gram system ``S^H S + ridge I``, applied as the
    filter factors ``sigma / (sigma^2 + ridge)`` on the thin SVD of ``S``;
    the default ``1e-10 tr(G)`` keeps the fit stable for nearly parallel
    trajectories.  Passing ``ridge=0`` demands a well-conditioned Gram
    matrix (``(sigma_1 / sigma_m)^2 <= 1e14``, so at most N+1 trajectories)
    and raises otherwise; a negative or non-finite ``ridge`` raises
    ``ValueError``.  ``order`` must be at least 1, since the identity
    observable is the coefficient of ``z``.  The model has
    ``k = min(m, N+1)`` eigenvalues.
    """
    if not order >= 1:
        raise InvalidIndexError(f"order must be at least 1, got {order!r}")
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    trajectories = list(trajectories)
    if len(trajectories) < 1:
        raise InsufficientDataError("need at least one trajectory")
    for traj in trajectories:
        if not isinstance(traj, Trajectory):
            raise TypeError("trajectories must be Trajectory instances")
    basis, targets, digests = _snapshot_matrices(trajectories, order)
    left, sigma, right_h = np.linalg.svd(basis, full_matrices=False)
    if ridge is None:
        ridge = 1e-10 * float(np.sum(sigma**2))
    elif ridge == 0.0:
        # sigma_m is zero when S has more columns than rows
        smallest = sigma[-1] if sigma.size == basis.shape[1] else 0.0
        with np.errstate(divide="ignore", over="ignore"):
            cond = float((sigma[0] / smallest) ** 2)
        if not cond <= _COND_LIMIT:
            raise IllConditionedError(
                f"Gram condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}; "
                "pass a positive ridge"
            )
    targets_v = targets @ right_h.conj().T
    operator = _filter_factors(sigma, ridge)[:, None] * (left.conj().T @ targets_v)

    eigenvalues, eigenvectors = np.linalg.eig(operator)
    perm = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[perm]
    eigenvectors = eigenvectors[:, perm]

    # v = V w: S v = U diag(sigma) w and T v = (T V) w; scale to ||S v|| = 1
    modes = left @ (sigma[:, None] * eigenvectors)
    scale = np.linalg.norm(modes, axis=0)
    scale[scale == 0.0] = 1.0  # a zero mode stays unnormalized
    eigenvectors /= scale
    modes /= scale
    residuals = np.linalg.norm(
        targets_v @ eigenvectors - modes * eigenvalues, axis=0
    )

    id_coeffs = np.zeros(order + 1, dtype=np.complex128)
    id_coeffs[1] = 1.0
    solution, lstsq_residual, *_ = np.linalg.lstsq(basis, id_coeffs, rcond=None)
    if lstsq_residual.size:
        identity_residual = float(np.sqrt(lstsq_residual[0]))
    else:
        identity_residual = float(np.linalg.norm(basis @ solution - id_coeffs))

    for array in (basis, left, sigma, operator, eigenvalues, eigenvectors, residuals):
        array.setflags(write=False)
    return DmdModel(
        basis=basis,
        left_singular_vectors=left,
        singular_values=sigma,
        operator=operator,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        modes=tuple(TaylorPolynomial(column) for column in modes.T),
        mode_residuals=residuals,
        regularization=float(ridge),
        identity_residual=identity_residual,
        order=order,
        trajectory_digests=digests,
    )


def predict(model: DmdModel, z0: complex, t: float | np.ndarray):
    """Forecast the state at time ``t`` for the trajectory started at ``z0``.

    Pushes the identity observable through the compressed evolution:
    coefficients of ``z0`` in rank coordinates come from the filter factors,
    the eigen-coordinates evolve by ``exp(mu t)``, and the forecast is the
    conjugated linear coefficient of the evolved combination.  At ``t = 0``
    the output is exactly the subspace reconstruction of ``z0``.

    The solve against the eigenvectors is factored once when the model is
    built, so a forecast costs one matrix-vector product and ``k``
    exponentials.  A scalar ``t``
    returns a ``complex``; a 1-d array of times returns an array of
    forecasts.  A forecast that is not finite (far outside the data span)
    emits ``LowConfidenceWarning``.
    """
    if model.identity_residual > 1e-2:
        warnings.warn(
            "identity observable poorly captured by the trajectory span "
            f"(residual {model.identity_residual:.3e}); prediction is "
            "low-confidence",
            LowConfidenceWarning,
            stacklevel=2,
        )
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise ValueError("t must be a real number or a 1-d array of times")
    z0 = complex(z0)
    coords = model._forecast_map @ np.conj(z0 ** np.arange(model.order + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        evolved = np.exp(np.multiply.outer(times, model.eigenvalues)) * coords
        values = np.conj(evolved @ model._readout)
    finite = np.isfinite(values)
    if not finite.all():
        first = float(times.reshape(-1)[np.argmin(finite.reshape(-1))])
        warnings.warn(
            f"forecast is not finite at t = {first:.6g} "
            f"({values.size - np.count_nonzero(finite)} of {values.size} "
            "times); t lies too far outside the data span",
            LowConfidenceWarning,
            stacklevel=2,
        )
    return complex(values) if times.ndim == 0 else values
