"""Data-driven spectral decomposition from trajectory snapshots.

Occupation kernels computed from observed trajectories span a finite
subspace; compressing the adjoint generator to that subspace needs no model
for the vector field, only the trajectory endpoints.  With basis matrix
``S`` (columns are occupation-kernel coefficient vectors) and target matrix
``T`` (columns ``K_end - K_start`` per trajectory), the compression solves

    (S^H S) C = S^H T

so that ``C`` represents the compressed adjoint in the basis coordinates.
Its eigenvalues estimate the adjoint spectrum; conjugating recovers the
forward generator's spectrum for prediction.

Prediction evaluates the identity observable pushed through the compressed
evolution.  Writing ``P`` for the orthogonal projector onto the span of the
basis, the predictor at time ``t`` is ``conj(first coefficient of
S V e^{t diag(mu)} V^{-1} p)`` where ``p`` solves ``(G + ridge I) p = y``
with ``y_i = conj(Gamma_i(z0))``.  At ``t = 0`` this reduces exactly to
``(P id)(z0)``, the best subspace reconstruction of ``z0`` itself, which is
the correctness anchor for the whole chain.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InsufficientDataError, LowConfidenceWarning
from .occupation import Trajectory, endpoint_kernel_difference, occupation_kernel
from .series import DEFAULT_ORDER, TaylorPolynomial, complex_pairs

_COND_LIMIT = 1e14


@dataclass(frozen=True)
class DmdModel:
    """Fitted compression of the adjoint generator onto trajectory data.

    ``eigenvalues`` estimate adjoint eigenvalues mu; the forward generator's
    eigenvalues are their conjugates.  ``modes[j]`` is the unit-norm
    eigenfunction estimate for ``eigenvalues[j]``; ``mode_residuals[j]`` is
    the data-space residual ``||T v - mu S v||`` at ``||S v|| = 1``.
    ``identity_residual`` measures how well the identity observable is
    captured by the span; predictions degrade once it grows.
    """

    basis: np.ndarray
    gram: np.ndarray
    operator: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    modes: tuple
    mode_residuals: np.ndarray
    regularization: float
    identity_residual: float
    order: int
    trajectory_digests: tuple

    @property
    def n_trajectories(self) -> int:
        return self.basis.shape[1]

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "order": self.order,
            "n_trajectories": self.n_trajectories,
            "regularization": self.regularization,
            "identity_residual": self.identity_residual,
            "gram": complex_pairs(self.gram),
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
    digests = []
    for j, traj in enumerate(trajectories):
        basis[:, j] = occupation_kernel(traj, order).series.coeffs
        targets[:, j] = endpoint_kernel_difference(traj, order).coeffs
        digests.append(traj.content_digest())
    return basis, targets, tuple(digests)


def fit(
    trajectories,
    order: int = DEFAULT_ORDER,
    ridge: float | None = None,
) -> DmdModel:
    """Compress the adjoint generator onto the span of occupation kernels.

    ``ridge`` regularizes the Gram system; the default ``1e-10 tr(G)`` keeps
    the solve stable for nearly parallel trajectories.  Passing ``ridge=0``
    demands a well-conditioned Gram matrix and raises otherwise.
    """
    trajectories = list(trajectories)
    if len(trajectories) < 1:
        raise InsufficientDataError("need at least one trajectory")
    for traj in trajectories:
        if not isinstance(traj, Trajectory):
            raise TypeError("trajectories must be Trajectory instances")
    basis, targets, digests = _snapshot_matrices(trajectories, order)
    gram = basis.conj().T @ basis
    crossed = basis.conj().T @ targets
    if ridge is None:
        ridge = 1e-10 * float(np.trace(gram).real)
    elif ridge == 0.0:
        cond = np.linalg.cond(gram)
        if cond > _COND_LIMIT:
            raise IllConditionedError(
                f"Gram condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}; "
                "pass a positive ridge"
            )
    regularized = gram + ridge * np.eye(gram.shape[0])
    operator = np.linalg.solve(regularized, crossed)

    eigenvalues, eigenvectors = np.linalg.eig(operator)
    perm = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[perm]
    eigenvectors = eigenvectors[:, perm]

    modes = []
    residuals = np.zeros(len(eigenvalues))
    for j in range(len(eigenvalues)):
        v = eigenvectors[:, j]
        sv = basis @ v
        scale = np.linalg.norm(sv)
        if scale > 0:
            v = v / scale
            sv = sv / scale
            eigenvectors[:, j] = v
        residuals[j] = float(
            np.linalg.norm(targets @ v - eigenvalues[j] * sv)
        )
        modes.append(TaylorPolynomial(sv))

    id_coeffs = np.zeros(order + 1, dtype=np.complex128)
    id_coeffs[1] = 1.0
    solution, lstsq_residual, *_ = np.linalg.lstsq(basis, id_coeffs, rcond=None)
    if lstsq_residual.size:
        identity_residual = float(np.sqrt(lstsq_residual[0]))
    else:
        identity_residual = float(np.linalg.norm(basis @ solution - id_coeffs))

    gram.setflags(write=False)
    operator.setflags(write=False)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    residuals.setflags(write=False)
    basis.setflags(write=False)
    return DmdModel(
        basis=basis,
        gram=gram,
        operator=operator,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        modes=tuple(modes),
        mode_residuals=residuals,
        regularization=float(ridge),
        identity_residual=identity_residual,
        order=order,
        trajectory_digests=digests,
    )


def predict(model: DmdModel, z0: complex, t: float) -> complex:
    """Forecast the state at time ``t`` for the trajectory started at ``z0``.

    Pushes the identity observable through the compressed evolution:
    coefficients of ``z0`` against the basis come from the regularized Gram
    solve, the eigen-coordinates evolve by ``exp(mu t)``, and the forecast is
    the conjugated linear coefficient of the evolved combination.  At
    ``t = 0`` the output is exactly the subspace reconstruction of ``z0``.
    """
    if model.identity_residual > 1e-2:
        warnings.warn(
            "identity observable poorly captured by the trajectory span "
            f"(residual {model.identity_residual:.3e}); prediction is "
            "low-confidence",
            LowConfidenceWarning,
            stacklevel=2,
        )
    z0 = complex(z0)
    powers = z0 ** np.arange(model.order + 1)
    y = np.conj(model.basis.T @ powers)
    regularized = model.gram + model.regularization * np.eye(model.gram.shape[0])
    p = np.linalg.solve(regularized, y)
    evolved = model.eigenvectors @ (
        np.exp(model.eigenvalues * t) * np.linalg.solve(model.eigenvectors, p)
    )
    coeffs = model.basis @ evolved
    return complex(np.conj(coeffs[1]))
