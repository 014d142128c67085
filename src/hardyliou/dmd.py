"""Data-driven spectral decomposition from trajectory snapshots.

Occupation kernels computed from observed trajectories span a finite
subspace; compressing the adjoint generator to that subspace needs no model
for the vector field, only the trajectory endpoints.  With basis matrix
``S`` ((N+1) x m, columns are occupation-kernel coefficient vectors) and
target matrix ``T`` (columns ``K_end - K_start`` per trajectory), the
Tikhonov-regularized compression is

    C = (S^H S + ridge I)^{-1} S^H T.

:func:`fit` is two stages: :func:`_snapshot_matrices` reads the orbits into
``S``, ``T`` and their digests, and :func:`_compress` is the rank-space
solver below, which knows only those matrices.

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
stores ``W^{-1} diag(F) U^H`` and ``(U diag(sigma) W)[1, :]`` once.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from collections import defaultdict
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    IllConditionedError,
    InsufficientDataError,
    LowConfidenceWarning,
)
from .occupation import (
    Trajectory,
    _conj_moments,
    _moment_block_rows,
    _require_quadrature,
    _start_point,
)
from .series import (
    DEFAULT_ORDER,
    TaylorPolynomial,
    _finite,
    _read_only,
    _require_order,
    _szego_columns,
    complex_pairs,
    json_text,
)

_COND_LIMIT = 1e14


def _filter_factors(singular_values: np.ndarray, ridge: float) -> np.ndarray:
    # Tikhonov on the Gram system: (G + ridge I)^{-1} S^H = V diag(F) U^H
    return singular_values / (singular_values**2 + ridge)


@dataclass(frozen=True, eq=False)
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
    ``trajectory_digests`` is each fitted orbit's
    :meth:`~hardyliou.occupation.Trajectory.content_digest`, resolved when
    first read; until then the model holds only the orbits whose digest is
    still unknown.  Every array is a view of a read-only owner
    (:func:`~hardyliou.series._read_only`), so none can be made writable
    again.
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
    trajectories: InitVar[list]
    # derived in __post_init__; no array field can be made writable again
    # (series._read_only), so they always match the fields above
    _forecast_map: np.ndarray = field(init=False, repr=False, compare=False)
    _readout: np.ndarray = field(init=False, repr=False, compare=False)
    # a list holding each orbit's digest, or the orbit itself while its
    # digest is unknown (the trajectories argument, as fit passes it); the
    # tuple of digests once trajectory_digests is read
    _digests: list | tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, trajectories):
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
        object.__setattr__(self, "_forecast_map", _read_only(forecast_map))
        object.__setattr__(self, "_readout", _read_only(readout))
        object.__setattr__(self, "_digests", list(trajectories))

    @property
    def trajectory_digests(self) -> tuple:
        if isinstance(self._digests, list):
            digests = tuple(
                d if isinstance(d, str) else d.content_digest() for d in self._digests
            )
            object.__setattr__(self, "_digests", digests)
        return self._digests

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
        """The m x m Gram matrix ``S^H S``, computed on each access, read-only."""
        return _read_only(self.basis.conj().T @ self.basis)

    def to_json(self) -> str:
        """The model as strict JSON, written like the CLI reports."""
        payload = {
            "schema": 2,
            "order": self.order,
            "n_trajectories": self.n_trajectories,
            "rank": self.rank,
            "singular_value_ratio": self.singular_value_ratio,
            "regularization": self.regularization,
            "identity_residual": self.identity_residual,
            "singular_values": self.singular_values.tolist(),
            "operator": complex_pairs(self.operator),
            "eigenvalues": complex_pairs(self.eigenvalues),
            "mode_residuals": self.mode_residuals.tolist(),
            "modes": [complex_pairs(m.coeffs) for m in self.modes],
            "trajectory_digests": list(self.trajectory_digests),
        }
        return json_text(payload)


def _snapshot_matrices(trajectories, order):
    """``(basis, targets, sources)`` of a batch, read in one pass.

    ``trajectories`` is any iterable of trajectories; this is the one loop
    that reads it, once, and it checks each item as it reads it, with the
    errors that :func:`fit` names.  ``sources`` holds each orbit's digest,
    or the orbit itself while its digest is unknown.  Orbits that share a
    sample count wait in one pending block of
    :func:`~hardyliou.occupation._conj_moments`, computed as soon as it holds
    exactly :func:`~hardyliou.occupation._moment_block_rows` rows (a last,
    partial block after the pass), so past its block an orbit is held only
    as its start and end point.  The targets
    ``K_end - K_start`` are two power matrices over the end and start
    points of all orbits (:func:`~hardyliou.series._szego_columns`).  Every
    column has the bytes of the one-orbit call, whatever the other rows of
    its block.
    """
    n = order + 1
    pending = defaultdict(list)  # sample count -> [(column, orbit)], one block
    blocks = []  # (columns, moments) of each block done
    sources, starts, ends = [], [], []

    def flush(group):
        moments = _conj_moments([traj for _, traj in group], n)[0]
        blocks.append(([j for j, _ in group], moments))
        group.clear()

    for j, traj in enumerate(trajectories):
        if not isinstance(traj, Trajectory):
            raise TypeError("trajectories must be Trajectory instances")
        samples = traj.times.size
        _require_quadrature(samples)
        sources.append(traj if traj._digest is None else traj._digest)
        starts.append(traj.points[0])
        ends.append(traj.points[-1])
        group = pending[samples]
        group.append((j, traj))
        if len(group) == _moment_block_rows(samples):
            flush(group)
    if not starts:
        raise InsufficientDataError("need at least one trajectory")
    for group in pending.values():
        if group:
            flush(group)
    basis = np.empty((n, len(starts)), dtype=np.complex128)
    for columns, moments in blocks:
        basis[:, columns] = moments.T
    # the rule of the TaylorPolynomial each column is; the weights of a time
    # span near the largest double can sum past it
    _finite(basis, "coefficients")
    targets = _szego_columns(np.array(ends), order) - _szego_columns(
        np.array(starts), order
    )
    return basis, targets, sources


def fit(
    trajectories,
    order: int = DEFAULT_ORDER,
    ridge: float | None = None,
) -> DmdModel:
    """Compress the adjoint generator onto the span of occupation kernels.

    Two stages: :func:`_snapshot_matrices` reads the orbits into the basis
    ``S``, the targets ``T`` and the orbits' digests, and :func:`_compress`
    solves for the model in rank coordinates from those alone.

    ``trajectories`` is any iterable of :class:`Trajectory` (a list, or a
    generator that reads them lazily), read once by
    :func:`_snapshot_matrices`.  Each orbit is dropped as soon as its block
    of moments is done; the fit keeps per orbit only its moments, its end
    points and its digest (the orbit itself while the digest is unknown).
    An item that is not a ``Trajectory`` raises ``TypeError`` and an orbit
    of fewer than 3 samples ``InsufficientDataError``, both when read; no
    item at all raises ``InsufficientDataError``.

    ``ridge`` regularizes the Gram system ``S^H S + ridge I``, applied as the
    filter factors ``sigma / (sigma^2 + ridge)`` on the thin SVD of ``S``;
    the default ``1e-10 tr(G)`` keeps the fit stable for nearly parallel
    trajectories.  Passing ``ridge=0`` demands a well-conditioned Gram
    matrix (``(sigma_1 / sigma_m)^2 <= 1e14``, so at most N+1 trajectories)
    and raises otherwise; a negative or non-finite ``ridge`` raises
    ``ValueError``.  ``order`` must be an integer of at least 1, since the
    identity observable is the coefficient of ``z``.  The model has
    ``k = min(m, N+1)`` eigenvalues.
    """
    _require_order(order, 1)
    if ridge is not None and not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    return _compress(*_snapshot_matrices(trajectories, order), ridge)


def _compress(basis, targets, sources, ridge) -> DmdModel:
    """The model of ``C = (S^H S + ridge I)^{-1} S^H T``, solved in rank coordinates.

    ``basis`` is ``S`` ((N+1) x m), ``targets`` is ``T`` and ``sources``
    the m orbits' digests (or orbits), as :func:`_snapshot_matrices`
    returns them; ``ridge`` is checked by :func:`fit`, or None for the
    default.  The truncation order is ``N = basis.shape[0] - 1`` and the
    identity observable is row 1 of ``S``.  The overflow error names the
    longest time span as ``max|S[0, :]|``: row 0 of an occupation kernel is
    the integral of 1, the orbit's duration.

    On C-contiguous column slices of a batch's ``S``, ``T`` and sources
    (``np.ascontiguousarray(S[:, cols])``), the model has the bytes of
    :func:`fit` on that sub-batch of orbits.  A non-contiguous slice can
    take another matmul path in ``T V`` and change the last bits.
    """
    left, sigma, right_h = np.linalg.svd(basis, full_matrices=False)
    with np.errstate(over="ignore"):
        gram_trace = float(np.sum(sigma**2))
    if not math.isfinite(gram_trace):
        # finite moments of a huge time span can still square past the
        # largest double, and the filter factors and G with them
        raise IllConditionedError(
            "the Gram matrix of the occupation kernels overflows: the trajectories "
            f"span up to {np.abs(basis[0]).max():.6g} time units; rescale time"
        )
    if ridge is None:
        ridge = 1e-10 * gram_trace
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
    eigenvalues, eigenvectors = eigenvalues[perm], eigenvectors[:, perm]

    # v = V w: S v = U diag(sigma) w and T v = (T V) w; scale to ||S v|| = 1
    modes = left @ (sigma[:, None] * eigenvectors)
    scale = np.linalg.norm(modes, axis=0)
    scale[scale == 0.0] = 1.0  # a zero mode stays unnormalized
    eigenvectors /= scale
    modes /= scale
    residuals = np.linalg.norm(targets_v @ eigenvectors - modes * eigenvalues, axis=0)

    id_coeffs = np.zeros(basis.shape[0], dtype=np.complex128)
    id_coeffs[1] = 1.0
    solution, lstsq_residual, *_ = np.linalg.lstsq(basis, id_coeffs, rcond=None)
    if lstsq_residual.size:
        identity_residual = float(np.sqrt(lstsq_residual[0]))
    else:
        identity_residual = float(np.linalg.norm(basis @ solution - id_coeffs))

    return DmdModel(
        basis=_read_only(basis),
        left_singular_vectors=_read_only(left),
        singular_values=_read_only(sigma),
        operator=_read_only(operator),
        eigenvalues=_read_only(eigenvalues),
        eigenvectors=_read_only(eigenvectors),
        modes=tuple(TaylorPolynomial(column) for column in modes.T),
        mode_residuals=_read_only(residuals),
        regularization=float(ridge),
        identity_residual=identity_residual,
        order=basis.shape[0] - 1,
        trajectories=sources,
    )


@functools.lru_cache(maxsize=16)
def _exponents(order: int) -> np.ndarray:
    # n = 0..N, the powers of z0 that predict conjugates into c; complex,
    # as power casts integer exponents to complex anyway
    return _read_only(np.arange(order + 1, dtype=np.complex128))


def predict(model: DmdModel, z0: complex, t: float | np.ndarray):
    """Forecast the state at time ``t`` for the trajectory started at ``z0``.

    Pushes the identity observable through the compressed evolution:
    coefficients of ``z0`` in rank coordinates come from the filter factors,
    the eigen-coordinates evolve by ``exp(mu t)``, and the forecast is the
    conjugated linear coefficient of the evolved combination.  At ``t = 0``
    the output is exactly the subspace reconstruction of ``z0``.

    The solve against the eigenvectors is factored once when the model is
    built, so a call costs ``N + 1`` powers of ``z0``, a k x (N+1)
    matrix-vector product, and per time ``k`` exponentials and a length-k
    dot product.  A scalar ``t`` returns a ``complex``; a 1-d array of times
    returns an array of forecasts, each with the bytes of its scalar call.
    A forecast that is not finite (far outside the data span) emits
    ``LowConfidenceWarning``.  ``z0`` obeys the rule of a trajectory's
    samples, as in :func:`~hardyliou.occupation.integrate_ode`: a start
    outside ``|z| <= 1 - DISK_MARGIN`` raises ``DiskDomainError``, and one
    that is not finite ``ValueError``.
    """
    z0 = _start_point(z0)
    if model.identity_residual > 1e-2:
        warnings.warn(
            "identity observable poorly captured by the trajectory span "
            f"(residual {model.identity_residual:.3e}); prediction is "
            "low-confidence",
            LowConfidenceWarning,
            stacklevel=2,
        )
    scalar = isinstance(t, (int, float))
    if scalar:
        times = float(t)
    else:
        times = np.asarray(t, dtype=np.float64)
        if times.ndim > 1:
            raise ValueError("t must be a real number or a 1-d array of times")
        scalar = times.ndim == 0
        # a (1, k) @ (k,) dot per time, as for a scalar: a matrix-vector
        # product would give bytes that depend on the other times
        times = float(times) if scalar else times[:, None, None]
    coords = model._forecast_map @ np.conj(z0 ** _exponents(model.order))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(times * model.eigenvalues) * coords @ model._readout
    if scalar:
        forecast = complex(values).conjugate()
        if cmath.isfinite(forecast):
            return forecast
        first, count, size = times, 1, 1
    else:
        forecast = np.conj(values[:, 0])
        finite = np.isfinite(forecast)
        if finite.all():
            return forecast
        first = float(times[np.argmin(finite), 0, 0])
        count, size = forecast.size - np.count_nonzero(finite), forecast.size
    warnings.warn(
        f"forecast is not finite at t = {first:.6g} ({count} of {size} "
        "times); t lies too far outside the data span",
        LowConfidenceWarning,
        stacklevel=2,
    )
    return forecast
