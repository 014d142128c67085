"""Trajectories, occupation kernels, and the adjoint identities they satisfy.

An occupation kernel integrates point evaluation along a trajectory: its
coefficients are the moments ``c_n = integral conj(theta(t))^n dt``.  For a
trajectory of ``zdot = f(z)`` the adjoint of the Liouville operator sends the
occupation kernel to a difference of evaluation kernels at the endpoints --
the fundamental theorem of calculus in kernel form.  These residuals are the
backbone of the data-driven identification in :mod:`hardyliou.dmd`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompositionOutOfDiskError,
    DiskDomainError,
    DiskExitError,
    InsufficientDataError,
    StepBudgetError,
    SymbolOverflowError,
    TrajectoryIngestionError,
    TrajectoryMismatchWarning,
)
from .operators import _weighted_columns, liouville_adjoint_apply
from .series import TaylorPolynomial, DEFAULT_ORDER, szego_kernel

DISK_MARGIN = 1e-3
# 100x the longest integration in the demos, tests and benchmark (10^4 steps); a
# trajectory this long already holds 24 MB of samples
MAX_RK4_STEPS = 1_000_000


def _first_invalid_sample(times: np.ndarray, points: np.ndarray):
    """``(i, reason, error type)`` for the first invalid sample, else ``None``.

    Within one sample the rules are checked in this order: finite, inside
    ``|z| <= 1 - DISK_MARGIN``, strictly after the previous time.
    """
    nonfinite = ~(np.isfinite(times) & np.isfinite(points))
    outside = np.abs(points) > 1.0 - DISK_MARGIN
    bad = nonfinite | outside | np.r_[False, times[1:] <= times[:-1]]
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if nonfinite[i]:
        return i, "is not finite", ValueError
    if outside[i]:
        return i, f"lies outside the disk (|z| = {abs(points[i]):.6g})", DiskDomainError
    return i, "breaks strict time ordering", ValueError


@dataclass(frozen=True)
class Trajectory:
    """Strictly increasing times paired with points inside the unit disk."""

    times: np.ndarray
    points: np.ndarray
    digest: str | None = None

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64, copy=True).reshape(-1)
        points = np.array(self.points, dtype=np.complex128, copy=True).reshape(-1)
        if times.size != points.size or times.size == 0:
            raise ValueError("times and points must be nonempty and aligned")
        invalid = _first_invalid_sample(times, points)
        if invalid is not None:
            raise invalid[2](f"sample {invalid[0]} {invalid[1]}")
        times.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def r_max(self) -> float:
        return float(np.max(np.abs(self.points)))

    @property
    def uniform(self) -> bool:
        if self.times.size < 3:
            return True
        gaps = np.diff(self.times)
        return bool(np.max(gaps) - np.min(gaps) <= 1e-9 * np.max(gaps))

    def content_digest(self) -> str:
        """SHA-256 of the canonical CSV serialization (or of the source file)."""
        if self.digest is not None:
            return self.digest
        return hashlib.sha256(_csv_bytes(self)).hexdigest()


@dataclass(frozen=True)
class OccupationKernel:
    """Moment series of a trajectory plus the quadrature that produced it."""

    series: TaylorPolynomial
    source: Trajectory
    quadrature: str


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

_CSV_HEADER = ["t", "re", "im"]


def _csv_bytes(trajectory: Trajectory) -> bytes:
    # one %-template over Python floats; "%.17g" matches f"{x:.17g}" exactly
    points = trajectory.points
    values = np.stack((trajectory.times, points.real, points.imag), axis=1)
    body = ("%.17g,%.17g,%.17g\n" * len(values)) % tuple(values.ravel().tolist())
    return (",".join(_CSV_HEADER) + "\n" + body).encode()


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Serialize with 17 significant digits so doubles round-trip exactly."""
    with open(path, "wb") as handle:
        handle.write(_csv_bytes(trajectory))


def _float_rows(rows: list[str]) -> np.ndarray:
    """Rows of exactly two commas each as a (rows x 3) float64 array, in one pass."""
    if not rows:
        return np.empty((0, 3))
    cells = ",".join(rows).split(",")
    return np.fromiter(map(float, cells), np.float64, len(cells)).reshape(-1, 3)


def read_trajectory_csv(path) -> Trajectory:
    """Parse and validate a ``t,re,im`` file; errors cite the earliest bad row.

    Cells are unquoted and comma-separated, and each holds anything Python's
    ``float`` accepts (padding, ``1_0``, ``inf``, ``nan``), so a quoted cell
    fails to parse.  A byte that is not UTF-8 decodes to U+FFFD, so its cell
    fails to parse too.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    lines = raw.decode("utf-8", errors="replace").splitlines()
    if not lines or [cell.strip() for cell in lines[0].split(",")] != _CSV_HEADER:
        raise TrajectoryIngestionError(
            f"{path}: first row must be the header 't,re,im'"
        )
    rows = lines[1:]
    if not rows:
        raise TrajectoryIngestionError(f"{path}: no data rows")
    # the rows before the first with the wrong field count go through one
    # float pass; only when it fails does a row loop find the row it refuses
    end = next((i for i, row in enumerate(rows) if row.count(",") != 2), len(rows))
    failure = f"row {end + 2} must have 3 fields" if end < len(rows) else None
    try:
        values = _float_rows(rows[:end])
    except ValueError:
        for end, row in enumerate(rows):
            try:
                _float_rows([row])
            except ValueError as exc:
                failure = f"row {end + 2}: {exc}"
                break
        values = _float_rows(rows[:end])
    times = values[:, 0]
    # .real/.imag keep the bytes of complex(re, im); re + 1j * im would turn
    # an infinite imaginary part into a NaN real part
    points = np.empty(len(values), dtype=np.complex128)
    points.real = values[:, 1]
    points.imag = values[:, 2]
    if failure is None:
        # Trajectory applies the validity rule; the row is found only on failure
        try:
            return Trajectory(times=times, points=points, digest=digest)
        except ValueError:
            pass
    # an invalid sample before the first unparsable row is the earlier bad row
    invalid = _first_invalid_sample(times, points)
    if invalid is not None:
        failure = f"row {invalid[0] + 2} {invalid[1]}"
    raise TrajectoryIngestionError(f"{path}: {failure}")


# ---------------------------------------------------------------------------
# integration and quadrature
# ---------------------------------------------------------------------------


def integrate_ode(
    f: TaylorPolynomial,
    z0: complex,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Classical fixed-step RK4 for ``zdot = f(z)`` from ``z0`` to ``t_final``.

    The step count is rounded to an even number so the samples feed straight
    into Simpson quadrature.  Leaving ``|z| > 1 - DISK_MARGIN`` aborts with the
    exit time; solutions of polynomial fields can blow up in finite time, so
    this is a hard error rather than a clamp.  A state that is no longer
    finite raises :class:`SymbolOverflowError` naming ``f`` instead.  More
    than ``MAX_RK4_STEPS`` steps raise :class:`StepBudgetError` before
    anything is allocated.
    """
    if not (t_final > 0 and dt > 0):
        raise ValueError("t_final and dt must be positive")
    if not t_final / dt <= MAX_RK4_STEPS:  # also true for an overflow to inf
        raise StepBudgetError(
            f"t_final / dt = {t_final / dt:.6g} exceeds the RK4 step budget "
            f"of {MAX_RK4_STEPS} steps"
        )
    z0 = complex(z0)
    invalid = _first_invalid_sample(np.zeros(1), np.array([z0]))
    if invalid is not None:
        raise invalid[2](f"z0 {invalid[1]}")
    limit = 1.0 - DISK_MARGIN
    steps = max(2, round(t_final / dt))
    if steps % 2:
        steps += 1
    h = t_final / steps
    half, sixth = 0.5 * h, h / 6.0
    # Horner from the top coefficient c_d.  A loop from 0j would first form
    # 0j * z + c_d, which is c_d bit for bit unless c_d has a -0.0 part (its
    # sign then depends on z); such a c_d, and a constant field, get a 0j
    # top so every field value keeps the bytes of the loop from 0j
    coeffs = [complex(c) for c in f.coeffs[::-1]]
    if len(coeffs) == 1 or any(
        part == 0.0 and math.copysign(1.0, part) < 0.0
        for part in (coeffs[0].real, coeffs[0].imag)
    ):
        coeffs.insert(0, 0j)
    top, second, rest = coeffs[0], coeffs[1], coeffs[2:]

    def field(z: complex) -> complex:
        acc = top * z + second
        for c in rest:
            acc = acc * z + c
        return acc

    times = np.linspace(0.0, t_final, steps + 1)
    samples = [z0]
    append = samples.append
    z = z0
    for k in range(steps):
        k1 = field(z)
        k2 = field(z + half * k1)
        k3 = field(z + half * k2)
        k4 = field(z + h * k3)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(z) <= limit:  # also true for a nan state
            if not np.isfinite(z):
                raise SymbolOverflowError(
                    f"symbol f overflows the RK4 state at t = {times[k + 1]:.6g}; "
                    "the state must stay finite"
                )
            raise DiskExitError(
                f"trajectory left |z| <= {limit:.6g} at t = {times[k + 1]:.6g}",
                exit_time=float(times[k + 1]),
            )
        append(z)
    return Trajectory(times=times, points=np.array(samples, dtype=np.complex128))


def _quadrature_weights(trajectory: Trajectory) -> tuple[np.ndarray, str]:
    times = trajectory.times
    if times.size < 3:
        raise InsufficientDataError("quadrature needs at least 3 samples")
    intervals = times.size - 1
    if trajectory.uniform and intervals % 2 == 0:
        h = trajectory.duration / intervals
        weights = np.full(times.size, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        return weights * (h / 3.0), "simpson"
    weights = np.zeros(times.size)
    gaps = np.diff(times)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    return weights, "trapezoid"


def _conj_moments(weights: np.ndarray, points: np.ndarray, count: int) -> np.ndarray:
    """``sum_t weights_t conj(points_t)^n`` for ``n < count`` in O(T) memory.

    A running product ``p <- p * conj(z)`` replaces the T x count power
    matrix; the moments agree with the ``**`` formula to rounding.
    """
    base = np.conj(points)
    term = np.array(weights, dtype=np.complex128)
    moments = np.empty(count, dtype=np.complex128)
    for n in range(count):
        moments[n] = term.sum()
        term *= base
    return moments


def occupation_kernel(
    trajectory: Trajectory, order: int = DEFAULT_ORDER
) -> OccupationKernel:
    """Moment series ``c_n = integral conj(theta)^n dt`` up to ``order``.

    Uses composite Simpson on uniform grids with an even interval count and
    the trapezoid rule otherwise; the tag records which.  Coefficients obey
    ``|c_n| <= duration * r_max^n``.
    """
    weights, tag = _quadrature_weights(trajectory)
    coeffs = _conj_moments(weights, trajectory.points, order + 1)
    return OccupationKernel(
        series=TaylorPolynomial(coeffs), source=trajectory, quadrature=tag
    )


# ---------------------------------------------------------------------------
# adjoint identities along trajectories
# ---------------------------------------------------------------------------


def field_defect(f: TaylorPolynomial, trajectory: Trajectory) -> float:
    """Central-difference defect of ``zdot = f(z)`` along the samples."""
    t, z = trajectory.times, trajectory.points
    if t.size < 3:
        return 0.0
    slopes = (z[2:] - z[:-2]) / (t[2:] - t[:-2])
    return float(np.max(np.abs(slopes - np.asarray(f(z[1:-1])))))


def _warn_on_mismatch(f: TaylorPolynomial, trajectory: Trajectory) -> None:
    # second-order finite differences on an RK4 trajectory leave an
    # O(dt^2) defect; 10*dt^2 separates that from a wrong vector field
    if trajectory.times.size < 3:
        return
    dt = float(np.max(np.diff(trajectory.times)))
    defect = field_defect(f, trajectory)
    if defect > 10.0 * dt * dt:
        warnings.warn(
            f"trajectory does not follow the claimed field "
            f"(finite-difference defect {defect:.3e} > {10 * dt * dt:.3e})",
            TrajectoryMismatchWarning,
            stacklevel=3,
        )


def endpoint_kernel_difference(
    trajectory: Trajectory,
    order: int = DEFAULT_ORDER,
    phi: TaylorPolynomial | None = None,
) -> TaylorPolynomial:
    """``K_{gamma(T)} - K_{gamma(0)}``, the target of the adjoint identity.

    With ``phi`` the kernels sit at the composed endpoints ``phi(gamma(T))``
    and ``phi(gamma(0))``, the target of the weighted identities.
    """
    start, end = trajectory.points[0], trajectory.points[-1]
    if phi is not None:
        start, end = phi(start), phi(end)
    return TaylorPolynomial(
        szego_kernel(end, order).coeffs - szego_kernel(start, order).coeffs
    )


def liouville_occupation_residual(
    f: TaylorPolynomial, trajectory: Trajectory, order: int = DEFAULT_ORDER
) -> float:
    """Defect of ``A_f* Gamma = K_end - K_start`` through the matrix adjoint.

    ``A_f*`` is the conjugate transpose of the truncated matrix, applied as
    the banded stencil :func:`liouville_adjoint_apply`.

    Warns (without failing) when the samples do not actually follow ``f``;
    the returned residual is then meaningless and large.
    """
    _warn_on_mismatch(f, trajectory)
    gamma = occupation_kernel(trajectory, order).series
    lhs = liouville_adjoint_apply(f, gamma, order)
    rhs = endpoint_kernel_difference(trajectory, order)
    return float(np.linalg.norm(lhs.coeffs - rhs.coeffs))


def weighted_occupation_residual(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    trajectory: Trajectory,
    order: int = DEFAULT_ORDER,
) -> float:
    """Defect of the weighted identity with composed endpoint kernels.

    ``A_{f,phi}* Gamma = K_{phi(gamma(T))} - K_{phi(gamma(0))}`` for
    trajectories of ``zdot = f(z)``; requires ``phi`` to keep the samples
    inside the disk.
    """
    _warn_on_mismatch(f, trajectory)
    top = float(np.max(np.abs(phi(trajectory.points))))
    if top >= 1.0:
        raise CompositionOutOfDiskError(
            f"phi maps a sample to |w| = {top:.6g} >= 1"
        )
    gamma = occupation_kernel(trajectory, order).series.coeffs
    # (A* Gamma)_n = <column n, Gamma>: no (N+1)^2 matrix
    lhs = np.zeros(order + 1, dtype=np.complex128)
    for n, column in _weighted_columns(f, phi, order):
        lhs[n] = np.vdot(column, gamma)
    rhs = endpoint_kernel_difference(trajectory, order, phi)
    return float(np.linalg.norm(lhs - rhs.coeffs))


def adjoint_on_signal(
    f: TaylorPolynomial, trajectory: Trajectory, order: int = DEFAULT_ORDER
) -> TaylorPolynomial:
    """Adjoint action on the occupation kernel of an arbitrary signal.

    The signal need not solve any ODE.  Coefficient ``n`` is
    ``n * integral conj(f(theta(t))) conj(theta(t))^(n-1) dt``: the kernel
    point of the first-derivative kernel rides along the signal.  Matches
    the conjugate-transpose oracle applied to the occupation kernel.
    """
    weights, _ = _quadrature_weights(trajectory)
    fbar = np.conj(np.asarray(f(trajectory.points)))
    moments = _conj_moments(weights * fbar, trajectory.points, order)
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[1:] = np.arange(1, order + 1) * moments
    return TaylorPolynomial(coeffs)
