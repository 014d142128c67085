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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DiskDomainError,
    DiskExitError,
    InsufficientDataError,
    StepBudgetError,
    SymbolOverflowError,
    TrajectoryIngestionError,
    TrajectoryMismatchWarning,
)
from .operators import _row_norms, _weighted_columns, liouville_adjoint_apply
from .series import (
    DEFAULT_ORDER,
    TaylorPolynomial,
    _composed_points,
    _modulus,
    _read_only,
    _require_order,
    szego_kernel,
)

DISK_MARGIN = 1e-3
# 100x the longest integration in the demos, tests and benchmark (10^4 steps); a
# trajectory this long already holds 24 MB of samples
MAX_RK4_STEPS = 1_000_000


def _first_invalid_sample(times: np.ndarray, points: np.ndarray):
    """``(i, reason, error type)`` for the first invalid sample, else ``None``.

    Within one sample the rules are checked in this order: finite, inside
    ``|z| <= 1 - DISK_MARGIN``, strictly after the previous time, and a
    finite time span ``t - t_0`` from the first sample.
    """
    nonfinite = ~(np.isfinite(times) & np.isfinite(points))
    outside = _modulus(points) > 1.0 - DISK_MARGIN
    unordered = np.r_[False, times[1:] <= times[:-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(times - times[:1])
    bad = nonfinite | outside | unordered | wide
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if nonfinite[i]:
        return i, "is not finite", ValueError
    if outside[i]:
        return i, f"lies outside the disk (|z| = {abs(points[i]):.6g})", DiskDomainError
    if unordered[i]:
        return i, "breaks strict time ordering", ValueError
    return i, "has a time span from the first sample that is not finite", ValueError


def _invalid_start(z0: complex):
    """``_first_invalid_sample`` of ``z0`` as a trajectory's one sample.

    A scalar test passes a valid start first, as the array rule costs about
    as much as a whole forecast.
    """
    try:
        if abs(z0) <= 1.0 - DISK_MARGIN:  # false for a nan part
            return None
    except OverflowError:  # finite parts near the largest double
        pass
    return _first_invalid_sample(np.zeros(1), np.array([z0]))


def _start_point(z0) -> complex:
    """``complex(z0)``; raises as a trajectory whose first sample is ``z0`` would."""
    z0 = complex(z0)
    invalid = _invalid_start(z0)
    if invalid is not None:
        raise invalid[2](f"z0 {invalid[1]}")
    return z0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Strictly increasing times paired with points inside the unit disk."""

    times: np.ndarray
    points: np.ndarray
    # content_digest(): the sha256 of the file read_trajectory_csv parsed, or
    # of the canonical CSV bytes; not an __init__ field, so replace() drops it
    _digest: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # _read_only: the arrays can never be made writable again, so the
        # stored digest of the samples never goes stale
        times = _read_only(np.array(self.times, dtype=np.float64, copy=True).reshape(-1))
        points = _read_only(np.array(self.points, dtype=np.complex128, copy=True).reshape(-1))
        if times.size != points.size or times.size == 0:
            raise ValueError("times and points must be nonempty and aligned")
        invalid = _first_invalid_sample(times, points)
        if invalid is not None:
            raise invalid[2](f"sample {invalid[0]} {invalid[1]}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def content_digest(self) -> str:
        """SHA-256 of the source file, else of the canonical CSV serialization.

        A trajectory from :func:`read_trajectory_csv` keeps the digest of
        the file's bytes.  Any other formats its canonical bytes at most
        once: the first call, or :func:`write_trajectory_csv`, keeps their
        digest on the object, and later calls return it.
        """
        if self._digest is None:
            _keep_digest(self, _csv_bytes(self))
        return self._digest


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


# "%.17g" without a Python call per cell.  A cell with 1e-5 <= |x| < 2**52 has a
# decimal exponent E in [-5, 15], so x * 10**(16 - E) needs only the exact
# doubles 10**1 .. 10**21 (10**22 serves a first estimate of E one too low),
# and Dekker's two-product gives that product exactly, as p + lo.  Rounded half to even it is the 17 significant digits.  In this
# range the exact product stays more than 8 below 10**17 (the largest double
# below each power of ten is that far from it), so the rounding never carries
# into the next decade.  Zeros take this route too; every other cell is
# formatted by the template itself (``_g17_cells``).
_POW10 = 10.0 ** np.arange(23)
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1


def _dekker_split(a):
    """``a = hi + lo`` with 26-bit halves, so products of halves are exact."""
    c = _DEKKER_SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _dekker_split(_POW10)
# the four ASCII digits of each of 0..9999 (one column each), and how many of
# them are trailing zeros
_QUADS = (np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10 + 48).astype(np.uint8)
_QUAD_TRAILING_ZEROS = sum((np.arange(10000) % 10**k == 0).astype(np.int8) for k in range(1, 5))
# a cell is one column of a byte matrix: sign, the "0.000" of 1e-4 <= |x| < 1,
# 17 digits with the point among them, exponent, delimiter; NUL bytes are dropped
_CELL_WIDTH = 29
_ROWS = np.arange(18, dtype=np.int8)[:, None]
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_BELOW = np.array([0, 0, -1, -2, -3], np.int8)[:, None]
_EXPONENT = np.frombuffer(b"e-05", np.uint8)[:, None]  # the only one in range
_DELIMITERS = np.frombuffer(b",,\n", np.uint8)
# rows per call of the formatter, whose temporaries then peak near 3 MB
_ROWS_PER_CHUNK = 4096


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """``a * 10**k`` exactly, as the pair ``p + lo`` (Dekker's two-product)."""
    p = a * _POW10[k]
    ah, al = _dekker_split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _g17_cells(cells: list[float]) -> bytes:
    """``"%.17g"`` of each cell, NUL-padded to one column of the byte matrix."""
    return b"".join(("%.17g" % x).encode().ljust(_CELL_WIDTH - 1, b"\0") for x in cells)


def _g17_rows(values: np.ndarray) -> bytes:
    """``"%.17g,%.17g,%.17g\\n" % row`` for every row of a (rows x 3) float64 array."""
    x = values.reshape(-1)
    n = x.size
    mag = np.abs(x)
    fast = (mag >= 1e-5) & (mag < 2.0**52)
    zero = mag == 0
    a = np.where(fast, mag, 1.0)  # a stand-in for the cells formatted elsewhere
    # log10 can miss E by one next to a power of ten; the exact product, not
    # its rounding, must lie in [1e16, 1e17)
    e = np.floor(np.log10(a)).astype(np.int64)
    while True:
        p, lo = _times_pow10(a, 16 - e)
        # (p - c) + lo has the sign of p + lo - c: exact near c (Sterbenz), and
        # far from it |lo| is too small to flip the sign
        step = ((p - 1e17) + lo >= 0).astype(np.int64) - ((p - 1e16) + lo < 0)
        if not step.any():
            break
        e += step
    # p >= 1e16 is an even integer, so rint(lo) rounds p + lo half to even
    rest = p.astype(np.int64) + np.rint(lo).astype(np.int64)
    quads = np.empty((5, n), np.int64)  # the 17 digits as 1 + 4 x 4
    for k, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        quads[k] = rest // scale
        rest -= quads[k] * scale
    quads[4] = rest
    quads[0, zero] = 0
    trailing = _QUAD_TRAILING_ZEROS[quads[4]]
    run = quads[4] == 0
    for k in (3, 2, 1):
        trailing += run * _QUAD_TRAILING_ZEROS[quads[k]]
        run &= quads[k] == 0
    significant = 17 - trailing
    fixed = e >= -4
    point = np.where(fixed, e, 0).astype(np.int8)  # digits before the point, less one
    digits = np.take(_QUADS, quads, axis=1).transpose(1, 0, 2).reshape(20, n)[3:]
    digits *= _ROWS[:17] < np.maximum(significant, point + 1)
    at = np.where((point >= 0) & (significant > point + 1), point + 1, 99).astype(np.int8)
    before = _ROWS[:17] < at

    out = np.zeros((_CELL_WIDTH, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = (point < _PREFIX_BELOW) * _PREFIX
    out[6:23] = digits * before
    out[7:24] += digits * ~before
    out[6:24] += (_ROWS == at) * np.uint8(46)
    out[24:28] = ~fixed * _EXPONENT
    out[28].reshape(-1, 3)[:] = _DELIMITERS
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        padded = np.frombuffer(_g17_cells(x[slow].tolist()), np.uint8)
        out[:-1, slow] = padded.reshape(-1, _CELL_WIDTH - 1).T
    return out.T.tobytes().translate(None, b"\0")


def _csv_bytes(trajectory: Trajectory) -> bytes:
    # the same bytes as f"{x:.17g}" per cell, from the vectorised formatter
    points = trajectory.points
    values = np.stack((trajectory.times, points.real, points.imag), axis=1)
    chunks = range(0, len(values), _ROWS_PER_CHUNK)
    body = b"".join(_g17_rows(values[i : i + _ROWS_PER_CHUNK]) for i in chunks)
    return (",".join(_CSV_HEADER) + "\n").encode() + body


def _keep_digest(trajectory: Trajectory, data: bytes) -> Trajectory:
    object.__setattr__(trajectory, "_digest", hashlib.sha256(data).hexdigest())
    return trajectory


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Serialize with 17 significant digits so doubles round-trip exactly.

    A trajectory without a digest keeps the digest of the bytes written, so
    :meth:`Trajectory.content_digest` never formats them again; one read
    from a file keeps that file's digest.
    """
    data = _csv_bytes(trajectory)
    if trajectory._digest is None:
        _keep_digest(trajectory, data)
    with open(path, "wb") as handle:
        handle.write(data)


def _float_rows(rows: list[str]) -> tuple[np.ndarray, str | None]:
    """The rows before the first bad one by ``float``, and that row's message.

    A bad row has the wrong field count or a cell ``float`` refuses; rows
    are numbered from 2, after the header.  The message is ``None`` when
    every row parses.
    """
    values, failure = [], None
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 3:
            failure = f"row {i + 2} must have 3 fields"
            break
        try:
            values.append([float(cell) for cell in cells])
        except ValueError as exc:
            failure = f"row {i + 2}: {exc}"
            break
    return np.array(values, dtype=np.float64).reshape(-1, 3), failure


def _c_float_rows(text: str, rows: list[str]) -> np.ndarray | None:
    """``rows`` as a (rows x 3) array by NumPy's C reader, or ``None``.

    The C reader converts each cell with the routine ``float`` uses, so an
    array with one row per line holds ``float``'s bytes.  It differs only in
    what it accepts: it strips U+001F as padding and skips blank lines, which
    ``float`` refuses, and it refuses underscores and non-ASCII digits, which
    ``float`` accepts.  Each of these gives ``None``, and the caller falls
    back to ``float``.
    """
    if "\x1f" in text:
        return None
    with warnings.catch_warnings():
        # an all-blank input warns "input contained no data"
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2
            )
        except (ValueError, Warning):
            return None
    return values if values.shape == (len(rows), 3) else None


def read_trajectory_csv(path) -> Trajectory:
    """Parse and validate a ``t,re,im`` file; errors cite the earliest bad row.

    Cells are unquoted and comma-separated, and each holds anything Python's
    ``float`` accepts (padding, ``1_0``, ``inf``, ``nan``), so a quoted cell
    fails to parse.  A byte that is not UTF-8 decodes to U+FFFD, so its cell
    fails to parse too.  NumPy's C reader parses a file of plain ASCII cells;
    any other file takes a row-by-row path with the same result.  Its
    :meth:`~Trajectory.content_digest` is the sha256 of the file's bytes.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    text = raw.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if not lines or [cell.strip() for cell in lines[0].split(",")] != _CSV_HEADER:
        raise TrajectoryIngestionError(
            f"{path}: first row must be the header 't,re,im'"
        )
    rows = lines[1:]
    if not rows:
        raise TrajectoryIngestionError(f"{path}: no data rows")
    failure = None
    values = _c_float_rows(text, rows)
    if values is None:
        values, failure = _float_rows(rows)
    times = values[:, 0]
    # .real/.imag keep the bytes of complex(re, im); re + 1j * im would turn
    # an infinite imaginary part into a NaN real part
    points = np.empty(len(values), dtype=np.complex128)
    points.real = values[:, 1]
    points.imag = values[:, 2]
    if failure is None:
        # Trajectory applies the validity rule; the row is found only on failure
        try:
            return _keep_digest(Trajectory(times=times, points=points), raw)
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
    anything is allocated.  The four stages are evaluated inline, bit for bit
    as the Horner loop from ``0j``.
    """
    if not (t_final > 0 and dt > 0):
        raise ValueError("t_final and dt must be positive")
    if not t_final / dt <= MAX_RK4_STEPS:  # also true for an overflow to inf
        raise StepBudgetError(
            f"t_final / dt = {t_final / dt:.6g} exceeds the RK4 step budget "
            f"of {MAX_RK4_STEPS} steps"
        )
    z0 = _start_point(z0)
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
    times = np.linspace(0.0, t_final, steps + 1)
    samples = [z0]
    append = samples.append
    z = z0
    overflow = (
        "symbol f overflows the RK4 state at t = {:.6g}; the state must stay finite"
    )
    try:
        for k in range(steps):
            # the stages inline, each the Horner expression above: a call per
            # stage cost more than its arithmetic
            if not rest:  # constant and affine fields: no inner loop
                k1 = top * z + second
                k2 = top * (z + half * k1) + second
                k3 = top * (z + half * k2) + second
                k4 = top * (z + h * k3) + second
            else:
                k1 = top * z + second
                for c in rest:
                    k1 = k1 * z + c
                y = z + half * k1
                k2 = top * y + second
                for c in rest:
                    k2 = k2 * y + c
                y = z + half * k2
                k3 = top * y + second
                for c in rest:
                    k3 = k3 * y + c
                y = z + h * k3
                k4 = top * y + second
                for c in rest:
                    k4 = k4 * y + c
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not abs(z) <= limit:  # also true for a nan state
                if not np.isfinite(z):
                    raise SymbolOverflowError(overflow.format(times[k + 1]))
                raise DiskExitError(
                    f"trajectory left |z| <= {limit:.6g} at t = {times[k + 1]:.6g}",
                    exit_time=float(times[k + 1]),
                )
            append(z)
    # abs() of a finite state with parts near 1e308 raises OverflowError
    except OverflowError as exc:
        raise SymbolOverflowError(overflow.format(times[k + 1])) from exc
    return Trajectory(times=times, points=np.array(samples, dtype=np.complex128))


def _require_quadrature(samples: int) -> None:
    """The floor of every quadrature rule here: at least 3 samples."""
    if samples < 3:
        raise InsufficientDataError("quadrature needs at least 3 samples")


def _quadrature_rows(times: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the quadrature weights of each row of ``times`` (rows x T) to the
    zeros in ``out``; returns the mask of rows that take composite Simpson.

    A row takes Simpson when its gaps agree to 1e-9 of the largest and their
    count is even, and the trapezoid rule otherwise.  Each row gets the bytes
    of that row alone, and beyond ``times`` and ``out`` one (rows x T)
    temporary is live at a time.
    """
    samples = times.shape[1]
    _require_quadrature(samples)
    gaps = np.diff(times, axis=1)
    top = gaps.max(axis=1)
    simpson = (top - gaps.min(axis=1) <= 1e-9 * top) & (samples % 2 == 1)
    np.multiply(gaps, 0.5, out=gaps)  # trapezoid on every row ...
    out[:, :-1] += gaps
    out[:, 1:] += gaps
    del gaps
    h = (times[simpson, -1] - times[simpson, 0]) / (samples - 1)
    pattern = np.full(samples, 2.0)
    pattern[1::2] = 4.0
    pattern[0] = pattern[-1] = 1.0
    out[simpson] = pattern * (h / 3.0)[:, None]  # ... then Simpson on its rows
    return simpson


# bytes of running product per block of _conj_moments, 32 rows of 1001 samples:
# enough rows that NumPy's per-call cost is shared, few enough to stay in cache
# (blocks of 8 and 64 such rows were slower, one thread of a two-core x86)
_MOMENT_BLOCK_BYTES = 512 * 1024


def _moment_block_rows(samples: int) -> int:
    """Rows per block of :func:`_conj_moments` for orbits of ``samples`` samples."""
    return max(1, _MOMENT_BLOCK_BYTES // (16 * samples))


def _conj_moments(trajectories, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``sum_t w_t conj(points_t)^n`` for ``n < count``, one row per trajectory,
    and the mask of the trajectories whose weights ``w`` are Simpson's.

    The trajectories share one sample count and form one block: a caller
    passes at most :func:`_moment_block_rows` of them, so the running
    product holds about ``_MOMENT_BLOCK_BYTES``.  The block stacks its
    times and takes all its weights ``w`` from one :func:`_quadrature_rows`
    call, then a running product ``p <- p * conj(z)`` replaces the
    T x count power matrix, so memory is O(rows x T), not O(rows x T x count).
    Each row is the same pairwise sum of the same products as a block of
    one row, bit for bit, and agrees with the ``**`` formula to rounding.
    """
    rows, samples = len(trajectories), trajectories[0].points.size
    moments = np.empty((rows, count), dtype=np.complex128)
    term = np.zeros((rows, samples), dtype=np.complex128)
    times = np.concatenate([t.times for t in trajectories]).reshape(rows, samples)
    simpson = _quadrature_rows(times, term.real)
    del times
    base = np.concatenate([t.points for t in trajectories]).reshape(rows, samples)
    np.conj(base, out=base)
    for n in range(count):
        moments[:, n] = term.sum(axis=1)
        term *= base
    return moments, simpson


# relative to the Cauchy-Schwarz bound ||S_r|| ||S_j|| on <Gamma_j, Gamma_r>;
# the two routes agreed to 1e-14 of that bound up to N = 4096 on orbits out
# to |z| = 0.998 (tests/test_dmd.py)
_REPRODUCTION_RTOL = 1e-12


def _reproduction_gap(
    trajectory: Trajectory, basis, column: int = 0
) -> tuple[float, float]:
    """``(residual, tolerance)`` of the reproducing property of occupation
    kernels, ``<g, Gamma_r> = sum_t w_t g(gamma_r(t))``, on a batch's basis.

    ``basis`` is ``S`` ((N+1) x m): column j holds the moments
    (:func:`_conj_moments`) of orbit j, and column r = ``column`` those of
    ``trajectory``, gamma_r.  For j in {r, m // 2, m - 1} two routes give
    ``<Gamma_j, Gamma_r>``: the Gram entry ``(S^H S)_rj``, a sum over the
    N + 1 coefficients, and the quadrature ``sum_t w_t Gamma_j(gamma_r(t))``
    with gamma_r's weights ``w`` (:func:`_quadrature_rows`), each
    ``Gamma_j`` evaluated on gamma_r's samples by Horner's rule.  The
    residual is the largest gap; the tolerance is
    ``1e-12 ||S_r|| max_j ||S_j||``.  A shifted power in the moments breaks
    the identity, and so does a dropped conjugate unless gamma_r is real.
    The cost is O(N T) for the T samples of gamma_r.  A basis entry that is
    not finite makes the residual or the tolerance not finite.
    """
    columns = sorted({column, basis.shape[1] // 2, basis.shape[1] - 1})
    picked = basis[:, columns]
    weights = np.zeros((1, trajectory.times.size))
    _quadrature_rows(trajectory.times[None, :], weights)
    values = np.zeros((len(columns), trajectory.points.size), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in picked[::-1, :, None]:  # Horner, every picked column at once
            values *= trajectory.points
            values += row
        gaps = np.abs(basis[:, column].conj() @ picked - values @ weights[0])
        norms = np.linalg.norm(picked, axis=0)
        tolerance = _REPRODUCTION_RTOL * norms[columns.index(column)] * np.max(norms)
    return float(np.max(gaps)), float(tolerance)


def occupation_kernel(
    trajectory: Trajectory, order: int = DEFAULT_ORDER
) -> OccupationKernel:
    """Moment series ``c_n = integral conj(theta)^n dt`` up to ``order``.

    Uses composite Simpson on uniform grids with an even interval count and
    the trapezoid rule otherwise; the tag records which.  Coefficients obey
    ``|c_n| <= duration * max|theta|^n``.  ``order`` must be at least 0.
    """
    _require_order(order)
    moments, simpson = _conj_moments([trajectory], order + 1)
    return OccupationKernel(
        series=TaylorPolynomial(moments[0]),
        source=trajectory,
        quadrature="simpson" if simpson[0] else "trapezoid",
    )


# ---------------------------------------------------------------------------
# adjoint identities along trajectories
# ---------------------------------------------------------------------------


def field_defect(f: TaylorPolynomial, trajectory: Trajectory) -> float:
    """Central-difference defect of ``zdot = f(z)`` along the samples; inf
    or nan when ``f`` overflows on them."""
    t, z = trajectory.times, trajectory.points
    if t.size < 3:
        return 0.0
    slopes = (z[2:] - z[:-2]) / (t[2:] - t[:-2])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(slopes - np.asarray(f(z[1:-1])))))


def _warn_on_mismatch(f: TaylorPolynomial, trajectory: Trajectory) -> None:
    # second-order finite differences on an RK4 trajectory leave an
    # O(dt^2) defect; 10*dt^2 separates that from a wrong vector field
    if trajectory.times.size < 3:
        return
    dt = float(np.max(np.diff(trajectory.times)))
    defect = field_defect(f, trajectory)
    if not defect <= 10.0 * dt * dt:  # also true for a nan defect
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
    and ``phi(gamma(0))``, the target of the weighted identities.  The
    endpoints and ``order`` obey the rules of
    :func:`~hardyliou.series.kernel`, end point first.
    """
    start, end = trajectory.points[0], trajectory.points[-1]
    if phi is not None:
        start, end = phi(start), phi(end)
    k_end, k_start = szego_kernel(end, order), szego_kernel(start, order)
    return TaylorPolynomial(k_end.coeffs - k_start.coeffs)


def _defect_norm(defect: np.ndarray) -> float:
    """``||defect||_2``, also for a finite defect whose squares overflow
    (a time span near 1e300 gives one): see :func:`_row_norms`."""
    return float(_row_norms(defect[None])[0])


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
    return _defect_norm(lhs.coeffs - rhs.coeffs)


def weighted_occupation_residual(
    f: TaylorPolynomial,
    phi: TaylorPolynomial,
    trajectory: Trajectory,
    order: int = DEFAULT_ORDER,
) -> float:
    """Defect of the weighted identity with composed endpoint kernels.

    ``A_{f,phi}* Gamma = K_{phi(gamma(T))} - K_{phi(gamma(0))}`` for
    trajectories of ``zdot = f(z)``; requires ``phi`` to keep the samples
    in ``|w| < 1`` (:class:`CompositionOutOfDiskError`).
    """
    _warn_on_mismatch(f, trajectory)
    _composed_points(phi, trajectory.points)
    gamma = occupation_kernel(trajectory, order).series.coeffs
    # (A* Gamma)_n = <column n, Gamma>: no (N+1)^2 matrix
    lhs = np.zeros(order + 1, dtype=np.complex128)
    for n, column in _weighted_columns(f, phi, order):
        lhs[n] = np.vdot(column, gamma)
    rhs = endpoint_kernel_difference(trajectory, order, phi)
    return _defect_norm(lhs - rhs.coeffs)
