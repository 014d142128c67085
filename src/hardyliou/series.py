"""Truncated power-series arithmetic on the Hardy space of the unit disk.

Analytic functions with square-summable Taylor coefficients are represented
by truncated coefficient vectors.  The inner product is the coefficient sum
``<g, h> = sum_n g_n * conj(h_n)``, so the monomials are an orthonormal
basis and the norm of a truncation is the Euclidean norm of its
coefficients.

Conventions used throughout the package:

* every operation takes an explicit truncation order ``N`` (the default is
  ``DEFAULT_ORDER``) and returns a new immutable value;
* boundary sampling uses ``M`` uniform points on the circle with
  ``M >= 2N + 2`` so that projection back onto the first ``N + 1``
  nonnegative Fourier modes is alias-free;
* every truncation order passes one rule, :func:`_require_order`, before
  anything is allocated; an order that is not an integer or too small
  raises :class:`InvalidIndexError`;
* every value and result type holds its arrays through :func:`_read_only`,
  so none can be made writable again, and every "must be finite" check of
  an array is :func:`_finite`.

The tail bounds :func:`geometric_tail` and :func:`kernel_tail` are exported
but have no caller yet: no tolerance in the package is derived from them
(ROADMAP.md's open items plan their callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import (
    AliasingError,
    CompositionOutOfDiskError,
    DiskDomainError,
    InvalidIndexError,
    InvalidKernelSpecError,
    LogDomainError,
    SingularSymbolError,
)

DEFAULT_ORDER = 64


def default_boundary_size(order: int) -> int:
    """Smallest power of two with at least ``4 * (order + 1)`` samples."""
    size = 1
    while size < 4 * (order + 1):
        size *= 2
    return size


def unit_circle_points(size: int) -> np.ndarray:
    """The ``size`` uniform samples ``exp(2i*pi*m/size)`` of the circle."""
    return np.exp(2j * np.pi * np.arange(size) / size)


def _integer_order(order, error=InvalidIndexError) -> int:
    """``order`` itself; raises ``error`` unless it is an int or a NumPy integer.

    A ``bool`` is refused, and so is an integral float such as ``2.0``.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise error(f"order must be an integer, got {order!r}")
    return order


def _require_order(order: int, least: int = 0) -> None:
    """Raise :class:`InvalidIndexError` unless the truncation ``order`` is an
    integer (:func:`_integer_order`) of at least ``least``."""
    if not _integer_order(order) >= least:
        raise InvalidIndexError(f"order must be at least {least}, got {order!r}")


def require_grid(size: int, minimum: int, what: str) -> None:
    """Raise :class:`AliasingError` when ``size`` samples cannot resolve ``what``."""
    if size < minimum:
        raise AliasingError(
            f"grid of {size} points cannot resolve {what}; need at least {minimum}"
        )


def _finite(values, what: str = "values"):
    """``values`` itself; raises ValueError ("``what`` must be finite")
    when one of them is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that can never be written; nothing is copied.

    NumPy lets an array that owns its memory be made writable again, but not
    a view of a read-only owner, so the owner and ``array`` are both frozen.
    """
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    owner.setflags(write=False)
    array.setflags(write=False)
    return array.view()


def complex_pairs(values) -> list:
    """JSON form of complex values: each becomes ``[re, im]``, shape kept."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def json_text(value) -> str:
    """Strict JSON text of a report or model, ending in a newline.

    Byte for byte ``json.dumps(value, sort_keys=True, indent=2)``, except
    that a non-finite float is written as the string ``"nan"``,
    ``"infinite"`` or ``"-infinite"``: RFC 8259 has no NaN or Infinity.
    """
    return _json(value, "\n") + "\n"


def _json(value, pad):
    # pad is the newline and indentation of the line that holds value
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        if math.isnan(value):
            return '"nan"'
        return '"infinite"' if value > 0 else '"-infinite"'
    inner = pad + "  "
    if isinstance(value, dict):
        parts = [f"{_escape(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        text = _number_nest(value, pad) if type(value) is list else None
        if text is not None:
            return text
        parts = [_json(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + pad + brackets[1]


def _number_nest(value, pad):
    # one C-level repr formats a nonempty list nest whose leaves are all
    # finite floats or ints at one depth.  Between two siblings k levels
    # above the leaves it writes "]"*k + ", " + "["*k, which becomes the
    # closing lines, the comma and the opening lines with their indentation.
    # None for any other list
    level, depth = value, 1
    while True:
        kinds = set(map(type, level))
        if kinds and kinds <= {float, int}:
            break
        if kinds != {list} or not all(level):
            return None
        level = list(chain.from_iterable(level))
        depth += 1
    del level  # the flattened copy goes before the text is built
    text = repr(value)
    if "n" in text:  # nan or inf
        return None
    splices = []
    close, open_ = "", pad + "  " * depth
    for k in range(depth):  # from the innermost level out
        splices.append(("]" * k + ", " + "[" * k, close + "," + open_))
        indent = pad + "  " * (depth - 1 - k)
        close, open_ = close + indent + "]", indent + "[" + open_
    text = text[depth:-depth]
    for old, new in reversed(splices):  # a longer pattern holds the shorter ones
        text = text.replace(old, new)
    return open_[len(pad) :] + text + close


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TaylorPolynomial:
    """Truncated series ``sum_{n<=N} c_n z^n`` with finite coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a TaylorPolynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", _read_only(_finite(arr, "coefficients")))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """Evaluate by Horner's rule; accepts scalars or arrays."""
        zarr = np.asarray(z, dtype=np.complex128)
        out = np.full(zarr.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * zarr + c
        return complex(out) if out.shape == () else out

    def truncated(self, order: int) -> "TaylorPolynomial":
        """Coefficients re-cut to ``order`` (zero padded when extending)."""
        _require_order(order)
        out = np.zeros(order + 1, dtype=np.complex128)
        keep = min(order, self.order) + 1
        out[:keep] = self.coeffs[:keep]
        return TaylorPolynomial(out)


def monomial(degree: int, order: int | None = None) -> TaylorPolynomial:
    """The monomial ``z**degree``, optionally padded to ``order >= degree >= 0``."""
    if not degree >= 0:
        raise InvalidIndexError(f"degree must be at least 0, got {degree!r}")
    order = degree if order is None else order
    _require_order(order, degree)
    out = np.zeros(order + 1, dtype=np.complex128)
    out[degree] = 1.0
    return TaylorPolynomial(out)


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Samples of a circle function at the uniform angles ``2*pi*m/M``."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a BoundaryGrid needs at least one sample")
        object.__setattr__(self, "values", _read_only(_finite(arr, "samples")))

    @property
    def size(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# inner product and kernels
# ---------------------------------------------------------------------------


def inner_product(g: TaylorPolynomial, h: TaylorPolynomial) -> complex:
    """Coefficient inner product ``sum g_n conj(h_n)``; shorter side padded."""
    n = min(g.coeffs.size, h.coeffs.size)
    return complex(np.sum(g.coeffs[:n] * np.conj(h.coeffs[:n])))


def norm(g: TaylorPolynomial) -> float:
    """Hardy-space norm of the truncation (Euclidean coefficient norm)."""
    return float(np.linalg.norm(g.coeffs))


def _open_disk(top: float, error: type, message: str) -> None:
    """The open-disk rule: raise ``error(message.format(top))`` unless ``top = max|v| < 1``."""
    if not top < 1.0:  # also true for a NaN
        raise error(message.format(top))


def _modulus(values) -> np.ndarray:
    """``|v|`` of each complex ``v``, with the bytes of Python's ``abs``.

    Every disk rule measures with this, or with ``abs`` on one scalar: both
    are libm ``hypot``.  ``np.abs`` differs from them in the last bit for
    about half of the points near ``|v| = 0.999``, and ``math.hypot`` near
    the circle, so one point could pass one rule and fail another.
    """
    values = np.asarray(values)
    return np.hypot(values.real, values.imag)


def _kernel_point(w, what: str = "kernel point") -> complex:
    """``complex(w)``, the point of an evaluation kernel (or ``what``); needs ``|w| < 1``."""
    w = complex(w)
    try:
        top = abs(w)
    except OverflowError:  # finite parts whose modulus passes the largest double
        top = math.inf
    _open_disk(top, DiskDomainError, what + " must satisfy |w| < 1, got |w| = {}")
    return w


def _composed_points(phi: TaylorPolynomial, points):
    """``phi(points)``, all in ``|w| < 1`` (:class:`CompositionOutOfDiskError`); NaN fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = phi(points)
    top = float(np.max(_modulus(values)))
    _open_disk(top, CompositionOutOfDiskError, "phi must map into |w| < 1, got max |phi| = {:.6g}")
    return values


def _szego_columns(points, order: int) -> np.ndarray:
    """``conj(w)^n`` for ``n = 0..order``, one column per (unchecked) point ``w``."""
    return np.conj(points) ** np.arange(order + 1)[:, None]


def kernel(w: complex, j: int, order: int = DEFAULT_ORDER) -> TaylorPolynomial:
    """Truncated point-evaluation kernel for ``<h, kernel> = h^(j)(w)``.

    The ``j``-th derivative kernel has coefficients
    ``n!/(n-j)! * conj(w)^(n-j)`` for ``n >= j``; ``j = 0`` is the geometric
    kernel ``1/(1 - conj(w) z)``.  ``w`` is checked by :func:`_kernel_point`;
    an ``order`` that is not an integer (:func:`_integer_order`) or below
    ``j`` raises :class:`InvalidKernelSpecError`.
    """
    w = _kernel_point(w)
    j = int(j)
    if j < 0:
        raise InvalidKernelSpecError("derivative order must be nonnegative")
    if j > _integer_order(order, InvalidKernelSpecError):
        raise InvalidKernelSpecError(
            f"derivative order {j} exceeds truncation order {order}"
        )
    coeffs = np.zeros(order + 1, dtype=np.complex128)
    coeffs[j:] = _szego_columns(w, order - j)[:, 0]
    if j:
        falling = np.ones(order + 1 - j)
        for i in range(j):
            falling *= np.arange(j, order + 1) - i
        coeffs[j:] *= falling
    return TaylorPolynomial(coeffs)


def szego_kernel(w: complex, order: int = DEFAULT_ORDER) -> TaylorPolynomial:
    """Geometric evaluation kernel at ``w`` (see :func:`kernel`)."""
    return kernel(w, 0, order)


def derivative_kernel(
    w: complex, order: int = DEFAULT_ORDER
) -> tuple[TaylorPolynomial, float]:
    """First-derivative kernel ``sum n conj(w)^(n-1) z^n`` and its norm^2.

    The squared norm has the closed form ``(1 + |w|^2) / (1 - |w|^2)^3``.
    """
    series = kernel(w, 1, order)
    r2 = abs(complex(w)) ** 2
    norm_sq = (1.0 + r2) / (1.0 - r2) ** 3
    return series, norm_sq


# ---------------------------------------------------------------------------
# series algebra
# ---------------------------------------------------------------------------


def multiply(
    g: TaylorPolynomial, h: TaylorPolynomial, order: int | None = None
) -> TaylorPolynomial:
    """Product truncated at ``order`` (exact when ``order`` is None)."""
    prod = np.convolve(g.coeffs, h.coeffs)
    if order is not None:
        _require_order(order)
        prod = prod[: order + 1] if prod.size > order + 1 else np.pad(
            prod, (0, order + 1 - prod.size)
        )
    return TaylorPolynomial(prod)


def derivative(g: TaylorPolynomial) -> TaylorPolynomial:
    """Term-by-term derivative; the constant maps to the zero series."""
    if g.order == 0:
        return TaylorPolynomial([0.0])
    return TaylorPolynomial(g.coeffs[1:] * np.arange(1, g.coeffs.size))


def antiderivative(h: TaylorPolynomial) -> TaylorPolynomial:
    """Primitive vanishing at 0: ``c_n -> c_n/(n+1)`` shifted up one slot.

    Never increases the norm: the shift is isometric and each coefficient
    is divided by ``n + 1 >= 1``.
    """
    out = np.zeros(h.coeffs.size + 1, dtype=np.complex128)
    out[1:] = h.coeffs / np.arange(1, h.coeffs.size + 1)
    return TaylorPolynomial(out)


def reciprocal(g: TaylorPolynomial, order: int) -> TaylorPolynomial:
    """Multiplicative inverse mod ``z^(order+1)``; needs ``g(0) != 0``."""
    _require_order(order)
    c = g.coeffs
    if c[0] == 0:
        raise SingularSymbolError("reciprocal requires a nonzero constant term")
    inv = np.zeros(order + 1, dtype=np.complex128)
    inv[0] = 1.0 / c[0]
    for n in range(1, order + 1):
        top = min(n, c.size - 1)
        acc = np.dot(c[1 : top + 1], inv[n - top : n][::-1]) if top else 0.0
        inv[n] = -acc / c[0]
    return TaylorPolynomial(inv)


def exp_series(g: TaylorPolynomial, order: int) -> TaylorPolynomial:
    """Exponential mod ``z^(order+1)`` via ``(e^g)' = g' e^g``."""
    _require_order(order)
    kc = np.arange(g.coeffs.size) * g.coeffs
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = np.exp(g.coeffs[0])
    for n in range(1, order + 1):
        top = min(n, kc.size - 1)
        acc = np.dot(kc[1 : top + 1], out[n - top : n][::-1]) if top else 0.0
        out[n] = acc / n
    return TaylorPolynomial(out)


def compose(
    g: TaylorPolynomial, h: TaylorPolynomial, order: int
) -> TaylorPolynomial:
    """Polynomial composition ``g(h(z))`` truncated at ``order`` (Horner)."""
    result = TaylorPolynomial(np.array([g.coeffs[-1]]))
    for c in g.coeffs[-2::-1]:
        result = multiply(result, h, order)
        base = np.zeros(result.coeffs.size, dtype=np.complex128)
        base[0] = c
        result = TaylorPolynomial(result.coeffs + base)
    return result.truncated(order)


# ---------------------------------------------------------------------------
# boundary sampling, projection, outer functions
# ---------------------------------------------------------------------------


def to_boundary(g: TaylorPolynomial, size: int | None = None) -> BoundaryGrid:
    """Values of ``g`` on the uniform circle grid (alias-free sampling)."""
    if size is None:
        size = default_boundary_size(g.order)
    require_grid(size, 2 * g.order + 2, f"order {g.order}")
    padded = np.zeros(size, dtype=np.complex128)
    padded[: g.coeffs.size] = g.coeffs
    return BoundaryGrid(np.fft.ifft(padded) * size)


def project_h2(grid: BoundaryGrid, order: int) -> TaylorPolynomial:
    """Keep Fourier modes ``0..order``; negative modes are discarded."""
    _require_order(order)
    require_grid(grid.size, 2 * order + 2, f"order {order}")
    modes = np.fft.fft(grid.values) / grid.size
    return TaylorPolynomial(modes[: order + 1])


def outer_from_modulus(grid: BoundaryGrid, order: int) -> TaylorPolynomial:
    """Outer function with the prescribed boundary modulus.

    For strictly positive samples ``m`` this is
    ``G = exp(c_0 + 2 * sum_{n>=1} c_n z^n)`` where ``c_n`` are the Fourier
    coefficients of ``log m``; then ``|G| = m`` on the circle and ``G(0)``
    equals ``exp(mean log m) > 0``.
    """
    _require_order(order)
    vals = grid.values
    scale = float(np.max(np.abs(vals))) or 1.0
    if np.any(vals.real <= 0) or np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise LogDomainError("boundary modulus must be strictly positive")
    require_grid(grid.size, 2 * order + 2, f"order {order}")
    chat = np.fft.fft(np.log(vals.real)) / grid.size
    g = np.zeros(order + 1, dtype=np.complex128)
    g[0] = chat[0]
    g[1:] = 2.0 * chat[1 : order + 1]
    return exp_series(TaylorPolynomial(g), order)


# ---------------------------------------------------------------------------
# tail tolerances
# ---------------------------------------------------------------------------


def geometric_tail(lead: float, ratio: float, order: int) -> float:
    """Bound on ``sum_{n > order} lead * ratio^n`` for ``0 <= ratio < 1``."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    return lead * ratio ** (order + 1) / (1.0 - ratio)


def kernel_tail(g_norm: float, radius: float, order: int) -> float:
    """Cauchy-Schwarz bound on ``|sum_{n > order} g_n w^n|`` at ``|w| = radius``."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return g_norm * radius ** (order + 1) / math.sqrt(1.0 - radius * radius)
