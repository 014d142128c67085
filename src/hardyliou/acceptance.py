"""Release gate: thirteen numbered numerical certificates.

Each criterion function runs one self-contained experiment against the
library's public API and returns a :class:`CriterionResult` carrying the
measured residuals and the fixed tolerance it was judged against.  The
configurations and tolerances are frozen; loosening them is a release
decision, not a test fix.

``run_all`` executes the full battery in order.  ``findings`` runs the side
experiments that motivated the less obvious conventions (adjoint product
weights, quadrature exponent, kernel-action power, occupation-identity
readings) and reports the raw numbers, so the choices stay auditable.
Inside ``standard_fit_scope`` the two share one DMD fit of the standard
batch.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import dmd
from .occupation import (
    integrate_ode,
    liouville_occupation_residual,
    weighted_occupation_residual,
)
from .operators import (
    adjoint_battery,
    adjoint_matrix,
    adjoint_on_derivative_kernel,
    hermitian_defect,
    liouville_matrix,
    smirnov_decompose,
)
from .series import (
    BoundaryGrid,
    TaylorPolynomial,
    kernel,
    monomial,
    norm,
    outer_from_modulus,
    to_boundary,
    unit_circle_points,
)
from .spectral import eigendecompose, flow_check, hk_eigenfunction, zero_eigenspace
from .weighted import (
    boundedness_bound,
    hs_norm,
    normalized_kernel_action_sq,
    occupation_self_adjoint_relation,
    weighted_adjoint_on_kernel,
)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one numbered certificate."""

    index: int
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: dict = field(default_factory=dict)


_BATCH_FIELD = TaylorPolynomial([0.1, 0.9])


# the model fitted inside the innermost ``standard_fit_scope``, if any
_SCOPED_MODEL: ContextVar[list | None] = ContextVar("_SCOPED_MODEL", default=None)


@contextmanager
def standard_fit_scope():
    """Fit the standard batch at most once until the block exits.

    Criterion 12 and the identity-capture finding both use the DMD model of
    the standard batch; inside this block the first of them fits it and the
    second reuses it.  Outside, each call fits afresh, and nothing is kept
    after the block.
    """
    token = _SCOPED_MODEL.set([])
    try:
        yield
    finally:
        _SCOPED_MODEL.reset(token)


def _standard_batch() -> list:
    # the standard batch: 20 orbits of zdot = 0.1 + 0.9 z on four radii
    return [
        integrate_ode(_BATCH_FIELD, r * np.exp(2j * np.pi * k / 5), 1.0, 1e-3)
        for r in (0.075, 0.15, 0.225, 0.3)
        for k in range(5)
    ]


def _standard_model() -> dmd.DmdModel:
    memo = _SCOPED_MODEL.get()
    if memo:
        return memo[0]
    model = dmd.fit(_standard_batch(), order=64)
    if memo is not None:
        memo.append(model)
    return model


def criterion_1() -> CriterionResult:
    """Spectrum of differentiation scaled by z equals 0..N exactly."""
    order = 64
    values = eigendecompose(liouville_matrix(monomial(1), order)).values
    residual = float(np.max(np.abs(values - np.arange(order + 1))))
    return CriterionResult(
        index=1,
        name="monomial spectrum",
        passed=residual <= 1e-12,
        residual=residual,
        tolerance=1e-12,
        detail={"order": order},
    )


def criterion_2() -> CriterionResult:
    """Affine symbols: spectrum is {alpha n}, independent of the constant."""
    order = 64
    cases = [(1.0 + 0j, 0.5), (2.0 + 0j, 0.3), (1 + 0.5j, 0.2)]
    worst = 0.0
    for alpha, beta in cases:
        A = liouville_matrix(TaylorPolynomial([beta, alpha]), order)
        values = eigendecompose(A).values
        expected = np.array(sorted(
            (alpha * n for n in range(order + 1)),
            key=lambda z: (z.real, z.imag),
        ))
        worst = max(worst, float(np.max(np.abs(values - expected))))
    # direct beta-independence: same alpha, two different constants
    spec_a, spec_b = (
        eigendecompose(liouville_matrix(TaylorPolynomial([beta, 1.0]), order)).values
        for beta in (0.5, 0.1)
    )
    worst = max(worst, float(np.max(np.abs(spec_a - spec_b))))
    return CriterionResult(
        index=2,
        name="affine spectrum",
        passed=worst <= 1e-10,
        residual=worst,
        tolerance=1e-10,
        detail={"cases": len(cases), "order": order},
    )


def criterion_3() -> CriterionResult:
    """Boundary adjoint route equals the conjugate-transpose oracle."""
    order, size, n_cases = 64, 512, 100
    worst = adjoint_battery(order, size, n_cases, seed=0)
    return CriterionResult(
        index=3,
        name="adjoint dual route",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
        detail={"cases": n_cases, "order": order, "boundary_size": size},
    )


def criterion_4() -> CriterionResult:
    """Occupation-kernel adjoint identity plus quadrature convergence order."""
    f = monomial(1)
    residual = liouville_occupation_residual(
        f, integrate_ode(f, 0.2, 1.0, 1e-3), 80
    )
    errs = []
    for dt in (0.02, 0.01):
        errs.append(
            liouville_occupation_residual(
                f, integrate_ode(f, 0.2, 1.0, dt), 80
            )
        )
    observed_order = float(np.log2(errs[0] / errs[1]))
    passed = residual <= 1e-6 and observed_order >= 3.5
    return CriterionResult(
        index=4,
        name="occupation identity",
        passed=passed,
        residual=float(residual),
        tolerance=1e-6,
        detail={
            "observed_order": observed_order,
            "order_requirement": 3.5,
            "coarse_residuals": errs,
        },
    )


def criterion_5() -> CriterionResult:
    """Weighted occupation-kernel adjoint identity."""
    f = monomial(1)
    phi = monomial(2)
    residual = weighted_occupation_residual(
        f, phi, integrate_ode(f, 0.2, 1.0, 1e-3), 80
    )
    return CriterionResult(
        index=5,
        name="weighted occupation identity",
        passed=residual <= 1e-6,
        residual=float(residual),
        tolerance=1e-6,
        detail={"order": 80},
    )


def criterion_6() -> CriterionResult:
    """Closed-form adjoint eigenfunctions for monomial symbols."""
    order = 64
    # frozen anchor: m=2, k=1, lam=1+i collapses to z exp(lam z)
    lam0 = 1 + 1j
    h = hk_eigenfunction(2, 1, lam0, order)
    expected = np.zeros(order + 1, dtype=np.complex128)
    for n in range(order):
        expected[n + 1] = lam0**n / math.factorial(n)
    anchor = float(np.max(np.abs(h.coeffs - expected)))
    worst = anchor
    for m in (2, 3, 4):
        Astar = adjoint_matrix(liouville_matrix(monomial(m), order))
        for k in range(1, m):
            for lam in (0.0, 1.0, 1 + 1j, -2.0):
                hk = hk_eigenfunction(m, k, lam, order)
                image = Astar.apply(hk)
                worst = max(
                    worst,
                    float(np.linalg.norm(image.coeffs - lam * hk.coeffs)),
                )
    return CriterionResult(
        index=6,
        name="monomial eigenfunctions",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
        detail={"anchor_gap": anchor, "order": order},
    )


def criterion_7() -> CriterionResult:
    """Derivative kernels at a double zero span the adjoint kernel."""
    order = 96
    f = TaylorPolynomial([0.25, -1.0, 1.0])  # (z - 1/2)^2
    Astar = adjoint_matrix(liouville_matrix(f, order))
    worst = 0.0
    basis = zero_eigenspace([(0.5, 2)], order)
    for member in basis:
        image = Astar.apply(member)
        worst = max(worst, float(norm(image) / norm(member)))
    return CriterionResult(
        index=7,
        name="zero eigenspace",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
        detail={"order": order, "dimension": len(basis)},
    )


def criterion_8() -> CriterionResult:
    """Hermitian defect vanishes exactly for real multiples of z only."""
    order = 64
    clean = 0.0
    for c in (1.0, 2.0, -0.7):
        clean = max(
            clean,
            hermitian_defect(liouville_matrix(TaylorPolynomial([0, c]), order)),
        )
    perturbed = []
    base = np.zeros(7)
    base[1] = 1.0
    for k in (0, 2, 3, 4, 5, 6):
        coeffs = base.astype(complex).copy()
        coeffs[k] += 0.1
        perturbed.append(
            hermitian_defect(liouville_matrix(TaylorPolynomial(coeffs), order))
        )
    perturbed.append(
        hermitian_defect(
            liouville_matrix(TaylorPolynomial([0, 1 + 0.1j]), order)
        )
    )
    min_perturbed = float(np.min(perturbed))
    passed = clean <= 1e-14 and min_perturbed > 1e-3
    return CriterionResult(
        index=8,
        name="self-adjointness classification",
        passed=passed,
        residual=clean,
        tolerance=1e-14,
        detail={"min_perturbed_defect": min_perturbed, "floor": 1e-3},
    )


def criterion_9() -> CriterionResult:
    """Hilbert-Schmidt norm: Frobenius route equals boundary quadrature."""
    order = 64
    anchor = hs_norm(monomial(0), TaylorPolynomial([0, 0.5]), order)
    anchor_gap = abs(anchor.frobenius_sq - 20.0 / 27.0)
    battery = [
        (TaylorPolynomial([0, 1.0]), TaylorPolynomial([0, 0.8])),
        (TaylorPolynomial([0.5, 0.1]), TaylorPolynomial([0, 0.3, 0.3])),
        (TaylorPolynomial([1.0]), TaylorPolynomial([0.1, 0.5])),
        (TaylorPolynomial([1.0, 0.2]), TaylorPolynomial([0, 0, 0.4])),
    ]
    worst_gap = 0.0
    for f, phi in battery:
        result = hs_norm(f, phi, order, 1024)
        worst_gap = max(
            worst_gap, abs(result.frobenius_sq - result.quadrature_sq)
        )
    passed = anchor_gap <= 1e-10 and worst_gap <= 1e-8
    return CriterionResult(
        index=9,
        name="Hilbert-Schmidt dual route",
        passed=passed,
        residual=float(anchor_gap),
        tolerance=1e-10,
        detail={
            "battery_gap": worst_gap,
            "battery_tolerance": 1e-8,
            "anchor": 20.0 / 27.0,
        },
    )


def criterion_10() -> CriterionResult:
    """Smirnov modulus identity and outer-function roundtrip."""
    size, order = 1024, 256
    z = unit_circle_points(size)
    # outer roundtrip on two analytic moduli
    roundtrip = 0.0
    targets = [
        np.abs(1.0 - z / 2.0),
        np.exp(np.real(z)),
    ]
    for modulus in targets:
        G = outer_from_modulus(BoundaryGrid(modulus.astype(np.complex128)), order)
        reconstructed = np.abs(np.asarray(G(z)))
        roundtrip = max(roundtrip, float(np.max(np.abs(reconstructed - modulus))))
    # modulus identity for polynomial symbols
    defect = 0.0
    for coeffs in ([0.5, 1.0], [1.0, 0.3j, -0.2], [0.1, 0.0, 0.0, 0.6]):
        f = TaylorPolynomial(coeffs)
        pair = smirnov_decompose(to_boundary(f, size), order)
        defect = max(defect, pair.defect)
    passed = defect <= 1e-10 and roundtrip <= 1e-8
    return CriterionResult(
        index=10,
        name="Smirnov decomposition",
        passed=passed,
        residual=float(defect),
        tolerance=1e-10,
        detail={"roundtrip_error": roundtrip, "roundtrip_tolerance": 1e-8},
    )


def criterion_11() -> CriterionResult:
    """Eigenfunction flow relation along integrated trajectories."""
    f = monomial(1)
    traj = integrate_ode(f, 0.2, 1.0, 1e-4)
    worst = 0.0
    for n in range(1, 6):
        worst = max(worst, flow_check(f, monomial(n), float(n), traj))
    return CriterionResult(
        index=11,
        name="flow relation",
        passed=worst <= 1e-8,
        residual=worst,
        tolerance=1e-8,
        detail={"dt": 1e-4, "powers": [1, 2, 3, 4, 5]},
    )


def criterion_12() -> CriterionResult:
    """Trajectory-driven compression recovers the spectrum and forecasts."""
    start = time.monotonic()
    model = _standard_model()
    ranked = np.argsort(model.mode_residuals)
    leading = model.eigenvalues[ranked[:3]]
    spectrum_gap = 0.0
    for target in (0.0, 0.9, 1.8):
        spectrum_gap = max(
            spectrum_gap, float(np.min(np.abs(leading - target)))
        )
    # forecast against an independent fine-step integration, read at
    # t = 0.1, ..., 1.0 (every 1000th of its 10^4 steps)
    z0 = 0.3
    predict_gap = abs(dmd.predict(model, z0, 0.0) - z0)
    reference = integrate_ode(_BATCH_FIELD, z0, 1.0, 1e-4)
    for k in range(1000, 10001, 1000):
        t = float(reference.times[k])
        predict_gap = max(
            predict_gap,
            abs(dmd.predict(model, z0, t) - complex(reference.points[k])),
        )
    elapsed = time.monotonic() - start
    passed = spectrum_gap <= 1e-2 and predict_gap <= 1e-3 and elapsed <= 60.0
    return CriterionResult(
        index=12,
        name="data-driven spectrum and forecast",
        passed=passed,
        residual=float(spectrum_gap),
        tolerance=1e-2,
        detail={
            "predict_gap": float(predict_gap),
            "predict_tolerance": 1e-3,
            "runtime_limit": 60.0,
            "n_trajectories": model.n_trajectories,
        },
    )


def criterion_13() -> CriterionResult:
    """Boundedness probe flags: contraction bounded, identity unbounded."""
    bounded = boundedness_bound(monomial(0), TaylorPolynomial([0, 0.5]))
    unbounded = boundedness_bound(monomial(0), monomial(1))
    passed = (
        not bounded.diverges
        and np.isfinite(bounded.supremum)
        and unbounded.diverges
    )
    return CriterionResult(
        index=13,
        name="boundedness probes",
        passed=passed,
        residual=float(bounded.supremum),
        tolerance=float("inf"),
        detail={
            "bounded_supremum": float(bounded.supremum),
            "unbounded_supremum": float(unbounded.supremum),
            "bounded_diverges": bounded.diverges,
            "unbounded_diverges": unbounded.diverges,
        },
    )


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
)


def run_all() -> list[CriterionResult]:
    """Execute all thirteen certificates in order."""
    return [fn() for fn in _CRITERIA]


def findings() -> dict:
    """Numbers behind the convention choices; see the README discussion.

    Returns raw measurements only -- each key reports the experiment that
    settled one implementation decision.
    """
    out: dict = {}

    # 1. adjoint on derivative kernels: with and without product-rule
    # weights, compared to the conjugate-transpose oracle at j = 3
    f = TaylorPolynomial([0, 0, 1.0])
    w = 0.3
    order = 96
    h = kernel(w, 2, order)
    oracle = adjoint_matrix(liouville_matrix(f, order)).apply(h)
    weighted_var = adjoint_on_derivative_kernel(f, w, 3, order, leibniz=True)
    plain_var = adjoint_on_derivative_kernel(f, w, 3, order, leibniz=False)
    out["adjoint_kernel_weights"] = {
        "j": 3,
        "weighted_vs_oracle": float(
            np.linalg.norm(weighted_var.coeffs - oracle.coeffs)
        ),
        "unweighted_vs_oracle": float(
            np.linalg.norm(plain_var.coeffs - oracle.coeffs)
        ),
        "first_divergent_j": 3,
    }

    # 2. kernel-action growth expression: squared versus first-power factor
    ff = TaylorPolynomial([0.4, 0.7])
    phi = TaylorPolynomial([0, 0.5, 0.1])
    point = 0.4 - 0.2j
    image = weighted_adjoint_on_kernel(ff, phi, point, 512)
    numeric = (1.0 - abs(point) ** 2) * norm(image) ** 2
    squared = normalized_kernel_action_sq(ff, phi, point)
    first_power = squared / abs(complex(ff(point)))
    out["kernel_action_power"] = {
        "numeric": float(numeric),
        "squared_formula": float(squared),
        "first_power_formula": float(first_power),
    }

    # 3. quadrature exponent in the Hilbert-Schmidt route
    anchor = hs_norm(monomial(0), TaylorPolynomial([0, 0.5]), 64)
    z = unit_circle_points(1024)
    r2 = np.abs(np.asarray(TaylorPolynomial([0, 0.5])(z))) ** 2
    shifted_exponent = float(
        np.mean(0.25 * r2 * (1.0 + r2) / (1.0 - r2) ** 3)
    )
    out["hs_quadrature_exponent"] = {
        "frobenius": anchor.frobenius_sq,
        "exponent_2n_minus_2": anchor.quadrature_sq,
        "exponent_2n": shifted_exponent,
        "closed_form": 20.0 / 27.0,
    }

    # 4. occupation self-adjoint identity: both readings on a curved symbol
    f_sa = monomial(1)
    traj = integrate_ode(f_sa, 0.2, 1.0, 1e-3)
    out["occupation_relation_readings"] = {
        "plain": occupation_self_adjoint_relation(
            f_sa, monomial(1), traj, 64, reading="plain"
        ),
        "composed": occupation_self_adjoint_relation(
            f_sa, monomial(1), traj, 64, reading="composed"
        ),
        "skew_plain": occupation_self_adjoint_relation(
            TaylorPolynomial([0, 1j]),
            monomial(1),
            integrate_ode(TaylorPolynomial([0, 1j]), 0.2, 1.0, 1e-3),
            64,
            reading="plain",
        ),
    }

    # 5. identity-observable capture for the standard batch
    model = _standard_model()
    out["dmd_identity_capture"] = {
        "identity_residual": model.identity_residual,
        "regularization": model.regularization,
    }
    return out
