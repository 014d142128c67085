"""Spectra, eigenfunction families, and the flow relation."""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyliou import (
    DiskDomainError,
    InvalidIndexError,
    OperatorMatrix,
    SymbolHasZerosError,
    TaylorPolynomial,
    TrajectoryMismatchWarning,
    acceptance,
    adjoint_matrix,
    derivative,
    eigendecompose,
    exp_eigenfunction,
    flow_check,
    hk_eigenfunction,
    integrate_ode,
    liouville_matrix,
    monomial,
    norm,
    spectral,
    zero_eigenspace,
    zero_free_certificate,
)
from hardyliou.cli import run


# ---------------------------------------------------------------------------
# direct spectra
# ---------------------------------------------------------------------------


def test_spectrum_of_differentiation_by_z():
    values = eigendecompose(liouville_matrix(monomial(1), 20)).values
    assert np.allclose(values, np.arange(21), atol=1e-12)
    assert np.allclose(values.imag, 0.0, atol=1e-12)


def test_spectrum_affine_symbol_exact():
    # f = alpha z + beta gives an upper-triangular matrix: spectrum
    # {alpha n} read off the diagonal without perturbation
    for alpha, beta in [(1.0, 0.5), (2.0, 0.3), (1 + 0.5j, 0.2)]:
        A = liouville_matrix(TaylorPolynomial([beta, alpha]), 16)
        values = eigendecompose(A).values
        expected = np.array(sorted(
            (alpha * n for n in range(17)),
            key=lambda z: (z.real, z.imag),
        ))
        assert np.allclose(values, expected, atol=1e-10)


def test_eigendecompose_sorted_and_residuals():
    rng = np.random.default_rng(2)
    f = TaylorPolynomial(rng.standard_normal(3))
    A = liouville_matrix(f, 12)
    result = eigendecompose(A)
    keys = [(v.real, v.imag) for v in result.values]
    assert keys == sorted(keys)
    assert result.vectors.shape == (13, 13)
    assert result.values.shape == result.residuals.shape == (13,)
    for value, vector, residual in zip(
        result.values, result.vectors.T, result.residuals, strict=True
    ):
        assert norm(TaylorPolynomial(vector)) == pytest.approx(1.0, abs=1e-12)
        direct = np.linalg.norm(A.entries @ vector - value * vector)
        assert residual == pytest.approx(direct, abs=1e-12)


def test_blocked_residuals_match_per_column_loop():
    # 150 columns span two full residual blocks and a partial one
    rng = np.random.default_rng(8)
    f = TaylorPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    A = liouville_matrix(f, 149)
    values, vectors = np.linalg.eig(A.entries)
    order = np.lexsort((values.imag, values.real))
    bound = 150 * np.finfo(float).eps * np.max(np.sum(np.abs(A.entries), axis=0))
    result = eigendecompose(A)
    assert result.values.size == 150
    for j, k in enumerate(order):
        vec = vectors[:, k] / np.linalg.norm(vectors[:, k])
        residual = np.linalg.norm(A.entries @ vec - values[k] * vec)
        assert result.values[j] == values[k]
        assert np.array_equal(result.vectors[:, j], vec)
        assert abs(result.residuals[j] - residual) <= bound


def _dense_oracle(A):
    # np.linalg.eig itself, sorted and normalised as eigendecompose promises
    values, vectors = np.linalg.eig(A.entries)
    order = np.lexsort((values.imag, values.real))
    units = [vectors[:, k] / np.linalg.norm(vectors[:, k]) for k in order]
    return values[order], np.array(units).T


def _forbidden_eig(*args, **kwargs):
    raise AssertionError("dense eig ran on a triangular truncation")


def _count_dense_eig(monkeypatch):
    calls = []
    dense = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return dense(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


def _triangular_symbol(kind, complex_coeffs, degree, seed):
    # |f_1| >= 0.5 and the other taps smaller keep every eigenvector's
    # coefficients below 1e154 up to N = 200, so no draw overflows to the
    # dense route
    rng = np.random.default_rng(seed)

    def draw(low, high, size):
        modulus = rng.uniform(low, high, size)
        if complex_coeffs:
            return modulus * np.exp(2j * np.pi * rng.uniform(size=size))
        return modulus * rng.choice([-1.0, 1.0], size)

    slope = draw(0.5, 1.5, 1)
    if kind == "affine":  # upper bidiagonal
        return TaylorPolynomial(np.concatenate([draw(0.0, 1.0, 1), slope]))
    if kind == "diagonal":  # f = c z
        return TaylorPolynomial(np.concatenate([[0.0], slope]))
    # f(0) = 0: lower triangular with degree - 1 subdiagonals
    return TaylorPolynomial(np.concatenate([[0.0], slope, draw(0.0, 0.5, degree - 1)]))


def _componentwise_condition(entries, value):
    """First-order forward-error factor of the unit eigenvector of ``value``.

    On a triangular matrix (rows and columns reversed if it is lower) the
    eigenvector x with x_j = 1 solves ``(T - value) v = -b``, where [T b]
    are the first j rows of columns 0..j.  A relative change eps in every
    entry moves v by at most ``eps |(T - value)^-1| (|[T b]| |x| + |value| |v|)``;
    the factor is that vector's norm over ``||x||``.
    """
    upper = entries[::-1, ::-1] if np.tril(entries, -1).any() else entries
    j = int(np.flatnonzero(np.diagonal(upper) == value)[0])
    if j == 0:
        return 0.0
    # gesv on a triangular matrix pivots nowhere: it is back substitution
    inverse = np.linalg.inv(upper[:j, :j] - value * np.eye(j))
    x = np.append(inverse @ -upper[:j, j], 1.0)
    moved = np.abs(upper[:j, : j + 1]) @ np.abs(x) + abs(value) * np.abs(x[:j])
    return float(np.linalg.norm(np.abs(inverse) @ moved) / np.linalg.norm(x))


def _pairs_off_the_oracle(A, result):
    """Indices of pairs whose vector is further from the dense oracle's than
    rounding in the entries explains."""
    _, vectors = _dense_oracle(A)
    off = []
    for k, (value, vector) in enumerate(zip(result.values, result.vectors.T)):
        overlap = np.vdot(vector, vectors[:, k])
        aligned = vectors[:, k] * np.conj(overlap) / abs(overlap)
        gap = np.linalg.norm(vector - aligned)
        # both routes solve the same triangular system, so each may miss the
        # exact vector by eps times its componentwise condition (over 3000
        # draws of kind "vanishing at 0", degree 4-5 and order 100-200 the gap
        # stayed below 0.07 of that); the 1e-12 floor spares computing the
        # condition of the well-conditioned vectors
        if abs(overlap) != pytest.approx(1.0, abs=1e-13) or (
            gap > 1e-12
            and gap > np.finfo(float).eps * _componentwise_condition(A.entries, value)
        ):
            off.append(k)
    return off


@settings(deadline=None, max_examples=120)
@given(
    kind=st.sampled_from(["affine", "diagonal", "vanishing at 0"]),
    complex_coeffs=st.booleans(),
    degree=st.integers(2, 5),
    order=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
# ill-conditioned eigenvectors: gaps of 1.0e-12 and 1.2e-11 between the routes
@example("vanishing at 0", False, 5, 152, 22208028)
@example("vanishing at 0", False, 4, 169, 1990018143)
def test_triangular_route_matches_dense_oracle(kind, complex_coeffs, degree, order, seed):
    A = liouville_matrix(_triangular_symbol(kind, complex_coeffs, degree, seed), order)
    values, _ = _dense_oracle(A)
    with mock.patch.object(np.linalg, "eig", _forbidden_eig):
        result = eigendecompose(A)
    assert np.array_equal(result.values, values)
    assert _pairs_off_the_oracle(A, result) == []
    # backward-error scale; over 600 seeded draws the largest residual was
    # 0.05 of it (the dense oracle's 0.12)
    scale = (order + 1) * np.finfo(float).eps * np.max(np.sum(np.abs(A.entries), axis=0))
    assert np.all(result.residuals <= scale)


def test_oracle_check_refuses_a_planted_band_error():
    # the draw whose gap of 1.0e-12 needed the conditioned bound: an error
    # of 1e-9 relative in the first band must still show
    A = liouville_matrix(_triangular_symbol("vanishing at 0", False, 5, 22208028), 152)
    planted = A.entries.copy()
    band = np.arange(1, planted.shape[0])
    planted[band, band - 1] *= 1.0 + 1e-9
    assert _pairs_off_the_oracle(A, eigendecompose(OperatorMatrix(planted))) != []


def test_lower_triangular_pairs_are_the_reversed_upper_ones():
    # reversing the basis order is a permutation similarity: it must carry
    # every value, vector and residual with it, each to its own pair
    A = liouville_matrix(TaylorPolynomial([0.0, 1 + 1j, 0.5, -0.3j]), 40)
    result = eigendecompose(A)
    twin = eigendecompose(OperatorMatrix(A.entries[::-1, ::-1]))
    assert np.array_equal(result.values, twin.values)
    assert np.array_equal(result.residuals, twin.residuals)
    assert np.array_equal(result.vectors, twin.vectors[::-1])


def test_repeated_diagonal_takes_dense_route(monkeypatch):
    # f = 0.5 is nilpotent on the truncation: every diagonal entry is 0
    A = liouville_matrix(TaylorPolynomial([0.5, 0.0]), 12)
    values, vectors = _dense_oracle(A)
    calls = _count_dense_eig(monkeypatch)
    result = eigendecompose(A)
    assert calls == [(13, 13)]
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.vectors, vectors)


@pytest.mark.parametrize(
    "coeffs, order", [([0.3, 0.5], 800), ([1.0, 0.01], 256)], ids=["0.3+0.5z", "1+0.01z"]
)
def test_overflowing_eigenvectors_are_rescaled_not_dense(coeffs, order):
    # unscaled, the eigenvector for 0.01 n is (1 + 0.01 z)^n with v_n = 1,
    # whose constant coefficient 100^n overflows long before n = 256; the
    # 0.3 + 0.5z vectors overflow from N = 760.  Their columns are rescaled
    A = liouville_matrix(TaylorPolynomial(coeffs), order)
    values, _ = _dense_oracle(A)
    with mock.patch.object(np.linalg, "eig", _forbidden_eig):
        result = eigendecompose(A)
    assert np.array_equal(result.values, values)
    assert _pairs_off_the_oracle(A, result) == []
    assert np.max(result.residuals) <= 1e-12


@pytest.mark.parametrize(
    "coeffs",
    [[1.0, 1e-160], [1.0, 1e-300], [0.0, 1e-200, 1.0, 0.5j]],
    ids=["1+1e-160z", "1+1e-300z", "lower, two subdiagonals"],
)
def test_steps_past_the_rescale_limit_rescale_within_the_step(coeffs):
    # a band entry over its diagonal gap of 1e160 to 1e300: each substitution
    # step grows an entry past 2^500, with 1e-300 past the largest double,
    # so a column is scaled (twice) before its new entry is kept, on every
    # row; rows below the band take those scales after the sweep
    A = liouville_matrix(TaylorPolynomial(coeffs), 40)
    values, _ = _dense_oracle(A)
    with mock.patch.object(np.linalg, "eig", _forbidden_eig):
        result = eigendecompose(A)
    assert np.array_equal(result.values, values)
    assert _pairs_off_the_oracle(A, result) == []
    scale = 41 * np.finfo(float).eps * np.max(np.sum(np.abs(A.entries), axis=0))
    assert np.all(result.residuals <= scale)


def test_gap_whose_reciprocal_overflows_takes_dense_route(monkeypatch):
    # diagonal gaps of 5e-324: complex division by them overflows at any
    # scale of the eigenvector
    A = liouville_matrix(TaylorPolynomial([1.0, 5e-324]), 6)
    calls = _count_dense_eig(monkeypatch)
    eigendecompose(A)
    assert calls == [(7, 7)]


def _spectrum_symbols():
    # upper bidiagonal, real and complex, and lower triangular with one and
    # three subdiagonals (the flipped route); each at one order inside one
    # sweep block and one across several
    yield [0.1, 0.9], 16
    yield [0.1, 0.9], 1024
    yield [0.2 - 0.1j, -0.7 + 0.4j], 40
    yield [0.2 - 0.1j, -0.7 + 0.4j], 700
    yield [0.0, 1.0, 0.3], 64
    yield [0.0, 1.0, 0.3], 700
    yield [0.0, 0.8 + 0.3j, 0.1 - 0.2j, 0.02j, -0.01], 30
    yield [0.0, 0.8 + 0.3j, 0.1 - 0.2j, 0.02j, -0.01], 650


@pytest.mark.parametrize("coeffs, order", list(_spectrum_symbols()))
def test_spectrum_route_is_eigendecompose_without_vectors(monkeypatch, coeffs, order):
    f = TaylorPolynomial(coeffs)
    monkeypatch.setattr(np.linalg, "eig", _forbidden_eig)
    values, residuals = spectral._liouville_spectrum(f, order)
    result = eigendecompose(liouville_matrix(f, order))
    assert np.array_equal(values, result.values)
    assert np.array_equal(residuals, result.residuals)


@pytest.mark.parametrize(
    "coeffs, order",
    [([0.25, -1.0, 1.0], 40), ([0.3, 0.0], 20)],  # not triangular; a repeated diagonal
)
def test_spectrum_fallback_is_eigendecompose(monkeypatch, coeffs, order):
    f = TaylorPolynomial(coeffs)
    result = eigendecompose(liouville_matrix(f, order))

    def rescan(entries):
        raise AssertionError("the symbol's band failed, yet the matrix was scanned again")

    monkeypatch.setattr(spectral, "_triangular_eigenpairs", rescan)
    values, residuals = spectral._liouville_spectrum(f, order)
    assert values.tobytes() == result.values.tobytes()
    assert residuals.tobytes() == result.residuals.tobytes()


def test_sweep_block_width_changes_no_byte(monkeypatch):
    # the production plan against blocks of 64 columns and one block of all
    # of them; then a merged one-column remainder (N = 1024), the flipped
    # lower triangular route and the rescaling route
    cases = [
        ([0.2 - 0.1j, -0.7 + 0.4j], 200),
        ([0.0, 0.8j, 0.1, -0.2j], 150),
        ([0.1, 0.9], 1024),
        ([0.0, 1.0, 0.3], 700),
        ([1.0, 0.01], 256),
    ]
    production = spectral._SWEEP_BLOCK_BYTES
    for coeffs, order in cases:
        A = liouville_matrix(TaylorPolynomial(coeffs), order)
        results = []
        for budget in (production, 1, 2**40):
            monkeypatch.setattr(spectral, "_SWEEP_BLOCK_BYTES", budget)
            results.append(eigendecompose(A))
        planned, *others = results
        for other in others:
            for name in ("values", "vectors", "residuals"):
                assert np.array_equal(getattr(planned, name), getattr(other, name)), name
    # budget 1 is blocks of 64 columns, the last with the remainder
    monkeypatch.setattr(spectral, "_SWEEP_BLOCK_BYTES", 1)
    assert {stop - start for start, stop, _ in spectral._sweep_plan(1025, 1)} == {64, 65}


@pytest.mark.parametrize("order", [64, 128, 700, 1024, 4096])
def test_sweep_plan_fills_its_buffer_in_fewer_row_steps(order):
    # f = 0.1 + 0.9z: upper bidiagonal, band 1
    size, band, step = order + 1, 1, spectral._RESIDUAL_BLOCK
    plan = spectral._sweep_plan(size, band)
    assert [start for start, _, _ in plan] == [0] + [stop for _, stop, _ in plan[:-1]]
    assert plan[-1][1] == size
    # blocks of this one width, each on all rows, filled the same buffer
    blocks = round(spectral._SWEEP_BLOCK_BYTES / (16 * size * step))
    width = min(max(blocks, 1) * step, size)
    for start, stop, rows in plan:
        assert start % step == 0
        assert rows == min(stop - 1 + band, size - 1) + 1
        # that buffer, and at most one merged remainder
        assert rows * (stop - start - (stop - start) % step) <= size * width
        assert (stop - start) % step == 0 or stop == size
    if order <= 128:
        assert plan == [(0, size, size)]
    if order == 1024:
        old_steps = sum(min(s + width, size) - 1 for s in range(0, size, width))
        assert old_steps == 3580
        assert sum(stop - 1 for _, stop, _ in plan) <= 2240


def test_spectrum_command_holds_no_square_array(tmp_path, capsys):
    # the sweep holds one buffer of its largest planned block (1025 x 257
    # entries here, about 4 MiB) and two (N+1) x 64 residual buffers: 0.39
    # of 16 (N+1)^2 bytes; building the matrix and its eigenvectors took 2.15
    order = 1024
    config = {"N": order, "f": [0.1, 0.9]}
    run("spectrum", {**config, "N": 8}, tmp_path)  # numpy's lazy imports
    tracemalloc.start()
    try:
        assert run("spectrum", config, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * 16 * (order + 1) ** 2


def test_spectrum_and_criteria_1_2_never_call_dense_eig(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eig", _forbidden_eig)
    # perfbench's operators-deep spectrum input
    assert run("spectrum", {"N": 1024, "f": [0.1, 0.9]}, tmp_path) == 0
    assert "PASS eigenpair_residual" in capsys.readouterr().out
    assert acceptance.criterion_1().passed
    assert acceptance.criterion_2().passed


def test_spectrum_at_the_order_budget_stays_triangular(tmp_path, monkeypatch, capsys):
    # unscaled, the eigenvectors of 0.1 + 0.9z overflow from N = 3388, and
    # the dense route took about 50 s at N = 4096
    monkeypatch.setattr(np.linalg, "eig", _forbidden_eig)
    assert run("spectrum", {"N": 4096, "f": [0.1, 0.9]}, tmp_path) == 0
    assert "PASS eigenpair_residual" in capsys.readouterr().out
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert len(report["residuals"]) == 4097
    assert max(report["residuals"]) <= 1e-12


# one config per route, and the structured one at three sizes; the dense row
# takes LAPACK's own order, which the sort must permute
_ROUTES = [
    ("upper bidiagonal", [0.1, 0.9], 16, True),
    ("upper bidiagonal", [0.1, 0.9], 128, True),
    ("upper bidiagonal", [0.1, 0.9], 1024, True),
    ("lower triangular", [0.0, 1.0, 0.3], 64, True),
    ("dense", [0.3, 0.5, 0.2], 32, False),
    ("rescaled", [1.0, 0.01], 256, True),
    ("repeated diagonal", [0.0, 0.0, 0.2], 32, False),
]


@pytest.mark.parametrize(
    "coeffs, order, triangular",
    [case[1:] for case in _ROUTES],
    ids=[f"{case[0]} N={case[2]}" for case in _ROUTES],
)
def test_result_is_its_route_sorted(coeffs, order, triangular):
    A = liouville_matrix(TaylorPolynomial(coeffs), order)
    found = spectral._triangular_eigenpairs(A.entries)
    assert (found is not None) == triangular
    values, vectors, residuals = found or spectral._dense_eigenpairs(A.entries)
    perm = np.lexsort((values.imag, values.real))
    result = eigendecompose(A)
    assert np.array_equal(result.values, values[perm])
    assert np.array_equal(result.vectors, vectors[:, perm])
    assert np.array_equal(result.residuals, residuals[perm])


def test_result_arrays_are_read_only_and_own_their_memory():
    for coeffs in ([0.1, 0.9], [0.0, 1.0, 0.3], [0.3, 0.5, 0.2]):
        A = liouville_matrix(TaylorPolynomial(coeffs), 8)
        result = eigendecompose(A)
        for array in (result.values, result.vectors, result.residuals):
            assert not np.shares_memory(array, A.entries)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.values = np.zeros(9)


def test_structured_route_peak_memory():
    # the eigenvectors are one (N+1)^2 complex buffer, and the band mask and
    # the two (N+1) x 64 residual buffers add about 0.36 of one. Measured at
    # N = 512: 1.36 (2.06 with per-pair vector copies), and 1.62 (2.30) on a
    # process's first call, which also counts numpy's lazy import of numpy.ma
    order = 512
    A = liouville_matrix(TaylorPolynomial([0.1, 0.9]), order)
    tracemalloc.start()
    try:
        eigendecompose(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 16 * (order + 1) ** 2


# ---------------------------------------------------------------------------
# zero-free certificate
# ---------------------------------------------------------------------------


def test_zero_free_certificate_decisions():
    assert zero_free_certificate(TaylorPolynomial([1.0, 0.5]))
    assert zero_free_certificate(TaylorPolynomial([6.0, -5.0, 1.0]))  # zeros 2, 3
    assert not zero_free_certificate(monomial(1))  # zero at the origin
    assert not zero_free_certificate(TaylorPolynomial([-0.5, 1.0]))  # zero at 0.5
    assert not zero_free_certificate(TaylorPolynomial([0.25, 0, 1.0]))  # +-0.5j


def test_zero_free_certificate_near_boundary_zero():
    # zero at 1.02, just outside: winding still 0
    assert zero_free_certificate(TaylorPolynomial([-1.02, 1.0]), size=4096)


# ---------------------------------------------------------------------------
# eigenfunction families
# ---------------------------------------------------------------------------


def test_exp_eigenfunction_constant_symbol_frozen():
    import math

    # f = 1: g = exp(lam z), eigenfunction of plain differentiation
    lam = 0.7 - 0.2j
    g = exp_eigenfunction(TaylorPolynomial([1.0]), lam, 12)
    expected = np.array([lam**n / math.factorial(n) for n in range(13)])
    assert np.allclose(g.coeffs, expected, atol=1e-14)


def test_exp_eigenfunction_satisfies_ode():
    f = TaylorPolynomial([1.0, 0.5, -0.1])
    lam = 1.3 + 0.4j
    g = exp_eigenfunction(f, lam, 96)
    assert complex(g(0)) == pytest.approx(1.0)
    # residual f g' - lam g at interior points
    for z in [0.2, -0.3j, 0.25 + 0.25j]:
        lhs = complex(f(z)) * complex(derivative(g)(z))
        rhs = lam * complex(g(z))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_exp_eigenfunction_rejects_vanishing_symbol():
    with pytest.raises(SymbolHasZerosError):
        exp_eigenfunction(monomial(1), 1.0, 16)
    with pytest.raises(SymbolHasZerosError):
        exp_eigenfunction(TaylorPolynomial([-0.5, 1.0]), 1.0, 16)


def test_hk_eigenfunction_m2_collapses_to_z_exp():
    import math

    lam = 1 + 1j
    h = hk_eigenfunction(2, 1, lam, 16)
    expected = np.zeros(17, dtype=np.complex128)
    for n in range(16):
        expected[n + 1] = lam**n / math.factorial(n)
    assert np.allclose(h.coeffs, expected, atol=1e-13)


def test_hk_eigenfunction_adjoint_residual_battery():
    # A_{z^m} has real integer entries, so its adjoint is the plain
    # transpose and H_k(lam) is an eigenvector with eigenvalue lam itself
    order = 64
    for m in (2, 3, 4):
        Astar = adjoint_matrix(liouville_matrix(monomial(m), order))
        for k in range(1, m):
            for lam in (0.0, 1.0, 1 + 1j, -2.0):
                h = hk_eigenfunction(m, k, lam, order)
                image = Astar.apply(h)
                target = lam * h.coeffs
                # adjoint truncation touches only rows above order-m, where
                # the coefficients have already decayed past 1e-30
                assert np.max(np.abs(image.coeffs - target)) < 1e-8


def test_hk_eigenfunction_validation():
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(1, 1, 1.0, 8)
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(3, 0, 1.0, 8)
    with pytest.raises(InvalidIndexError):
        hk_eigenfunction(3, 3, 1.0, 8)


# ---------------------------------------------------------------------------
# zero eigenspaces
# ---------------------------------------------------------------------------


def test_zero_eigenspace_annihilated_by_adjoint():
    zeros = [(0.3, 1), (-0.2 + 0.1j, 2)]
    f = TaylorPolynomial(np.poly([0.3, -0.2 + 0.1j, -0.2 + 0.1j])[::-1])
    order = 64
    Astar = adjoint_matrix(liouville_matrix(f, order))
    basis = zero_eigenspace(zeros, order)
    assert len(basis) == 3
    for member in basis:
        image = Astar.apply(member)
        assert norm(image) / norm(member) < 1e-10


def test_zero_eigenspace_validation():
    with pytest.raises(DiskDomainError):
        zero_eigenspace([(1.5, 1)], 8)
    with pytest.raises(DiskDomainError, match="got [|]w[|] = nan$"):
        zero_eigenspace([(float("nan"), 1)], 8)
    with pytest.raises(InvalidIndexError):
        zero_eigenspace([(0.3, 0)], 8)


# ---------------------------------------------------------------------------
# flow relation
# ---------------------------------------------------------------------------


def test_flow_relation_linear_field():
    f = monomial(1)
    traj = integrate_ode(f, 0.2, 1.0, 1e-3)
    for n in range(1, 6):
        defect = flow_check(f, monomial(n), float(n), traj)
        assert defect < 1e-9


def test_flow_check_warns_on_wrong_field():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-3)
    wrong = TaylorPolynomial([0, 2.0])
    with pytest.warns(TrajectoryMismatchWarning):
        flow_check(wrong, monomial(1), 2.0, traj)
