"""Data-driven compression: fit, spectrum recovery, prediction."""

import dataclasses
import gc
import hashlib
import inspect
import json
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyliou import (
    DiskDomainError,
    IllConditionedError,
    InsufficientDataError,
    InvalidIndexError,
    LowConfidenceWarning,
    TaylorPolynomial,
    Trajectory,
    endpoint_kernel_difference,
    integrate_ode,
    monomial,
    norm,
    occupation_kernel,
    read_trajectory_csv,
    szego_kernel,
    write_trajectory_csv,
)
from hardyliou import dmd, occupation


def _affine_batch(n_radii=4, n_angles=5, dt=1e-3):
    f = TaylorPolynomial([0.1, 0.9])
    radii = np.linspace(0.075, 0.3, n_radii)
    out = []
    for r in radii:
        for k in range(n_angles):
            z0 = r * np.exp(2j * np.pi * k / n_angles)
            out.append(integrate_ode(f, z0, 1.0, dt))
    return out


@pytest.fixture(scope="module")
def affine_model():
    return dmd.fit(_affine_batch(dt=5e-3), order=48)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_requires_data():
    with pytest.raises(InsufficientDataError):
        dmd.fit([])
    with pytest.raises(TypeError):
        dmd.fit([np.zeros(4)])


def test_fit_single_trajectory_runs():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    model = dmd.fit([traj], order=24)
    assert model.n_trajectories == 1
    assert model.eigenvalues.shape == (1,)


def test_fit_eigenvalues_sorted(affine_model):
    keys = [(v.real, v.imag) for v in affine_model.eigenvalues]
    assert keys == sorted(keys)


def test_fit_modes_unit_normalized(affine_model):
    for mode, residual in zip(
        affine_model.modes, affine_model.mode_residuals
    ):
        # zero modes can stay unnormalized; all others have unit data norm
        if norm(mode) > 1e-12:
            assert norm(mode) == pytest.approx(1.0, abs=1e-10)
        assert residual >= 0.0


def test_fit_recovers_affine_spectrum(affine_model):
    ranked = np.argsort(affine_model.mode_residuals)
    leading = affine_model.eigenvalues[ranked[:3]]
    targets = np.array([0.0, 0.9, 1.8])
    for t in targets:
        assert np.min(np.abs(leading - t)) < 1e-2


def test_fit_gram_matches_basis(affine_model):
    S = affine_model.basis
    assert np.allclose(affine_model.gram, S.conj().T @ S)


def test_fit_ridge_zero_raises_for_degenerate_data():
    f = TaylorPolynomial([0.1, 0.9])
    near1 = integrate_ode(f, 0.2, 1.0, 1e-2)
    near2 = integrate_ode(f, 0.2 + 1e-9, 1.0, 1e-2)
    with pytest.raises(IllConditionedError):
        dmd.fit([near1, near2], order=24, ridge=0.0)


def test_fit_explicit_ridge_respected():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    model = dmd.fit([traj], order=16, ridge=1e-6)
    assert model.regularization == 1e-6


@pytest.mark.parametrize("ridge", [-1.0, float("inf"), float("nan")])
def test_fit_rejects_negative_or_nonfinite_ridge(ridge):
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    with pytest.raises(ValueError, match="ridge"):
        dmd.fit([traj], order=16, ridge=ridge)


@pytest.mark.parametrize("order", [0, -1, -2, True, 2.0, 16.0, "16"])
def test_fit_rejects_order_below_one(order):
    # the identity observable is the coefficient of z, so N >= 1; an order
    # that is not an integer (a bool, an integral float) is refused too
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    with pytest.raises(InvalidIndexError, match="order"):
        dmd.fit([traj], order=order)
    # a NumPy integer is an order
    assert dmd.fit([traj], order=np.int64(16)).to_json() == dmd.fit([traj], order=16).to_json()


def test_fit_records_digests(affine_model):
    assert len(affine_model.trajectory_digests) == 20
    assert all(len(d) == 64 for d in affine_model.trajectory_digests)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_each_trajectory_is_formatted_once(tmp_path, monkeypatch):
    counted_formats = []  # the trajectory of each _csv_bytes call
    formatter = occupation._csv_bytes

    def counted(trajectory):
        counted_formats.append(trajectory)
        return formatter(trajectory)

    monkeypatch.setattr(occupation, "_csv_bytes", counted)
    batch = _affine_batch(n_radii=2, n_angles=2, dt=1e-2)
    written, fresh = batch[:3], batch[3]
    paths = [tmp_path / f"orbit{k}.csv" for k in range(len(written))]
    for trajectory, path in zip(written, paths):
        write_trajectory_csv(trajectory, path)
    assert len(counted_formats) == 3
    digests = [trajectory.content_digest() for trajectory in written]
    first = dmd.fit(written, order=16)
    second = dmd.fit(written, order=16)
    assert len(counted_formats) == 3
    assert digests == [_sha256(path) for path in paths]
    assert first.trajectory_digests == second.trajectory_digests == tuple(digests)
    # never written: a fit formats nothing, and the first model to read its
    # digests formats it once
    models = [dmd.fit([fresh], order=16) for _ in range(2)]
    assert len(counted_formats) == 3
    assert models[0].trajectory_digests == models[1].trajectory_digests
    assert len(counted_formats) == 4 and counted_formats[-1] is fresh
    write_trajectory_csv(fresh, tmp_path / "fresh.csv")
    for model in models:
        assert model.trajectory_digests == (_sha256(tmp_path / "fresh.csv"),)


def test_model_keeps_only_orbits_whose_digest_is_unknown(tmp_path):
    batch = _affine_batch(n_radii=1, n_angles=3, dt=1e-2)
    paths = [tmp_path / f"orbit{k}.csv" for k in range(len(batch))]
    for trajectory, path in zip(batch, paths):
        write_trajectory_csv(trajectory, path)
    read = [read_trajectory_csv(path) for path in paths]
    refs = [weakref.ref(trajectory) for trajectory in read]
    model = dmd.fit(read, order=8)
    del read
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(paths)
    assert model.trajectory_digests == tuple(_sha256(path) for path in paths)
    # an orbit never digested stays alive until the model reads its digest
    fresh = _affine_batch(n_radii=1, n_angles=1, dt=1e-2)[0]
    ref = weakref.ref(fresh)
    model = dmd.fit([fresh], order=8)
    del fresh
    gc.collect()
    assert ref() is not None
    digests = model.trajectory_digests
    gc.collect()
    assert ref() is None and model.trajectory_digests is digests


@pytest.mark.parametrize("cell", [" 0.1 ", "1e-1"])
def test_stored_digest_never_replaces_the_source_file_digest(tmp_path, cell):
    source = tmp_path / "source.csv"
    source.write_text(f"t,re,im\n0,{cell},0\n0.5,0.2,0\n1,0.3,0\n")
    trajectory = read_trajectory_csv(source)
    write_trajectory_csv(trajectory, tmp_path / "canonical.csv")
    assert _sha256(tmp_path / "canonical.csv") != _sha256(source)
    model = dmd.fit([trajectory], order=4)
    assert trajectory.content_digest() == _sha256(source)
    assert model.trajectory_digests == (_sha256(source),)


def test_replaced_trajectory_gets_the_digest_of_its_own_bytes(tmp_path):
    parameters = inspect.signature(Trajectory).parameters
    assert list(parameters) == ["times", "points"]
    orbit = _affine_batch(n_radii=1, n_angles=1, dt=1e-2)[0]
    canonical, source = tmp_path / "canonical.csv", tmp_path / "source.csv"
    write_trajectory_csv(orbit, canonical)
    # a source file that is not canonical: its digest is not the orbit's
    source.write_bytes(canonical.read_bytes().replace(b"\n", b"\r\n"))
    cases = [(orbit, canonical), (read_trajectory_csv(source), source)]
    for trajectory, path in cases:
        before = repr(trajectory)
        assert trajectory.content_digest() == _sha256(path)
        assert repr(trajectory) == before
        halved = dataclasses.replace(trajectory, points=0.5 * trajectory.points)
        write_trajectory_csv(halved, tmp_path / "halved.csv")
        assert halved.content_digest() == _sha256(tmp_path / "halved.csv")
        assert halved.content_digest() != trajectory.content_digest()
        model = dmd.fit([trajectory, halved], order=4)
        assert model.trajectory_digests == (
            trajectory.content_digest(), _sha256(tmp_path / "halved.csv")
        )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_at_zero_is_subspace_reconstruction(affine_model):
    # at t=0 the forecast must equal the ridge-regularized projection of the
    # identity observable evaluated at z0, computed here independently
    model = affine_model
    z0 = 0.3
    S = model.basis
    n = model.order + 1
    powers = z0 ** np.arange(n)
    e1 = np.zeros(n, dtype=complex)
    e1[1] = 1.0
    G = S.conj().T @ S + model.regularization * np.eye(S.shape[1])
    oracle = powers @ (S @ np.linalg.solve(G, S.conj().T @ e1))
    got = dmd.predict(model, z0, 0.0)
    assert got == pytest.approx(complex(oracle), abs=1e-12)


def test_predict_tracks_affine_flow(affine_model):
    z0 = 0.3
    for t in np.arange(0.0, 1.01, 0.1):
        truth = (z0 + 1.0 / 9.0) * np.exp(0.9 * t) - 1.0 / 9.0
        got = dmd.predict(affine_model, z0, float(t))
        assert abs(got - truth) < 1e-3


def test_predict_warns_on_thin_data():
    traj = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    model = dmd.fit([traj], order=24)
    assert model.identity_residual > 1e-2
    with pytest.warns(LowConfidenceWarning):
        dmd.predict(model, 0.2, 0.5)


@pytest.mark.parametrize(
    "z0, error",
    [(1.5, DiskDomainError), (1e200, DiskDomainError), (float("nan"), ValueError)],
)
def test_predict_refuses_a_start_outside_the_disk(affine_model, z0, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="^z0 "):
            dmd.predict(affine_model, z0, 0.5)
        # the edge of the sampling disk is still a start
        edge = 1.0 - occupation.DISK_MARGIN
        assert np.isfinite(dmd.predict(affine_model, edge, 0.0))


def _two_solve_predict(model, z0, t):
    # oracle: applies the filter factors sigma / (sigma^2 + ridge) and solves
    # against the rank-coordinate eigenvectors W on every call
    z0 = complex(z0)
    left, sigma = model.left_singular_vectors, model.singular_values
    c = np.conj(z0 ** np.arange(model.order + 1))
    p = sigma / (sigma**2 + model.regularization) * (left.conj().T @ c)
    w = model.eigenvectors
    evolved = w @ (np.exp(model.eigenvalues * t) * np.linalg.solve(w, p))
    coeffs = left @ (sigma * evolved)
    return complex(np.conj(coeffs[1]))


def _disk_batch(rng, count):
    field = TaylorPolynomial([0.0, complex(-0.5, 1.0)])
    starts = 0.6 * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * np.pi * rng.uniform(size=count)
    )
    return [integrate_ode(field, complex(z0), 1.0, 1e-2) for z0 in starts]


@pytest.mark.parametrize("count", [20, 200])
def test_predict_matches_two_solve_oracle(count):
    rng = np.random.default_rng(count)
    model = dmd.fit(_disk_batch(rng, count), order=64)
    starts = 0.5 * np.sqrt(rng.uniform(size=16)) * np.exp(
        2j * np.pi * rng.uniform(size=16)
    )
    for z0, t in zip(starts, rng.uniform(0.0, 1.0, 16)):
        got = dmd.predict(model, z0, t)
        assert isinstance(got, complex)
        assert abs(got - _two_solve_predict(model, z0, t)) <= 1e-12


def test_predict_array_times_match_scalar_path(affine_model):
    times = np.linspace(0.0, 1.0, 11)
    values = dmd.predict(affine_model, 0.3, times)
    assert isinstance(values, np.ndarray) and values.shape == times.shape
    scalars = [dmd.predict(affine_model, 0.3, t) for t in times]
    assert values.tobytes() == np.array(scalars).tobytes()
    # each forecast has the same bytes whatever other times share its array
    for count in range(1, times.size):
        assert dmd.predict(affine_model, 0.3, times[:count]).tobytes() == (
            values[:count].tobytes()
        )


# sha256 of the repr of each forecast of _PINNED_FORECASTS in turn, joined by
# newlines; the last (z0, t) overflows
_PINNED_FORECASTS = [
    (0.3, 0.0), (0.3, -0.4), (0.1 + 0.2j, 0.5), (-0.25j, 1.0),
    (0.2 - 0.1j, 2.5), (0.3, 1e4),
]
_PINNED_FORECAST_SHA256 = (
    "954f8d33c9b8306e24d01be038c5e4b462027eb579cd75397161cc377cff6e83"
)


def test_forecast_bytes_are_pinned(affine_model):
    reprs = [repr(dmd.predict(affine_model, z0, t)) for z0, t in _PINNED_FORECASTS[:-1]]
    z0, t = _PINNED_FORECASTS[-1]
    with pytest.warns(LowConfidenceWarning, match=r"t = 10000 \(1 of 1 times\)"):
        reprs.append(repr(dmd.predict(affine_model, z0, t)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == _PINNED_FORECAST_SHA256


def test_predict_refuses_times_of_two_dimensions(affine_model):
    with pytest.raises(ValueError, match="1-d array of times"):
        dmd.predict(affine_model, 0.3, np.zeros((2, 2)))


def test_predict_warns_when_forecast_not_finite():
    f = TaylorPolynomial([0.1, 0.9])
    batch = [
        integrate_ode(f, 0.2 * np.exp(2j * np.pi * k / 5), 1.0, 1e-2)
        for k in range(5)
    ]
    model = dmd.fit(batch, order=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(LowConfidenceWarning, match="t = 10000"):
            value = dmd.predict(model, 0.05, 1e4)
        assert not np.isfinite(value)
        with pytest.warns(LowConfidenceWarning, match="t = 10000"):
            values = dmd.predict(model, 0.05, np.array([0.5, 1e4]))
        assert np.isfinite(values[0]) and not np.isfinite(values[1])


def _gram_fit(trajectories, order, ridge):
    # oracle: the m x m Gram route, C = (G + ridge I)^{-1} S^H T
    # eigendecomposed in trajectory space, with its own factor-once predictor
    basis, targets, _ = dmd._snapshot_matrices(trajectories, order)
    gram = basis.conj().T @ basis
    if ridge is None:
        ridge = 1e-10 * float(np.trace(gram).real)
    regularized = gram + ridge * np.eye(gram.shape[0])
    mu, vectors = np.linalg.eig(
        np.linalg.solve(regularized, basis.conj().T @ targets)
    )
    forecast_map = np.linalg.solve(
        vectors, np.linalg.solve(regularized, basis.conj().T)
    )
    readout = basis[1] @ vectors

    def predict(z0, t):
        coords = forecast_map @ np.conj(complex(z0) ** np.arange(order + 1))
        return complex(np.conj((np.exp(mu * t) * coords) @ readout))

    return mu, predict, ridge, np.linalg.cond(gram), np.linalg.cond(regularized)


# Over 750 random draws (N in {8, 16, 24}, m up to 2N + 10, the three ridges)
# the largest gaps between the routes were 0.82 eps kappa (resolved
# eigenvalues) and 0.80 eps kappa (forecasts), kappa the condition number of
# the G + ridge I that the Gram route solves against; 800 examples of the test
# below pass at ten times that
_ORACLE_MARGIN = 10.0 * np.finfo(float).eps


@settings(deadline=None, max_examples=40)
@given(
    order=st.sampled_from([8, 16, 24]),
    count=st.integers(1, 50),
    ridge=st.sampled_from([None, 1e-8, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_space_fit_matches_gram_oracle(order, count, ridge, seed):
    # count spans both sides of N+1: above it S has a null space and the
    # Gram route carries count - (N+1) structural zero eigenvalues
    rng = np.random.default_rng(seed)
    batch = _disk_batch(rng, count)
    mu, oracle_predict, rho, cond, kappa = _gram_fit(batch, order, ridge)
    try:
        model = dmd.fit(batch, order=order, ridge=ridge)
    except IllConditionedError:
        assert ridge == 0.0 and cond > 0.5e14  # the two estimates of cond(G)
        return  # differ by rounding only near the 1e14 limit
    assert not (ridge == 0.0 and cond > 2e14)
    assert model.rank == min(count, order + 1)
    assert model.regularization == pytest.approx(rho, rel=1e-12)
    margin = _ORACLE_MARGIN * kappa
    for lam in model.eigenvalues[model.mode_residuals <= 1e-3]:
        assert np.min(np.abs(mu - lam)) <= margin
    starts = 0.5 * np.sqrt(rng.uniform(size=4)) * np.exp(
        2j * np.pi * rng.uniform(size=4)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowConfidenceWarning)  # thin batches
        for z0, t in zip(starts, rng.uniform(0.0, 1.0, 4)):
            assert abs(dmd.predict(model, z0, t) - oracle_predict(z0, t)) <= margin


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_model_json_deterministic(affine_model):
    a = affine_model.to_json()
    b = affine_model.to_json()
    assert a == b
    assert a.endswith("\n")
    payload = json.loads(a)
    assert payload["schema"] == 2
    assert payload["n_trajectories"] == 20
    assert payload["rank"] == 20
    assert payload["singular_value_ratio"] == affine_model.singular_value_ratio
    assert 0.0 < payload["singular_value_ratio"] < 1.0
    assert len(payload["eigenvalues"]) == 20
    assert len(payload["trajectory_digests"]) == 20
    assert dmd.fit(_affine_batch(dt=5e-3), order=48).to_json() == a


def _reject_constant(token):
    raise AssertionError(f"model contains the non-JSON token {token}")


def test_model_json_is_strict(affine_model):
    # no fit yields a non-finite model value today; one built with them
    # writes the strings reports use, never a bare NaN or Infinity token
    residuals = affine_model.mode_residuals.copy()
    residuals[0] = np.inf
    eigenvalues = affine_model.eigenvalues.copy()
    eigenvalues[0] = complex(-np.inf, np.nan)
    model = dataclasses.replace(
        affine_model,
        identity_residual=float("nan"),
        mode_residuals=residuals,
        eigenvalues=eigenvalues,
        trajectories=_affine_batch(dt=5e-3),
    )
    payload = json.loads(model.to_json(), parse_constant=_reject_constant)
    assert payload["identity_residual"] == "nan"
    assert payload["mode_residuals"][0] == "infinite"
    assert payload["eigenvalues"][0] == ["-infinite", "nan"]
    assert payload["mode_residuals"][1:] == affine_model.mode_residuals[1:].tolist()


def test_wide_batch_model_holds_no_m_by_m_array():
    # m = 30 trajectories at N = 8: rank k = 9, and 21 structural zero
    # eigenvalues of the m x m Gram operator are gone
    rng = np.random.default_rng(7)
    model = dmd.fit(_disk_batch(rng, 30), order=8)
    assert model.rank == 9 and model.eigenvalues.shape == (9,)
    # the largest array is the (N+1) x m basis itself
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 9 and max(a.size for a in arrays) == 9 * 30
    payload = json.loads(model.to_json())
    assert sorted(payload) == [
        "eigenvalues", "identity_residual", "mode_residuals", "modes",
        "n_trajectories", "operator", "order", "rank", "regularization",
        "schema", "singular_value_ratio", "singular_values",
        "trajectory_digests",
    ]
    assert len(payload["operator"]) == 9
    assert all(len(row) == 9 for row in payload["operator"])
    assert len(payload["singular_values"]) == len(payload["modes"]) == 9
    # the Gram matrix is still there on demand, read-only
    assert model.gram.shape == (30, 30) and not model.gram.flags.writeable


def _one_orbit_moments(weights, points, count):
    # the one-orbit running product that the blocked batch moments replace
    base = np.conj(points)
    term = np.array(weights, dtype=np.complex128)
    moments = np.empty(count, dtype=np.complex128)
    for n in range(count):
        moments[n] = term.sum()
        term *= base
    return moments


def _one_orbit_weights(times):
    # composite Simpson on a uniform grid with an even interval count, else
    # the trapezoid rule, one orbit at a time: the oracle of the block weights
    gaps = np.diff(times)
    uniform = np.max(gaps) - np.min(gaps) <= 1e-9 * np.max(gaps)
    if uniform and (times.size - 1) % 2 == 0:
        h = float(times[-1] - times[0]) / (times.size - 1)
        weights = np.full(times.size, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        return weights * (h / 3.0)
    weights = np.zeros(times.size)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    return weights


def _random_orbit(rng, samples, uniform):
    if uniform:
        times = np.linspace(0.0, rng.uniform(0.5, 2.0), samples)
    else:
        times = np.cumsum(rng.uniform(0.5, 1.5, samples)) / samples
    radii = 0.9 * np.sqrt(rng.uniform(size=samples))
    return Trajectory(times, radii * np.exp(2j * np.pi * rng.uniform(size=samples)))


def _mixed_batch():
    # sample counts 3, 4, 1001 and 10001, interleaved; uniform orbits with an
    # even interval count take Simpson, the others (4 samples, jittered
    # times) the trapezoid rule; the two long counts fill more than one block
    rng = np.random.default_rng(15)
    rows = {n: occupation._MOMENT_BLOCK_BYTES // (16 * n) for n in (1001, 10001)}
    specs = [(3, True), (3, False), (4, True)]
    specs += [(1001, k % 2 == 0) for k in range(rows[1001] + 3)]
    specs += [(10001, k % 2 == 0) for k in range(rows[10001] + 1)]
    batch = [_random_orbit(rng, samples, uniform) for samples, uniform in specs]
    return [batch[k] for k in rng.permutation(len(batch))]


def test_batch_moments_keep_the_bytes_of_one_orbit():
    batch = _mixed_batch()
    order = 16
    rules = [occupation.occupation_kernel(t, 0).quadrature for t in batch]
    assert set(rules) == {"simpson", "trapezoid"}
    for samples in {t.times.size for t in batch}:
        group = [t for t in batch if t.times.size == samples]
        got, simpson = occupation._conj_moments(group, order + 1)
        assert [rules[batch.index(t)] == "simpson" for t in group] == simpson.tolist()
        for row, traj in zip(got, group):
            weights = _one_orbit_weights(traj.times)
            expected = _one_orbit_moments(weights, traj.points, order + 1)
            assert row.tobytes() == expected.tobytes()

    model = dmd.fit(batch, order=order)
    # the sha256 of the model that one-orbit weights and kernels give
    assert hashlib.sha256(model.to_json().encode()).hexdigest() == (
        "182c7ce3caf08d860920dffe6810c2ae114452fd610d9c18c06b35c847c52713"
    )
    _, targets, _ = dmd._snapshot_matrices(batch, order)
    for j, traj in enumerate(batch):
        kernel = occupation_kernel(traj, order).series.coeffs
        assert model.basis[:, j].tobytes() == kernel.tobytes()
        target = endpoint_kernel_difference(traj, order).coeffs
        assert targets[:, j].tobytes() == target.tobytes()
        kernels = szego_kernel(traj.points[-1], order).coeffs - szego_kernel(
            traj.points[0], order
        ).coeffs
        assert target.tobytes() == kernels.tobytes()

    short = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    for at in (0, len(batch) // 2, len(batch)):
        with pytest.raises(InsufficientDataError):
            dmd.fit(batch[:at] + [short] + batch[at:], order=order)


def test_fit_reads_a_generator_once_with_the_bytes_of_a_list():
    for batch, order in ((_affine_batch(dt=5e-3), 48), (_mixed_batch(), 16)):
        drawn = []

        def orbits():
            for traj in batch:
                drawn.append(traj)
                yield traj

        streamed = dmd.fit(orbits(), order=order)
        assert streamed.to_json() == dmd.fit(batch, order=order).to_json()
        assert drawn == batch


def test_fit_checks_each_orbit_as_it_reads_it():
    good = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    short = Trajectory(np.array([0.0, 1.0]), np.array([0.1, 0.2]))

    def then_stop(bad):
        yield good
        yield bad
        raise AssertionError("the fit read past a bad orbit")

    with pytest.raises(InsufficientDataError, match="at least one trajectory"):
        dmd.fit(iter(()))
    with pytest.raises(TypeError, match="Trajectory instances"):
        dmd.fit(then_stop(np.zeros(4)))
    with pytest.raises(InsufficientDataError, match="at least 3 samples"):
        dmd.fit(then_stop(short))
    # a list is read in order too: its short orbit comes before its array
    with pytest.raises(InsufficientDataError, match="at least 3 samples"):
        dmd.fit([good, short, np.zeros(4)])


def test_fit_drops_each_orbit_once_its_block_is_done():
    # orbits whose digest is known: the model keeps only the digest
    samples = 1001
    rows = occupation._moment_block_rows(samples)
    rng = np.random.default_rng(11)
    alive, held = [], []

    def orbits():
        for k in range(2 * rows + 1):
            if k > rows:
                gc.collect()
                held.append(sum(ref() is not None for ref in alive[:rows]))
            traj = _random_orbit(rng, samples, True)
            traj.content_digest()
            alive.append(weakref.ref(traj))
            yield traj

    model = dmd.fit(orbits(), order=8)
    assert model.n_trajectories == 2 * rows + 1
    # the first block is gone by the time the fit draws the second orbit after it
    assert held == [0] * rows


def test_fit_hands_each_moment_call_one_block(monkeypatch):
    conj_moments, blocks = dmd._conj_moments, []

    def spy(trajectories, count):
        blocks.append([t.times.size for t in trajectories])
        return conj_moments(trajectories, count)

    monkeypatch.setattr(dmd, "_conj_moments", spy)
    batch = _mixed_batch()
    dmd.fit(batch, order=16)
    assert sum(map(len, blocks)) == len(batch)
    for sizes in blocks:
        # one sample count, and at most one block of rows of it
        assert len(set(sizes)) == 1
        assert len(sizes) <= occupation._moment_block_rows(sizes[0])


def test_fit_rejects_an_overflowing_time_span():
    # Simpson weights of a span beyond the largest double would be infinite;
    # the trajectory's validity rule refuses such a span before any fit
    good = integrate_ode(monomial(1), 0.2, 1.0, 1e-2)
    with pytest.raises(ValueError, match="sample 2 has a time span .* not finite"):
        dmd.fit(
            [good, Trajectory(np.array([-1e308, 0.0, 1e308]), np.array([0.1, 0.2, 0.3]))],
            order=8,
        )


def _slice_batch(count):
    # sample counts 3, 4, 51 and 201 in turn, uniform (Simpson) and jittered
    # (trapezoid) times alternating
    rng = np.random.default_rng(36)
    sizes = (3, 4, 51, 201)
    return [_random_orbit(rng, sizes[k % 4], k % 3 != 0) for k in range(count)]


@pytest.mark.parametrize("order", [16, 64])
def test_compress_on_a_column_slice_matches_fit_on_the_sub_batch(order):
    # the rank-space solver knows only S, T and the digests: a C-contiguous
    # column slice of one batch's matrices is the fit of those orbits
    batch = _slice_batch(120)
    basis, targets, sources = dmd._snapshot_matrices(batch, order)
    hold_one_out = [j for j in range(len(batch)) if j != 57]
    for cols in (hold_one_out, list(range(0, len(batch), 2)), [83]):
        sub_basis = np.ascontiguousarray(basis[:, cols])
        sub_targets = np.ascontiguousarray(targets[:, cols])
        sub_sources = [sources[j] for j in cols]
        for ridge in (None, 1e-8, 0.0):
            try:
                expected = dmd.fit([batch[j] for j in cols], order, ridge).to_json()
            except IllConditionedError as exc:
                with pytest.raises(IllConditionedError, match=f"^{re.escape(str(exc))}$"):
                    dmd._compress(sub_basis, sub_targets, sub_sources, ridge)
                continue
            got = dmd._compress(sub_basis, sub_targets, sub_sources, ridge)
            assert got.to_json() == expected


def test_wide_batch_fit_stacks_one_block_of_moments():
    # 200 orbits of 1001 samples at N = 64: the whole batch's running product
    # alone would take m T 16 bytes; the fit holds one block of it at a time
    # (a one-orbit loop peaks at 0.40 of that, the blocked moments at 0.68)
    rng = np.random.default_rng(5)
    count, samples = 200, 1001
    batch = [_random_orbit(rng, samples, True) for _ in range(count)]
    dmd.fit(batch[:2], order=64)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        dmd.fit(batch, order=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < count * samples * 16


# ---------------------------------------------------------------------------
# rank deficiency and convergence
# ---------------------------------------------------------------------------


def test_duplicated_trajectory_fit_is_stable():
    # exact duplicate makes the Gram singular; the ridge must absorb it
    # without disturbing the resolved part of the spectrum
    batch = _affine_batch(dt=5e-3)
    clean = dmd.fit(batch, order=48, ridge=1e-8)
    doubled = dmd.fit(batch + [batch[0]], order=48, ridge=1e-8)
    assert doubled.n_trajectories == len(batch) + 1

    gram = doubled.gram
    assert np.max(np.abs(gram - gram.conj().T)) == 0.0
    assert np.min(np.linalg.eigvalsh(gram)) > -1e-10

    resolved = np.argsort(clean.mode_residuals)[:2]
    for lam in np.array(clean.eigenvalues)[resolved]:
        nearest = min(abs(lam - mu) for mu in doubled.eigenvalues)
        assert nearest < 1e-6

    before = dmd.predict(clean, 0.25, 1.0)
    after = dmd.predict(doubled, 0.25, 1.0)
    assert abs(before - after) < 1e-3


def test_spectrum_sharpens_with_more_trajectories():
    targets = np.array([0.0, 0.9, 1.8])
    errs = []
    for n_radii in (1, 2, 4):
        model = dmd.fit(_affine_batch(n_radii=n_radii, dt=5e-3), order=48)
        ranked = np.argsort(model.mode_residuals)[:3]
        leading = np.array(model.eigenvalues)[ranked]
        errs.append(
            max(min(abs(lam - t) for lam in leading) for t in targets)
        )
    assert errs[0] < 1e-2
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6
