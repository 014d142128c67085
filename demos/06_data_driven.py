"""Recovering operator spectra and forecasts from trajectory data alone.

Twenty short trajectories of an affine field, no knowledge of f: build
occupation kernels, compress the adjoint onto their span, and read off
eigenvalues and a forecast. Compare against the matrix truth afterwards.
"""

import numpy as np

from hardyliou import TaylorPolynomial, integrate_ode, dmd

f = TaylorPolynomial([0.1, 0.9])

trajectories = []
for r in np.linspace(0.075, 0.3, 4):
    for k in range(5):
        z0 = r * np.exp(2j * np.pi * k / 5)
        trajectories.append(integrate_ode(f, z0, 1.0, 1e-3))

model = dmd.fit(trajectories, order=64)
print("fitted", model.n_trajectories, "trajectories,",
      "ridge =", model.regularization)
print("identity observable residual:", model.identity_residual)

# Rank modes by how well they satisfy the eigen-relation; the physical
# eigenvalues 0, 0.9, 1.8, ... surface first.
ranked = np.argsort(model.mode_residuals)
print("\nbest-resolved eigenvalues:")
for idx in ranked[:5]:
    lam = model.eigenvalues[idx]
    print(f"  {lam.real:+.6f} {lam.imag:+.2e}i  "
          f"(residual {model.mode_residuals[idx]:.2e})")

# Forecast from z0 = 0.3 and compare with a reference integration.
z0 = 0.3
truth_traj = integrate_ode(f, z0, 1.0, 1e-4)
# predict takes an array of times and reuses the factors computed in fit.
times = np.linspace(0.0, 1.0, 11)
predicted = dmd.predict(model, z0, times)
truth = truth_traj.points[np.rint(times / 1e-4).astype(int)]
worst = np.max(np.abs(predicted - truth))
print("\nworst forecast error on [0, 1]:", worst)

# The model serializes deterministically for archival.
payload = model.to_json()
print("serialized model:", len(payload), "bytes,",
      "digest count", len(model.trajectory_digests))
