"""Occupation kernels: trajectories as Hardy-space functionals.

Integrating the Szego kernel along a trajectory produces a function whose
inner product with any g recovers the time integral of g along the path.
The central identity says the adjoint operator maps that function to a
difference of endpoint kernels. Everything here is checkable to quadrature
accuracy.
"""

import os
import tempfile

import numpy as np

from hardyliou import (
    TaylorPolynomial,
    adjoint_matrix,
    endpoint_kernel_difference,
    inner_product,
    integrate_ode,
    szego_kernel,
    liouville_matrix,
    liouville_occupation_residual,
    occupation_kernel,
    read_trajectory_csv,
    write_trajectory_csv,
)

N = 80

# Solve zdot = z from z0 = 0.2 for one unit of time (RK4, even step count).
f = TaylorPolynomial([0.0, 1.0])
traj = integrate_ode(f, 0.2, 1.0, 1e-3)
print("trajectory: 0.2 ->", traj.points[-1], "expected", 0.2 * np.e)

# The occupation kernel pairs like a time integral:
# <g, Gamma> = integral of g(gamma(t)) dt.
gamma = occupation_kernel(traj, N)
g = TaylorPolynomial([0.0, 1.0])
paired = inner_product(g, gamma.series)
exact = 0.2 * (np.e - 1.0)
print("time integral of z along the orbit:", paired, "exact:", exact)
print("quadrature rule used:", gamma.quadrature)

# The identity: A* Gamma = K_end - K_start, checked in coefficient space.
lhs = adjoint_matrix(liouville_matrix(f, N)).apply(gamma.series)
rhs = endpoint_kernel_difference(traj, N)
print("identity residual (direct):",
      np.linalg.norm(lhs.coeffs - rhs.coeffs))
print("identity residual (helper):",
      liouville_occupation_residual(f, traj, N))

# Round-trip through CSV keeps every sample bit-exact and records a digest.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "orbit.csv")
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
print("CSV round trip exact:",
      bool(np.array_equal(back.points, traj.points)))
print("content digest:", back.content_digest()[:16], "...")

# Kernels at the endpoints are just evaluations; sanity check one.
K_end = szego_kernel(complex(traj.points[-1]), N)
print("endpoint kernel reproduces g:",
      abs(inner_product(g, K_end) - g(traj.points[-1])))
