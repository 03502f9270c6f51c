"""Exact boundary control of a constant-coefficient system.

With constant coefficients every profile is reachable after one crossing
time: each characteristic component simply transports the target backwards
onto the inflow boundary.  The demo steers a random initial profile to a
random target and prints the boundary data that does it.
"""

import numpy as np

from fronttrack import LinearModel, linear_exact_control
from fronttrack.profiles import PiecewiseConstant

rng = np.random.default_rng(7)
model = LinearModel([[-1.0, 0.0], [0.0, 1.0]])

phi = PiecewiseConstant(0.0, 1.0, np.sort(rng.uniform(0, 1, 3)),
                        rng.uniform(-1, 1, (4, 2)))
psi = PiecewiseConstant(0.0, 1.0, np.sort(rng.uniform(0, 1, 2)),
                        rng.uniform(-1, 1, (3, 2)))

sol = linear_exact_control(model, phi, psi, T=1.0)
print(f"crossing time tau = {sol.tau}, control horizon T = {sol.T}")

for t in (0.0, 0.5, 1.0):
    prof = sol.profile_at(t)
    print(f"\nu({t}, .) has {len(prof.xs)} breakpoints:")
    for lo, hi, val in prof.cells():
        print(f"  [{lo:+.4f}, {hi:+.4f})  u = ({val[0]:+.4f}, {val[1]:+.4f})")

errT = max(np.max(np.abs(sol.profile_at(1.0)(x) - psi(x)))
           for x in np.linspace(0.01, 0.99, 97))
print(f"\nmax |u(T, x) - target(x)| over sample points: {errT:.2e}")

print("\nboundary data realizing the steering:")
for (side, family), data in sorted(sol.boundary_data().items()):
    where = "x = a (right-movers)" if side == "a" else "x = b (left-movers)"
    print(f"  family {family} prescribed at {where}:")
    for lo, hi, val in data.cells():
        print(f"    t in [{lo:.4f}, {hi:.4f}): l_{family} . u = {val:+.4f}")
