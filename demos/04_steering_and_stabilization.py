"""Nonlinear boundary control: constant-state steering and the three-phase
stabilization loop.

First hop a constant state to another constant along a chain of boundary
splittings (each hop costs two crossing times).  Then start from a profile
littered with shocks and iterate the 3-tau stabilization step toward a
constant target, printing the contraction record.
"""

import numpy as np

from fronttrack import (
    Box, GasModel, dense_initial_data, stabilize, steer_constant_states,
)

gas = GasModel(K=1.0, gamma=2.0, box=Box([0.85, -0.10], [1.20, 0.10]))

print("== steering between constant states ==")
omega = np.array([1.0, 0.0])
omega_prime = np.array([1.10, 0.06])
res = steer_constant_states(gas, omega, omega_prime, (0.0, 1.0),
                            eps_fronts=0.01, chain_step=0.05)
print(f"crossing time tau = {res.tau:.4f}")
print(f"chain of {len(res.actions) // 2} hops, "
      f"horizon T = {res.sim.time:.4f}")
for action in res.actions:
    print(f"  t={action.time:8.4f}  impose at {action.side}: "
          f"({action.outer_state[0]:.6f}, {action.outer_state[1]:+.6f})")
print(f"terminal distance to the target: "
      f"{res.sim.now.sup_distance(omega_prime):.2e}, "
      f"fronts left: {res.sim.now.n_fronts}")

print("\n== stabilization of a shock-laden profile ==")
slow = GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
                ref_state=[1.0, 0.98], min_speed=0.002)
u_star = np.array([1.0, 0.98])
profile = dense_initial_data(slow, 15, -0.05, (0.0, 1.0),
                             base_state=u_star)
print(f"initial profile: 15 shocks, total strength 0.05, "
      f"TV = {profile.total_variation():.4f}")

result = stabilize(slow, profile, u_star, k_max=3, eps0=0.006)
if result.record.failure:
    raise SystemExit(f"contraction failure: {result.record.failure}")
print(f"tau = {result.tau:.2f}; each step spans 3 tau")
print("contraction record:")
print("   k        time       sup-dist             TV          delta")
for row in result.record.rows:
    print(f"  {row.k:2d}  {row.time:10.2f}  {row.sup_dist:13.3e}  "
          f"{row.tv:13.3e}  {row.delta:13.3e}")
print("(one exact-solver step lands at roundoff: the contraction beats the "
      "doubly-exponential reference)")
for k, step in enumerate(result.steps):
    n_coll = sum(1 for r in step.sim.records if r.kind == "collision")
    print(f"step {k}: {n_coll} interior interactions, "
          f"violations: {step.violations or 'none'}")
