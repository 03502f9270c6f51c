"""Event-driven front tracking: collisions, fans, and the Glimm functionals.

Sets up a three-wave profile whose shocks hunt each other down, runs the
event loop, and prints the interaction log together with the monotone
functional bookkeeping.
"""

import numpy as np

from fronttrack import (
    Box, GasModel, Simulation, calibrate_interaction_constant, check_upsilon,
    lax_curve, wave_measures,
)
from fronttrack.profiles import profile_from_jumps

# near-sonic base state: family-1 waves creep, so they interact instead of
# escaping through the boundary
gas = GasModel(K=1.0, gamma=2.0, box=Box([0.95, 0.88], [1.10, 1.00]),
               ref_state=[1.0, 0.98], min_speed=0.002)
u0 = np.array([1.0, 0.98])

u1 = lax_curve(gas, u0, 1, -0.030).state
u2 = lax_curve(gas, u1, 1, -0.008).state
u3 = lax_curve(gas, u2, 1, +0.004).state   # a small rarefaction to absorb
profile = profile_from_jumps(0.0, 0.5, u0,
                             [(0.30, u1), (0.34, u2), (0.38, u3)])

sim = Simulation(gas, profile, eps_fronts=0.002)
snap = sim.now
print(f"initial fronts: {snap.n_fronts}  "
      f"(rarefaction split into pieces of strength <= {sim.eps})")
for x, family, kind, sigma, speed in zip(snap.xs, snap.families, snap.kinds,
                                         snap.sigmas, snap.speeds):
    print(f"  x={x:.3f} family={family} {kind:11s} "
          f"sigma={sigma:+.5f} speed={speed:+.5f}")

sim.advance_to(7.0)

print("\ninteraction log:")
for rec in sim.records:
    if rec.kind == "collision":
        ins = ", ".join(f"{f}{'S' if k == 'shock' else 'R'}({s:+.1e})"
                        for f, s, k in zip(rec.in_families, rec.in_sigmas,
                                           rec.in_kinds))
        outs = ", ".join(f"{f}{'S' if k == 'shock' else 'R'}({s:+.1e})"
                         for f, s, k in zip(rec.out_families, rec.out_sigmas,
                                            rec.out_kinds))
        print(f"  t={rec.time:7.3f} x={rec.x:.4f}  [{ins}] -> [{outs}]  "
              f"dQ={rec.dQ:+.2e}")
    else:
        print(f"  t={rec.time:7.3f} {rec.kind}: front {rec.in_ids}")

print("\nfunctional history (t, V, Q, TV):")
for t, V, Q, TV in sim.functional_history:
    print(f"  t={t:7.3f}  V={V:.6f}  Q={Q:.3e}  TV={TV:.6f}")

c0 = calibrate_interaction_constant(gas, n_samples=60)
ok, worst, n = check_upsilon(sim, c0, 10 * sim.eps)
print(f"\nV + c0 Q monotone across {n} interactions "
      f"(c0={c0:.4f}, worst increment {worst:.1e}): {ok}")

m = wave_measures(sim.now)
print(f"wave measures at the end: |mu1-| = {m.mass(1, -1):.5f}, "
      f"|mu1+| = {m.mass(1, +1):.2e}, |mu2-| = {m.mass(2, -1):.2e}")
