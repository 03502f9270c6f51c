"""Why finite-time exact controllability fails: the shock census experiment.

Start from a profile carrying a dense set of one-family shocks near the
sonic line.  Same-family collisions keep manufacturing shocks of the other
family, the strongest shock only gains strength, and the total variation
refuses to decay: the profile cannot be flattened in finite time.
"""

import numpy as np

from fronttrack import (
    Box, GasModel, Simulation, dense_initial_data,
    same_family_collision_compliance, shock_census, strongest_front,
    track_shock_strength,
)

gas = GasModel(K=1.0, gamma=2.0, box=Box([0.96, 0.90], [1.08, 1.00]),
               ref_state=[1.0, 0.995], min_speed=0.004)
base = np.array([1.0, 0.995])
interval = (0.0, 0.13)

profile = dense_initial_data(gas, 31, -0.05, interval, base_state=base,
                             level_decay=8.0)
print(f"31 one-family shocks on {interval}, strengths sum to 0.05, "
      f"largest gap {0.13 / 32:.5f}")

sim = Simulation(gas, profile, eps_fronts=0.01)
sid = strongest_front(sim, 1)
sim.advance_to(2.0)

print(f"\nran to t = 2.0: {len(sim.records)} events, "
      f"{sim.now.n_fronts} fronts still inside")

reports = shock_census(sim, [0.0, 0.5, 1.0, 1.5, 2.0], probe=interval,
                       strength_floor=1e-9, creation_floor=1e-10)
print("\ncensus (per family: count, largest gap):")
for rep in reports:
    f1 = f"{len(rep.positions[1]):3d} shocks, gap {rep.largest_gap[1]:.4f}"
    f2 = f"{len(rep.positions[2]):3d} shocks"
    print(f"  t={rep.time:4.1f}  family 1: {f1} | family 2: {f2} | "
          f"opposite-family creations so far: {rep.creation_count:2d} | "
          f"TV = {rep.tv:.5f}")

n_events, n_ok, n_unresolved = same_family_collision_compliance(sim)
print(f"\nevery same-family shock collision emitted an opposite-family "
      f"shock: {n_ok}/{n_events} (unresolved: {n_unresolved})")

track = track_shock_strength(sim, sid)
print(f"strongest shock: fate '{track.fate}', {len(track.merges)} merges, "
      f"min strength ratio {track.min_ratio:.6f} "
      f"(strength only grows while it plows through the field)")

tv0 = profile.total_variation()
tv2 = sim.now.tv()
print(f"\nTV(0) = {tv0:.5f} -> TV(2) = {tv2:.5f} "
      f"(retention {tv2 / tv0:.1%}): the profile is nowhere near constant")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("(matplotlib not available; skipping the space-time figure)")
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    snaps = sim.history
    for snap, nxt in zip(snaps, snaps[1:] + [None]):
        t1 = nxt.time if nxt is not None else 2.0
        for j in range(snap.n_fronts):
            x0 = snap.xs[j]
            x1 = x0 + snap.speeds[j] * (t1 - snap.time)
            fam = int(snap.families[j])
            lw = min(3.0, 40 * abs(snap.sigmas[j]) + 0.3)
            ax.plot([x0, x1], [snap.time, t1],
                    color="tab:blue" if fam == 1 else "tab:red", lw=lw)
    ax.set_xlim(*interval)
    ax.set_ylim(0, 2.0)
    ax.set_xlabel("x")
    ax.set_ylabel("t")
    ax.set_title("Shock world-lines: family 1 (blue) breeds family 2 (red)")
    fig.tight_layout()
    fig.savefig("demos_shock_census.png", dpi=130)
    print("wrote demos_shock_census.png")
