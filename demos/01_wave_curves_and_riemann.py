"""Wave curves and Riemann problems for the isentropic gas model.

Walks through the building blocks: the model's structural hypotheses, the
shock/rarefaction curves through a state, the cubic gap between them, and a
full Riemann solution.  Saves a wave-curve figure when matplotlib is around.
"""

import numpy as np

from fronttrack import (
    Box, GasModel, lax_curve, rarefaction_curve, shock_curve,
    shock_deviation_coefficient, solve_riemann, verify_hypotheses,
)

gas = GasModel(K=1.0, gamma=2.0, box=Box([0.5, -0.6], [1.5, 0.6]))
u0 = np.array([1.0, 0.0])

print("== structural hypotheses on the working box ==")
report = verify_hypotheses(gas, samples_per_axis=16)
print(report.summary())
print()

print("== curves through (rho, u) = (1, 0) ==")
for family in (1, 2):
    rar = rarefaction_curve(gas, u0, family, 0.15)
    shk = shock_curve(gas, u0, family, -0.15)
    rh = np.max(np.abs(gas.flux(shk.state) - gas.flux(u0)
                       - shk.speed * (shk.state - u0)))
    print(f"family {family}:")
    print(f"  rarefaction(+0.15) -> state {rar.state}, speed {rar.speed:+.6f}")
    print(f"  shock(-0.15)       -> state {shk.state}, speed {shk.speed:+.6f},"
          f" jump-condition residual {rh:.2e}")
    lam_l = gas.lambdas(u0)[family - 1]
    lam_r = gas.lambdas(shk.state)[family - 1]
    print(f"  admissibility: {lam_l:+.4f} > {shk.speed:+.4f} > {lam_r:+.4f}")

print()
print("== shock curves bend toward the other family (cubic coefficient) ==")
for family in (1, 2):
    c = shock_deviation_coefficient(gas, u0, family)
    print(f"  c_{family}(0) = {c:+.6f}  (negative: same-family shock "
          "collisions must emit a shock of the other family)")

print()
print("== a Riemann problem ==")
ul = np.array([1.0, 0.0])
ur = np.array([1.08, 0.05])
sol = solve_riemann(gas, ul, ur)
print(f"left  state {ul}")
print(f"right state {ur}")
for w in sol.waves:
    print(f"  family {w.family}: {w.kind:12s} sigma={w.sigma:+.6f} "
          f"speeds [{w.speed_lo:+.4f}, {w.speed_hi:+.4f}]")
print(f"middle state {sol.states[1]}, residual {sol.residual:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
else:
    fig, ax = plt.subplots(figsize=(6, 5))
    sigmas = np.linspace(-0.45, 0.45, 181)
    for family, color in ((1, "tab:blue"), (2, "tab:red")):
        pts = np.array([lax_curve(gas, u0, family, s).state for s in sigmas])
        ax.plot(pts[:, 0], pts[:, 1], color=color,
                label=f"family-{family} composite curve")
        hug = np.array([shock_curve(gas, u0, family, s).state
                        for s in sigmas if s > 0])
        ax.plot(hug[:, 0], hug[:, 1], color=color, ls=":", lw=1,
                label=f"family-{family} non-entropic branch")
    ax.plot(*u0, "ko", label="base state")
    ax.set_xlabel("density")
    ax.set_ylabel("velocity")
    ax.legend(fontsize=8)
    ax.set_title("Wave curves through (1, 0)")
    fig.tight_layout()
    fig.savefig("demos_wave_curves.png", dpi=130)
    print("\nwrote demos_wave_curves.png")
