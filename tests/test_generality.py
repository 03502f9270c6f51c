"""Sweeps that guard against silent specialization: other adiabatic
exponents for the gas model, and larger linear systems with two
negative-speed families."""

import numpy as np
import pytest

from fronttrack.curves import lax_curve, shock_curve, shock_deviation_coefficient
from fronttrack.models import Box, GasModel, LinearModel, verify_hypotheses
from fronttrack.profiles import constant_profile, profile_from_jumps
from fronttrack.riemann import (
    compose_waves, solve_riemann, split_boundary_pair,
    split_boundary_pair_reverse,
)
from fronttrack.control import crossing_time, steer_constant_states
from fronttrack.tracking import Simulation


@pytest.fixture(params=[1.3, 1.5, 2.5, 2.9], scope="module")
def gas_gamma(request):
    return GasModel(K=1.0, gamma=request.param,
                    box=Box([0.5, -0.3], [1.5, 0.3]))


def test_chart_round_trip_other_exponents(gas_gamma):
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.uniform([0.7, -0.2], [1.3, 0.2])
        w = gas_gamma.to_riemann(u)
        assert np.max(np.abs(gas_gamma.from_riemann(w) - u)) < 1e-10


def test_eigen_consistency_other_exponents(gas_gamma):
    for u in gas_gamma.admitted_grid(5):
        eig = gas_gamma.eigen(u)
        J = gas_gamma.jacobian(u)
        assert np.max(np.abs(eig.left @ eig.right - np.eye(2))) < 1e-10
        for i in (1, 2):
            r = eig.r(i)
            assert np.max(np.abs(J @ r - eig.lam(i) * r)) < 1e-8


def test_hypotheses_hold_for_all_exponents(gas_gamma):
    report = verify_hypotheses(gas_gamma, samples_per_axis=8)
    assert report.admitted, report.summary()


def test_riemann_round_trip_other_exponents(gas_gamma):
    rng = np.random.default_rng(37)
    ul = np.array([1.0, 0.0])
    for _ in range(25):
        sig = rng.uniform(-0.15, 0.15, 2)
        ur = compose_waves(gas_gamma, ul, sig)
        sol = solve_riemann(gas_gamma, ul, ur)
        assert np.max(np.abs(sol.sigmas - sig)) < 1e-8


def test_deviation_negative_for_all_exponents(gas_gamma):
    u0 = np.array([1.0, 0.0])
    for family in (1, 2):
        assert shock_deviation_coefficient(gas_gamma, u0, family) < 0


def test_merge_sign_other_exponents(gas_gamma):
    u0 = np.array([1.0, 0.0])
    u1 = shock_curve(gas_gamma, u0, 1, -0.06).state
    u2 = shock_curve(gas_gamma, u1, 1, -0.05).state
    prof = profile_from_jumps(0.0, 1.0, u0, [(0.9, u1), (0.91, u2)])
    sim = Simulation(gas_gamma, prof, 0.05)
    ev = sim.next_event()
    assert ev.kind == "collision"
    sim.advance_to(ev.time)
    rec = [r for r in sim.records if r.kind == "collision"][0]
    fronts = sim.fronts
    out = dict(zip(fronts["families"][rec.out_ids], fronts["sigmas"][rec.out_ids]))
    assert out[2] < 0


@pytest.fixture(scope="module")
def linear3():
    # three families, two moving left: p = 2
    A = np.array([[-2.0, 0.2, 0.0],
                  [0.1, -1.0, 0.1],
                  [0.0, 0.2, 1.5]])
    return LinearModel(A)


def test_linear3_partition(linear3):
    assert linear3.n == 3
    assert linear3.p == 2
    lams = linear3.lambdas(None)
    assert lams[0] < lams[1] < 0 < lams[2]


def test_linear3_riemann_projection(linear3):
    rng = np.random.default_rng(5)
    ul, ur = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    sol = solve_riemann(linear3, ul, ur)
    assert np.max(np.abs(sol.states[-1] - ur)) < 1e-12
    assert len(sol.waves) == 3


def test_linear3_splits_partition_families(linear3):
    rng = np.random.default_rng(6)
    v = rng.uniform(-0.5, 0.5, 3)
    vp = v + rng.uniform(-0.1, 0.1, 3)
    split = split_boundary_pair(linear3, v, vp)
    assert split.residual < 1e-10
    down = solve_riemann(linear3, v, split.state)
    assert all(w.family <= 2 for w in down.waves)
    up = solve_riemann(linear3, vp, split.state)
    assert all(w.family == 3 for w in up.waves)
    rev = split_boundary_pair_reverse(linear3, vp, v)
    assert rev.residual < 1e-10


def test_linear3_steering(linear3):
    omega = np.zeros(3)
    omega_prime = np.array([0.3, -0.2, 0.1])
    res = steer_constant_states(linear3, omega, omega_prime, (0.0, 1.0),
                                eps_fronts=0.05, chain_step=0.2)
    assert res.sim.now.sup_distance(omega_prime) < 1e-8
    assert res.sim.now.n_fronts == 0
    tau = crossing_time(linear3, (0.0, 1.0))
    assert res.sim.time == pytest.approx(2 * tau * (len(res.actions) // 2))
    families = res.sim.fronts["families"]
    for rec in res.sim.records:
        if rec.kind == "inject_b":
            assert all(f <= 2 for f in families[rec.out_ids])
        elif rec.kind == "inject_a":
            assert all(f == 3 for f in families[rec.out_ids])
