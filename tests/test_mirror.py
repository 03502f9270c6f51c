"""The mirror oracle of a linear system.

u_t + A u_x = 0 on [a, b] is unchanged by x -> a + b - x when A becomes -A:
the mirror image v(x, t) = u(a + b - x, t) solves v_t + (-A) v_x = 0.  The
speeds of -A are those of A negated, so family i of A is family n + 1 - i
of -A, and a front leaving at x = a leaves the mirror run at x = b.  Front
tracking of the data and of its mirror image must then make the same
events, and end with reflected fronts between the same states in reverse
order.

Exact ties are resolved by roundoff, which the mirror does not preserve,
so the data keep clear of them (see GRID), and one tie is exempt: fronts
that meet on a wall at the instant they reach it may exit there, or
collide first and then exit.  A drawn run made two exits where its mirror
image collided at x = a - 2.2e-16, so the events compared are the exits
and the collisions off the walls.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from fronttrack.models import Box, LinearModel
from fronttrack.profiles import profile_from_jumps
from fronttrack.tracking import SPACE_TIE, Simulation

A, B = 0.0, 1.0
EPS = 0.01
# Jump positions are multiples of 1 / GRID, whose reflections 1 - x are
# exact, so the mirror data is the exact image of the data.  State
# components are multiples of 1 / 1024, so no drawn jump is of the size of
# SIGMA_NULL, where a run keeps or drops a wave by roundoff.
GRID = 2 ** 20
# The worst gap over 1500 random draws like the test's was 3.4e-15;
# scaling the top family's contact speed by 1 + 1e-9 raises it to 7.6e-9.
MIRROR_TOL = 1e-12
SWAP = {"exit_a": "exit_b", "exit_b": "exit_a"}


@st.composite
def linear_systems(draw):
    """A = R diag(speeds) R^-1 with n in 2..4, |speed| >= 0.2, speed gaps
    >= 0.2, and R within 0.4 of the identity in the 2-norm, so that its
    condition number is at most 7/3."""
    n = draw(st.integers(2, 4))
    n_left = draw(st.integers(0, n))
    steps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    left = -np.cumsum(steps[:n_left])[::-1]
    right = np.cumsum(steps[n_left:])
    speeds = np.concatenate([left, right])
    m = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    R = np.eye(n) + 0.4 / n * np.reshape(m, (n, n))
    return R @ np.diag(speeds) @ np.linalg.inv(R)


def _run(A_matrix, left, jumps, horizon):
    """The final snapshot of a run, and its events less its collisions on
    a wall."""
    n = len(left)
    model = LinearModel(A_matrix, box=Box([-100.0] * n, [100.0] * n))
    sim = Simulation(model, profile_from_jumps(A, B, left, jumps), EPS)
    sim.advance_to(horizon)
    return sim.now, [r for r in sim.records if r.kind != "collision"
                     or A + SPACE_TIE < r.x < B - SPACE_TIE]


def mirror_gap(A_matrix, xs, states, horizon):
    """Run the jumps xs between states, and their mirror image; check that
    both make the same events and end with the same fronts, and return
    the largest gap of event times, reflected front positions and reversed
    states."""
    n = len(A_matrix)
    snap, events = _run(A_matrix, states[0], list(zip(xs, states[1:])),
                        horizon)
    image, image_events = _run(
        -A_matrix, states[-1],
        [(A + B - x, u) for x, u in zip(xs[::-1], states[-2::-1])], horizon)

    kinds = Counter(SWAP.get(r.kind, r.kind) for r in events)
    assert kinds == Counter(r.kind for r in image_events)
    assert snap.n_fronts == image.n_fronts
    assert (n + 1 - image.families[::-1]).tolist() == snap.families.tolist()
    gaps = [np.max(np.abs(A + B - image.xs[::-1] - snap.xs), initial=0.0),
            np.max(np.abs(image.states[::-1] - snap.states))]
    for kind in kinds:
        times = sorted(r.time for r in events if SWAP.get(r.kind, r.kind) == kind)
        mirrored = sorted(r.time for r in image_events if r.kind == kind)
        gaps.append(np.max(np.abs(np.subtract(times, mirrored))))
    return max(gaps)


@settings(max_examples=60, deadline=None)
@given(A_matrix=linear_systems(), data=st.data())
def test_a_linear_run_and_its_mirror_image_agree(A_matrix, data):
    n = len(A_matrix)
    state = st.lists(st.integers(-307, 307).map(lambda k: k / 1024),
                     min_size=n, max_size=n)
    xs = sorted(k / GRID for k in data.draw(
        st.lists(st.integers(1, GRID - 1), min_size=3, max_size=12, unique=True)))
    states = [np.array(data.draw(state)) for _ in range(len(xs) + 1)]
    horizon = data.draw(st.floats(0.05, 6.0))
    assert mirror_gap(A_matrix, xs, states, horizon) <= MIRROR_TOL
