"""Right-continuous piecewise-constant profiles: one type for a profile on
an interval [a, b] and for data on the whole line (a = -inf, b = inf)."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant function on [a, b].

    ``xs`` holds the interior breakpoints in non-decreasing order and
    ``values`` the cell values, one more row than breakpoints.  A state
    profile stores values of shape (m, n); scalar data of shape (m,) are only
    evaluated or listed by ``cells``.
    """

    a: float
    b: float
    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if len(values) != len(xs) + 1:
            raise ValueError("need len(values) == len(xs) + 1")
        if len(xs) and np.any(np.diff(xs) < 0):
            raise ValueError("breakpoints must be non-decreasing")

    def __call__(self, x):
        idx = np.searchsorted(self.xs, x, side="right")
        return self.values[idx]

    def cells(self):
        """Yield (x_left, x_right, value) triples."""
        edges = np.concatenate(([self.a], self.xs, [self.b]))
        for j in range(len(self.values)):
            yield edges[j], edges[j + 1], self.values[j]

    def total_variation(self):
        if len(self.values) < 2:
            return 0.0
        jumps = np.diff(self.values, axis=0)
        return float(np.sum(np.linalg.norm(jumps, axis=1)))

    def sup_distance(self, ref):
        ref = np.asarray(ref, dtype=float)
        return float(np.max(np.linalg.norm(self.values - ref[None, :], axis=1)))

    def mean(self):
        edges = np.concatenate(([self.a], self.xs, [self.b]))
        widths = np.diff(edges)
        return np.sum(widths[:, None] * self.values, axis=0) / (self.b - self.a)

    def integral(self):
        edges = np.concatenate(([self.a], self.xs, [self.b]))
        widths = np.diff(edges)
        return np.sum(widths[:, None] * self.values, axis=0)


def constant_profile(a, b, value):
    value = np.asarray(value, dtype=float)
    return PiecewiseConstant(a, b, np.empty(0), value.reshape(1, -1))


def profile_from_jumps(a, b, left_value, jumps):
    """Build a profile from a leftmost value and (x, right_value) jumps."""
    left_value = np.asarray(left_value, dtype=float)
    xs = [x for x, _ in jumps]
    values = [left_value] + [np.asarray(v, dtype=float) for _, v in jumps]
    return PiecewiseConstant(a, b, np.asarray(xs), np.vstack(values))
