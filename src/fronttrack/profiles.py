"""Piecewise-constant profiles on an interval and on the whole line."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous piecewise-constant function on [a, b].

    ``xs`` holds the interior breakpoints in non-decreasing order and
    ``values`` the cell values, one more row than breakpoints.  Vector-valued
    profiles store values with shape (m, n).
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
        if jumps.ndim == 1:
            return float(np.sum(np.abs(jumps)))
        return float(np.sum(np.linalg.norm(jumps, axis=1)))

    def sup_distance(self, ref):
        ref = np.asarray(ref, dtype=float)
        if self.values.ndim == 1:
            return float(np.max(np.abs(self.values - ref)))
        return float(np.max(np.linalg.norm(self.values - ref[None, :], axis=1)))

    def mean(self):
        edges = np.concatenate(([self.a], self.xs, [self.b]))
        widths = np.diff(edges)
        total = self.b - self.a
        if self.values.ndim == 1:
            return float(np.sum(widths * self.values) / total)
        return np.sum(widths[:, None] * self.values, axis=0) / total

    def integral(self):
        edges = np.concatenate(([self.a], self.xs, [self.b]))
        widths = np.diff(edges)
        if self.values.ndim == 1:
            return float(np.sum(widths * self.values))
        return np.sum(widths[:, None] * self.values, axis=0)


def constant_profile(a, b, value):
    value = np.asarray(value, dtype=float)
    shape = (1,) if value.ndim == 0 else (1, len(value))
    return PiecewiseConstant(a, b, np.empty(0), value.reshape(shape))


def profile_from_jumps(a, b, left_value, jumps):
    """Build a profile from a leftmost value and (x, right_value) jumps."""
    left_value = np.asarray(left_value, dtype=float)
    xs = [x for x, _ in jumps]
    values = [left_value] + [np.asarray(v, dtype=float) for _, v in jumps]
    return PiecewiseConstant(a, b, np.asarray(xs), np.vstack(values))


@dataclass(frozen=True)
class LineProfile:
    """Right-continuous scalar step function on the whole real line.

    ``values`` has one more entry than ``xs``; the first and last entries
    extend to -inf and +inf respectively.
    """

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if len(values) != len(xs) + 1:
            raise ValueError("need len(values) == len(xs) + 1")

    def __call__(self, x):
        idx = np.searchsorted(self.xs, x, side="right")
        return self.values[idx]

    def shifted(self, dx):
        """Profile of x -> self(x - dx)."""
        return LineProfile(self.xs + dx, self.values)
