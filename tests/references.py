"""Reference formulas the tests compare the package against."""

import numpy as np


def chart_gradient(gas, u, family):
    """Gradient of the gas model's Riemann coordinate w_family at u:
    (-/+ K rho^(theta - 1), 1) for w = v -/+ (K / theta) rho^theta."""
    e = gas.K * u[0] ** (gas.theta - 1.0)
    return np.array([-e, 1.0]) if family == 1 else np.array([e, 1.0])
