"""Exception types shared across the package."""


class DomainError(ValueError):
    """A state left the model's admissible domain (box, positivity, speed signs)."""


class HyperbolicityError(RuntimeError):
    """Eigenvalues are not real and distinct at some state."""


class ConvergenceError(RuntimeError):
    """A Newton solve failed to converge (jump too large or bad data)."""


class RadiusError(ConvergenceError):
    """Requested jump exceeds the declared solvable radius; no solve attempted."""


# What a solve raises when its data admit no solution.  Code that probes
# candidate states (line searches, sampling) skips a candidate on these and
# lets every other exception through.
SOLVER_ERRORS = (DomainError, ConvergenceError, HyperbolicityError)


class ContractViolationError(RuntimeError):
    """A structural contract was violated (event caps, wave order, contraction)."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}


class ConfigError(ValueError):
    """Scenario configuration is malformed or out of range."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)
