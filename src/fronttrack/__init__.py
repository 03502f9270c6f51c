"""Front tracking and boundary control for 1-D hyperbolic conservation laws.

The package builds up from system definitions (``models``) through wave
curves and Riemann solvers to an event-driven front-tracking engine, a
boundary-control layer (exact linear control, constant-state steering,
iterated stabilization), and the diagnostics used by the finite-time
controllability counterexample.
"""

from .analysis import (
    CensusReport, CharacteristicPath, DensityReport, ShockTrack, SpreadReport,
    backward_characteristic, characteristic_spread, creation_events,
    dense_initial_data, density_series, kappa_trend, positive_wave_density,
    same_family_collision_compliance, shock_census, strongest_front,
    track_shock_strength,
)
from .control import (
    ContractionRecord, ControlPlan, LinearControlSolution, StabilizeResult,
    SteerResult, StepResult, crossing_time, linear_exact_control,
    stabilization_step, stabilize, steer_constant_states,
)
from .curves import (
    CurvePoint, hugoniot_offset, lax_curve, rarefaction_curve,
    shock_curve, shock_deviation_coefficient,
)
from .errors import (
    ConfigError, ContractViolationError, ConvergenceError, DomainError,
    HyperbolicityError, RadiusError,
)
from .models import (
    Box, EigenStructure, FluxModel, GasModel, HypothesisReport, LinearModel,
    TableModel, verify_hypotheses,
)
from .profiles import PiecewiseConstant, constant_profile
from .riemann import (
    BoundarySplit, RiemannSolution, Wave, compose_waves, solve_riemann,
    split_boundary_pair, split_boundary_pair_reverse,
)
from .scenarios import run_scenario, validate_config
from .tracking import (
    InteractionRecord, Simulation, Snapshot, WaveMeasure,
    calibrate_interaction_constant, check_upsilon, wave_measures,
)

__version__ = "0.1.0"
