"""Safety filters for dynamically defined control laws.

Core pieces: a disturbance observer with a certified error envelope, barrier
constraints over the joint state-input space (plain and high-order chain
forms), an exact least-norm correction solver, a fixed-step closed-loop
simulator, and two vehicle benchmarks plus a CLI.
"""

from .barriers import BarrierChain, BarrierSpec, DomainBox
from .control_laws import PredictiveCruiseRate, StanleyRateLaw
from .errors import BlowupError, ConfigurationError
from .filter import (FilterConstraint, FilterResult, ValidityReport,
                     build_constraints, check_validity, solve_multi)
from .model import DisturbanceBounds, SystemModel, linear_rate
from .observer import ObserverConfig, check_gain_condition, error_envelope
from .rng import SplitMix64
from .scenarios import (build_acc, build_bicycle, build_example1,
                        build_scenario, sinusoid_disturbance)
from .simulate import (Scenario, SimConfig, TrajectoryLog, rk4_step,
                       run_closed_loop, summarize)

__version__ = "0.1.0"
