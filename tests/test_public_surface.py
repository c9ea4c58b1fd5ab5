import types

import do_icbf

# Every name the package exports. A new export, or a deleted one, is an edit
# to this list.
PUBLIC = {
    "BarrierChain", "BarrierSpec", "BlowupError", "ConfigurationError", "DisturbanceBounds",
    "DomainBox", "FilterConstraint", "FilterResult", "ObserverConfig", "PredictiveCruiseRate",
    "Scenario", "SimConfig", "SplitMix64", "StanleyRateLaw", "SystemModel", "TrajectoryLog",
    "ValidityReport",
    "build_acc", "build_bicycle", "build_constraints", "build_example1", "build_scenario",
    "check_gain_condition", "check_validity", "error_envelope", "linear_rate", "rk4_step",
    "run_closed_loop", "sinusoid_disturbance", "solve_multi", "summarize",
}


def test_public_surface_is_the_listed_set():
    exported = {name for name, value in vars(do_icbf).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
