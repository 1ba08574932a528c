"""Equivariant filter for radar-inertial odometry, with a synthetic-data
simulator and an evaluation toolkit."""

from .filter import (
    FilterBelief,
    clone_augment,
    clone_marginalize,
    estimated_state,
    initialize,
    process_noise,
    propagate,
    update_doppler,
    update_msc,
)
from .measurements import (
    DopplerNoiseSpec,
    MatchObservation,
    RadarDetection,
    RadarScan,
    doppler_model,
    point_constraint_model,
)
from .simulator import SimConfig, SimOutput, TrajectorySpec, run_simulation
from .symmetry import (
    GRAVITY,
    SymmetryElement,
    SystemInput,
    SystemState,
    discrete_dynamics,
    error_coordinates,
    error_inverse,
    identity_state,
    input_action,
    lift,
    state_action,
    state_action_inverse,
)

__version__ = "0.1.0"
