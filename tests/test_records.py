"""The package's records: immutable NamedTuples; the checked ones reject
bad values on construction, `_make`, `_replace` and unpickling, also when
the values come from a configuration file."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from eqfrio.evaluation import AlignedPair, MetricsReport
from eqfrio.filter import FilterBelief, initialize
from eqfrio.io import DatasetBundle
from eqfrio.measurements import (
    DopplerNoiseSpec,
    MatchObservation,
    RadarDetection,
    RadarScan,
)
from eqfrio.pipeline import (
    RUN_SCHEMA,
    SIM_SCHEMA,
    RunResult,
    RunSettings,
    settings_from_values,
    sim_setup_from_values,
)
from eqfrio.simulator import SimConfig, SimOutput, TrajectorySpec
from eqfrio.symmetry import SymmetryElement, SystemInput, SystemState, identity_state


def _pair(n=1, covariances=None, est_pos=None):
    rot = np.tile(np.eye(3), (n, 1, 1))
    pos = np.zeros((n, 3))
    return AlignedPair(np.arange(n, dtype=float), rot, pos, rot,
                       pos if est_pos is None else est_pos, covariances)


def _placeholder(cls):
    return cls(*[None] * len(cls._fields))


RECORDS = {
    SystemState: lambda: identity_state(2),
    SymmetryElement: lambda: initialize(identity_state(), np.eye(24)).sym,
    SystemInput: lambda: SystemInput.from_imu(np.zeros(3), np.zeros(3)),
    FilterBelief: lambda: initialize(identity_state(), np.eye(24)),
    RadarDetection: lambda: RadarDetection(3, np.array([1.0, 0.0, 0.0]), 0.5),
    RadarScan: lambda: RadarScan(0.1, 0, ()),
    DopplerNoiseSpec: lambda: DopplerNoiseSpec(0.01, 0.05, 0.009, 0.05),
    MatchObservation: lambda: MatchObservation(3, 0, np.ones(3), np.ones(3)),
    TrajectorySpec: lambda: TrajectorySpec.excited(1.0),
    SimConfig: lambda: SimConfig(seed=4),
    SimOutput: lambda: _placeholder(SimOutput),
    AlignedPair: _pair,
    MetricsReport: lambda: MetricsReport(0.1, 0.2, 0.3, 0.4, None, None, "fail"),
    DatasetBundle: lambda: DatasetBundle(Path("imu.csv"), Path("radar.csv"), None, {}),
    RunSettings: lambda: settings_from_values(
        {k: v for k, (_, v) in RUN_SCHEMA.items()}, 200.0),
    RunResult: lambda: _placeholder(RunResult),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_set(cls):
    record = RECORDS[cls]()
    assert type(record) is cls
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


def test_replace_keeps_the_record_class():
    belief = RECORDS[FilterBelief]()
    moved = belief._replace(cov=2.0 * belief.cov)
    assert type(moved) is FilterBelief and moved.sym is belief.sym
    state = identity_state(1)
    assert type(state._replace(bias=np.ones(9))) is SystemState
    assert type(SimConfig()._replace(seed=7)) is SimConfig


BAD_VALUES = [
    ("one timestamp per clone",
     lambda: SystemState(np.eye(5), np.zeros(9), np.eye(4), clones=(np.eye(4),))),
    ("strictly increasing",
     lambda: SystemState(np.eye(5), np.zeros(9), np.eye(4),
                         np.tile(np.eye(4), (2, 1, 1)), (1.0, 1.0))),
    ("10-vector", lambda: SystemInput(np.zeros(9), np.zeros(9), np.zeros(6))),
    ("unit slot", lambda: SystemInput(np.zeros(10), np.zeros(9), np.zeros(6))),
    ("frequencies", lambda: TrajectorySpec(1.0, pos_freq=(0.1, -0.1, 0.0))),
    ("frequencies", lambda: TrajectorySpec(1.0, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3,
                                           0.1, -0.2)),
    ("equal length", lambda: _pair(3, est_pos=np.zeros((2, 3)))),
    ("one covariance", lambda: _pair(3, covariances=np.zeros((2, 6, 6)))),
]


@pytest.mark.parametrize("match,build", BAD_VALUES,
                         ids=[f"{i}-{m}" for i, (m, _) in enumerate(BAD_VALUES)])
def test_checked_record_rejects_bad_values(match, build):
    with pytest.raises(ValueError, match=match):
        build()


REPLACE_BAD_VALUES = [
    (SystemState, "one timestamp per clone", {"clones": ()}),
    (SystemState, "strictly increasing", {"stamps": (2.0, 1.0)}),
    (SystemInput, "10-vector", {"nav": np.zeros(9)}),
    (SystemInput, "unit slot", {"nav": np.zeros(10)}),
    (DopplerNoiseSpec, "non-negative", {"sigma_range": -0.05}),
    (TrajectorySpec, "duration", {"duration": 0.0}),
    (TrajectorySpec, "frequencies", {"yaw_freq": -0.1}),
    (SimConfig, "rates", {"radar_rate": 0.0}),
    (SimConfig, "at least the radar rate", {"imu_rate": 5.0}),
    (AlignedPair, "equal length", {"gt_pos": np.zeros((1, 3))}),
    (AlignedPair, "one covariance", {"covariances": np.zeros((1, 6, 6))}),
]


@pytest.mark.parametrize("cls,match,changes", REPLACE_BAD_VALUES,
                         ids=[f"{c.__name__}-{m}" for c, m, _ in REPLACE_BAD_VALUES])
def test_checked_record_replace_and_make_reject_bad_values(cls, match, changes):
    record = RECORDS[cls]() if cls is not AlignedPair else _pair(3)
    with pytest.raises(ValueError, match=match):
        record._replace(**changes)
    with pytest.raises(ValueError, match=match):
        cls._make(changes.get(name, value) for name, value in zip(cls._fields, record))


@pytest.mark.parametrize("cls", [SystemState, SystemInput, DopplerNoiseSpec,
                                 TrajectorySpec, SimConfig, AlignedPair],
                         ids=lambda cls: cls.__name__)
def test_checked_record_survives_pickling(cls):
    record = RECORDS[cls]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and len(copy) == len(record)


def test_aligned_pair_length_is_its_pose_count():
    assert len(_pair(3)) == 3
    assert len(_pair(0)) == 0 and not _pair(0)


def test_aligned_pair_replace_is_checked():
    pair = _pair(3)
    moved = pair._replace(est_pos=np.ones((3, 3)))
    assert type(moved) is AlignedPair and np.array_equal(moved.est_pos, np.ones((3, 3)))
    with pytest.raises(ValueError, match="equal length"):
        pair._replace(est_pos=np.ones((2, 3)))


def _sim_values(**overrides):
    values = {k: v for k, (_, v) in SIM_SCHEMA.items()}
    values.update(overrides)
    return values, set(overrides)


def test_trajectory_override_from_config_is_checked():
    values, seen = _sim_values(**{"trajectory.pos_freq": (-0.1, 0.2, 0.3)})
    with pytest.raises(ValueError, match="frequencies"):
        sim_setup_from_values(values, seen)
    values, seen = _sim_values(**{"trajectory.yaw": (0.5, -0.1, 0.0)})
    with pytest.raises(ValueError, match="frequencies"):
        sim_setup_from_values(values, seen)


def test_trajectory_override_from_config_applies():
    values, seen = _sim_values(**{"trajectory.pos_freq": (0.1, 0.2, 0.3),
                                  "trajectory.roll": (0.4, 0.5, 0.6)})
    spec, _ = sim_setup_from_values(values, seen)
    excited = TrajectorySpec.excited(values["duration"])
    assert type(spec) is TrajectorySpec
    assert spec == excited._replace(pos_freq=(0.1, 0.2, 0.3), roll_amp=0.4,
                                    roll_freq=0.5, roll_phase=0.6)
