"""Synthetic radar-inertial data generation with analytic reference motion.

Trajectories are per-axis position sinusoids plus a sinusoidal attitude
profile, so velocity, acceleration and body rates are available in closed
form.  IMU records sample the analytic motion; the recorded ground truth is
then the discrete flow of those noise-free samples (started at the analytic
initial state), so a filter that implements the same zero-order-hold
discretization can reproduce it to machine precision.  Radar scans are
generated from that ground truth, which keeps the noise-free Doppler of
every detection exactly consistent with the measurement model.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lie import SE3, SE23, SO3
from .measurements import RadarDetection, RadarScan, apply_spherical_noise, doppler_model
from .symmetry import GRAVITY, CheckedRecord, SystemInput, SystemState, discrete_dynamics


class _TrajectorySpec(NamedTuple):
    duration: float
    pos_amp: tuple = (0.0, 0.0, 0.0)      # m
    pos_freq: tuple = (0.0, 0.0, 0.0)     # Hz
    pos_phase: tuple = (0.0, 0.0, 0.0)    # rad
    yaw_amp: float = 0.0                  # rad
    yaw_freq: float = 0.0
    yaw_phase: float = 0.0
    roll_amp: float = 0.0
    roll_freq: float = 0.0
    roll_phase: float = 0.0
    pitch_amp: float = 0.0
    pitch_freq: float = 0.0
    pitch_phase: float = 0.0


class TrajectorySpec(CheckedRecord, _TrajectorySpec):
    """Per-axis position sinusoids and a yaw/pitch/roll attitude profile."""

    __slots__ = ()

    def _check(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if min(self.pos_freq) < 0 or min(self.yaw_freq, self.roll_freq,
                                         self.pitch_freq) < 0:
            raise ValueError("frequencies must be non-negative")

    @staticmethod
    def hover(duration: float = 10.0) -> "TrajectorySpec":
        return TrajectorySpec(duration=duration)

    @staticmethod
    def excited(duration: float = 30.0) -> "TrajectorySpec":
        """Rich translation and rotation on all axes, for calibration
        observability."""
        return TrajectorySpec(
            duration=duration,
            pos_amp=(1.4, 1.1, 0.8),
            pos_freq=(0.35, 0.45, 0.40),
            pos_phase=(0.0, 1.3, 2.1),
            yaw_amp=0.9, yaw_freq=0.25, yaw_phase=0.4,
            roll_amp=0.5, roll_freq=0.35, roll_phase=1.1,
            pitch_amp=0.5, pitch_freq=0.30, pitch_phase=2.4,
        )

    @staticmethod
    def line(duration: float = 30.0) -> "TrajectorySpec":
        """Motion mostly along one axis with minimal rotation, a stress case
        for observability."""
        return TrajectorySpec(
            duration=duration,
            pos_amp=(1.5, 0.05, 0.02),
            pos_freq=(0.30, 0.40, 0.50),
            yaw_amp=0.05, yaw_freq=0.2,
        )


class TrajectorySampler:
    """Closed-form evaluation of the reference motion."""

    def __init__(self, spec: TrajectorySpec):
        self.spec = spec
        self._amp = np.asarray(spec.pos_amp, dtype=float)
        self._om = 2.0 * np.pi * np.asarray(spec.pos_freq, dtype=float)
        self._ph = np.asarray(spec.pos_phase, dtype=float)

    def position(self, t: float) -> np.ndarray:
        return self._amp * np.sin(self._om * t + self._ph)

    def velocity(self, t: float) -> np.ndarray:
        return self._amp * self._om * np.cos(self._om * t + self._ph)

    def accel_world(self, t: float) -> np.ndarray:
        return -self._amp * self._om**2 * np.sin(self._om * t + self._ph)

    def _angles(self, t: float):
        s = self.spec
        roll = s.roll_amp * np.sin(2 * np.pi * s.roll_freq * t + s.roll_phase)
        pitch = s.pitch_amp * np.sin(2 * np.pi * s.pitch_freq * t + s.pitch_phase)
        yaw = s.yaw_amp * np.sin(2 * np.pi * s.yaw_freq * t + s.yaw_phase)
        droll = 2 * np.pi * s.roll_freq * s.roll_amp * np.cos(
            2 * np.pi * s.roll_freq * t + s.roll_phase)
        dpitch = 2 * np.pi * s.pitch_freq * s.pitch_amp * np.cos(
            2 * np.pi * s.pitch_freq * t + s.pitch_phase)
        dyaw = 2 * np.pi * s.yaw_freq * s.yaw_amp * np.cos(
            2 * np.pi * s.yaw_freq * t + s.yaw_phase)
        return roll, pitch, yaw, droll, dpitch, dyaw

    def attitude(self, t: float) -> np.ndarray:
        roll, pitch, yaw, *_ = self._angles(t)
        Rz = SO3.exp(np.array([0.0, 0.0, yaw]))
        Ry = SO3.exp(np.array([0.0, pitch, 0.0]))
        Rx = SO3.exp(np.array([roll, 0.0, 0.0]))
        return Rz @ Ry @ Rx

    def body_rates(self, t: float) -> np.ndarray:
        # body rates of the yaw-pitch-roll chain in closed form
        roll, pitch, yaw, droll, dpitch, dyaw = self._angles(t)
        cr, sr = np.cos(roll), np.sin(roll)
        cp, sp = np.cos(pitch), np.sin(pitch)
        return np.array([
            droll - dyaw * sp,
            dpitch * cr + dyaw * cp * sr,
            -dpitch * sr + dyaw * cp * cr,
        ])

    def state(self, t: float) -> np.ndarray:
        return SE23.from_components(self.attitude(t), self.velocity(t),
                                    self.position(t))


class _SimConfig(NamedTuple):
    imu_rate: float = 200.0
    radar_rate: float = 10.0
    gyro_noise: float = 0.0          # rad/s/sqrt(Hz)
    accel_noise: float = 0.0         # m/s^2/sqrt(Hz)
    gyro_walk: float = 0.0           # rad/s*sqrt(Hz)
    accel_walk: float = 0.0          # m/s^2*sqrt(Hz)
    gyro_bias_std: float = 0.0       # initial bias draw, rad/s
    accel_bias_std: float = 0.0      # initial bias draw, m/s^2
    range_noise: float = 0.0         # m
    bearing_noise: float = 0.0       # rad
    doppler_noise: float = 0.0       # m/s
    cal_rot: tuple = (0.0, 0.0, 0.0)  # radar mount rotation, axis-angle rad
    cal_pos: tuple = (0.0, 0.0, 0.0)  # radar mount translation, m
    landmark_count: int = 60
    landmark_box: float = 12.0        # half-size of the landmark cube, m
    fov_half_angle: float = np.pi / 3.0
    fov_max_range: float = 20.0
    id_mismatch_rate: float = 0.0     # per-scan probability of an id swap
    seed: int = 0


class SimConfig(CheckedRecord, _SimConfig):
    """Sensor rates and noise, radar mount and field of view, landmarks and
    seed of one simulation."""

    __slots__ = ()

    def _check(self):
        if self.imu_rate <= 0 or self.radar_rate <= 0:
            raise ValueError("rates must be positive")
        if self.imu_rate < self.radar_rate:
            raise ValueError("imu rate must be at least the radar rate")

    def extrinsics(self) -> np.ndarray:
        return SE3.from_components(SO3.exp(np.asarray(self.cal_rot, dtype=float)),
                                   np.asarray(self.cal_pos, dtype=float))


class SimOutput(NamedTuple):
    times: np.ndarray          # (N,)
    rotations: np.ndarray      # (N, 3, 3) ground truth attitude
    velocities: np.ndarray     # (N, 3)
    positions: np.ndarray      # (N, 3)
    gyro_bias: np.ndarray      # (N, 3)
    accel_bias: np.ndarray     # (N, 3)
    imu_gyro: np.ndarray       # (N, 3) measured
    imu_accel: np.ndarray      # (N, 3) measured
    scans: tuple               # RadarScan records
    landmarks: np.ndarray      # (L, 3) world positions
    spec: TrajectorySpec
    config: SimConfig


def synthesize_imu(sampler: TrajectorySampler, t: float, gyro_bias=None,
                   accel_bias=None, gyro_noise=None, accel_noise=None,
                   gravity=GRAVITY):
    """One IMU record at time t: body rates and specific force, with the
    given bias values and optional pre-drawn noise samples added."""
    R = sampler.attitude(t)
    gyro = sampler.body_rates(t)
    accel = R.T @ (sampler.accel_world(t) - gravity)
    if gyro_bias is not None:
        gyro = gyro + gyro_bias
    if accel_bias is not None:
        accel = accel + accel_bias
    if gyro_noise is not None:
        gyro = gyro + gyro_noise
    if accel_noise is not None:
        accel = accel + accel_noise
    return gyro, accel


def synthesize_radar_scan(state: SystemState, gyro, landmarks, config: SimConfig,
                          scan_id: int, stamp: float, rng=None) -> RadarScan:
    """Detections of all landmarks inside the sensor's cone, with stable
    ground-truth feature ids.  The noise-free Doppler of each detection is
    the measurement model evaluated at the true state, exactly.  Noise takes
    one (n, 4) normal draw, a row of (range, bearing, bearing, Doppler) per
    detection, then at most one id swap."""
    R_radar, p_radar = SE3.components(state.radar_pose())
    points = (landmarks - p_radar) @ R_radar
    rng_m = np.linalg.norm(points, axis=-1)
    ids = np.flatnonzero((rng_m >= 1e-3) & (rng_m <= config.fov_max_range)
                         & (points[:, 0] >= rng_m * np.cos(config.fov_half_angle)))
    points = points[ids]
    doppler = doppler_model(state, points, gyro)
    if rng is not None:
        noise = rng.standard_normal((len(ids), 4)) * [
            config.range_noise, config.bearing_noise, config.bearing_noise,
            config.doppler_noise]
        points = apply_spherical_noise(points, noise[:, 0:3])
        doppler = doppler + noise[:, 3]
        if config.id_mismatch_rate > 0 and len(ids) >= 2 \
                and rng.random() < config.id_mismatch_rate:
            pair = rng.choice(len(ids), size=2, replace=False)
            ids[pair] = ids[pair[::-1]]
    detections = tuple(map(RadarDetection, ids.tolist(), points, doppler.tolist()))
    return RadarScan(stamp=stamp, scan_id=scan_id, detections=detections)


def run_simulation(spec: TrajectorySpec, config: SimConfig) -> SimOutput:
    """Full dataset generation, deterministic for a given seed."""
    rng = np.random.default_rng(config.seed)
    sampler = TrajectorySampler(spec)
    dt = 1.0 / config.imu_rate
    n = int(round(spec.duration * config.imu_rate)) + 1
    stride = max(int(round(config.imu_rate / config.radar_rate)), 1)

    landmarks = rng.uniform(-config.landmark_box, config.landmark_box,
                            size=(config.landmark_count, 3))
    bias_g = config.gyro_bias_std * rng.standard_normal(3)
    bias_a = config.accel_bias_std * rng.standard_normal(3)

    state = SystemState(pose=sampler.state(0.0),
                        bias=np.concatenate([bias_g, bias_a, np.zeros(3)]),
                        cal=config.extrinsics())

    times = np.zeros(n)
    rotations = np.zeros((n, 3, 3))
    velocities = np.zeros((n, 3))
    positions = np.zeros((n, 3))
    gyro_bias = np.zeros((n, 3))
    accel_bias = np.zeros((n, 3))
    imu_gyro = np.zeros((n, 3))
    imu_accel = np.zeros((n, 3))
    scans = []

    sqrt_rate = np.sqrt(config.imu_rate)
    sqrt_dt = np.sqrt(dt)
    for k in range(n):
        t = k * dt
        times[k] = t
        rotations[k] = state.attitude()
        velocities[k] = state.velocity()
        positions[k] = state.position()
        gyro_bias[k] = state.bias[0:3]
        accel_bias[k] = state.bias[3:6]

        gyro_clean, accel_clean = synthesize_imu(
            sampler, t, gyro_bias=state.bias[0:3], accel_bias=state.bias[3:6]
        )
        imu_gyro[k] = gyro_clean + config.gyro_noise * sqrt_rate * rng.standard_normal(3)
        imu_accel[k] = accel_clean + config.accel_noise * sqrt_rate * rng.standard_normal(3)

        if k % stride == 0 and k > 0:
            scan_rng = rng if (config.range_noise or config.bearing_noise or
                               config.doppler_noise or config.id_mismatch_rate) else None
            scans.append(
                synthesize_radar_scan(state, gyro_clean, landmarks, config,
                                      scan_id=len(scans), stamp=t, rng=scan_rng)
            )

        if k + 1 < n:
            # ground truth advances by the same zero-order-hold flow the
            # filter uses, driven by the noise-free samples
            u = SystemInput.from_imu(gyro_clean, accel_clean)
            state = discrete_dynamics(state, u, dt)
            walk = np.concatenate([
                config.gyro_walk * sqrt_dt * rng.standard_normal(3),
                config.accel_walk * sqrt_dt * rng.standard_normal(3),
                np.zeros(3),
            ])
            state = state._replace(bias=state.bias + walk)

    return SimOutput(
        times=times, rotations=rotations, velocities=velocities,
        positions=positions, gyro_bias=gyro_bias, accel_bias=accel_bias,
        imu_gyro=imu_gyro, imu_accel=imu_accel, scans=tuple(scans),
        landmarks=landmarks, spec=spec, config=config,
    )
