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

from .lie import SE3, SE23, SO3, Gal3
from .measurements import RadarDetection, RadarScan, apply_spherical_noise, doppler_model
from .symmetry import GRAVITY, CheckedRecord, SystemState, gravity_step


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
    """Closed-form evaluation of the reference motion at a time t or at each
    of an array of times, stacked along a leading axis."""

    def __init__(self, spec: TrajectorySpec):
        self.spec = spec
        self._amp = np.asarray(spec.pos_amp, dtype=float)
        self._om = 2.0 * np.pi * np.asarray(spec.pos_freq, dtype=float)
        self._ph = np.asarray(spec.pos_phase, dtype=float)
        # the (roll, pitch, yaw) profile
        self._ang_amp = np.array([spec.roll_amp, spec.pitch_amp, spec.yaw_amp])
        self._ang_om = 2 * np.pi * np.array([spec.roll_freq, spec.pitch_freq, spec.yaw_freq])
        self._ang_ph = np.array([spec.roll_phase, spec.pitch_phase, spec.yaw_phase])

    def position(self, t) -> np.ndarray:
        return self._amp * np.sin(self._om * np.asarray(t)[..., None] + self._ph)

    def velocity(self, t) -> np.ndarray:
        return self._amp * self._om * np.cos(self._om * np.asarray(t)[..., None] + self._ph)

    def accel_world(self, t) -> np.ndarray:
        return -self._amp * self._om**2 * np.sin(self._om * np.asarray(t)[..., None] + self._ph)

    def _angles(self, t):
        """(roll, pitch, yaw) and their rates, each of shape (..., 3)."""
        phase = self._ang_om * np.asarray(t)[..., None] + self._ang_ph
        return self._ang_amp * np.sin(phase), self._ang_om * self._ang_amp * np.cos(phase)

    def attitude(self, t) -> np.ndarray:
        """Rz(yaw) Ry(pitch) Rx(roll), shape (..., 3, 3)."""
        angles = self._angles(t)[0].T
        (cr, cp, cy), (sr, sp, sy) = np.cos(angles), np.sin(angles)
        return np.stack([
            np.stack([cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr], axis=-1),
            np.stack([sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr], axis=-1),
            np.stack([-sp, cp * sr, cp * cr], axis=-1),
        ], axis=-2)

    def body_rates(self, t) -> np.ndarray:
        # body rates of the yaw-pitch-roll chain in closed form
        angles, rates = self._angles(t)
        (cr, cp, _), (sr, sp, _) = np.cos(angles.T), np.sin(angles.T)
        droll, dpitch, dyaw = rates.T
        return np.stack([
            droll - dyaw * sp,
            dpitch * cr + dyaw * cp * sr,
            -dpitch * sr + dyaw * cp * cr,
        ], axis=-1)

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

    def radar_stride(self) -> int:
        """IMU records per radar scan; the scans come at imu_rate / stride."""
        return int(round(self.imu_rate / self.radar_rate))

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


def synthesize_imu(sampler: TrajectorySampler, t):
    """Noise-free, bias-free IMU records at a time t or at each of an array
    of times: body rates and specific force, each of shape (..., 3)."""
    R = sampler.attitude(t)
    accel = np.einsum("...ji,...j->...i", R, sampler.accel_world(t) - GRAVITY)
    return sampler.body_rates(t), accel


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
    """Full dataset generation, deterministic for a given seed.  The ground
    truth is the flow of the noise-free samples, so it is integrated before
    any draw; then one normal draw per radar period fills the IMU noise and
    bias walks in the stream's per-record order (gyro noise 3, accel noise
    3, the scan's own draws, gyro walk 3, accel walk 3)."""
    rng = np.random.default_rng(config.seed)
    sampler = TrajectorySampler(spec)
    dt = 1.0 / config.imu_rate
    n = int(round(spec.duration * config.imu_rate)) + 1
    stride = config.radar_stride()

    landmarks = rng.uniform(-config.landmark_box, config.landmark_box,
                            size=(config.landmark_count, 3))
    bias_g = config.gyro_bias_std * rng.standard_normal(3)
    bias_a = config.accel_bias_std * rng.standard_normal(3)

    # pass 1: the truth advances by the zero-order-hold flow the filter uses;
    # its bias-corrected input (w + b) - b is the noise-free sample itself
    times = np.arange(n) * dt
    body_rates, specific_force = synthesize_imu(sampler, times)
    drive = dt * np.column_stack([body_rates, specific_force, np.zeros((n, 3)), np.ones(n)])
    grav = gravity_step(dt, GRAVITY)
    poses = np.empty((n, 5, 5))
    poses[0] = sampler.state(0.0)
    for k in range(n - 1):
        poses[k + 1] = grav @ poses[k] @ Gal3.exp(drive[k])

    # pass 2: per record 12 normals (noise, then walk; the last record has
    # no walk), cut after the noise of each scan record for the scan's draws
    normals = np.zeros((n, 12))
    flat = normals.reshape(-1)
    scan_rng = rng if (config.range_noise or config.bearing_noise or
                       config.doppler_noise or config.id_mismatch_rate) else None
    cal = config.extrinsics()
    scans = []
    start = 0
    for k in range(stride, n, stride):
        rng.standard_normal(out=flat[start:12 * k + 6])
        start = 12 * k + 6
        # the biases cancel in the Doppler model, so the scan sees the
        # bias-free truth and the noise-free body rate
        state = SystemState(pose=poses[k], bias=np.zeros(9), cal=cal)
        scans.append(synthesize_radar_scan(state, body_rates[k], landmarks, config,
                                           scan_id=len(scans), stamp=float(times[k]),
                                           rng=scan_rng))
    rng.standard_normal(out=flat[start:12 * n - 6])

    scaled = normals * np.repeat([
        config.gyro_noise * np.sqrt(config.imu_rate), config.accel_noise * np.sqrt(config.imu_rate),
        config.gyro_walk * np.sqrt(dt), config.accel_walk * np.sqrt(dt)], 3)
    # cumsum adds in sequence, so the biases are the walk's bit for bit
    biases = np.cumsum(np.vstack([np.concatenate([bias_g, bias_a]), scaled[:-1, 6:]]), axis=0)
    imu = np.column_stack([body_rates, specific_force]) + biases + scaled[:, 0:6]

    return SimOutput(
        times=times, rotations=poses[:, 0:3, 0:3], velocities=poses[:, 0:3, 3],
        positions=poses[:, 0:3, 4], gyro_bias=biases[:, 0:3], accel_bias=biases[:, 3:6],
        imu_gyro=imu[:, 0:3], imu_accel=imu[:, 3:6], scans=tuple(scans),
        landmarks=landmarks, spec=spec, config=config,
    )
