"""Radar measurement models and their linearizations.

Two scalar measurements are supported:

  * Doppler speed of a radar return, constraining the sensor's ego velocity
    projected on the return's bearing.
  * The range of a re-observed feature expressed through a past radar pose
    clone, constraining relative motion without estimating the feature.

The output rows are expressed in the filter's error coordinates
(9 nav, 9 bias, 6 extrinsic, 6 per clone); the noise rows are expressed in
per-detection noise coordinates with 3D points perturbed in range/bearing
form, which matches how radar uncertainty actually behaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import (
    SE3,
    SE23,
    skew,
    sphere_boxplus,
    sphere_compose,
    sphere_decompose,
    sphere_jacobian,
)
from .symmetry import SymmetryElement, SystemState


@dataclass(frozen=True)
class RadarDetection:
    feature_id: int
    point: np.ndarray     # 3D position in the radar frame, m
    doppler: float        # radial speed, m/s


@dataclass(frozen=True)
class RadarScan:
    stamp: float
    scan_id: int
    detections: tuple     # RadarDetection records


@dataclass(frozen=True)
class DopplerNoiseSpec:
    """Noise entering a single Doppler row: gyro sample noise, range and
    bearing noise of the 3D point, and direct Doppler noise."""

    sigma_gyro: float = 0.0      # rad/s
    sigma_range: float = 0.0     # m
    sigma_bearing: float = 0.0   # rad
    sigma_doppler: float = 0.0   # m/s

    def __post_init__(self):
        if min(self.sigma_gyro, self.sigma_range, self.sigma_bearing,
               self.sigma_doppler) < 0:
            raise ValueError("noise densities must be non-negative")

    def cov(self) -> np.ndarray:
        return np.diag([
            self.sigma_gyro**2, self.sigma_gyro**2, self.sigma_gyro**2,
            self.sigma_range**2, self.sigma_bearing**2, self.sigma_bearing**2,
            self.sigma_doppler**2,
        ])

    def point_pair_cov(self) -> np.ndarray:
        """Covariance of the 6 range/bearing noise entries of a point pair."""
        one = [self.sigma_range**2, self.sigma_bearing**2, self.sigma_bearing**2]
        return np.diag(one + one)


@dataclass(frozen=True)
class MatchObservation:
    """A feature seen now and at the time of clone `clone_index`."""

    feature_id: int
    clone_index: int
    point_now: np.ndarray
    point_then: np.ndarray


def doppler_model(xi: SystemState, point, gyro) -> float:
    """Predicted Doppler speed of a return at `point` (radar frame) given the
    raw gyro sample; a static world and rigid sensor mount are assumed."""
    point = np.asarray(point, dtype=float)
    rng = math.sqrt(point @ point)
    if rng <= 1e-6:
        raise ValueError("degenerate point: range below minimum")
    S, t = SE3.components(xi.cal)
    R = xi.attitude()
    omega = np.asarray(gyro, dtype=float) - xi.bias[0:3]
    sensor_vel = S.T @ (R.T @ xi.velocity() + skew(omega) @ t)
    return float(-(point @ sensor_vel) / rng)


def _doppler_blocks(X: SymmetryElement, origin_gyro, point):
    """Shared pieces of the Doppler rows, all in group coordinates."""
    point = np.asarray(point, dtype=float)
    rng = math.sqrt(point @ point)
    A, a, b = SE23.components(X.nav)
    E, f = SE3.components(X.cal)
    psi = -(E @ (point / rng))            # row vector of the velocity block
    lever = f - b
    omega = skew(np.asarray(origin_gyro, dtype=float))
    return point, rng, A, a, E, f, psi, lever, omega


def doppler_rows(X: SymmetryElement, origin_gyro, point):
    """Output row (error coordinates) and noise row (gyro sample, point
    range/bearing, direct Doppler) of one Doppler return, sharing the common
    blocks.  `origin_gyro` is the gyro sample transported through the inverse
    input action of the current estimate.  Clone columns are zero: the
    Doppler output involves no past pose."""
    point, rng, A, a, E, f, psi, lever, omega = _doppler_blocks(
        X, origin_gyro, point
    )
    row = np.zeros(24 + 6 * X.n_clones)
    c1 = psi @ (omega @ skew(f) - skew(a + omega @ lever))
    c2 = -(psi @ omega)
    row[0:3] = c1
    row[3:6] = psi
    row[6:9] = c2
    row[9:12] = -(psi @ skew(lever))
    row[18:21] = -c1
    row[21:24] = -c2

    noise = np.zeros(7)
    noise[0:3] = psi @ skew(lever) @ A
    grad = E.T @ (a + omega @ lever)
    tangential = grad - (point @ grad) / rng**2 * point
    noise[3:6] = (tangential @ sphere_jacobian(point)) / rng
    noise[6] = 1.0
    return row, noise


def point_constraint_model(xi: SystemState, clone_index: int, point_then) -> float:
    """Range of a past observation re-expressed in the current radar frame."""
    if not 0 <= clone_index < xi.n_clones:
        raise ValueError(f"invalid clone index {clone_index}")
    world = SE3.apply(xi.clones[clone_index], point_then)
    local = SE3.apply(SE3.inverse(xi.radar_pose()), world)
    return float(math.sqrt(local @ local))


def _point_blocks(X: SymmetryElement, clone_index: int, point_then):
    if not 0 <= clone_index < X.n_clones:
        raise ValueError(f"invalid clone index {clone_index}")
    E, f = SE3.components(X.cal)
    Fi = X.clones[clone_index]
    Ei, _ = SE3.components(Fi)
    y = SE3.apply(Fi, point_then)                      # clone image of the point
    q = SE3.apply(SE3.inverse(X.cal), y)               # in the current radar frame
    h_vec = E @ (q / math.sqrt(q @ q))
    return Ei, y, h_vec


def point_rows(X: SymmetryElement, clone_index: int, point_then):
    """Output row and noise row of one re-observation, sharing the common
    blocks.  Only the extrinsic and the matched clone blocks of the output
    row are populated; navigation and bias errors cancel exactly in these
    coordinates.  The noise row covers the range/bearing noise of the
    current point (first three entries) and the past point (last three); the
    current point enters only through its norm, so only its range entry
    survives."""
    point_then = np.asarray(point_then, dtype=float)
    Ei, y, h_vec = _point_blocks(X, clone_index, point_then)
    row = np.zeros(24 + 6 * X.n_clones)
    c1 = h_vec @ skew(y)
    row[18:21] = c1
    row[21:24] = -h_vec
    base = 24 + 6 * clone_index
    row[base : base + 3] = -c1
    row[base + 3 : base + 6] = h_vec

    noise = np.zeros(6)
    noise[0] = 1.0
    noise[3:6] = -(h_vec @ Ei @ sphere_jacobian(point_then))
    return row, noise


def apply_spherical_noise(point, eta) -> np.ndarray:
    """Perturb a 3D point in range/bearing coordinates."""
    return sphere_compose(sphere_boxplus(sphere_decompose(point), eta))
