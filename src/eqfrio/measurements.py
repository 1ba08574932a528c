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

from typing import NamedTuple

import numpy as np

from .lie import KAPPA_MIN, SE3, SE23, skew, sphere_basis, sphere_jacobian
from .symmetry import CheckedRecord, SymmetryElement, SystemState


class RadarDetection(NamedTuple):
    feature_id: int
    point: np.ndarray     # 3D position in the radar frame, m
    doppler: float        # radial speed, m/s


class RadarScan(NamedTuple):
    stamp: float
    scan_id: int
    detections: tuple     # RadarDetection records


class _DopplerNoiseSpec(NamedTuple):
    sigma_gyro: float = 0.0      # rad/s
    sigma_range: float = 0.0     # m
    sigma_bearing: float = 0.0   # rad
    sigma_doppler: float = 0.0   # m/s


class DopplerNoiseSpec(CheckedRecord, _DopplerNoiseSpec):
    """Noise entering a single Doppler row: gyro sample noise, range and
    bearing noise of the 3D point, and direct Doppler noise."""

    __slots__ = ()

    def _check(self):
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


class MatchObservation(NamedTuple):
    """A feature seen now and at the time of clone `clone_index`."""

    feature_id: int
    clone_index: int
    point_now: np.ndarray
    point_then: np.ndarray


def doppler_model(xi: SystemState, point, gyro):
    """Predicted Doppler speed of returns at `point` (radar frame, shape
    (..., 3)) given the raw gyro sample; a static world and rigid sensor
    mount are assumed.  A single point gives a float."""
    point = np.asarray(point, dtype=float)
    rng = np.linalg.norm(point, axis=-1)
    if (rng <= 1e-6).any():
        raise ValueError("degenerate point: range below minimum")
    S, t = SE3.components(xi.cal)
    R = xi.attitude()
    omega = np.asarray(gyro, dtype=float) - xi.bias[0:3]
    sensor_vel = S.T @ (R.T @ xi.velocity() + skew(omega) @ t)
    speed = -(point @ sensor_vel) / rng
    return float(speed) if speed.ndim == 0 else speed


def doppler_rows(X: SymmetryElement, origin_gyro, point):
    """Output rows (error coordinates) and noise rows (gyro sample, point
    range/bearing, direct Doppler) of Doppler returns at `point` of shape
    (..., 3); one point gives one row of each.  `origin_gyro` is the gyro
    sample transported through the inverse input action of the current
    estimate.  Clone columns are zero: the Doppler output involves no past
    pose."""
    point = np.asarray(point, dtype=float)
    rng = np.linalg.norm(point, axis=-1)[..., None]
    A, a, b = SE23.components(X.nav)
    E, f = SE3.components(X.cal)
    psi = -(point / rng) @ E.T            # velocity block of each row
    lever = f - b
    omega = skew(np.asarray(origin_gyro, dtype=float))
    lead = point.shape[:-1]

    row = np.zeros(lead + (24 + 6 * X.n_clones,))
    c1 = psi @ (omega @ skew(f) - skew(a + omega @ lever))
    c2 = -(psi @ omega)
    row[..., 0:3] = c1
    row[..., 3:6] = psi
    row[..., 6:9] = c2
    row[..., 9:12] = -(psi @ skew(lever))
    row[..., 18:21] = -c1
    row[..., 21:24] = -c2

    noise = np.zeros(lead + (7,))
    noise[..., 0:3] = psi @ skew(lever) @ A
    grad = E.T @ (a + omega @ lever)
    tangential = grad - (point @ grad)[..., None] / rng**2 * point
    noise[..., 3:6] = np.einsum("...i,...ij->...j", tangential,
                                sphere_jacobian(point)) / rng
    noise[..., 6] = 1.0
    return row, noise


def point_constraint_model(xi: SystemState, clone_index, point_then):
    """Range of past observations (shape (..., 3), taken at the clones
    `clone_index`, an int or an int array) re-expressed in the current
    radar frame.  A single point gives a float."""
    index = np.asarray(clone_index)
    if ((index < 0) | (index >= xi.n_clones)).any():
        raise ValueError(f"invalid clone index {clone_index}")
    F = xi.clones[index]
    point_then = np.asarray(point_then, dtype=float)
    world = (F[..., 0:3, 0:3] @ point_then[..., None])[..., 0] + F[..., 0:3, 3]
    # a rigid motion keeps lengths, so only the current radar origin matters
    rng = np.linalg.norm(world - xi.radar_pose()[0:3, 3], axis=-1)
    return float(rng) if rng.ndim == 0 else rng


def point_rows(X: SymmetryElement, clone_index, point_then):
    """Output rows and noise rows of re-observations of `point_then` (shape
    (..., 3)) against the clones `clone_index` (an int or an int array); one
    point gives one row of each.  Only the extrinsic and the matched clone
    blocks of an output row are populated; navigation and bias errors cancel
    exactly in these coordinates.  The noise row covers the range/bearing
    noise of the current point (first three entries) and the past point
    (last three); the current point enters only through its norm, so only
    its range entry survives."""
    point_then = np.asarray(point_then, dtype=float)
    lead = point_then.shape[:-1]
    index = np.broadcast_to(clone_index, lead)
    if ((index < 0) | (index >= X.n_clones)).any():
        raise ValueError(f"invalid clone index {clone_index}")
    _, f = SE3.components(X.cal)
    F = X.clones[index]
    Ei = F[..., 0:3, 0:3]
    y = (Ei @ point_then[..., None])[..., 0] + F[..., 0:3, 3]   # clone image
    h_vec = y - f                         # from the current radar origin to y
    h_vec /= np.linalg.norm(h_vec, axis=-1)[..., None]

    row = np.zeros(lead + (24 + 6 * X.n_clones,))
    c1 = h_vec @ skew(f)                  # = h_vec @ skew(y), as h_vec x (y - f) = 0
    row[..., 18:21] = c1
    row[..., 21:24] = -h_vec
    clone_cols = (24 + 6 * index)[..., None] + np.arange(6)
    np.put_along_axis(row, clone_cols, np.concatenate([-c1, h_vec], axis=-1), axis=-1)

    noise = np.zeros(lead + (6,))
    noise[..., 0] = 1.0
    noise[..., 3:6] = -np.einsum("...i,...ij,...jk->...k", h_vec, Ei,
                                 sphere_jacobian(point_then))
    return row, noise


def apply_spherical_noise(point, eta) -> np.ndarray:
    """Perturb 3D points of shape (..., 3) in range/bearing coordinates by
    eta of the same shape: the range moves by eta_0 and the bearing rho
    turns by exp(w) with w = N (eta_1, eta_2), N the tangent basis at rho.
    As w is perpendicular to rho, Rodrigues' formula reduces to
    cos(theta) rho + sinc(theta) w x rho with theta = |w|, and
    w x rho = eta_2 t1 - eta_1 t2 for N = (t1, t2)."""
    point = np.asarray(point, dtype=float)
    eta = np.asarray(eta, dtype=float)
    kappa = np.linalg.norm(point, axis=-1)[..., None]
    if (kappa <= KAPPA_MIN).any():
        raise ValueError("degenerate point: range below minimum")
    moved = kappa + eta[..., 0:1]
    if (moved <= 0.0).any():
        raise ValueError("negative range after perturbation")
    rho = point / kappa
    N = sphere_basis(rho)
    theta = np.hypot(eta[..., 1:2], eta[..., 2:3])
    turn = eta[..., 2:3] * N[..., 0] - eta[..., 1:2] * N[..., 1]
    return moved * (np.cos(theta) * rho + np.sinc(theta / np.pi) * turn)
