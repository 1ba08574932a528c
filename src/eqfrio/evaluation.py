"""Trajectory evaluation: pose errors, consistency and calibration metrics.

Pose errors are computed in the body frame of the ground truth (relative
errors, no alignment step: runs start at the true pose, so drift in the
unobservable directions is exactly what should be measured).  Consistency
maps those errors back to the filter's error coordinates and weighs them with
the filter's covariance; every series is one stacked pass over the poses.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .io import _write_csv
from .lie import SO3
from .symmetry import CheckedRecord

CONVERGENCE_ANGLE = np.deg2rad(5.0)


class _AlignedPair(NamedTuple):
    stamps: np.ndarray        # (M,)
    gt_rot: np.ndarray        # (M, 3, 3)
    gt_pos: np.ndarray        # (M, 3)
    est_rot: np.ndarray       # (M, 3, 3)
    est_pos: np.ndarray       # (M, 3)
    covariances: np.ndarray | None = None   # (M, 6, 6)


class AlignedPair(CheckedRecord, _AlignedPair):
    """Time-associated ground truth and estimates, with optional pose
    covariances of the estimator's (rotation, position) error block.
    `len(pair)` is the number of poses M, not of fields."""

    __slots__ = ()

    def _check(self):
        m = len(self.stamps)
        for arr in (self.gt_rot, self.gt_pos, self.est_rot, self.est_pos):
            if len(arr) != m:
                raise ValueError("all series must have equal length")
        if self.covariances is not None and len(self.covariances) != m:
            raise ValueError("one covariance per pose required")

    def __len__(self) -> int:
        return len(self.stamps)


def associate(gt_stamps, gt_rot, gt_pos, est_stamps, est_rot, est_pos,
              covariances=None, window: float = 0.005) -> AlignedPair:
    """Match estimate rows to ground-truth rows within the association
    window (nearest timestamp, the earlier one on a tie)."""
    gt_stamps = np.asarray(gt_stamps, dtype=float)
    est_stamps = np.asarray(est_stamps, dtype=float)
    if len(gt_stamps) == 0:
        raise ValueError("no overlapping timestamps within the association window")
    idx = np.searchsorted(gt_stamps, est_stamps)
    # candidate rows (earlier, later); argmin keeps the earlier on a tie
    cand = np.clip(np.stack([idx - 1, idx]), 0, len(gt_stamps) - 1)
    gap = np.abs(gt_stamps[cand] - est_stamps)
    keep_e = np.flatnonzero(gap.min(axis=0) <= window)
    keep_g = cand[gap.argmin(axis=0), np.arange(len(idx))][keep_e]
    if not len(keep_e):
        raise ValueError("no overlapping timestamps within the association window")
    return AlignedPair(
        stamps=est_stamps[keep_e],
        gt_rot=np.asarray(gt_rot)[keep_g],
        gt_pos=np.asarray(gt_pos)[keep_g],
        est_rot=np.asarray(est_rot)[keep_e],
        est_pos=np.asarray(est_pos)[keep_e],
        covariances=None if covariances is None else np.asarray(covariances)[keep_e],
    )


def ape(pair: AlignedPair) -> tuple[np.ndarray, np.ndarray]:
    """Per-pose rotation and translation errors in the ground-truth body
    frame: (log(R^T Rhat), R^T (phat - p))."""
    if len(pair) == 0:
        raise ValueError("empty trajectory")
    gt_rot_t = np.swapaxes(pair.gt_rot, -1, -2)
    tr_err = (gt_rot_t @ (pair.est_pos - pair.gt_pos)[..., None])[..., 0]
    return SO3.log(gt_rot_t @ pair.est_rot), tr_err


def rmse(errors) -> float:
    """Root mean square of the rowwise norms."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    if errors.size == 0:
        raise ValueError("empty error list")
    return float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))


def nees_series(pair: AlignedPair) -> np.ndarray:
    """Per-pose normalized squared error (6 degrees of freedom each).

    The filter's rotation error is log of (true attitude) (estimate)^T, and
    its position error carries that world-frame attitude coupling.  At the
    estimate (R, p), the body-frame errors (e_r, e_t) of `ape` map back to it
    exactly as z = (-R e_r, p x (-R e_r) - R e_t); the NEES is z^T P^-1 z."""
    if pair.covariances is None:
        raise ValueError("pose covariances required")
    rot_err, tr_err = ape(pair)
    z_rot = -(pair.est_rot @ rot_err[..., None])[..., 0]
    z = np.concatenate(
        [z_rot, np.cross(pair.est_pos, z_rot) - (pair.est_rot @ tr_err[..., None])[..., 0]],
        axis=-1)
    try:
        # the explicit trailing axis keeps numpy 1.x and 2.x broadcasting alike
        x = np.linalg.solve(pair.covariances, z[..., None])[..., 0]
    except np.linalg.LinAlgError:
        i = np.flatnonzero(np.linalg.slogdet(pair.covariances)[0] == 0.0)[0]
        raise ValueError(f"singular pose covariance at index {i}")
    return np.sum(z * x, axis=-1)


def anees(pair: AlignedPair) -> float:
    """Average normalized estimation error squared; near 1 for a consistent
    estimator."""
    return float(np.mean(nees_series(pair))) / 6.0


def trajectory_length(positions) -> float:
    positions = np.asarray(positions, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))


def yaw_of(R) -> float:
    """Heading angle of a rotation (z-axis Euler of the zyx convention)."""
    return float(np.arctan2(R[1, 0], R[0, 0]))


def drift(pair: AlignedPair, length: float) -> tuple[float, float]:
    """Final-pose error normalized by path length: position in cm/m (equal
    to percent of distance traveled) and yaw in deg/m."""
    if length <= 0:
        raise ValueError("trajectory length must be positive")
    _, tr_err = ape(pair)
    pos_drift = 100.0 * np.linalg.norm(tr_err[-1]) / length
    err_rot = pair.est_rot[-1] @ pair.gt_rot[-1].T
    yaw_drift = abs(np.rad2deg(yaw_of(err_rot))) / length
    return float(pos_drift), float(yaw_drift)


def calibration_error(S_true, S_hat):
    """Geodesic angle between the true and estimated mount rotations, one
    pair or (..., 3, 3) stacks of them: |SO3.log(S_true^T S_hat)|, exact at
    every angle, pi included.  A single pair gives a float."""
    angle = np.linalg.norm(SO3.log(np.swapaxes(S_true, -1, -2) @ np.asarray(S_hat)), axis=-1)
    return float(angle) if angle.ndim == 0 else angle


def classify_convergence(e_angle: np.ndarray, threshold: float = CONVERGENCE_ANGLE) -> str:
    """converged: the error settles below the threshold; partial: clearly
    decreasing but still above it; fail: not decreasing."""
    e_angle = np.asarray(e_angle, dtype=float)
    if e_angle.size == 0:
        return "fail"
    tail = max(1, e_angle.size // 10)
    final = float(np.median(e_angle[-tail:]))
    initial = float(np.median(e_angle[:tail]))
    if final < threshold:
        return "converged"
    if final < 0.8 * initial:
        return "partial"
    return "fail"


class MetricsReport(NamedTuple):
    translation_rmse: float       # m
    rotation_rmse_deg: float
    position_drift_cm_per_m: float
    yaw_drift_deg_per_m: float
    anees: float | None
    final_calibration_error: float | None   # rad
    convergence: str

    def as_dict(self) -> dict:
        return {
            "translation_rmse_m": self.translation_rmse,
            "rotation_rmse_deg": self.rotation_rmse_deg,
            "position_drift_cm_per_m": self.position_drift_cm_per_m,
            "yaw_drift_deg_per_m": self.yaw_drift_deg_per_m,
            "anees": self.anees,
            "final_calibration_error_rad": self.final_calibration_error,
            "convergence": self.convergence,
        }


def evaluate_run(pair: AlignedPair, e_angle_series=None) -> MetricsReport:
    rot_err, tr_err = ape(pair)
    length = trajectory_length(pair.gt_pos)
    if length > 0:
        pos_drift, yaw_drift = drift(pair, length)
    else:
        pos_drift, yaw_drift = 0.0, 0.0
    if e_angle_series is not None and len(e_angle_series):
        convergence = classify_convergence(np.asarray(e_angle_series))
        final_cal = float(np.asarray(e_angle_series)[-1])
    else:
        convergence = "converged" if rmse(rot_err) < CONVERGENCE_ANGLE else "fail"
        final_cal = None
    return MetricsReport(
        translation_rmse=rmse(tr_err),
        rotation_rmse_deg=float(np.rad2deg(rmse(rot_err))),
        position_drift_cm_per_m=pos_drift,
        yaw_drift_deg_per_m=yaw_drift,
        anees=None if pair.covariances is None else anees(pair),
        final_calibration_error=final_cal,
        convergence=convergence,
    )


def emit_plot_data(pair: AlignedPair, out_dir, calibration=None) -> list:
    """Write plot-ready CSV series; returns the created paths.  `calibration`
    is the run's own (t, mount rotation error) rows, which association does
    not thin.

    trajectory.csv   t, gt x/y/z, est x/y/z
    ape.csv          t, rotation error norm rad, translation error norm m
    calibration.csv  t, mount rotation error rad        (when available)
    nees.csv         t, per-pose NEES, running average   (when available)
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []

    def write(name, header, rows):
        path = out_dir / name
        _write_csv(path, header, rows)
        created.append(path)

    write("trajectory.csv",
          ["t", "gt_x", "gt_y", "gt_z", "est_x", "est_y", "est_z"],
          np.column_stack([pair.stamps, pair.gt_pos, pair.est_pos]))
    norms = np.zeros((0, 2))
    if len(pair):
        norms = np.linalg.norm(np.stack(ape(pair), axis=1), axis=-1)
    write("ape.csv", ["t", "rotation_rad", "translation_m"],
          np.column_stack([pair.stamps, norms]))
    if calibration is not None:
        write("calibration.csv", ["t", "e_angle_rad"], calibration)
    if pair.covariances is not None and len(pair):
        series = nees_series(pair)
        running = np.cumsum(series) / (6.0 * np.arange(1, len(series) + 1))
        write("nees.csv", ["t", "nees", "running_anees"],
              np.column_stack([pair.stamps, series, running]))
    return created


def write_metrics(report: MetricsReport, path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.as_dict(), f, indent=2)
        f.write("\n")
