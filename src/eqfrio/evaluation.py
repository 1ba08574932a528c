"""Trajectory evaluation: pose errors, consistency and calibration metrics.

Pose errors are computed in the body frame of the ground truth (relative
errors, no alignment step: runs start at the true pose, so drift in the
unobservable directions is exactly what should be measured).  Consistency
uses the filter's error covariance transported to the same local error
coordinates at first order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lie import SO3, skew, unskew
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
    window (nearest timestamp)."""
    gt_stamps = np.asarray(gt_stamps, dtype=float)
    est_stamps = np.asarray(est_stamps, dtype=float)
    idx = np.searchsorted(gt_stamps, est_stamps)
    keep_e, keep_g = [], []
    for i, t in enumerate(est_stamps):
        cands = [j for j in (idx[i] - 1, idx[i]) if 0 <= j < len(gt_stamps)]
        if not cands:
            continue
        j = min(cands, key=lambda j: abs(gt_stamps[j] - t))
        if abs(gt_stamps[j] - t) <= window:
            keep_e.append(i)
            keep_g.append(j)
    if not keep_e:
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
    rot_err = np.zeros((len(pair), 3))
    tr_err = np.zeros((len(pair), 3))
    for i in range(len(pair)):
        rot_err[i] = SO3.log(pair.gt_rot[i].T @ pair.est_rot[i])
        tr_err[i] = pair.gt_rot[i].T @ (pair.est_pos[i] - pair.gt_pos[i])
    return rot_err, tr_err


def rmse(errors) -> float:
    """Root mean square of the rowwise norms."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    if errors.size == 0:
        raise ValueError("empty error list")
    return float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))


def _local_error_transport(est_rot, est_pos) -> np.ndarray:
    """First-order map from the filter's world-frame (rotation, position)
    error to the body-frame pose error used by the metrics.

    The filter's rotation error is log of (true attitude) (estimate)^T and
    its position error includes the attitude-position coupling of that
    world-frame convention; pushing both into the body frame gives
    [[-R^T, 0], [R^T skew(p), -R^T]].
    """
    T = np.zeros((6, 6))
    T[0:3, 0:3] = -est_rot.T
    T[3:6, 0:3] = est_rot.T @ skew(est_pos)
    T[3:6, 3:6] = -est_rot.T
    return T


def nees_series(pair: AlignedPair) -> np.ndarray:
    """Per-pose normalized squared error (6 degrees of freedom each)."""
    if pair.covariances is None:
        raise ValueError("pose covariances required")
    rot_err, tr_err = ape(pair)
    out = np.zeros(len(pair))
    for i in range(len(pair)):
        T = _local_error_transport(pair.est_rot[i], pair.est_pos[i])
        cov_local = T @ pair.covariances[i] @ T.T
        err = np.concatenate([rot_err[i], tr_err[i]])
        try:
            out[i] = float(err @ np.linalg.solve(cov_local, err))
        except np.linalg.LinAlgError:
            raise ValueError(f"singular pose covariance at index {i}")
    return out


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


def calibration_error(S_true, S_hat) -> float:
    """Geodesic angle between the true and estimated mount rotations, from
    the skew part and the trace of D = S_true^T S_hat.  Unlike the log, this
    is exact at every angle, pi included."""
    D = np.asarray(S_true).T @ np.asarray(S_hat)
    return float(np.arctan2(0.5 * np.linalg.norm(unskew(D - D.T)),
                            0.5 * (np.trace(D) - 1.0)))


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


def emit_plot_data(pair: AlignedPair, out_dir, e_angle=None) -> list:
    """Write plot-ready CSV series; returns the created paths.

    trajectory.csv   t, gt x/y/z, est x/y/z
    ape.csv          t, rotation error norm rad, translation error norm m
    calibration.csv  t, mount rotation error rad        (when available)
    nees.csv         t, per-pose NEES, running average   (when available)
    """
    import csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []

    def write(name, header, rows):
        path = out_dir / name
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow([f"{v:.17g}" for v in row])
        created.append(path)

    write("trajectory.csv",
          ["t", "gt_x", "gt_y", "gt_z", "est_x", "est_y", "est_z"],
          [[pair.stamps[i], *pair.gt_pos[i], *pair.est_pos[i]]
           for i in range(len(pair))])
    if len(pair):
        rot_err, tr_err = ape(pair)
        write("ape.csv", ["t", "rotation_rad", "translation_m"],
              [[pair.stamps[i], np.linalg.norm(rot_err[i]), np.linalg.norm(tr_err[i])]
               for i in range(len(pair))])
    else:
        write("ape.csv", ["t", "rotation_rad", "translation_m"], [])
    if e_angle is not None:
        e_angle = np.asarray(e_angle, dtype=float)
        m = min(len(e_angle), len(pair))
        write("calibration.csv", ["t", "e_angle_rad"],
              [[pair.stamps[i], e_angle[i]] for i in range(m)])
    if pair.covariances is not None and len(pair):
        series = nees_series(pair)
        running = np.cumsum(series) / (6.0 * np.arange(1, len(series) + 1))
        write("nees.csv", ["t", "nees", "running_anees"],
              [[pair.stamps[i], series[i], running[i]] for i in range(len(pair))])
    return created


def write_metrics(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.as_dict(), f, indent=2)
        f.write("\n")
