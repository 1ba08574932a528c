"""Dataset and configuration file formats.

CSV schemas (values written with 17 significant digits, lossless for
doubles):

  imu.csv          t, wx, wy, wz, ax, ay, az            (s, rad/s, m/s^2)
  radar.csv        t, scan_id, feature_id, px, py, pz, doppler
                   feature_id -1 marks an untracked detection; a scan
                   with no detections has no row, so the filter skips
                   empty scans in memory as well
  groundtruth.csv  t, qw, qx, qy, qz, px, py, pz, vx, vy, vz
  estimate.csv     groundtruth columns plus the upper triangle (21 values)
                   of the 6x6 pose-error covariance block
  meta.cfg         key-value file with rates and, when known, the true
                   radar extrinsics

The configuration format is flat `section.key = value` lines; parsing is
strict: unknown keys, malformed lines and type errors are reported with
their line number.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .measurements import RadarDetection, RadarScan

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    pass


# --- quaternions (w, x, y, z) -------------------------------------------------

def quat_from_matrix(R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.zeros(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return q / np.linalg.norm(q)


def matrix_from_quat(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# --- generic CSV helpers --------------------------------------------------------

def _write_csv(path, header, rows):
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def _read_csv(path, expected_header):
    import csv

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != expected_header:
            raise ConfigError(f"{path}: expected header {expected_header}, got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ConfigError(f"{path}:{lineno}: expected {len(expected_header)} "
                                  f"values, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{path}:{lineno}: non-finite value in {row}")
            rows.append(values)
    return np.asarray(rows, dtype=float).reshape(-1, len(expected_header))


# --- dataset bundle ----------------------------------------------------------------

IMU_HEADER = ["t", "wx", "wy", "wz", "ax", "ay", "az"]
RADAR_HEADER = ["t", "scan_id", "feature_id", "px", "py", "pz", "doppler"]
GT_HEADER = ["t", "qw", "qx", "qy", "qz", "px", "py", "pz", "vx", "vy", "vz"]
EST_HEADER = GT_HEADER + [f"c{i}{j}" for i in range(6) for j in range(i, 6)]


def write_imu_csv(path, times, gyro, accel):
    rows = [[float(t), *map(float, g), *map(float, a)]
            for t, g, a in zip(times, gyro, accel)]
    _write_csv(path, IMU_HEADER, rows)


def read_imu_csv(path):
    data = _read_csv(path, IMU_HEADER)
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def write_radar_csv(path, scans):
    rows = []
    for scan in scans:
        for det in scan.detections:
            rows.append([float(scan.stamp), scan.scan_id, det.feature_id,
                         *map(float, det.point), float(det.doppler)])
    _write_csv(path, RADAR_HEADER, rows)


def read_radar_csv(path):
    """Returns scans grouped by scan_id as (stamp, scan_id, detections) with
    detections (feature_id, point, doppler)."""
    data = _read_csv(path, RADAR_HEADER)
    scans = []
    for row in data:
        stamp, scan_id, fid = float(row[0]), int(row[1]), int(row[2])
        det = RadarDetection(fid, row[3:6].copy(), float(row[6]))
        if scans and scans[-1][1] == scan_id:
            scans[-1][2].append(det)
        else:
            scans.append([stamp, scan_id, [det]])
    return tuple(RadarScan(stamp=s, scan_id=i, detections=tuple(dets))
                 for s, i, dets in scans)


def write_groundtruth_csv(path, times, rotations, positions, velocities):
    rows = []
    for t, R, p, v in zip(times, rotations, positions, velocities):
        rows.append([float(t), *map(float, quat_from_matrix(R)),
                     *map(float, p), *map(float, v)])
    _write_csv(path, GT_HEADER, rows)


def read_groundtruth_csv(path):
    data = _read_csv(path, GT_HEADER)
    times = data[:, 0]
    rots = np.stack([matrix_from_quat(q) for q in data[:, 1:5]])
    return times, rots, data[:, 5:8], data[:, 8:11]


def write_estimate_csv(path, times, rotations, positions, velocities, covariances):
    rows = []
    iu = np.triu_indices(6)
    for t, R, p, v, P in zip(times, rotations, positions, velocities, covariances):
        rows.append([float(t), *map(float, quat_from_matrix(R)), *map(float, p),
                     *map(float, v), *map(float, np.asarray(P)[iu])])
    _write_csv(path, EST_HEADER, rows)


def read_estimate_csv(path):
    data = _read_csv(path, EST_HEADER)
    times = data[:, 0]
    rots = np.stack([matrix_from_quat(q) for q in data[:, 1:5]])
    covs = np.zeros((len(data), 6, 6))
    iu = np.triu_indices(6)
    for i, row in enumerate(data):
        covs[i][iu] = row[11:]
        covs[i] = covs[i] + covs[i].T - np.diag(np.diag(covs[i]))
    return times, rots, data[:, 5:8], data[:, 8:11], covs


# --- key-value configuration --------------------------------------------------------

def parse_kv_text(text: str, schema: dict, source: str = "<config>"):
    """Strict parser for `key = value` lines.  The schema maps keys to
    (type, default); unknown keys and bad values are errors with line
    numbers.  Types: float, int, bool, str, and "vec3".  Returns the value
    dict and the set of keys that were explicitly present."""
    values = {k: default for k, (_, default) in schema.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        seen.add(key)
        kind = schema[key][0]
        try:
            if kind == "float":
                values[key] = float(val)
            elif kind == "int":
                values[key] = int(val)
            elif kind == "bool":
                if val.lower() not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = val.lower() == "true"
            elif kind == "str":
                values[key] = val
            elif kind == "vec3":
                parts = [float(p) for p in val.replace(",", " ").split()]
                if len(parts) != 3:
                    raise ValueError("expected three numbers")
                values[key] = tuple(parts)
            else:
                raise AssertionError(f"bad schema type {kind}")
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {exc}")
    return values, seen


def parse_kv_file(path, schema: dict):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    return parse_kv_text(path.read_text(encoding="utf-8"), schema, source=str(path))


def write_kv_file(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, val in values.items():
            if isinstance(val, tuple):
                val = " ".join(FLOAT_FMT % v for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = FLOAT_FMT % val
            f.write(f"{key} = {val}\n")


META_SCHEMA = {
    "imu_rate": ("float", 200.0),
    "radar_rate": ("float", 10.0),
    "gravity": ("vec3", (0.0, 0.0, -9.81)),
    "has_extrinsics_truth": ("bool", False),
    "cal_rot_true": ("vec3", (0.0, 0.0, 0.0)),   # axis-angle, rad
    "cal_pos_true": ("vec3", (0.0, 0.0, 0.0)),   # m
}


def parse_perturbation(text: str) -> np.ndarray:
    """Axis:angle rotation perturbation, e.g. 'y:80deg', 'x:0.5rad', 'none'."""
    text = text.strip()
    if text in ("", "none", "0"):
        return np.zeros(3)
    axis_part, _, angle_part = text.partition(":")
    axes = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]),
            "z": np.array([0, 0, 1.0])}
    if axis_part not in axes:
        raise ConfigError(f"bad perturbation axis '{axis_part}'")
    angle_part = angle_part.strip()
    if angle_part.endswith("deg"):
        angle = np.deg2rad(float(angle_part[:-3]))
    elif angle_part.endswith("rad"):
        angle = float(angle_part[:-3])
    else:
        raise ConfigError(f"perturbation angle '{angle_part}' needs a deg/rad suffix")
    return axes[axis_part] * angle


class DatasetBundle(NamedTuple):
    imu_path: Path
    radar_path: Path
    groundtruth_path: Path | None
    meta: dict

    @staticmethod
    def open(directory) -> "DatasetBundle":
        d = Path(directory)
        gt = d / "groundtruth.csv"
        meta_path = d / "meta.cfg"
        meta = parse_kv_file(meta_path, META_SCHEMA)[0] if meta_path.exists() \
            else {k: v for k, (_, v) in META_SCHEMA.items()}
        return DatasetBundle(
            imu_path=d / "imu.csv",
            radar_path=d / "radar.csv",
            groundtruth_path=gt if gt.exists() else None,
            meta=meta,
        )
