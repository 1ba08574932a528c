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

from .lie import SO3
from .measurements import RadarDetection, RadarScan
from .symmetry import GRAVITY

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    pass


# --- quaternions (w, x, y, z) -------------------------------------------------

def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion with w >= 0 of a rotation or of each in a (..., 3, 3)
    stack: (cos(t/2), sin(t/2)/t phi) of the rotation vector phi = SO3.log(R)
    of angle t <= pi."""
    phi = SO3.log(R)
    t = np.linalg.norm(phi, axis=-1, keepdims=True)
    return np.concatenate([np.cos(0.5 * t), 0.5 * np.sinc(t / (2.0 * np.pi)) * phi], axis=-1)


def matrix_from_quat(q) -> np.ndarray:
    """Rotation of a quaternion (w, x, y, z) or of each in a (..., 4) stack,
    normalized first; q @ q per row, as np.linalg.norm takes it of one."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q / np.sqrt(q[..., None, :] @ q[..., None])[..., 0], -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


# --- generic CSV helpers --------------------------------------------------------

def _write_csv(path, header, table):
    """One line per row of the 2-D table, comma-separated and CRLF-terminated
    as the `csv` module writes them; an integer-valued float prints as the
    integer."""
    line = ",".join([FLOAT_FMT] * len(header)) + "\r\n"
    rows = np.asarray(table, dtype=float).reshape(-1, len(header)).tolist()
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(line % tuple(row) for row in rows)


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


def _rotations(path, quats):
    """Rotations of the quaternion columns read from a CSV file.  A q whose q.q
    is zero or overflows is an error naming its line, numbered as `_read_csv`
    numbers lines; only this error path reads the file again."""
    qq = np.einsum("ij,ij->i", quats, quats)
    bad = np.flatnonzero(~((0.0 < qq) & (qq < np.inf)))
    if bad.size:
        import csv

        with open(path, newline="") as f:
            rows = [(n, row) for n, row in enumerate(csv.reader(f), start=1) if row]
        lineno, row = rows[1 + bad[0]]
        kind = "zero" if qq[bad[0]] == 0.0 else "overflowing"
        raise ConfigError(f"{path}:{lineno}: {kind} quaternion in {row}")
    return matrix_from_quat(quats)


# --- dataset bundle ----------------------------------------------------------------

IMU_HEADER = ["t", "wx", "wy", "wz", "ax", "ay", "az"]
RADAR_HEADER = ["t", "scan_id", "feature_id", "px", "py", "pz", "doppler"]
GT_HEADER = ["t", "qw", "qx", "qy", "qz", "px", "py", "pz", "vx", "vy", "vz"]
EST_HEADER = GT_HEADER + [f"c{i}{j}" for i in range(6) for j in range(i, 6)]


def write_imu_csv(path, times, gyro, accel):
    _write_csv(path, IMU_HEADER, np.column_stack([times, gyro, accel]))


def read_imu_csv(path):
    data = _read_csv(path, IMU_HEADER)
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def write_radar_csv(path, scans):
    _write_csv(path, RADAR_HEADER, [
        [scan.stamp, scan.scan_id, det.feature_id, *det.point, det.doppler]
        for scan in scans for det in scan.detections])


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
    _write_csv(path, GT_HEADER,
               np.column_stack([times, quat_from_matrix(rotations), positions, velocities]))


def read_groundtruth_csv(path):
    data = _read_csv(path, GT_HEADER)
    return data[:, 0], _rotations(path, data[:, 1:5]), data[:, 5:8], data[:, 8:11]


def write_estimate_csv(path, times, rotations, positions, velocities, covariances):
    rows, cols = np.triu_indices(6)
    covs = np.reshape(covariances, (-1, 6, 6))[:, rows, cols]
    _write_csv(path, EST_HEADER, np.column_stack(
        [times, quat_from_matrix(rotations), positions, velocities, covs]))


def read_estimate_csv(path):
    data = _read_csv(path, EST_HEADER)
    covs = np.zeros((len(data), 6, 6))
    rows, cols = np.triu_indices(6)
    covs[:, rows, cols] = covs[:, cols, rows] = data[:, 11:]
    return data[:, 0], _rotations(path, data[:, 1:5]), data[:, 5:8], data[:, 8:11], covs


# --- key-value configuration --------------------------------------------------------

def _finite(texts) -> list:
    values = [float(t) for t in texts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value {' '.join(texts)}")
    return values


def parse_kv_text(text: str, schema: dict, source: str = "<config>"):
    """Strict parser for `key = value` lines.  The schema maps keys to
    (type, default); unknown keys and bad values are errors with line
    numbers.  Types: float, int, bool, str, and "vec3"; float and vec3
    values must be finite.  Returns the value dict and the set of keys that
    were explicitly present."""
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
                values[key] = _finite([val])[0]
            elif kind == "int":
                values[key] = int(val)
            elif kind == "bool":
                if val.lower() not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = val.lower() == "true"
            elif kind == "str":
                values[key] = val
            elif kind == "vec3":
                parts = _finite(val.replace(",", " ").split())
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
    "gravity": ("vec3", tuple(GRAVITY)),
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
