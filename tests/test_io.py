"""File formats: lossless round-trips and strict configuration parsing."""

import numpy as np
import pytest

from eqfrio.io import (
    ConfigError,
    matrix_from_quat,
    parse_kv_text,
    parse_perturbation,
    quat_from_matrix,
    read_estimate_csv,
    read_groundtruth_csv,
    read_imu_csv,
    read_radar_csv,
    write_estimate_csv,
    write_groundtruth_csv,
    write_imu_csv,
    write_radar_csv,
)
from eqfrio.measurements import RadarDetection, RadarScan
from helpers import random_rotation


def test_quaternion_roundtrip():
    rng = np.random.default_rng(140)
    for _ in range(500):
        R = random_rotation(rng, scale=1.5)
        R2 = matrix_from_quat(quat_from_matrix(R))
        assert np.allclose(R, R2, atol=1e-12)


def test_imu_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(141)
    t = np.sort(rng.random(20))
    gyro = rng.standard_normal((20, 3))
    accel = rng.standard_normal((20, 3))
    path = tmp_path / "imu.csv"
    write_imu_csv(path, t, gyro, accel)
    t2, g2, a2 = read_imu_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(gyro, g2)
    assert np.array_equal(accel, a2)


def test_radar_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(142)
    scans = tuple(
        RadarScan(stamp=0.1 * (i + 1), scan_id=i, detections=tuple(
            RadarDetection(int(fid), rng.standard_normal(3),
                           float(rng.standard_normal()))
            for fid in rng.integers(-1, 20, size=4)))
        for i in range(5)
    )
    path = tmp_path / "radar.csv"
    write_radar_csv(path, scans)
    loaded = read_radar_csv(path)
    assert len(loaded) == 5
    for a, b in zip(scans, loaded):
        assert a.stamp == b.stamp
        assert a.scan_id == b.scan_id
        for da, db in zip(a.detections, b.detections):
            assert da.feature_id == db.feature_id
            assert np.array_equal(da.point, db.point)
            assert da.doppler == db.doppler


def test_groundtruth_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(143)
    n = 10
    t = np.sort(rng.random(n))
    rot = np.stack([random_rotation(rng) for _ in range(n)])
    pos = rng.standard_normal((n, 3))
    vel = rng.standard_normal((n, 3))
    path = tmp_path / "groundtruth.csv"
    write_groundtruth_csv(path, t, rot, pos, vel)
    t2, rot2, pos2, vel2 = read_groundtruth_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(pos, pos2)
    assert np.array_equal(vel, vel2)
    assert np.allclose(rot, rot2, atol=1e-12)  # via quaternion


def test_estimate_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(144)
    n = 6
    t = np.sort(rng.random(n))
    rot = np.stack([random_rotation(rng) for _ in range(n)])
    pos = rng.standard_normal((n, 3))
    vel = rng.standard_normal((n, 3))
    covs = np.zeros((n, 6, 6))
    for i in range(n):
        M = rng.standard_normal((6, 6))
        covs[i] = M @ M.T
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, t, rot, pos, vel, covs)
    t2, rot2, pos2, vel2, covs2 = read_estimate_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(covs, covs2)


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="header"):
        read_imu_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_names_file_and_line(tmp_path, value):
    path = tmp_path / "imu.csv"
    write_imu_csv(path, np.array([0.0, 0.1, 0.2]), np.zeros((3, 3)), np.ones((3, 3)))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"imu\.csv:3: non-finite"):
        read_imu_csv(path)


def test_csv_short_rows_are_not_regrouped(tmp_path):
    # 7 rows of 6 values hold 42 values, as many as 6 rows of 7
    path = tmp_path / "imu.csv"
    path.write_text("t,wx,wy,wz,ax,ay,az\n" + "0,1,2,3,4,5\n" * 7)
    with pytest.raises(ConfigError, match=r"imu\.csv:2: expected 7 values, got 6"):
        read_imu_csv(path)


def test_csv_single_short_row_names_file_and_line(tmp_path):
    path = tmp_path / "imu.csv"
    write_imu_csv(path, np.array([0.0, 0.1, 0.2]), np.zeros((3, 3)), np.ones((3, 3)))
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"imu\.csv:4: expected 7 values, got 6"):
        read_imu_csv(path)


def test_kv_parser_happy_path():
    schema = {"a.x": ("float", 1.0), "a.flag": ("bool", False),
              "name": ("str", "none"), "vec": ("vec3", (0.0, 0.0, 0.0)),
              "n": ("int", 3)}
    text = """
    # comment
    a.x = 2.5
    a.flag = true
    vec = 1 2 3
    """
    values, seen = parse_kv_text(text, schema)
    assert values["a.x"] == 2.5
    assert values["a.flag"] is True
    assert values["vec"] == (1.0, 2.0, 3.0)
    assert values["n"] == 3          # default
    assert seen == {"a.x", "a.flag", "vec"}


def test_kv_parser_unknown_key_line_number():
    with pytest.raises(ConfigError, match=":3: unknown key"):
        parse_kv_text("\n\nbogus = 1\n", {"a": ("float", 0.0)})


def test_kv_parser_bad_value():
    with pytest.raises(ConfigError, match=":1: bad value"):
        parse_kv_text("a = oops", {"a": ("float", 0.0)})


def test_kv_parser_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2", {"a": ("float", 0.0)})


def test_kv_parser_missing_equals():
    with pytest.raises(ConfigError, match="expected"):
        parse_kv_text("a 1", {"a": ("float", 0.0)})


def test_parse_perturbation():
    assert np.allclose(parse_perturbation("none"), 0.0)
    v = parse_perturbation("y:80deg")
    assert np.allclose(v, [0.0, np.deg2rad(80.0), 0.0])
    assert np.allclose(parse_perturbation("x:0.5rad"), [0.5, 0.0, 0.0])
    with pytest.raises(ConfigError):
        parse_perturbation("w:10deg")
    with pytest.raises(ConfigError):
        parse_perturbation("x:10")
