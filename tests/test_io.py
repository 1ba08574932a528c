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
from eqfrio.lie import SO3
from eqfrio.measurements import RadarDetection, RadarScan
from helpers import random_rotation


def test_quaternion_roundtrip():
    rng = np.random.default_rng(140)
    for _ in range(500):
        R = random_rotation(rng, scale=1.5)
        R2 = matrix_from_quat(quat_from_matrix(R))
        assert np.allclose(R, R2, atol=1e-12)


def test_quaternions_of_a_stack_equal_per_rotation_ones():
    # one call for a (2, 20, 3, 3) stack, half of it past 120 deg, where the
    # trace is negative; the scalar part is cos(t/2) >= 0 up to pi itself
    rng = np.random.default_rng(143)
    axes = rng.standard_normal((40, 3))
    angles = np.concatenate([[0.0, 1e-12, np.pi - 1e-12, np.pi], rng.uniform(0.0, np.pi, 16),
                             rng.uniform(2.0 * np.pi / 3.0, np.pi, 20)])
    R = np.stack([SO3.exp(t * a / np.linalg.norm(a)) for t, a in zip(angles, axes)])
    q = quat_from_matrix(R.reshape(2, 20, 3, 3))
    assert q.shape == (2, 20, 4)
    assert np.array_equal(q.reshape(-1, 4), np.stack([quat_from_matrix(X) for X in R]))
    assert np.all(q[..., 0] >= 0.0)
    back = matrix_from_quat(q)
    assert back.shape == (2, 20, 3, 3)
    per_quaternion = np.stack([matrix_from_quat(x) for x in q.reshape(-1, 4)])
    assert np.array_equal(back.reshape(-1, 3, 3), per_quaternion)
    assert np.abs(back.reshape(-1, 3, 3) - R).max() <= 4e-15


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
    # the covariance blocks span 24 decades; both triangles and the diagonal
    # must come back bit for bit at every magnitude
    rng = np.random.default_rng(144)
    n = 50
    t = np.sort(rng.random(n))
    rot = np.stack([random_rotation(rng) for _ in range(n)])
    pos = rng.standard_normal((n, 3))
    vel = rng.standard_normal((n, 3))
    covs = np.zeros((n, 6, 6))
    for i in range(n):
        M = rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-9, 3)
        covs[i] = M @ M.T
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, t, rot, pos, vel, covs)
    t2, rot2, pos2, vel2, covs2 = read_estimate_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(covs, covs2)


def test_csv_bytes_are_pinned(tmp_path):
    # the csv module's dialect: comma-separated, CRLF line ends, no quoting;
    # floats as %.17g, so an integer value prints as the integer
    path = tmp_path / "imu.csv"
    write_imu_csv(path, np.array([0.02]), np.array([[0.1, -2.5e-7, 0.0]]),
                  np.array([[1.0 / 3.0, -9.81, 12.0]]))
    assert path.read_bytes() == (
        b"t,wx,wy,wz,ax,ay,az\r\n"
        b"0.02,0.10000000000000001,-2.4999999999999999e-07,0,"
        b"0.33333333333333331,-9.8100000000000005,12\r\n")

    scans = (
        RadarScan(stamp=0.1, scan_id=0, detections=(
            RadarDetection(-1, np.array([5.0, -0.25, 1e-3]), -0.7),
            RadarDetection(17, np.array([2.0 / 3.0, 0.0, -4.0]), 0.0))),
        RadarScan(stamp=0.2, scan_id=1, detections=()),
        RadarScan(stamp=0.30000000000000004, scan_id=12, detections=(
            RadarDetection(3, np.array([1.5, 2.0, -0.5]), 1.25),)),
    )
    path = tmp_path / "radar.csv"
    write_radar_csv(path, scans)
    assert path.read_bytes() == (
        b"t,scan_id,feature_id,px,py,pz,doppler\r\n"
        b"0.10000000000000001,0,-1,5,-0.25,0.001,-0.69999999999999996\r\n"
        b"0.10000000000000001,0,17,0.66666666666666663,0,-4,0\r\n"
        b"0.30000000000000004,12,3,1.5,2,-0.5,1.25\r\n")
    write_radar_csv(path, scans[1:2])
    assert path.read_bytes() == b"t,scan_id,feature_id,px,py,pz,doppler\r\n"

    path = tmp_path / "groundtruth.csv"
    write_groundtruth_csv(path, [1.5], [np.eye(3)], [[0.5, -1.0, 2.0]], [[0.0, 0.25, -3.0]])
    assert path.read_bytes() == (
        b"t,qw,qx,qy,qz,px,py,pz,vx,vy,vz\r\n"
        b"1.5,1,0,0,0,0.5,-1,2,0,0.25,-3\r\n")


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


def _read_with_quaternion(tmp_path, kind, quaternion):
    """Read a three-row groundtruth or estimate file whose third row holds the
    given quaternion, after a blank line that counts, as it does for the
    other CSV errors, so the row is on line 5."""
    path = tmp_path / f"{kind}.csv"
    rots, zeros = np.stack([np.eye(3)] * 3), np.zeros((3, 3))
    if kind == "groundtruth":
        write_groundtruth_csv(path, np.arange(3.0), rots, zeros, zeros)
    else:
        write_estimate_csv(path, np.arange(3.0), rots, zeros, zeros, np.zeros((3, 6, 6)))
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1:5] = quaternion
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    reader = read_groundtruth_csv if kind == "groundtruth" else read_estimate_csv
    return reader(path)


@pytest.mark.parametrize("kind", ["groundtruth", "estimate"])
def test_zero_quaternion_names_file_and_line(tmp_path, kind):
    with pytest.raises(ConfigError, match=rf"{kind}\.csv:5: zero quaternion"):
        _read_with_quaternion(tmp_path, kind, ["0", "0", "0", "-0"])


@pytest.mark.parametrize("kind", ["groundtruth", "estimate"])
def test_overflowing_quaternion_names_file_and_line(tmp_path, kind):
    # q.q overflows to inf, and q / sqrt(q.q) would read back as the identity
    with pytest.raises(ConfigError, match=rf"{kind}\.csv:5: overflowing quaternion"):
        _read_with_quaternion(tmp_path, kind, ["1e200", "0", "0", "0"])
    rot = _read_with_quaternion(tmp_path, kind, ["1e150", "0", "0", "1e150"])[1]
    assert np.allclose(rot[2], SO3.exp([0.0, 0.0, np.pi / 2]), atol=1e-15)


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


@pytest.mark.parametrize("line", ["a = nan", "a = -inf", "v = 1 inf 2", "v = 0, nan, 0"])
def test_kv_parser_rejects_non_finite(line):
    schema = {"a": ("float", 0.0), "v": ("vec3", (0.0, 0.0, 0.0))}
    with pytest.raises(ConfigError, match=r"run\.cfg:2: bad value .*non-finite"):
        parse_kv_text("\n" + line, schema, source="run.cfg")


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
