"""Command-line workflow: simulate, run, evaluate, montecarlo."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eqfrio import pipeline
from eqfrio.cli import main
from eqfrio.io import META_SCHEMA, parse_kv_file, read_imu_csv, read_radar_csv
from eqfrio.symmetry import GRAVITY
from helpers import src_env

SIM_SPEC = """
preset = hover
duration = 5
seed = 3
imu_rate = 100
radar_rate = 10
landmarks.count = 25
cal.rot = 0.1 -0.2 0.3
cal.pos = 0.1 0.0 -0.05
"""

RUN_CFG = """
filter.use_msc = true
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "sim.cfg").write_text(SIM_SPEC)
    (root / "run.cfg").write_text(RUN_CFG)
    assert main(["simulate", "--spec", str(root / "sim.cfg"),
                 "--out", str(root / "data")]) == 0
    return root


def test_simulate_record_count(workspace):
    t, gyro, accel = read_imu_csv(workspace / "data" / "imu.csv")
    assert abs(len(t) - 500) <= 1


def test_simulate_missing_spec_exits_2(tmp_path, capsys):
    code = main(["simulate", "--spec", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "d")])
    assert code == 2


def test_run_and_evaluate_noise_free(workspace, capsys):
    assert main(["run", "--data", str(workspace / "data"),
                 "--config", str(workspace / "run.cfg"),
                 "--out", str(workspace / "est")]) == 0
    assert main(["evaluate", "--est", str(workspace / "est"),
                 "--gt", str(workspace / "data" / "groundtruth.csv"),
                 "--out", str(workspace / "eval")]) == 0
    metrics = json.loads((workspace / "eval" / "metrics.json").read_text())
    assert metrics["translation_rmse_m"] < 1e-6
    assert metrics["convergence"] == "converged"
    for name in ("trajectory.csv", "ape.csv", "calibration.csv", "nees.csv"):
        assert (workspace / "eval" / name).exists()


def test_run_deterministic(workspace):
    for out in ("est_a", "est_b"):
        assert main(["run", "--data", str(workspace / "data"),
                     "--config", str(workspace / "run.cfg"),
                     "--out", str(workspace / out)]) == 0
    a = (workspace / "est_a" / "estimate.csv").read_bytes()
    b = (workspace / "est_b" / "estimate.csv").read_bytes()
    assert a == b


def test_run_perturbation_sets_initial_calibration(workspace, tmp_path):
    cfg = tmp_path / "run80.cfg"
    cfg.write_text("perturb.calibration = y:80deg\nfilter.use_msc = false\n")
    assert main(["run", "--data", str(workspace / "data"),
                 "--config", str(cfg), "--out", str(tmp_path / "est80")]) == 0
    import csv

    with open(tmp_path / "est80" / "calibration_error.csv") as f:
        rows = list(csv.reader(f))
    first = float(rows[1][1])
    assert np.isclose(first, np.deg2rad(80.0), atol=1e-6)


def test_evaluate_keeps_each_calibration_angle_with_its_stamp(workspace, tmp_path):
    # ground truth from t = 1 s: association drops the estimate rows before
    # it, while calibration.csv keeps the run's own (t, angle) rows
    cfg = tmp_path / "run30.cfg"
    cfg.write_text("perturb.calibration = y:30deg\nfilter.use_msc = false\n")
    assert main(["run", "--data", str(workspace / "data"),
                 "--config", str(cfg), "--out", str(tmp_path / "est")]) == 0
    late = _edited_copy(workspace, tmp_path, "groundtruth.csv",
                        lambda lines: lines[:1] + lines[101:])
    assert main(["evaluate", "--est", str(tmp_path / "est"),
                 "--gt", str(late / "groundtruth.csv"), "--out", str(tmp_path / "eval")]) == 0
    run_rows = np.loadtxt(tmp_path / "est" / "calibration_error.csv", delimiter=",",
                          skiprows=1)
    written = np.loadtxt(tmp_path / "eval" / "calibration.csv", delimiter=",", skiprows=1)
    assert run_rows[0, 1] == pytest.approx(np.deg2rad(30.0), abs=1e-6)
    assert np.array_equal(written, run_rows)


def test_simulate_records_the_radar_rate_used(tmp_path):
    # a 20 Hz radar on a 50 Hz IMU scans every round(2.5) = 2 records: 25 Hz
    spec = SIM_SPEC.replace("duration = 5", "duration = 1").replace(
        "imu_rate = 100", "imu_rate = 50").replace("radar_rate = 10", "radar_rate = 20")
    (tmp_path / "sim.cfg").write_text(spec)
    assert main(["simulate", "--spec", str(tmp_path / "sim.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    meta = parse_kv_file(tmp_path / "data" / "meta.cfg", META_SCHEMA)[0]
    assert meta["radar_rate"] == 25.0
    assert meta["gravity"] == tuple(GRAVITY)
    stamps = [scan.stamp for scan in read_radar_csv(tmp_path / "data" / "radar.csv")]
    assert np.allclose(np.diff(stamps), 1.0 / meta["radar_rate"], rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def run_dir(workspace):
    out = workspace / "est_cal"
    assert main(["run", "--data", str(workspace / "data"),
                 "--config", str(workspace / "run.cfg"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("value", ["nan", ""], ids=["nan", "empty"])
def test_evaluate_rejects_bad_calibration_error_value(workspace, run_dir, tmp_path,
                                                      capsys, value):
    import shutil

    est = tmp_path / "est"
    shutil.copytree(run_dir, est)
    path = est / "calibration_error.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + "," + value
    path.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--est", str(est),
                 "--gt", str(workspace / "data" / "groundtruth.csv"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert f"{path}:{len(lines)}" in capsys.readouterr().err


def test_evaluate_completes_on_a_half_turn_attitude_error(workspace, run_dir, tmp_path):
    # one estimate row turned by exactly pi about body x: a diverged run is
    # still evaluated
    import shutil

    est = tmp_path / "est"
    shutil.copytree(run_dir, est)
    path = est / "estimate.csv"
    lines = path.read_text().splitlines()
    gt_row = (workspace / "data" / "groundtruth.csv").read_text().splitlines()[100]
    t, w, x, y, z = gt_row.split(",")[:5]
    row = lines[100].split(",")
    assert row[0] == t
    # q * (0, 1, 0, 0) = (-x, w, z, -y)
    row[1:5] = [repr(-float(x)), w, z, repr(-float(y))]
    lines[100] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--est", str(est),
                 "--gt", str(workspace / "data" / "groundtruth.csv"),
                 "--out", str(tmp_path / "eval")]) == 0
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert np.isfinite(metrics["rotation_rmse_deg"])
    assert np.isfinite(metrics["anees"])


def test_run_rejects_bad_config(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not.a.key = 1\n")
    code = main(["run", "--data", str(workspace / "data"),
                 "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2


def test_run_aborts_on_nonmonotone_timestamps(workspace, tmp_path, capsys):
    import shutil

    data = tmp_path / "broken"
    shutil.copytree(workspace / "data", data)
    lines = (data / "imu.csv").read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    (data / "imu.csv").write_text("\n".join(lines) + "\n")
    code = main(["run", "--data", str(data),
                 "--config", str(workspace / "run.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "non-monotone" in capsys.readouterr().err


def _edited_copy(workspace, tmp_path, name, edit):
    """A copy of the workspace dataset with the lines of one file edited."""
    import shutil

    data = tmp_path / "edited"
    shutil.copytree(workspace / "data", data)
    lines = (data / name).read_text().splitlines()
    (data / name).write_text("\n".join(edit(lines)) + "\n")
    return data


def _run(workspace, tmp_path, data, config=None):
    return main(["run", "--data", str(data),
                 "--config", str(config or workspace / "run.cfg"),
                 "--out", str(tmp_path / "x")])


def test_run_rejects_non_finite_config_value(workspace, tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("filter.use_msc = true\nnoise.gyro_density = nan\n")
    assert _run(workspace, tmp_path, workspace / "data", cfg) == 2
    assert f"{cfg}:2" in capsys.readouterr().err


def test_run_rejects_other_gravity(workspace, tmp_path, capsys):
    data = _edited_copy(workspace, tmp_path, "meta.cfg", lambda lines: [
        "gravity = 0 0 -1.62" if line.startswith("gravity") else line for line in lines])
    assert _run(workspace, tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "meta.cfg" in err and "gravity" in err


def test_run_imu_rate_at_dt_max(tmp_path):
    # 10 Hz stamps differ by 0.1 plus rounding, just above filter.dt_max
    (tmp_path / "sim.cfg").write_text(SIM_SPEC.replace("imu_rate = 100", "imu_rate = 10"))
    (tmp_path / "run.cfg").write_text(RUN_CFG)
    assert main(["simulate", "--spec", str(tmp_path / "sim.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["run", "--data", str(tmp_path / "data"),
                 "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "x")]) == 0


@pytest.mark.parametrize("dropped", [9, 10])
def test_run_imu_gap_names_record(workspace, tmp_path, capsys, dropped):
    # records 19.. are dropped (line 0 is the header).  With 9 dropped the
    # gap 0.28 - 0.18 is 0.1 plus rounding and runs.  With 10 the 0.11 s gap
    # stops the run before the loop, naming the record after it, although
    # the scan at 0.2 would split it into steps below dt_max
    data = _edited_copy(workspace, tmp_path, "imu.csv",
                        lambda lines: lines[:20] + lines[20 + dropped:])
    code = _run(workspace, tmp_path, data)
    if dropped == 9:
        assert code == 0
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "imu gap of 0.1099" in err
        assert "before record 19 (t=0.29) exceeds filter.dt_max 0.1" in err


def test_run_rejects_scan_after_last_imu_record(workspace, tmp_path, capsys):
    late_t = float(read_imu_csv(workspace / "data" / "imu.csv")[0][-1]) + 0.3

    def late_scan(lines):
        scan_id = int(lines[-1].split(",")[1]) + 1
        return lines + [f"{late_t!r},{scan_id},-1,5,0,0,0"]

    data = _edited_copy(workspace, tmp_path, "radar.csv", late_scan)
    assert _run(workspace, tmp_path, data) == 1
    err = capsys.readouterr().err
    assert f"(t={late_t!r})" in err
    assert "after the last imu record, more than filter.dt_max 0.1" in err


def test_montecarlo_single_job_matches_run(workspace, tmp_path):
    assert main(["montecarlo", "--spec", str(workspace / "sim.cfg"),
                 "--config", str(workspace / "run.cfg"),
                 "--seeds", "1", "--perturb", "none",
                 "--out", str(tmp_path / "mc")]) == 0
    summary = json.loads((tmp_path / "mc" / "montecarlo.json").read_text())
    assert len(summary["rows"]) == 1
    assert summary["rows"][0]["runs"] == 1
    assert not summary["failures"]
    # single noise-free job reduces to the plain run/evaluate outcome
    metrics = json.loads((workspace / "eval" / "metrics.json").read_text())
    run0 = summary["runs"][0]
    assert np.isclose(run0["translation_rmse_m"], metrics["translation_rmse_m"],
                      rtol=1e-9, atol=1e-15)


def test_montecarlo_aggregate_rows(workspace, tmp_path):
    assert main(["montecarlo", "--spec", str(workspace / "sim.cfg"),
                 "--config", str(workspace / "run.cfg"),
                 "--seeds", "2", "--perturb", "none,y:10deg",
                 "--out", str(tmp_path / "mc2")]) == 0
    summary = json.loads((tmp_path / "mc2" / "montecarlo.json").read_text())
    assert [r["perturbation"] for r in summary["rows"]] == ["none", "y:10deg"]
    assert all(r["runs"] == 2 for r in summary["rows"])


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "eqfrio.cli", "--help"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_simulate_reload_equals_in_memory(workspace):
    from eqfrio.io import (parse_kv_file, read_groundtruth_csv, read_radar_csv)
    from eqfrio.pipeline import SIM_SCHEMA, sim_setup_from_values
    from eqfrio.simulator import run_simulation

    values, seen = parse_kv_file(workspace / "sim.cfg", SIM_SCHEMA)
    spec, config = sim_setup_from_values(values, seen)
    sim = run_simulation(spec, config)

    t, gyro, accel = read_imu_csv(workspace / "data" / "imu.csv")
    assert np.array_equal(t, sim.times)
    assert np.array_equal(gyro, sim.imu_gyro)
    assert np.array_equal(accel, sim.imu_accel)

    gt_t, gt_rot, gt_pos, gt_vel = read_groundtruth_csv(
        workspace / "data" / "groundtruth.csv")
    assert np.array_equal(gt_pos, sim.positions)
    assert np.array_equal(gt_vel, sim.velocities)
    assert np.allclose(gt_rot, sim.rotations, atol=1e-12)

    scans = read_radar_csv(workspace / "data" / "radar.csv")
    in_memory = [s for s in sim.scans if s.detections]
    assert len(scans) == len(in_memory)
    for a, b in zip(scans, in_memory):
        assert a.stamp == b.stamp
        for da, db in zip(a.detections, b.detections):
            assert da.feature_id == db.feature_id
            assert np.array_equal(da.point, db.point)
            assert da.doppler == db.doppler


def test_montecarlo_thread_cap_env(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("EQF_RIO_THREADS", "1")
    assert main(["montecarlo", "--spec", str(workspace / "sim.cfg"),
                 "--config", str(workspace / "run.cfg"),
                 "--seeds", "1", "--perturb", "none",
                 "--out", str(tmp_path / "mc1")]) == 0
    summary = json.loads((tmp_path / "mc1" / "montecarlo.json").read_text())
    assert summary["rows"][0]["runs"] == 1


def _blas_threads():
    return [get() for get in pipeline._openblas_calls("get_num_threads")]


@pytest.mark.skipif(not _blas_threads(), reason="no OpenBLAS library loaded")
def test_montecarlo_workers_run_blas_on_one_thread():
    parent = _blas_threads()
    with pipeline._worker_pool(2) as pool:
        workers = [job.result() for job in [pool.submit(_blas_threads) for _ in range(2)]]
    assert workers == [[1] * len(parent)] * 2
    assert _blas_threads() == parent


@pytest.mark.parametrize("workers", [1, 2])
def test_montecarlo_failure_names_type_and_traceback(workers):
    # a bad perturbation label fails each job in parse_perturbation; serially
    # and in worker processes alike the failure names the exception type, its
    # message, the job's arguments and the traceback of the failing call
    sim_values = {k: v for k, (_, v) in pipeline.SIM_SCHEMA.items()}
    sim_values.update({"preset": "hover", "duration": 0.5, "landmarks.count": 5})
    run_values = {k: v for k, (_, v) in pipeline.RUN_SCHEMA.items()}
    summary = pipeline.montecarlo(sim_values, run_values, [4, 5], ["y:80"],
                                  use_msc=False, max_workers=workers)
    assert summary["runs"] == []
    assert summary["rows"] == [{"perturbation": "y:80", "runs": 0}]
    assert [f["seed"] for f in summary["failures"]] == [4, 5]
    for failure in summary["failures"]:
        assert failure["perturbation"] == "y:80"
        assert failure["use_msc"] is False
        assert failure["type"] == "ConfigError"
        assert "needs a deg/rad suffix" in failure["error"]
        assert "parse_perturbation" in failure["traceback"]
        assert "ConfigError: perturbation angle" in failure["traceback"]
    json.dumps(summary)
