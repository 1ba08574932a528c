"""Command-line front end: dataset generation, filter runs, evaluation and
Monte-Carlo sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import io as eqio
from .evaluation import associate, emit_plot_data, evaluate_run, write_metrics
from .io import ConfigError, DatasetBundle, parse_kv_file
from .lie import SE3, SO3
from .pipeline import (
    RUN_SCHEMA,
    SIM_SCHEMA,
    montecarlo,
    prepare_run,
    run_filter,
    sim_setup_from_values,
)
from .simulator import run_simulation
from .symmetry import GRAVITY

_CAL_ERROR_HEADER = ["t", "e_angle_rad"]


def cmd_simulate(spec_path, out_dir) -> int:
    values, seen = parse_kv_file(spec_path, SIM_SCHEMA)
    spec, config = sim_setup_from_values(values, seen)
    sim = run_simulation(spec, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eqio.write_imu_csv(out / "imu.csv", sim.times, sim.imu_gyro, sim.imu_accel)
    eqio.write_radar_csv(out / "radar.csv", sim.scans)
    eqio.write_groundtruth_csv(out / "groundtruth.csv", sim.times,
                               sim.rotations, sim.positions, sim.velocities)
    eqio.write_kv_file(out / "meta.cfg", {
        "imu_rate": config.imu_rate,
        "radar_rate": config.imu_rate / config.radar_stride(),
        "gravity": tuple(GRAVITY),
        "has_extrinsics_truth": True,
        "cal_rot_true": tuple(config.cal_rot),
        "cal_pos_true": tuple(config.cal_pos),
    })
    print(f"wrote dataset: {out} ({len(sim.times)} imu records, "
          f"{len(sim.scans)} radar scans)")
    return 0


def cmd_run(data_dir, config_path, out_dir) -> int:
    values, _ = parse_kv_file(config_path, RUN_SCHEMA)
    bundle = DatasetBundle.open(data_dir)
    if not np.array_equal(bundle.meta["gravity"], GRAVITY):
        raise ConfigError(f"{Path(data_dir) / 'meta.cfg'}: gravity "
                          f"{bundle.meta['gravity']} is not the filter's {tuple(GRAVITY)}")
    times, gyro, accel = eqio.read_imu_csv(bundle.imu_path)
    scans = eqio.read_radar_csv(bundle.radar_path)
    cal_true = SE3.from_components(SO3.exp(np.asarray(bundle.meta["cal_rot_true"])),
                                   np.asarray(bundle.meta["cal_pos_true"]))
    if bundle.groundtruth_path is not None:
        _, gt_rot, gt_pos, gt_vel = eqio.read_groundtruth_csv(bundle.groundtruth_path)
        start = (gt_rot[0], gt_vel[0], gt_pos[0])
    else:
        start = (np.eye(3), np.zeros(3), np.zeros(3))
    settings, xi0, cov0 = prepare_run(values, bundle.meta["imu_rate"], *start, cal_true)

    cal_rot_truth = cal_true[0:3, 0:3] if bundle.meta["has_extrinsics_truth"] else None
    result = run_filter(times, gyro, accel, scans, xi0, cov0, settings,
                        cal_rot_truth=cal_rot_truth)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eqio.write_estimate_csv(out / "estimate.csv", result.times, result.est_rot,
                            result.est_pos, result.est_vel, result.pose_cov)
    if result.e_angle is not None:
        eqio._write_csv(out / "calibration_error.csv", _CAL_ERROR_HEADER,
                        np.column_stack([result.times, result.e_angle]))
    belief = result.final_belief
    with open(out / "final_belief.json", "w", encoding="utf-8") as f:
        json.dump({
            "nav": belief.sym.nav.tolist(),
            "bias_shift": belief.sym.bias_shift.tolist(),
            "cal": belief.sym.cal.tolist(),
            "clones": belief.sym.clones.tolist(),
            "clone_stamps": list(belief.stamps),
            "covariance": belief.cov.tolist(),
        }, f)
    print(f"wrote estimates: {out} ({len(result.times)} rows)")
    return 0


def cmd_evaluate(est_dir, gt_path, out_dir) -> int:
    est_dir = Path(est_dir)
    est_t, est_rot, est_pos, est_vel, covs = eqio.read_estimate_csv(
        est_dir / "estimate.csv")
    gt_t, gt_rot, gt_pos, _ = eqio.read_groundtruth_csv(gt_path)
    pair = associate(gt_t, gt_rot, gt_pos, est_t, est_rot, est_pos, covs)

    calibration = None
    cal_path = est_dir / "calibration_error.csv"
    if cal_path.exists():
        calibration = eqio._read_csv(cal_path, _CAL_ERROR_HEADER)

    report = evaluate_run(pair, None if calibration is None else calibration[:, 1])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(report, out / "metrics.json")
    emit_plot_data(pair, out, calibration)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def cmd_montecarlo(spec_path, config_path, seeds, perturb_list, out_dir) -> int:
    sim_values, sim_seen = parse_kv_file(spec_path, SIM_SCHEMA)
    run_values, _ = parse_kv_file(config_path, RUN_SCHEMA)
    perturbations = [p.strip() for p in perturb_list.split(",")] if perturb_list \
        else ["none"]
    summary = montecarlo(sim_values, run_values, range(seeds), perturbations,
                         sim_seen=sim_seen)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "montecarlo.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
    columns = ["perturbation", "runs", "translation_rmse_m", "rotation_rmse_deg",
               "position_drift_cm_per_m", "yaw_drift_deg_per_m", "anees",
               "final_calibration_error_rad", "converged", "partial", "fail"]
    with open(out / "montecarlo.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in summary["rows"]:
            w.writerow([row.get(c, "") for c in columns])
    for row in summary["rows"]:
        print(row)
    if summary["failures"]:
        print(f"{len(summary['failures'])} job(s) failed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eqf-rio",
        description="Equivariant radar-inertial odometry: simulate, run, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="simulation spec file")
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("run", help="run the filter over a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evaluate", help="compute metrics against ground truth")
    p.add_argument("--est", required=True, help="directory written by 'run'")
    p.add_argument("--gt", required=True, help="ground truth csv")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("montecarlo", help="seed/perturbation sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--perturb", default="none",
                   help="comma-separated list, e.g. 'none,y:10deg,y:80deg'")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.spec, args.out)
        if args.command == "run":
            return cmd_run(args.data, args.config, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(args.est, args.gt, args.out)
        if args.command == "montecarlo":
            if args.seeds < 1:
                raise ConfigError("--seeds must be at least 1")
            return cmd_montecarlo(args.spec, args.config, args.seeds,
                                  args.perturb, args.out)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
