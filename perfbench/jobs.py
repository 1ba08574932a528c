"""One job per workload entry point, the benchmark's own reference
simulation, the noise-free twin, and the checks on their outputs.

A job is one simulate -> run -> evaluate pass.  Each function raises
`JobFailed` (or whatever the package raised) when the job cannot complete;
the caller counts that job as failed and keeps the error text.  Checks on a
completed job return a list of problems instead, so a wrong answer is never
mistaken for a failed job.
"""

from __future__ import annotations

import json
import math
import os
import resource
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from eqfrio import io as eqio
from eqfrio import simulator
from eqfrio.simulator import SimConfig, TrajectorySpec
from workloads import NOISE_KEYS, TWIN_DURATION, Workload

CONVERGED_DEG = 5.0          # criterion 6
ANEES_BAND = (0.3, 3.0)      # criterion 7
TWIN_TOL = 1e-6              # criterion 4, metres and radians
RMSE_RTOL = 1e-9


class JobFailed(RuntimeError):
    pass


# --- inputs ---------------------------------------------------------------------

def sim_inputs(values: dict, seed: int) -> tuple[TrajectorySpec, SimConfig]:
    """Trajectory and sensor configuration from spec-file values, built on the
    simulator's public types so that it needs no `pipeline`."""
    if values["preset"] != "excited":
        raise ValueError("the workloads use the excited preset")
    config = SimConfig(
        imu_rate=values["imu_rate"], radar_rate=values["radar_rate"],
        gyro_noise=values["noise.gyro_density"],
        accel_noise=values["noise.accel_density"],
        gyro_walk=values["noise.gyro_walk"], accel_walk=values["noise.accel_walk"],
        gyro_bias_std=values["bias.gyro_std"], accel_bias_std=values["bias.accel_std"],
        range_noise=values["radar.sigma_range"],
        bearing_noise=values["radar.sigma_bearing"],
        doppler_noise=values["radar.sigma_doppler"],
        cal_rot=values["cal.rot"], cal_pos=values["cal.pos"],
        landmark_count=values["landmarks.count"], landmark_box=values["landmarks.box"],
        fov_half_angle=np.deg2rad(values["fov.half_angle_deg"]),
        fov_max_range=values["fov.max_range"], seed=seed,
    )
    return TrajectorySpec.excited(values["duration"]), config


def simulate(wl: Workload, seed: int):
    """The benchmark's reference simulation of one job's dataset; the jobs'
    ground truth must equal it."""
    spec, config = sim_inputs(wl.sim, seed)
    start = perf_counter()
    sim = simulator.run_simulation(spec, config)
    elapsed = perf_counter() - start
    problems = []
    n = int(round(spec.duration * config.imu_rate)) + 1
    if len(sim.times) != n or not np.all(np.diff(sim.times) > 0):
        problems.append(f"simulate: {len(sim.times)} records, expected {n} increasing")
    if not all(np.isfinite(a).all() for a in (sim.positions, sim.imu_gyro, sim.imu_accel)):
        problems.append("simulate: non-finite records")
    if sum(len(s.detections) for s in sim.scans) == 0:
        problems.append("simulate: no radar detections")
    return sim, elapsed, problems


def _pipeline_values(pipeline, wl: Workload, seed: int, perturbation: str,
                     sim_overrides=None, run_overrides=None):
    sim_values = {k: v for k, (_, v) in pipeline.SIM_SCHEMA.items()}
    sim_values.update(wl.sim)
    sim_values.update(sim_overrides or {})
    sim_values["seed"] = seed
    run_values = {k: v for k, (_, v) in pipeline.RUN_SCHEMA.items()}
    run_values.update(wl.run)
    run_values.update(run_overrides or {})
    run_values["perturb.calibration"] = perturbation
    return sim_values, set(wl.sim) | set(sim_overrides or ()), run_values


# --- checks -----------------------------------------------------------------------

def quat_to_rot(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(-1, 3, 3)


def check_job(imu_times, est_t, est_pos, covs, gt_rot, gt_pos, report: dict,
              perturbation: str) -> list[str]:
    """The per-job checks: one output stamp per IMU record, symmetric PSD pose
    covariances, translation RMSE recomputed with plain numpy, ANEES band on
    unperturbed jobs and convergence on perturbed ones."""
    problems = []
    if not (np.array_equal(est_t, imu_times) and np.all(np.diff(est_t) > 0)):
        problems.append(f"{len(est_t)} output stamps, not one per IMU record "
                        f"({len(imu_times)}) strictly increasing")
    scale = np.max(np.abs(covs), axis=(1, 2))
    if np.any(np.max(np.abs(covs - covs.transpose(0, 2, 1)), axis=(1, 2)) > 1e-12 * scale):
        problems.append("asymmetric pose covariance")
    if np.any(np.linalg.eigvalsh(covs)[:, 0] < -1e-12 * scale):
        problems.append("pose covariance not positive semidefinite")
    err = np.einsum("nji,nj->ni", gt_rot, est_pos - gt_pos)
    rmse = math.sqrt(np.mean(np.sum(err**2, axis=1)))
    if abs(rmse - report["translation_rmse_m"]) > RMSE_RTOL * rmse:
        problems.append(f"translation RMSE {report['translation_rmse_m']!r} "
                        f"!= plain numpy {rmse!r}")
    if perturbation == "none":
        if not ANEES_BAND[0] < report["anees"] < ANEES_BAND[1]:
            problems.append(f"ANEES {report['anees']:.3f} outside {ANEES_BAND}")
    elif np.rad2deg(report["final_calibration_error_rad"]) >= CONVERGED_DEG:
        problems.append(f"final mount error "
                        f"{np.rad2deg(report['final_calibration_error_rad']):.2f} deg "
                        f">= {CONVERGED_DEG} deg")
    return problems


def _job_metrics(report: dict, perturbation: str, job_s, run_s, evaluate_s, span_s):
    """{metric: (value, unit)} of one completed job."""
    out = {"job_s": (job_s, "s"), "run_s": (run_s, "s"), "evaluate_s": (evaluate_s, "s"),
           "realtime_factor": (span_s / run_s, "x"),
           "translation_rmse_m": (report["translation_rmse_m"], "m")}
    if perturbation != "none":
        out["final_cal_error_deg"] = (
            float(np.rad2deg(report["final_calibration_error_rad"])), "deg")
    return out


# --- jobs ---------------------------------------------------------------------------

def _cli(cli, *argv):
    out, err = StringIO(), StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    elapsed = perf_counter() - start
    if code != 0:
        raise JobFailed(f"eqf-rio {argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed


def cli_job(wl: Workload, seed: int, perturbation: str, workdir: Path, own_sim):
    """`eqf-rio simulate`, `run` and `evaluate` with files on disk.  Returns
    (metrics, problems, evaluation report)."""
    from eqfrio import cli

    spec_path, run_path = workdir / "sim.cfg", workdir / "run.cfg"
    data, est, ev = workdir / "data", workdir / "est", workdir / "eval"
    eqio.write_kv_file(spec_path, {**wl.sim, "seed": seed})
    eqio.write_kv_file(run_path, {**wl.run, "perturb.calibration": perturbation})
    sim_s = _cli(cli, "simulate", "--spec", str(spec_path), "--out", str(data))
    run_s = _cli(cli, "run", "--data", str(data), "--config", str(run_path),
                 "--out", str(est))
    evaluate_s = _cli(cli, "evaluate", "--est", str(est), "--gt",
                      str(data / "groundtruth.csv"), "--out", str(ev))

    def load(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    imu, gt, estimate = load(data / "imu.csv"), load(data / "groundtruth.csv"), \
        load(est / "estimate.csv")
    report = json.loads((ev / "metrics.json").read_text())
    covs = np.zeros((len(estimate), 6, 6))
    iu = np.triu_indices(6)
    covs[:, iu[0], iu[1]] = estimate[:, 11:]
    covs[:, iu[1], iu[0]] = estimate[:, 11:]
    problems = check_job(imu[:, 0], estimate[:, 0], estimate[:, 5:8], covs,
                         quat_to_rot(gt[:, 1:5]), gt[:, 5:8], report, perturbation)
    if not np.array_equal(gt[:, 5:8], own_sim.positions):
        problems.append("groundtruth.csv differs from the reference simulation")
    metrics = _job_metrics(report, perturbation, sim_s + run_s + evaluate_s, run_s,
                           evaluate_s, imu[-1, 0] - imu[0, 0])
    return metrics, problems, report


def pipeline_job(wl: Workload, seed: int, perturbation: str, own_sim, tracer):
    """`pipeline.simulate_and_run` then `evaluate_run`, called as
    `pipeline.montecarlo`'s worker job calls them (through the `pipeline`
    module).  Returns (metrics, problems, evaluation report)."""
    from eqfrio import pipeline

    sim_values, seen, run_values = _pipeline_values(pipeline, wl, seed, perturbation)
    spec, config = pipeline.sim_setup_from_values(sim_values, seen)
    start = perf_counter()
    sim, result, pair = pipeline.simulate_and_run(spec, config, run_values)
    mid = perf_counter()
    report = pipeline.evaluate_run(pair, result.e_angle).as_dict()
    end = perf_counter()
    problems = check_job(sim.times, result.times, result.est_pos, result.pose_cov,
                         sim.rotations, sim.positions, report, perturbation)
    if not np.array_equal(sim.positions, own_sim.positions):
        problems.append("simulate_and_run ground truth differs from the reference simulation")
    run_s = tracer.total("pipeline.run_filter")
    metrics = _job_metrics(report, perturbation, end - start, run_s, end - mid,
                           sim.times[-1] - sim.times[0])
    return metrics, problems, report


def sweep(wl: Workload, seeds: list[int]):
    """`pipeline.montecarlo` over seeds x perturbations on nproc workers.
    Returns (metrics, problems, failures, runs): failures as (seed,
    perturbation, error) of the sweep's own failed jobs, runs as montecarlo
    reports them."""
    from eqfrio import pipeline

    sim_values, seen, run_values = _pipeline_values(pipeline, wl, seeds[0], "none")
    workers = len(os.sched_getaffinity(0))
    jobs = len(seeds) * len(wl.perturbations)
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    summary = pipeline.montecarlo(sim_values, run_values, seeds, wl.perturbations,
                                  max_workers=workers, sim_seen=seen)
    wall = perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    failures = [(f["seed"], f["perturbation"], f["error"]) for f in summary["failures"]]
    problems = []
    for run in summary["runs"]:
        label = f"sweep seed {run['seed']} {run['perturbation']}"
        if run["perturbation"] == "none":
            if not ANEES_BAND[0] < run["anees"] < ANEES_BAND[1]:
                problems.append(f"{label}: ANEES {run['anees']:.3f} outside {ANEES_BAND}")
        elif np.rad2deg(run["final_calibration_error_rad"]) >= CONVERGED_DEG:
            problems.append(f"{label}: final mount error >= {CONVERGED_DEG} deg")
    cpu_s = cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
    metrics = {"sweep_jobs_per_min": (60.0 * len(summary["runs"]) / wall, "1/min"),
               "sweep_s": (wall, "s"),
               "pipeline.montecarlo.cpu_s_per_job": (cpu_s / jobs, "s")}
    return metrics, problems, failures, summary["runs"]


def sweep_rerun(wl: Workload, seed: int, own_sim, swept, tracer):
    """The sweep's job of `seed` and the workload's last perturbation, rerun
    alone in this process through the worker's path, `pipeline_job`, with
    every per-job check; when the sweep completed it, its report must equal
    the worker's."""
    label = wl.perturbations[-1]
    metrics, problems, report = pipeline_job(wl, seed, label, own_sim, tracer)
    same = [r for r in swept or () if r["seed"] == seed and r["perturbation"] == label]
    if same and any(_differs(same[0][k], v) for k, v in report.items()):
        problems.append(f"sweep job seed {seed} {label} differs from its "
                        f"single-process rerun")
    return metrics, problems, report


def _differs(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) > 1e-9 * max(abs(a), abs(b))
    return a != b


def twin(wl: Workload, seed: int) -> list[str]:
    """Noise-free, unperturbed, short twin of the workload: the filter must
    track ground truth to TWIN_TOL (exact discretization, criterion 4)."""
    from eqfrio import pipeline

    zero = dict.fromkeys(NOISE_KEYS, 0.0)
    init = {k: 0.0 for k in pipeline.RUN_SCHEMA if k.startswith("init.")}
    sim_values, seen, run_values = _pipeline_values(
        pipeline, wl, seed, "none", sim_overrides={**zero, "duration": TWIN_DURATION},
        run_overrides={k: v for k, v in {**zero, **init}.items() if k in pipeline.RUN_SCHEMA})
    spec, config = pipeline.sim_setup_from_values(sim_values, seen)
    sim, result, _ = pipeline.simulate_and_run(spec, config, run_values, use_msc=False)
    pos_err = float(np.linalg.norm(result.est_pos[-1] - sim.positions[-1]))
    D = sim.rotations[-1].T @ result.est_rot[-1]
    rot_err = float(np.linalg.norm([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]]) / 2)
    if pos_err >= TWIN_TOL or rot_err >= TWIN_TOL:
        return [f"noise-free twin seed {seed}: position error {pos_err:.2e} m, "
                f"rotation error {rot_err:.2e} rad (limit {TWIN_TOL})"]
    return []
