"""End-to-end runs: configuration schemas, the filter event loop over a
dataset, evaluation glue and Monte-Carlo sweeps.

The event loop is strictly time ordered.  An IMU record closes the interval
since the previous record and the filter propagates over it with the input
that was valid during the interval (zero-order hold); a radar scan first
propagates any remaining fraction, then applies the Doppler update, then the
point-constraint update against matchable clones, then clone lifecycle
(evict exhausted clones, evict the oldest when the window is full, clone the
current radar pose).  At equal timestamps IMU records are processed first,
so updates see the gyro sample of their own instant.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple

import numpy as np

from .evaluation import AlignedPair, calibration_error, evaluate_run
from .filter import (
    CHI2_GATE_1DOF,
    FilterBelief,
    clone_augment,
    clone_marginalize,
    estimated_state,
    initialize,
    process_noise,
    propagate,
    retain_features,
    update_doppler,
    update_msc,
)
from .io import ConfigError, parse_perturbation
from .lie import SE3, SE23, SO3, skew
from .measurements import DopplerNoiseSpec, MatchObservation, RadarScan
from .simulator import SimConfig, TrajectorySpec, run_simulation
from .symmetry import SystemInput, SystemState

RUN_SCHEMA = {
    "seed": ("int", 0),
    "init.attitude_std": ("float", 1e-5),
    "init.velocity_std": ("float", 1e-5),
    "init.position_std": ("float", 1e-5),
    "init.gyro_bias_std": ("float", 0.01),
    "init.accel_bias_std": ("float", 0.1),
    "init.virtual_bias_std": ("float", 1e-4),
    "init.cal_rot_std": ("float", 1e-4),
    "init.cal_pos_std": ("float", 1e-4),
    "perturb.calibration": ("str", "none"),
    "noise.gyro_density": ("float", 0.0),
    "noise.accel_density": ("float", 0.0),
    "noise.gyro_walk": ("float", 0.0),
    "noise.accel_walk": ("float", 0.0),
    "noise.virtual_velocity": ("float", 0.0),
    "noise.virtual_walk": ("float", 0.0),
    "noise.cal_rot_walk": ("float", 0.0),
    "noise.cal_pos_walk": ("float", 0.0),
    "radar.sigma_range": ("float", 0.0),
    "radar.sigma_bearing": ("float", 0.0),
    "radar.sigma_doppler": ("float", 0.0),
    "radar.sigma_gyro": ("float", -1.0),   # auto: gyro density * sqrt(imu rate)
    "filter.k_max": ("int", 10),
    "filter.use_doppler": ("bool", True),
    "filter.use_msc": ("bool", True),
    "filter.gate_doppler": ("bool", False),
    "filter.gate_msc": ("bool", True),
    "filter.gate_threshold": ("float", CHI2_GATE_1DOF),
    "filter.dt_max": ("float", 0.1),
}

SIM_SCHEMA = {
    "preset": ("str", "excited"),
    "duration": ("float", 30.0),
    "seed": ("int", 0),
    "trajectory.pos_amp": ("vec3", (0.0, 0.0, 0.0)),
    "trajectory.pos_freq": ("vec3", (0.0, 0.0, 0.0)),
    "trajectory.pos_phase": ("vec3", (0.0, 0.0, 0.0)),
    "trajectory.yaw": ("vec3", (0.0, 0.0, 0.0)),     # amplitude, freq, phase
    "trajectory.roll": ("vec3", (0.0, 0.0, 0.0)),
    "trajectory.pitch": ("vec3", (0.0, 0.0, 0.0)),
    "imu_rate": ("float", 200.0),
    "radar_rate": ("float", 10.0),
    "noise.gyro_density": ("float", 0.0),
    "noise.accel_density": ("float", 0.0),
    "noise.gyro_walk": ("float", 0.0),
    "noise.accel_walk": ("float", 0.0),
    "bias.gyro_std": ("float", 0.0),
    "bias.accel_std": ("float", 0.0),
    "radar.sigma_range": ("float", 0.0),
    "radar.sigma_bearing": ("float", 0.0),
    "radar.sigma_doppler": ("float", 0.0),
    "cal.rot": ("vec3", (0.0, 0.0, 0.0)),
    "cal.pos": ("vec3", (0.0, 0.0, 0.0)),
    "landmarks.count": ("int", 60),
    "landmarks.box": ("float", 12.0),
    "fov.half_angle_deg": ("float", 60.0),
    "fov.max_range": ("float", 20.0),
    "radar.id_mismatch_rate": ("float", 0.0),
}


def sim_setup_from_values(values: dict, seen=None) -> tuple[TrajectorySpec, SimConfig]:
    """Build the trajectory and sensor configuration from parsed values.
    Named presets define the trajectory; explicitly set trajectory.* keys
    override preset fields (and are required for preset 'custom')."""
    seen = seen or set()
    preset = values["preset"]
    if preset == "hover":
        spec = TrajectorySpec.hover(values["duration"])
    elif preset == "excited":
        spec = TrajectorySpec.excited(values["duration"])
    elif preset == "line":
        spec = TrajectorySpec.line(values["duration"])
    elif preset == "custom":
        spec = TrajectorySpec(duration=values["duration"])
    else:
        raise ConfigError(f"unknown preset '{preset}'")
    overrides = {}
    if "trajectory.pos_amp" in seen or preset == "custom":
        overrides["pos_amp"] = values["trajectory.pos_amp"]
    if "trajectory.pos_freq" in seen or preset == "custom":
        overrides["pos_freq"] = values["trajectory.pos_freq"]
    if "trajectory.pos_phase" in seen:
        overrides["pos_phase"] = values["trajectory.pos_phase"]
    for key, prefix in (("trajectory.yaw", "yaw"), ("trajectory.roll", "roll"),
                        ("trajectory.pitch", "pitch")):
        if key in seen:
            amp, freq, phase = values[key]
            overrides[f"{prefix}_amp"] = amp
            overrides[f"{prefix}_freq"] = freq
            overrides[f"{prefix}_phase"] = phase
    if overrides:
        spec = spec._replace(**overrides)
    config = SimConfig(
        imu_rate=values["imu_rate"],
        radar_rate=values["radar_rate"],
        gyro_noise=values["noise.gyro_density"],
        accel_noise=values["noise.accel_density"],
        gyro_walk=values["noise.gyro_walk"],
        accel_walk=values["noise.accel_walk"],
        gyro_bias_std=values["bias.gyro_std"],
        accel_bias_std=values["bias.accel_std"],
        range_noise=values["radar.sigma_range"],
        bearing_noise=values["radar.sigma_bearing"],
        doppler_noise=values["radar.sigma_doppler"],
        cal_rot=values["cal.rot"],
        cal_pos=values["cal.pos"],
        landmark_count=values["landmarks.count"],
        landmark_box=values["landmarks.box"],
        fov_half_angle=np.deg2rad(values["fov.half_angle_deg"]),
        fov_max_range=values["fov.max_range"],
        id_mismatch_rate=values["radar.id_mismatch_rate"],
        seed=values["seed"],
    )
    return spec, config


class RunSettings(NamedTuple):
    Q: np.ndarray
    noise_spec: DopplerNoiseSpec
    k_max: int = 10
    use_doppler: bool = True
    use_msc: bool = True
    gate_doppler: float | None = None
    gate_msc: float | None = CHI2_GATE_1DOF
    dt_max: float = 0.1


def settings_from_values(values: dict, imu_rate: float) -> RunSettings:
    sigma_gyro = values["radar.sigma_gyro"]
    if sigma_gyro < 0:
        sigma_gyro = values["noise.gyro_density"] * np.sqrt(imu_rate)
    return RunSettings(
        Q=process_noise(
            gyro=values["noise.gyro_density"],
            accel=values["noise.accel_density"],
            virtual_velocity=values["noise.virtual_velocity"],
            gyro_walk=values["noise.gyro_walk"],
            accel_walk=values["noise.accel_walk"],
            virtual_walk=values["noise.virtual_walk"],
            cal_rot_walk=values["noise.cal_rot_walk"],
            cal_pos_walk=values["noise.cal_pos_walk"],
        ),
        noise_spec=DopplerNoiseSpec(
            sigma_gyro=sigma_gyro,
            sigma_range=values["radar.sigma_range"],
            sigma_bearing=values["radar.sigma_bearing"],
            sigma_doppler=values["radar.sigma_doppler"],
        ),
        k_max=values["filter.k_max"],
        use_doppler=values["filter.use_doppler"],
        use_msc=values["filter.use_msc"],
        gate_doppler=values["filter.gate_threshold"] if values["filter.gate_doppler"] else None,
        gate_msc=values["filter.gate_threshold"] if values["filter.gate_msc"] else None,
        dt_max=values["filter.dt_max"],
    )


def initial_covariance(xi_hat: SystemState, std: np.ndarray) -> np.ndarray:
    """Transport a diagonal of physical standard deviations into the
    filter's error coordinates through the chart's closed-form Jacobian G at
    xi_hat.  The physical errors are: attitude d in R exp(d), velocity and
    position in the world frame, biases, and the mount rotation and
    translation right-multiplied on the extrinsic pose.  With P the pose,
    R the attitude, p the position and T = (R, p) cal the world-frame radar
    pose, G has the blocks

        G[0:9, 0:9]     = Ad_SE23(P) diag(I, R^T, R^T)
        G[9:18, 9:18]   = -Ad_SE23(P)
        G[18:24, 0:9]   = [[R, 0, 0], [p^ R, 0, I]]
        G[18:24, 18:24] = Ad_SE3(T)

    and zeros elsewhere.
    """
    std = np.asarray(std, dtype=float)
    if std.shape != (24,):
        raise ValueError("expected 24 standard deviations")
    R, p = xi_hat.attitude(), xi_hat.position()
    ad_pose = SE23.adjoint(xi_hat.pose)
    G = np.zeros((24, 24))
    G[0:9, 0:3] = ad_pose[:, 0:3]
    G[0:9, 3:6] = ad_pose[:, 3:6] @ R.T
    G[0:9, 6:9] = ad_pose[:, 6:9] @ R.T
    G[9:18, 9:18] = -ad_pose
    G[18:21, 0:3] = R
    G[21:24, 0:3] = skew(p) @ R
    G[21:24, 6:9] = np.eye(3)
    G[18:24, 18:24] = SE3.adjoint(xi_hat.radar_pose())
    return G @ np.diag(std**2) @ G.T


class RunResult(NamedTuple):
    times: np.ndarray
    est_rot: np.ndarray
    est_vel: np.ndarray
    est_pos: np.ndarray
    pose_cov: np.ndarray      # (M, 6, 6) rotation/position error block
    e_angle: np.ndarray | None
    final_belief: FilterBelief


def _pose_cov_block(cov: np.ndarray) -> np.ndarray:
    idx = np.concatenate([np.arange(0, 3), np.arange(6, 9)])
    return cov[np.ix_(idx, idx)]


def run_filter(times, gyro, accel, scans, xi0: SystemState, cov0,
               settings: RunSettings, cal_rot_truth=None) -> RunResult:
    """Drive the filter over one dataset.  Timestamps must be monotone;
    violations abort with the offending record.  A scan with no detections
    is skipped, as it has no row in radar.csv."""
    times = np.asarray(times, dtype=float)
    scans = [scan for scan in scans if scan.detections]
    belief = initialize(xi0, cov0)
    S_true = None if cal_rot_truth is None else np.asarray(cal_rot_truth)

    bad = np.flatnonzero(np.diff(times) <= 0)
    if bad.size:
        raise ValueError(f"non-monotone timestamps in imu stream at record "
                         f"{bad[0] + 1} (t={times[bad[0] + 1]})")
    scan_stamps = [scan.stamp for scan in scans]
    for i in range(1, len(scan_stamps)):
        if scan_stamps[i] <= scan_stamps[i - 1]:
            raise ValueError(f"non-monotone timestamps in radar stream at "
                             f"record {i} (t={scan_stamps[i]})")
    events = [(t, 0, i) for i, t in enumerate(times)]
    events += [(scan.stamp, 1, i) for i, scan in enumerate(scans)]
    events.sort(key=lambda e: (e[0], e[1]))

    clone_points: list[dict] = []   # per clone: feature id -> observed point
    out_t, out_rot, out_vel, out_pos, out_cov, out_ang = [], [], [], [], [], []

    def record(t):
        est = estimated_state(belief)
        row = (t, est.attitude(), est.velocity(), est.position(),
               _pose_cov_block(belief.cov),
               np.nan if S_true is None else
               calibration_error(S_true, est.cal[0:3, 0:3]))
        if out_t and out_t[-1] == t:
            for lst, val in zip((out_t, out_rot, out_vel, out_pos, out_cov, out_ang), row):
                lst[-1] = val
        else:
            for lst, val in zip((out_t, out_rot, out_vel, out_pos, out_cov, out_ang), row):
                lst.append(val)

    last_input, last_time = None, None   # zero-order-held IMU record
    for t, kind, idx in events:
        if kind == 0:
            if last_time is not None and t > last_time:
                belief = propagate(belief, last_input, t - last_time,
                                   settings.Q, settings.dt_max)
            last_input, last_time = SystemInput.from_imu(gyro[idx], accel[idx]), t
            record(t)
            continue

        scan: RadarScan = scans[idx]
        if last_input is None:
            continue  # no inertial context yet
        if t > last_time:
            belief = propagate(belief, last_input, t - last_time,
                               settings.Q, settings.dt_max)
            last_time = t
        gyro_now = last_input.gyro

        if settings.use_doppler:
            belief = update_doppler(belief, scan.detections, gyro_now,
                                    settings.noise_spec, settings.gate_doppler)

        tracked = {d.feature_id: d for d in scan.detections if d.feature_id >= 0}
        if settings.use_msc:
            # one constraint per feature, against the oldest clone that still
            # tracks it: longest baseline, and no reuse of the same noisy
            # current point across rows the update treats as independent
            matches = []
            matched = set()
            for ci in range(belief.n_clones):
                for fid in sorted(belief.features[ci] & set(tracked) - matched):
                    matches.append(MatchObservation(
                        fid, ci, tracked[fid].point, clone_points[ci][fid]))
                    matched.add(fid)
            if matches:
                belief = update_msc(belief, matches, settings.noise_spec,
                                    settings.gate_msc)

            # lifecycle: shrink to still-visible features, evict exhausted
            for ci in reversed(range(belief.n_clones)):
                alive = belief.features[ci] & set(tracked)
                if alive:
                    belief = retain_features(belief, ci, alive)
                else:
                    belief = clone_marginalize(belief, ci)
                    del clone_points[ci]
            if tracked:
                if belief.n_clones >= settings.k_max:
                    belief = clone_marginalize(belief, 0)
                    del clone_points[0]
                belief = clone_augment(belief, scan.stamp, set(tracked),
                                       settings.k_max)
                clone_points.append({fid: det.point for fid, det in tracked.items()})
        record(t)

    return RunResult(
        times=np.asarray(out_t),
        est_rot=np.stack(out_rot) if out_rot else np.zeros((0, 3, 3)),
        est_vel=np.stack(out_vel) if out_vel else np.zeros((0, 3)),
        est_pos=np.stack(out_pos) if out_pos else np.zeros((0, 3)),
        pose_cov=np.stack(out_cov) if out_cov else np.zeros((0, 6, 6)),
        e_angle=None if S_true is None else np.asarray(out_ang),
        final_belief=belief,
    )


def initial_state_from_truth(rot0, vel0, pos0, cal_true: np.ndarray,
                             perturb_rot=None) -> SystemState:
    """Filter starting point: true initial pose, zero biases, and the true
    extrinsics optionally perturbed in rotation."""
    cal = np.asarray(cal_true, dtype=float)
    if perturb_rot is not None and np.linalg.norm(perturb_rot) > 0:
        cal = cal @ SE3.from_components(SO3.exp(np.asarray(perturb_rot)), np.zeros(3))
    return SystemState(
        pose=SE23.from_components(np.asarray(rot0), np.asarray(vel0), np.asarray(pos0)),
        bias=np.zeros(9),
        cal=cal,
    )


def init_std_vector(values: dict, perturb_angle: float = 0.0) -> np.ndarray:
    """Physical initial standard deviations in the order expected by
    initial_covariance.  A calibration perturbation inflates the mount
    rotation uncertainty to at least the perturbation angle."""
    cal_rot_std = max(values["init.cal_rot_std"], perturb_angle)
    return np.concatenate([
        np.full(3, values["init.attitude_std"]),
        np.full(3, values["init.velocity_std"]),
        np.full(3, values["init.position_std"]),
        np.full(3, values["init.gyro_bias_std"]),
        np.full(3, values["init.accel_bias_std"]),
        np.full(3, values["init.virtual_bias_std"]),
        np.full(3, cal_rot_std),
        np.full(3, values["init.cal_pos_std"]),
    ])


def prepare_run(run_values: dict, imu_rate: float, rot0, vel0, pos0, cal_true,
                use_msc: bool | None = None):
    """Settings, initial state and initial covariance of one filter run:
    the given initial pose, zero biases, and the true extrinsics with the
    configured calibration perturbation applied.  Returns (settings, xi0,
    cov0); the CLI and the Monte-Carlo jobs both start a run here."""
    perturb = parse_perturbation(run_values["perturb.calibration"])
    settings = settings_from_values(run_values, imu_rate)
    if use_msc is not None:
        settings = settings._replace(use_msc=use_msc)
    xi0 = initial_state_from_truth(rot0, vel0, pos0, cal_true, perturb)
    cov0 = initial_covariance(xi0, init_std_vector(run_values,
                                                   float(np.linalg.norm(perturb))))
    return settings, xi0, cov0


def simulate_and_run(spec: TrajectorySpec, config: SimConfig, run_values: dict,
                     use_msc: bool | None = None):
    """In-memory simulate plus filter run; returns (sim, result, pair).

    The filter is initialized at the true initial pose with the configured
    calibration perturbation applied, and with noise settings taken from the
    run configuration.
    """
    sim = run_simulation(spec, config)
    settings, xi0, cov0 = prepare_run(run_values, config.imu_rate, sim.rotations[0],
                                      sim.velocities[0], sim.positions[0],
                                      config.extrinsics(), use_msc)
    result = run_filter(sim.times, sim.imu_gyro, sim.imu_accel, sim.scans,
                        xi0, cov0, settings,
                        cal_rot_truth=config.extrinsics()[0:3, 0:3])
    pair = AlignedPair(
        stamps=result.times,
        gt_rot=sim.rotations, gt_pos=sim.positions,
        est_rot=result.est_rot, est_pos=result.est_pos,
        covariances=result.pose_cov,
    )
    return sim, result, pair


def _openblas_calls(name: str) -> list:
    """The OpenBLAS entry point `name` (for example "set_num_threads") in
    every OpenBLAS library already loaded in this process, found through
    /proc/self/maps; empty where there is none or no such map (off Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "/" in line}
    except OSError:
        return []
    calls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}"
                       for prefix in ("", "scipy_") for suffix in ("", "64_")):
            if hasattr(lib, symbol):
                calls.append(getattr(lib, symbol))
    return calls


def _single_blas_thread():
    """Pool initializer: run this worker's BLAS on one thread, so that the
    workers do not each start a thread per core and oversubscribe them."""
    for set_num_threads in _openblas_calls("set_num_threads"):
        set_num_threads(1)


def _worker_pool(max_workers: int):
    """Process pool of single-BLAS-thread workers.  Only Monte-Carlo sweeps
    start one, so `concurrent.futures` is imported here and not with the
    module."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, initializer=_single_blas_thread)


def _montecarlo_job(args):
    sim_values, sim_seen, run_values, seed, perturb_label, use_msc = args
    spec, config = sim_setup_from_values(sim_values, sim_seen)
    config = config._replace(seed=seed)
    run_values = dict(run_values)
    run_values["perturb.calibration"] = perturb_label
    _, result, pair = simulate_and_run(spec, config, run_values, use_msc=use_msc)
    report = evaluate_run(pair, result.e_angle)
    out = report.as_dict()
    out["seed"] = seed
    out["perturbation"] = perturb_label
    return out


def montecarlo(sim_values: dict, run_values: dict, seeds, perturbations,
               use_msc: bool | None = None, max_workers: int | None = None,
               sim_seen=None):
    """Independent simulate/run/evaluate jobs over seeds x perturbations.
    Job failures are recorded and do not abort the sweep."""
    if max_workers is None:
        env = os.environ.get("EQF_RIO_THREADS")
        max_workers = int(env) if env else (os.cpu_count() or 1)
    sim_seen = set(sim_seen or ())
    jobs = [(dict(sim_values), sim_seen, dict(run_values), int(seed), label, use_msc)
            for label in perturbations for seed in seeds]
    results, failures = [], []
    if max_workers > 1 and len(jobs) > 1:
        with _worker_pool(max_workers) as pool:
            futures = [pool.submit(_montecarlo_job, j) for j in jobs]
            for job, fut in zip(jobs, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    failures.append({"seed": job[3], "perturbation": job[4],
                                     "error": str(exc)})
    else:
        for job in jobs:
            try:
                results.append(_montecarlo_job(job))
            except Exception as exc:
                failures.append({"seed": job[3], "perturbation": job[4],
                                 "error": str(exc)})
    table = []
    for label in perturbations:
        rows = [r for r in results if r["perturbation"] == label]
        if not rows:
            table.append({"perturbation": label, "runs": 0})
            continue

        def med(key):
            return float(np.median([r[key] for r in rows]))

        counts = {c: sum(1 for r in rows if r["convergence"] == c)
                  for c in ("converged", "partial", "fail")}
        table.append({
            "perturbation": label,
            "runs": len(rows),
            "translation_rmse_m": med("translation_rmse_m"),
            "rotation_rmse_deg": med("rotation_rmse_deg"),
            "position_drift_cm_per_m": med("position_drift_cm_per_m"),
            "yaw_drift_deg_per_m": med("yaw_drift_deg_per_m"),
            "anees": med("anees"),
            "anees_mean": float(np.mean([r["anees"] for r in rows])),
            "final_calibration_error_rad": med("final_calibration_error_rad"),
            **counts,
        })
    return {"rows": table, "runs": results, "failures": failures}
