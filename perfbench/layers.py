"""Fixed-input layer timings: one call of a public function of `lie`,
`measurements`, `filter` or `simulator` on inputs built from a seeded
`run_simulation`, timed as the median of several batches.

None of these need `eqfrio.pipeline`, so they give steady per-layer numbers
even when the run loop cannot be imported.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from eqfrio.filter import (
    clone_augment,
    clone_marginalize,
    initialize,
    process_noise,
    propagate,
    update_doppler,
    update_msc,
)
from eqfrio.lie import SE3, SE23, SO3, Gal3, sphere_jacobian
from eqfrio.measurements import (
    DopplerNoiseSpec,
    MatchObservation,
    doppler_rows,
    point_rows,
)
from eqfrio.simulator import SimConfig, TrajectorySpec, run_simulation, synthesize_radar_scan
from eqfrio.symmetry import SystemInput, SystemState, group_inverse, input_action

REPEATS = 7
MIN_BATCH_S = 0.004


def median_us(fn) -> float:
    """Median per-call time in microseconds over REPEATS batches, each long
    enough for the clock to resolve."""
    fn()
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= MIN_BATCH_S:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(REPEATS - 1):
        start = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - start) / n)
    return 1e6 * statistics.median(samples)


def _fixture(seed: int):
    """Beliefs with 0..10 clones, propagated along a seeded simulation, and
    the scan with the most detections (at least 60 for the Doppler sizes)."""
    config = SimConfig(imu_rate=50.0, radar_rate=10.0, gyro_noise=0.005,
                       accel_noise=0.05, range_noise=0.05,
                       bearing_noise=np.deg2rad(0.5), doppler_noise=0.05,
                       cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02),
                       landmark_count=400, seed=seed)
    sim = run_simulation(TrajectorySpec.excited(2.4), config)
    xi0 = SystemState(pose=SE23.from_components(sim.rotations[0], sim.velocities[0],
                                                sim.positions[0]),
                      bias=np.zeros(9), cal=config.extrinsics())
    rng = np.random.default_rng(seed)
    A = 0.01 * rng.standard_normal((24, 24))
    belief = initialize(xi0, A @ A.T + 1e-6 * np.eye(24))
    Q = process_noise(gyro=0.005, accel=0.05, gyro_walk=1e-4, accel_walk=1e-3)
    scans = {scan.stamp: scan for scan in sim.scans}
    beliefs, clone_points = [belief], []
    dt = 1.0 / config.imu_rate
    for k in range(1, len(sim.times)):
        u = SystemInput.from_imu(sim.imu_gyro[k - 1], sim.imu_accel[k - 1])
        belief = propagate(belief, u, dt, Q)
        scan = scans.get(sim.times[k])
        if scan is None:
            continue
        if belief.n_clones == 10:
            break
        tracked = {d.feature_id: d.point for d in scan.detections}
        belief = clone_augment(belief, scan.stamp, set(tracked), 10)
        beliefs.append(belief)
        clone_points.append(tracked)
    last = max((s for s in sim.scans if s.stamp > belief.stamps[-1]),
               key=lambda s: len(s.detections))
    return sim, config, Q, beliefs, clone_points, last


def layer_timings(seed: int):
    """Returns ({metric: (value, unit)}, [problems found by the checks])."""
    sim, config, Q, beliefs, clone_points, scan = _fixture(seed)
    rng = np.random.default_rng(seed + 1)
    metrics, problems = {}, []

    def put(name, fn):
        metrics[name] = (median_us(fn), "us")

    for group in (SO3, SE3, SE23, Gal3):
        u = 0.5 * rng.standard_normal(group.dim)
        X = group.exp(u)
        tag = f"lie.{group.__name__}"
        put(f"{tag}.exp.us", lambda: group.exp(u))
        put(f"{tag}.log.us", lambda: group.log(X))
        put(f"{tag}.adjoint.us", lambda: group.adjoint(X))
        put(f"{tag}.left_jacobian.us", lambda: group.left_jacobian(u))
        if np.max(np.abs(group.log(group.exp(u)) - u)) > 1e-9:
            problems.append(f"{tag}: log(exp(u)) != u")
    point = scan.detections[0].point
    put("lie.sphere_jacobian.us", lambda: sphere_jacobian(point))

    b10 = beliefs[10]
    gyro = sim.imu_gyro[-1]
    origin_gyro = input_action(group_inverse(b10.sym),
                               SystemInput.from_imu(gyro, np.zeros(3))).gyro
    put("measurements.doppler_rows.us", lambda: doppler_rows(b10.sym, origin_gyro, point))
    then = next(iter(clone_points[0].values()))
    put("measurements.point_rows.us", lambda: point_rows(b10.sym, 0, then))

    u_imu = SystemInput.from_imu(sim.imu_gyro[-1], sim.imu_accel[-1])
    for k in (0, 5, 10):
        put(f"filter.propagate.k{k}.us",
            lambda b=beliefs[k]: propagate(b, u_imu, 0.02, Q))
        cov = propagate(beliefs[k], u_imu, 0.02, Q).cov
        if not np.array_equal(cov, cov.T) or np.linalg.eigvalsh(cov)[0] < -1e-12:
            problems.append(f"propagate k={k}: covariance not symmetric PSD")

    noise = DopplerNoiseSpec(sigma_gyro=0.005 * np.sqrt(50.0), sigma_range=0.05,
                             sigma_bearing=np.deg2rad(0.5), sigma_doppler=0.05)
    if len(scan.detections) < 60:
        problems.append(f"fixture scan has {len(scan.detections)} < 60 detections")
    for n in (5, 20, 60):
        dets = scan.detections[:n]
        put(f"filter.update_doppler.n{n}.us",
            lambda d=dets: update_doppler(beliefs[0], d, gyro, noise))
    after = update_doppler(beliefs[0], scan.detections[:60], gyro, noise)
    if not np.trace(after.cov) < np.trace(beliefs[0].cov):
        problems.append("update_doppler did not reduce the covariance trace")

    matches, matched = [], set()
    current = {d.feature_id: d.point for d in scan.detections}
    for ci, points in enumerate(clone_points):
        for fid in sorted(set(points) & set(current) - matched):
            matches.append(MatchObservation(fid, ci, current[fid], points[fid]))
            matched.add(fid)
    put("filter.update_msc.k10.us", lambda: update_msc(b10, matches, noise, None))

    b9 = beliefs[9]
    put("filter.clone_augment.us",
        lambda: clone_augment(b9, scan.stamp, set(current), 10))
    put("filter.clone_marginalize.us", lambda: clone_marginalize(b10, 0))
    restored = clone_marginalize(clone_augment(b9, scan.stamp, set(current), 10), 9)
    if not np.array_equal(restored.cov, b9.cov):
        problems.append("clone augment then marginalize does not restore the covariance")

    truth = SystemState(pose=SE23.from_components(sim.rotations[-1], sim.velocities[-1],
                                                  sim.positions[-1]),
                        bias=np.zeros(9), cal=config.extrinsics())
    scan_rng = np.random.default_rng(seed + 2)
    put("simulator.radar_scan.us",
        lambda: synthesize_radar_scan(truth, gyro, sim.landmarks, config, 0,
                                      sim.times[-1], scan_rng))
    return metrics, problems
