"""Synthetic data generation: closed-form kinematics against finite
differences, measurement consistency, determinism."""

import numpy as np
import pytest

from eqfrio.filter import initialize, propagate
from eqfrio.lie import SE3, SO3, skew, sphere_basis
from eqfrio.measurements import doppler_model
from eqfrio.simulator import (
    SimConfig,
    TrajectorySampler,
    TrajectorySpec,
    run_simulation,
    synthesize_imu,
    synthesize_radar_scan,
)
from eqfrio.symmetry import (
    SystemInput,
    SystemState,
    discrete_dynamics,
    error_coordinates,
    identity_state,
)


def test_hover_is_static():
    sampler = TrajectorySampler(TrajectorySpec.hover(5.0))
    for t in [0.0, 1.7, 4.2]:
        assert np.allclose(sampler.velocity(t), 0.0)
        assert np.allclose(sampler.body_rates(t), 0.0)
        assert np.allclose(sampler.attitude(t), np.eye(3))


def test_velocity_matches_position_derivative():
    sampler = TrajectorySampler(TrajectorySpec.excited(10.0))
    h = 1e-5
    for t in np.linspace(0.5, 9.5, 7):
        fd = (sampler.position(t + h) - sampler.position(t - h)) / (2 * h)
        assert np.allclose(sampler.velocity(t), fd, rtol=1e-6, atol=1e-9)
        fd_a = (sampler.velocity(t + h) - sampler.velocity(t - h)) / (2 * h)
        assert np.allclose(sampler.accel_world(t), fd_a, rtol=1e-6, atol=1e-8)


def test_body_rates_match_attitude_derivative():
    sampler = TrajectorySampler(TrajectorySpec.excited(10.0))
    h = 1e-6
    for t in np.linspace(0.5, 9.5, 7):
        R = sampler.attitude(t)
        dR = (sampler.attitude(t + h) - sampler.attitude(t - h)) / (2 * h)
        omega_fd = SO3.vee(0.5 * (R.T @ dR - (R.T @ dR).T))
        assert np.allclose(sampler.body_rates(t), omega_fd, rtol=1e-5, atol=1e-7)


def test_excited_preset_exercises_all_axes():
    sampler = TrajectorySampler(TrajectorySpec.excited(30.0))
    ts = np.linspace(0.0, 30.0, 600)
    angles = np.array([sampler._angles(t)[0:3] for t in ts])
    excursions = angles.max(axis=0) - angles.min(axis=0)
    assert np.all(excursions > 0.3)


def test_imu_hover_measures_gravity_reaction():
    sampler = TrajectorySampler(TrajectorySpec.hover(2.0))
    gyro, accel = synthesize_imu(sampler, 1.0)
    assert np.allclose(gyro, 0.0)
    assert np.allclose(accel, [0.0, 0.0, 9.81])


def test_imu_closed_loop_defect_is_second_order():
    # zero-order-hold propagation of the sampled analytic motion has a
    # one-step defect that shrinks ~4x when the step halves
    sampler = TrajectorySampler(TrajectorySpec.excited(10.0))
    t0 = 2.3

    def one_step_defect(dt):
        xi = SystemState(pose=sampler.state(t0), bias=np.zeros(9), cal=np.eye(4))
        gyro, accel = synthesize_imu(sampler, t0)
        out = discrete_dynamics(xi, SystemInput.from_imu(gyro, accel), dt)
        return np.linalg.norm(out.velocity() - sampler.velocity(t0 + dt)) + \
            np.linalg.norm(out.position() - sampler.position(t0 + dt))

    d1, d2 = one_step_defect(0.02), one_step_defect(0.01)
    assert d2 < d1 / 3.0


def test_bias_random_walk_variance_grows_linearly():
    spec = TrajectorySpec.hover(4.0)
    terminal = []
    for seed in range(100):
        config = SimConfig(imu_rate=50.0, radar_rate=1.0, gyro_walk=1e-3,
                           landmark_count=0, seed=seed)
        sim = run_simulation(spec, config)
        n = len(sim.times)
        terminal.append([sim.gyro_bias[n // 2, 0], sim.gyro_bias[-1, 0]])
    terminal = np.array(terminal)
    var_half, var_full = terminal.var(axis=0)
    expected_half = 1e-3**2 * 2.0
    assert 0.5 * expected_half < var_half < 2.0 * expected_half
    assert 1.4 < var_full / var_half < 2.9  # doubles with time


def test_radar_scan_noise_free_doppler_consistency():
    spec = TrajectorySpec.excited(5.0)
    config = SimConfig(imu_rate=100.0, radar_rate=5.0, cal_rot=(0.2, -0.1, 0.3),
                       cal_pos=(0.1, 0.0, -0.05), gyro_bias_std=0.01, seed=3)
    sim = run_simulation(spec, config)
    assert len(sim.scans) > 10
    count = 0
    for scan in sim.scans[:10]:
        k = int(round(scan.stamp * config.imu_rate))
        from eqfrio.lie import SE23

        state = SystemState(
            pose=SE23.from_components(sim.rotations[k], sim.velocities[k],
                                      sim.positions[k]),
            bias=np.concatenate([sim.gyro_bias[k], sim.accel_bias[k], np.zeros(3)]),
            cal=config.extrinsics(),
        )
        for det in scan.detections:
            predicted = doppler_model(state, det.point, sim.imu_gyro[k])
            assert abs(det.doppler - predicted) < 1e-12
            count += 1
    assert count > 50


def test_radar_scan_hover_zero_doppler():
    state = identity_state()
    landmarks = np.array([[5.0, 0.0, 0.0], [3.0, 1.0, 0.5]])
    scan = synthesize_radar_scan(state, np.zeros(3), landmarks,
                                 SimConfig(), scan_id=0, stamp=0.0)
    assert len(scan.detections) == 2
    for det in scan.detections:
        assert det.doppler == 0.0


def test_radar_fov_excludes_behind():
    state = identity_state()
    landmarks = np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
    scan = synthesize_radar_scan(state, np.zeros(3), landmarks,
                                 SimConfig(), scan_id=0, stamp=0.0)
    assert [d.feature_id for d in scan.detections] == [0]


def test_id_mismatch_swaps_ids():
    state = identity_state()
    landmarks = np.array([[5.0, 0.0, 0.0], [4.0, 2.0, 0.0], [6.0, -1.0, 1.0]])
    config = SimConfig(id_mismatch_rate=1.0, range_noise=1e-12)
    scan = synthesize_radar_scan(state, np.zeros(3), landmarks, config,
                                 scan_id=0, stamp=0.0,
                                 rng=np.random.default_rng(5))
    ids = [d.feature_id for d in scan.detections]
    assert sorted(ids) == [0, 1, 2]
    assert ids != [0, 1, 2]  # at least one swap happened


def test_radar_scan_noise_draw_order():
    """The scan's one (n, 4) normal draw consumes the stream as scalar draws
    of range, bearing, bearing and Doppler noise per detection would, with
    the bearing turned by exp(N eta) of its tangent basis N."""
    config = SimConfig(range_noise=0.05, bearing_noise=0.01, doppler_noise=0.05,
                       cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02),
                       id_mismatch_rate=1.0)
    state = SystemState(pose=TrajectorySampler(TrajectorySpec.excited()).state(1.3),
                        bias=np.zeros(9), cal=config.extrinsics())
    gyro = np.array([0.1, -0.2, 0.05])
    landmarks = np.random.default_rng(8).uniform(-12.0, 12.0, size=(60, 3))
    drawn = np.random.default_rng(9)
    scan = synthesize_radar_scan(state, gyro, landmarks, config, 0, 0.0, rng=drawn)

    rng = np.random.default_rng(9)
    R, p = SE3.components(state.radar_pose())
    expected = []
    for fid, world in enumerate(landmarks):
        point = R.T @ (world - p)
        kappa = np.linalg.norm(point)
        if not (1e-3 <= kappa <= config.fov_max_range
                and point[0] >= kappa * np.cos(config.fov_half_angle)):
            continue
        doppler = doppler_model(state, point, gyro)
        d_range = config.range_noise * rng.standard_normal()
        d_bearing = np.array([config.bearing_noise * rng.standard_normal(),
                              config.bearing_noise * rng.standard_normal()])
        rho = point / kappa
        point = (kappa + d_range) * SO3.exp(sphere_basis(rho) @ d_bearing) @ rho
        doppler += config.doppler_noise * rng.standard_normal()
        expected.append([fid, point, doppler])
    assert len(expected) >= 5
    assert rng.random() < config.id_mismatch_rate
    i, j = rng.choice(len(expected), size=2, replace=False)
    expected[i][0], expected[j][0] = expected[j][0], expected[i][0]

    assert [d.feature_id for d in scan.detections] == [e[0] for e in expected]
    for det, (_, point, doppler) in zip(scan.detections, expected):
        assert np.abs(det.point - point).max() <= 1e-12
        assert abs(det.doppler - doppler) <= 1e-12
    assert drawn.random() == rng.random()


def test_simulation_deterministic_per_seed():
    spec = TrajectorySpec.excited(2.0)
    config = SimConfig(imu_rate=50.0, radar_rate=5.0, gyro_noise=0.01,
                       accel_noise=0.1, range_noise=0.05, bearing_noise=0.01,
                       doppler_noise=0.05, seed=11)
    a = run_simulation(spec, config)
    b = run_simulation(spec, config)
    assert np.array_equal(a.imu_gyro, b.imu_gyro)
    assert np.array_equal(a.positions, b.positions)
    for sa, sb in zip(a.scans, b.scans):
        assert np.array_equal(
            np.array([d.point for d in sa.detections]),
            np.array([d.point for d in sb.detections]),
        )


def test_record_counts_match_rates():
    spec = TrajectorySpec.hover(10.0)
    config = SimConfig(imu_rate=200.0, radar_rate=10.0, landmark_count=0)
    sim = run_simulation(spec, config)
    assert abs(len(sim.times) - 2000) <= 1
    assert abs(len(sim.scans) - 100) <= 1


def test_noise_free_closed_loop_tracks_ground_truth():
    # the whole pipeline property: zero noise, exact start, zero covariance;
    # the filter must reproduce the recorded ground truth
    spec = TrajectorySpec.excited(5.0)
    config = SimConfig(imu_rate=200.0, radar_rate=10.0,
                       cal_rot=(0.15, -0.2, 0.4), cal_pos=(0.1, 0.02, -0.03),
                       seed=4)
    sim = run_simulation(spec, config)
    from eqfrio.lie import SE23

    xi = SystemState(
        pose=SE23.from_components(sim.rotations[0], sim.velocities[0],
                                  sim.positions[0]),
        bias=np.zeros(9), cal=config.extrinsics())
    belief = initialize(xi, np.zeros((24, 24)))
    Q = np.zeros((25, 25))
    for k in range(len(sim.times) - 1):
        u = SystemInput.from_imu(sim.imu_gyro[k], sim.imu_accel[k])
        belief = propagate(belief, u, sim.times[k + 1] - sim.times[k], Q)
    err_pos = np.linalg.norm(belief.sym.nav[0:3, 4] - sim.positions[-1])
    err_rot = np.linalg.norm(
        SO3.log(sim.rotations[-1].T @ belief.sym.nav[0:3, 0:3]))
    assert err_pos < 1e-6
    assert err_rot < 1e-6


def test_config_validation():
    with pytest.raises(ValueError, match="rates"):
        SimConfig(imu_rate=0.0)
    with pytest.raises(ValueError, match="imu rate"):
        SimConfig(imu_rate=5.0, radar_rate=10.0)
    with pytest.raises(ValueError, match="duration"):
        TrajectorySpec(duration=0.0)


def test_line_preset_low_excitation_is_handled():
    # single-axis motion gives weak observability; the run must stay finite
    # and the classifier must not report full convergence spuriously
    from eqfrio.pipeline import RUN_SCHEMA, simulate_and_run

    values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    values.update({
        "noise.gyro_density": 0.005, "noise.accel_density": 0.05,
        "noise.gyro_walk": 1e-4, "noise.accel_walk": 1e-3,
        "init.gyro_bias_std": 0.003, "init.accel_bias_std": 0.03,
        "radar.sigma_range": 0.05, "radar.sigma_bearing": np.deg2rad(0.5),
        "radar.sigma_doppler": 0.05, "perturb.calibration": "z:60deg",
    })
    spec = TrajectorySpec.line(20.0)
    config = SimConfig(
        imu_rate=50.0, radar_rate=5.0,
        gyro_noise=0.005, accel_noise=0.05, gyro_walk=1e-4, accel_walk=1e-3,
        gyro_bias_std=0.003, accel_bias_std=0.03,
        range_noise=0.05, bearing_noise=np.deg2rad(0.5), doppler_noise=0.05,
        cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02), seed=12,
    )
    sim, result, pair = simulate_and_run(spec, config, values)
    assert np.all(np.isfinite(result.est_pos))
    assert np.all(np.isfinite(result.e_angle))
    from eqfrio.evaluation import classify_convergence

    assert classify_convergence(result.e_angle) in ("converged", "partial", "fail")
