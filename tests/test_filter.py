"""Filter engine: analytic propagation matrices against finite differences,
update algebra against a dense linear-algebra oracle, clone lifecycle, and
the symmetry sanity of the whole pipeline."""

import numpy as np
import pytest
from scipy.linalg import inv as dense_inv

from eqfrio.filter import (
    FilterBelief,
    clone_augment,
    clone_marginalize,
    estimated_state,
    initialize,
    process_noise,
    propagate,
    propagation_matrices,
    update_doppler,
    update_msc,
)
from eqfrio.lie import SE3, SE23, SO3
from eqfrio.measurements import (
    DopplerNoiseSpec,
    MatchObservation,
    RadarDetection,
    doppler_model,
    doppler_rows,
    point_constraint_model,
)
from eqfrio.pipeline import initial_covariance
from eqfrio.symmetry import (
    SymmetryElement,
    SystemInput,
    SystemState,
    discrete_dynamics,
    error_coordinates,
    error_inverse,
    group_compose,
    group_identity,
    group_inverse,
    identity_state,
    input_action,
    lifted_step,
    state_action,
)
from helpers import assert_close, central_difference, random_element
from test_symmetry import random_group, random_input, random_state


def random_cov(rng, n, scale=0.1):
    M = rng.standard_normal((n, n)) * scale
    return M @ M.T + 1e-6 * np.eye(n)


def random_belief(rng, k=0, scale=0.1):
    stamps = tuple(float(i) for i in range(k))
    return FilterBelief(
        sym=random_group(rng, k),
        cov=random_cov(rng, 24 + 6 * k, scale),
        stamps=stamps,
        features=tuple(frozenset() for _ in range(k)),
    )


# --- initialization -------------------------------------------------------------

def test_initialize_identity_state():
    belief = initialize(identity_state(), np.eye(24) * 0.01)
    assert np.allclose(belief.sym.nav, np.eye(5))
    assert np.allclose(belief.sym.bias_shift, 0.0)
    assert np.allclose(belief.sym.cal, np.eye(4))


def test_initialize_roundtrip():
    rng = np.random.default_rng(80)
    xi = random_state(rng, 2)
    belief = initialize(xi, random_cov(rng, 36))
    est = estimated_state(belief)
    assert np.allclose(est.pose, xi.pose, atol=1e-10)
    assert np.allclose(est.bias, xi.bias, atol=1e-10)
    assert np.allclose(est.cal, xi.cal, atol=1e-10)
    for Pa, Pb in zip(est.clones, xi.clones):
        assert np.allclose(Pa, Pb, atol=1e-10)


def test_initialize_preserves_covariance_bits():
    rng = np.random.default_rng(81)
    cov = random_cov(rng, 24)
    cov = 0.5 * (cov + cov.T)
    belief = initialize(identity_state(), cov)
    assert np.array_equal(belief.cov, cov)


def test_initialize_rejects_non_psd():
    cov = -np.eye(24)
    with pytest.raises(ValueError, match="semidefinite"):
        initialize(identity_state(), cov)


# --- propagation matrices ---------------------------------------------------------

def test_matrices_zero_step_limit():
    rng = np.random.default_rng(82)
    X = random_group(rng)
    u0 = random_input(rng)
    A, B = propagation_matrices(u0, X, 1e-14)
    assert np.allclose(A, np.eye(24), atol=1e-10)
    assert np.allclose(B, 0.0, atol=1e-10)


def _error_step_map(X_hat, u, dt, origin):
    X_next = lifted_step(X_hat, origin, u, dt)

    def step(eps):
        xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
        xi_next = discrete_dynamics(xi, u, dt)
        return error_coordinates(X_next, xi_next, origin)

    return step


@pytest.mark.parametrize("k", [0, 1, 3])
def test_state_matrix_finite_difference(k):
    rng = np.random.default_rng(83)
    origin = identity_state(k)
    dt = 0.01
    for _ in range(40 if k == 0 else 20):
        X_hat = random_group(rng, k)
        u = random_input(rng)
        u0 = input_action(group_inverse(X_hat), u)
        A, _ = propagation_matrices(u0, X_hat, dt)
        fd = central_difference(_error_step_map(X_hat, u, dt, origin),
                                np.zeros(24 + 6 * k), step=1e-6)
        assert_close(A, fd, 1e-4, "state transition matrix")


@pytest.mark.parametrize("k", [0, 1])
def test_input_matrix_finite_difference(k):
    rng = np.random.default_rng(84)
    origin = identity_state(k)
    dt = 0.01
    for _ in range(40 if k == 0 else 20):
        X_hat = random_group(rng, k)
        u = random_input(rng)
        u0 = input_action(group_inverse(X_hat), u)
        _, B = propagation_matrices(u0, X_hat, dt)
        xi = state_action(X_hat, origin)
        xi_next = discrete_dynamics(xi, u, dt)

        def noisy_error(eta):
            # eta perturbs the 24 stochastic input slots; the unit slot is
            # deterministic and carries no noise by construction
            nav = u.nav.copy()
            nav[0:9] += eta[0:9]
            u_noisy = SystemInput(nav=nav, tau=u.tau + eta[9:18],
                                  mu=u.mu + eta[18:24])
            X_next = lifted_step(X_hat, origin, u_noisy, dt)
            return error_coordinates(X_next, xi_next, origin)

        fd = central_difference(noisy_error, np.zeros(24), step=1e-6)
        cols = list(range(9)) + list(range(10, 25))
        assert_close(B[:, cols], fd, 1e-4, "input noise matrix")


def test_clone_blocks_identity_and_zero():
    rng = np.random.default_rng(85)
    X = random_group(rng, 2)
    u0 = random_input(rng)
    A, B = propagation_matrices(u0, X, 0.02)
    assert np.allclose(A[24:, 24:], np.eye(12))
    assert np.allclose(A[24:, 0:24], 0.0)
    assert np.allclose(A[0:24, 24:], 0.0)
    assert np.allclose(B[24:, :], 0.0)


# --- propagation ---------------------------------------------------------------------

def test_propagate_noise_free_tracking():
    rng = np.random.default_rng(86)
    xi = random_state(rng)
    belief = initialize(xi, np.zeros((24, 24)))
    Q = np.zeros((25, 25))
    dt = 0.01
    for i in range(1000):
        u = SystemInput.from_imu(
            0.5 * np.sin([0.01 * i, 0.02 * i, 0.03 * i]),
            np.array([0.1 * np.cos(0.01 * i), 0.2, 9.81]),
        )
        xi = discrete_dynamics(xi, u, dt)
        belief = propagate(belief, u, dt, Q)
    eps = error_coordinates(belief.sym, xi, identity_state())
    assert np.linalg.norm(eps) < 1e-8


def test_propagate_noise_increases_trace():
    rng = np.random.default_rng(87)
    Q = process_noise(gyro=0.01, accel=0.1, gyro_walk=1e-4, accel_walk=1e-3)
    for _ in range(20):
        belief = random_belief(rng)
        u = random_input(rng)
        with_noise = propagate(belief, u, 0.01, Q)
        without = propagate(belief, u, 0.01, np.zeros((25, 25)))
        assert np.trace(with_noise.cov) > np.trace(without.cov)


def test_propagate_k0_core_matches_k1():
    rng = np.random.default_rng(88)
    belief0 = random_belief(rng, 0)
    belief1 = clone_augment(belief0, 0.0, {1, 2})
    Q = process_noise(gyro=0.01, accel=0.1)
    u = random_input(rng)
    out0 = propagate(belief0, u, 0.01, Q)
    out1 = propagate(belief1, u, 0.01, Q)
    assert np.allclose(out0.cov, out1.cov[0:24, 0:24], atol=1e-12)
    assert np.allclose(out0.sym.nav, out1.sym.nav, atol=1e-12)


def test_propagate_rejects_bad_timestep():
    rng = np.random.default_rng(89)
    belief = random_belief(rng)
    u = random_input(rng)
    with pytest.raises(ValueError, match="bad timestep"):
        propagate(belief, u, 0.0, np.zeros((25, 25)))
    with pytest.raises(ValueError, match="bad timestep"):
        propagate(belief, u, 0.5, np.zeros((25, 25)))


def test_propagate_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(90)
    belief = random_belief(rng, 1)
    Q = process_noise(gyro=0.01, accel=0.1, gyro_walk=1e-4)
    for _ in range(50):
        belief = propagate(belief, random_input(rng), 0.01, Q)
    assert np.allclose(belief.cov, belief.cov.T)
    assert np.min(np.linalg.eigvalsh(belief.cov)) > -1e-9


# --- doppler update -------------------------------------------------------------------

def _exact_scan(belief, gyro, points):
    xi = estimated_state(belief)
    return [
        RadarDetection(i, np.asarray(p, dtype=float),
                       doppler_model(xi, p, gyro))
        for i, p in enumerate(points)
    ]


def test_update_doppler_zero_residual_leaves_mean():
    rng = np.random.default_rng(91)
    belief = random_belief(rng)
    gyro = rng.standard_normal(3)
    scan = _exact_scan(belief, gyro, [rng.standard_normal(3) + 2.0 for _ in range(5)])
    out = update_doppler(belief, scan, gyro, DopplerNoiseSpec(0.01, 0.05, 0.01, 0.05))
    assert np.allclose(out.sym.nav, belief.sym.nav, atol=1e-12)
    assert np.allclose(out.sym.cal, belief.sym.cal, atol=1e-12)
    assert not np.allclose(out.cov, belief.cov)  # covariance still contracts


def test_update_doppler_matches_dense_oracle():
    rng = np.random.default_rng(92)
    belief = random_belief(rng)
    gyro = rng.standard_normal(3)
    point = np.array([2.0, 1.0, -0.5])
    xi = estimated_state(belief)
    meas = doppler_model(xi, point, gyro) + 0.03
    spec = DopplerNoiseSpec(0.01, 0.05, 0.01, 0.05)

    out = update_doppler(belief, [RadarDetection(0, point, meas)], gyro, spec)

    u0 = input_action(group_inverse(belief.sym),
                      SystemInput.from_imu(gyro, np.zeros(3)))
    C, D = (row[None, :] for row in doppler_rows(belief.sym, u0.gyro, point))
    S = C @ belief.cov @ C.T + D @ spec.cov() @ D.T
    K = belief.cov @ C.T @ dense_inv(S)
    r = np.array([meas - doppler_model(xi, point, gyro)])
    expected_mean = group_compose(error_inverse(K @ r), belief.sym)
    expected_cov = (np.eye(24) - K @ C) @ belief.cov

    assert np.allclose(out.sym.nav, expected_mean.nav, atol=1e-10)
    assert np.allclose(out.sym.bias_shift, expected_mean.bias_shift, atol=1e-10)
    assert np.allclose(out.sym.cal, expected_mean.cal, atol=1e-10)
    assert np.allclose(out.cov, 0.5 * (expected_cov + expected_cov.T), atol=1e-10)


def test_update_doppler_singular_innovation_skipped():
    belief = initialize(identity_state(), np.zeros((24, 24)))
    det = RadarDetection(0, np.array([2.0, 0.0, 0.0]), 0.0)
    out = update_doppler(belief, [det], np.zeros(3), DopplerNoiseSpec())
    assert np.array_equal(out.cov, belief.cov)
    assert np.allclose(out.sym.nav, belief.sym.nav)


def test_update_doppler_gate_drops_outlier():
    rng = np.random.default_rng(93)
    belief = random_belief(rng, scale=0.01)
    gyro = rng.standard_normal(3)
    points = [rng.standard_normal(3) + 2.0 for _ in range(4)]
    scan = _exact_scan(belief, gyro, points)
    # corrupt one detection far beyond the gate
    bad = RadarDetection(99, scan[0].point, scan[0].doppler + 50.0)
    spec = DopplerNoiseSpec(0.01, 0.05, 0.01, 0.05)
    gated = update_doppler(belief, [bad] + scan[1:], gyro, spec, gate=6.63)
    clean = update_doppler(belief, scan[1:], gyro, spec, gate=None)
    assert np.allclose(gated.cov, clean.cov, atol=1e-12)


def test_update_doppler_empty_scan_rejected():
    rng = np.random.default_rng(94)
    with pytest.raises(ValueError, match="empty"):
        update_doppler(random_belief(rng), [], np.zeros(3), DopplerNoiseSpec())


# --- clone lifecycle ------------------------------------------------------------------

def test_augment_then_marginalize_restores_exactly():
    rng = np.random.default_rng(95)
    belief = random_belief(rng, 1)
    out = clone_marginalize(clone_augment(belief, 5.0, {3, 4}), 1)
    assert np.array_equal(out.cov, belief.cov)
    assert out.stamps == belief.stamps
    assert all(np.array_equal(a, b) for a, b in zip(out.sym.clones, belief.sym.clones))


def test_augment_clone_is_current_radar_pose():
    rng = np.random.default_rng(96)
    belief = random_belief(rng)
    out = clone_augment(belief, 1.0, set())
    est = estimated_state(out)
    assert np.allclose(est.clones[0], est.radar_pose(), atol=1e-12)


def test_augment_zero_covariance_gives_zero_clone_block():
    belief = initialize(identity_state(), np.zeros((24, 24)))
    out = clone_augment(belief, 1.0, set())
    assert np.allclose(out.cov, 0.0, atol=1e-15)


def test_augment_marginal_matches_linearized_radar_pose_cov():
    rng = np.random.default_rng(97)
    belief = random_belief(rng, scale=0.05)
    out = clone_augment(belief, 1.0, set())
    # in these error coordinates the new clone error equals the extrinsic
    # error exactly, so the clone's blocks are copies of the extrinsic ones
    assert np.array_equal(out.cov[24:30, 24:30], belief.cov[18:24, 18:24])
    assert np.array_equal(out.cov[24:30, 0:24], belief.cov[18:24, :])


def test_initial_covariance_matches_chart_finite_difference():
    # reference: central differences of the chart's error coordinates under
    # the physical perturbations that initial_covariance transports
    rng = np.random.default_rng(102)
    origin = identity_state()
    for _ in range(10):
        xi = SystemState(pose=random_element(rng, SE23, rot_scale=2.5, lin_scale=3.0),
                         bias=rng.standard_normal(9),
                         cal=random_element(rng, SE3, rot_scale=2.5))
        X_hat = initialize(xi, np.zeros((24, 24))).sym

        def chart(phys, xi=xi, X_hat=X_hat):
            pose = SE23.from_components(xi.attitude() @ SO3.exp(phys[0:3]),
                                        xi.velocity() + phys[3:6],
                                        xi.position() + phys[6:9])
            perturbed = SystemState(pose=pose, bias=xi.bias + phys[9:18],
                                    cal=xi.cal @ SE3.exp(phys[18:24]))
            return error_coordinates(X_hat, perturbed, origin)

        G = central_difference(chart, np.zeros(24))
        std = rng.uniform(0.01, 1.0, 24)
        assert_close(initial_covariance(xi, std), G @ np.diag(std**2) @ G.T, 1e-8,
                     "initial covariance")


def test_augment_window_full():
    rng = np.random.default_rng(98)
    belief = random_belief(rng, 2)
    with pytest.raises(ValueError, match="window full"):
        clone_augment(belief, 10.0, set(), k_max=2)


def test_marginalize_preserves_remaining_order():
    rng = np.random.default_rng(99)
    belief = random_belief(rng, 3)
    out = clone_marginalize(belief, 1)
    assert out.n_clones == 2
    assert np.array_equal(out.sym.clones[0], belief.sym.clones[0])
    assert np.array_equal(out.sym.clones[1], belief.sym.clones[2])
    assert np.array_equal(out.cov[0:24, 0:24], belief.cov[0:24, 0:24])


def test_marginalize_keeps_psd():
    rng = np.random.default_rng(100)
    belief = random_belief(rng, 3)
    out = clone_marginalize(belief, 0)
    assert np.min(np.linalg.eigvalsh(out.cov)) > -1e-9


def test_marginalize_invalid_index():
    rng = np.random.default_rng(101)
    with pytest.raises(ValueError, match="invalid"):
        clone_marginalize(random_belief(rng, 1), 1)


# --- point-constraint update ------------------------------------------------------------

def test_update_msc_zero_residual_at_truth():
    rng = np.random.default_rng(102)
    belief = random_belief(rng, scale=0.02)
    belief = clone_augment(belief, 1.0, {7})
    est = estimated_state(belief)
    p_then = np.array([2.0, -1.0, 0.4])
    # noise-free re-observation: transform the clone point into the current
    # radar frame (clone equals the current radar pose here, so unchanged)
    p_now = SE3.apply(SE3.inverse(est.radar_pose()),
                      SE3.apply(est.clones[0], p_then))
    assert np.isclose(point_constraint_model(est, 0, p_then), np.linalg.norm(p_now))
    match = MatchObservation(7, 0, p_now, p_then)
    out = update_msc(belief, [match], DopplerNoiseSpec(0.0, 0.05, 0.01, 0.0))
    assert np.allclose(out.sym.nav, belief.sym.nav, atol=1e-9)
    assert np.allclose(out.sym.cal, belief.sym.cal, atol=1e-9)


def test_update_msc_invalid_clone():
    rng = np.random.default_rng(103)
    belief = random_belief(rng, 1)
    match = MatchObservation(0, 5, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="invalid clone"):
        update_msc(belief, [match], DopplerNoiseSpec())


def test_update_msc_core_unchanged_without_matches():
    rng = np.random.default_rng(104)
    belief = random_belief(rng, 1)
    with pytest.raises(ValueError, match="no matches"):
        update_msc(belief, [], DopplerNoiseSpec())


# --- pipeline symmetry sanity ------------------------------------------------------------

def test_residual_sequence_equivariance():
    """Transforming the initial state by a group element and the inputs by
    the input action must leave the whole residual sequence unchanged.

    The element is restricted to the subgroup (rotation-only nav transport,
    gyro and accel bias shifts) for which the transformed inputs are again
    valid IMU records and the radar stream is unaffected.
    """
    rng = np.random.default_rng(105)

    X = SymmetryElement(
        nav=SE23.from_components(SO3.exp(np.array([0.4, -0.2, 0.7])),
                                 np.zeros(3), np.zeros(3)),
        bias_shift=np.concatenate([0.05 * rng.standard_normal(3),
                                   0.2 * rng.standard_normal(3),
                                   np.zeros(3)]),
        cal=np.eye(4),
    )

    xi_true = random_state(rng)
    # initialize off-truth so residuals are informative
    xi_init = SystemState(
        pose=xi_true.pose,
        bias=xi_true.bias + 0.02 * rng.standard_normal(9),
        cal=xi_true.cal @ SE3.exp(0.3 * rng.standard_normal(6)),
    )
    cov0 = np.eye(24) * 0.1
    Q = process_noise(gyro=0.005, accel=0.05, gyro_walk=1e-4, accel_walk=1e-3)
    spec = DopplerNoiseSpec(0.005, 0.05, 0.01, 0.05)
    points = [rng.standard_normal(3) * 3.0 + np.array([4.0, 0, 0]) for _ in range(6)]

    def run(belief, transform):
        # one shared truth and measurement stream: the radar data is
        # invariant under this subgroup, only the IMU records transform
        residual_log = []
        xi = xi_true
        for step in range(40):
            u = SystemInput.from_imu(0.3 * np.sin([0.1 * step, 0.2 * step, 0.05 * step]),
                                     np.array([0.3, -0.2, 9.7]))
            xi = discrete_dynamics(xi, u, 0.01)
            u_f = input_action(transform, u) if transform is not None else u
            belief = propagate(belief, u_f, 0.01, Q)
            if step % 10 == 9:
                scan = [RadarDetection(i, p, doppler_model(xi, p, u.gyro))
                        for i, p in enumerate(points)]
                est = estimated_state(belief)
                for det in scan:
                    residual_log.append(det.doppler -
                                        doppler_model(est, det.point, u_f.gyro))
                belief = update_doppler(belief, scan, u_f.gyro, spec)
        return np.array(residual_log)

    base = run(initialize(xi_init, cov0), None)
    moved = run(initialize(state_action(X, xi_init), cov0), X)
    assert np.allclose(base, moved, atol=1e-8)


# --- statistical cross-module checks -------------------------------------------

def _mc_run_values(doppler_sigma=0.05):
    from eqfrio.pipeline import RUN_SCHEMA

    values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    values.update({
        "noise.gyro_density": 0.005, "noise.accel_density": 0.05,
        "noise.gyro_walk": 1e-4, "noise.accel_walk": 1e-3,
        "init.gyro_bias_std": 0.003, "init.accel_bias_std": 0.03,
        "radar.sigma_range": 0.05, "radar.sigma_bearing": np.deg2rad(0.5),
        "radar.sigma_doppler": doppler_sigma,
    })
    return values


def _mc_sim_config(seed, imu_rate=50.0, doppler_sigma=0.05):
    from eqfrio.simulator import SimConfig

    return SimConfig(
        imu_rate=imu_rate, radar_rate=5.0,
        gyro_noise=0.005, accel_noise=0.05, gyro_walk=1e-4, accel_walk=1e-3,
        gyro_bias_std=0.003, accel_bias_std=0.03,
        range_noise=0.05, bearing_noise=np.deg2rad(0.5),
        doppler_noise=doppler_sigma,
        cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02), seed=seed,
    )


def test_update_doppler_hover_anees_band():
    # posterior consistency on hovers: pooled ANEES near one
    from eqfrio.evaluation import anees
    from eqfrio.pipeline import simulate_and_run
    from eqfrio.simulator import TrajectorySpec

    values = _mc_run_values()
    spec = TrajectorySpec.hover(10.0)
    scores = []
    for seed in range(50):
        _, result, pair = simulate_and_run(spec, _mc_sim_config(seed, imu_rate=25.0),
                                           values)
        scores.append(anees(pair))
    pooled = float(np.mean(scores))
    assert 0.5 < pooled < 2.0, f"hover ANEES {pooled}"


def test_update_msc_shrinks_calibration_covariance():
    # enabling point constraints tightens the extrinsic block on average
    from eqfrio.pipeline import simulate_and_run
    from eqfrio.simulator import TrajectorySpec

    values = _mc_run_values(doppler_sigma=0.3)
    values["perturb.calibration"] = "y:10deg"
    spec = TrajectorySpec.excited(8.0)
    deltas = []
    for seed in range(20):
        config = _mc_sim_config(seed, doppler_sigma=0.3)
        traces = {}
        for label, use in (("msc", True), ("off", False)):
            _, result, _ = simulate_and_run(spec, config, values, use_msc=use)
            traces[label] = np.trace(result.final_belief.cov[18:24, 18:24])
        deltas.append(traces["off"] - traces["msc"])
    assert np.mean(deltas) > 0.0


def test_run_loop_handles_off_grid_scan_times():
    # radar stamps between inertial samples trigger partial propagation;
    # zero-order-hold steps compose exactly, so noise-free tracking survives
    from eqfrio.pipeline import RUN_SCHEMA, initial_state_from_truth, run_filter, settings_from_values
    from eqfrio.simulator import SimConfig, TrajectorySpec, run_simulation

    spec = TrajectorySpec.excited(5.0)
    config = SimConfig(imu_rate=100.0, radar_rate=10.0,
                       cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02),
                       seed=6)
    sim = run_simulation(spec, config)
    shifted = tuple(s._replace(stamp=s.stamp + 0.004) for s in sim.scans)

    values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    settings = settings_from_values(values, config.imu_rate)
    xi0 = initial_state_from_truth(sim.rotations[0], sim.velocities[0],
                                   sim.positions[0], config.extrinsics())
    result = run_filter(sim.times, sim.imu_gyro, sim.imu_accel, shifted,
                        xi0, np.zeros((24, 24)), settings,
                        cal_rot_truth=config.extrinsics()[0:3, 0:3])
    assert np.all(np.isfinite(result.est_pos))
    # estimates at inertial stamps still match the recorded ground truth
    on_grid = np.isin(result.times, sim.times)
    err = result.est_pos[on_grid][-1] - sim.positions[-1]
    assert np.linalg.norm(err) < 1e-6


def test_run_loop_skips_empty_scans():
    # radar.csv has no row for a scan without detections, so the run loop
    # must not evict clones or otherwise act on one: an in-memory run then
    # equals a run on the scans read back from files
    from eqfrio.pipeline import prepare_run, run_filter
    from eqfrio.simulator import TrajectorySpec, run_simulation

    config = _mc_sim_config(2)._replace(radar_rate=10.0, landmark_count=6)
    sim = run_simulation(TrajectorySpec.excited(5.0), config)
    kept = tuple(s for s in sim.scans if s.detections)
    assert len(sim.scans) - len(kept) >= 10
    settings, xi0, cov0 = prepare_run(_mc_run_values(), config.imu_rate,
                                      sim.rotations[0], sim.velocities[0],
                                      sim.positions[0], config.extrinsics())
    runs = [run_filter(sim.times, sim.imu_gyro, sim.imu_accel, scans, xi0, cov0,
                       settings) for scans in (sim.scans, kept)]
    for name in ("times", "est_rot", "est_vel", "est_pos", "pose_cov"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name
    assert np.array_equal(runs[0].final_belief.cov, runs[1].final_belief.cov)
