"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold."""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from eqfrio.evaluation import anees
from eqfrio.filter import (
    clone_augment,
    clone_marginalize,
    initialize,
    propagation_step,
)
from eqfrio.lie import GROUPS, SE3, SE23
from eqfrio.measurements import doppler_model, doppler_rows, point_rows
from eqfrio.pipeline import (
    RUN_SCHEMA,
    montecarlo,
    simulate_and_run,
)
from eqfrio.simulator import SimConfig, TrajectorySpec
from eqfrio.symmetry import (
    SystemInput,
    discrete_dynamics,
    error_coordinates,
    error_inverse,
    group_compose,
    group_inverse,
    identity_state,
    input_action,
    lift,
    state_action,
)
from helpers import (
    assert_close,
    central_difference,
    embed_core,
    left_jacobian_block_oracle,
    random_coords,
)
from test_filter import random_belief
from test_symmetry import random_group, random_imu_input, random_input, random_state


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# --- criterion 1: group kernel against oracles --------------------------------

def test_criterion_1_lie_kernel_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(1000)
    worst = 0.0
    for tag, group in GROUPS.items():
        for _ in range(1000):
            u = random_coords(rng, group, rot_scale=0.8, lin_scale=1.0)
            u[0:3] *= 2.9 / max(np.linalg.norm(u[0:3]), 2.9)  # log domain
            X = group.exp(u)
            worst = max(worst, np.abs(X - expm(group.wedge(u))).max())
            worst = max(worst, np.abs(group.log(X) - u).max())
            worst = max(worst, np.abs(
                group.adjoint(X) - expm(group.little_adjoint(u))).max())
        for _ in range(1000):
            u = random_coords(rng, group, rot_scale=0.4, lin_scale=0.4)
            worst = max(worst, np.abs(
                group.left_jacobian(u)
                - left_jacobian_block_oracle(group, u)).max())
    elapsed = time.monotonic() - start
    assert worst < 1e-8, f"worst oracle deviation {worst:.2e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(1, f"exp/log/Ad/Jl vs oracles, worst deviation {worst:.2e}, "
               f"{elapsed:.1f}s")


# --- criterion 2: lift condition and equivariance ------------------------------

def test_criterion_2_lift_and_equivariance():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for dt in (1e-4, 1e-2, 0.1):
        for _ in range(500):
            k = int(rng.integers(0, 3))
            xi = random_state(rng, k)
            u = random_input(rng)
            X = random_group(rng, k)
            lifted = state_action(lift(xi, u, dt), xi)
            stepped = discrete_dynamics(xi, u, dt)
            worst = max(worst, np.abs(lifted.pose - stepped.pose).max(),
                        np.abs(lifted.bias - stepped.bias).max(),
                        np.abs(lifted.cal - stepped.cal).max())
            lhs = discrete_dynamics(state_action(X, xi), input_action(X, u), dt)
            rhs = state_action(X, stepped)
            worst = max(worst, np.abs(lhs.pose - rhs.pose).max(),
                        np.abs(lhs.bias - rhs.bias).max(),
                        np.abs(lhs.cal - rhs.cal).max())
    assert worst < 1e-9, f"worst defect {worst:.2e}"
    _report(2, f"lift condition and equivariance over 1500 tuples, "
               f"worst defect {worst:.2e}")


# --- criterion 3: linearization matrices vs finite differences ------------------

def test_criterion_3_linearizations():
    rng = np.random.default_rng(1002)
    dt = 0.01
    checked = {"A": 0, "B": 0, "Cv": 0, "Dv": 0, "Cp": 0, "Dp": 0}

    for trial in range(102):
        k = (0, 1, 3)[trial % 3]
        origin = identity_state(k)
        X_hat = random_group(rng, k)
        u = random_imu_input(rng)
        dof = 24 + 6 * k

        X_next, A, B = propagation_step(X_hat, u.nav, dt)
        A, B = embed_core(A, B, k)
        xi_hat = state_action(X_hat, origin)
        xi_next = discrete_dynamics(xi_hat, u, dt)

        def error_step(eps):
            xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
            return error_coordinates(X_next, discrete_dynamics(xi, u, dt), origin)

        assert_close(central_difference(error_step, np.zeros(dof), 1e-6), A,
                     1e-4, "A")
        checked["A"] += 1

        def noise_step(eta):
            # the drives are perturbed through the lift: the fused step
            # reads the navigation input only
            nav = u.nav.copy()
            nav[0:9] += eta[0:9]
            u_noisy = SystemInput(nav=nav, tau=u.tau + eta[9:18],
                                  mu=u.mu + eta[18:24])
            return error_coordinates(group_compose(X_hat, lift(xi_hat, u_noisy, dt)),
                                     xi_next, origin)

        cols = list(range(9)) + list(range(10, 25))
        assert_close(central_difference(noise_step, np.zeros(24), 1e-6),
                     B[:, cols], 1e-4, "B")
        checked["B"] += 1

        gyro = rng.standard_normal(3)
        point = rng.standard_normal(3) * 3.0 + np.array([4.0, 0.0, 0.0])
        origin_gyro = input_action(group_inverse(X_hat),
                                   SystemInput.from_imu(gyro, np.zeros(3))).gyro
        cv, dv = doppler_rows(X_hat, origin_gyro, point)

        def h_v(eps):
            xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
            return doppler_model(xi, point, gyro)

        assert_close(central_difference(h_v, np.zeros(dof), 1e-6).ravel(), cv,
                     1e-5, "Cv")
        checked["Cv"] += 1

        from eqfrio.measurements import apply_spherical_noise

        def res_v(zeta):
            pt = apply_spherical_noise(point, zeta[3:6])
            return zeta[6] - doppler_model(xi_hat, pt, gyro + zeta[0:3])

        assert_close(central_difference(res_v, np.zeros(7), 1e-6).ravel(), dv,
                     1e-5, "Dv")
        checked["Dv"] += 1

        if k == 0:
            continue
        idx = int(rng.integers(0, k))
        p_then = rng.standard_normal(3) * 3.0 + np.array([4.0, 0.0, 0.0])
        cp, dp = point_rows(X_hat, idx, p_then)

        from eqfrio.measurements import point_constraint_model

        def h_p(eps):
            xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
            return point_constraint_model(xi, idx, p_then)

        assert_close(central_difference(h_p, np.zeros(dof), 1e-6).ravel(), cp,
                     1e-5, "Cp")
        checked["Cp"] += 1

        p_now = rng.standard_normal(3) * 3.0 + np.array([4.0, 0.0, 0.0])

        def res_p(zeta):
            now = apply_spherical_noise(p_now, zeta[0:3])
            then = apply_spherical_noise(p_then, zeta[3:6])
            return np.linalg.norm(now) - point_constraint_model(xi_hat, 0 + idx,
                                                                then)

        assert_close(central_difference(res_p, np.zeros(6), 1e-6).ravel(), dp,
                     1e-5, "Dp")
        checked["Dp"] += 1

    assert checked["A"] >= 100 and checked["Cp"] >= 60
    _report(3, f"A/B at 1e-4 and Cv/Dv/Cp/Dp at 1e-5 vs central differences, "
               f"counts {checked}")


# --- criterion 4: exact-discretization tracking ----------------------------------

def test_criterion_4_noise_free_tracking():
    run_values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    for key in ("init.attitude_std", "init.velocity_std", "init.position_std",
                "init.gyro_bias_std", "init.accel_bias_std",
                "init.virtual_bias_std", "init.cal_rot_std", "init.cal_pos_std"):
        run_values[key] = 0.0
    spec = TrajectorySpec.excited(10.0)
    config = SimConfig(imu_rate=200.0, radar_rate=10.0,
                       cal_rot=(0.1, -0.2, 0.3), cal_pos=(0.1, 0.05, -0.02),
                       seed=42)
    start = time.monotonic()
    sim, result, _ = simulate_and_run(spec, config, run_values, use_msc=False)
    elapsed = time.monotonic() - start
    pos_err = np.linalg.norm(result.est_pos[-1] - sim.positions[-1])
    from eqfrio.lie import SO3

    rot_err = np.linalg.norm(SO3.log(sim.rotations[-1].T @ result.est_rot[-1]))
    assert pos_err < 1e-6, f"position error {pos_err:.2e}"
    assert rot_err < 1e-6, f"rotation error {rot_err:.2e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    _report(4, f"10 s at 200 Hz noise-free: position error {pos_err:.2e} m, "
               f"rotation error {rot_err:.2e} rad, {elapsed:.1f}s")


# --- criteria 5 and 7: Monte-Carlo drift and consistency --------------------------

def _criterion5_setup():
    sim_values = {
        "preset": "excited", "duration": 20.0, "seed": 0,
        "imu_rate": 50.0, "radar_rate": 10.0,
        "noise.gyro_density": 0.005, "noise.accel_density": 0.05,
        "noise.gyro_walk": 1e-4, "noise.accel_walk": 1e-3,
        "bias.gyro_std": 0.003, "bias.accel_std": 0.03,
        "radar.sigma_range": 0.05, "radar.sigma_bearing": float(np.deg2rad(0.5)),
        "radar.sigma_doppler": 0.05,
        "cal.rot": (0.1, -0.2, 0.3), "cal.pos": (0.1, 0.05, -0.02),
        "landmarks.count": 60, "landmarks.box": 12.0,
        "fov.half_angle_deg": 60.0, "fov.max_range": 20.0,
        "radar.id_mismatch_rate": 0.0, "trajectory.pos_amp": (0, 0, 0),
        "trajectory.pos_freq": (0, 0, 0), "trajectory.pos_phase": (0, 0, 0),
        "trajectory.yaw": (0, 0, 0), "trajectory.roll": (0, 0, 0),
        "trajectory.pitch": (0, 0, 0),
    }
    run_values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    run_values.update({
        "noise.gyro_density": 0.005, "noise.accel_density": 0.05,
        "noise.gyro_walk": 1e-4, "noise.accel_walk": 1e-3,
        "init.gyro_bias_std": 0.003, "init.accel_bias_std": 0.03,
        "radar.sigma_range": 0.05, "radar.sigma_bearing": float(np.deg2rad(0.5)),
        "radar.sigma_doppler": 0.05,
    })
    return sim_values, run_values


@pytest.fixture(scope="module")
def drift_montecarlo():
    sim_values, run_values = _criterion5_setup()
    start = time.monotonic()
    summary = montecarlo(sim_values, run_values, range(20), ["none"])
    summary["elapsed"] = time.monotonic() - start
    return summary


def test_criterion_5_drift(drift_montecarlo):
    summary = drift_montecarlo
    assert not summary["failures"], summary["failures"]
    row = summary["rows"][0]
    assert row["runs"] == 20
    assert row["converged"] == 20   # all runs converge with correct calibration
    median_drift = row["position_drift_cm_per_m"]
    assert median_drift < 2.0, f"median drift {median_drift:.3f} cm/m"
    assert summary["elapsed"] < 120.0, f"runtime {summary['elapsed']:.0f}s"
    _report(5, f"20-seed excited Monte-Carlo: median drift "
               f"{median_drift:.3f} cm/m, 20/20 converged, "
               f"{summary['elapsed']:.0f}s")


def test_criterion_7_anees_band(drift_montecarlo):
    row = drift_montecarlo["rows"][0]
    pooled = row["anees_mean"]
    median = row["anees"]
    assert 0.3 < pooled < 3.0, f"pooled ANEES {pooled:.2f}"
    assert 0.3 < median < 3.0, f"median ANEES {median:.2f}"
    _report(7, f"pose ANEES over the drift Monte-Carlo: mean {pooled:.2f}, "
               f"median {median:.2f} (band 0.3..3.0)")


# --- criterion 6: recovery from an 80 degree calibration error --------------------

def test_criterion_6_basin_of_attraction():
    sim_values, run_values = _criterion5_setup()
    sim_values["duration"] = 60.0
    run_values["filter.use_msc"] = False
    summary = montecarlo(sim_values, run_values, range(20), ["y:80deg"])
    assert not summary["failures"], summary["failures"]
    recovered = 0
    finals = []
    for run in summary["runs"]:
        finals.append(np.rad2deg(run["final_calibration_error_rad"]))
        if run["convergence"] == "converged":
            recovered += 1
    assert recovered >= 18, f"only {recovered}/20 recovered; finals {finals}"
    _report(6, f"80 deg initial mount rotation error: {recovered}/20 runs "
               f"converged below 5 deg, median final "
               f"{np.median(finals):.2f} deg")


# --- criterion 8: point constraints improve calibration ---------------------------

def test_criterion_8_msc_benefit():
    sim_values, run_values = _criterion5_setup()
    sim_values["duration"] = 60.0
    sim_values["radar.sigma_doppler"] = 0.3
    run_values["radar.sigma_doppler"] = 0.3
    seeds = range(10)
    with_msc = montecarlo(sim_values, run_values, seeds, ["y:10deg"],
                          use_msc=True)
    without = montecarlo(sim_values, run_values, seeds, ["y:10deg"],
                         use_msc=False)
    assert not with_msc["failures"] and not without["failures"]
    med_with = with_msc["rows"][0]["final_calibration_error_rad"]
    med_without = without["rows"][0]["final_calibration_error_rad"]
    reduction = 1.0 - med_with / med_without
    assert reduction >= 0.20, (
        f"median final calibration error {np.rad2deg(med_with):.3f} deg with "
        f"constraints vs {np.rad2deg(med_without):.3f} deg without "
        f"({100 * reduction:.0f}% reduction)")
    _report(8, f"point constraints cut median final calibration error by "
               f"{100 * reduction:.0f}% "
               f"({np.rad2deg(med_without):.3f} -> {np.rad2deg(med_with):.3f} deg)")


# --- criterion 9: clone augmentation exactness -------------------------------------

def test_criterion_9_augment_marginalize():
    rng = np.random.default_rng(1009)
    belief = random_belief(rng, 1, scale=0.03)
    restored = clone_marginalize(clone_augment(belief, 99.0, {1}), 1)
    assert np.array_equal(restored.cov, belief.cov), "covariance not bitwise equal"

    # sampled radar-pose error covariance against the clone marginal
    belief0 = random_belief(rng, 0, scale=0.02)
    augmented = clone_augment(belief0, 1.0, set())
    marginal = augmented.cov[24:30, 24:30]
    origin = identity_state()
    radar_hat_inv = SE3.inverse(state_action(belief0.sym, origin).radar_pose())
    L = np.linalg.cholesky(belief0.cov + 1e-15 * np.eye(24))
    samples = np.zeros((10_000, 6))
    for i in range(10_000):
        eps = L @ rng.standard_normal(24)
        xi = state_action(group_compose(error_inverse(eps), belief0.sym), origin)
        samples[i] = SE3.log(xi.radar_pose() @ radar_hat_inv)
    sampled_cov = np.cov(samples.T)
    rel = np.linalg.norm(sampled_cov - marginal) / np.linalg.norm(marginal)
    assert rel < 5e-2, f"sampled clone covariance off by {rel:.3f}"
    _report(9, f"augment/marginalize restores covariance bitwise; sampled "
               f"clone covariance matches the marginal to {100 * rel:.1f}%")
