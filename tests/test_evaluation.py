"""Metric definitions against hand computations and sampling checks."""

import numpy as np
import pytest

from eqfrio.evaluation import (
    AlignedPair,
    anees,
    ape,
    associate,
    calibration_error,
    classify_convergence,
    drift,
    emit_plot_data,
    evaluate_run,
    nees_series,
    rmse,
    trajectory_length,
)
from eqfrio.lie import SO3, skew
from eqfrio.pipeline import RUN_SCHEMA, simulate_and_run
from eqfrio.simulator import SimConfig, TrajectorySpec
from helpers import random_rotation


def make_pair(rng, n=10, rot_err=0.0, pos_err=0.0, covs=None):
    gt_rot = np.stack([random_rotation(rng, 0.5) for _ in range(n)])
    gt_pos = rng.standard_normal((n, 3))
    est_rot = np.stack([R @ SO3.exp(rot_err * rng.standard_normal(3))
                        for R in gt_rot])
    est_pos = gt_pos + pos_err * rng.standard_normal((n, 3))
    return AlignedPair(np.arange(n, dtype=float), gt_rot, gt_pos,
                       est_rot, est_pos, covs)


def test_ape_perfect_estimate_is_zero():
    rng = np.random.default_rng(120)
    pair = make_pair(rng)
    rot_err, tr_err = ape(pair)
    assert np.allclose(rot_err, 0.0, atol=1e-12)
    assert np.allclose(tr_err, 0.0, atol=1e-12)


def test_ape_translation_in_body_frame():
    pair = AlignedPair(
        stamps=np.array([0.0]),
        gt_rot=np.eye(3)[None], gt_pos=np.zeros((1, 3)),
        est_rot=np.eye(3)[None], est_pos=np.array([[0.0, 0.0, 1.0]]),
    )
    _, tr_err = ape(pair)
    assert np.allclose(tr_err[0], [0.0, 0.0, 1.0])


def test_ape_rotation_log_identity():
    rng = np.random.default_rng(121)
    R = random_rotation(rng)
    pair = AlignedPair(
        stamps=np.array([0.0]),
        gt_rot=R[None], gt_pos=np.zeros((1, 3)),
        est_rot=(R @ SO3.exp([0.1, 0.0, 0.0]))[None], est_pos=np.zeros((1, 3)),
    )
    rot_err, _ = ape(pair)
    assert np.allclose(rot_err[0], [0.1, 0.0, 0.0], atol=1e-12)


def test_ape_invariant_under_right_pose_composition():
    # composing both trajectories with one fixed world pose on the left
    # leaves the relative errors unchanged
    rng = np.random.default_rng(122)
    pair = make_pair(rng, rot_err=0.05, pos_err=0.1)
    G_rot = random_rotation(rng)
    G_pos = rng.standard_normal(3)
    moved = AlignedPair(
        pair.stamps,
        np.einsum("ij,njk->nik", G_rot, pair.gt_rot),
        pair.gt_pos @ G_rot.T + G_pos,
        np.einsum("ij,njk->nik", G_rot, pair.est_rot),
        pair.est_pos @ G_rot.T + G_pos,
    )
    r0, t0 = ape(pair)
    r1, t1 = ape(moved)
    assert np.allclose(r0, r1, atol=1e-10)
    assert np.allclose(t0, t1, atol=1e-10)


def test_rmse_hand_values():
    assert rmse(np.zeros((5, 3))) == 0.0
    errs = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert np.isclose(rmse(errs), np.sqrt(12.5))
    single = np.array([[1.0, 2.0, 2.0]])
    assert np.isclose(rmse(single), 3.0)


def test_rmse_properties():
    rng = np.random.default_rng(123)
    errs = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    assert np.isclose(rmse(errs), rmse(errs[perm]))
    assert np.isclose(rmse(3.0 * errs), 3.0 * rmse(errs))


def test_rmse_empty_rejected():
    with pytest.raises(ValueError):
        rmse(np.zeros((0, 3)))


def test_anees_zero_error():
    rng = np.random.default_rng(124)
    covs = np.stack([np.eye(6) for _ in range(5)])
    pair = make_pair(rng, n=5, covs=covs)
    assert anees(pair) == 0.0


def test_anees_unit_example():
    # identity covariance and unit-norm error in every slot gives 1
    pair = AlignedPair(
        stamps=np.array([0.0]),
        gt_rot=np.eye(3)[None], gt_pos=np.zeros((1, 3)),
        est_rot=SO3.exp([1.0, 0.0, 0.0])[None],
        est_pos=np.array([[1.0, 0.0, 0.0]]),
        covariances=np.eye(6)[None],
    )
    # error vector has two unit entries; 6M normalization makes this 2/6
    assert np.isclose(anees(pair), 2.0 / 6.0)


def test_anees_sampling_consistency():
    # draw filter-convention errors from a known covariance and verify the
    # transported ANEES sits near 1
    rng = np.random.default_rng(125)
    from eqfrio.symmetry import (identity_state, state_action, error_inverse,
                                 group_compose)
    from test_symmetry import random_group

    origin = identity_state()
    X_hat = random_group(rng)
    xi_hat = state_action(X_hat, origin)
    scale = np.full(24, 1e-3)
    cov24 = np.diag(scale**2)
    n = 4000
    gt_rot, gt_pos, est_rot, est_pos = [], [], [], []
    for _ in range(n):
        eps = scale * rng.standard_normal(24)
        xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
        gt_rot.append(xi.attitude())
        gt_pos.append(xi.position())
        est_rot.append(xi_hat.attitude())
        est_pos.append(xi_hat.position())
    idx = np.concatenate([np.arange(0, 3), np.arange(6, 9)])
    covs = np.broadcast_to(cov24[np.ix_(idx, idx)], (n, 6, 6))
    pair = AlignedPair(np.arange(n, dtype=float), np.stack(gt_rot),
                       np.stack(gt_pos), np.stack(est_rot), np.stack(est_pos),
                       covs)
    value = anees(pair)
    assert 0.9 < value < 1.1


def test_drift_unit_identity():
    rng = np.random.default_rng(126)
    pair = make_pair(rng, n=3)
    pos = np.array([[0, 0, 0], [50.0, 0, 0], [100.0, 0, 0]], dtype=float)
    pair = AlignedPair(pair.stamps, pair.gt_rot, pos, pair.est_rot,
                       pos + np.array([0, 0, 0] * 1).reshape(1, 3), None)
    est_pos = pos.copy()
    est_pos[-1, 1] += 1.0
    pair = AlignedPair(pair.stamps, np.stack([np.eye(3)] * 3), pos,
                       np.stack([np.eye(3)] * 3), est_pos, None)
    pos_drift, yaw_drift = drift(pair, trajectory_length(pos))
    assert np.isclose(pos_drift, 1.0)   # 1 m over 100 m = 1 cm/m
    assert yaw_drift == 0.0


def test_drift_yaw_hand_value():
    n = 2
    gt_rot = np.stack([np.eye(3)] * n)
    est_rot = gt_rot.copy()
    est_rot[-1] = SO3.exp([0.0, 0.0, np.deg2rad(2.0)])
    pos = np.array([[0.0, 0, 0], [20.0, 0, 0]])
    pair = AlignedPair(np.arange(n, dtype=float), gt_rot, pos, est_rot, pos, None)
    _, yaw_drift = drift(pair, 20.0)
    assert np.isclose(yaw_drift, 0.1)


def test_drift_perfect_is_zero():
    rng = np.random.default_rng(127)
    pair = make_pair(rng)
    assert np.allclose(drift(pair, 10.0), 0.0, atol=1e-12)


def test_drift_zero_length_rejected():
    rng = np.random.default_rng(128)
    with pytest.raises(ValueError):
        drift(make_pair(rng), 0.0)


def test_calibration_error_values():
    rng = np.random.default_rng(129)
    S = random_rotation(rng)
    assert calibration_error(S, S) == 0.0
    S_hat = S @ SO3.exp(np.deg2rad(80.0) * np.array([0.0, 1.0, 0.0]))
    assert np.isclose(calibration_error(S, S_hat), 1.3963, atol=1e-4)
    assert np.isclose(calibration_error(S, S_hat),
                      calibration_error(S_hat, S))

    # a (..., 3, 3) stack gives the per-pair angles, a pair pi apart included
    stack = np.array([random_rotation(rng, scale) for scale in np.linspace(0.0, 3.0, 40)])
    stack[0], stack[1] = S, S @ np.diag([-1.0, 1.0, -1.0])
    angles = calibration_error(S, stack.reshape(4, 10, 3, 3))
    assert angles.shape == (4, 10)
    single = np.array([calibration_error(S, s) for s in stack])
    assert np.abs(angles.reshape(-1) - single).max() <= 1e-15
    assert single[1] == pytest.approx(np.pi, abs=1e-15)


def test_calibration_error_half_turn():
    # the metric is exact at pi, and a run started half a turn off must
    # complete
    rng = np.random.default_rng(130)
    S = random_rotation(rng)
    assert calibration_error(S, S @ np.diag([-1.0, 1.0, -1.0])) == pytest.approx(
        np.pi, abs=1e-12)

    values = {k: v for k, (_, v) in RUN_SCHEMA.items()}
    values.update({"radar.sigma_range": 0.05, "radar.sigma_bearing": np.deg2rad(0.5),
                   "radar.sigma_doppler": 0.05, "perturb.calibration": "y:180deg"})
    config = SimConfig(imu_rate=100.0, range_noise=0.05,
                       bearing_noise=np.deg2rad(0.5), doppler_noise=0.05, seed=3)
    sim, result, _ = simulate_and_run(TrajectorySpec.excited(2.0), config, values)
    assert len(result.times) == len(sim.times)
    assert result.e_angle[0] == pytest.approx(np.pi, abs=1e-12)
    assert np.all(np.isfinite(result.e_angle))
    assert np.all(np.isfinite(result.est_pos))


def test_classify_convergence():
    t = np.linspace(0, 1, 200)
    decaying = 1.4 * np.exp(-6 * t)
    assert classify_convergence(decaying) == "converged"
    slow = 1.4 * np.exp(-0.5 * t)
    assert classify_convergence(slow) == "partial"
    flat = np.full(200, 1.4)
    assert classify_convergence(flat) == "fail"
    assert classify_convergence(np.zeros(10)) == "converged"


def test_associate_window():
    gt_t = np.arange(0.0, 1.0, 0.01)
    n = len(gt_t)
    rots = np.broadcast_to(np.eye(3), (n, 3, 3))
    pos = np.zeros((n, 3))
    est_t = np.array([0.1004, 0.5, 0.703])
    pair = associate(gt_t, rots, pos, est_t,
                     np.broadcast_to(np.eye(3), (3, 3, 3)), np.zeros((3, 3)))
    assert len(pair) == 3
    est_t2 = np.array([2.5])
    with pytest.raises(ValueError, match="overlapping"):
        associate(gt_t, rots, pos, est_t2, np.broadcast_to(np.eye(3), (1, 3, 3)),
                  np.zeros((1, 3)))


def test_associate_tie_takes_earlier_stamp():
    # 0.125 is exactly as far from 0.0 as from 0.25; the earlier row wins
    gt_t = np.array([0.0, 0.25, 0.5])
    gt_pos = np.arange(9.0).reshape(3, 3)
    rots = np.broadcast_to(np.eye(3), (3, 3, 3))
    pair = associate(gt_t, rots, gt_pos, np.array([0.125, 0.375]), rots[:2],
                     np.zeros((2, 3)), window=0.2)
    assert np.array_equal(pair.gt_pos, gt_pos[[0, 1]])


def test_nees_matches_transported_covariance():
    # reference: push the filter's covariance into the body-frame error
    # coordinates with T = [[-R^T, 0], [R^T skew(p), -R^T]] and weigh the ape
    # errors with it, one pose at a time
    rng = np.random.default_rng(133)
    A = rng.standard_normal((8, 6, 6))
    covs = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(6)
    pair = make_pair(rng, n=8, rot_err=0.3, pos_err=0.5, covs=covs)
    rot_err, tr_err = ape(pair)
    expected = []
    for R, p, P, e_r, e_t in zip(pair.est_rot, pair.est_pos, covs, rot_err, tr_err):
        T = np.zeros((6, 6))
        T[0:3, 0:3] = T[3:6, 3:6] = -R.T
        T[3:6, 0:3] = R.T @ skew(p)
        err = np.concatenate([e_r, e_t])
        expected.append(err @ np.linalg.solve(T @ P @ T.T, err))
    assert np.allclose(nees_series(pair), expected, rtol=1e-11, atol=0.0)


def test_nees_series_names_first_singular_covariance():
    rng = np.random.default_rng(132)
    covs = np.stack([np.eye(6)] * 5)
    covs[2] = 0.0
    covs[4] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    pair = make_pair(rng, n=5, rot_err=0.01, pos_err=0.02, covs=covs)
    with pytest.raises(ValueError, match="singular pose covariance at index 2$"):
        nees_series(pair)


def test_evaluate_run_survives_near_half_turn():
    # a diverged run, one attitude off by pi - 1e-7, is evaluated, not a crash
    n = 3
    gt_rot = np.stack([np.eye(3)] * n)
    est_rot = gt_rot.copy()
    est_rot[1] = SO3.exp([0.0, np.pi - 1e-7, 0.0])
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    pair = AlignedPair(np.arange(n, dtype=float), gt_rot, pos, est_rot, pos,
                       np.stack([np.eye(6)] * n))
    report = evaluate_run(pair)
    assert report.rotation_rmse_deg == pytest.approx(
        np.rad2deg((np.pi - 1e-7) / np.sqrt(3.0)), rel=1e-12)
    assert np.isfinite(report.anees)
    assert report.convergence == "fail"


def test_evaluate_run_report_complete():
    rng = np.random.default_rng(130)
    covs = np.stack([np.eye(6) * 0.01 for _ in range(10)])
    pair = make_pair(rng, rot_err=0.01, pos_err=0.02, covs=covs)
    report = evaluate_run(pair, e_angle_series=np.linspace(0.2, 0.01, 10))
    d = report.as_dict()
    for key, val in d.items():
        if key != "convergence":
            assert np.isfinite(val), key
    assert d["convergence"] in ("converged", "partial", "fail")


def test_emit_plot_data_roundtrip(tmp_path):
    rng = np.random.default_rng(131)
    covs = np.stack([np.eye(6) for _ in range(6)])
    pair = make_pair(rng, n=6, rot_err=0.01, pos_err=0.02, covs=covs)
    files = emit_plot_data(pair, tmp_path,
                           calibration=np.column_stack([pair.stamps, np.linspace(0.3, 0.0, 6)]))
    assert len(files) == 4
    import csv

    with open(tmp_path / "trajectory.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "gt_x", "gt_y", "gt_z", "est_x", "est_y", "est_z"]
    assert len(rows) == 7
    # values round-trip at full precision
    assert float(rows[1][1]) == pair.gt_pos[0][0]


def test_emit_plot_data_empty(tmp_path):
    pair = AlignedPair(np.zeros(0), np.zeros((0, 3, 3)), np.zeros((0, 3)),
                       np.zeros((0, 3, 3)), np.zeros((0, 3)))
    files = emit_plot_data(pair, tmp_path)
    for path in files:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        assert len(lines) == 1  # header only
