"""Radar measurement models against direct substitution and finite
differences through the full error chart."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfrio.lie import SE3, SE23, SO3
from eqfrio.measurements import (
    DopplerNoiseSpec,
    apply_spherical_noise,
    doppler_model,
    doppler_rows,
    point_constraint_model,
    point_rows,
)
from eqfrio.symmetry import (
    SystemInput,
    SystemState,
    error_inverse,
    group_compose,
    group_inverse,
    identity_state,
    input_action,
    state_action,
)
from helpers import assert_close, central_difference, group_identity, random_element
from test_symmetry import random_group, random_state


def state_of_error(eps, X_hat, origin):
    return state_action(group_compose(error_inverse(eps), X_hat), origin)


def origin_gyro_of(X_hat, gyro):
    u0 = input_action(group_inverse(X_hat), SystemInput.from_imu(gyro, np.zeros(3)))
    return u0.gyro


# --- doppler model -----------------------------------------------------------

def test_doppler_zero_for_static_sensor():
    rng = np.random.default_rng(60)
    xi = random_state(rng)
    xi = SystemState(pose=SE23.from_components(xi.attitude(), np.zeros(3),
                                               xi.position()),
                     bias=xi.bias, cal=xi.cal)
    gyro = xi.bias[0:3]  # raw gyro equal to its bias: no rotation either
    for _ in range(20):
        p = rng.standard_normal(3) * 4.0
        assert abs(doppler_model(xi, p, gyro)) < 1e-12


def test_doppler_direct_substitution_velocity():
    xi = SystemState(
        pose=SE23.from_components(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3)),
        bias=np.zeros(9),
        cal=np.eye(4),
    )
    assert np.isclose(doppler_model(xi, [1.0, 0.0, 0.0], np.zeros(3)), -1.0)


def test_doppler_direct_substitution_lever_arm():
    xi = SystemState(
        pose=np.eye(5),
        bias=np.zeros(9),
        cal=SE3.from_components(np.eye(3), np.array([1.0, 0.0, 0.0])),
    )
    # rotation about z with unit lever along x sweeps the sensor along +y
    val = doppler_model(xi, [0.0, 1.0, 0.0], np.array([0.0, 0.0, 1.0]))
    assert np.isclose(val, -1.0)


def test_doppler_bearing_only_dependence():
    rng = np.random.default_rng(61)
    xi = random_state(rng)
    gyro = rng.standard_normal(3)
    p = rng.standard_normal(3)
    a = doppler_model(xi, p, gyro)
    for s in [0.5, 2.0, 7.3]:
        assert np.isclose(doppler_model(xi, s * p, gyro), a, atol=1e-12)


def test_doppler_degenerate_point():
    with pytest.raises(ValueError, match="degenerate"):
        doppler_model(identity_state(), [0.0, 0.0, 1e-9], np.zeros(3))


# --- doppler linearizations -----------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_doppler_output_matrix_finite_difference(k):
    rng = np.random.default_rng(62)
    origin = identity_state(k)
    for _ in range(200 if k == 0 else 60):
        X_hat = random_group(rng, k)
        gyro = rng.standard_normal(3)
        point = rng.standard_normal(3) * 3.0
        if np.linalg.norm(point) < 0.3:
            continue
        row = doppler_rows(X_hat, origin_gyro_of(X_hat, gyro), point)[0]

        def h(eps):
            return doppler_model(state_of_error(eps, X_hat, origin), point, gyro)

        fd = central_difference(h, np.zeros(24 + 6 * k), step=1e-6).ravel()
        assert_close(row, fd, 1e-5, "doppler output row")


def test_doppler_output_matrix_zero_origin_gyro():
    rng = np.random.default_rng(63)
    X_hat = random_group(rng)
    point = np.array([2.0, -1.0, 0.5])
    row = doppler_rows(X_hat, np.zeros(3), point)[0]
    _, a, _ = SE23.components(X_hat.nav)
    E, _ = SE3.components(X_hat.cal)
    psi = -(E @ (point / np.linalg.norm(point)))
    from eqfrio.lie import skew

    assert np.allclose(row[0:3], -(psi @ skew(a)), atol=1e-12)
    assert np.allclose(row[6:9], 0.0, atol=1e-14)


def test_doppler_output_matrix_clone_columns_zero():
    rng = np.random.default_rng(64)
    X_hat = random_group(rng, 3)
    row = doppler_rows(X_hat, rng.standard_normal(3),
                       rng.standard_normal(3) + 2.0)[0]
    assert np.allclose(row[24:], 0.0)


def test_doppler_noise_matrix_trailing_one():
    rng = np.random.default_rng(65)
    for _ in range(50):
        X_hat = random_group(rng)
        row = doppler_rows(X_hat, rng.standard_normal(3),
                           rng.standard_normal(3) + 2.0)[1]
        assert row[6] == 1.0


def test_doppler_noise_matrix_finite_difference():
    rng = np.random.default_rng(66)
    origin = identity_state()
    for _ in range(100):
        X_hat = random_group(rng)
        gyro = rng.standard_normal(3)
        point = rng.standard_normal(3) * 3.0
        if np.linalg.norm(point) < 0.3:
            continue
        xi_hat = state_action(X_hat, origin)
        row = doppler_rows(X_hat, origin_gyro_of(X_hat, gyro), point)[1]

        def residual(zeta):
            perturbed = apply_spherical_noise(point, zeta[3:6])
            return zeta[6] - doppler_model(xi_hat, perturbed, gyro + zeta[0:3])

        fd = central_difference(residual, np.zeros(7), step=1e-6).ravel()
        assert_close(row, fd, 1e-5, "doppler noise row")


def test_doppler_noise_matrix_no_lever_no_gyro_block():
    # with the calibration transport at identity and no nav offset the lever
    # arm vanishes and gyro noise cannot enter
    X_hat = group_identity(0)
    row = doppler_rows(X_hat, np.array([0.3, -0.1, 0.2]),
                       np.array([1.0, 2.0, -1.0]))[1]
    assert np.allclose(row[0:3], 0.0, atol=1e-14)


# --- point constraint -----------------------------------------------------------

def test_point_constraint_same_pose_clone():
    rng = np.random.default_rng(67)
    xi = random_state(rng, 0)
    clone = xi.radar_pose()
    xi = SystemState(pose=xi.pose, bias=xi.bias, cal=xi.cal,
                     clones=clone[None], stamps=(0.0,))
    p = np.array([1.0, -2.0, 0.5])
    assert np.isclose(point_constraint_model(xi, 0, p), np.linalg.norm(p))


def test_point_constraint_pure_translation():
    xi = SystemState(
        pose=np.eye(5), bias=np.zeros(9), cal=np.eye(4),
        clones=SE3.from_components(np.eye(3), np.array([1.0, 0.0, 0.0]))[None],
        stamps=(0.0,),
    )
    assert np.isclose(point_constraint_model(xi, 0, [1.0, 0.0, 0.0]), 2.0)


def test_point_constraint_world_frame_invariance():
    rng = np.random.default_rng(68)
    for _ in range(50):
        xi = random_state(rng, 1)
        p = rng.standard_normal(3)
        h0 = point_constraint_model(xi, 0, p)
        G = random_element(rng, SE3)
        R_g, t_g = SE3.components(G)
        R, v, pos = SE23.components(xi.pose)
        moved = SystemState(
            pose=SE23.from_components(R_g @ R, v, R_g @ pos + t_g),
            bias=xi.bias, cal=xi.cal,
            clones=G @ xi.clones, stamps=xi.stamps,
        )
        assert np.isclose(point_constraint_model(moved, 0, p), h0, atol=1e-10)


def test_point_constraint_invalid_clone():
    rng = np.random.default_rng(69)
    with pytest.raises(ValueError, match="clone"):
        point_constraint_model(random_state(rng, 1), 3, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("k", [1, 3])
def test_point_output_matrix_finite_difference(k):
    rng = np.random.default_rng(70)
    origin = identity_state(k)
    for _ in range(100 if k == 1 else 60):
        X_hat = random_group(rng, k)
        idx = int(rng.integers(0, k))
        point = rng.standard_normal(3) * 3.0
        if np.linalg.norm(point) < 0.3:
            continue
        row = point_rows(X_hat, idx, point)[0]

        def h(eps):
            return point_constraint_model(state_of_error(eps, X_hat, origin),
                                          idx, point)

        fd = central_difference(h, np.zeros(24 + 6 * k), step=1e-6).ravel()
        assert_close(row, fd, 1e-5, "point output row")


def test_point_output_matrix_block_structure():
    rng = np.random.default_rng(71)
    X_hat = random_group(rng, 1)
    row = point_rows(X_hat, 0, np.array([1.0, 2.0, 3.0]))[0]
    assert np.allclose(row[0:18], 0.0)
    blocks = [row[18:21], row[21:24], row[24:27], row[27:30]]
    assert all(np.linalg.norm(b) > 1e-12 for b in blocks)


def test_point_output_matrix_uninvolved_clones_zero():
    rng = np.random.default_rng(72)
    X_hat = random_group(rng, 3)
    row = point_rows(X_hat, 1, np.array([1.0, 2.0, 3.0]))[0]
    assert np.allclose(row[24:30], 0.0)
    assert np.allclose(row[36:42], 0.0)
    assert np.linalg.norm(row[30:36]) > 1e-12


def test_point_noise_matrix_structure():
    rng = np.random.default_rng(73)
    X_hat = random_group(rng, 2)
    row = point_rows(X_hat, 0, np.array([2.0, 0.3, -1.0]))[1]
    assert row[0] == 1.0
    assert np.allclose(row[1:3], 0.0)


def test_point_noise_matrix_finite_difference():
    rng = np.random.default_rng(74)
    origin = identity_state(1)
    for _ in range(100):
        X_hat = random_group(rng, 1)
        xi_hat = state_action(X_hat, origin)
        p_now = rng.standard_normal(3) * 3.0
        p_then = rng.standard_normal(3) * 3.0
        if min(np.linalg.norm(p_now), np.linalg.norm(p_then)) < 0.3:
            continue
        row = point_rows(X_hat, 0, p_then)[1]

        def residual(zeta):
            now = apply_spherical_noise(p_now, zeta[0:3])
            then = apply_spherical_noise(p_then, zeta[3:6])
            return np.linalg.norm(now) - point_constraint_model(xi_hat, 0, then)

        fd = central_difference(residual, np.zeros(6), step=1e-6).ravel()
        assert_close(row, fd, 1e-5, "point noise row")


# --- stacked rows -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_stacked_rows_and_models_equal_single_point_calls(seed, n):
    rng = np.random.default_rng(seed)
    k = 3
    X_hat = random_group(rng, k)
    xi_hat = state_action(X_hat, identity_state(k))
    gyro, origin_gyro = rng.standard_normal(3), rng.standard_normal(3)
    points = rng.standard_normal((n, 3))
    points *= (0.5 + 4.0 * rng.random((n, 1))) / np.linalg.norm(points, axis=1,
                                                                 keepdims=True)
    index = rng.integers(0, k, size=n)

    C, D = doppler_rows(X_hat, origin_gyro, points)
    h = doppler_model(xi_hat, points, gyro)
    Cp, Dp = point_rows(X_hat, index, points)
    hp = point_constraint_model(xi_hat, index, points)
    Cs, Ds = point_rows(X_hat, 1, points)            # one clone for the stack
    assert C.shape == (n, 24 + 6 * k) and D.shape == (n, 7) and h.shape == (n,)
    assert Cp.shape == (n, 24 + 6 * k) and Dp.shape == (n, 6) and hp.shape == (n,)
    for i, (p, idx) in enumerate(zip(points, index)):
        c, d = doppler_rows(X_hat, origin_gyro, p)
        assert np.abs(C[i] - c).max() <= 1e-13 and np.abs(D[i] - d).max() <= 1e-13
        assert abs(h[i] - doppler_model(xi_hat, p, gyro)) <= 1e-13
        c, d = point_rows(X_hat, int(idx), p)
        assert np.abs(Cp[i] - c).max() <= 1e-13 and np.abs(Dp[i] - d).max() <= 1e-13
        assert abs(hp[i] - point_constraint_model(xi_hat, int(idx), p)) <= 1e-13
        c, d = point_rows(X_hat, 1, p)
        assert np.abs(Cs[i] - c).max() <= 1e-13 and np.abs(Ds[i] - d).max() <= 1e-13


def test_single_point_models_return_floats():
    rng = np.random.default_rng(76)
    xi = random_state(rng, 2)
    p = np.array([1.0, -2.0, 0.5])
    assert type(doppler_model(xi, p, np.zeros(3))) is float
    assert type(point_constraint_model(xi, 1, p)) is float


def test_stacked_point_rows_reject_any_invalid_clone():
    rng = np.random.default_rng(77)
    X_hat = random_group(rng, 2)
    points = np.ones((3, 3))
    with pytest.raises(ValueError, match="invalid clone index"):
        point_rows(X_hat, np.array([0, 2, 1]), points)
    with pytest.raises(ValueError, match="invalid clone index"):
        point_rows(X_hat, np.array([0, -1, 1]), points)


# --- spherical noise --------------------------------------------------------------

def test_apply_spherical_noise_zero():
    p = np.array([1.0, 2.0, 3.0])
    assert np.allclose(apply_spherical_noise(p, np.zeros(3)), p)


def test_apply_spherical_noise_range_only():
    assert np.allclose(
        apply_spherical_noise([2.0, 0.0, 0.0], [0.1, 0.0, 0.0]), [2.1, 0.0, 0.0]
    )


def test_apply_spherical_noise_first_order():
    from eqfrio.lie import sphere_jacobian

    rng = np.random.default_rng(75)
    for _ in range(50):
        p = rng.standard_normal(3) * 2.0
        if np.linalg.norm(p) < 0.3:
            continue
        eta = 1e-5 * rng.standard_normal(3)
        out = apply_spherical_noise(p, eta)
        lin = p + sphere_jacobian(p) @ eta
        assert np.allclose(out, lin, rtol=1e-3, atol=1e-12)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        DopplerNoiseSpec(sigma_gyro=-1.0)
    spec = DopplerNoiseSpec(0.01, 0.05, 0.009, 0.05)
    assert spec.cov().shape == (7, 7)
    assert spec.point_pair_cov().shape == (6, 6)
