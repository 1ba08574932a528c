"""Action, lift and error-chart properties of the navigation symmetry."""

import numpy as np
import pytest
from scipy.linalg import expm

from eqfrio.filter import propagation_step
from eqfrio.lie import SE3, SE23, Gal3
from eqfrio.symmetry import (
    SystemInput,
    SystemState,
    discrete_dynamics,
    error_coordinates,
    error_inverse,
    gravity_generator,
    gravity_step,
    group_compose,
    group_inverse,
    group_log,
    identity_state,
    input_action,
    lift,
    state_action,
    state_action_inverse,
)
from helpers import assert_close, group_identity, random_coords, random_element


def random_state(rng, k=0):
    stamps = tuple(float(i) for i in range(k))
    return SystemState(
        pose=random_element(rng, SE23, rot_scale=0.8),
        bias=0.1 * rng.standard_normal(9),
        cal=random_element(rng, SE3, rot_scale=0.8),
        clones=np.array([random_element(rng, SE3, rot_scale=0.8)
                         for _ in range(k)]).reshape(-1, 4, 4),
        stamps=stamps,
    )


def random_group(rng, k=0):
    from eqfrio.symmetry import SymmetryElement

    return SymmetryElement(
        nav=random_element(rng, SE23, rot_scale=0.8),
        bias_shift=0.5 * rng.standard_normal(9),
        cal=random_element(rng, SE3, rot_scale=0.8),
        clones=np.array([random_element(rng, SE3, rot_scale=0.8)
                         for _ in range(k)]).reshape(-1, 4, 4),
    )


def random_input(rng, scale=1.0):
    u = SystemInput.from_imu(scale * rng.standard_normal(3),
                             scale * rng.standard_normal(3))
    return SystemInput(nav=u.nav, tau=0.1 * rng.standard_normal(9),
                       mu=0.1 * rng.standard_normal(6))


def random_imu_input(rng, scale=1.0):
    """random_input's draws with zero bias and calibration drives: the input
    the filter's propagation integrates."""
    return random_input(rng, scale)._replace(tau=np.zeros(9), mu=np.zeros(6))


def states_close(a, b, tol=1e-9):
    assert np.allclose(a.pose, b.pose, atol=tol)
    assert np.allclose(a.bias, b.bias, atol=tol)
    assert np.allclose(a.cal, b.cal, atol=tol)
    for Pa, Pb in zip(a.clones, b.clones):
        assert np.allclose(Pa, Pb, atol=tol)


def groups_close(a, b, tol=1e-9):
    assert np.allclose(a.nav, b.nav, atol=tol)
    assert np.allclose(a.bias_shift, b.bias_shift, atol=tol)
    assert np.allclose(a.cal, b.cal, atol=tol)
    for Fa, Fb in zip(a.clones, b.clones):
        assert np.allclose(Fa, Fb, atol=tol)


# --- tangent group -------------------------------------------------------------

def test_tangent_group_inverse():
    rng = np.random.default_rng(4)
    for _ in range(200):
        X = random_group(rng)._replace(bias_shift=rng.standard_normal(9))
        product = group_compose(X, group_inverse(X))
        assert np.allclose(product.nav, np.eye(5), atol=1e-10)
        assert np.allclose(product.bias_shift, 0.0, atol=1e-10)
        X_inv = group_inverse(X)
        assert np.allclose(X_inv.bias_shift, -SE23.adjoint(X_inv.nav) @ X.bias_shift,
                           atol=1e-12)


def test_tangent_group_exp_matches_block_embedding():
    # (D, d) embeds as [[D, wedge(d) D], [0, D]]; its exp then pins the
    # left-Jacobian transport of the algebra slot.
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = random_coords(rng, SE23)
        w = rng.standard_normal(9)
        big = np.zeros((10, 10))
        big[0:5, 0:5] = SE23.wedge(u)
        big[5:10, 5:10] = SE23.wedge(u)
        big[0:5, 5:10] = SE23.wedge(w)
        E = expm(big)
        X = error_inverse(np.concatenate([u, w, np.zeros(6)]))
        assert_close(E[0:5, 0:5], X.nav, 1e-10, "tangent exp pose")
        assert_close(E[0:5, 5:10], SE23.wedge(X.bias_shift) @ X.nav, 1e-9,
                     "tangent exp slot")
        eps = group_log(X)
        assert np.allclose(eps[0:9], u, atol=1e-9)
        assert np.allclose(eps[9:18], w, atol=1e-9)


# --- state action -------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_state_action_identity(k):
    rng = np.random.default_rng(30)
    xi = random_state(rng, k)
    states_close(state_action(group_identity(k), xi), xi, tol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_state_action_composition(k):
    rng = np.random.default_rng(31)
    for _ in range(500 if k == 0 else 100):
        xi = random_state(rng, k)
        X = random_group(rng, k)
        Y = random_group(rng, k)
        lhs = state_action(group_compose(X, Y), xi)
        rhs = state_action(Y, state_action(X, xi))
        states_close(lhs, rhs, tol=1e-10)


def test_state_action_inverse_property():
    rng = np.random.default_rng(32)
    for _ in range(200):
        xi = random_state(rng, 1)
        X = random_group(rng, 1)
        states_close(state_action(group_inverse(X), state_action(X, xi)), xi,
                     tol=1e-10)


def test_state_action_clone_count_mismatch():
    rng = np.random.default_rng(33)
    with pytest.raises(ValueError, match="clone count"):
        state_action(random_group(rng, 2), random_state(rng, 1))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_partial_inverse_roundtrip(k):
    rng = np.random.default_rng(34)
    for _ in range(500 if k == 0 else 100):
        origin = random_state(rng, k)
        xi = random_state(rng, k)
        X = state_action_inverse(origin, xi)
        states_close(state_action(X, origin), xi, tol=1e-10)


def test_partial_inverse_of_self_is_identity():
    rng = np.random.default_rng(35)
    xi = random_state(rng, 2)
    groups_close(state_action_inverse(xi, xi), group_identity(2), tol=1e-12)


def test_partial_inverse_at_identity_origin():
    rng = np.random.default_rng(36)
    xi = random_state(rng, 0)
    X = state_action_inverse(identity_state(), xi)
    assert np.allclose(X.nav, xi.pose, atol=1e-12)


def test_transitivity_spot_check():
    rng = np.random.default_rng(37)
    for _ in range(50):
        xi1 = random_state(rng, 1)
        xi2 = random_state(rng, 1)
        X = state_action_inverse(xi1, xi2)
        states_close(state_action(X, xi1), xi2, tol=1e-10)


# --- input action ---------------------------------------------------------------

def test_input_action_identity():
    rng = np.random.default_rng(38)
    u = random_input(rng)
    v = input_action(group_identity(0), u)
    assert np.allclose(v.nav, u.nav, atol=1e-14)
    assert np.allclose(v.tau, u.tau, atol=1e-14)
    assert np.allclose(v.mu, u.mu, atol=1e-14)


def test_input_action_composition():
    rng = np.random.default_rng(39)
    for _ in range(500):
        u = random_input(rng)
        X = random_group(rng)
        Y = random_group(rng)
        lhs = input_action(group_compose(X, Y), u)
        rhs = input_action(Y, input_action(X, u))
        assert np.allclose(lhs.nav, rhs.nav, atol=1e-10)
        assert np.allclose(lhs.tau, rhs.tau, atol=1e-10)
        assert np.allclose(lhs.mu, rhs.mu, atol=1e-10)


def test_input_action_preserves_unit_slot():
    rng = np.random.default_rng(40)
    for _ in range(200):
        v = input_action(random_group(rng), random_input(rng))
        assert v.nav[9] == 1.0


# --- discrete dynamics ----------------------------------------------------------

def test_dynamics_pure_translation_no_gravity():
    xi = SystemState(
        pose=SE23.from_components(np.eye(3), np.array([1.0, -2.0, 0.5]), np.zeros(3)),
        bias=np.zeros(9),
        cal=np.eye(4),
    )
    u = SystemInput.from_imu(np.zeros(3), np.zeros(3))
    out = discrete_dynamics(xi, u, 0.25, gravity=np.zeros(3))
    assert np.allclose(out.attitude(), np.eye(3), atol=1e-14)
    assert np.allclose(out.velocity(), [1.0, -2.0, 0.5], atol=1e-14)
    assert np.allclose(out.position(), [0.25, -0.5, 0.125], atol=1e-14)


def test_dynamics_gravity_free_fall():
    xi = SystemState(
        pose=SE23.from_components(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3)),
        bias=np.zeros(9),
        cal=np.eye(4),
    )
    u = SystemInput.from_imu(np.zeros(3), np.zeros(3))
    out = discrete_dynamics(xi, u, 0.1)
    assert np.allclose(out.velocity(), [1.0, 0.0, -0.981], atol=1e-12)
    assert np.allclose(out.position(), [0.1, 0.0, -0.04905], atol=1e-12)


def test_gravity_step_is_the_gravity_exponential_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        dt = 10.0 ** rng.uniform(-4.0, 0.0)
        g = rng.standard_normal(3) * 10.0 ** rng.uniform(-1.0, 1.5)
        assert np.array_equal(gravity_step(dt, g), Gal3.exp(-dt * gravity_generator(g)))


def test_dynamics_matches_rk4_oracle():
    # Runge-Kutta integration of the continuous kinematics with the input
    # held constant; the discretization is exact for constant input, so any
    # defect beyond the oracle's own truncation indicates an error.
    rng = np.random.default_rng(41)
    from eqfrio.symmetry import GRAVITY

    def rk4_flow(xi, u, dt, steps=50):
        R, v, p = SE23.components(xi.pose)
        bw, ba, bn = xi.bias[0:3], xi.bias[3:6], xi.bias[6:9]
        h = dt / steps
        from eqfrio.lie import SO3

        for _ in range(steps):
            def deriv(R, v, p):
                dR = R @ SO3.wedge(u.gyro - bw)
                dv = R @ (u.nav[3:6] - ba) + GRAVITY
                dp = v + R @ (u.nav[6:9] - bn)  # virtual velocity slot
                return dR, dv, dp

            k1 = deriv(R, v, p)
            k2 = deriv(R + 0.5 * h * k1[0], v + 0.5 * h * k1[1], p + 0.5 * h * k1[2])
            k3 = deriv(R + 0.5 * h * k2[0], v + 0.5 * h * k2[1], p + 0.5 * h * k2[2])
            k4 = deriv(R + h * k3[0], v + h * k3[1], p + h * k3[2])
            R = R + (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            p = p + (h / 6) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        return v, p

    xi = random_state(rng)
    u = random_input(rng)
    for dt in [0.05, 0.1]:
        out = discrete_dynamics(xi, u, dt)
        v_ref, p_ref = rk4_flow(xi, u, dt)
        assert np.allclose(out.velocity(), v_ref, atol=1e-8)
        assert np.allclose(out.position(), p_ref, atol=1e-8)


def test_dynamics_rejects_nonpositive_dt():
    rng = np.random.default_rng(42)
    with pytest.raises(ValueError):
        discrete_dynamics(random_state(rng), random_input(rng), 0.0)


# --- lift -------------------------------------------------------------------------

def test_lift_zero_step_limit():
    rng = np.random.default_rng(43)
    xi = random_state(rng, 1)
    u = random_input(rng)
    L = lift(xi, u, 1e-12)
    groups_close(L, group_identity(1), tol=1e-9)


@pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.1])
def test_galilean_products_stay_extended_poses(dt):
    # G D E has time shift -dt + dt, exactly 0, so the step results are used
    # as extended poses without projection: rows 3-4 must be exact, also
    # after many steps
    rng = np.random.default_rng(45)
    rows = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    for _ in range(20):
        X, xi, u = random_group(rng, 2), random_state(rng, 2), random_input(rng, 3.0)
        assert np.array_equal(lift(xi, u, dt).nav[3:5], rows)
        for _ in range(10):
            X = propagation_step(X, u.nav, dt)[0]
            xi = discrete_dynamics(xi, u, dt)
            assert np.array_equal(X.nav[3:5], rows)
            assert np.array_equal(xi.pose[3:5], rows)


@pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.1])
def test_lift_condition(dt):
    rng = np.random.default_rng(44)
    for _ in range(500):
        k = int(rng.integers(0, 3))
        xi = random_state(rng, k)
        u = random_input(rng)
        lhs = state_action(lift(xi, u, dt), xi)
        rhs = discrete_dynamics(xi, u, dt)
        states_close(lhs, rhs, tol=1e-9)


@pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.1])
def test_dynamics_equivariance(dt):
    rng = np.random.default_rng(45)
    for _ in range(500):
        k = int(rng.integers(0, 3))
        xi = random_state(rng, k)
        u = random_input(rng)
        X = random_group(rng, k)
        lhs = discrete_dynamics(state_action(X, xi), input_action(X, u), dt)
        rhs = state_action(X, discrete_dynamics(xi, u, dt))
        states_close(lhs, rhs, tol=1e-9)


# the filter's lifted step: the mean of `propagation_step`

def test_lifted_step_consistency():
    rng = np.random.default_rng(46)
    origin = identity_state(1)
    for _ in range(100):
        X = random_group(rng, 1)
        u = random_imu_input(rng)
        X_next = propagation_step(X, u.nav, 0.01)[0]
        lhs = state_action(X_next, origin)
        rhs = discrete_dynamics(state_action(X, origin), u, 0.01)
        states_close(lhs, rhs, tol=1e-9)


def test_lifted_step_from_identity():
    rng = np.random.default_rng(47)
    origin = identity_state()
    u = random_imu_input(rng)
    X_next = propagation_step(group_identity(), u.nav, 0.02)[0]
    groups_close(X_next, lift(origin, u, 0.02), tol=1e-12)


def test_lifted_step_halving_agrees_to_rounding():
    # the input is held and the estimated biases and extrinsic do not move
    # within a step, so two half steps compose to one step
    rng = np.random.default_rng(48)
    X = random_group(rng)
    u = random_imu_input(rng)
    for dt in (0.2, 0.1):
        one = propagation_step(X, u.nav, dt)[0]
        half = propagation_step(propagation_step(X, u.nav, dt / 2)[0], u.nav, dt / 2)[0]
        assert np.allclose(one.nav, half.nav, rtol=0.0, atol=1e-12)
        assert np.allclose(one.bias_shift, half.bias_shift, rtol=0.0, atol=1e-12)
        assert np.allclose(one.cal, half.cal, rtol=0.0, atol=1e-12)


# --- error chart -------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_error_zero_at_consistent_state(k):
    rng = np.random.default_rng(49)
    origin = identity_state(k)
    X_hat = random_group(rng, k)
    xi = state_action(X_hat, origin)
    eps = error_coordinates(X_hat, xi, origin)
    assert eps.shape == (24 + 6 * k,)
    assert np.allclose(eps, 0.0, atol=1e-10)


@pytest.mark.parametrize("k", [0, 2])
def test_error_chart_roundtrip(k):
    rng = np.random.default_rng(50)
    origin = identity_state(k)
    for _ in range(500 if k == 0 else 100):
        X_hat = random_group(rng, k)
        eps = 0.3 * rng.standard_normal(24 + 6 * k)
        xi = state_action(group_compose(error_inverse(eps), X_hat), origin)
        back = error_coordinates(X_hat, xi, origin)
        assert np.allclose(back, eps, atol=1e-9)


def test_error_chart_first_order():
    rng = np.random.default_rng(51)
    origin = identity_state()
    for _ in range(20):
        X_hat = random_group(rng)
        eta = 1e-4 * rng.standard_normal(24)
        xi = state_action(group_compose(error_inverse(eta), X_hat), origin)
        eps = error_coordinates(X_hat, xi, origin)
        assert np.allclose(eps, eta, rtol=1e-3, atol=1e-12)


def test_error_inverse_of_zero_is_identity():
    groups_close(error_inverse(np.zeros(24)), group_identity(0), tol=1e-14)


def test_error_inverse_pure_tangent_slot():
    eps = np.zeros(24)
    eps[9:18] = [1.0, -2.0, 0.5, 0.1, 0.0, 0.3, -0.7, 0.2, 0.9]
    X = error_inverse(eps)
    assert np.allclose(X.nav, np.eye(5), atol=1e-14)
    assert np.allclose(X.bias_shift, eps[9:18], atol=1e-14)


def test_error_nonzero_off_consistency():
    # freeness at the chart level: error is zero only at the matched state
    rng = np.random.default_rng(52)
    origin = identity_state()
    X_hat = random_group(rng)
    xi = state_action(X_hat, origin)
    xi_off = SystemState(pose=xi.pose, bias=xi.bias + 1e-3, cal=xi.cal)
    eps = error_coordinates(X_hat, xi_off, origin)
    assert np.linalg.norm(eps) > 1e-5


def test_error_coordinates_at_half_turn():
    # a pi-rotation discrepancy is on the chart's boundary: a finite error
    # whose attitude block is the half turn
    origin = identity_state()
    X_hat = group_identity(0)
    from eqfrio.lie import SO3

    flipped = SystemState(
        pose=SE23.from_components(SO3.exp([np.pi, 0.0, 0.0]), np.zeros(3),
                                  np.zeros(3)),
        bias=np.zeros(9),
        cal=np.eye(4),
    )
    eps = error_coordinates(X_hat, flipped, origin)
    assert np.all(np.isfinite(eps))
    assert np.linalg.norm(eps[0:3]) == pytest.approx(np.pi, abs=1e-15)
