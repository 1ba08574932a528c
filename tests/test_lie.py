"""Group kernel tests: closed forms against matrix-exponential, conjugation,
quadrature and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from eqfrio.lie import (
    GROUPS,
    SE3,
    SE23,
    SO3,
    Gal3,
    skew,
)
from helpers import (
    adjoint_conjugation_oracle,
    assert_close,
    central_difference,
    expm_oracle,
    left_jacobian_block_oracle,
    left_jacobian_quadrature_oracle,
    random_coords,
    random_element,
)

ALL_GROUPS = list(GROUPS.items())


# --- wedge / vee ------------------------------------------------------------

def test_wedge_zero_is_zero_matrix():
    assert np.array_equal(SO3.wedge(np.zeros(3)), np.zeros((3, 3)))


def test_wedge_gal3_velocity_basis_slot():
    e = np.zeros(10)
    e[3] = 1.0  # velocity x
    W = Gal3.wedge(e)
    expected = np.zeros((5, 5))
    expected[0, 3] = 1.0
    assert np.array_equal(W, expected)


def test_wedge_gal3_time_slot():
    e = np.zeros(10)
    e[9] = 1.0
    W = Gal3.wedge(e)
    assert W[3, 4] == 1.0
    assert np.count_nonzero(W) == 1


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_wedge_vee_roundtrip(tag, group):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = rng.standard_normal(group.dim)
        assert np.allclose(group.vee(group.wedge(v)), v, atol=1e-12)


def test_vee_zero():
    assert np.array_equal(SO3.vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_se3_roundtrip_values():
    v = np.array([0.1, 0.0, 0.0, 1.0, 2.0, 3.0])
    assert np.allclose(SE3.vee(SE3.wedge(v)), v)


def test_vee_rejects_off_pattern():
    M = np.zeros((5, 5))
    M[4, 0] = 1e-6  # outside the embedded subspace
    with pytest.raises(ValueError, match="embedded"):
        SE23.vee(M)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        SE23.wedge(np.zeros(10))


# --- group axioms -----------------------------------------------------------

@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_group_axioms(tag, group):
    rng = np.random.default_rng(2)
    I = np.eye(group.mat)
    for _ in range(1000):
        X = random_element(rng, group)
        Y = random_element(rng, group)
        Z = random_element(rng, group)
        assert np.allclose(X @ I, X, atol=1e-10)
        assert np.allclose(I @ X, X, atol=1e-10)
        assert np.allclose(X @ group.inverse(X), I, atol=1e-10)
        assert np.allclose((X @ Y) @ Z, X @ (Y @ Z), atol=1e-10)


def test_gal3_composition_rule():
    rng = np.random.default_rng(3)
    for _ in range(100):
        X = random_element(rng, Gal3)
        Y = random_element(rng, Gal3)
        A1, a1, b1, c1 = Gal3.components(X)
        A2, a2, b2, c2 = Gal3.components(Y)
        Z = X @ Y
        A, a, b, c = Gal3.components(Z)
        assert np.allclose(A, A1 @ A2, atol=1e-12)
        assert np.allclose(a, A1 @ a2 + a1, atol=1e-12)
        assert np.allclose(b, A1 @ b2 + a1 * c2 + b1, atol=1e-12)
        assert np.isclose(c, c1 + c2)


# --- exp / log --------------------------------------------------------------

def test_exp_gal3_identity():
    assert np.allclose(Gal3.exp(np.zeros(10)), np.eye(5))


def test_exp_gal3_nilpotent_series():
    alpha = np.array([0.3, -0.2, 0.5])
    gamma = 0.7
    u = np.concatenate([np.zeros(3), alpha, np.zeros(3), [gamma]])
    X = Gal3.exp(u)
    R, a, b, c = Gal3.components(X)
    assert np.allclose(R, np.eye(3))
    assert np.allclose(a, alpha)
    assert np.allclose(b, gamma * alpha / 2.0)
    assert np.isclose(c, gamma)
    assert_close(X, expm_oracle(Gal3, u), 1e-12, "gal3 nilpotent exp")


def test_exp_gal3_gravity_step():
    g = np.array([0.0, 0.0, -9.81])
    dt = 0.01
    # coordinates of the gravity generator: (0, -g, 0, 1), scaled by -dt
    u = -dt * np.concatenate([np.zeros(3), -g, np.zeros(3), [1.0]])
    X = Gal3.exp(u)
    R, a, b, c = Gal3.components(X)
    assert np.allclose(R, np.eye(3))
    assert np.allclose(a, [0.0, 0.0, -0.0981])
    assert np.allclose(b, [0.0, 0.0, 0.0004905])
    assert np.isclose(c, -0.01)
    assert_close(X, expm_oracle(Gal3, u), 1e-12, "gravity step exp")


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_exp_matches_matrix_exponential(tag, group):
    rng = np.random.default_rng(5)
    for _ in range(300):
        u = random_coords(rng, group, rot_scale=1.2, lin_scale=2.0)
        assert_close(group.exp(u), expm_oracle(group, u), 1e-10, f"{tag} exp")


def test_log_identity_is_zero():
    for _, group in ALL_GROUPS:
        assert np.allclose(group.log(np.eye(group.mat)), 0.0, atol=1e-14)


def test_log_single_axis_rotation():
    R = SO3.exp(np.deg2rad(80.0) * np.array([0.0, 1.0, 0.0]))
    assert np.allclose(SO3.log(R), [0.0, 1.3963, 0.0], atol=1e-4)


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_log_exp_roundtrip(tag, group):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u = random_coords(rng, group, rot_scale=1.0, lin_scale=1.5)
        u[0:3] *= 2.9 / max(np.linalg.norm(u[0:3]), 2.9)  # keep below pi
        assert np.allclose(group.log(group.exp(u)), u, atol=1e-9)


@pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                  np.random.default_rng(7).standard_normal(3)],
                         ids=["x", "y", "z", "random"])
def test_log_at_pi(axis):
    # a half turn has the axis only in the symmetric part; either sign is a log
    R = SO3.exp(np.pi * np.asarray(axis) / np.linalg.norm(axis))
    v = SO3.log(R)
    assert np.linalg.norm(v) == pytest.approx(np.pi, abs=1e-15)
    assert np.abs(SO3.exp(v) - R).max() <= 1e-15


def test_log_of_stack_equals_per_matrix_logs():
    # one log for a (2, M, 3, 3) stack, angles from 0 to pi, pi itself included
    rng = np.random.default_rng(9)
    axes = rng.standard_normal((40, 3))
    angles = np.concatenate([[0.0, 1e-9, np.pi - 1e-9, np.pi], rng.uniform(0.0, np.pi, 36)])
    R = np.stack([SO3.exp(t * a / np.linalg.norm(a)) for t, a in zip(angles, axes)])
    stack = R.reshape(2, 20, 3, 3)
    per_matrix = np.stack([[SO3.log(X) for X in row] for row in stack])
    assert np.array_equal(SO3.log(stack), per_matrix)


# --- adjoints ---------------------------------------------------------------

@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_of_identity(tag, group):
    assert np.allclose(group.adjoint(np.eye(group.mat)), np.eye(group.dim))


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_homomorphism(tag, group):
    rng = np.random.default_rng(8)
    for _ in range(200):
        X = random_element(rng, group)
        Y = random_element(rng, group)
        assert_close(
            group.adjoint(X @ Y),
            group.adjoint(X) @ group.adjoint(Y),
            1e-9,
            f"{tag} Ad homomorphism",
        )


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_matches_conjugation(tag, group):
    rng = np.random.default_rng(9)
    for _ in range(200):
        X = random_element(rng, group)
        assert_close(
            group.adjoint(X),
            adjoint_conjugation_oracle(group, X),
            1e-9,
            f"{tag} Ad conjugation",
        )


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_little_adjoint_properties(tag, group):
    rng = np.random.default_rng(10)
    assert np.allclose(group.little_adjoint(np.zeros(group.dim)), 0.0)
    for _ in range(100):
        u = random_coords(rng, group)
        v = random_coords(rng, group)
        # bracket through the embedding
        bracket = group.vee(
            group.wedge(u) @ group.wedge(v) - group.wedge(v) @ group.wedge(u)
        )
        assert np.allclose(group.little_adjoint(u) @ v, bracket, atol=1e-10)
        assert np.allclose(
            group.little_adjoint(u) @ v, -group.little_adjoint(v) @ u, atol=1e-10
        )


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_little_adjoint_is_adjoint_derivative(tag, group):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_coords(rng, group)

        def adj_curve(s):
            return group.adjoint(group.exp(s[0] * u)).ravel()

        J = central_difference(adj_curve, np.zeros(1), step=1e-6)
        assert_close(
            J.reshape(group.dim, group.dim),
            group.little_adjoint(u),
            1e-6,
            f"{tag} d/ds Ad(exp(su))",
        )


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_exp_equals_expm_little_adjoint(tag, group):
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = random_coords(rng, group)
        assert_close(
            group.adjoint(group.exp(u)),
            expm(group.little_adjoint(u)),
            1e-8,
            f"{tag} Ad(exp) vs expm(ad)",
        )


# --- left Jacobian ----------------------------------------------------------

@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_left_jacobian_zero(tag, group):
    assert np.allclose(group.left_jacobian(np.zeros(group.dim)), np.eye(group.dim))


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_left_jacobian_quadrature(tag, group):
    rng = np.random.default_rng(13)
    for _ in range(50):
        # moderate magnitudes keep the Simpson truncation itself below 1e-8
        u = random_coords(rng, group, rot_scale=0.5, lin_scale=0.5)
        assert_close(
            group.left_jacobian(u),
            left_jacobian_quadrature_oracle(group, u),
            1e-8,
            f"{tag} Jl quadrature",
        )


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_left_jacobian_first_order_exp(tag, group):
    # exp(u + e) is exp(wedge(Jl(u) e)) exp(u) to first order
    rng = np.random.default_rng(14)
    for _ in range(20):
        u = random_coords(rng, group, rot_scale=0.8)
        J = group.left_jacobian(u)
        X0 = group.exp(u)

        def factor_coords(e):
            # left factor of exp(u + e) relative to exp(u)
            M = group.exp(u + e) @ group.inverse(X0)
            return group.vee(M - np.eye(group.mat))  # first-order log

        Jfd = central_difference(factor_coords, np.zeros(group.dim), step=1e-7)
        assert_close(Jfd, J, 1e-5, f"{tag} Jl first-order")


# --- properties over the chart: small angles, angles near pi, long arms ------

AXIS = st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(lambda a: np.linalg.norm(a) >= 0.1)
# translational parts up to 50 push the little adjoint's norm past 1, so the
# left Jacobian takes its argument-halving path
LINEAR = st.lists(st.floats(-50.0, 50.0), min_size=7, max_size=7)
FAR_ANGLE = np.pi - 1e-3
NEAR_PI = np.pi - 1e-12
# log(exp(u)) relative error over [0, pi - 1e-12], measured worst in 20,000
# random draws with arms up to 50: so3 4.9e-16, se3 8.6e-16, se23 8.1e-16,
# gal3 1.1e-14 (gal3 at any angle: its log subtracts the time coupling
# c N(rot) vel, up to 2,500 here, from the position)
ROUNDTRIP_RTOL = {"so3": 5e-15, "se3": 5e-15, "se23": 5e-15, "gal3": 5e-14}
# exp(u) against scipy's expm over [0, pi - 1e-3], measured worst in 20,000
# draws per group with arms up to 50 (a third of the angles uniform, a third
# in [1e-12, 1], a third in [1e-12, 1] below pi - 1e-3): so3 2.7e-15,
# se3 3.7e-15, se23 4.3e-15, gal3 1.2e-14
EXP_RTOL = {"so3": 1e-14, "se3": 1e-14, "se23": 1e-14, "gal3": 5e-14}


def _coords(group, angle, axis, linear):
    u = np.empty(group.dim)
    u[0:3] = angle * np.asarray(axis) / np.linalg.norm(axis)
    u[3:] = linear[: group.dim - 3]
    return u


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
@settings(max_examples=50, deadline=None)
@given(angle=st.floats(0.0, NEAR_PI), axis=AXIS, linear=LINEAR)
def test_log_exp_roundtrip_property(tag, group, angle, axis, linear):
    u = _coords(group, angle, axis, linear)
    assert_close(group.log(group.exp(u)), u, ROUNDTRIP_RTOL[tag], f"{tag} log(exp(u))")


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
@settings(max_examples=50, deadline=None)
@given(angle=st.floats(0.0, FAR_ANGLE), axis=AXIS, linear=LINEAR)
def test_exp_matches_expm_property(tag, group, angle, axis, linear):
    u = _coords(group, angle, axis, linear)
    assert_close(group.exp(u), expm(group.wedge(u)), EXP_RTOL[tag], f"{tag} exp")


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
@settings(max_examples=50, deadline=None)
@given(angle=st.floats(0.0, FAR_ANGLE), axis=AXIS, linear=LINEAR)
def test_left_jacobian_matches_block_exponential(tag, group, angle, axis, linear):
    # measured worst 6.1e-15 relative, in the draws of EXP_RTOL
    u = _coords(group, angle, axis, linear)
    assert_close(group.left_jacobian(u), left_jacobian_block_oracle(group, u), 1e-13,
                 f"{tag} Jl")


def test_gal3_exp_matches_expm_at_small_rotations():
    # rotations of 0.01-0.07 rad are the run loop's per-step range; there the
    # trig forms of the Jacobian coefficients cancel, so the series must hold
    # them.  Measured worst 3.1e-15 (2.8e-13 with the trig forms).
    rng = np.random.default_rng(17)
    for _ in range(300):
        axis = rng.standard_normal(3)
        u = np.concatenate([rng.uniform(0.01, 0.07) * axis / np.linalg.norm(axis),
                            rng.uniform(-50.0, 50.0, 6), [rng.uniform(-1.0, 1.0)]])
        desired = expm(Gal3.wedge(u))
        assert np.abs(Gal3.exp(u) - desired).max() <= 1e-14 * np.abs(desired).max()


# --- SE2(3) inside Gal(3) ----------------------------------------------------

def test_gal3_exp_projection_compatibility():
    # se23 coordinates with a zero time entry exponentiate in Gal(3) to the
    # SE2(3) exponential itself: an SE2(3) matrix is a Gal(3) one with c = 0.
    # At c = 0 every extra Gal(3) term of log, adjoint and inverse is an exact
    # zero, so those agree exactly; the left Jacobians take different series
    # (measured 2.2e-16 over 20,000 draws)
    rng = np.random.default_rng(16)
    for _ in range(100):
        v = random_coords(rng, SE23)
        u = np.append(v, 0.0)
        assert_close(Gal3.exp(u), SE23.exp(v), 1e-12, "gal3/se23 exp compatibility")
        X = SE23.exp(v)
        assert np.array_equal(Gal3.log(X)[0:9], SE23.log(X))
        assert np.array_equal(Gal3.adjoint(X)[0:9, 0:9], SE23.adjoint(X))
        assert np.array_equal(Gal3.inverse(X), SE23.inverse(X))
        assert_close(Gal3.left_jacobian(u)[0:9, 0:9], SE23.left_jacobian(v), 1e-14,
                     "gal3/se23 left Jacobian")
