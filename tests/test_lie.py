"""Group kernel tests: closed forms against matrix-exponential, conjugation,
quadrature and finite-difference oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from eqfrio.lie import (
    GROUPS,
    SE3,
    SE23,
    SO3,
    Gal3,
    TangentSE23,
    project_algebra,
    project_group,
    skew,
)
from helpers import (
    adjoint_conjugation_oracle,
    assert_close,
    central_difference,
    expm_oracle,
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
    I = group.identity()
    for _ in range(1000):
        X = random_element(rng, group)
        Y = random_element(rng, group)
        Z = random_element(rng, group)
        assert np.allclose(group.compose(X, I), X, atol=1e-10)
        assert np.allclose(group.compose(I, X), X, atol=1e-10)
        assert np.allclose(group.compose(X, group.inverse(X)), I, atol=1e-10)
        assert np.allclose(
            group.compose(group.compose(X, Y), Z),
            group.compose(X, group.compose(Y, Z)),
            atol=1e-10,
        )


def test_gal3_composition_rule():
    rng = np.random.default_rng(3)
    for _ in range(100):
        X = random_element(rng, Gal3)
        Y = random_element(rng, Gal3)
        A1, a1, b1, c1 = Gal3.components(X)
        A2, a2, b2, c2 = Gal3.components(Y)
        Z = Gal3.compose(X, Y)
        A, a, b, c = Gal3.components(Z)
        assert np.allclose(A, A1 @ A2, atol=1e-12)
        assert np.allclose(a, A1 @ a2 + a1, atol=1e-12)
        assert np.allclose(b, A1 @ b2 + a1 * c2 + b1, atol=1e-12)
        assert np.isclose(c, c1 + c2)


def test_tangent_group_inverse():
    rng = np.random.default_rng(4)
    for _ in range(200):
        X = (random_element(rng, SE23), rng.standard_normal(9))
        D, d = TangentSE23.compose(X, TangentSE23.inverse(X))
        assert np.allclose(D, np.eye(5), atol=1e-10)
        assert np.allclose(d, 0.0, atol=1e-10)
        Dinv, dinv = TangentSE23.inverse(X)
        assert np.allclose(dinv, -SE23.adjoint(Dinv) @ X[1], atol=1e-12)


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
        assert np.allclose(group.log(group.identity()), 0.0, atol=1e-14)


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


def test_log_domain_error_near_pi():
    R = SO3.exp(np.pi * np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="log domain"):
        SO3.log(R)


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
        D, d = TangentSE23.exp(u, w)
        assert_close(E[0:5, 0:5], D, 1e-10, "tangent exp pose")
        assert_close(E[0:5, 5:10], SE23.wedge(d) @ D, 1e-9, "tangent exp slot")
        u2, w2 = TangentSE23.log((D, d))
        assert np.allclose(u2, u, atol=1e-9)
        assert np.allclose(w2, w, atol=1e-9)


# --- adjoints ---------------------------------------------------------------

@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_of_identity(tag, group):
    assert np.allclose(group.adjoint(group.identity()), np.eye(group.dim))


@pytest.mark.parametrize("tag,group", ALL_GROUPS)
def test_adjoint_homomorphism(tag, group):
    rng = np.random.default_rng(8)
    for _ in range(200):
        X = random_element(rng, group)
        Y = random_element(rng, group)
        assert_close(
            group.adjoint(group.compose(X, Y)),
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


# --- projections and row maps -----------------------------------------------

def test_projection_se23_identity_to_se3():
    assert np.allclose(project_group(SE23, SE3, SE23.identity()), np.eye(4))


def test_projection_extracts_pose():
    R = SO3.exp(np.array([0.1, 0.2, -0.3]))
    T = SE23.from_components(R, np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    P = project_group(SE23, SE3, T)
    Rp, p = SE3.components(P)
    assert np.allclose(Rp, R)
    assert np.allclose(p, [4.0, 5.0, 6.0])


def test_projection_roundtrip_se23_gal3():
    rng = np.random.default_rng(15)
    X = random_element(rng, SE23)
    assert np.allclose(project_group(Gal3, SE23, project_group(SE23, Gal3, X)), X)


def test_projection_unsupported_pair():
    with pytest.raises(ValueError, match="unsupported"):
        project_group(SO3, Gal3, np.eye(3))


def test_algebra_projection_appends_zero():
    u = np.arange(9.0)
    w = project_algebra(SE23, Gal3, u)
    assert w.shape == (10,)
    assert w[9] == 0.0
    assert np.allclose(project_algebra(Gal3, SE23, w), u)


def test_gal3_exp_projection_compatibility():
    # embedding se23 coordinates with zero time and exponentiating in Gal(3)
    # must agree with the SE2(3) exponential
    rng = np.random.default_rng(16)
    for _ in range(100):
        v = random_coords(rng, SE23)
        lifted = Gal3.exp(project_algebra(SE23, Gal3, v))
        assert_close(project_group(Gal3, SE23, lifted), SE23.exp(v), 1e-12,
                     "gal3/se23 exp compatibility")
