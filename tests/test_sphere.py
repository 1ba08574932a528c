"""Range/bearing manifold operators: the tangent basis, the retraction
Jacobian, and the range/bearing perturbation of radar points."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eqfrio.lie import SO3, sphere_basis, sphere_jacobian
from eqfrio.measurements import apply_spherical_noise
from helpers import assert_close, central_difference


def test_decompose_simple():
    # at e1 the basis is (-e3, e2): a quarter turn along t1 takes e1 to -e2
    out = apply_spherical_noise([3.0, 0.0, 0.0], [1.0, np.pi / 2, 0.0])
    assert np.abs(out - [0.0, -4.0, 0.0]).max() <= 1e-15


def test_decompose_compose_roundtrip():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((1000, 3)) * 5.0
    x = x[np.linalg.norm(x, axis=-1) >= 1e-3]
    step = np.zeros_like(x)
    step[:, 0] = rng.random(len(x))
    back = apply_spherical_noise(apply_spherical_noise(x, step), -step)
    assert np.allclose(back, x, atol=1e-12)


def test_decompose_degenerate_point():
    with pytest.raises(ValueError, match="degenerate"):
        apply_spherical_noise([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-9]], np.zeros((2, 3)))


def test_basis_at_pole():
    N = sphere_basis([0.0, 0.0, 1.0])
    assert np.allclose(N, np.eye(3)[:, 0:2])


def test_basis_at_negative_pole():
    N = sphere_basis([0.0, 0.0, -1.0])
    rho = np.array([0.0, 0.0, -1.0])
    assert np.allclose(rho @ N, 0.0, atol=1e-12)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-12)


def test_basis_orthogonality_random():
    rng = np.random.default_rng(21)
    for _ in range(500):
        rho = rng.standard_normal(3)
        rho /= np.linalg.norm(rho)
        N = sphere_basis(rho)
        assert np.allclose(rho @ N, 0.0, atol=1e-10)
        assert np.allclose(N.T @ N, np.eye(2), atol=1e-10)


def _bearing(polar, azimuth):
    return np.array([np.sin(polar) * np.cos(azimuth),
                     np.sin(polar) * np.sin(azimuth),
                     np.cos(polar)])


def _assert_right_handed_tangent_frame(rho):
    N = sphere_basis(rho)
    assert np.abs(N.T @ N - np.eye(2)).max() <= 1e-12
    assert np.abs(rho @ N).max() <= 1e-12
    assert abs(np.linalg.det(np.column_stack([N, rho])) - 1.0) <= 1e-12


AZIMUTH = st.floats(-np.pi, np.pi)


@pytest.mark.parametrize("rho", [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                 [5e-324, 0.0, -1.0], [8e-13, 0.0, -1.0],
                                 [-3e-9, 4e-9, 1.0]])
def test_basis_frame_at_and_next_to_poles(rho):
    _assert_right_handed_tangent_frame(np.array(rho))


# offsets from -e3 up to just inside arccos(0.999) = 0.04472...
@settings(max_examples=300, deadline=None)
@given(offset=st.floats(0.0, 0.0447), azimuth=AZIMUTH)
@example(offset=0.0, azimuth=0.0)
@example(offset=5e-324, azimuth=1.0)
@example(offset=1e-12, azimuth=-2.0)
def test_basis_frame_in_cap_around_negative_pole(offset, azimuth):
    rho = _bearing(np.pi - offset, azimuth)
    assert rho[2] < -0.999
    _assert_right_handed_tangent_frame(rho)


@settings(max_examples=300, deadline=None)
@given(polar=st.floats(0.0, np.pi), azimuth=AZIMUTH)
def test_basis_frame_random_bearings(polar, azimuth):
    _assert_right_handed_tangent_frame(_bearing(polar, azimuth))


@settings(max_examples=300, deadline=None)
@given(polar=st.floats(0.0, np.pi), azimuth=AZIMUTH)
@example(polar=np.pi - 1e-6, azimuth=0.3)
def test_basis_matches_rotation_taking_e3_to_bearing(polar, azimuth):
    rho = _bearing(polar, azimuth)
    axis = np.cross([0.0, 0.0, 1.0], rho)
    s = np.linalg.norm(axis)
    assume(s >= 1e-6)
    R = SO3.exp(axis / s * np.arctan2(s, rho[2]))
    assert np.abs(sphere_basis(rho) - R[:, 0:2]).max() <= 1e-12


def test_basis_and_jacobian_stack_equal_single_calls():
    rng = np.random.default_rng(25)
    points = rng.standard_normal((4, 5, 3)) * 3.0
    points[0, 0] = [0.0, 0.0, -2.0]
    rho = points / np.linalg.norm(points, axis=-1, keepdims=True)
    N, J = sphere_basis(rho), sphere_jacobian(points)
    assert N.shape == (4, 5, 3, 2) and J.shape == (4, 5, 3, 3)
    for i in np.ndindex(4, 5):
        assert np.abs(N[i] - sphere_basis(rho[i])).max() <= 1e-15
        assert np.abs(J[i] - sphere_jacobian(points[i])).max() <= 1e-15


def test_jacobian_degenerate_point_in_stack():
    with pytest.raises(ValueError, match="degenerate"):
        sphere_jacobian([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-9]])


def test_basis_at_e1_matches_defining_formula():
    rho = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    axis = np.cross(e3, rho)
    angle = np.arctan2(np.linalg.norm(axis), e3 @ rho)
    R = SO3.exp(axis / np.linalg.norm(axis) * angle)
    assert np.allclose(sphere_basis(rho), R[:, 0:2], atol=1e-12)


def test_jacobian_first_column_is_bearing():
    J = sphere_jacobian([1.0, 0.0, 0.0])
    assert np.allclose(J[:, 0], [1.0, 0.0, 0.0])


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = rng.standard_normal(3) * 3.0
        if np.linalg.norm(p) < 0.1:
            continue

        Jfd = central_difference(lambda eta: apply_spherical_noise(p, eta),
                                 np.zeros(3), step=1e-6)
        assert_close(Jfd, sphere_jacobian(p), 1e-6, "sphere jacobian FD")


def test_jacobian_scaling():
    rng = np.random.default_rng(23)
    p = rng.standard_normal(3)
    J1 = sphere_jacobian(p)
    J2 = sphere_jacobian(2.5 * p)
    assert np.allclose(J2[:, 0], J1[:, 0], atol=1e-12)
    assert np.allclose(J2[:, 1:3], 2.5 * J1[:, 1:3], atol=1e-12)


COORD = st.floats(-10.0, 10.0)
POINT = st.tuples(COORD, COORD, COORD).filter(lambda p: np.linalg.norm(p) >= 1e-3)
ETA = st.tuples(st.floats(-0.5, 0.5), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(POINT, min_size=1, max_size=8))
def test_boxplus_zero_perturbation(points):
    points = np.array(points)
    out = apply_spherical_noise(points, np.zeros_like(points))
    assert np.abs(out - points).max() <= 1e-14 * np.abs(points).max()


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(POINT, ETA), min_size=1, max_size=8))
def test_boxplus_bearing_stays_unit(pairs):
    points, eta = (np.array(v) for v in zip(*pairs))
    moved = np.linalg.norm(points, axis=-1) + eta[:, 0]
    assume((moved > 1e-3).all())
    out = apply_spherical_noise(points, eta)
    assert np.abs(np.linalg.norm(out, axis=-1) / moved - 1.0).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(POINT, ETA), min_size=1, max_size=8))
def test_noise_stack_equals_single_calls(pairs):
    points, eta = (np.array(v) for v in zip(*pairs))
    assume((np.linalg.norm(points, axis=-1) + eta[:, 0] > 0.0).all())
    out = apply_spherical_noise(points, eta)
    for i in range(len(points)):
        assert np.abs(out[i] - apply_spherical_noise(points[i], eta[i])).max() <= 1e-15


def test_boxplus_pure_range():
    out = apply_spherical_noise([2.0, 0.0, 0.0], [0.5, 0.0, 0.0])
    assert np.abs(out - [2.5, 0.0, 0.0]).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(POINT, ETA), min_size=0, max_size=6),
       at=st.integers(0, 6))
def test_boxplus_negative_range_rejected(pairs, at):
    stack = np.array(pairs, dtype=float).reshape(-1, 2, 3)
    points, eta = stack[:, 0], stack[:, 1]
    eta[:, 0] = np.abs(eta[:, 0])
    at = min(at, len(points))
    points = np.insert(points, at, [0.0, 0.3, 0.0], axis=0)
    eta = np.insert(eta, at, [-0.5, 0.0, 0.0], axis=0)
    with pytest.raises(ValueError, match="negative range"):
        apply_spherical_noise(points, eta)
