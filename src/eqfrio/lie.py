"""Matrix Lie group kernel for inertial navigation.

Groups: SO(3) rotations, SE(3) rigid transforms, SE2(3) extended poses
(rotation, velocity, position) and Gal(3), which extends SE2(3) with a time
shift so that one exponential integrates gravity, velocity and position over
a step.  Also contains the tangent basis and retraction Jacobian of
range/bearing points on R x S^2 used by the radar noise model.

Conventions:
  * Group elements are plain numpy arrays in homogeneous matrix form:
    3x3 (SO3), 4x4 (SE3), 5x5 (SE23, Gal3).
  * Algebra coordinates are ordered (rotation, velocity, translation, time),
    truncated to whatever the group supports: so3 -> 3, se3 -> 6, se23 -> 9,
    gal3 -> 10.
  * A Gal(3) element is [[A, a, b], [0, 1, c], [0, 0, 1]] with velocity
    column a, position column b and time shift c.  Its algebra embedding
    places the time entry at block row 4, column 5, which makes the position
    column of exp() pick up the velocity * time / 2 coupling of uniformly
    accelerated motion.  Setting c = 0 recovers the standard SE2(3) matrix.
"""

from __future__ import annotations

import math

import numpy as np

# Radar returns closer than this are degenerate for bearing extraction.
KAPPA_MIN = 1e-6

_SERIES_CUTOFF = 1e-14
_SERIES_MAX_TERMS = 30

_ID3 = np.eye(3)
_ID4 = np.eye(4)
_ID5 = np.eye(5)


def skew(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"skew expects a 3-vector, got shape {v.shape}")
    out = np.zeros((3, 3))
    out[0, 1] = -v[2]
    out[0, 2] = v[1]
    out[1, 0] = v[2]
    out[1, 2] = -v[0]
    out[2, 0] = -v[1]
    out[2, 1] = v[0]
    return out


def unskew(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _series(core: np.ndarray, first_denominator: int) -> np.ndarray:
    """sum_k core^k / (k + first_denominator - 1)! ... with term-norm cutoff.

    first_denominator = 2 gives sum core^k/(k+1)! (the left Jacobian series),
    first_denominator = 3 gives sum core^k/(k+2)! (its second-order sibling).
    """
    n = core.shape[0]
    start = 1.0 / float(math.factorial(first_denominator - 1))
    total = start * np.eye(n)
    term = total.copy()
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term @ core / (k + first_denominator - 1)
        total += term
        if np.abs(term).max() < _SERIES_CUTOFF:
            break
    return total


def _left_jacobian_stable(group, u: np.ndarray) -> np.ndarray:
    """Left Jacobian by argument halving.

    The truncated series diverges numerically once the little adjoint's norm
    exceeds the term budget's convergence range, which happens for transported
    inputs far from the origin.  Using V(s) = integral of Ad(exp(tau u)) over
    [0, s], the doubling identity V(2s) = (I + Ad(exp(s u))) V(s) reduces any
    argument to the series' safe range, with closed-form exponentials at each
    scale.  J_l(u) = V(1).
    """
    ad = group.little_adjoint(u)
    norm = np.linalg.norm(ad, 1)
    if norm <= 1.0:
        return _series(ad, 2)
    doublings = int(np.ceil(np.log2(norm)))
    s = 0.5**doublings
    V = s * _series(s * ad, 2)
    for _ in range(doublings):
        V = (np.eye(group.dim) + group.adjoint(group.exp(s * u))) @ V
        s *= 2.0
    return V


def _so3_left_jacobian(rotvec: np.ndarray) -> np.ndarray:
    """I + (1-cos)/t^2 W + (t-sin)/t^3 W^2, Taylor below the trig-stable range."""
    t2 = float(rotvec @ rotvec)
    W = skew(rotvec)
    if t2 < 1e-4:
        c1 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c2 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        t = math.sqrt(t2)
        c1 = (1.0 - math.cos(t)) / t2
        c2 = (t - math.sin(t)) / (t2 * t)
    return _ID3 + c1 * W + c2 * (W @ W)


def _so3_second_jacobian(rotvec: np.ndarray) -> np.ndarray:
    # sum_k skew^k / (k+2)!; couples velocity into position through the
    # Gal(3) time slot.
    t2 = float(rotvec @ rotvec)
    W = skew(rotvec)
    if t2 < 1e-4:
        c1 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        c2 = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0
    else:
        t = math.sqrt(t2)
        c1 = (t - math.sin(t)) / (t2 * t)
        c2 = (math.cos(t) - 1.0 + 0.5 * t2) / (t2 * t2)
    return 0.5 * _ID3 + c1 * W + c2 * (W @ W)


def _check_coords(tag: str, v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{tag} coordinates must have shape ({dim},), got {v.shape}")
    return v


def _check_embedded(tag: str, M: np.ndarray, rebuilt: np.ndarray) -> None:
    if np.max(np.abs(M - rebuilt)) > 1e-9:
        raise ValueError(f"matrix is not in the embedded {tag} subspace")


class SO3:
    """Rotation group, elements are 3x3 matrices."""

    dim = 3
    mat = 3

    @staticmethod
    def wedge(v) -> np.ndarray:
        return skew(_check_coords("so3", v, 3))

    @staticmethod
    def vee(M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (3, 3):
            raise ValueError(f"so3 vee expects a 3x3 matrix, got {M.shape}")
        v = unskew(M)
        _check_embedded("so3", M, skew(v))
        return v

    @staticmethod
    def identity() -> np.ndarray:
        return np.eye(3)

    @staticmethod
    def compose(X, Y) -> np.ndarray:
        return X @ Y

    @staticmethod
    def inverse(X) -> np.ndarray:
        return np.asarray(X).T.copy()

    @staticmethod
    def exp(v) -> np.ndarray:
        v = _check_coords("so3", v, 3)
        angle = math.sqrt(v @ v)
        K = skew(v)
        if angle < 1e-10:
            return _ID3 + K + 0.5 * K @ K
        s, c = np.sin(angle), np.cos(angle)
        return _ID3 + (s / angle) * K + ((1.0 - c) / angle**2) * (K @ K)

    @staticmethod
    def log(R) -> np.ndarray:
        R = np.asarray(R, dtype=float)
        cos_angle = np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0)
        angle = np.arccos(cos_angle)
        if angle >= np.pi - 1e-6:
            raise ValueError("log domain: rotation angle too close to pi")
        v = unskew(0.5 * (R - R.T))
        if angle < 1e-8:
            return v
        return (angle / np.sin(angle)) * v

    @staticmethod
    def adjoint(R) -> np.ndarray:
        return np.asarray(R, dtype=float).copy()

    @staticmethod
    def little_adjoint(v) -> np.ndarray:
        return skew(_check_coords("so3", v, 3))

    @staticmethod
    def left_jacobian(v) -> np.ndarray:
        return _so3_left_jacobian(_check_coords("so3", v, 3))


class SE3:
    """Rigid transforms, elements are 4x4 matrices, coordinates (rot, trans)."""

    dim = 6
    mat = 4

    @staticmethod
    def from_components(R, t) -> np.ndarray:
        X = _ID4.copy()
        X[0:3, 0:3] = R
        X[0:3, 3] = t
        return X

    @staticmethod
    def components(X) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        return X[0:3, 0:3], X[0:3, 3]

    @staticmethod
    def apply(X, p) -> np.ndarray:
        R, t = SE3.components(X)
        return R @ np.asarray(p, dtype=float) + t

    @staticmethod
    def wedge(v) -> np.ndarray:
        v = _check_coords("se3", v, 6)
        W = np.zeros((4, 4))
        W[0:3, 0:3] = skew(v[0:3])
        W[0:3, 3] = v[3:6]
        return W

    @staticmethod
    def vee(M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (4, 4):
            raise ValueError(f"se3 vee expects a 4x4 matrix, got {M.shape}")
        v = np.concatenate([unskew(M[0:3, 0:3]), M[0:3, 3]])
        _check_embedded("se3", M, SE3.wedge(v))
        return v

    @staticmethod
    def identity() -> np.ndarray:
        return np.eye(4)

    @staticmethod
    def compose(X, Y) -> np.ndarray:
        return X @ Y

    @staticmethod
    def inverse(X) -> np.ndarray:
        R, t = SE3.components(X)
        return SE3.from_components(R.T, -R.T @ t)

    @staticmethod
    def exp(v) -> np.ndarray:
        v = _check_coords("se3", v, 6)
        J = _so3_left_jacobian(v[0:3])
        return SE3.from_components(SO3.exp(v[0:3]), J @ v[3:6])

    @staticmethod
    def log(X) -> np.ndarray:
        R, t = SE3.components(X)
        rot = SO3.log(R)
        J = _so3_left_jacobian(rot)
        return np.concatenate([rot, np.linalg.solve(J, t)])

    @staticmethod
    def adjoint(X) -> np.ndarray:
        R, t = SE3.components(X)
        Ad = np.zeros((6, 6))
        Ad[0:3, 0:3] = R
        Ad[3:6, 0:3] = skew(t) @ R
        Ad[3:6, 3:6] = R
        return Ad

    @staticmethod
    def little_adjoint(v) -> np.ndarray:
        v = _check_coords("se3", v, 6)
        ad = np.zeros((6, 6))
        ad[0:3, 0:3] = skew(v[0:3])
        ad[3:6, 0:3] = skew(v[3:6])
        ad[3:6, 3:6] = skew(v[0:3])
        return ad

    @staticmethod
    def left_jacobian(v) -> np.ndarray:
        return _left_jacobian_stable(SE3, np.asarray(v, dtype=float))


class SE23:
    """Extended poses, 5x5 matrices, coordinates (rot, vel, pos)."""

    dim = 9
    mat = 5

    @staticmethod
    def from_components(R, v, p) -> np.ndarray:
        X = _ID5.copy()
        X[0:3, 0:3] = R
        X[0:3, 3] = v
        X[0:3, 4] = p
        return X

    @staticmethod
    def components(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        return X[0:3, 0:3], X[0:3, 3], X[0:3, 4]

    @staticmethod
    def wedge(v) -> np.ndarray:
        v = _check_coords("se23", v, 9)
        W = np.zeros((5, 5))
        W[0:3, 0:3] = skew(v[0:3])
        W[0:3, 3] = v[3:6]
        W[0:3, 4] = v[6:9]
        return W

    @staticmethod
    def vee(M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (5, 5):
            raise ValueError(f"se23 vee expects a 5x5 matrix, got {M.shape}")
        v = np.concatenate([unskew(M[0:3, 0:3]), M[0:3, 3], M[0:3, 4]])
        _check_embedded("se23", M, SE23.wedge(v))
        return v

    @staticmethod
    def identity() -> np.ndarray:
        return np.eye(5)

    @staticmethod
    def compose(X, Y) -> np.ndarray:
        return X @ Y

    @staticmethod
    def inverse(X) -> np.ndarray:
        R, v, p = SE23.components(X)
        return SE23.from_components(R.T, -R.T @ v, -R.T @ p)

    @staticmethod
    def exp(u) -> np.ndarray:
        u = _check_coords("se23", u, 9)
        J = _so3_left_jacobian(u[0:3])
        return SE23.from_components(SO3.exp(u[0:3]), J @ u[3:6], J @ u[6:9])

    @staticmethod
    def log(X) -> np.ndarray:
        R, v, p = SE23.components(X)
        rot = SO3.log(R)
        J = _so3_left_jacobian(rot)
        return np.concatenate([rot, np.linalg.solve(J, v), np.linalg.solve(J, p)])

    @staticmethod
    def adjoint(X) -> np.ndarray:
        R, v, p = SE23.components(X)
        Ad = np.zeros((9, 9))
        Ad[0:3, 0:3] = R
        Ad[3:6, 0:3] = skew(v) @ R
        Ad[3:6, 3:6] = R
        Ad[6:9, 0:3] = skew(p) @ R
        Ad[6:9, 6:9] = R
        return Ad

    @staticmethod
    def little_adjoint(u) -> np.ndarray:
        u = _check_coords("se23", u, 9)
        W = skew(u[0:3])
        ad = np.zeros((9, 9))
        ad[0:3, 0:3] = W
        ad[3:6, 0:3] = skew(u[3:6])
        ad[3:6, 3:6] = W
        ad[6:9, 0:3] = skew(u[6:9])
        ad[6:9, 6:9] = W
        return ad

    @staticmethod
    def left_jacobian(u) -> np.ndarray:
        return _left_jacobian_stable(SE23, np.asarray(u, dtype=float))


class Gal3:
    """Galilean group, 5x5 matrices, coordinates (rot, vel, pos, time)."""

    dim = 10
    mat = 5

    @staticmethod
    def from_components(R, v, p, c) -> np.ndarray:
        X = _ID5.copy()
        X[0:3, 0:3] = R
        X[0:3, 3] = v
        X[0:3, 4] = p
        X[3, 4] = c
        return X

    @staticmethod
    def components(X) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        X = np.asarray(X, dtype=float)
        return X[0:3, 0:3], X[0:3, 3], X[0:3, 4], float(X[3, 4])

    @staticmethod
    def wedge(u) -> np.ndarray:
        u = _check_coords("gal3", u, 10)
        W = np.zeros((5, 5))
        W[0:3, 0:3] = skew(u[0:3])
        W[0:3, 3] = u[3:6]
        W[0:3, 4] = u[6:9]
        W[3, 4] = u[9]
        return W

    @staticmethod
    def vee(M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (5, 5):
            raise ValueError(f"gal3 vee expects a 5x5 matrix, got {M.shape}")
        u = np.concatenate([unskew(M[0:3, 0:3]), M[0:3, 3], M[0:3, 4], [M[3, 4]]])
        _check_embedded("gal3", M, Gal3.wedge(u))
        return u

    @staticmethod
    def identity() -> np.ndarray:
        return np.eye(5)

    @staticmethod
    def compose(X, Y) -> np.ndarray:
        return X @ Y

    @staticmethod
    def inverse(X) -> np.ndarray:
        R, v, p, c = Gal3.components(X)
        return Gal3.from_components(R.T, -R.T @ v, R.T @ (c * v - p), -c)

    @staticmethod
    def exp(u) -> np.ndarray:
        u = _check_coords("gal3", u, 10)
        rot, vel, pos, time = u[0:3], u[3:6], u[6:9], u[9]
        J = _so3_left_jacobian(rot)
        N = _so3_second_jacobian(rot)
        return Gal3.from_components(
            SO3.exp(rot), J @ vel, J @ pos + time * (N @ vel), time
        )

    @staticmethod
    def log(X) -> np.ndarray:
        R, v, p, c = Gal3.components(X)
        rot = SO3.log(R)
        J = _so3_left_jacobian(rot)
        N = _so3_second_jacobian(rot)
        vel = np.linalg.solve(J, v)
        pos = np.linalg.solve(J, p - c * (N @ vel))
        return np.concatenate([rot, vel, pos, [c]])

    @staticmethod
    def adjoint(X) -> np.ndarray:
        R, v, p, c = Gal3.components(X)
        Ad = np.zeros((10, 10))
        Ad[0:3, 0:3] = R
        Ad[3:6, 0:3] = skew(v) @ R
        Ad[3:6, 3:6] = R
        Ad[6:9, 0:3] = (skew(p) - c * skew(v)) @ R
        Ad[6:9, 3:6] = -c * R
        Ad[6:9, 6:9] = R
        Ad[6:9, 9] = v
        Ad[9, 9] = 1.0
        return Ad

    @staticmethod
    def little_adjoint(u) -> np.ndarray:
        u = _check_coords("gal3", u, 10)
        W = skew(u[0:3])
        ad = np.zeros((10, 10))
        ad[0:3, 0:3] = W
        ad[3:6, 0:3] = skew(u[3:6])
        ad[3:6, 3:6] = W
        ad[6:9, 0:3] = skew(u[6:9])
        ad[6:9, 3:6] = -u[9] * np.eye(3)
        ad[6:9, 6:9] = W
        ad[6:9, 9] = u[3:6]
        return ad

    @staticmethod
    def left_jacobian(u) -> np.ndarray:
        return _left_jacobian_stable(Gal3, np.asarray(u, dtype=float))


#: Tag lookup used by generic tests and tag-driven callers.
GROUPS = {"so3": SO3, "se3": SE3, "se23": SE23, "gal3": Gal3}


class TangentSE23:
    """Semidirect product SE2(3) x se2(3): pairs (D, delta) of an extended
    pose with an algebra 9-vector.

    Composition transports the second slot by the adjoint of the first:
    (A, a)(B, b) = (AB, a + Ad_A b).  The exponential of (u, w) is
    (exp(u), Jl(u) w) since the one-parameter subgroup integrates
    Ad(exp(s u)) applied to w.
    """

    dim = 18

    @staticmethod
    def identity() -> tuple[np.ndarray, np.ndarray]:
        return np.eye(5), np.zeros(9)

    @staticmethod
    def compose(X, Y) -> tuple[np.ndarray, np.ndarray]:
        D1, d1 = X
        D2, d2 = Y
        return D1 @ D2, d1 + SE23.adjoint(D1) @ d2

    @staticmethod
    def inverse(X) -> tuple[np.ndarray, np.ndarray]:
        D, d = X
        Dinv = SE23.inverse(D)
        return Dinv, -(SE23.adjoint(Dinv) @ d)

    @staticmethod
    def exp(u_pose, u_vec) -> tuple[np.ndarray, np.ndarray]:
        J = SE23.left_jacobian(u_pose)
        return SE23.exp(u_pose), J @ np.asarray(u_vec, dtype=float)

    @staticmethod
    def log(X) -> tuple[np.ndarray, np.ndarray]:
        D, d = X
        u = SE23.log(D)
        J = SE23.left_jacobian(u)
        return u, solve_left_jacobian(J, d)


def solve_left_jacobian(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Jl x = rhs, warning when the chart is close to degenerate."""
    if np.linalg.cond(J) > 1e12:
        import warnings

        warnings.warn("left Jacobian is ill-conditioned; chart near its boundary")
    return np.linalg.solve(J, rhs)


# --- projections between nested groups -------------------------------------

def _se23_from_gal3(X):
    R, v, p, _ = Gal3.components(X)
    return SE23.from_components(R, v, p)


def _se3_from_se23(X):
    R, _, p = SE23.components(X)
    return SE3.from_components(R, p)


def _se3_from_gal3(X):
    R, _, p, _ = Gal3.components(X)
    return SE3.from_components(R, p)


def _gal3_from_se23(X):
    R, v, p = SE23.components(X)
    return Gal3.from_components(R, v, p, 0.0)


def _se23_from_se3(X):
    R, t = SE3.components(X)
    return SE23.from_components(R, np.zeros(3), t)


_GROUP_PROJECTIONS = {
    (Gal3, SE23): _se23_from_gal3,
    (Gal3, SE3): _se3_from_gal3,
    (SE23, SE3): _se3_from_se23,
    (SE23, Gal3): _gal3_from_se23,
    (SE3, SE23): _se23_from_se3,
}

_ALGEBRA_PROJECTIONS = {
    (Gal3, SE23): lambda u: np.asarray(u, dtype=float)[0:9].copy(),
    (SE23, Gal3): lambda u: np.append(np.asarray(u, dtype=float), 0.0),
    (SE23, SE3): lambda u: np.concatenate([u[0:3], u[6:9]]),
    (SE3, SE23): lambda u: np.concatenate([u[0:3], np.zeros(3), u[3:6]]),
}


def project_group(src, dst, X) -> np.ndarray:
    """Extract the dst-structured part of X, or embed X into dst with
    identity filling; src and dst are group classes from this module."""
    try:
        return _GROUP_PROJECTIONS[(src, dst)](X)
    except KeyError:
        raise ValueError(f"unsupported group projection {src.__name__} -> {dst.__name__}")


def project_algebra(src, dst, u) -> np.ndarray:
    try:
        return _ALGEBRA_PROJECTIONS[(src, dst)](np.asarray(u, dtype=float))
    except KeyError:
        raise ValueError(f"unsupported algebra projection {src.__name__} -> {dst.__name__}")


# --- R x S^2 tangent basis and retraction Jacobian -------------------------

def sphere_basis(rho) -> np.ndarray:
    """Orthonormal (..., 3, 2) basis of the tangent plane at each unit bearing
    rho of shape (..., 3): the first two columns of the rotation about
    e3 x rho that takes e3 to rho.  With s = |(rho_x, rho_y)|,
    n = (rho_x, rho_y) / s and k = 1 - rho_z (so sin = s, 1 - cos = k) this
    is Rodrigues' formula in closed form, stable up to -e3.  On the e3 axis
    n is taken as e2, which gives the identity at e3 and the half turn about
    e1 at -e3; the chart need not be continuous there, only orthonormal.
    The columns (t1, t2) and rho form a right-handed frame."""
    rho = np.asarray(rho, dtype=float)
    x, y = rho[..., 0], rho[..., 1]
    s = np.hypot(x, y)
    # n is exact to rounding for any normal s; a wider axis band would tilt
    # t1 off the tangent plane by up to 2 s near -e3
    on_axis = s < np.finfo(float).tiny
    s = np.where(on_axis, 1.0, s)
    n1 = np.where(on_axis, 0.0, x / s)
    n2 = np.where(on_axis, 1.0, y / s)
    k = 1.0 - rho[..., 2]
    N = np.empty(rho.shape + (2,))
    N[..., 0, 0] = 1.0 - k * n1 * n1
    N[..., 1, 0] = N[..., 0, 1] = -k * n1 * n2
    N[..., 2, 0] = -x
    N[..., 1, 1] = 1.0 - k * n2 * n2
    N[..., 2, 1] = -y
    return N


def sphere_jacobian(p) -> np.ndarray:
    """(..., 3, 3) derivative of the range/bearing retraction at zero
    perturbation for points p of shape (..., 3): first column is the bearing,
    the rest are -kappa skew(rho) N = kappa (-t2, t1), range-scaled bearing
    motion."""
    p = np.asarray(p, dtype=float)
    kappa = np.linalg.norm(p, axis=-1)[..., None]
    if (kappa <= KAPPA_MIN).any():
        raise ValueError("degenerate point: range below minimum")
    rho = p / kappa
    N = sphere_basis(rho)
    J = np.empty(p.shape + (3,))
    J[..., 0] = rho
    J[..., 1] = -kappa * N[..., 1]
    J[..., 2] = kappa * N[..., 0]
    return J
