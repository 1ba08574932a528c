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
    accelerated motion.  Setting c = 0 recovers the standard SE2(3) matrix,
    so an SE2(3) matrix serves as a Gal(3) one as it is.
"""

from __future__ import annotations

import math

import numpy as np

# Radar returns closer than this are degenerate for bearing extraction.
KAPPA_MIN = 1e-6

_SERIES_CUTOFF = 1e-14
_SERIES_MAX_TERMS = 30
_UNSKEW_ROWS, _UNSKEW_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])

_ID3 = np.eye(3)
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
    return np.asarray(M, dtype=float)[..., _UNSKEW_ROWS, _UNSKEW_COLS]


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


# Taylor coefficients in t^2 of (1 - cos t)/t^2, (t - sin t)/t^3 and
# (cos t - 1 + t^2/2)/t^4, (-1)^k/(2k + n)! for n = 2, 3, 4; one triple per
# power k, highest first
_SO3_SERIES = tuple(tuple((-1) ** k / math.factorial(2 * k + n) for n in (2, 3, 4))
                    for k in reversed(range(10)))


def _so3_coefficients(t2: float) -> tuple[float, float, float]:
    """(1 - cos t)/t^2, (t - sin t)/t^3 and (cos t - 1 + t^2/2)/t^4 at t^2.
    The trig forms cancel for small t (the last loses 1e-7 relative at
    t = 0.01), so below t^2 = 1 ten series terms by Horner's rule give them,
    to rounding."""
    if t2 < 1.0:
        c1 = c2 = c3 = 0.0
        for a1, a2, a3 in _SO3_SERIES:
            c1, c2, c3 = c1 * t2 + a1, c2 * t2 + a2, c3 * t2 + a3
        return c1, c2, c3
    t = math.sqrt(t2)
    cos = math.cos(t)
    return (1.0 - cos) / t2, (t - math.sin(t)) / (t2 * t), (cos - 1.0 + 0.5 * t2) / (t2 * t2)


def _so3(rotvec: np.ndarray, forms: str) -> list[np.ndarray]:
    """The matrices that `forms` names, in its order, of W = skew(rotvec)
    from one coefficient triple: "R" exp(W) = I + (1 - t^2 c2) W + c1 W^2, as
    sin t / t = 1 - t^2 c2; "J" the left Jacobian I + c1 W + c2 W^2; "N" its
    second-order sibling sum_k W^k/(k+2)! = I/2 + c2 W + c3 W^2, which couples
    velocity into position through the Gal(3) time slot."""
    t2 = float(rotvec @ rotvec)
    c1, c2, c3 = _so3_coefficients(t2)
    W = skew(rotvec)
    W2 = W @ W
    return [_ID3 + (1.0 - t2 * c2) * W + c1 * W2 if form == "R" else
            _ID3 + c1 * W + c2 * W2 if form == "J" else
            0.5 * _ID3 + c2 * W + c3 * W2 for form in forms]


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
    def inverse(X) -> np.ndarray:
        return np.asarray(X).T.copy()

    @staticmethod
    def exp(v) -> np.ndarray:
        return _so3(_check_coords("so3", v, 3), "R")[0]

    @staticmethod
    def log(R) -> np.ndarray:
        """Rotation vector of a 3x3 rotation or of each in a (..., 3, 3)
        stack, at every angle up to pi.  With w the skew part, the angle is
        atan2(|w|, (tr R - 1)/2) and the vector angle w/|w|.  Near pi, where
        w has lost its digits, the axis comes from the symmetric part
        (R + R^T)/2 - cos I = (1 - cos) a a^T and takes its sign from w."""
        R = np.asarray(R, dtype=float)
        w = 0.5 * unskew(R - np.swapaxes(R, -1, -2))
        s = np.sqrt(w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2])
        c = 0.5 * (R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2] - 1.0)
        angle = np.arctan2(s, c)
        # at s = 0, w = 0 and the factor only needs to be finite
        out = w * (angle / np.where(s > 0.0, s, 1.0))[..., None]
        near = c < -0.9  # past 154 deg; before it w/|w| keeps the axis to eps / 0.44
        if near.any():
            Rn, cn, wn = R[near], c[near], w[near]
            B = 0.5 * (Rn + np.swapaxes(Rn, -1, -2)) - cn[:, None, None] * _ID3
            # the column of the largest diagonal entry is (1 - cos) a_k a
            i, k = np.arange(len(cn)), np.argmax(np.diagonal(B, 0, -2, -1), axis=-1)
            axis = B[i, :, k] / np.sqrt((1.0 - cn) * B[i, k, k])[:, None]
            out[near] = np.copysign(angle[near], np.sum(axis * wn, axis=-1))[:, None] * axis
        return out

    @staticmethod
    def adjoint(R) -> np.ndarray:
        return np.asarray(R, dtype=float).copy()

    @staticmethod
    def little_adjoint(v) -> np.ndarray:
        return skew(_check_coords("so3", v, 3))

    @staticmethod
    def left_jacobian(v) -> np.ndarray:
        return _so3(_check_coords("so3", v, 3), "J")[0]


class _SEK3:
    """SE_K(3): a rotation R and K translation-like columns x_1 .. x_K,
    (3 + K)x(3 + K) matrices [[R, x_1 .. x_K], [0, I]] with coordinates
    (rot, x_1, ..., x_K) (Barrau & Bonnabel, arXiv 1510.06263).  Every
    formula treats each column as SE(3) treats its translation.  A subclass
    sets dim = 3 + 3K, mat = 3 + K and its coordinate tag."""

    dim: int
    mat: int
    _tag: str

    def __init_subclass__(cls):
        cls._identity = np.eye(cls.mat)
        # (matrix column, coordinate slice) of each translation-like column
        cls._columns = tuple((k, slice(3 * k - 6, 3 * k - 3)) for k in range(3, cls.mat))

    @classmethod
    def from_components(cls, R, *columns) -> np.ndarray:
        if len(columns) != cls.mat - 3:
            raise TypeError(f"{cls.__name__} takes a rotation and {cls.mat - 3} columns")
        X = cls._identity.copy()
        X[0:3, 0:3] = R
        for k, x in enumerate(columns, start=3):
            X[0:3, k] = x
        return X

    @classmethod
    def components(cls, X) -> tuple[np.ndarray, ...]:
        X = np.asarray(X, dtype=float)
        return (X[0:3, 0:3], *(X[0:3, k] for k in range(3, cls.mat)))

    @classmethod
    def wedge(cls, v) -> np.ndarray:
        v = _check_coords(cls._tag, v, cls.dim)
        W = np.zeros((cls.mat, cls.mat))
        W[0:3, 0:3] = skew(v[0:3])
        W[0:3, 3:] = v[3:].reshape(-1, 3).T
        return W

    @classmethod
    def vee(cls, M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        if M.shape != (cls.mat, cls.mat):
            raise ValueError(f"{cls._tag} vee expects a {cls.mat}x{cls.mat} matrix, "
                             f"got {M.shape}")
        v = np.concatenate([unskew(M[0:3, 0:3]), M[0:3, 3:].T.ravel()])
        _check_embedded(cls._tag, M, cls.wedge(v))
        return v

    @classmethod
    def inverse(cls, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = cls._identity.copy()
        Y[0:3, 0:3] = Rt = X[0:3, 0:3].T
        for k in range(3, cls.mat):
            Y[0:3, k] = -Rt @ X[0:3, k]
        return Y

    @classmethod
    def exp(cls, v) -> np.ndarray:
        v = _check_coords(cls._tag, v, cls.dim)
        X = cls._identity.copy()
        X[0:3, 0:3], J = _so3(v[0:3], "RJ")
        for k, c in cls._columns:
            X[0:3, k] = J @ v[c]
        return X

    @classmethod
    def log(cls, X) -> np.ndarray:
        R, *columns = cls.components(X)
        rot = SO3.log(R)
        J, = _so3(rot, "J")
        return np.concatenate([rot, *(np.linalg.solve(J, x) for x in columns)])

    @classmethod
    def adjoint(cls, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        R = X[0:3, 0:3]
        Ad = np.zeros((cls.dim, cls.dim))
        Ad[0:3, 0:3] = R
        for k, c in cls._columns:
            Ad[c, 0:3] = skew(X[0:3, k]) @ R
            Ad[c, c] = R
        return Ad

    @classmethod
    def little_adjoint(cls, v) -> np.ndarray:
        v = _check_coords(cls._tag, v, cls.dim)
        W = skew(v[0:3])
        ad = np.zeros((cls.dim, cls.dim))
        ad[0:3, 0:3] = W
        for _, c in cls._columns:
            ad[c, 0:3] = skew(v[c])
            ad[c, c] = W
        return ad

    @classmethod
    def left_jacobian(cls, v) -> np.ndarray:
        return _left_jacobian_stable(cls, np.asarray(v, dtype=float))


class SE3(_SEK3):
    """Rigid transforms, elements are 4x4 matrices, coordinates (rot, trans)."""

    dim, mat, _tag = 6, 4, "se3"


class SE23(_SEK3):
    """Extended poses, 5x5 matrices, coordinates (rot, vel, pos)."""

    dim, mat, _tag = 9, 5, "se23"


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
    def inverse(X) -> np.ndarray:
        R, v, p, c = Gal3.components(X)
        return Gal3.from_components(R.T, -R.T @ v, R.T @ (c * v - p), -c)

    @staticmethod
    def exp(u) -> np.ndarray:
        u = _check_coords("gal3", u, 10)
        rot, vel, pos, time = u[0:3], u[3:6], u[6:9], u[9]
        R, J, N = _so3(rot, "RJN")
        return Gal3.from_components(R, J @ vel, J @ pos + time * (N @ vel), time)

    @staticmethod
    def log(X) -> np.ndarray:
        R, v, p, c = Gal3.components(X)
        rot = SO3.log(R)
        J, N = _so3(rot, "JN")
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


def se3_part(X) -> np.ndarray:
    """The rigid transform (rotation, position) of an SE2(3) or Gal(3)
    matrix, dropping velocity and time shift."""
    return SE3.from_components(X[0:3, 0:3], X[0:3, 4])


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
