"""State space and symmetry of the radar-aided inertial navigation system.

The physical state couples an extended pose (attitude, velocity, position)
with a 9-dimensional bias vector (gyroscope, accelerometer and a virtual
velocity bias), the radar-to-IMU extrinsic pose, and a sliding window of
past radar poses ("clones").

The symmetry group acting on that state is the tangent group of the extended
poses (an extended pose paired with an algebra vector that shifts the
biases), times one rigid transform for the calibration and one per clone.
The filter estimates a group element; the physical estimate is the image of
the identity-origin state under the group action.  Error coordinates are the
group logarithm of the group element carrying the estimate onto the truth,
which is what gives the filter its large basin of attraction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lie import SE3, SE23, Gal3, se3_part

GRAVITY = np.array([0.0, 0.0, -9.81])
_NO_CLONES = np.broadcast_to(np.eye(4), (0, 4, 4))   # read-only


def gravity_generator(gravity=GRAVITY) -> np.ndarray:
    """Gal(3) algebra coordinates whose exponential applies gravity and the
    unit time shift over a step: (0, -g, 0, 1)."""
    return np.concatenate([np.zeros(3), -np.asarray(gravity, dtype=float), np.zeros(3), [1.0]])


def gravity_step(dt: float, gravity) -> np.ndarray:
    """Gravity increment over dt, exp(-dt gravity_generator(gravity)) in
    closed form: with no rotation the exponential is velocity v = dt g,
    position -dt v / 2 and time shift -dt, bit for bit Gal3.exp's."""
    v = dt * np.asarray(gravity, dtype=float)
    return Gal3.from_components(np.eye(3), v, (-dt) * (0.5 * v), -dt)


class CheckedRecord:
    """Mixin for a NamedTuple record whose `_check` method rejects bad
    values: runs it on construction, on `_make` and `_replace`, and on
    unpickling.  Put it before the NamedTuple base and give the subclass
    `__slots__ = ()`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SystemState(NamedTuple):
    pose: np.ndarray
    bias: np.ndarray
    cal: np.ndarray
    clones: np.ndarray = _NO_CLONES
    stamps: tuple = ()


class SystemState(CheckedRecord, _SystemState):
    """Physical state: extended pose, biases, radar extrinsics, pose clones.

    pose    5x5 extended pose (attitude, velocity m/s, position m)
    bias    (9,) gyro bias rad/s, accel bias m/s^2, virtual velocity bias m/s
    cal     4x4 radar pose in the IMU frame
    clones  (k, 4, 4) past radar poses
    stamps  clone timestamps, strictly increasing
    """

    __slots__ = ()

    def _check(self):
        if not isinstance(self.clones, np.ndarray) or self.clones.shape != (len(self.stamps), 4, 4):
            raise ValueError("clones must be a (k, 4, 4) array, one timestamp per clone")
        if any(b >= a for a, b in zip(self.stamps[1:], self.stamps)):
            raise ValueError("clone timestamps must be strictly increasing")

    @property
    def n_clones(self) -> int:
        return len(self.clones)

    def attitude(self) -> np.ndarray:
        return self.pose[0:3, 0:3]

    def velocity(self) -> np.ndarray:
        return self.pose[0:3, 3]

    def position(self) -> np.ndarray:
        return self.pose[0:3, 4]

    def radar_pose(self) -> np.ndarray:
        """Current radar pose in the world frame."""
        return se3_part(self.pose) @ self.cal


def identity_state(n_clones: int = 0, stamps: tuple = ()) -> SystemState:
    if not stamps:
        stamps = tuple(float(i) for i in range(n_clones))
    return SystemState(
        pose=np.eye(5),
        bias=np.zeros(9),
        cal=np.eye(4),
        clones=np.tile(np.eye(4), (n_clones, 1, 1)),
        stamps=tuple(stamps),
    )


class SymmetryElement(NamedTuple):
    """Element of the symmetry group.

    nav         5x5 extended pose transporting the navigation states
    bias_shift  (9,) algebra vector shifting the biases (tangent-group slot)
    cal         4x4 transport of the extrinsic pose
    clones      (k, 4, 4) transports of the pose clones
    """

    nav: np.ndarray
    bias_shift: np.ndarray
    cal: np.ndarray
    clones: np.ndarray = _NO_CLONES

    @property
    def n_clones(self) -> int:
        return len(self.clones)


def group_compose(X: SymmetryElement, Y: SymmetryElement) -> SymmetryElement:
    if X.n_clones != Y.n_clones:
        raise ValueError("clone count mismatch")
    # tangent-group rule (A, a)(B, b) = (AB, a + Ad_A b)
    return SymmetryElement(
        nav=X.nav @ Y.nav,
        bias_shift=X.bias_shift + SE23.adjoint(X.nav) @ Y.bias_shift,
        cal=X.cal @ Y.cal,
        clones=X.clones @ Y.clones,
    )


def group_inverse(X: SymmetryElement) -> SymmetryElement:
    # (A, a)^-1 = (A^-1, -Ad_{A^-1} a)
    nav = SE23.inverse(X.nav)
    return SymmetryElement(
        nav=nav,
        bias_shift=-(SE23.adjoint(nav) @ X.bias_shift),
        cal=SE3.inverse(X.cal),
        clones=np.array([SE3.inverse(F) for F in X.clones]).reshape(-1, 4, 4),
    )


def group_log(X: SymmetryElement) -> np.ndarray:
    # log (A, a) = (u, Jl(u)^-1 a) with u = log A
    nav = SE23.log(X.nav)
    shift = np.linalg.solve(SE23.left_jacobian(nav), X.bias_shift)
    return np.concatenate([nav, shift, SE3.log(X.cal), *map(SE3.log, X.clones)])


class _SystemInput(NamedTuple):
    nav: np.ndarray
    tau: np.ndarray
    mu: np.ndarray


class SystemInput(CheckedRecord, _SystemInput):
    """System input: IMU-driven navigation input plus the bias and calibration
    drives of the general input space; the filter's propagation reads nav.

    nav  (10,) gyro rad/s, accel m/s^2, virtual velocity input (zero), unit 1
    tau  (9,) bias evolution input
    mu   (6,) extrinsic evolution input
    """

    __slots__ = ()

    def _check(self):
        if np.asarray(self.nav).shape != (10,):
            raise ValueError("nav input must be a 10-vector")
        if self.nav[9] != 1.0:
            raise ValueError("nav input unit slot must be exactly 1")

    @property
    def gyro(self) -> np.ndarray:
        return self.nav[0:3]

    @staticmethod
    def from_imu(gyro, accel) -> "SystemInput":
        nav = np.concatenate([np.asarray(gyro, dtype=float),
                              np.asarray(accel, dtype=float),
                              np.zeros(3), [1.0]])
        return SystemInput(nav=nav, tau=np.zeros(9), mu=np.zeros(6))


# --- actions -----------------------------------------------------------------

def state_action(X: SymmetryElement, xi: SystemState) -> SystemState:
    """Right action of the symmetry group on the state space."""
    if X.n_clones != xi.n_clones:
        raise ValueError("clone count mismatch")
    nav_inv = SE23.inverse(X.nav)
    return SystemState(
        pose=xi.pose @ X.nav,
        bias=SE23.adjoint(nav_inv) @ (xi.bias - X.bias_shift),
        cal=se3_part(nav_inv) @ xi.cal @ X.cal,
        clones=xi.clones @ X.clones,
        stamps=xi.stamps,
    )


def state_action_inverse(origin: SystemState, xi: SystemState) -> SymmetryElement:
    """The unique group element carrying origin onto xi (the action is free
    and transitive, so this is well defined)."""
    if origin.n_clones != xi.n_clones:
        raise ValueError("clone count mismatch")
    nav = SE23.inverse(origin.pose) @ xi.pose
    return SymmetryElement(
        nav=nav,
        bias_shift=origin.bias - SE23.adjoint(nav) @ xi.bias,
        cal=SE3.inverse(origin.cal) @ se3_part(nav) @ xi.cal,
        clones=(np.array([SE3.inverse(F) for F in origin.clones]).reshape(-1, 4, 4)
                @ xi.clones),
    )


def input_action(X: SymmetryElement, u: SystemInput) -> SystemInput:
    """Right action of the symmetry group on the input space.  Preserves the
    unit slot of the navigation input."""
    nav_inv = SE23.inverse(X.nav)
    w = Gal3.adjoint(nav_inv) @ (u.nav - np.append(X.bias_shift, 0.0))
    return SystemInput(
        nav=w,
        tau=SE23.adjoint(nav_inv) @ u.tau,
        mu=SE3.adjoint(SE3.inverse(X.cal)) @ u.mu,
    )


# --- dynamics and lift ---------------------------------------------------------

def discrete_dynamics(xi: SystemState, u: SystemInput, dt: float,
                      gravity=GRAVITY) -> SystemState:
    """Exact zero-order-hold discretization of the navigation kinematics.

    The extended pose is sandwiched between the gravity increment and the
    bias-corrected input increment, both Galilean exponentials; their time
    shifts cancel exactly (-dt + dt), so the product is an extended pose as
    it stands.  Biases and extrinsics integrate their drive inputs; clones
    are static.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return xi._replace(
        pose=gravity_step(dt, gravity) @ xi.pose @ Gal3.exp(dt * (u.nav - np.append(xi.bias, 0.0))),
        bias=xi.bias + dt * u.tau,
        cal=xi.cal @ SE3.exp(dt * u.mu),
    )


def lift(xi: SystemState, u: SystemInput, dt: float, gravity=GRAVITY) -> SymmetryElement:
    """Group increment whose action reproduces one step of the dynamics:
    state_action(lift(xi, u, dt), xi) == discrete_dynamics(xi, u, dt).
    Clone slots are static, so their lift is the identity."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grav_local = Gal3.adjoint(Gal3.inverse(xi.pose)) @ gravity_generator(gravity)
    # time shifts -dt and dt cancel exactly: the product is an extended pose
    nav = Gal3.exp(-dt * grav_local) @ Gal3.exp(dt * (u.nav - np.append(xi.bias, 0.0)))
    cal_inv = SE3.inverse(xi.cal)
    return SymmetryElement(
        nav=nav,
        bias_shift=xi.bias - SE23.adjoint(nav) @ (xi.bias + dt * u.tau),
        cal=cal_inv @ se3_part(nav) @ xi.cal @ SE3.exp(dt * u.mu),
        clones=np.tile(np.eye(4), (xi.n_clones, 1, 1)),
    )


# --- error chart ----------------------------------------------------------------

def error_coordinates(X_hat: SymmetryElement, xi: SystemState,
                      origin: SystemState) -> np.ndarray:
    """Normal coordinates of the discrepancy between the estimate X_hat and
    the true state xi, anchored at origin.  Zero exactly when xi is the
    estimate's image of the origin."""
    e = state_action(group_inverse(X_hat), xi)
    return group_log(state_action_inverse(origin, e))


def error_inverse(eps) -> SymmetryElement:
    """Group element realizing the given error coordinates (9 nav, 9 bias,
    6 extrinsic, 6 per clone), their group exponential; inverse of
    error_coordinates in the sense that the error of group_compose(
    error_inverse(eps), X_hat) relative to X_hat is eps."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape[0] < 24 or (eps.shape[0] - 24) % 6 != 0:
        raise ValueError(f"error vector length {eps.shape[0]} is not 24 + 6k")
    if not np.isfinite(eps).all():
        raise FloatingPointError("non-finite error coordinates")
    # exp (u, w) = (exp u, Jl(u) w)
    return SymmetryElement(
        nav=SE23.exp(eps[0:9]),
        bias_shift=SE23.left_jacobian(eps[0:9]) @ eps[9:18],
        cal=SE3.exp(eps[18:24]),
        clones=np.array([SE3.exp(c) for c in eps[24:].reshape(-1, 6)]).reshape(-1, 4, 4),
    )
