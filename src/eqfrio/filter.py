"""The equivariant filter: propagation with analytic linearization matrices,
stacked Doppler and point-constraint updates, and clone lifecycle.

A belief pairs a symmetry-group element (the estimate) with the covariance of
the error coordinates (9 nav + 9 bias + 6 extrinsic + 6 per clone).  All
operations take a belief and return a successor; beliefs are never mutated,
so independent runs can share nothing and proceed in parallel.

Propagation (`propagation_step`) composes the estimate with the `lift` of
the dynamics at the identity origin and forms the analytic error matrices
from the same Galilean exponential.  The mean uses only the navigation input
(the IMU sample) and moves only the 24 core states; clones are static.
Process noise is a 25x25 matrix of continuous-time densities over the input
vector (10 navigation slots, 9 bias drive, 6 calibration drive); the drives
enter as noise alone, and B Q B^T / dt goes into the core, which scales the
net noise with dt.  The unit input slot carries no noise.

The updates read the estimate straight off the group element.  With L the
Cholesky factor of S = C P C^T + R, one solve gives W = L^-1 C P and w = L^-1 r:
the error correction W^T w (the textbook K r) and the covariance P - W^T W.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lie import SE3, SE23, Gal3, se3_part
from .measurements import (
    DopplerNoiseSpec,
    doppler_model,
    doppler_rows,
    point_constraint_model,
    point_rows,
)
from .symmetry import (
    GRAVITY,
    SymmetryElement,
    SystemInput,
    SystemState,
    error_inverse,
    gravity_step,
    group_compose,
    identity_state,
    state_action_inverse,
)

CHI2_GATE_1DOF = 6.63   # 99% quantile
# a step may exceed dt_max by this factor: stamps on a dt_max grid differ by
# dt_max plus a few ulps of the stamp
_DT_SLACK = 1.0 + 1e-9
_ROT_POS = np.r_[0:3, 6:9]   # the (rotation, position) rows of a nav block


def process_noise(gyro=0.0, accel=0.0, virtual_velocity=0.0,
                  gyro_walk=0.0, accel_walk=0.0, virtual_walk=0.0,
                  cal_rot_walk=0.0, cal_pos_walk=0.0) -> np.ndarray:
    """Diagonal 25x25 input noise density matrix.  Arguments are densities
    (unit/sqrt(Hz) for sensor noise, unit*sqrt(Hz) drive for random walks)."""
    diag = np.concatenate([
        np.full(3, gyro**2),
        np.full(3, accel**2),
        np.full(3, virtual_velocity**2),
        [0.0],                       # the unit slot is deterministic
        np.full(3, gyro_walk**2),
        np.full(3, accel_walk**2),
        np.full(3, virtual_walk**2),
        np.full(3, cal_rot_walk**2),
        np.full(3, cal_pos_walk**2),
    ])
    return np.diag(diag)


class FilterBelief(NamedTuple):
    """Estimate on the symmetry group with its error covariance and the clone
    registry (timestamps and the feature ids each clone can still match)."""

    sym: SymmetryElement
    cov: np.ndarray
    stamps: tuple = ()
    features: tuple = ()

    @property
    def n_clones(self) -> int:
        return self.sym.n_clones

    @property
    def dof(self) -> int:
        return 24 + 6 * self.n_clones


def _check_covariance(cov: np.ndarray, dof: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dof, dof):
        raise ValueError(f"covariance must be {dof}x{dof}, got {cov.shape}")
    if np.max(np.abs(cov - cov.T)) > 1e-9:
        raise ValueError("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    # eigvalsh rounds in proportion to the largest variance (a start far from the origin)
    tol = max(1e-9, 64 * np.finfo(float).eps * np.max(np.abs(np.diag(cov))))
    if np.min(np.linalg.eigvalsh(cov)) < -tol:
        raise ValueError("covariance must be positive semidefinite")
    return cov


def initialize(xi_init: SystemState, cov_init) -> FilterBelief:
    """Start a belief whose mean reproduces xi_init exactly."""
    cov = _check_covariance(cov_init, 24 + 6 * xi_init.n_clones)
    origin = identity_state(xi_init.n_clones, xi_init.stamps)
    return FilterBelief(
        sym=state_action_inverse(origin, xi_init),
        cov=cov,
        stamps=tuple(xi_init.stamps),
        features=tuple(frozenset() for _ in range(xi_init.n_clones)),
    )


def _core_estimate(X: SymmetryElement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D^-1 for D = X.nav, and the estimated biases and extrinsic."""
    nav_inv = SE23.inverse(X.nav)
    bias = SE23.adjoint(nav_inv) @ -X.bias_shift
    cal = se3_part(nav_inv) @ X.cal
    return nav_inv, bias, cal


def estimated_state(belief: FilterBelief) -> SystemState:
    """The estimate's image of the identity origin, bit for bit state_action's."""
    _, bias, cal = _core_estimate(belief.sym)
    return SystemState(belief.sym.nav, bias, cal, belief.sym.clones, belief.stamps)


def propagation_step(X: SymmetryElement, nav: np.ndarray,
                     dt: float) -> tuple[SymmetryElement, np.ndarray, np.ndarray]:
    """One fused prediction step for the (10,) navigation input nav (the IMU
    sample): the next group element, and the error transition matrix A
    (24x24) and input noise matrix B (24x25) of the core.

    The mean equals group_compose(X, lift(est, u, dt)) in exact arithmetic,
    with est = state_action(X, identity_state()), u = nav with zero bias and
    calibration drives, and the clones kept.  With D = X.nav, b and T the
    estimated biases and extrinsic, E the Galilean exponential of the
    bias-corrected input and G the gravity increment: nav+ = G D E,
    shift+ = -Ad(nav+) b, cal+ = pose(nav+) T.  That touches each factor
    once; the product X.cal @ lift(...).cal would sandwich the lift between
    the extrinsic factor and its inverse, doubling its off-orthonormal
    rounding error every step.  A and B are analytic: adjoints of G and of
    the origin-input increment D E D^-1, plus left Jacobians; B's columns
    10-24 carry the drives.  On the static clones they are I and zero.
    """
    grav_exp = gravity_step(dt, GRAVITY)
    grav_adj = Gal3.adjoint(grav_exp)
    nav_inv, bias, cal_est = _core_estimate(X)
    corrected = nav - np.append(bias, 0.0)
    step = X.nav @ Gal3.exp(dt * corrected)
    nav_next = grav_exp @ step     # time shifts -dt and dt cancel exactly
    X_next = SymmetryElement(nav=nav_next, bias_shift=-(SE23.adjoint(nav_next) @ bias),
                             cal=se3_part(nav_next) @ cal_est, clones=X.clones)

    ad_nav = Gal3.adjoint(X.nav)
    input_exp = step @ nav_inv    # exp(dt w) = D E D^-1
    input_jl = Gal3.left_jacobian(dt * (ad_nav @ corrected))  # origin input w

    gamma = grav_adj[0:9, 0:9]
    upsilon = Gal3.adjoint(input_exp)[0:9, 0:9]
    a1 = gamma @ input_jl[0:9, 0:9] * dt
    a2 = SE3.adjoint(se3_part(grav_exp @ input_exp))

    A = np.eye(24)
    A[0:9, 0:9] = gamma
    A[0:9, 9:18] = a1
    A[9:18, 9:18] = gamma @ upsilon
    A[18:24, 0:9] = (gamma - gamma @ upsilon)[_ROT_POS]
    A[18:24, 9:18] = a1[_ROT_POS]
    A[18:24, 18:24] = a2

    b1 = -(grav_adj @ input_jl @ ad_nav)[0:9] * dt

    B = np.zeros((24, 25))
    B[0:9, 0:10] = b1
    B[9:18, 10:19] = gamma @ upsilon @ ad_nav[0:9, 0:9] * dt
    B[18:24, 0:10] = b1[_ROT_POS]
    B[18:24, 19:25] = -a2 @ SE3.adjoint(X.cal) * dt
    return X_next, A, B


def propagate(belief: FilterBelief, u: SystemInput, dt: float, Q: np.ndarray,
              dt_max: float = 0.1) -> FilterBelief:
    """One prediction step: mean and covariance through propagation_step of
    u.nav; u's drives tau and mu are not read.  A P A^T acts on the core
    rows, then the core columns; the clone-clone block is left as it is."""
    if not 0.0 < dt <= dt_max * _DT_SLACK:
        raise ValueError(f"bad timestep {dt}")
    sym, A, B = propagation_step(belief.sym, u.nav, dt)
    cov = belief.cov.copy()
    cov[:24] = A @ cov[:24]
    cov[:, :24] = cov[:, :24] @ A.T
    cov[:24, :24] += (B @ Q @ B.T) / dt
    cov = 0.5 * (cov + cov.T)
    return belief._replace(sym=sym, cov=cov)


def _skipped(belief: FilterBelief, message: str) -> FilterBelief:
    """Warn that an update was skipped; only then is `logging` imported."""
    import logging

    logging.getLogger(__name__).warning(message)
    return belief


def _apply_update(belief: FilterBelief, C: np.ndarray, residuals: np.ndarray,
                  noise_diag: np.ndarray, gate: float | None) -> FilterBelief:
    """Shared update: stacked rows, diagonal measurement noise, optional per-row
    chi-square gate, one solve; FloatingPointError if the estimate diverged."""
    if not all(np.isfinite(a).all() for a in (*belief.sym[:3], belief.cov)):
        raise FloatingPointError("non-finite estimate")
    CP = C @ belief.cov
    if gate is not None:
        innovation_var = np.einsum("ij,ij->i", CP, C) + noise_diag
        keep = residuals**2 <= gate * innovation_var
        if not np.any(keep):
            return belief
        C, CP, residuals, noise_diag = C[keep], CP[keep], residuals[keep], noise_diag[keep]

    S = CP @ C.T + np.diag(noise_diag)
    S = 0.5 * (S + S.T)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return _skipped(belief, "singular innovation covariance; update skipped")
    if np.min(np.diag(L)) ** 2 <= 1e-12 * np.max(np.diag(S)):
        return _skipped(belief, "near-singular innovation covariance; update skipped")

    Ww = np.linalg.solve(L, np.column_stack([CP, residuals]))
    W, w = Ww[:, :-1], Ww[:, -1]
    sym = group_compose(error_inverse(W.T @ w), belief.sym)
    cov = belief.cov - W.T @ W
    cov = 0.5 * (cov + cov.T)
    return belief._replace(sym=sym, cov=cov)


def update_doppler(belief: FilterBelief, detections, gyro,
                   noise: DopplerNoiseSpec, gate: float | None = None) -> FilterBelief:
    """Stacked update over all Doppler returns of one scan."""
    detections = list(detections)
    if not detections:
        raise ValueError("empty scan")
    xi_hat = estimated_state(belief)
    origin_gyro = xi_hat.attitude() @ (gyro - xi_hat.bias[0:3])   # R (w - b_g)
    points = np.array([det.point for det in detections])
    measured = np.array([det.doppler for det in detections])
    C, D = doppler_rows(belief.sym, origin_gyro, points)
    residuals = measured - doppler_model(xi_hat, points, gyro)
    noise_diag = np.einsum("ij,jk,ik->i", D, noise.cov(), D)
    return _apply_update(belief, C, residuals, noise_diag, gate)


def update_msc(belief: FilterBelief, matches, noise: DopplerNoiseSpec,
               gate: float | None = CHI2_GATE_1DOF) -> FilterBelief:
    """Stacked update over feature re-observations against pose clones."""
    matches = list(matches)
    if not matches:
        raise ValueError("no matches")
    xi_hat = estimated_state(belief)
    index = np.array([m.clone_index for m in matches])
    now = np.array([m.point_now for m in matches])
    then = np.array([m.point_then for m in matches])
    C, D = point_rows(belief.sym, index, then)
    residuals = np.linalg.norm(now, axis=-1) - point_constraint_model(xi_hat, index, then)
    noise_diag = np.einsum("ij,jk,ik->i", D, noise.point_pair_cov(), D)
    return _apply_update(belief, C, residuals, noise_diag, gate)


def clone_augment(belief: FilterBelief, stamp: float, feature_ids,
                  k_max: int = 10) -> FilterBelief:
    """Append a clone of the current radar pose.  With the identity origin
    the extrinsic slot is the world-frame radar pose, so the new clone's
    error equals the extrinsic error exactly: its covariance rows and
    columns are copies of the extrinsic ones (18:24)."""
    if belief.n_clones >= k_max:
        raise ValueError("clone window full; marginalize first")
    if belief.stamps and stamp <= belief.stamps[-1]:
        raise ValueError("clone timestamps must be strictly increasing")
    sel = np.r_[0 : belief.dof, 18:24]
    return belief._replace(
        sym=belief.sym._replace(clones=np.concatenate([belief.sym.clones, [belief.sym.cal]])),
        cov=belief.cov[np.ix_(sel, sel)],
        stamps=belief.stamps + (float(stamp),),
        features=belief.features + (frozenset(feature_ids),),
    )


def clone_marginalize(belief: FilterBelief, index: int) -> FilterBelief:
    """Drop one clone and its covariance rows and columns."""
    if not 0 <= index < belief.n_clones:
        raise ValueError(f"invalid clone index {index}")
    sel = np.delete(np.arange(belief.dof), np.s_[24 + 6 * index : 30 + 6 * index])
    return belief._replace(
        sym=belief.sym._replace(clones=np.delete(belief.sym.clones, index, axis=0)),
        cov=belief.cov[np.ix_(sel, sel)],
        stamps=tuple(s for i, s in enumerate(belief.stamps) if i != index),
        features=tuple(f for i, f in enumerate(belief.features) if i != index),
    )


def retain_features(belief: FilterBelief, index: int, feature_ids) -> FilterBelief:
    """Shrink a clone's matchable feature set (lifecycle bookkeeping)."""
    features = list(belief.features)
    features[index] = frozenset(feature_ids)
    return belief._replace(features=tuple(features))
