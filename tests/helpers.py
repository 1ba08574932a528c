"""Shared test utilities: random element generators and numerical oracles."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from eqfrio.lie import SO3
from eqfrio.simulator import (
    SimOutput,
    TrajectorySampler,
    synthesize_imu,
    synthesize_radar_scan,
)
from eqfrio.symmetry import SymmetryElement, SystemInput, SystemState, discrete_dynamics

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """Environment for a child Python process that imports the package from
    this checkout's `src/`, ahead of any inherited PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def random_coords(rng, group, rot_scale=1.0, lin_scale=1.0):
    """Random algebra coordinates with the rotation block scaled separately."""
    v = lin_scale * rng.standard_normal(group.dim)
    v[0:3] = rot_scale * rng.standard_normal(3)
    return v


def random_element(rng, group, rot_scale=1.0, lin_scale=1.0):
    return group.exp(random_coords(rng, group, rot_scale, lin_scale))


def random_rotation(rng, scale=1.0):
    return SO3.exp(scale * rng.standard_normal(3))


def group_identity(n_clones=0):
    """The identity of the symmetry group with n_clones clone slots."""
    return SymmetryElement(
        nav=np.eye(5),
        bias_shift=np.zeros(9),
        cal=np.eye(4),
        clones=np.tile(np.eye(4), (n_clones, 1, 1)),
    )


def expm_oracle(group, coords):
    """Scaling-and-squaring matrix exponential of the wedge embedding."""
    return expm(group.wedge(coords))


def adjoint_conjugation_oracle(group, X):
    """Adjoint matrix built column-wise from X wedge(e_i) X^-1."""
    n = group.dim
    Xinv = group.inverse(X)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(group.vee(X @ group.wedge(e) @ Xinv))
    return np.column_stack(cols)


def left_jacobian_block_oracle(group, coords):
    """Jl(u), the integral of expm(s ad_u) over [0, 1], as the top-right block
    of expm([[ad_u, I], [0, 0]])."""
    n = group.dim
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = group.little_adjoint(coords)
    block[:n, n:] = np.eye(n)
    return expm(block)[:n, n:]


def left_jacobian_quadrature_oracle(group, coords, panels=64):
    """Simpson quadrature of the integral of Ad(exp(s u)) over s in [0, 1]."""
    assert panels % 2 == 0
    s = np.linspace(0.0, 1.0, panels + 1)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (s[1] - s[0]) / 3.0
    total = np.zeros((group.dim, group.dim))
    for si, wi in zip(s, weights):
        total += wi * group.adjoint(group.exp(si * coords))
    return total


def central_difference(func, x0, step=1e-6):
    """Central finite-difference Jacobian of func at x0, one column per input."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.atleast_1d(np.asarray(func(x0), dtype=float))
    J = np.zeros((f0.size, x0.size))
    for i in range(x0.size):
        dx = np.zeros_like(x0)
        dx[i] = step
        fp = np.atleast_1d(np.asarray(func(x0 + dx), dtype=float))
        fm = np.atleast_1d(np.asarray(func(x0 - dx), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * step)
    return J


def assert_close(actual, desired, rtol, label=""):
    """Relative Frobenius-norm comparison with a scale-aware floor."""
    actual = np.asarray(actual, dtype=float)
    desired = np.asarray(desired, dtype=float)
    scale = max(np.linalg.norm(desired), 1e-12)
    err = np.linalg.norm(actual - desired) / scale
    assert err <= rtol, f"{label} relative error {err:.3e} > {rtol:.1e}"


def embed_core(A, B, k):
    """The (24+6k)-dimensional transition and noise matrices of a 24-state
    core A (24x24) and B (24x25): identity on the clone blocks, zero noise
    there, as the clones are static."""
    dof = 24 + 6 * k
    A_full = np.eye(dof)
    A_full[0:24, 0:24] = A
    B_full = np.zeros((dof, B.shape[1]))
    B_full[0:24] = B
    return A_full, B_full


def simulate_per_record(spec, config):
    """Reference dataset generation, one record at a time: the truth steps
    by `discrete_dynamics` on the biased noise-free samples, and each record
    draws its gyro and accel noise, then the scan's draws at a scan record,
    then its gyro and accel bias walk.  Pins the stream `run_simulation`
    consumes."""
    rng = np.random.default_rng(config.seed)
    sampler = TrajectorySampler(spec)
    dt = 1.0 / config.imu_rate
    n = int(round(spec.duration * config.imu_rate)) + 1
    stride = max(int(round(config.imu_rate / config.radar_rate)), 1)
    landmarks = rng.uniform(-config.landmark_box, config.landmark_box,
                            size=(config.landmark_count, 3))
    bias_g = config.gyro_bias_std * rng.standard_normal(3)
    bias_a = config.accel_bias_std * rng.standard_normal(3)
    state = SystemState(pose=sampler.state(0.0),
                        bias=np.concatenate([bias_g, bias_a, np.zeros(3)]),
                        cal=config.extrinsics())
    times = np.arange(n) * dt
    body_rates, specific_force = synthesize_imu(sampler, times)
    scan_rng = rng if (config.range_noise or config.bearing_noise or
                       config.doppler_noise or config.id_mismatch_rate) else None
    sqrt_rate, sqrt_dt = np.sqrt(config.imu_rate), np.sqrt(dt)
    poses, biases, gyro, accel, scans = [], [], [], [], []
    for k, t in enumerate(times.tolist()):
        poses.append(state.pose)
        biases.append(state.bias[0:6])
        gyro_clean = body_rates[k] + state.bias[0:3]
        accel_clean = specific_force[k] + state.bias[3:6]
        gyro.append(gyro_clean + config.gyro_noise * sqrt_rate * rng.standard_normal(3))
        accel.append(accel_clean + config.accel_noise * sqrt_rate * rng.standard_normal(3))
        if k % stride == 0 and k > 0:
            scans.append(synthesize_radar_scan(state, gyro_clean, landmarks, config,
                                               scan_id=len(scans), stamp=t, rng=scan_rng))
        if k + 1 < n:
            state = discrete_dynamics(state, SystemInput.from_imu(gyro_clean, accel_clean), dt)
            walk = np.concatenate([config.gyro_walk * sqrt_dt * rng.standard_normal(3),
                                   config.accel_walk * sqrt_dt * rng.standard_normal(3),
                                   np.zeros(3)])
            state = state._replace(bias=state.bias + walk)
    poses, biases = np.array(poses), np.array(biases)
    return SimOutput(
        times=times, rotations=poses[:, 0:3, 0:3], velocities=poses[:, 0:3, 3],
        positions=poses[:, 0:3, 4], gyro_bias=biases[:, 0:3], accel_bias=biases[:, 3:6],
        imu_gyro=np.array(gyro), imu_accel=np.array(accel), scans=tuple(scans),
        landmarks=landmarks, spec=spec, config=config,
    )
