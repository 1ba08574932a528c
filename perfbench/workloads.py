"""The benchmark's workloads: dataset make-up, filter settings and seeds.

Each workload is written in the keys of the `eqf-rio` configuration files,
so the same values drive the CLI (written out as spec and config files),
`pipeline.simulate_and_run` and `pipeline.montecarlo` (as value dicts), and
the benchmark's own reference simulation (through `simulator.SimConfig`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The criterion-5 setup of the acceptance suite: excited preset, 50 Hz IMU,
# 10 Hz radar, 60 landmarks (about 19 detections per scan).
BASE_SIM = {
    "preset": "excited",
    "duration": 20.0,
    "imu_rate": 50.0,
    "radar_rate": 10.0,
    "noise.gyro_density": 0.005,
    "noise.accel_density": 0.05,
    "noise.gyro_walk": 1e-4,
    "noise.accel_walk": 1e-3,
    "bias.gyro_std": 0.003,
    "bias.accel_std": 0.03,
    "radar.sigma_range": 0.05,
    "radar.sigma_bearing": math.radians(0.5),
    "radar.sigma_doppler": 0.05,
    "cal.rot": (0.1, -0.2, 0.3),
    "cal.pos": (0.1, 0.05, -0.02),
    "landmarks.count": 60,
    "landmarks.box": 12.0,
    "fov.half_angle_deg": 60.0,
    "fov.max_range": 20.0,
}

BASE_RUN = {
    "noise.gyro_density": 0.005,
    "noise.accel_density": 0.05,
    "noise.gyro_walk": 1e-4,
    "noise.accel_walk": 1e-3,
    "init.gyro_bias_std": 0.003,
    "init.accel_bias_std": 0.03,
    "radar.sigma_range": 0.05,
    "radar.sigma_bearing": math.radians(0.5),
    "radar.sigma_doppler": 0.05,
    "filter.k_max": 10,
    "filter.use_msc": True,
}

# keys zeroed for the noise-free twin of a workload
NOISE_KEYS = ("noise.gyro_density", "noise.accel_density", "noise.gyro_walk",
              "noise.accel_walk", "bias.gyro_std", "bias.accel_std",
              "radar.sigma_range", "radar.sigma_bearing", "radar.sigma_doppler")
TWIN_DURATION = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str              # "cli", "simulate_and_run" or "montecarlo"
    sim: dict
    run: dict
    perturbations: tuple    # one job per perturbation and seed in a round
    seeds_per_round: int
    why: str

    def job_seeds(self, seed: int, round_index: int) -> list[int]:
        """Simulation seeds of one round; the same --seed gives the same
        sequence of rounds."""
        base = 1000 * seed + self.seeds_per_round * round_index
        return [base + i for i in range(self.seeds_per_round)]

    def describe(self) -> str:
        s, r = self.sim, self.run
        return (f"{self.name}: entry={self.entry} preset={s['preset']} "
                f"duration={s['duration']:g}s imu={s['imu_rate']:g}Hz "
                f"radar={s['radar_rate']:g}Hz landmarks={s['landmarks.count']} "
                f"k_max={r['filter.k_max']} use_msc={r['filter.use_msc']} "
                f"perturbations={','.join(self.perturbations)} "
                f"seeds/round={self.seeds_per_round}")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="reference",
        entry="cli",
        sim=dict(BASE_SIM),
        run=dict(BASE_RUN),
        perturbations=("y:80deg",),
        seeds_per_round=1,
        why="criterion-5 setup with an 80 deg mount error through eqf-rio "
            "simulate/run/evaluate and CSV files: every layer in the user's mix",
    ),
    Workload(
        name="imu-dense",
        entry="simulate_and_run",
        sim={**BASE_SIM, "duration": 5.0, "imu_rate": 400.0},
        run=dict(BASE_RUN),
        perturbations=("none",),
        seeds_per_round=1,
        why="400 Hz IMU with the clone window full: propagation at up to 84 "
            "states and per-record loop bookkeeping dominate",
    ),
    Workload(
        name="doppler-dense",
        entry="simulate_and_run",
        sim={**BASE_SIM, "duration": 5.0, "radar_rate": 20.0,
             "landmarks.count": 300},
        run={**BASE_RUN, "filter.use_msc": False},
        perturbations=("none",),
        seeds_per_round=1,
        why="no clones, about 90 detections per 20 Hz scan: the Doppler update "
            "and the simulator's range/bearing noise dominate",
    ),
    Workload(
        name="sweep",
        entry="montecarlo",
        sim={**BASE_SIM, "duration": 8.0},
        run=dict(BASE_RUN),
        perturbations=("none", "y:80deg"),
        seeds_per_round=2,
        why="pipeline.montecarlo on nproc worker processes: the same layers in "
            "parallel, exposing BLAS thread oversubscription",
    ),
)}
