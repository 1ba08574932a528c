"""Set-up probe, run in a fresh process once per round by run.py.  It times
two steps, each inside this process, so interpreter start-up is left out:

1. `setup`: import of the package and its run-loop layers (`lie`,
   `symmetry`, `measurements`, `filter`, `simulator`, `evaluation`, `io`,
   numpy with them) and the preparation those layers offer: process noise,
   Doppler noise, initial state with the workload's mount perturbation, and
   the initial belief from a diagonal covariance.  None of it needs
   `pipeline`, so it is the same work at every commit.
2. `entry`: then import of the workload's entry module (`eqfrio.cli` or
   `eqfrio.pipeline`) and the entry point's own preparation: settings,
   initial state, initial covariance transported through the chart, and
   initial belief.

    python3 perfbench/setup_probe.py --workload reference

Prints one JSON line, {"setup": [seconds, error], "entry": [seconds, error]},
where seconds is null and error the "<type>: <message>" text of a step that
raised.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def layers_setup(wl) -> None:
    import numpy as np

    import eqfrio  # noqa: F401
    from eqfrio import evaluation, simulator  # noqa: F401
    from eqfrio.filter import initialize, process_noise
    from eqfrio.io import parse_perturbation
    from eqfrio.lie import SE3, SE23, SO3
    from eqfrio.measurements import DopplerNoiseSpec
    from eqfrio.symmetry import SystemState

    run, sim = wl.run, wl.sim
    process_noise(gyro=run["noise.gyro_density"], accel=run["noise.accel_density"],
                  gyro_walk=run["noise.gyro_walk"], accel_walk=run["noise.accel_walk"])
    DopplerNoiseSpec(sigma_gyro=run["noise.gyro_density"] * np.sqrt(sim["imu_rate"]),
                     sigma_range=run["radar.sigma_range"],
                     sigma_bearing=run["radar.sigma_bearing"],
                     sigma_doppler=run["radar.sigma_doppler"])
    perturb = parse_perturbation(wl.perturbations[-1])
    cal = (SE3.from_components(SO3.exp(np.asarray(sim["cal.rot"])), np.asarray(sim["cal.pos"]))
           @ SE3.from_components(SO3.exp(perturb), np.zeros(3)))
    xi0 = SystemState(pose=SE23.from_components(np.eye(3), np.zeros(3), np.zeros(3)),
                      bias=np.zeros(9), cal=cal)
    initialize(xi0, np.diag(np.full(24, 1e-4)))


def entry_setup(wl) -> None:
    import importlib

    import numpy as np

    importlib.import_module("eqfrio.cli" if wl.entry == "cli" else "eqfrio.pipeline")
    from eqfrio import pipeline
    from eqfrio.filter import initialize
    from eqfrio.io import parse_perturbation
    from eqfrio.lie import SE3, SO3

    values = {k: v for k, (_, v) in pipeline.RUN_SCHEMA.items()}
    values.update(wl.run)
    values["perturb.calibration"] = wl.perturbations[-1]
    pipeline.settings_from_values(values, wl.sim["imu_rate"])
    perturb = parse_perturbation(values["perturb.calibration"])
    cal = SE3.from_components(SO3.exp(np.asarray(wl.sim["cal.rot"])),
                              np.asarray(wl.sim["cal.pos"]))
    xi0 = pipeline.initial_state_from_truth(np.eye(3), np.zeros(3), np.zeros(3), cal, perturb)
    cov0 = pipeline.initial_covariance(
        xi0, pipeline.init_std_vector(values, float(np.linalg.norm(perturb))))
    initialize(xi0, cov0)


def timed(fn, wl):
    start = perf_counter()
    try:
        fn(wl)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, None


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    wl = WORKLOADS[parser.parse_args().workload]
    setup = timed(layers_setup, wl)
    entry = timed(entry_setup, wl) if setup[1] is None else (None, "set-up failed")
    print(json.dumps({"setup": setup, "entry": entry}))
