"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/write_golden.py

It runs `eqf-rio simulate`, `run` and `evaluate` on tests/golden/sim.cfg and
tests/golden/run.cfg (the benchmark's `reference` settings with an 80 deg
mount error, 3 s, seed 7), then keeps every ROW_STRIDE-th data row of
estimate.csv as tests/golden/estimate.csv and metrics.json as
tests/golden/metrics.json.  Rewrite them only with a change that moves the
estimates on purpose, and state the move it made.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
ROW_STRIDE = 10


def run_cli(workdir) -> Path:
    """Simulate, run and evaluate the golden spec under workdir; returns the
    directory holding estimate.csv and metrics.json."""
    from eqfrio.cli import main

    data, out = Path(workdir) / "data", Path(workdir) / "out"
    for argv in (["simulate", "--spec", GOLDEN / "sim.cfg", "--out", data],
                 ["run", "--data", data, "--config", GOLDEN / "run.cfg", "--out", out],
                 ["evaluate", "--est", out, "--gt", data / "groundtruth.csv",
                  "--out", out]):
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"eqf-rio {argv[0]} failed")
    return out


def subsample(lines: list) -> list:
    """The header and every ROW_STRIDE-th data row, from the first."""
    return lines[:1] + lines[1::ROW_STRIDE]


def main() -> None:
    workdir = tempfile.mkdtemp()
    try:
        out = run_cli(workdir)
        lines = (out / "estimate.csv").read_text().splitlines()
        (GOLDEN / "estimate.csv").write_text("\n".join(subsample(lines)) + "\n")
        shutil.copyfile(out / "metrics.json", GOLDEN / "metrics.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
