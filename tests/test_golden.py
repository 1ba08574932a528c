"""Golden output: `eqf-rio simulate`, `run` and `evaluate` on a committed
3 s spec against committed rows of estimate.csv and metrics.json, written by
tests/write_golden.py."""

import json

import numpy as np

from write_golden import GOLDEN, run_cli, subsample

# eight earlier commits, back to 40bc1bd, whose refactors moved the estimates
# by rounding, gave these metrics within 1.3e-11 relative; GRAVITY changed by
# 1e-6 relative moves them by 7.1e-8
METRICS_RTOL = 1e-9


def _rows(lines):
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_cli_reproduces_golden_output(tmp_path):
    out = run_cli(tmp_path)
    lines = subsample((out / "estimate.csv").read_text().splitlines())
    golden_lines = (GOLDEN / "estimate.csv").read_text().splitlines()
    assert lines[0] == golden_lines[0]
    got, want = _rows(lines), _rows(golden_lines)
    assert got.shape == want.shape
    # columns: t, quaternion (w, x, y, z), position, velocity, covariance
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1:5] - want[:, 1:5]).max() <= 1e-8
    assert np.abs(got[:, 5:11] - want[:, 5:11]).max() <= 1e-7
    cov_scale = np.abs(want[:, 11:]).max(axis=1, keepdims=True)
    assert (np.abs(got[:, 11:] - want[:, 11:]) <= 1e-7 * cov_scale).all()

    metrics = json.loads((out / "metrics.json").read_text())
    golden = json.loads((GOLDEN / "metrics.json").read_text())
    assert metrics.keys() == golden.keys()
    assert metrics["convergence"] == golden["convergence"]
    for key, value in golden.items():
        if key != "convergence":
            assert abs(metrics[key] - value) <= METRICS_RTOL * abs(value), key
