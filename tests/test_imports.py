"""Importing the run-loop layers loads no stdlib module that only some paths
need: record generation (`dataclasses`), the skipped-update warning
(`logging`), CSV files (`csv`) and Monte-Carlo process pools
(`concurrent.futures`).  `json` is not among them: the command-line front
end and the set-up probe load it anyway, so deferring it saves no time."""

import subprocess
import sys

from helpers import src_env

DEFERRED = ("dataclasses", "logging", "csv", "concurrent.futures")


def test_run_loop_layers_import_without_deferred_modules():
    code = ("import sys\n"
            "import eqfrio, eqfrio.evaluation, eqfrio.io, eqfrio.pipeline\n"
            f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
