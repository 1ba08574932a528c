"""The names the benchmark harness in `perfbench/` takes from the package
still resolve.  The tracer replaces module attributes by name and the layer
timings import functions and groups directly, so a renamed or removed name
would stop `perfbench/run.py` before it prints a result."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402


@pytest.mark.parametrize("module, attr", sorted({t[:2] for t in tracer.LAYER_TARGETS}))
def test_traced_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_harness_modules_import():
    import jobs  # noqa: F401
    import layers  # noqa: F401


def test_layer_groups_have_timed_methods():
    import layers

    for group in (layers.SO3, layers.SE3, layers.SE23, layers.Gal3):
        for name in ("exp", "log", "adjoint", "left_jacobian"):
            assert callable(getattr(group, name)), f"{group.__name__}.{name}"
        assert isinstance(group.dim, int)
