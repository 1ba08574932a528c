"""The names the benchmark harness in `perfbench/` takes from the package
still resolve.  The tracer replaces module attributes by name, the layer
timings import functions and groups directly, and the jobs and the set-up
probe read `pipeline.X` and `cli.X` inside function bodies, so a renamed or
removed name would stop `perfbench/run.py` before it prints a result."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import setup_probe  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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


def _module_attribute_reads():
    """Every `pipeline.X` and `cli.X` read in the harness's own files."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("pipeline", "cli")):
                reads.add((node.value.id, node.attr))
    return sorted(reads)


@pytest.mark.parametrize("module, attr", _module_attribute_reads())
def test_harness_attribute_reads_resolve(module, attr):
    assert hasattr(importlib.import_module(f"eqfrio.{module}"), attr)


def test_harness_reads_some_attributes():
    assert ("pipeline", "init_std_vector") in _module_attribute_reads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probe_steps_run(name):
    for step in (setup_probe.layers_setup, setup_probe.entry_setup):
        seconds, error = setup_probe.timed(step, WORKLOADS[name])
        assert error is None, f"{step.__name__}: {error}"


def test_layer_calls_run(monkeypatch):
    # every function the layer timings call still accepts the harness's
    # arguments, and the harness's own checks hold; one call per timing
    import layers

    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(layers, "median_us", once)
    metrics, problems = layers.layer_timings(0)
    assert problems == []
    assert "filter.propagate.k10.us" in metrics
