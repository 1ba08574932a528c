"""Benchmark of the eqfrio run loop: one workload per call.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run repeats whole rounds of the workload until `--seconds` have passed.  A
round is three set-up probes, each in a fresh process, the benchmark's
reference simulation of the round's seeds, the workload's jobs through the
package's entry point, and a short noise-free twin.  With `--trace 1` every round's
simulations, jobs and twin run twice on the same seeds, untraced and traced,
the traced pass records spans around each layer, and the fixed-input layer
timings follow the rounds.

Human-readable lines come first (machine facts, failures with the command
that reruns each one, every metric with its unit); the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, whose names and
units are those of BENCHMARK.json (`end_to_end` for `--trace 0`, `per_layer`
for `--trace 1`).  A full record is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYER_TARGETS, STAGE_TARGETS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES_PER_ROUND = 3   # set-up probes, so that a run of few rounds has several
TRACED = "@traced"     # suffix of job metrics measured with the full trace on
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "EQF_RIO_THREADS")

def use_checkout_src() -> bool:
    """Put the checkout's `src/` first on the import path; False when the
    checkout holds no package."""
    if not (SRC / "eqfrio" / "__init__.py").is_file():
        print(f"error: no eqfrio package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset") for var in BLAS_VARS},
    }
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        facts["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "n/a"
    except OSError:
        facts["git_sha"] = "n/a"
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqfrio").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    return facts


def setup_probe(run) -> None:
    """Two operations in one fresh process (see setup_probe.py): the
    layers' set-up, timed as `setup_s`, and the entry point's own, timed as
    `entry_setup_s`.  A step that raised counts as a failed operation and
    gives no sample."""
    label = run.wl.perturbations[-1]
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           "--workload", run.wl.name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0:
        steps = json.loads(proc.stdout.strip().splitlines()[-1])
    else:
        error = f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        steps = dict.fromkeys(("setup", "entry"), (None, error))
    for stage, metric in (("setup", "setup_s"), ("entry", "entry_setup_s")):
        seconds, error = steps[stage]
        run.attempted += 1
        if error is None:
            run.add(metric, seconds, "s")
        else:
            run.fail(stage, ("-", label), error)


class Run:
    """Counts, failures, problems and per-job samples of one benchmark run.

    An operation is one set-up step of a probe, one job (simulate -> run ->
    evaluate), one reference simulation, one single-process rerun of a sweep
    job or one noise-free twin; jobs are counted on their own as well."""

    JOB_STAGES = ("job", "sweep")

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.jobs_attempted = self.jobs_failed = 0
        self.failures = {}      # (stage, error) -> [(seed, perturbation)]
        self.problems = []
        self.samples = {}       # metric -> values, one per job, probe or round
        self.units = {}         # metric -> unit

    def add(self, name, value, unit):
        if self.units.setdefault(name, unit) != unit:
            raise ValueError(f"{name}: unit {unit!r} after {self.units[name]!r}")
        self.samples.setdefault(name, []).append(value)

    def add_all(self, metrics: dict, suffix=""):
        for name, (value, unit) in metrics.items():
            self.add(name + suffix, value, unit)

    def fail(self, stage, where, error):
        self.failed += 1
        self.jobs_failed += stage in self.JOB_STAGES
        self.failures.setdefault((stage, error), []).append(where)

    def op(self, stage, where, fn):
        """Attempt the operations listed in `where` as one call; if the call
        raises, each of them failed with its error text."""
        self.attempted += len(where)
        self.jobs_attempted += len(where) if stage in self.JOB_STAGES else 0
        try:
            return fn()
        except Exception as exc:
            for w in where:
                self.fail(stage, w, f"{type(exc).__name__}: {exc}")
            return None


def run_round(run: Run, round_index: int, tracer, traced: bool, workdir: Path):
    import jobs

    wl = run.wl
    seeds = wl.job_seeds(run.seed, round_index)
    first = [(seeds[0], "none")]
    suffix = TRACED if traced else ""
    sims = {}
    for seed in seeds:
        tracer.reset()
        sim_out = run.op("simulate", [(seed, "none")], lambda: jobs.simulate(wl, seed))
        if sim_out is None:
            continue
        sims[seed], elapsed, problems = sim_out
        run.problems += problems
        run.add("simulate_s" + suffix, elapsed, "s")
        if traced:
            run.add("simulator.run_simulation.total_s",
                    tracer.total("simulator.run_simulation"), "s")
            run.add("simulator.detections", tracer.counts["simulator.run_simulation"], "count")

    def collect(metrics, problems, _report):
        run.problems += problems
        run.add_all(metrics, suffix)
        if traced:
            run.add_all(layer_samples(tracer))
        run.add("filter.skipped_updates", tracer.skipped.count, "count")

    if wl.entry == "montecarlo":
        where = [(s, p) for p in wl.perturbations for s in seeds]
        result = run.op("sweep", where, lambda: jobs.sweep(wl, seeds))
        swept = None
        if result is not None:
            metrics, problems, failures, swept = result
            run.problems += problems
            run.add_all(metrics, suffix)
            for seed, label, error in failures:
                run.fail("sweep", (seed, label), error)
        tracer.reset()
        own_sim = sims.get(seeds[0])
        fn = _needs_simulation if own_sim is None else \
            lambda: jobs.sweep_rerun(wl, seeds[0], own_sim, swept, tracer)
        result = run.op("rerun", [(seeds[0], wl.perturbations[-1])], fn)
        if result is not None:
            collect(*result)
    else:
        for seed in seeds:
            for label in wl.perturbations:
                tracer.reset()
                own_sim = sims.get(seed)
                if own_sim is None:
                    fn = _needs_simulation
                elif wl.entry == "cli":
                    job_dir = Path(tempfile.mkdtemp(dir=workdir))
                    fn = lambda: jobs.cli_job(wl, seed, label, job_dir, own_sim)  # noqa: E731
                else:
                    fn = lambda: jobs.pipeline_job(wl, seed, label, own_sim, tracer)  # noqa: E731
                result = run.op("job", [(seed, label)], fn)
                if result is not None:
                    collect(*result)
                if wl.entry == "cli" and own_sim is not None:
                    shutil.rmtree(job_dir, ignore_errors=True)
    problems = run.op("twin", first, lambda: jobs.twin(wl, seeds[0]))
    run.problems += problems or []


def _needs_simulation():
    raise RuntimeError("the reference simulation of this round failed")


def layer_samples(tracer) -> dict:
    """Per-job layer metrics of the run loop from the traced spans, as
    {metric: (value, unit)}."""
    out = {}
    if tracer.calls("pipeline.run_filter"):
        out["pipeline.run_filter.self_s"] = (tracer.self_total("pipeline.run_filter"), "s")
    for name in ("filter.propagate", "filter.update_doppler", "filter.update_msc",
                 "filter.clone_augment", "filter.clone_marginalize",
                 "filter.estimated_state", "evaluation.evaluate_run", "io.write", "io.read"):
        calls = tracer.calls(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (tracer.total(name), "s")
        if name in ("filter.propagate", "filter.clone_augment") and calls:
            out[f"{name}.p50_us"] = (1e6 * statistics.median(tracer.durations[name]), "us")
        if name in ("filter.update_doppler", "filter.update_msc"):
            rows = tracer.counts[name]
            out[f"{name}.rows"] = (rows, "count")
            if rows:
                out[f"{name}.us_per_row"] = (1e6 * tracer.total(name) / rows, "us")
    out["io.bytes_written"] = (tracer.counts["io.write"], "bytes")
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child (the
    sweep's workers, the set-up probes), in MiB.  Taken after the rounds and
    before the fixed-input layer timings, so it is the workload's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not use_checkout_src():
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        return _bench(args, wl, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, wl, workdir, out_dir) -> int:
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]}
    facts = machine_facts()
    run = Run(wl, args.seed)
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("workload: " + wl.describe())

    passes = (False, True) if args.trace else (False,)
    round_walls = {False: [], True: []}
    start_loop = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        for _ in range(PROBES_PER_ROUND):
            setup_probe(run)
        # alternate which pass goes first, so warm-up costs fall on both
        for traced in passes if rounds % 2 == 0 else passes[::-1]:
            tracer = Tracer()
            tracer.install(LAYER_TARGETS if traced else STAGE_TARGETS)
            start = perf_counter()
            try:
                run_round(run, rounds, tracer, traced, workdir)
            finally:
                tracer.uninstall()
            round_walls[traced].append(perf_counter() - start)
        rounds += 1
        # only whole rounds, and none that would end past --seconds
        now = perf_counter()
        if now + (now - round_start) > start_loop + args.seconds:
            break

    metrics = {name: (statistics.median(values), run.units[name])
               for name, values in run.samples.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    if args.trace:
        metrics["trace.overhead_s"] = (statistics.median(
            t - u for t, u in zip(round_walls[True], round_walls[False])), "s")
        if "job_s" in metrics:
            metrics["trace.overhead_job_s"] = (
                metrics["job_s" + TRACED][0] - metrics["job_s"][0], "s")
        from layers import layer_timings

        timings, problems = layer_timings(args.seed)
        metrics.update(timings)
        run.problems += problems

    print(f"rounds={rounds} operations attempted={run.attempted} failed={run.failed} "
          f"jobs attempted={run.jobs_attempted} failed={run.jobs_failed}")
    for (stage, error), where in run.failures.items():
        seed, label = where[0]
        print(f"failed x{len(where)} stage={stage} first seed={seed} perturbation={label}: "
              f"{error}")
        if stage in ("setup", "entry"):
            rerun = f"setup_probe.py --workload {wl.name}"
        elif stage == "twin":
            rerun = f"rerun.py --workload {wl.name} --seed {seed} --twin"
        else:
            rerun = f"rerun.py --workload {wl.name} --seed {seed} --perturbation {label}"
        print(f"  rerun: python3 perfbench/{rerun}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:42s} {value:14.6g} {unit}")

    for name, unit in declared.items():
        if name in metrics and metrics[name][1] != unit:
            raise ValueError(f"{name} is measured in {metrics[name][1]}, "
                             f"BENCHMARK.json declares {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    record = {"args": vars(args), "machine": facts, "workload": wl.describe(),
              "rounds": rounds, "jobs_attempted": run.jobs_attempted,
              "jobs_failed": run.jobs_failed, "metrics": metrics,
              "samples": run.samples,
              "failures": [{"stage": s, "error": e, "seed_perturbation": w}
                           for (s, e), w in run.failures.items()],
              "problems": run.problems, "result": result}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
