"""Rerun one job of a workload alone, in this process, as the benchmark ran
it, and print its metrics and check results or the traceback of its
failure.  The failure lines of run.py print this command with the exact
arguments of each failed job.

    python3 perfbench/rerun.py --workload reference --seed 3 --perturbation y:80deg
    python3 perfbench/rerun.py --workload sweep --seed 4 --perturbation none
    python3 perfbench/rerun.py --workload doppler-dense --seed 3 --twin

A sweep job is rerun as montecarlo's worker runs it, through
`simulate_and_run` and `evaluate_run` (`jobs.pipeline_job`, the same path
as run.py's single-process rerun of a sweep job).  Exit code 0 when the
job completes and passes its checks.
"""

import argparse
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--perturbation", default="none")
    parser.add_argument("--twin", action="store_true", help="rerun the noise-free twin")
    args = parser.parse_args(argv)
    if not run.use_checkout_src():
        return 2
    import jobs
    from tracer import STAGE_TARGETS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    (run.HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.HERE / "out"))
    tracer = Tracer()
    tracer.install(STAGE_TARGETS)
    try:
        if args.twin:
            metrics, problems = {}, jobs.twin(wl, args.seed)
        else:
            own_sim, _, problems = jobs.simulate(wl, args.seed)
            if wl.entry == "cli":
                metrics, more, _ = jobs.cli_job(wl, args.seed, args.perturbation, workdir,
                                                own_sim)
            else:
                metrics, more, _ = jobs.pipeline_job(wl, args.seed, args.perturbation,
                                                     own_sim, tracer)
            problems += more
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"skipped updates: {tracer.skipped.count}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
