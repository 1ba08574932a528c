"""SHA-256 of the `reference` job's estimate.csv for one seed, made anew by
running that job through `eqf-rio simulate`, `run` and `evaluate` in a
temporary directory.  It serves as a golden output without a committed copy:
a change that keeps the arithmetic must keep the digest.

    python3 perfbench/digest.py --seed 0

Prints the hex digest; exit code 1 when the job fails or a check fails.
"""

import argparse
import hashlib
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not run.use_checkout_src():
        return 2
    import jobs
    from workloads import WORKLOADS

    wl = WORKLOADS["reference"]
    (run.HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.HERE / "out"))
    try:
        own_sim, _, problems = jobs.simulate(wl, args.seed)
        _, more, _ = jobs.cli_job(wl, args.seed, wl.perturbations[-1], workdir, own_sim)
        digest = hashlib.sha256((workdir / "est" / "estimate.csv").read_bytes()).hexdigest()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems + more:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(digest)
    return 1 if problems + more else 0


if __name__ == "__main__":
    sys.exit(main())
