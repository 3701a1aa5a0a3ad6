"""Benchmark of cardproj, run through its command line in one process.

    python3 bench/run.py --workload pc --seed 1 --seconds 50 --trace 0

Workloads: pc and sc (see README.md).  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` the same rounds run with
per-layer spans installed and the run reports the per-layer metrics
instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
run exits with code 2 and prints no result.
"""

import os

# one process, one thread: pin the BLAS pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pc", "sc")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cardproj" / "__init__.py").is_file():
        print(f"error: no cardproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    loaded = Path(workloads.cli.__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        print(f"error: imported cardproj from {loaded}, not from this checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for name, value in outcome.metrics.items():
        unit = workloads.UNITS.get(name) or workloads.layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    correct = not outcome.problems and outcome.failed == 0
    print(f"workload={args.workload} seed={args.seed} attempted={outcome.attempted} "
          f"failed={outcome.failed} correct={str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
