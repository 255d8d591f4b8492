"""mixroute benchmark: one workload per run, outputs checked, one JSON line.

    python3 perfbench/run.py --workload rollouts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
A run sets up, runs one untimed warm-up repetition, then repeats the
workload's fixed-size repetition until ``--seconds`` have passed.
``--trace 1`` measures the per-layer metrics instead. The last line of
standard output is the result; see README.md for the metrics.
"""

import os
import time

STARTED = time.perf_counter()

# One BLAS thread, set before numpy loads: the box is shared and the
# router's matrices are far too small to gain from threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit if it has none."""
    src = ROOT / "src"
    if not (src / "mixroute" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'mixroute'} is missing")
    sys.path.insert(0, str(src))
    import mixroute
    if Path(mixroute.__file__).resolve().parent != (src / "mixroute").resolve():
        sys.exit(f"perfbench: imported mixroute from {mixroute.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    import bench
    return bench.main(args, ROOT, STARTED)


if __name__ == "__main__":
    sys.exit(main())
