"""Benchmark of hftequil: solve_mix, nash_sweep and verify_battery.

Run from the repository root:

    python3 perfbench/run.py --workload solve_mix --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run,
which makes a fixed tour of all workloads and does not use ``--seconds``.
Records and span files go to perfbench/out/. See NOTES.md.
"""
import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "hftequil" / "__init__.py").is_file():
        print(f"perfbench: no hftequil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One caller on a 2-core shared host: BLAS must not start its own threads.
    # Set before numpy is imported; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
