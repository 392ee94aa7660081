"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload l63-dense --seed 0 --seconds 20 --trace 0

Run it from the root of a kerneldrift checkout; it imports the package from
that checkout's ``src/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Full results (environment,
per-cell records, and for traced runs every span) go to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("l63-dense", "l96-sparse", "hopf-cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="training path seed; the held-out path uses seed + 1")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting cells until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long workload sizes, for the self-test")
    # internal modes of the child processes the benchmark starts
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ref-fit", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library() -> None:
    """Import kerneldrift from this checkout, with BLAS threads capped at nproc.

    The thread variables must be set before numpy first loads.
    """
    package = ROOT / "src" / "kerneldrift" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a kerneldrift checkout")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None, t0: float = T0) -> int:
    args = parse_args(argv)
    load_library()
    import bench

    return bench.run(args, t0)


if __name__ == "__main__":
    sys.exit(main())
