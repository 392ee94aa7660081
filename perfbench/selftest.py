"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that the
last output line names every metric of BENCHMARK.json with its unit and
reports no failed operation.  Then it breaks outputs on purpose -- a
non-finite error-report field, and a fit whose coefficients change between
repeats -- and checks that each failure is counted.  Exits non-zero on the
first failed check.
"""

import contextlib
import functools
import io
import json
import sys
import time

import numpy as np

import run


def last_line(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--toy"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, time.perf_counter())
    check(code == 0, f"{argv} exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_library()
    from kerneldrift import drift, evaluation

    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_line(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} trace={trace}: metrics {got} != {expected}")
            check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                  f"{workload} trace={trace}: a metric has no value")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    def nonfinite_report(original):
        @functools.wraps(original)
        def relative_l2_error(*args, **kwargs):
            report = original(*args, **kwargs)
            report.per_coordinate_rmse[0] = np.nan
            return report
        return relative_l2_error

    def drifting_fit(original):
        calls = []

        @functools.wraps(original)
        def estimate_drift(*args, **kwargs):
            # the k-th call moves one coefficient up by k - 1 ulps
            model = original(*args, **kwargs)
            for _ in calls:
                model.coefficients[0, 0] = np.nextafter(model.coefficients[0, 0], np.inf)
            calls.append(1)
            return model
        return estimate_drift

    for module, name, make in ((evaluation, "relative_l2_error", nonfinite_report),
                               (drift, "estimate_drift", drifting_fit)):
        with patched(module, name, make):
            for trace in (0, 1):
                result = last_line("l63-dense", trace)
                rate = result["metrics"].get("error_rate", {}).get("value")
                check(result["failed"] > 0 and not result["correct"],
                      f"broken {name} (trace={trace}) was not counted as a failure")
                check(trace == 0 or rate > 0,
                      f"broken {name}: traced error_rate is {rate}")
                print(f"ok broken {name} trace={trace}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
