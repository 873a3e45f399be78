#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload pairs|churn|dispatch --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads, short, schema check
    python3 perfbench/run.py --selftest   # metric derivations on synthetic data

Run from the repository root.  perfbench_measure is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Build output and notes go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("pairs", "churn", "dispatch")
MEASURE_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure and build perfbench_measure; return its path."""
    bdir = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_measure"],
                   check=True, **quiet)
    return os.path.join(bdir, "perfbench_measure")


def run_once(exe, workload, seed, seconds, trace):
    """Measure one workload; return (result object, notes)."""
    out = os.path.join(build_dir(), "out", f"{workload}-{seed}-{trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--out", out],
                   check=True, timeout=MEASURE_TIMEOUT_S, stdout=sys.stderr)
    with open(os.path.join(out, "raw.json")) as f:
        raw = json.load(f)
    m, correct, attempted, failed, notes = metrics.derive(raw, out)
    shutil.rmtree(out, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in m.items()},
    }
    return result, notes


def expected_metrics(trace):
    """Metric names and units the run must print, from BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_schema(result, trace):
    """Problems with one printed result, as strings (empty when valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: value {m['value']!r}")
        elif not trace and result.get("correct") and not m["value"] > 0:
            problems.append(f"{name}: end-to-end value {m['value']} is not > 0")
    return problems


def smoke(exe):
    """Every workload, untraced and traced, one second each."""
    bad = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_once(exe, w, 1, 1, trace)
            problems = check_schema(result, trace)
            if not result["correct"]:
                problems.append("correctness gate failed")
            log(f"smoke {w} trace={trace}: {'ok' if not problems else problems}")
            bad += bool(problems)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    try:
        exe = build()
        if a.smoke:
            return smoke(exe)
        result, notes = run_once(exe, a.workload, a.seed, a.seconds, a.trace)
    except (subprocess.SubprocessError, OSError, metrics.DerivationError) as e:
        log(f"perfbench: {e}")
        return 1
    for n in notes:
        log(n)
    problems = check_schema(result, a.trace)
    if problems:
        log(f"perfbench: output schema: {problems}")
        return 1
    if not result["correct"]:
        log("perfbench: CORRECTNESS GATE FAILED")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
