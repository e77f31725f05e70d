#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 5 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 prints
the per-layer metrics (counters of an untraced run, span self times of a
traced run, and the layer pass). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --workload all
runs every workload, each in its own process, and ends with one object that
maps each workload to its result. The exit status is 0 only when the build
succeeded, the checkers' self-test passed, every output check passed and
every printed metric is one BENCHMARK.json names.

The build goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-hot", "point-cold", "scan-insert", "sim-storm")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
# A run ends well inside the 180 s a run may take; the first run of a
# checkout also builds, which is not counted here.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds the benchmark binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "perfbench"]]
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(cmd):
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    return p.returncode, p.stdout


def validate(result, trace):
    """Checks the result line of one run against the contract."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or result[k] < 0:
            fail("%s is not a whole number" % k)
    if result["attempted"] < 1:
        fail("no operation was attempted")
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            fail("metric name %r is malformed" % name)
        if name not in expected:
            fail("metric %r is not in BENCHMARK.json" % name)
        if m.get("unit") != expected[name]:
            fail("metric %r has unit %r, BENCHMARK.json says %r"
                 % (name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %r has no finite value" % name)
    missing = sorted(set(expected) - set(metrics))
    if missing:
        fail("metrics not printed: %s" % ", ".join(missing))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out = build_dir()
    binary = build(out)

    # The checkers are tested on every run: a run whose checkers cannot
    # catch a wrong value proves nothing.
    rc, text = run([binary, "--selftest"])
    if rc != 0:
        sys.stderr.write(text)
        fail("checker self-test failed")

    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    results, ok = {}, True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        # Each workload runs in its own process.
        rc, text = run([binary, "--workload", workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out_dir", spans_dir])
        lines = text.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stdout.write(text)
            fail("%s: exited %d without a result" % (workload, rc))
        for line in lines[:-1]:
            print(line)
        validate(result, args.trace == 1)
        results[workload] = result
        ok = ok and rc == 0 and result["correct"]
    # One workload: its result object. "all": one object per workload.
    print(json.dumps(results if args.workload == "all" else result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
