#!/usr/bin/env python3
"""The repository benchmark: host speed of the hsc simulator.

Builds ``hsc_perfbench`` (perfbench/measure.cc linked against the
library sources of this checkout) into ``.bench_build/perfbench``,
runs one workload in its own process for ``--seconds`` seconds, checks
the simulated outputs, and prints one JSON object as the last line of
standard output:

    python3 perfbench/run.py --workload paper_sweep --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  Exit status is 0 when a result was
printed, 1 when the build or hsc_perfbench failed, 2 on bad arguments.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hsc_perfbench")
WORKLOADS = ("paper_sweep", "big_fill", "scenario_checked")
# Few compile jobs: the host's memory is shared.
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
# Seconds hsc_perfbench may run past --seconds: it finishes its last
# batch, and a run must end within 180 s in all.
RUN_SLACK_S = 100


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (a no-op when nothing changed) and build hsc_perfbench."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", BUILD_JOBS]]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return False
        if res.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def binary_hash():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def cross_process_check(workload, seed, code, rows):
    """Compare this run's digests with an earlier run of the binary
    whose hash is ``code`` and the same seed, recording them on first
    use."""
    ref_dir = os.path.join(BUILD, "digests")
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, "%s-%d-%s.json" % (workload, seed, code))
    digests = benchstats.reference_digests(rows)
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != digests:
                return ["digests differ from an earlier run of the same "
                        "binary and seed (%s)" % path]
        return []
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(digests, f)
    os.replace(tmp, path)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    # Hashed before the run, so that a rebuild while it runs cannot
    # file its digests under another binary.
    code = binary_hash()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             timeout=args.seconds + RUN_SLACK_S,
                             universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("hsc_perfbench did not finish in time")
        return 1
    if res.returncode != 0:
        log("hsc_perfbench exited with %d" % res.returncode)
        return 1
    rows = benchstats.parse_lines(res.stdout)

    problems = benchstats.check(rows)
    problems += cross_process_check(args.workload, args.seed, code, rows)
    for p in problems:
        log("CHECK FAILED: " + p)
    attempted, failed = benchstats.outcome(rows)
    metrics = (benchstats.per_layer(rows) if args.trace
               else benchstats.end_to_end(rows))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
