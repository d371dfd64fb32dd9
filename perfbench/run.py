#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark program (and the
webcache libraries it links, from ./src) into .bench_build/, runs one
workload in a fresh process, and prints the program's report. The last line
of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). See perfbench/README.md for the workloads and metrics.

    python3 perfbench/run.py --workload all --seconds S

runs every workload in turn and prints each one's report and result line.

    python3 perfbench/run.py --record-digests

rewrites perfbench/reference_digests.txt for the default and the held-out
seed (only after a change that is meant to change simulation results).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "webcache_perfbench"
REFS = HERE / "reference_digests.txt"
WORKLOADS = ("paper_sweep", "stream_large")
DEFAULT_SEED = 2003
HELD_OUT_SEED = 1977
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds incrementally; build logs go to stderr."""
    build_dir = BINARY.parent
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_program(workload, seed, seconds, trace, extra):
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)] + extra
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def result_line(stdout):
    """The program's last line, validated against the result contract."""
    last = stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if result["attempted"] < 1:
        raise ValueError("no simulation was attempted")
    return last


def record_digests():
    REFS.write_text(
        "# Reference digests: <workload> <seed> <simulation> <digest>.\n"
        "# The digest hashes a sequential simulation's outcome counters and its\n"
        "# mean latency (7 significant digits). Seed %d is the default, seed %d\n"
        "# the held-out seed. Regenerate with: python3 perfbench/run.py "
        "--record-digests\n" % (DEFAULT_SEED, HELD_OUT_SEED))
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            proc = run_program(workload, seed, 0, 0,
                              ["--record-digests", str(REFS)])
            if proc.returncode != 0:
                return proc.returncode
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        if args.record_digests:
            return record_digests()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            if run_workload(workload, args) != 0:
                return 1
    except (OSError, subprocess.SubprocessError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    return 0


def run_workload(workload, args):
    extra = ["--refs", str(REFS)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        extra += ["--spans-out", str(spans / ("%s-seed%d.jsonl" % (workload, args.seed)))]
    proc = run_program(workload, args.seed, args.seconds, args.trace, extra)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark program exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    last = result_line(proc.stdout)
    body = proc.stdout.rstrip("\n").split("\n")[:-1]
    if body:
        print("\n".join(body))
    print(last)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
