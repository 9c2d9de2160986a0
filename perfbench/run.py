#!/usr/bin/env python3
"""Repository benchmark: build imo-perfbench from source and run one workload.

    python3 perfbench/run.py --workload paper-figures --seed 1 \
        --seconds 10 --trace 0

(--workload all runs the three workloads in turn.)

Builds the benchmark (and the imo library it links) into
.bench_build/perfbench under the checkout root, computes the reference
outputs for the seed in a separate process, then runs the measuring
process, which repeats the workload for --seconds and checks every
output against the reference. Its report is passed through; the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The full record, with the host record and per-span self
times, is kept in .bench_build/perfbench/results/, and the traced run's
Chrome trace (loadable in Perfetto) in .bench_build/perfbench/traces/.

Exits non-zero, printing no result, when the build, the reference or the
measurement fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "imo-perfbench")
WORKLOADS = ("paper-figures", "sampled-sweep", "farm-store")

BUILD_TIMEOUT_S = 850
REFERENCE_TIMEOUT_S = 120
MEASURE_TIMEOUT_S = 150


class BenchError(Exception):
    pass


running = []  # the child process group being waited for, if any


def stop_children(signum, _frame):
    """On SIGTERM/SIGINT, kill the running child's process group (the
    farm workload forks workers) before exiting."""
    for proc in running:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run_checked(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, process_group=0,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    running.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        running.remove(proc)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[:3]),
                                                proc.returncode))
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no imo source tree at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_checked(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_checked(["cmake", "--build", BUILD, "-j", jobs],
                    BUILD_TIMEOUT_S)


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        raise BenchError("last output line is not JSON: %r" % line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("unexpected result keys %s" % sorted(result))
    return result


def main():
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="workload scale (default: the workload's own)")
    ap.add_argument("--results", help="also copy the full record here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale < 0:
        ap.error("--seed, --seconds and --scale must not be negative")
    if args.workload == "all":
        if args.results:
            ap.error("--results needs a single workload")
        status = 0
        for workload in WORKLOADS:
            args.workload = workload
            status = max(status, run_one(args))
        return status
    return run_one(args)


def run_one(args):
    try:
        build()
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        work = os.path.join(BUILD, "runs", "%s-%d" % (tag, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        for sub in ("results", "traces"):
            os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.scale:
            common += ["--scale", repr(args.scale)]
        try:
            reference = os.path.join(work, "reference.txt")
            run_checked([BINARY] + common + ["--emit-reference", reference],
                        REFERENCE_TIMEOUT_S)
            results = os.path.join(BUILD, "results", tag + ".json")
            cmd = [BINARY] + common + [
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--reference", reference,
                "--work-dir", work, "--results", results,
                "--commit", source_id()]
            if args.trace:
                cmd += ["--trace-out",
                        os.path.join(BUILD, "traces", tag + ".json")]
            out = run_checked(cmd, MEASURE_TIMEOUT_S, capture=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = out.rstrip("\n").split("\n")
        parse_result(lines[-1])
        if args.results:
            shutil.copyfile(results, args.results)
    except (BenchError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
