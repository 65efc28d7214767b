#!/usr/bin/env python3
"""End-to-end benchmark of rrqueue against real rrqd daemons.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload request_reply --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --test      # the benchmark's own tests

Builds the repository's libraries, rrqd and the benchmark driver in
Release under .bench_build/, runs one workload in a fresh scratch
directory under .bench_work/, and prints the driver's report; the last
line of stdout is the result JSON. Every process the run starts is
killed and every scratch directory removed when it ends, also when the
run is cut short by its own time limit. See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("request_reply", "volatile_pipeline", "replicated_ack")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    remaining = max(1.0, deadline - time.monotonic())
    return subprocess.run(cmd, stdout=sys.stderr, timeout=remaining).returncode == 0


def kill_group(proc):
    """Kills everything in the child's process group and reaps the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_driver(args):
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    cmd = [os.path.join(BUILD, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    # Its own session: on a timeout the whole group (driver and rrqd
    # daemons) is killed at once.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        log("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    finally:
        kill_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("e2e_bench exited with status %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("e2e_bench printed no result line")
        return 1
    return 0


def run_tests():
    if not build(["e2e_bench_tests"]):
        return 2
    return subprocess.run([os.path.join(BUILD, "e2e_bench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the clean-up in run_driver runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.test:
        return run_tests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build(["e2e_bench", "rrqd"]):
        log("build failed")
        return 2
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
