#!/usr/bin/env python3
"""The repository's benchmark: builds the system from source, runs one
workload and prints its result as the last line of standard output.

    python3 perfbench/run.py --workload gold_batch --seed 1 --seconds 20 --trace 0

Workloads, metrics and the correctness record (graph digests of the
default seed, quality floors) live in perfbench/spec.json;
BENCHMARK.json at the repository root lists the metrics and bounds.
Everything the run builds or writes stays under .bench_build/ in the
checkout. Exit status: 0 on a correct run, non-zero otherwise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    """Configures, then builds the benchmark program and the daemon (both
    near no-ops when nothing changed). Build output goes to a log file."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=subprocess.STDOUT, env=env)
        if configure.returncode != 0:
            return log_path
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "perfbench", "somr_serve"],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    return None if made.returncode == 0 else log_path


def reap_group(pgid):
    """Kills whatever is left of the run's process group and waits until
    it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/test_perfbench.py).
    parser.add_argument("--perturb", choices=("graph", "request"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(sorted(spec["workloads"]))))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the system's sources (src/) are not in this checkout")
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    bench_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.abspath(bench_root).startswith(ROOT + os.sep):
        bench_root = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(bench_root, "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(bench_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log = build(build_dir, env)
    if log is not None:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log, 3)

    work_dir = os.path.join(bench_root, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % seed,
           "--seconds=%r" % seconds,
           "--trace=%d" % args.trace,
           "--work-dir=" + work_dir,
           "--serve-bin=" + os.path.join(build_dir, "somr_serve"),
           "--min-object-accuracy=%r" % workload.get("min_object_accuracy", 0),
           "--min-edge-f1=%r" % workload.get("min_edge_f1", 0)]
    if "digest" in workload:
        cmd.append("--expect-digest=" + workload["digest"])
    if args.perturb:
        cmd.append("--perturb=" + args.perturb)
    if args.tiny:
        cmd.append("--tiny")

    # The program and every daemon it starts share one process group, so
    # nothing outlives the run even if the program dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        reap_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
