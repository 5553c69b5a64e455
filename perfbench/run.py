#!/usr/bin/env python3
"""The repository benchmark: build, then run one workload.

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-goldens

Run from the repository root. The first run configures and builds libunit,
unit_serve and the load generator (Release) under .bench_build/; later runs
only rebuild what changed. The last stdout line is the JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["zoo-cold", "serve-mixed", "warm-rpc", "fleet-fetch"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the generator; returns its directory."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_gen"],
                   check=True, stdout=sys.stderr)
    return build_dir


def reap_group(pgid):
    """Kills whatever is left of process group pgid and waits until it is
    gone (daemons are the generator's children, not ours)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_generator(argv):
    """Runs the generator in its own process group, so a timeout or crash
    also takes down any daemon it started."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("error: the run exceeded %d s" % RUN_TIMEOUT_S)
        out, proc.returncode = "", 1
    reap_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-goldens", action="store_true",
                    help="regenerate perfbench/golden from a sequential "
                         "compile of the zoo")
    args = ap.parse_args()
    if not args.write_goldens and not args.workload:
        ap.error("--workload is required")

    repo = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(repo, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(repo, "src"))):
        log("error: the repository sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; run from a full checkout")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build_dir = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("error: build failed: %s" % e)
        return 2
    gen = os.path.join(build_dir, "perfbench_gen")
    golden = os.path.join(HERE, "golden")
    if args.write_goldens:
        return subprocess.run([gen, "--write-goldens", golden]).returncode

    # Relative, so socket paths stay short wherever the checkout lives.
    work = os.path.join(os.path.relpath(build_root), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, out = run_generator([
            gen, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--serve", os.path.join(build_dir, "unit", "unit_serve"),
            "--golden", golden, "--work", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        log("error: the generator exited %d without a result" % code)
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
