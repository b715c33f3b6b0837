#!/usr/bin/env python3
"""End-to-end benchmark of voprof.

Run from the root of a voprof checkout:

    python3 perfbench/run.py --workload predict_open --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 15

Builds the libraries, voprofd and the vopbench driver from source into
.bench_build/perfbench (incrementally after the first run), runs the
workload and relays vopbench's report. For one workload the last line of
stdout is the JSON result {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. `all` runs the three workloads in turn.

Exit status: 0 measured and verified; 1 a check failed, the generator
fell behind or the run broke; 2 bad arguments or not a voprof checkout
(no result line). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("predict_open", "mixed_serve", "offline_pipeline")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170
# What the build and the workloads read from the checkout.
CHECKOUT = ("CMakeLists.txt", "src", "include", "tools", "scenarios",
            os.path.join("perfbench", "CMakeLists.txt"), "BENCHMARK.json")


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(root, ".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", build_dir, "--target", "vopbench",
                  "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                if cmd is not steps[-1]:
                    # A failed configure must not leave a cache behind.
                    shutil.rmtree(build_dir, ignore_errors=True)
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                die(f"build failed: {' '.join(cmd)}\n{tail}", 1)
    return build_dir


def run_workload(root, build_dir, workload, args, declared):
    work = os.path.join(root, RUNS_DIR,
                        f"{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "vopbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", root,
           "--voprofd", os.path.join(build_dir, "tools", "voprofd"),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s (kept {work})", 1)
    finally:
        # Nothing vopbench started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(out, end="")
        die(f"{workload}: no result line (exit {proc.returncode}, "
            f"kept {work})", 1)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != declared:
        print("\n".join(lines[:-1]))
        die(f"{workload}: its metrics differ from BENCHMARK.json", 1)
    print("\n".join(lines), flush=True)
    if proc.returncode == 0:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of voprof (perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", 2)
    root = os.getcwd()
    missing = [p for p in CHECKOUT if not os.path.exists(os.path.join(root, p))]
    if missing:
        die("not the root of a voprof checkout (missing "
            + ", ".join(missing) + ")", 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[key]}
    build_dir = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status,
                     run_workload(root, build_dir, workload, args, declared))
    sys.exit(status)


if __name__ == "__main__":
    main()
