#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The build goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The last stdout line is the
result JSON; see README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_unique", "serve_hot", "train_wsccl")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    return proc.returncode == 0


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (out_dir / "CMakeCache.txt").is_file():
        ok = run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if not ok:
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", str(out_dir), "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"],
                     max(1.0, deadline - time.monotonic()))


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def child_env(workload):
    env = dict(os.environ)
    # Program knobs that would change what is measured.
    for var in ("TPR_TRACE", "TPR_METRICS_OUT", "TPR_FAULT", "TPR_CKPT_DIR",
                "TPR_KERNEL", "TPR_QUANT", "TPR_BATCH_MAX", "TPR_BATCH_TICKS",
                "TPR_MODEL_REGISTRY"):
        env.pop(var, None)
    nproc = os.cpu_count() or 1
    # Serving: one generator + three single-worker shards, so no pool
    # workers. Training: a pool of nproc threads.
    env["TPR_THREADS"] = str(nproc if workload == "train_wsccl" else 1)
    env["PERFBENCH_COMMIT"] = source_id()
    return env


def run_child(cmd, env, timeout):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout:.0f} s")
        return 1, []
    return proc.returncode, out.splitlines()


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    started = time.monotonic()
    out_dir = build_dir()
    if not build(out_dir):
        log("build failed")
        return 1
    if args.selftest:
        return subprocess.run([str(out_dir / "perfbench_selftest")],
                              check=False).returncode

    work = out_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(out_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    # The first run also builds; later runs get the whole budget.
    budget = RUN_TIMEOUT_S if time.monotonic() - started < 60 else 880
    code, lines = run_child(cmd, child_env(args.workload),
                            budget - (time.monotonic() - started))
    spans = work / "spans.json"
    if spans.is_file():
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        dest = traces / f"{args.workload}-seed{args.seed}.json"
        shutil.move(str(spans), str(dest))
        log(f"span buffer written to {dest}")
    shutil.rmtree(work, ignore_errors=True)

    if code != 0 or not lines or not valid_result(lines[-1]):
        log(f"benchmark failed (exit code {code})")
        return code or 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
