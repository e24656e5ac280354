#!/usr/bin/env python3
"""The serving benchmark's one command (see README.md).

    python3 perfbench/run.py --workload road_s1 --seed 1 --seconds 15 --trace 0

Builds the benchmark binary from this checkout's sources (CMake, Release,
under $CARGO_TARGET_DIR or .bench_build), runs one workload, checks the
result against BENCHMARK.json, prints every metric by name and unit, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# End-to-end metrics the run measures and prints but BENCHMARK.json does not
# gate: their spread across seeds on the reference host exceeded the largest
# allowed bound (README.md, "Steadiness").
UNGATED = ("sustainable_eps", "latency_p50_ms", "latency_p99_ms",
           "recovery_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build(out_dir):
    """Configures (once) and builds the perfbench target; returns the
    binary path. Build output goes to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if (sha.returncode == 0 and
                os.path.realpath(top.stdout.strip()) ==
                os.path.realpath(ROOT)):
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True, timeout=10)
            return {"git_sha": sha.stdout.strip(),
                    "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"source_sha256": digest.hexdigest()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="stream-size multiplier (the benchmark's own "
                             "tests shrink the workloads)")
    parser.add_argument("--corrupt", default="",
                        help="test hook: 'served_log' corrupts the served "
                             "assignment log before it is checked")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"{args.workload!r} is not in BENCHMARK.json: not gated")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        out_dir = build_dir()
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--size={args.size}", f"--work_dir={work_dir}"]
    if args.corrupt:
        cmd.append(f"--corrupt={args.corrupt}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"perfbench exited {proc.returncode}")
        return 3
    provenance = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        # Layers this workload does not run report 0 (README.md).
        not_run = [m["name"] for m in wanted if m["name"] not in metrics]
        for m in wanted:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
        result["notes"]["not_run"] = " ".join(not_run)
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or in the wrong unit: {got}")
            return 4
    extra = set(metrics) - {m["name"] for m in wanted} - set(UNGATED)
    if extra:
        log(f"metrics not in BENCHMARK.json: {sorted(extra)}")
        return 4

    provenance.update(source_revision())
    provenance.update({"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                       "workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds})
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, note in result["notes"].items():
        print(f"note {name}: {note}")
    for name, ok in result["checks"].items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} offered)")
    for name in UNGATED:
        if name in metrics:
            print(f"{name} = {metrics[name]['value']:.9g} "
                  f"{metrics[name]['unit']} (not gated)")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]['value']:.9g} {m['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
