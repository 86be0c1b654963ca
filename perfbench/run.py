#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt: the engine's src/ plus the
files here, RelWithDebInfo) under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. Build output goes to
stderr. The binary then runs the workload; stdout gets one record line
({"perfbench": {...}}: sizes, query counts, failures, build, git sha,
source hash) and, last, the result line {"correct", "attempted", "failed",
"metrics"}.

With --trace 1 the spans are written, as Chrome trace-event JSON, to
<build root>/traces/<workload>.json (open it in Perfetto).

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("fig11-mv", "fig7-relational", "short-sql", "fig11-mv-dop2")
# The binary must end within the 180 s a run may take, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_hash(root):
    """SHA-256 over the engine and benchmark sources (a checkout need not
    be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    b = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)

    binary = build(root, build_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark binary exited with code %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        record = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail("benchmark output is not a record line and a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    record["git_sha"] = git_sha(root)
    record["source_sha256"] = source_hash(root)
    print(json.dumps({"perfbench": record}))
    # The binary's own line, so every digit it printed is kept.
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
