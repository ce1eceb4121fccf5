#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of the repo.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout.  The first run configures and builds
perfbench/ (and the simulator libraries it compiles from src/) with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only rebuild
what changed.  The benchmark's own output, ending in one JSON line,
goes to stdout; build output goes to stderr.

--self-check runs each workload briefly with a fault injected (a skewed
cache value in the server, a flipped byte in a trace file, a wrong page
size in the sweep) and exits 0 only if every run reports failed checks.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("fig2-sweep", "trace-replay", "serve-mix")
# A run must end well inside the 180 s the harness allows.
RUN_TIMEOUT_S = 170


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j",
             str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def commit_id(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a run names the
    code it measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(root, binary, args, extra=(), capture=False):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to the checkout: the serve socket's path must stay
           # under the 108-byte AF_UNIX limit wherever the checkout lives.
           "--state-dir", os.path.relpath(
               os.path.join(build_dir(root), "state"), root),
           "--commit", commit_id(root), "--source-digest", source_digest(root),
           *extra]
    return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                          capture_output=capture, text=capture)


def self_check(root, binary):
    """Every output check must catch its injected fault."""
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=1, seconds=3,
                                  trace=0)
        proc = run(root, binary, args, extra=["--perturb"], capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        bites = result is not None and result["failed"] > 0
        print(f"self-check {workload}: "
              + (f"{result['failed']} of {result['attempted']} checks failed "
                 "as they must" if bites else
                 f"FAULT NOT CAUGHT (exit {proc.returncode})"))
        ok = ok and bites
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="prove every workload's checks catch a fault")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        if args.self_check:
            return 0 if self_check(root, binary) else 1
        return run(root, binary, args).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
