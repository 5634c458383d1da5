#!/usr/bin/env python3
"""Build the lgbench benchmark from source and run one workload.

Run from the root of a checkout:

    python3 lgbench/run.py --workload large-cluster --seed 1 --seconds 20 --trace 0

The library under src/ and the benchmark binary under lgbench/src/ are
configured and built with CMake into $CARGO_TARGET_DIR/lgbench (default
.bench_build/lgbench), build output going to stderr. The binary's stdout
is passed through; its last line is the JSON result. Traced runs
(--trace 1) write their spans under <build dir>/spans/. Exits non-zero
without a result when the checkout lacks the library sources or scenario
files, or the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("large-cluster", "paper-grid")


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "lgbench"


def build(out: pathlib.Path) -> bool:
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(ROOT / "lgbench"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return got.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest() -> str:
    """SHA-256 over the files the result depends on: a checkout without git
    still identifies the code that produced a number."""
    h = hashlib.sha256()
    for top in ("src", "scenarios", "lgbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    for need in ("src", "scenarios"):
        if not (ROOT / need).is_dir():
            print(f"run.py: {ROOT / need} is missing; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    out = build_dir()
    if not build(out):
        return 1
    cmd = [str(out / "lgbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scale", args.scale,
           "--root", str(ROOT),
           "--out-dir", str(out / "spans"),
           "--commit", commit(),
           "--src-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
