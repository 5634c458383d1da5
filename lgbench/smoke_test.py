#!/usr/bin/env python3
"""Smoke test for the lgbench benchmark, in a few seconds per workload.

Run from the root of a checkout:

    python3 lgbench/smoke_test.py

For every workload named in BENCHMARK.json it runs run.py at toy scale
(--scale toy: a 64-member large cluster, 24-member paper-grid clusters
with one repetition) twice
untraced and once traced, and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and nothing failed;
  * an untraced run emits exactly the end_to_end metrics of BENCHMARK.json
    and a traced run exactly its per_layer metrics, each with its unit;
  * all three runs print the same digest of the simulated statistics.

It also checks that run.py exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files. Exits 0
when every assertion holds, 1 otherwise.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, "lgbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(proc, expected, errors, label):
    """Returns the run's digest, appending any failed assertion to errors."""
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        errors.append(f"{label}: last line is not JSON ({e})")
        return None
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}\n{proc.stdout[-3000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics not named in BENCHMARK.json: "
                      f"{sorted(set(metrics) - set(expected))}; missing: "
                      f"{sorted(set(expected) - set(metrics))}")
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            errors.append(f"{label}: {name} has unit {m.get('unit')}, "
                          f"BENCHMARK.json says {expected[name]}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")
    digests = [l.split()[1] for l in lines if l.startswith("digest: ")]
    if len(digests) != 1:
        errors.append(f"{label}: expected one digest line, got {len(digests)}")
        return None
    return digests[0]


def check_bare_directory(errors):
    """run.py must fail, printing no result, without the repository's code."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "lgbench", bare / "lgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "paper-grid", 0)
        if proc.returncode == 0:
            errors.append("bare directory: run.py exited 0")
        if proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
            errors.append("bare directory: run.py printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        digests = [
            check_run(run(ROOT, name, 0), e2e, errors, f"{name} untraced #1"),
            check_run(run(ROOT, name, 0), e2e, errors, f"{name} untraced #2"),
            check_run(run(ROOT, name, 1), layers, errors, f"{name} traced"),
        ]
        if None not in digests and len(set(digests)) != 1:
            errors.append(f"{name}: digests differ across runs on seed "
                          f"{SEED}: {digests}")
        print(f"{name}: {'ok' if not errors else 'FAILED'}", flush=True)
    check_bare_directory(errors)
    for e in errors:
        print("FAIL:", e)
    print("smoke test passed" if not errors else
          f"smoke test failed ({len(errors)} assertion(s))")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
