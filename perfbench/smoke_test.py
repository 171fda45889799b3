#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For each workload in BENCHMARK.json it runs perfbench/run.py untraced
twice and traced once with the same seed, for two seconds each, and checks:
- the JSON line carries exactly the metrics BENCHMARK.json names, every
  one with its unit, and the run is correct with no failed op;
- the readable report prints every metric with its unit and sample count;
- the simulated metrics and the simulated stack's counts are byte-identical
  across the three runs (the tracer charges no simulated time);
- no bulletd process outlives a run.
Last, it checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = "7"
SECONDS = "2"

# report lines that must not differ between runs with the same seed; on
# tcp-* the cache counters come from the daemon, on inproc from the
# simulated stack
DETERMINISTIC = ("sim_", "disk.block_device.sectors", "disk.block_device.seeks", "rpc.transport.")
INPROC_DETERMINISTIC = DETERMINISTIC + ("bullet.cache.",)

# printed in the report of an untraced run, though not in its JSON
REPORT_ONLY = ["read_p50_ms", "read_p99_ms", "create_p50_ms", "create_p95_ms", "create_p99_ms", "sim_read_p99_ms", "failed_frac"]


def run(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED, "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def bulletd_processes():
    found = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if b"bulletd" in f.read().split(b"\0")[0]:
                        found.append(pid)
            except OSError:
                pass
    return found


def check_run(spec, workload, trace, failures):
    before = set(bulletd_processes())
    proc = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if list(result["metrics"]) != names:
        failures.append(f"{label}: metrics {list(result['metrics'])} != {names}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            failures.append(f"{label}: {m['name']} unit {got.get('unit')} != {m['unit']}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    report = {line.split()[1]: line for line in lines if line.startswith("metric ")}
    for name in names + (REPORT_ONLY if trace == "0" else ["failed_frac"]):
        if name not in report:
            failures.append(f"{label}: report lacks {name}")
        elif " n=" not in report[name]:
            failures.append(f"{label}: report line without sample count: {report[name]}")
    leftover = set(bulletd_processes()) - before
    if leftover:
        failures.append(f"{label}: bulletd outlived the run: {sorted(leftover)}")
    prefixes = INPROC_DETERMINISTIC if workload.startswith("inproc") else DETERMINISTIC
    return sorted(line for name, line in report.items() if name.startswith(prefixes))


def check_bare_directory(failures):
    bare = os.path.join("perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    proc = run("tcp-read-hot", "0", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("bare directory: the benchmark did not refuse to run")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        first = check_run(spec, name, "0", failures)
        second = check_run(spec, name, "0", failures)
        traced = check_run(spec, name, "1", failures)
        if not first or first != second or first != traced:
            failures.append(f"{name}: simulated metrics differ between runs with seed {SEED}:\n"
                            + "\n".join(sorted(set(first) ^ set(second) | set(first) ^ set(traced))))
        print(f"{name}: checked", flush=True)
    check_bare_directory(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke test", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
