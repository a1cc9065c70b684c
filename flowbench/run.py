#!/usr/bin/env python3
"""Build and run the catlift layout-to-coverage flow benchmark.

Usage, from the root of the repository:

    python3 flowbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 flowbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 flowbench/run.py --self-check
    python3 flowbench/run.py --write-refs

The first form builds flowbench/ (CMake, Release) into .bench_build/flowbench
and runs one measurement; the last line of standard output is the result
JSON.  --all runs every workload untraced and traced and prints every
metric with its unit and each workload's fail_ratio.  --self-check corrupts one reference verdict and one .flt hash and
asserts that every workload then fails, and runs one seed twice in separate
processes to show that every deterministic counter repeats.  --write-refs
regenerates flowbench/refs/ from the current program.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "flowbench"
BINARY = BUILD / "flow_bench"
REFS = HERE / "refs"
WORKLOADS = ["vco_flow", "chain_flow", "vco_revision", "ota_methods"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("flowbench: build failed")


def run_binary(args, capture=False):
    """Run flow_bench in a private work directory, removed afterwards."""
    work = ROOT / ".bench_build" / "flowbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY), "--refs", str(REFS), "--workdir", str(work)] + args
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_of(proc):
    lines = (proc.stdout or "").strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_check():
    ok = True
    for w in WORKLOADS:
        proc = run_binary(["--workload", w, "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--inject-bad-refs"], capture=True)
        res = result_of(proc)
        failed = res["failed"] if res else 0
        ratio = failed / res["attempted"] if res and res["attempted"] else 0.0
        good = proc.returncode != 0 and ratio > 0
        ok &= good
        print(f"inject-bad-refs {w}: exit {proc.returncode}, "
              f"fail_ratio {ratio:.4g} -> {'ok' if good else 'NOT DETECTED'}")

    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            proc = run_binary(["--workload", w, "--seed", "7", "--seconds", "1",
                               "--trace", "1"], capture=True)
            if proc.returncode != 0:
                print(f"repeat {w}: run failed (exit {proc.returncode})")
                ok = False
                break
            # "counters <variant> {json}": the first iteration of each variant.
            runs.append({int(line.split(" ", 2)[1]): json.loads(line.split(" ", 2)[2])
                         for line in proc.stdout.splitlines()
                         if line.startswith("counters ")})
        else:
            common = sorted(set(runs[0]) & set(runs[1]))
            diffs = sorted({f"{v}:{k}" for v in common for k in runs[0][v]
                            if runs[0][v][k] != runs[1][v].get(k)})
            ok &= bool(common) and not diffs
            print(f"repeat {w}: {len(common)} variants compared, "
                  f"{'all counters equal' if not diffs else 'differ: ' + ', '.join(diffs)}")
    return 0 if ok else 1


def run_all(seed, seconds):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run_binary(["--workload", w, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", str(trace)], capture=True)
            res = result_of(proc)
            if proc.returncode != 0 or not res:
                print(f"{w} trace {trace}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            if trace == 0:
                print(f"{w}: fail_ratio {res['failed'] / res['attempted']:.6g} "
                      f"({res['failed']} of {res['attempted']} faults)")
            for line in proc.stdout.splitlines():
                if line.startswith(("metric ", "flow_tail_s is", "attribution:")):
                    print(f"{w}: {line}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--write-refs", action="store_true")
    a = ap.parse_args()

    build()
    if a.self_check:
        return self_check()
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.write_refs:
        work = ROOT / ".bench_build" / "flowbench-work" / "refs"
        cmd = [str(BINARY), "--write-refs", str(REFS), "--workdir", str(work)]
        rc = subprocess.run(cmd).returncode
        shutil.rmtree(work, ignore_errors=True)
        return rc
    if not a.workload:
        ap.error("--workload is required")
    trace_dir = ROOT / ".bench_build" / "flowbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{a.workload}-seed{a.seed}.json"
    proc = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--trace-out", str(trace_out)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
