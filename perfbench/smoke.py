#!/usr/bin/env python3
"""Smoke self-check of the benchmark: a tiny-window pass over every workload.

usage: python3 perfbench/smoke.py

For each workload in BENCHMARK.json, and for mobilenet-gpu-dlion, which
the binary runs by hand, runs perfbench/run.py untraced and traced on a
short simulated window and checks that
  - the result line has exactly the keys correct/attempted/failed/metrics,
    is correct, and failed nothing;
  - the correctness gate ran: the one-thread reference plus at least one
    timed repeat were compared, and the report carries a digest;
  - every metric BENCHMARK.json names appears with its unit and a finite
    value;
  - the report line carries the provenance fields.
Exits 1 on the first failed check. Takes about a minute on 4 cores.
"""
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Short simulated windows; elastic keeps its flash-crowd joins (t >= 30 s).
SMOKE_WINDOWS = {
    "cipher-hetero-dlion": 60.0,
    "mobilenet-gpu-dlion": 4.0,
    "elastic-flash-crowd-hop": 45.0,
}
PROVENANCE = ("git_sha", "source_sha256", "build_type", "compiler",
              "gemm_kernel", "DLION_THREADS", "nproc", "kernel_release",
              "seed", "window_s")


def check(cond, what):
    if not cond:
        print(f"smoke: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        check(workload["name"] in SMOKE_WINDOWS,
              f"no smoke window for {workload['name']}")
    for name, window in SMOKE_WINDOWS.items():
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--window", str(window)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            where = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            check(len(lines) >= 2, f"{where}: no report line")
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{where}: result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: gate failed: {report['problems']}")
            check(result["attempted"] >= 2 and report["timed_repeats"] >= 1,
                  f"{where}: gate compared no repeats")
            check(str(report.get("digest", "")).startswith("0x"),
                  f"{where}: no digest")
            for key in PROVENANCE:
                check(key in report["provenance"],
                      f"{where}: provenance lacks {key}")
            got = result["metrics"]
            check(set(got) == {m["name"] for m in metrics},
                  f"{where}: metric names differ from BENCHMARK.json")
            for m in metrics:
                v = got[m["name"]]
                check(v["unit"] == m["unit"], f"{where}: unit of {m['name']}")
                check(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]),
                      f"{where}: {m['name']} = {v['value']}")
            print(f"smoke: {where}: ok ({result['attempted']} runs, "
                  f"{len(got)} metrics)")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
