#!/usr/bin/env python3
"""Host-time benchmark of the DLion simulator (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--window SIM_SECONDS]

Builds the binaries from source on first use (into .bench_build/perfbench at
the root of the checkout), runs the workload, checks its outputs and prints
a report line followed by the result line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs the untraced binary and reports the end-to-end metrics.
--trace 1 runs the untraced binary once for its reference digest, then the
traced binary, and reports the per-layer split plus the tracing overhead.
The traced binary alternates repeats with layer spans on and off; the
overhead compares the two.
--window overrides the simulated window (smoke checks); it disables the
committed accuracy band.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARIES = ("perfbench", "perfbench_traced")
BINARY_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "data.gen_s": "s",
    "exp.cluster_build_s": "s",
    "select.begin_s": "s",
    "select.generate_s": "s",
    "select.generate_calls": "count",
    "select.generate_us_p50": "us",
    "select.generate_us_p99": "us",
    "select.calls_per_iter": "calls/iter",
    "select.entries_out": "count",
    "select.keep_ratio": "ratio",
    "nn.train_s": "s",
    "nn.train_calls": "count",
    "nn.train_ms_p50": "ms",
    "nn.train_ms_p99": "ms",
    "nn.eval_s": "s",
    "nn.eval_calls": "count",
    "nn.eval_ms_p50": "ms",
    "nn.self_s": "s",
    "tensor.gemm_s": "s",
    "tensor.gemm_calls": "count",
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.gemm_mean_muladds": "count",
    "tensor.gemm_small_share": "ratio",
    "core.apply_s": "s",
    "core.apply_calls": "count",
    "core.apply_us_p50": "us",
    "core.joins": "count",
    "comm.send_s": "s",
    "comm.send_calls": "count",
    "comm.bytes_charged": "bytes",
    "comm.dropped": "count",
    "comm.retries": "count",
    "comm.dead_letters": "count",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.peak_pending": "count",
    "sim.self_s": "s",
    "sim.self_share": "ratio",
    "trace.run_s": "s",
    "trace.overhead_pct": "%",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build both binaries; serialized by a lock file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                      "--target", *BINARIES])
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the report.
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                fail("build failed: " + " ".join(cmd))


def run_binary(name, args, seconds, min_repeats):
    cmd = [os.path.join(BUILD_DIR, name), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--min-repeats", str(min_repeats)]
    if args.window is not None:
        cmd += ["--window", repr(args.window)]
    env = dict(os.environ, DLION_THREADS=str(nproc()))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(report, expected_digest):
    """Count repeats and the ones that fail the correctness gate.

    A repeat fails when it threw, when its digest differs from the expected
    one (the one-thread reference of the untraced binary), when its
    final_accuracy is outside the committed band, or, when layer spans were
    on, when the layer self times do not add up to the traced run_s.
    """
    band = report["accuracy_band"]
    attempted, failed, problems = 0, 0, []
    for i, rep in enumerate([report["reference"]] + report["repeats"]):
        attempted += 1
        where = f"{'traced ' if report['traced'] else ''}repeat {i}"
        bad = []
        if "error" in rep:
            bad.append("threw: " + rep["error"])
        else:
            if rep["digest"] != expected_digest:
                bad.append(f"digest {rep['digest']} != {expected_digest}")
            acc = rep["final_accuracy"]
            if band is not None and not band[0] <= acc <= band[1]:
                bad.append(f"final_accuracy {acc} outside {band}")
            if "layers" in rep:
                run_s = rep["layers"]["trace.run_s"]
                parts = rep["layers"]["trace.parts_s"]
                if abs(parts - run_s) > 1e-6 * run_s + 1e-9:
                    bad.append(f"layer parts {parts} != run_s {run_s}")
        if bad:
            failed += 1
            problems += [f"{where}: {b}" for b in bad]
    return attempted, failed, problems


def timed(report):
    return [r for r in report["repeats"] if "error" not in r]


def median_of(repeats, key):
    values = [key(r) for r in repeats]
    return statistics.median(values) if values else float("nan")


def source_digest():
    """sha256 over src/, so reports from checkouts without git compare."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, report):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "gemm_kernel": report["gemm_kernel"],
        "DLION_THREADS": report["threads"],
        "nproc": nproc(),
        "kernel_release": platform.release(),
        "workload": args.workload,
        "seed": args.seed,
        "window_s": report["window_s"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window", type=float, default=None)
    args = ap.parse_args()
    if args.seconds < 0:
        fail("--seconds must be >= 0")

    build()
    # With --trace 1 the untraced binary only supplies the reference digest.
    plain = run_binary("perfbench", args, 0 if args.trace else args.seconds,
                       0 if args.trace else 3)
    expected = plain["reference"].get("digest")
    attempted, failed, problems = gate(plain, expected)

    if args.trace:
        traced = run_binary("perfbench_traced", args, args.seconds, 4)
        a, f, p = gate(traced, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        reps = [r for r in timed(traced) if r["layer_spans"]]
        bare = [r for r in timed(traced) if not r["layer_spans"]]
        values = {name: median_of(reps, lambda r, n=name: r["layers"][n])
                  for name in LAYER_UNITS if name != "trace.overhead_pct"}
        values["trace.overhead_pct"] = 100.0 * (
            median_of(reps, lambda r: r["run_s"])
            / median_of(bare, lambda r: r["run_s"]) - 1.0)
        units = LAYER_UNITS
        base = traced
    else:
        reps = timed(plain)
        values = {
            "setup_s": median_of(reps, lambda r: r["setup_s"]),
            "run_s": median_of(reps, lambda r: r["run_s"]),
            "iters_per_s": median_of(reps,
                                     lambda r: r["iterations"] / r["run_s"]),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        base = plain

    for name, v in values.items():
        if v is None or not math.isfinite(v):
            problems.append(f"metric {name} is not finite")
    ref = plain["reference"]
    report = {
        "provenance": provenance(args, base),
        "digest": expected,
        "final_accuracy": ref.get("final_accuracy"),
        "iterations": ref.get("iterations"),
        "failed_share": failed / attempted,
        "timed_repeats": len(reps),
        "problems": problems,
    }
    if args.trace:
        report["split_s"] = {
            "select": values["select.begin_s"] + values["select.generate_s"],
            "nn": values["nn.self_s"],
            "tensor": values["tensor.gemm_s"],
            "core": values["core.apply_s"],
            "comm": values["comm.send_s"],
            "sim": values["sim.self_s"],
        }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))


if __name__ == "__main__":
    main()
