#!/usr/bin/env python3
"""Builds and runs the end-to-end mining-session benchmark.

Run from the root of an optrules checkout:

    python3 perfbench/run.py --workload mem_allpairs --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. The workloads, metrics and their meaning are in
perfbench/README.md.

The benchmark (perfbench/session_bench.cc) is built with CMake as a
package of its own into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), in Release mode. Untraced runs first run
SETUP_SAMPLES extra set-ups, each in a fresh process, so that setup_s,
cold_session_s and (on the closed loops) peak_rss_mb are medians over
several fresh processes.

    python3 perfbench/run.py --self-test

runs every workload at toy size, checks that each metric BENCHMARK.json
names is emitted with its unit, and that the correctness gate fires when
the reference is deliberately wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mem_allpairs", "disk_partitioned", "serve_mix")
SETUP_SAMPLES = 4
# Wall-clock budget of one benchmark invocation, builds excluded.
RUN_BUDGET_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds session_bench; returns its path or None."""
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        log("no optrules sources next to perfbench/ (need src/ and "
            "CMakeLists.txt at the checkout root)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "session_bench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "session_bench")


def clean_env():
    """The environment without OPTRULES_* knobs (trace dumps, pool size,
    forced scalar kernels): the benchmark measures the defaults."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("OPTRULES_")}


def run_bench(binary, args, deadline):
    """Runs session_bench; returns (exit code, stdout lines)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("session_bench exceeded the run budget; killed")
        return 124, []
    return proc.returncode, out.splitlines()


def bench_args(workload, seed, seconds, trace, scale, corrupt):
    work = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "work")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scale", scale, "--work-dir", work]
    if corrupt:
        args += ["--corrupt-reference", "1"]
    if trace:
        args += ["--trace-out", os.path.join(
            work, "..", "traces", "%s-seed%d.json" % (workload, seed))]
    return args


def measure(binary, workload, seed, seconds, trace, scale="full",
            corrupt=False, echo=True):
    """One benchmark run; returns (exit code, parsed result or None)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    args = bench_args(workload, seed, seconds, trace, scale, corrupt)
    extra_setup, extra_cold, extra_rss = [], [], []
    if not trace:
        for i in range(SETUP_SAMPLES):
            code, lines = run_bench(
                binary, args + ["--phase", "setup"], deadline)
            if code != 0 or not lines:
                log("set-up sample %d failed (exit %d)" % (i, code))
                return code or 1, None
            sample = json.loads(lines[-1])
            extra_setup.append(sample["setup_s"])
            extra_cold.append(sample["cold_session_s"])
            if sample["peak_rss_mb"] > 0:
                extra_rss.append(sample["peak_rss_mb"])
        args += ["--extra-setup", ",".join(repr(v) for v in extra_setup),
                 "--extra-cold", ",".join(repr(v) for v in extra_cold)]
        if extra_rss:
            args += ["--extra-rss", ",".join(repr(v) for v in extra_rss)]
    code, lines = run_bench(binary, args + ["--phase", "measure"], deadline)
    if echo:
        for line in lines:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, result


def self_test(binary):
    """Toy-size runs of every workload: metric names and units match
    BENCHMARK.json, and a corrupted reference trips the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = measure(binary, workload, 7, 2, trace,
                                   scale="toy", echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: exit %d, result %r" % (tag, code,
                                                             result))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, unit mismatches %s" % (
                                    tag,
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(set(got) - set(expected[trace])),
                                    sorted(k for k in got
                                           if k in expected[trace] and
                                           got[k] != expected[trace][k])))
            else:
                log("ok: %s emits all %d metrics" % (tag, len(got)))
        code, result = measure(binary, workload, 7, 2, 0, scale="toy",
                               corrupt=True, echo=False)
        if code == 0 or result is None or result["correct"]:
            failures.append("%s: a corrupted reference did not fail the run "
                            "(exit %d, result %r)" % (workload, code, result))
        else:
            log("ok: %s gate fires on a wrong reference (exit %d)" %
                (workload, code))
    for failure in failures:
        log("FAIL " + failure)
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary)
    code, result = measure(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
