#!/usr/bin/env python3
"""Builds and runs the slin benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload compile|steady|service --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/harness) and the
service daemon are built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the result object: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Extra flags for the benchmark's own tests and for inspection:
  --tiny               one short cycle (test mode, not a measurement)
  --corrupt-reference  corrupt one oracle reference (must count a failure)
  --overhead           run untraced, then traced, and print the tracing
                       overhead on every end-to-end metric
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench", "slin-serviced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomisation, so every run places code and heap the same way and
    alignment luck does not differ between runs."""
    ADDR_NO_RANDOMIZE = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(libc.personality(0xffffffff) | ADDR_NO_RANDOMIZE)


def run_harness(build_dir, args, trace):
    work = os.path.join(build_dir, "run-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work,
           "--daemon", os.path.join(build_dir, "slin-serviced"),
           "--trace-out", os.path.join(build_dir,
                                       "trace-%s.json" % args.workload)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    env = dict(os.environ, TMPDIR=tmp)
    env.pop("SLIN_ARTIFACT_DIR", None)
    env.pop("SLIN_FAULT", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("harness exceeded %d s" % RUN_LIMIT_S)
        return None
    finally:
        # The harness reaps its daemon; this catches anything left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("harness exited with %d" % proc.returncode)
        return None
    lines = out.strip().splitlines()
    detail = next((json.loads(l.split(" ", 1)[1]) for l in lines
                   if l.startswith("perfbench-detail ")), {})
    return detail, json.loads(lines[-1])


def select(bench, result, trace):
    """Narrows the harness's metrics to the set BENCHMARK.json names."""
    key = "per_layer" if trace else "end_to_end"
    out = {}
    for m in bench[key]:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise KeyError("end-to-end metric %s missing" % m["name"])
            # A layer this workload does not exercise reads 0.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt-reference", action="store_true")
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    if not build(build_dir):
        return 1

    if args.overhead:
        runs = [run_harness(build_dir, args, t) for t in (0, 1)]
        if None in runs:
            return 1
        (_, plain), (_, traced) = runs
        report = {}
        for m in bench["end_to_end"]:
            a = plain["metrics"][m["name"]]["value"]
            b = traced["metrics"][m["name"]]["value"]
            report[m["name"]] = {"untraced": a, "traced": b,
                                 "overhead": b - a}
        print(json.dumps({"tracing_overhead": report}))
        return 0

    got = run_harness(build_dir, args, args.trace)
    if got is None:
        return 1
    detail, result = got
    try:
        metrics = select(bench, result, args.trace)
    except (KeyError, ValueError) as e:
        log(str(e))
        return 1
    detail["harness_metrics"] = result["metrics"]
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
