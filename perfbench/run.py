#!/usr/bin/env python3
"""Build and run the perfbench harness from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the harness (CMake,
Release) under $CARGO_TARGET_DIR, or .bench_build when unset; later calls
reuse that build. Build output goes to stderr, so the harness's JSON
result stays the last line of stdout.

--self-test runs every workload of BENCHMARK.json at tiny size in both
modes with all correctness gates, checks that each emitted metric name
and unit is declared in BENCHMARK.json for that mode, and proves that
the bitwise gate reports a planted mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("library sources (CMakeLists.txt, src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_harness(binary, args):
    """Runs the harness; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            code, result = run_harness(binary, args)
            label = "%s --trace %s" % (workload, trace)
            before = len(problems)
            if code != 0 or result is None:
                problems.append(label + ": exit %d, no result" % code)
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": wrong result keys")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(label + ": gates failed: " + json.dumps(result))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(label + ": metrics differ from BENCHMARK.json: "
                                + str(sorted(set(emitted.items()) ^ set(declared[trace].items()))))
            if len(problems) == before:
                print("ok   " + label, file=sys.stderr)
        code, result = run_harness(binary, ["--workload", workload, "--seed", "7",
                                            "--seconds", "1", "--trace", "0", "--tiny",
                                            "--plant-mismatch"])
        if code != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(workload + ": planted mismatch was not reported")
        else:
            print("ok   %s planted mismatch reported" % workload, file=sys.stderr)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
