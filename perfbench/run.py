#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload real_linkbound --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest            # build and run the benchmark's tests
    python3 perfbench/run.py --report FILE [FILE]  # print a saved result or span dump

Every run first configures (once) and builds perfbench/ with CMake into
.bench_build/perfbench, then runs the perfbench binary with the given
arguments and passes its output and exit code through. The last line of
standard output is the result JSON; results and span dumps are also saved
under .bench_out/. Build output goes to standard error.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])


def run_build_step(command):
    step = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if step.returncode != 0:
        sys.stderr.write(step.stdout.decode(errors="replace"))
        sys.exit("perfbench: build step failed: %s" % " ".join(command))


def report(paths):
    """Prints the metrics of saved results, and self times of span dumps."""
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        print("%s: correct=%s attempted=%d failed=%d" %
              (path, doc["correct"], doc["attempted"], doc["failed"]))
        for name, metric in sorted(doc["metrics"].items()):
            print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
        if "self_ms" in doc:
            print("  self time by span (ms):")
            for name, ms in sorted(doc["self_ms"].items(), key=lambda kv: -kv[1]):
                print("    %-28s %14.3f" % (name, ms))


def main(argv):
    if argv[:1] == ["--report"]:
        report(argv[1:])
        return 0
    if argv[:1] == ["--selftest"]:
        build("perfbench_tests")
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")], cwd=ROOT).returncode
    build("perfbench")
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
