#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources, then runs it.

    python3 configbench/run.py --workload author_value --seed 1 --seconds 10 --trace 0

Every argument goes to configerator_bench (see main.cc). The build lives in
.bench_build/configbench at the repository root and is incremental, so only
the first run pays for compiling. Build output goes to build.log there, never
to stdout, so the driver's last line of stdout stays its JSON result. With
--trace 1 the spans are written to trace-<workload>-<seed>.json in the same
directory. Exits 2 without a result if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "configbench")
BINARY = os.path.join(BUILD, "configerator_bench")
LOG = os.path.join(BUILD, "build.log")


def configured_for_here():
    """True if BUILD holds a CMake cache made for this checkout's sources."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip() == HERE
    except OSError:
        pass
    return False


def build():
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not configured_for_here():
        # A cache from a checkout at another path would make CMake refuse.
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache):
            os.remove(cache)
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "configerator_bench",
                  "-j", jobs])
    with open(LOG, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as error:
                log.write("%s\n" % error)
                code = 127
            if code != 0:
                return False
    return True


def arg_value(args, name):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        sys.stderr.write("configbench: build failed; last lines of %s:\n" % LOG)
        with open(LOG) as log:
            sys.stderr.writelines(log.readlines()[-40:])
        return 2
    if arg_value(args, "--trace") == "1" and arg_value(args, "--trace-out") is None:
        name = "trace-%s-%s.json" % (arg_value(args, "--workload"),
                                     arg_value(args, "--seed"))
        args += ["--trace-out", os.path.join(BUILD, name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
