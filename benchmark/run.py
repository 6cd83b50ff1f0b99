#!/usr/bin/env python3
"""Builds pasa_bench and the server from source, then runs one workload.

    python3 benchmark/run.py --workload hot_100k --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build): the root project's pasa_cli under root/, the benchmark under
bench/. Build output goes to stderr, so the last line of standard output is
pasa_bench's result object. Any failure exits non-zero without printing one.
See benchmark/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cmake(*args):
    subprocess.run(["cmake", *args], check=True, stdout=sys.stderr)


def configure(source, build, *defines):
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        return
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmake("-S", source, "-B", build, *generator,
          "-DCMAKE_BUILD_TYPE=Release", *defines)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    root_build = os.path.join(build, "root")
    bench_build = os.path.join(build, "bench")
    server = os.path.join(root_build, "tools", "pasa_cli")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        configure(ROOT, root_build)
        cmake("--build", root_build, "--target", "pasa_cli", "-j", jobs)
        configure(os.path.join(ROOT, "benchmark"), bench_build,
                  "-DPASA_SERVER=" + server)
        cmake("--build", bench_build, "--target", "pasa_bench", "-j", jobs)
    except (subprocess.CalledProcessError, OSError) as error:
        print("build failed: %s" % error, file=sys.stderr)
        return 1

    command = [os.path.join(bench_build, "pasa_bench"),
               "--server", server,
               "--spec", os.path.join(ROOT, "BENCHMARK.json"),
               "--work-dir", os.path.join(build, "work"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command.append("--traced")
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
