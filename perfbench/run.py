#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The simulator library (src/) and the perfbench program are built from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake; later
runs only re-check the build. The program's stdout is passed through,
and its last line is the result JSON. Extra flags (--bless, --out) are
forwarded to the program.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "perfbench")


def git_rev():
    # Only a checkout that is itself a git repository has a revision;
    # never search parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True, env=dict(os.environ,
                                                  GIT_CEILING_DIRECTORIES=ROOT))
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(os.getcwd(), build_dir))
    try:
        exe = build(build_dir)
    except subprocess.CalledProcessError as err:
        fail("build failed: %s" % err)
    cmd = [exe] + sys.argv[1:] + [
        "--digests", os.path.join(HERE, "digests.txt"),
        "--rev", git_rev(),
    ]
    if "--out" not in sys.argv:
        cmd += ["--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    proc = subprocess.run(cmd)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
