#!/usr/bin/env python3
"""Build and run one perfbench workload of the topomap library.

Run from the repository root:

    python3 perfbench/run.py --workload flat-square --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally.  Build output
goes to stderr.  The benchmark's own stdout follows, and its last line is
the JSON result {correct, attempted, failed, metrics}.  Traced runs
(--trace 1) also write their spans to <build>/traces/.  Each run's digests
and counts are kept under <build>/digests/<source hash>/, and a later run
of the same sources and seed must repeat them.  The exit code is the
benchmark's: 0 only when every check passed.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("flat-square", "hier-scale", "svc-closed")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        step = ["cmake", "--build", build_dir, "--target", "perfbench_topomap",
                "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "perfbench_topomap")


def source_hash(root):
    """Hash of the library and benchmark sources: runs of the same sources
    and seed must repeat every digest and count."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the topomap sources (src/) are missing next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    # Paths handed to the binary are relative to the root: the svc
    # workload binds unix sockets there, whose paths are length-limited.
    work_dir = os.path.relpath(build_dir, root)
    run_name = "%s-seed%d" % (args.workload, args.seed)
    trace_out = os.path.join(work_dir, "traces", run_name + ".json")
    digest_file = os.path.join(work_dir, "digests", source_hash(root),
                               run_name + ".txt")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-out", trace_out,
               "--digest-file", digest_file]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
