#!/usr/bin/env python3
"""Build and run the wbist benchmark (NOTES.md describes what it measures).

Run from the repository root:

  python3 perfbench/run.py --workload flow-table6|serve-mix|campaign-fsim \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form builds the program and the perfbench binary from source
(into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs
one workload, and prints the binary's report; the last line of stdout is
the JSON result. --trace 1 reports the per-layer metrics and writes the
run's spans as a Chrome trace under the build directory. The exit code is
non-zero when the build fails or any output check fails.

--self-check runs the binary's tests of its own statistics, then every
workload at its smoke size, untraced and traced.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow-table6", "serve-mix", "campaign-fsim")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no wbist sources beside {HERE}; nothing to build")
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the sources the benchmark builds, so results from
    different code are never mistaken for one another."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE,
             os.path.join(ROOT, "tools", "wbist_cli.cpp")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
            continue
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names
                      if not n.endswith(".pyc")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_child(cmd):
    """Run `cmd` and return its exit code. A stop signal sent to this script
    is passed on, so the binary stops its daemon or workers before exiting."""
    proc = subprocess.Popen(cmd)
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda s, _frame: proc.send_signal(s))
    return proc.wait()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description="wbist benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.relpath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        log("build failed")
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    bench_exe = os.path.join(build_dir, "perfbench")

    def run(workload, seed, seconds, trace, extra=()):
        cmd = [bench_exe, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir,
               "--golden-dir", os.path.join(HERE, "goldens"),
               "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
               "--commit", commit(), "--source-digest", source_digest(),
               *extra]
        return run_child(cmd)

    if args.self_check:
        failures = run_child([bench_exe, "--self-check"]) != 0
        for w in WORKLOADS:
            for trace in (0, 1):
                rc = run(w, 1, 1, trace, ["--smoke"])
                log(f"smoke {w} trace {trace}: exit {rc}")
                failures += rc != 0
        log(f"self-check: {failures} failure(s)")
        return 1 if failures else 0

    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
