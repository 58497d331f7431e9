#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set (a path inside the checkout), else to .bench_build/; the first run
configures and compiles (about a minute), later runs reuse the build. All
arguments are passed to the benchmark binary, whose last stdout line is the
JSON result. With --trace 1 and no --trace-out, the chrome://tracing file of
the traced pass lands in <build dir>/traces/. Exits nonzero without a result
when the deck sources are missing or the build fails.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"missing {need} at the checkout root; cannot build the deck library")
            sys.exit(2)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("cmake configure failed")
                sys.exit(2)
        cmd = ["cmake", "--build", bdir, "--target", "perfbench_e2e"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            sys.exit(2)
    return os.path.join(bdir, "perfbench_e2e")


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    args = list(argv)
    if "--trace" in args and "--trace-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] != "0":
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            tag = "-".join(args[j + 1] for j in range(len(args) - 1)
                           if args[j] in ("--workload", "--seed"))
            args += ["--trace-out", os.path.join(traces, f"trace-{tag or 'run'}.json")]
    proc = subprocess.Popen([binary] + args, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {TIMEOUT_S} s; killed")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
