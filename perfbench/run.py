#!/usr/bin/env python3
"""Build the towerlens benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark crate next to this file
is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then run with the given arguments; its last stdout
line is the JSON result. Every process the run starts is stopped and
its scratch directory removed before this script exits.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run that outlives this is killed: the benchmark must answer within
# 180 seconds.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    # A session of its own, so a timeout takes the run's children
    # (studies, the serve daemon) down with it.
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        work = ".perfbench_work"
        if os.path.isdir(work):
            for name in os.listdir(work):
                if name.endswith(f"-{proc.pid}"):
                    shutil.rmtree(os.path.join(work, name), ignore_errors=True)
            if not os.listdir(work):
                os.rmdir(work)
    return code


if __name__ == "__main__":
    sys.exit(main())
