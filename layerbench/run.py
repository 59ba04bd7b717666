#!/usr/bin/env python3
"""Build the layer-budget benchmark from source and run one workload.

    python3 layerbench/run.py --workload replay|serve|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
layerbench/CMakeLists.txt (the program's libraries, clapd, clapr and
the benchmark binary) into layerbench-<key> under $CARGO_TARGET_DIR,
or under .bench_build when unset. The key is a hash of this
checkout's layerbench/ path, so checkouts sharing one target
directory never build or run each other's sources. Later runs rebuild
incrementally. Build output goes to stderr.
The binary's stdout is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
a result line, when the build or the run fails.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(source: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "layerbench"


def main() -> int:
    source = Path(__file__).resolve().parent
    key = hashlib.sha1(str(source).encode()).hexdigest()[:12]
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(source, target.resolve() / f"layerbench-{key}")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"layerbench: build failed: {err}", file=sys.stderr)
        return 1

    # Own process group, so a timed-out run takes the clapd/clapr
    # children it started down with it.
    try:
        proc = subprocess.Popen([str(binary)] + sys.argv[1:],
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as err:
        print(f"layerbench: cannot run {binary}: {err}", file=sys.stderr)
        return 1
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("layerbench: run timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        print(f"layerbench: exit code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(stdout)
        print("layerbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
