#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. The first call configures and builds the
package in bench/e2e (and through it the repository's libraries) under
$CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build. Build output goes to stderr. The benchmark's stdout is passed through
unchanged, so its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 only when the build and the run succeeded and that line
parses.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no repository sources around {PACKAGE}; nothing to build")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PACKAGE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "e2e"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    # The benchmark makes its private working directory under $TMPDIR; keep
    # that inside the build tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace == "1":
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env={**os.environ, "TMPDIR": str(tmp)})
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines), file=sys.stderr)
        print("run.py: last line is not a result object", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
