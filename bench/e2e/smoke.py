#!/usr/bin/env python3
"""bench_e2e_smoke: every workload at smoke size, untraced and traced.

    python3 smoke.py BENCH_E2E_BINARY BENCHMARK_JSON

Fails unless every run succeeds with no failed operation and prints every
metric BENCHMARK.json names, with the unit it gives: the end-to-end metrics
untraced, the per-layer metrics under --trace.
"""
import json
import os
import subprocess
import sys
import tempfile


def run(binary, workload, trace, tmp):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"]
    if trace:
        cmd.append("--trace")
    # bench_e2e refuses to run under GSX_* kernel overrides; the smoke test
    # checks the benchmark, not the caller's tuning environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GSX_")}
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=60,
                         env={**env, "TMPDIR": tmp}).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in spec["workloads"]:
            for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                label = f"{w['name']}{' --trace' if trace else ''}"
                result = run(binary, w["name"], trace, tmp)
                if result["failed"] != 0 or not result["correct"]:
                    errors.append(f"{label}: {result['failed']} of {result['attempted']} failed")
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    if got is None:
                        errors.append(f"{label}: {m['name']} not printed")
                    elif got["unit"] != m["unit"]:
                        errors.append(f"{label}: {m['name']} in {got['unit']}, not {m['unit']}")
                print(f"{label}: {result['attempted']} operations, {result['failed']} failed")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
