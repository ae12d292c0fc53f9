#!/usr/bin/env python3
"""Run-to-run spread of the bench_e2e metrics, per workload.

    python3 bench/e2e/spread.py [--seeds 1-10] [--sets 2] [--out FILE]

Run from the repository root. Each set runs every workload once per seed
through run.py, untraced. For each end-to-end metric it reports the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
It flags a spread at or above a third of the bound in BENCHMARK.json
(setup_s excepted), and a later set whose median is worse than the first
set's by more than the bound. --out writes a gsx-bench-v1 file: `records` hold the
first set's medians (lower-is-better in `seconds`, higher-is-better in
`gflops`, plus `unit`), which tools/bench_compare gates, and `sets` holds
every set's medians and quartiles.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed}: {result['failed']} failed operations")
    return result["metrics"]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    sets = []
    problems = []
    for s in range(args.sets):
        table = {}
        for w in workloads:
            runs = [run_once(w, seed, spec["run_seconds"]) for seed in seeds]
            table[w] = {m["name"]: summarize([r[m["name"]]["value"] for r in runs])
                        for m in metrics}
            for m in metrics:
                st = table[w][m["name"]]
                flag = ""
                if m["name"] != "setup_s" and st["spread"] >= m["bound"] / 3:
                    flag = f"  SPREAD >= bound/3 ({m['bound'] / 3:.4f})"
                    problems.append(f"set {s + 1} {w} {m['name']}: spread {st['spread']:.4f}")
                if s > 0:
                    base = sets[0][w][m["name"]]["median"]
                    ratio = st["median"] / base if base else 1.0
                    worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                    if worse > m["bound"]:
                        flag += f"  MEDIAN worse than set 1 by {worse:.4f}"
                        problems.append(
                            f"set {s + 1} {w} {m['name']}: median worse by {worse:.4f}")
                print(f"set {s + 1} {w:14s} {m['name']:30s} median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f}{flag}",
                      flush=True)
        sets.append(table)

    if args.out:
        units = {m["name"]: (m["unit"], m["better"]) for m in metrics}
        records = []
        for w in workloads:
            for name, st in sets[0][w].items():
                unit, better = units[name]
                records.append({"name": f"{w} {name}", "size": 0,
                                "seconds": st["median"] if better == "lower" else 0.0,
                                "gflops": st["median"] if better == "higher" else 0.0,
                                "unit": unit})
        doc = {"schema": "gsx-bench-v1", "seeds": seeds, "records": records,
               "sets": [{w: {n: {k: st[k] for k in ("median", "q1", "q3", "spread")}
                             for n, st in t.items()} for w, t in table.items()}
                        for table in sets]}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
