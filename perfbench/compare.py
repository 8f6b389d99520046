#!/usr/bin/env python3
"""Make and compare sets of benchmark runs.

    python3 perfbench/compare.py run OUT_DIR [--seeds 1-10] [--workloads train,serve,load] [--trace 0]
    python3 perfbench/compare.py spread OUT_DIR
    python3 perfbench/compare.py compare BASE_DIR CHANGE_DIR

`run` executes the command of BENCHMARK.json once per workload and seed, from
the root of the checkout, and keeps each run's result line in
OUT_DIR/<workload>-<seed>.json (its standard error beside it, `.err`).

`spread` prints, per workload and metric of one set, the median, the
quartiles and the quartile distance as a share of the median, against the
metric's bound, and the share of failed operations.

`compare` pairs the runs of two sets by workload, in seed order (so by seed
when both sets used the same seeds), and prints, per workload and metric,
each side's median and quartiles, the share of pairs the second set wins
(ties count for neither), and whether the second median is worse than the
first by more than the metric's bound.

Quartiles are Python's `statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_set(directory):
    """{workload: {seed: result}} of the result files in a directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload, seed = path.stem.rsplit("-", 1)
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCH["workloads"]]
    seconds = args.seconds or BENCH["run_seconds"]
    for seed in seeds_arg(args.seeds):
        for workload in workloads:
            cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            (out / f"{workload}-{seed}.err").write_text(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            line = proc.stdout.strip().splitlines()[-1]
            (out / f"{workload}-{seed}.json").write_text(line + "\n")
            result = json.loads(line)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)


def cmd_spread(args):
    worst = 0.0
    for workload, runs in sorted(load_set(args.dir).items()):
        results = list(runs.values())
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed shares={sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = METRICS[name].get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}, a third {bound / 3:.3f}" + ("  WIDE" if spread > bound / 3 else "")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:38s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}  {note}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")


def cmd_compare(args):
    base, change = load_set(args.base), load_set(args.change)
    regressions = 0
    for workload in sorted(set(base) & set(change)):
        runs_a = [base[workload][s] for s in sorted(base[workload])]
        runs_b = [change[workload][s] for s in sorted(change[workload])]
        pairs = min(len(runs_a), len(runs_b))
        print(f"{workload}: {len(runs_a)} and {len(runs_b)} runs, {pairs} pairs")
        for name in runs_a[0]["metrics"]:
            meta = METRICS[name]
            higher = meta["better"] == "higher"
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            worse = (qa[1] - qb[1]) / qa[1] if higher else (qb[1] - qa[1]) / qa[1]
            bound = meta.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "within bound"
                regressions += worse > bound
            print(f"  {name:38s} base {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"change wins {wins}/{pairs}  worse by {worse:+.2%}  {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("out_dir")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads")
    run.add_argument("--seconds", type=int)
    run.add_argument("--trace", type=int, default=0, choices=[0, 1])
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args()
    sys.exit({"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args) or 0)


if __name__ == "__main__":
    main()
