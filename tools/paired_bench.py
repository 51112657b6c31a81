#!/usr/bin/env python3
"""Compare two perfbench binaries over alternating pairs of runs.

    python3 tools/paired_bench.py --parent A/perfbench --candidate B/perfbench \\
        --workload paper_sweep --seed 7 --seconds 5 --pairs 10

Runs `--pairs` pairs of untraced perfbench runs with identical settings,
switching which side goes first in every other pair. For every end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles, the
number of pairs the candidate won (ties count for neither side) and two
verdicts:

  gain        the candidate won at least 9/10 of the pairs and its median
              beats the parent's by more than the parent's interquartile
              range (the rule for claiming a gain);
  regression  the candidate's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound.

Quartiles interpolate linearly between order statistics. To pin both sides
to one CPU, run the script under `taskset -c N`: the runs inherit it.
Exit status: 0 when every run completed correctly, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def run_once(exe, args, out_dir):
    """One untraced perfbench run; returns its parsed JSON result."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0", "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{exe} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(metric, a, b):
    """True when `a` is strictly better than `b` for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def worse_beyond_bound(metric, cand, parent):
    """True when the candidate's median is worse than the parent's by more
    than the metric's relative bound (any worsening from a zero parent)."""
    if parent == 0:
        return better(metric, parent, cand)
    change = (cand - parent) / abs(parent)
    if metric["better"] == "higher":
        change = -change
    return change > metric["bound"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent perfbench binary")
    parser.add_argument("--candidate", required=True, help="candidate perfbench binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="run length")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent, "candidate": args.candidate}
    runs = {"parent": [], "candidate": []}
    all_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = ("parent", "candidate") if i % 2 == 0 else ("candidate", "parent")
            for side in order:
                result = run_once(sides[side], args, tmp)
                if not result.get("correct", False) or result.get("failed", 0) != 0:
                    all_ok = False
                runs[side].append(result["metrics"])
                shown = " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in result["metrics"].items()
                                 if k in ("reports_per_s", "sim_cycles_per_s"))
                print(f"pair {i + 1}/{args.pairs} {side:9s} correct={result.get('correct')} "
                      f"failed={result.get('failed')} {shown}", file=sys.stderr, flush=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs}")
    print(f"{'metric':18s} {'parent q1/med/q3':>36s} {'candidate q1/med/q3':>36s} "
          f"{'ratio':>7s} {'wins':>6s}  verdict")
    for m in metrics:
        name = m["name"]
        p = [r[name]["value"] for r in runs["parent"] if name in r]
        c = [r[name]["value"] for r in runs["candidate"] if name in r]
        if len(p) != args.pairs or len(c) != args.pairs:
            print(f"{name:18s} missing from some runs")
            all_ok = False
            continue
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(c, p) if better(m, a, b))
        verdicts = []
        if (wins >= WIN_SHARE * args.pairs and better(m, cmed, pmed)
                and abs(cmed - pmed) > pq3 - pq1):
            verdicts.append("gain")
        if worse_beyond_bound(m, cmed, pmed):
            verdicts.append(f"REGRESSION (bound {m['bound']:g})")
        ratio = f"{cmed / pmed:7.3f}" if pmed else "      -"
        print(f"{name:18s} {pq1:11.5g} {pmed:11.5g} {pq3:11.5g}  "
              f"{cq1:11.5g} {cmed:11.5g} {cq3:11.5g} {ratio} "
              f"{wins:>3d}/{args.pairs:<2d}  {', '.join(verdicts) or '-'}")
    if not all_ok:
        print("some runs were incorrect, failed operations or lacked a metric",
              file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
