#!/usr/bin/env python3
"""Measure two commits with the benchmark and write a BENCH_<commit>.json point for each.

Usage, from the root of a checkout:

    python3 tools/bench_point.py --base <commit> [--head <commit>] [--out <dir>] [--tmp <dir>]

Each commit's committed files are exported (`git archive`) into a temporary
directory, where `perfbench/run.py` builds and runs them. The script first
makes one traced seed-1 run (5 s) per commit of each of the five workloads;
the first of them also builds the export. Then, for each workload listed in
BENCHMARK.json, it makes one untraced run per commit and seed (seeds 21-30),
alternating which commit runs first from one seed to the next. Runs go one at
a time and last BENCHMARK.json's run_seconds.

Then it writes BENCH_<commit>.json for both commits into --out (default: the
current directory). Each file holds the commit, every run's metrics and
calibration factor, the median and quartiles of each end-to-end metric per
workload, and the traced seed-1 metrics of each workload. The raw output of
every run.py call goes to BENCH_<commit>.log beside it. A pair summary (medians,
pairs won by the head, the base's IQR) is printed at the end.

When any run fails or is not `correct`, the script exits with code 1 and
writes no file. --head defaults to HEAD.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TRACE_SECONDS = 5
SEEDS = list(range(21, 31))
TRACED = ["wiki_tables", "formula_tables", "spark_column", "long_columns", "irregular_columns"]
SCALE = re.compile(r"times are scaled by ([0-9.]+)")


def git(*args):
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def export(sha, dest):
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_point: git archive {sha} failed")


def run(checkout, log, workload, seed, seconds, trace):
    """One run.py call; returns its result with the calibration factor, or None if it failed."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    log.append(f"### {checkout.name} {workload} seed={seed} seconds={seconds} trace={trace} "
               f"exit={done.returncode}")
    log.extend(done.stdout.rstrip("\n").splitlines())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    scale = SCALE.search(done.stdout)
    result["calibration_factor"] = float(scale.group(1)) if scale else None
    return result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--out", default=".")
    ap.add_argument("--tmp", default=None, help="parent directory of the temporary exports")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = SEEDS
    commits = [git("rev-parse", args.base + "^{commit}"), git("rev-parse", args.head + "^{commit}")]
    if commits[0] == commits[1]:
        sys.exit("bench_point: --base and --head are the same commit")
    short = {c: git("rev-parse", "--short=7", c) for c in commits}

    tmp = Path(tempfile.mkdtemp(prefix="bench-point-", dir=args.tmp))
    logs = {c: [] for c in commits}
    runs = {c: [] for c in commits}
    traced = {c: {} for c in commits}
    try:
        checkout = {c: tmp / short[c] for c in commits}
        for c in commits:
            export(c, checkout[c])
        for w in TRACED:
            for c in commits:
                result = run(checkout[c], logs[c], w, 1, TRACE_SECONDS, 1)
                if result is None or not result["correct"]:
                    sys.exit(f"bench_point: traced {w} seed 1 of {short[c]} failed or is not correct")
                traced[c][w] = {"seed": 1, "seconds": TRACE_SECONDS, "attempted": result["attempted"],
                                "failed": result["failed"],
                                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        for w in workloads:
            for i, seed in enumerate(seeds):
                for position, c in enumerate(commits if i % 2 == 0 else commits[::-1]):
                    result = run(checkout[c], logs[c], w, seed, seconds, 0)
                    if result is None or not result["correct"]:
                        sys.exit(f"bench_point: {w} seed {seed} of {short[c]} failed or is not correct")
                    runs[c].append({"workload": w, "seed": seed, "position": position,
                                    "calibration_factor": result["calibration_factor"],
                                    "attempted": result["attempted"], "failed": result["failed"],
                                    "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                    print(f"{w} seed {seed} {short[c]}: "
                          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def summary(c):
        out = {}
        for w in workloads:
            out[w] = {}
            for name, m in end_to_end.items():
                xs = [r["metrics"][name] for r in runs[c] if r["workload"] == w]
                q1, med, q3 = quartiles(xs)
                out[w][name] = {"unit": m["unit"], "better": m["better"], "runs": len(xs),
                                "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        return out

    out_dir = Path(args.out)
    for c, other in zip(commits, commits[::-1]):
        point = {"commit": c, "measured_with": other, "seconds": seconds, "seeds": seeds,
                 "end_to_end": summary(c), "per_layer": traced[c], "runs": runs[c]}
        (out_dir / f"BENCH_{short[c]}.json").write_text(json.dumps(point, indent=1) + "\n")
        (out_dir / f"BENCH_{short[c]}.log").write_text("\n".join(logs[c]) + "\n")

    base, head = commits
    print(f"\npairs: head {short[head]} against base {short[base]}, seeds {seeds[0]}-{seeds[-1]}")
    for w in workloads:
        for name, m in end_to_end.items():
            pair = {c: {r["seed"]: r["metrics"][name] for r in runs[c] if r["workload"] == w} for c in commits}
            sign = 1 if m["better"] == "higher" else -1
            won = sum(sign * (pair[head][s] - pair[base][s]) > 0 for s in seeds)
            lost = sum(sign * (pair[head][s] - pair[base][s]) < 0 for s in seeds)
            bq1, bmed, bq3 = quartiles(list(pair[base].values()))
            _, hmed, _ = quartiles(list(pair[head].values()))
            change = (hmed - bmed) / bmed * 100 if bmed else 0.0
            print(f"{w:15s} {name:19s} base {bmed:12.4f} (IQR {bq3 - bq1:10.4f})  head {hmed:12.4f}"
                  f"  {change:+6.1f} %  won {won}/{len(seeds)}, lost {lost}")


if __name__ == "__main__":
    main()
