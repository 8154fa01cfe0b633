#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run compiles the program's sources (src/main/scala) together with
the benchmark driver (perfbench/src) with sbt, into .bench_build/. Later runs
reuse that build while the sources are unchanged. The driver's standard
output is relayed; its last line is the JSON result. The result's metric
names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main" / "scala", BENCH / "src", BENCH / "build.sbt",
           BENCH / "project" / "build.properties"]
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for src in SOURCES:
        files = sorted(p for p in src.rglob("*") if p.is_file()) if src.is_dir() else [src]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    """Compile if the sources changed since the last build; return the classpath."""
    stamp_file, cp_file = BUILD / "build.stamp", BUILD / "classpath.txt"
    stamp = source_stamp()
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        done = subprocess.run(cmd, cwd=BENCH, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(done.stdout)
        fail("build failed")
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def expected_metrics(workload, trace):
    """Metric names BENCHMARK.json lists for this kind of run, or None."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return None
    spec = json.loads(spec_file.read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not all(p.exists() for p in SOURCES):
        fail("run from the root of a checkout that holds the program's sources")

    cp = classpath()
    (BUILD / "tmp").mkdir(exist_ok=True)
    # a fixed-size heap and the throughput collector: runs of one seed vary least so
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={BUILD / 'tmp'}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # Spark's scratch space stays inside the checkout
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(BUILD / "spark-local"))
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(args.workload, args.trace == "1")
    if expected is not None and set(result["metrics"]) != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ expected)}")
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
