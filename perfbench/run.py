#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds perfbench/ (a Release
build of the library sources plus the benchmark binary) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Each run executes one workload and prints:

  * one "metric NAME = VALUE UNIT" line per metric the workload computes, including the
    workload-specific end-to-end metrics that BENCHMARK.json cannot gate (its
    end_to_end list must hold on every workload);
  * as the last line, one JSON object with exactly the keys correct, attempted, failed
    and metrics, where metrics holds every end_to_end metric of BENCHMARK.json
    (--trace 0) or every per_layer metric (--trace 1).

A run whose correctness gate fails, or that cannot produce a listed metric, prints no
result line and exits non-zero. --all runs every workload once (untraced) and prints
each one's metrics and result line. --self-test runs every workload briefly, checks that
every listed metric is printed with its unit, and checks that a planted wrong count
trips each workload's correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    out = build_dir()
    if not (out / "Makefile").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if cfg.returncode != 0:
            log(cfg.stdout)
            log("perfbench: configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    b = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        log(b.stdout)
        log("perfbench: build failed")
        return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def source_id():
    """The git commit when the tree is a checkout, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, plant=False):
    """Runs one workload; returns the binary's JSON object or None."""
    out_dir = build_dir() / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", str(out_dir),
           "--git-sha", source_id()]
    if plant:
        cmd.append("--plant-wrong-count")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with {p.returncode}")
        return None
    return json.loads(lines[-1])


def select_metrics(spec, raw, trace):
    """Picks BENCHMARK.json's metrics for this mode from the binary's output.

    Every end_to_end metric must be measured. A per_layer metric that a workload does
    not exercise (for example persist.* without a WAL) reads 0.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = raw["metrics"]
    selected = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit or got[name]["value"] is None:
                raise ValueError(f"{name}: got {got[name]}, expected unit {unit}")
            selected[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            selected[name] = {"value": 0.0, "unit": unit}
        else:
            raise ValueError(f"{name}: not measured on {raw['workload']}")
    return selected


def print_report(raw):
    meta = raw["meta"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace {raw['trace']}: "
          f"nproc {meta['nproc']}, {meta['build_type']} build, {meta['compiler']}, "
          f"source {meta['git_sha']}")
    for name, m in raw["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    series = raw["commits_per_second_series"]
    if series:
        print("commits_per_s each second of the measured windows: " +
              " ".join(f"{v:.4g}" for v in series))
    if raw["trace"]:
        print(f"spans written: {raw['spans_written']} (under {build_dir() / 'runs'})")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def self_test(binary, spec):
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            raw = run_binary(binary, name, 7, 3, trace)
            try:
                if raw is None or not raw["correct"]:
                    raise ValueError("run failed or its correctness gate tripped")
                select_metrics(spec, raw, trace)
                log(f"self-test: {name} trace {trace}: all listed metrics printed")
            except ValueError as e:
                log(f"self-test: {name} trace {trace}: FAIL: {e}")
                ok = False
        raw = run_binary(binary, name, 7, 3, 0, plant=True)
        if raw is None or raw["correct"]:
            log(f"self-test: {name}: FAIL: a planted wrong count passed the gate")
            ok = False
        else:
            log(f"self-test: {name}: planted wrong count tripped: {raw['failure']}")
    log("self-test: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    if not (args.self_test or args.all) and args.workload not in names:
        log(f"perfbench: --workload must be one of {names}")
        return 2
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary, spec)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    for name in names if args.all else [args.workload]:
        status = max(status, run_one(binary, spec, name, args.seed, seconds, args.trace))
    return status


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload, prints its report and result line; returns the exit status."""
    raw = run_binary(binary, workload, seed, seconds, trace)
    if raw is None:
        return 1
    print_report(raw)
    if not raw["correct"]:
        log(f"perfbench: correctness gate failed: {raw['failure']}")
        return 1
    try:
        metrics = select_metrics(spec, raw, trace)
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    result = {"correct": True, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
