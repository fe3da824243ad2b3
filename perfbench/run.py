#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/BENCHMARK.md).

One run:
    python3 perfbench/run.py --workload mine_million --seed 20160626 --seconds 32 --trace 0

Steadiness mode, one workload k times back to back on seeds s, s+1, ...:
    python3 perfbench/run.py --workload mine_million --steady 10 [--seed 1] [--seconds 32]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files go to .perfbench_work and are
removed at exit. The last line of a run's stdout is its result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine_adult", "mine_million", "serve_mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo(args, target):
    """Runs one release build; its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def build():
    """The shipped sqlnf binary, the benchmark, and the benchmark with
    the obs counters compiled in (for the traced run); returns paths."""
    target = target_dir()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the checkout root; cannot build sqlnf")
    manifest = os.path.join(HERE, "Cargo.toml")
    cargo(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "sqlnf"], target)
    cargo(["--manifest-path", manifest], target)
    traced_target = os.path.join(target, "perfbench-traced")
    cargo(["--manifest-path", manifest, "--features", "obs"], traced_target)
    return {
        "sqlnf": os.path.join(target, "release", "sqlnf"),
        "e2e": os.path.join(target, "release", "sqlnf-perfbench"),
        "traced": os.path.join(traced_target, "release", "sqlnf-perfbench"),
    }


def commit():
    """The checkout's commit; `unknown` when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run_binary(binary, bins, workload, seed, seconds, trace, work, extra=()):
    """Runs one benchmark process; returns (stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--sqlnf", bins["sqlnf"], "--work", work, *extra]
    env = dict(os.environ)
    env.pop("SQLNF_MINE_THREADS", None)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: {workload} exited with {done.returncode}")
    return lines, json.loads(lines[-1])


def one_run(bins, workload, seed, seconds, trace, work):
    """One run: its output lines, then its parsed result line."""
    if not trace:
        lines, result = run_binary(bins["e2e"], bins, workload, seed, seconds, 0, work)
    else:
        # The traced run's obs.overhead_ratio compares its primary op with
        # an untraced run's, made first on the same seed for a quarter of
        # the time.
        _, ref = run_binary(bins["e2e"], bins, workload, seed, max(1, seconds / 4), 0, work)
        ref_ms = ref["metrics"]["primary_ms"]["value"]
        lines, result = run_binary(bins["traced"], bins, workload, seed, seconds, 1, work,
                                   ["--e2e-ref-ms", repr(ref_ms)])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"perfbench: {workload} reported {sorted(set(result['metrics']) ^ want)} "
                 "unlike BENCHMARK.json")
    return lines, result


def detail_of(lines):
    for line in lines:
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])
    return {}


def steady(bins, args, work):
    """Runs one workload k times and prints each metric's spread."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    series = {}
    units = {}
    for i in range(args.steady):
        seed = args.seed + i
        lines, result = one_run(bins, args.workload, seed, args.seconds, args.trace, work)
        values = {f"detail.{k}": v for k, v in detail_of(lines).items()}
        values.update(result["metrics"])
        for name, m in values.items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        fail = result["failed"] / max(1, result["attempted"])
        log(f"run {i + 1}/{args.steady} seed {seed}: correct={result['correct']} fail_ratio={fail}")
        series.setdefault("fail_ratio", []).append(fail)
        units["fail_ratio"] = "ratio"
    print(f"# steadiness: workload {args.workload}, {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, --seconds {args.seconds}, trace {args.trace}, "
          f"nproc {os.cpu_count()}, commit {commit()}, profile release")
    print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    flagged = []
    for name in sorted(series):
        vals = series[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else float("nan") if q3 != q1 else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound:
            mark = "  SPREAD > BOUND"
            flagged.append(name)
        print(f"{name:44} {units[name]:6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}  "
              f"{'' if bound is None else bound}{mark}")
        print(f"{'':51} runs: {' '.join(f'{v:.4g}' for v in vals)}")
    if flagged:
        print(f"# spread exceeds the bound on: {', '.join(flagged)}")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=20160626)
    p.add_argument("--seconds", type=float, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run the workload K times on seeds seed..seed+K-1 and print the spreads")
    args = p.parse_args()
    bins = build()
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    try:
        if args.steady:
            return steady(bins, args, work)
        print(f"# commit {commit()} profile release nproc {os.cpu_count()} seed {args.seed}")
        lines, _ = one_run(bins, args.workload, args.seed, args.seconds, args.trace, work)
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
