#!/usr/bin/env python3
"""Benchmark front end: builds the runner, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The runner binary is built from source into
.bench_build/perfbench on every call (a no-op once up to date). The input
files are generated from the seed by a separate runner process, then a
second process sets up, warms up, measures for --seconds and verifies.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is 0 only when every correctness gate passed and no
operation failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
RUNNER = BUILD_DIR / "perfbench_runner"

WORKLOADS = ("mesh-precond", "dense-network", "serve-churn", "outofcore-mesh")
# Claims made on the default seed are checked again on the holdout seed
# 9001 (see README.md).
DEFAULT_SEED = 1

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10

# Covers the runner's set-up, warm-up, two windows and verification.
RUNNER_TIMEOUT_S = 170


class InsufficientSamples(ValueError):
    pass


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values`; refuses (InsufficientSamples)
    unless at least `min_beyond` samples lie beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if not xs or beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(xs)} samples has {max(beyond, 0)} beyond it; "
            f"needs {min_beyond}")
    return xs[rank - 1]


def median(doc, name):
    xs = doc["samples"].get(name, [])
    return statistics.median(xs) if xs else 0.0


def count(doc, name):
    return len(doc["samples"].get(name, []))


def is_serve(doc):
    return "commit_ms" in doc["samples"]


# ---- end-to-end metrics (untraced windows) ---------------------------------
# Every workload reports every metric; where the workload's user operation
# differs, the definition says what is measured (see README.md).

def fastest(doc, name):
    xs = doc["samples"].get(name, [])
    return min(xs) if xs else 0.0


# The static workloads report their fastest run in the window: the host
# switches for tens of seconds at a time between phases about 30% apart in
# speed (see README.md). mesh-precond records one sample per pass; the
# panel workloads record one value per window, their instances' fastest
# runs reduced over the panel by the runner.

def _sparsify_s(doc):
    # serve-churn: the session's re-sparsification per commit, as the
    # server reports it in the commit reply.
    if is_serve(doc):
        return median(doc, "server_batch_s")
    return fastest(doc, "sparsify_s")


def _result_latency_ms(doc):
    # serve-churn: client-side commit round trip.
    if is_serve(doc):
        return median(doc, "commit_ms")
    return fastest(doc, "result_latency_ms")


def _success_rate(doc):
    return 1.0 - doc["failed"] / max(doc["attempted"], 1)


END_TO_END = [
    ("setup_s", "s", lambda d: median(d, "setup_s")),
    ("sparsify_s", "s", _sparsify_s),
    ("result_latency_ms", "ms", _result_latency_ms),
    ("edges_per_vertex", "edges/vertex", lambda d: median(d, "edges_per_vertex")),
    ("sigma2_gap", "ratio", lambda d: median(d, "sigma2_gap")),
    ("sigma2_overshoot", "ratio", lambda d: median(d, "sigma2_overshoot")),
    ("peak_rss_mb", "MiB", lambda d: d["values"].get("peak_rss_mb", 0.0)),
    ("success_rate", "ratio", _success_rate),
]


# ---- per-layer metrics (traced run) -------------------------------------------

def _min(name):
    return lambda d: min(d["samples"][name]) if d["samples"].get(name) else 0.0


def _tail(name, q):
    def f(d):
        xs = d["samples"].get(name)
        return percentile(xs, q) if xs else 0.0
    return f


def _route_share(name):
    def f(d):
        commits = count(d, "traced.commit_ms")
        return median(d, name) / commits if commits else 0.0
    return f


def _overhead(d):
    base, traced = ("commit_ms", "traced.commit_ms") if is_serve(d) else \
        ("sparsify_s", "traced.sparsify_s")
    return median(d, traced) / median(d, base) if count(d, base) else 0.0


def _med(name):
    return lambda d: median(d, name)


PER_LAYER = [
    ("graph.load_s", "s", _med("graph.load_s")),
    ("storage.open_s", "s", _med("storage.open_s")),
    ("storage.mmap_bytes", "bytes", _med("storage.mmap_bytes")),
    ("tree.backbone_s", "s", _med("tree.backbone_s")),
    ("core.rounds", "count", _med("core.rounds")),
    ("core.edges_added", "count", _med("core.edges_added")),
    ("core.solver_setup_s", "s", _med("core.solver_setup_s")),
    ("core.estimate_s", "s", _med("core.estimate_s")),
    ("core.embedding_s", "s", _med("core.embedding_s")),
    ("core.filter_s", "s", _med("core.filter_s")),
    ("core.final_estimate_s", "s", _med("core.final_estimate_s")),
    ("core.stage_coverage_min", "ratio", _min("core.stage_coverage")),
    ("solver.inner_pcg_iters", "count", _med("solver.inner_pcg_iters")),
    ("solver.inner_pcg_solves", "count", _med("solver.inner_pcg_solves")),
    ("solver.inner_iters_per_solve", "count", _med("solver.inner_iters_per_solve")),
    ("solver.tree_solves", "count", _med("solver.tree_solves")),
    ("solver.factor_s", "s", _med("solver.factor_s")),
    ("solver.factor_nnz", "count", _med("solver.factor_nnz")),
    ("solver.pcg_s", "s", _med("solver.pcg_s")),
    ("solver.pcg_iters", "count", _med("solver.pcg_iters")),
    ("util.pool_regions", "count", _med("util.pool_regions")),
    ("util.pool_inline_ratio", "ratio", _med("util.pool_inline_ratio")),
    ("util.pool_busy_s", "s", _med("util.pool_busy_s")),
    ("util.parallel_efficiency", "ratio", _med("util.parallel_efficiency")),
    ("dynamic.validate_s", "s", _med("dynamic.validate_s")),
    ("dynamic.apply_s", "s", _med("dynamic.apply_s")),
    ("dynamic.tree_repair_s", "s", _med("dynamic.tree_repair_s")),
    ("dynamic.rebind_s", "s", _med("dynamic.rebind_s")),
    ("dynamic.sparsify_s", "s", _med("dynamic.sparsify_s")),
    ("dynamic.tree_swaps", "count", _med("dynamic.tree_swaps")),
    ("dynamic.dirty_fraction", "ratio", _med("dynamic.dirty_fraction")),
    ("dynamic.route_resparsify", "ratio", _route_share("dynamic.route_resparsify")),
    ("dynamic.route_tree_repair", "ratio", _route_share("dynamic.route_tree_repair")),
    ("dynamic.route_rebuild", "ratio", _route_share("dynamic.route_rebuild")),
    ("dynamic.stage_coverage_min", "ratio", _min("dynamic.stage_coverage")),
    ("serve.commit_wait_ms", "ms", _med("serve.commit_wait_ms")),
    ("serve.op_rtt_ms", "ms", _med("traced.op_rtt_ms")),
    ("serve.backpressure_rejects", "count", _med("serve.backpressure_rejects")),
    ("serve.commit_p95_ms", "ms", _tail("commit_ms", 0.95)),
    ("serve.read_p50_ms", "ms", _med("read_ms")),
    ("serve.read_p95_ms", "ms", _tail("read_ms", 0.95)),
    ("serve.commits_per_s", "1/s", _med("commits_per_s")),
    ("scale.partition_s", "s", _med("scale.partition_s")),
    ("scale.extract_s", "s", _med("scale.extract_s")),
    ("scale.leaf_sparsify_s", "s", _med("scale.leaf_sparsify_s")),
    ("scale.stitch_s", "s", _med("scale.stitch_s")),
    ("scale.leaves", "count", _med("scale.leaves")),
    ("scale.cut_edges_kept", "count", _med("scale.cut_edges_kept")),
    ("quality.sigma2_reported", "ratio", _med("quality.sigma2_reported")),
    ("quality.sigma2_verified", "ratio", _med("quality.sigma2_verified")),
    ("quality.verify_s", "s", _med("quality.verify_s")),
    ("obs.trace_overhead_ratio", "ratio", _overhead),
]


def summarize(doc, trace):
    """Result object of one run from the runner's raw document."""
    table = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(fn(doc)), "unit": unit}
               for name, unit, fn in table}
    gates_ok = all(g["ok"] for g in doc["gates"])
    return {
        "correct": gates_ok and doc["failed"] == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }


def report_lines(workload, seed, trace, doc, result, workdir):
    """Human-readable lines printed before the result."""
    v, t = doc["values"], doc["text"]
    yield (f"# perfbench workload={workload} seed={seed} trace={int(trace)} "
           f"nproc={v.get('host.nproc', 0):g} threads={v.get('host.threads', 0):g} "
           f"kernels={t.get('host.kernels_compiled', '?')} "
           f"active={t.get('host.kernel_active', '?')} "
           f"build={t.get('host.build_type', '?')}")
    for name, m in result["metrics"].items():
        yield f"  {name:32s} {m['value']:.6g} {m['unit']}"
    counts = ", ".join(f"{k}={len(xs)}" for k, xs in sorted(doc["samples"].items())
                       if not k.startswith(("traced.", "quality.")))
    yield f"  samples: {counts}"
    if is_serve(doc):
        for name in ("commit_ms", "read_ms"):
            xs = doc["samples"].get(name, [])
            try:
                yield (f"  {name}: p50={statistics.median(xs):.4g} "
                       f"p95={percentile(xs, 0.95):.4g} (n={len(xs)})")
            except (InsufficientSamples, statistics.StatisticsError) as e:
                yield f"  {name}: {e}"
    if "solver.pcg_s" in doc["samples"]:
        yield (f"  solve: factor={median(doc, 'solver.factor_s'):.4g} s "
               f"pcg={median(doc, 'solver.pcg_s'):.4g} s "
               f"pcg_iters={median(doc, 'solver.pcg_iters'):.4g} per rhs "
               f"(n={count(doc, 'solver.pcg_s')})")
    if is_serve(doc):
        yield f"  commits_per_s={median(doc, 'commits_per_s'):.4g}"
    for g in doc["gates"]:
        yield f"  gate {'pass' if g['ok'] else 'FAIL'} {g['name']} {g['detail']}".rstrip()
    if trace:
        for key in sorted(v):
            if key.startswith("self_s."):
                yield f"  span self time {key[7:]:24s} {v[key]:.4f} s"
        yield f"  trace: {workdir / 'trace.json'}"
        for name in ("core.stage_coverage_min", "dynamic.stage_coverage_min"):
            cov = result["metrics"][name]["value"]
            if 0 < cov < 0.9:
                yield f"  note: {name} = {cov:.3f} is below 0.9"


def build():
    """Configures (once) and builds the runner; returns False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the repository sources (CMakeLists.txt, src/) are "
              "missing next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_runner(args, workdir):
    """Prep process, then the measured process; returns its document."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    subprocess.run([str(RUNNER), *common, "--prep"], check=True,
                   timeout=RUNNER_TIMEOUT_S)
    proc = subprocess.run([str(RUNNER), *common], stdout=subprocess.PIPE,
                          text=True, timeout=RUNNER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"runner exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        doc = run_runner(args, workdir)
    except (subprocess.SubprocessError, RuntimeError, json.JSONDecodeError) as e:
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    finally:
        # Keep the trace; drop the (regenerable) input files.
        for p in workdir.iterdir():
            if p.name != "trace.json":
                p.unlink()
    try:
        result = summarize(doc, bool(args.trace))
    except InsufficientSamples as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    for line in report_lines(args.workload, args.seed, args.trace, doc, result,
                             workdir):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
