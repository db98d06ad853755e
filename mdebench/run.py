#!/usr/bin/env python3
"""mde benchmark: builds the C++ runner from source and runs one workload.

    python3 mdebench/run.py --workload serve_mixed --seed 7 --trace 0
    python3 mdebench/run.py --write-spec     # regenerate BENCHMARK.json

Workloads (all closed loop, inputs generated from --seed):
  serve_mixed  min(4, nproc) sessions against one serve::Server: result cache,
               MVCC pins, replication function; a writer advances versions.
  mcdb_batch   10k x 1k MCDB query on a ThreadPool; one operation runs the
               generate-then-filter form, then the pushed-down form.
  chain_query  SimSQL chain step, then OptimizePlan + ExecutePlan of a
               filter-above-join over the new version. Not listed in
               BENCHMARK.json (see BENCHMARK_WORKLOADS); runs by name and as
               the per-layer probe for simsql and table.

--trace 0 measures the end-to-end metrics untraced. --trace 1 runs the workload
untraced and traced for half the window each (their ops/s ratio is the tracing
overhead), then a short traced pass of each other workload so that every
per-layer metric is measured: a metric comes from the main workload when it
exercises that layer, else from the workload that does. Traced runs of
mcdb_batch and chain_query also repeat the layer timings of both under every
SIMD tier below the one the CPU selects (MDE_SIMD on a child process; runs
"simd.<tier>.<workload>" in the record; the selected tier's timings are the
traced run's and the probe's).

The last line of stdout is the result object; the full run record (machine
fingerprint, every metric, checks, EFECT results, layer self times) is written
to .bench_build/records/, beside the spans of each traced child.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "mdebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mdebench")
RECORD_DIR = os.path.join(ROOT, ".bench_build", "records")
BINARY = os.path.join(BUILD_DIR, "mdebench")

WORKLOADS = {
    "serve_mixed": "serve cache, MVCC pins and the replication function "
                   "under 4 closed-loop sessions; bypasses bundles, SIMD and "
                   "the plan executor",
    "mcdb_batch": "VG draws, RNG, SIMD bundle kernels and pool scheduling on "
                  "80 MB blocks; bypasses serving and the optimizer",
    "chain_query": "simsql version realization, fresh catalog stats, optimizer "
                   "and vectorized join/filter; no cache, no bundles",
}

S, M, C = "serve_mixed", "mcdb_batch", "chain_query"
# The workloads BENCHMARK.json lists. chain_query is left out because it
# cannot be made steady on a shared 4-vCPU host: most of its operation is
# serial work on L3-sized data (catalog statistics and the chain transition
# over 200k rows), which switches between a fast regime and one about 35%
# slower as other tenants' memory traffic comes and goes. Its per-op latency
# is therefore bimodal and each run's p50 falls in one mode or the other: in
# two sets of ten runs of the same code, the middle half spread 37% of the
# median. It still runs by name, and every traced run of a listed workload
# probes it for the simsql and table per-layer metrics.
BENCHMARK_WORKLOADS = [S, M]

# (name, unit, better, bound). On a shared 4-vCPU host, co-tenant memory
# traffic alone widened mcdb_batch's ten-run interquartile range to 18% of
# its median, so the timing bounds sit at the 0.25 ceiling. p99 is printed
# and recorded but not gated: mcdb_batch and chain_query runs have fewer
# than ten operations beyond it, and during host steal its ten-run spread
# reached 0.38 (chain_query) to 0.51 (serve_mixed).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p90_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

# (name, unit, better, workloads that exercise the layer, first = preferred)
PER_LAYER = [
    ("serve.execute_hit_p50_us", "us", "lower", [S]),
    ("serve.execute_hit_p99_us", "us", "lower", [S]),
    ("serve.execute_topup_p50_us", "us", "lower", [S]),
    ("serve.execute_miss_p50_us", "us", "lower", [S]),
    ("serve.execute_wait_p50_us", "us", "lower", [S]),
    ("serve.execute_wait_p99_us", "us", "lower", [S]),
    ("serve.eval_us_per_rep", "us", "lower", [S]),
    ("serve.eval_reps", "count", "lower", [S]),
    ("serve.reps_per_request", "reps", "lower", [S]),
    ("serve.cache.pure_hits", "count", "higher", [S]),
    ("serve.cache.topups", "count", "higher", [S]),
    ("serve.cache.misses", "count", "lower", [S]),
    ("serve.cache.evictions", "count", "lower", [S]),
    ("serve.cache.reps_run", "count", "lower", [S]),
    ("serve.cache.reps_saved", "count", "higher", [S]),
    ("serve.cache.hit_ratio", "ratio", "higher", [S]),
    ("serve.cache.reps_saved_ratio", "ratio", "higher", [S]),
    ("serve.mvcc.advance_p50_us", "us", "lower", [S]),
    ("serve.mvcc.advance_max_us", "us", "lower", [S]),
    ("serve.mvcc.live_versions_max", "count", "lower", [S]),
    ("serve.mvcc.reclaimed", "count", "higher", [S]),
    ("simsql.transition_us", "us", "lower", [C, S]),
    ("simsql.step_ms", "ms", "lower", [C]),
    ("simsql.step_overhead_ms", "ms", "lower", [C]),
    ("table.optimize_us", "us", "lower", [C]),
    ("table.execute_us", "us", "lower", [C]),
    ("table.intermediate_rows", "count", "lower", [C]),
    ("table.rows_scanned", "count", "lower", [C]),
    ("mcdb.generate_ms", "ms", "lower", [M]),
    ("mcdb.generate_1t_ms", "ms", "lower", [M]),
    ("mcdb.generate_speedup", "ratio", "higher", [M]),
    ("mcdb.pregen_ms", "ms", "lower", [M]),
    ("mcdb.pregen.draws_saved", "count", "higher", [M]),
    ("mcdb.filter_det_ms", "ms", "lower", [M]),
    ("mcdb.filter_stoch_ms", "ms", "lower", [M]),
    ("mcdb.aggregate_ms", "ms", "lower", [M]),
    ("mcdb.release_ms", "ms", "lower", [M]),
    ("mcdb.vg_draws_per_s", "draws/s", "higher", [M]),
    ("mcdb.bytes_per_op", "B", "lower", [M]),
    ("thread_pool.tasks", "count/op", "lower", [M, C]),
    ("thread_pool.steals", "count/op", "lower", [M, C]),
    ("thread_pool.help_runs", "count/op", "lower", [M, C]),
    ("trace.coverage", "ratio", "higher", [S, M, C]),
    ("trace.overhead_ratio", "ratio", "lower", [S, M, C]),
]

# Long runs average over more of the host's memory-traffic swings. The
# driver of a benchmark makes 4 + 22 x 2 runs; at 40 s plus about 15 s of
# set-up, checks, probes and sweeps each, they fit the hour with room.
RUN_SECONDS = 40
PROBE_SECONDS = 1.5
SWEEP_SECONDS = 1.5
# Layer spans must account for this share of traced operation time.
MIN_COVERAGE = 0.95
TIERS = ["scalar", "sse4", "avx2"]


def spec():
    return {
        "command": ["python3", "mdebench/run.py"],
        "paths": ["mdebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n]}
                      for n in BENCHMARK_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def fail(msg):
    print("mdebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("mde sources not found under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(RECORD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                             stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail("build failed; see " + log_path)


def run_child(workload, seed, seconds, trace, env=None, extra=()):
    """Runs one mdebench process from the checkout root; returns its parsed
    line protocol."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace] + list(extra)
    # An explicit mmap threshold turns off glibc's dynamic threshold, which
    # otherwise moves mid-run and switches large allocations between mmap
    # and the heap at a point that differs from run to run.
    env = dict(env or os.environ, MALLOC_MMAP_THRESHOLD_=str(128 * 1024),
               MDE_FLIGHT_PATH=os.path.join(RECORD_DIR, "mde_flight.json"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=150)
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped
        rc, stdout, stderr = -1, e.stdout or "", "timed out"
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
    out = {"metrics": {}, "units": {}, "checks": [], "info": {},
           "attempted": 0, "failed": 0, "rc": rc, "stderr": stderr[-2000:]}
    for line in stdout.splitlines():
        parts = line.split(" ", 3)
        if parts[0] == "metric" and len(parts) == 4:
            out["metrics"][parts[1]] = float(parts[2])
            out["units"][parts[1]] = parts[3]
        elif parts[0] == "check" and len(parts) >= 3:
            out["checks"].append({"name": parts[1], "pass": parts[2] == "pass",
                                  "detail": parts[3] if len(parts) > 3 else ""})
        elif parts[0] == "info" and len(parts) >= 3:
            out["info"][parts[1]] = line.split(" ", 2)[2]
        elif parts[0] == "totals" and len(parts) == 3:
            out["attempted"] = int(parts[1])
            out["failed"] = int(parts[2])
    if rc != 0 or out["attempted"] == 0:
        out["failed"] += 1
        out["attempted"] += 1
    return out


def git_hash():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_hash():
    """Content hash of src/ and mdebench/: identifies the code even in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "mdebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(info, seed):
    return {"nproc": int(info.get("nproc", "0")),
            "threads": int(info.get("threads", "0")),
            "simd_tier": info.get("simd_tier", "unknown"),
            "compiler": info.get("compiler", "unknown"),
            "build_type": info.get("build_type", "unknown"),
            "git_hash": git_hash(), "source_hash": source_hash(),
            "seed": seed}


def traced_runs(workload, seed, seconds):
    """The runs behind one --trace 1 result, keyed by role."""
    runs = {"untraced": run_child(workload, seed, seconds / 2.0, 0),
            "traced": run_child(workload, seed, seconds / 2.0, 1)}
    main = runs["traced"]
    untraced_ops = runs["untraced"]["metrics"].get("ops_per_s", 0.0)
    traced_ops = main["metrics"].get("ops_per_s", 0.0)
    main["metrics"]["trace.overhead_ratio"] = (
        untraced_ops / traced_ops if traced_ops > 0 else float("nan"))
    coverage = main["metrics"].get("trace.coverage", 0.0)
    main["checks"].append({
        "name": "trace.layers_account_for_op_time",
        "pass": coverage >= MIN_COVERAGE,
        "detail": "coverage %.4f (min %.2f)" % (coverage, MIN_COVERAGE)})
    main["attempted"] += 1
    main["failed"] += 0 if coverage >= MIN_COVERAGE else 1
    for other in WORKLOADS:
        if other != workload:
            runs["probe." + other] = run_child(other, seed, PROBE_SECONDS, 1)
    if workload in (M, C):
        best = main["info"].get("simd_tier", "scalar")
        for tier in TIERS[:TIERS.index(best)]:
            for swept in (M, C):
                runs["simd.%s.%s" % (tier, swept)] = run_child(
                    swept, seed, SWEEP_SECONDS, 1,
                    env=dict(os.environ, MDE_SIMD=tier))
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from this file's definitions")
    args = ap.parse_args()
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return
    if args.workload is None:
        ap.error("--workload is required")
    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    if args.trace == 0:
        runs = {"untraced": run_child(args.workload, args.seed,
                                      args.seconds, 0)}
        main_run = runs["untraced"]
        wanted = [(n, u) for n, u, _, _ in END_TO_END]
        values = main_run["metrics"]
    else:
        runs = traced_runs(args.workload, args.seed, args.seconds)
        main_run = runs["traced"]
        wanted = [(n, u) for n, u, _, _ in PER_LAYER]
        values = {}
        for name, _, _, owners in PER_LAYER:
            src = "traced" if args.workload in owners else "probe." + owners[0]
            if name in runs[src]["metrics"]:
                values[name] = runs[src]["metrics"][name]

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    metrics = {}
    missing = []
    for name, unit in wanted:
        v = values.get(name)
        if v is None or not math.isfinite(v):
            missing.append(name)
            continue
        metrics[name] = {"value": v, "unit": unit}
    for name in missing:
        print("missing metric: " + name, file=sys.stderr)
    correct = failed == 0 and not missing and attempted > 0
    if args.trace == 0:
        correct = correct and all(m["value"] > 0 for m in metrics.values())

    for key, r in runs.items():
        for c in r["checks"]:
            print("check %s %s %s %s" % (key, c["name"],
                                         "pass" if c["pass"] else "FAIL",
                                         c["detail"]))
        for k, v in sorted(r["metrics"].items()):
            print("metric %s %s %.6g %s" % (key, k, v, r["units"].get(k, "")))
        if r["rc"] != 0:
            print("mdebench %s exited %d: %s" % (key, r["rc"], r["stderr"]),
                  file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(main_run["info"], args.seed),
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "efect": [dict(c, run=key) for key, r in runs.items()
                  for c in r["checks"] if c["name"].startswith("efect.")],
        "runs": runs,
    }
    with open(os.path.join(RECORD_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print("error_rate %.6g failed/attempted (%d/%d)" %
          (record["error_rate"], failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
