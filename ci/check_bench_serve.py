#!/usr/bin/env python3
"""Gates one serve_mixed run record, the serving benchmark of record:

    python3 mdebench/run.py --workload serve_mixed --seconds 3 --trace 0
    python3 ci/check_bench_serve.py \\
        .bench_build/records/serve_mixed-seed1-trace0.json

It enforces the serving acceptance contract with figures of one run:

  - correct, and the checks serve.precision_contract (no answer claims a
    half-width above its target without exhausting max_reps),
    serve.cross_session_identical and serve.replay_bit_identical (answers
    assembled concurrently through the cache match a fresh single-threaded
    replay bit for bit) are present and pass.
  - pure hits, misses and top-ups are all > 0, so no comparison is vacuous.
  - hit_p50_us < miss_p50_us and hit_p50_us <= 100: a hit is cheaper than a
    miss, and cheap in absolute terms.
  - hit_p99_us < miss_p50_us: a hit's tail also costs less than a median
    miss (hits once queued on an index-wide lock and on a running top-up's
    entry mutex while hit p50 still looked fine).
  - reps_saved > reps_run and reps_saved_ratio >= 0.9: the cache amortizes
    replications. A fifth of serve_mixed's requests go to a 4096-shape tail
    the cache cannot hold, so its request hit ratio is ~0.79 by design; the
    share of replications served from the cache is what carries the load.

Usage: check_bench_serve.py RECORD.json   (exit 0 = pass, 1 = fail)
"""

import json
import sys

# A pure hit is one shard-mutex map lookup plus a seqlock read of the
# entry's published statistic; even a loaded CI runner stays well under.
MAX_HIT_P50_US = 100.0
MIN_REPS_SAVED_RATIO = 0.9
CHECKS = ("serve.precision_contract", "serve.cross_session_identical",
          "serve.replay_bit_identical")


def gate(record):
    """Returns the failed gates of one serve_mixed record."""
    if record.get("workload") != "serve_mixed":
        return ["not a serve_mixed record: %r" % record.get("workload")]
    run = record["runs"]["untraced"]
    m = run["metrics"]
    fails = []
    if record["correct"] is not True:
        fails.append("record not correct: %d of %d operations or checks "
                     "failed" % (record["failed"], record["attempted"]))
    checks = {c["name"]: c for c in run["checks"]}
    for name in CHECKS:
        c = checks.get(name)
        print("%s: %s" % (name, "missing" if c is None else "%s (%s)" % (
            "pass" if c["pass"] else "FAIL", c["detail"])))
        if c is None or not c["pass"]:
            fails.append("check %s did not pass" % name)

    for name in ("pure_hits", "misses", "topups"):
        count = m["serve.cache." + name]
        print("%s: %d" % (name, count))
        if count <= 0:
            fails.append("the run had no cache %s" % name)

    hit_p50, hit_p99, miss_p50 = (m[k] for k in (
        "hit_p50_us", "hit_p99_us", "miss_p50_us"))
    print("hit_p50 %.2f us, hit_p99 %.2f us, miss_p50 %.2f us" %
          (hit_p50, hit_p99, miss_p50))
    if hit_p50 >= miss_p50:
        fails.append("hit_p50 %.2f us >= miss_p50 %.2f us" %
                     (hit_p50, miss_p50))
    if hit_p50 > MAX_HIT_P50_US:
        fails.append("hit_p50 %.2f us > %.0f us" % (hit_p50, MAX_HIT_P50_US))
    if hit_p99 >= miss_p50:
        fails.append("hit_p99 %.2f us >= miss_p50 %.2f us: a hit's tail "
                     "costs more than a median miss" % (hit_p99, miss_p50))

    reps_run, reps_saved, ratio = (m["serve.cache." + k] for k in (
        "reps_run", "reps_saved", "reps_saved_ratio"))
    print("reps_saved %d, reps_run %d, reps_saved_ratio %.4f" %
          (reps_saved, reps_run, ratio))
    if reps_saved <= reps_run:
        fails.append("reps_saved %d <= reps_run %d: the cache is not "
                     "amortizing replications" % (reps_saved, reps_run))
    if ratio < MIN_REPS_SAVED_RATIO:
        fails.append("reps_saved_ratio %.4f < %.2f" %
                     (ratio, MIN_REPS_SAVED_RATIO))
    return fails


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        fails = gate(json.load(f))
    if fails:
        raise SystemExit("\n".join("FAIL: " + f for f in fails))
    print("OK: serving-layer acceptance contract holds")


if __name__ == "__main__":
    main(sys.argv)
