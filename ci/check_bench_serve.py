#!/usr/bin/env python3
"""Gates BENCH_serve.json from `mde_serve --bench` — the closed-loop
multi-session serving benchmark. This enforces the serving layer's
acceptance contract, not a raw-speed number:

  - hit_rate >= 0.9: with 8 sessions replaying a zipf-mixed workload over
    a shared CLT-bounded result cache, at least 90% of requests must be
    answered without running any Monte Carlo replication.
  - precision_violations == 0: every answer whose request did not exhaust
    max_reps must carry a CI half-width <= the requested target. A cached
    answer claiming precision it does not have is the bug class the
    tiny-n Welford/CiMonitor hardening closed.
  - bit_identical / cross_session_consistent: answers assembled
    concurrently through the cache must match, bit for bit, a fresh
    single-threaded server replaying the same replication indices. This
    is the MVCC + substream-seeding determinism contract.
  - hit_p50_us < miss_p50_us: a cache hit must be cheaper than a miss,
    and cheap in absolute terms — otherwise the cache is decorative.
  - hit_p99_us < miss_p50_us: a hit's TAIL must also cost less than a
    median miss. Both numbers come from the same run on the same machine,
    so the ratio needs no cross-box baseline. This is the failure the
    serving cache once had on multi-core runners: hits queued on the
    index-wide lock and on the entry mutex a running top-up held, so hit
    p99 (hundreds of us) exceeded miss p50 while hit p50 still looked
    fine.

Usage: check_bench_serve.py BENCH_serve.json   (exit 0 = pass)
"""

import json
import sys

MIN_HIT_RATE = 0.9
# A pure hit is one shard-mutex map lookup plus a seqlock read of the
# entry's published statistic (no entry mutex); even a loaded CI runner
# should stay well under this.
MAX_HIT_P50_US = 100.0


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        bench = json.load(f)

    failures = []

    hit_rate = bench["hit_rate"]
    print("hit_rate: %.4f (need >= %.2f)" % (hit_rate, MIN_HIT_RATE))
    if hit_rate < MIN_HIT_RATE:
        failures.append("hit_rate %.4f < %.2f" % (hit_rate, MIN_HIT_RATE))

    violations = bench["precision_violations"]
    print("precision_violations: %d (need 0)" % violations)
    if violations != 0:
        failures.append("%d answers violated their precision target" %
                        violations)

    if not bench["cross_session_consistent"]:
        failures.append("concurrent sessions observed divergent answers "
                        "for the same (shape, version)")
    if not bench["bit_identical"]:
        failures.append("cached answers are not bit-identical to a fresh "
                        "single-threaded replay")
    print("cross_session_consistent: %s, bit_identical: %s" %
          (bench["cross_session_consistent"], bench["bit_identical"]))

    hit_p50 = bench["hit_p50_us"]
    miss_p50 = bench["miss_p50_us"]
    print("hit_p50: %.1f us, miss_p50: %.1f us (hit must be cheaper and "
          "<= %.0f us)" % (hit_p50, miss_p50, MAX_HIT_P50_US))
    if bench["misses"] > 0 and hit_p50 >= miss_p50:
        failures.append("hit_p50 %.1f us >= miss_p50 %.1f us" %
                        (hit_p50, miss_p50))
    if hit_p50 > MAX_HIT_P50_US:
        failures.append("hit_p50 %.1f us > %.0f us" %
                        (hit_p50, MAX_HIT_P50_US))

    hit_p99 = bench["hit_p99_us"]
    print("hit_p99: %.1f us (must be < miss_p50 %.1f us)" %
          (hit_p99, miss_p50))
    if bench["misses"] > 0 and hit_p99 >= miss_p50:
        failures.append("hit_p99 %.1f us >= miss_p50 %.1f us: a cache "
                        "hit's tail costs more than a median miss" %
                        (hit_p99, miss_p50))

    # Sanity: the cache must actually be saving work, not just passing
    # requests through.
    if bench["reps_saved"] <= bench["reps_run"]:
        failures.append("reps_saved (%d) <= reps_run (%d): the cache is "
                        "not amortizing replications" %
                        (bench["reps_saved"], bench["reps_run"]))

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        raise SystemExit(1)
    print("OK: serving-layer acceptance contract holds")


if __name__ == "__main__":
    main(sys.argv)
