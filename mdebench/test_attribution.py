#!/usr/bin/env python3
"""Attribution self-test for the benchmark's traced runs.

Injects a fixed busy-wait into the benchmark-owned replication function
(serve_mixed) and chain transition (serve_mixed, chain_query) and checks that
the traced per-layer metrics move by about the injected time in the layer
that was slowed, and stay put in layers that were not.

    python3 mdebench/test_attribution.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 1.5


def traced(workload, inject_us):
    r = run.run_child(workload, seed=11, seconds=SECONDS, trace=1,
                      extra=["--inject_us=%g" % inject_us])
    assert r["rc"] == 0 and r["failed"] == 0, r
    return r["metrics"]


class AttributionTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        run.build()

    def assertMovedBy(self, base, slowed, name, inject_us, tol=0.25):
        delta = slowed[name] - base[name]
        self.assertLess(abs(delta - inject_us), tol * inject_us,
                        "%s moved by %.2f us, injected %.2f us" %
                        (name, delta, inject_us))

    # Loose enough for a shared host's run-to-run noise, tight enough to
    # catch the injected time landing in this layer (many times its size).
    def assertStays(self, base, slowed, name, rel=1.5, abs_us=2.0):
        self.assertLess(slowed[name], base[name] * (1 + rel) + abs_us,
                        "%s went from %.2f to %.2f" %
                        (name, base[name], slowed[name]))

    def test_serve_mixed(self):
        inject_us = 200.0
        base = traced("serve_mixed", 0)
        slowed = traced("serve_mixed", inject_us)
        self.assertMovedBy(base, slowed, "serve.eval_us_per_rep", inject_us)
        self.assertMovedBy(base, slowed, "simsql.transition_us", inject_us)
        self.assertStays(base, slowed, "serve.execute_hit_p50_us")
        self.assertGreater(slowed["trace.coverage"], run.MIN_COVERAGE)

    def test_chain_query(self):
        inject_us = 20000.0
        base = traced("chain_query", 0)
        slowed = traced("chain_query", inject_us)
        self.assertMovedBy(base, slowed, "simsql.transition_us", inject_us)
        self.assertStays(base, slowed, "table.execute_us")
        self.assertGreater(slowed["trace.coverage"], run.MIN_COVERAGE)


if __name__ == "__main__":
    unittest.main()
