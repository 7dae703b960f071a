#!/usr/bin/env python3
"""The benchmark's own test: exact counts and the predicted layer split.

    python3 perfbench/test_counts.py

With one client, a fixed seed and a fixed number of calls per phase
(--ops), round trips, wire bytes, crypto operation counts and WAL
appends per op must repeat exactly across two traced runs; so must the
paper-WAN byte model of the untraced output. The test also checks the
layer split each workload exists to show.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Calls per client per phase: enough to pass warm-up effects, small
# enough that the whole test takes a few minutes.
OPS = {"read_shared": 400, "create_churn": 60, "cluster_mixed": 40}
EXACT = (
    "client.rpc_per_op",
    "cache.hit_ratio",
    "wire.req_bytes_per_op",
    "wire.resp_bytes_per_op",
    "crypto.keygen_per_op",
    "crypto.sign_per_op",
    "crypto.verify_per_op",
    "crypto.sym_per_op",
    "wal.appends_per_op",
    "shard.fanout_per_call",
    "shard.retry_rounds_per_call",
    "store.objects",
)


def bench(workload, trace, seed=7):
    """Runs one fixed-size benchmark; returns (result, checks)."""
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--ops",
         str(OPS[workload]), "--clients", "1", "--work-dir", run.WORK_DIR],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    checks = next(l["checks"] for l in lines if "checks" in l)
    result = lines[-1]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return result, checks, values


class CountsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_repeats(self, workload):
        first, checks, a = bench(workload, trace=1)
        second, _, b = bench(workload, trace=1)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertEqual(checks["lost_acked_writes"], 0)
        self.assertEqual(checks["diverged_replicas"], 0)
        for name in EXACT:
            self.assertEqual(a[name], b[name], name)
        wan = [bench(workload, trace=0)[2]["wan_model_ms_per_op"]
               for _ in range(2)]
        self.assertEqual(wan[0], wan[1])
        return a, checks

    def test_read_shared(self):
        m, _ = self.check_repeats("read_shared")
        # Reads bypass key generation, signing and the WAL.
        self.assertEqual(m["wal.appends_per_op"], 0)
        self.assertEqual(m["crypto.keygen_per_op"], 0)
        self.assertEqual(m["crypto.sign_per_op"], 0)
        self.assertGreater(m["crypto.verify_per_op"], 0)

    def test_create_churn(self):
        m, checks = self.check_repeats("create_churn")
        per_create = (m["crypto.keygen_per_op"] * checks["traced_ops"] /
                      checks["traced_creates"])
        self.assertAlmostEqual(per_create, 2.0, delta=0.25)
        self.assertGreater(m["wal.appends_per_op"], 0)

    def test_cluster_mixed(self):
        m, _ = self.check_repeats("cluster_mixed")
        # Every logical call sleeps one round backoff before it finds
        # nothing left to retry: ~1 round per call on a healthy cluster.
        self.assertAlmostEqual(m["shard.retry_rounds_per_call"], 1.0,
                               delta=0.2)
        self.assertGreater(m["shard.fanout_per_call"], 1.0)


if __name__ == "__main__":
    unittest.main()
