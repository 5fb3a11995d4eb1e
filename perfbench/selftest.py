"""Self-tests of the benchmark's tracing, kept out of the tier-1 suite.

    python3 perfbench/selftest.py

They run a few small tables through the same code the benchmark uses and
write only under ``.bench_out/selftest``.
"""

import shutil
import unittest

import tracing
from worker import ROOT, import_program, run_rep
from workloads import DEFAULT_SEED, config_text

TABLES = (("bandwidth-fov", 2), ("ccf-space", 2), ("power-vs-distance", 1))
OUT = ROOT / ".bench_out" / "selftest"


class TracingSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.vlcsim = import_program()
        cls.cfgs = [cls.vlcsim.loads_config(config_text(DEFAULT_SEED)) for _ in TABLES]
        shutil.rmtree(OUT, ignore_errors=True)

    def rep(self, name, traced):
        if not traced:
            return run_rep(TABLES, self.cfgs, OUT / name)[1], None
        with tracing.Tracer() as tracer:
            records = run_rep(TABLES, self.cfgs, OUT / name, tracer)[1]
        return records, tracer.layer_metrics()

    def test_wrappers_are_removed_after_the_traced_run(self):
        points = tracing.patch_points()
        originals = [vars(owner)[attr] for owner, attr, _ in points]
        with tracing.Tracer():
            for (owner, attr, _), original in zip(points, originals):
                self.assertIsNot(vars(owner)[attr], original, attr)
        for (owner, attr, _), original in zip(points, originals):
            self.assertIs(vars(owner)[attr], original, attr)

    def test_two_traced_runs_give_identical_counts(self):
        first = self.rep("counts-a", traced=True)[1]
        second = self.rep("counts-b", traced=True)[1]
        counts = {name: first[name] for name in tracing.EXACT_METRICS}
        self.assertEqual(counts, {name: second[name] for name in tracing.EXACT_METRICS})
        self.assertGreater(counts["channel.cirs"], 0)
        self.assertGreater(counts["scene.clusters_used_ratio"], 0.0)
        self.assertLessEqual(counts["scene.clusters_used_ratio"], 1.0)

    def test_traced_and_untraced_runs_give_identical_csv_bytes(self):
        plain = self.rep("plain", traced=False)[0]
        traced = self.rep("traced", traced=True)[0]
        for a, b in zip(plain, traced):
            self.assertIsNone(a["error"])
            self.assertEqual(a["csv_sha256"], b["csv_sha256"], a["preset"])

    def test_clusters_used_ratio_is_one_when_every_element_is_evaluated(self):
        # each born cluster is visible at the element where it is born, and
        # each Rx cluster partners one double-bounce Tx cluster
        tables = (("power-vs-distance", 1),)
        with tracing.Tracer() as tracer:
            run_rep(tables, self.cfgs[:1], OUT / "full", tracer)
        self.assertEqual(tracer.layer_metrics()["scene.clusters_used_ratio"], 1.0)


if __name__ == "__main__":
    unittest.main()
