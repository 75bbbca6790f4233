#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Checks the self-time arithmetic, the percentile sample-count rule, and
that the layer wrappers nest correctly and leave tailormon as they found
it.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from measure import median, percentile, samples_beyond  # noqa: E402
from spans import SpanRecorder, Tracer, root_of, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_merged_and_clipped(self):
        # span 0: [0, 10]; children [1, 3] and [2, 5] overlap, [6, 7] is
        # separate, [9, 12] sticks out of the parent; span 4 is a grandchild
        starts = [0.0, 1.0, 2.0, 6.0, 6.5, 9.0]
        ends = [10.0, 3.0, 5.0, 7.0, 6.75, 12.0]
        parents = [-1, 0, 0, 0, 3, 0]
        got = self_times(starts, ends, parents)
        np.testing.assert_allclose(got, [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 0.75, 0.25, 3.0])

    def test_leaf_self_time_is_duration(self):
        np.testing.assert_allclose(self_times([1.0, 4.0], [2.5, 4.5], [-1, -1]), [1.5, 0.5])

    def test_root_of(self):
        np.testing.assert_array_equal(root_of([-1, 0, 1, -1, 3, 1]), [0, 0, 0, 3, 3, 0])


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(samples_beyond(1000, 99), 10)
        self.assertEqual(samples_beyond(999, 99), 9)
        with self.assertRaises(ValueError):
            percentile(range(999), 99)
        self.assertEqual(percentile(range(1000), 99), 989)

    def test_p50_and_median(self):
        self.assertEqual(percentile(range(100), 50), 49)
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            median([])


class TracerTest(unittest.TestCase):
    def test_wrappers_nest_and_are_removed(self):
        import tailormon as tm
        from tailormon import _kernel, mixmonitor

        originals = (_kernel.scan_step, mixmonitor.Monitor.step, mixmonitor.project_observation)
        rng = np.random.default_rng(0)
        train = rng.standard_normal((50, 3))
        summary = tm.estimate_training(train)
        model = tm.build_monitor_model(summary, tm.identity_selection(3), train, window=5)
        rec = SpanRecorder("selftest")
        with Tracer(rec):
            with rec.span("bench.timed"):
                tm.Monitor(model).run(rng.standard_normal((6, 3)), stop_on_alarm=False)
        self.assertEqual((_kernel.scan_step, mixmonitor.Monitor.step, mixmonitor.project_observation), originals)

        nids, _, _, parents = rec.arrays()
        names = [rec.names[i] for i in nids]
        self.assertEqual(names.count("mixmonitor.Monitor.step"), 6)
        self.assertEqual(names.count("kernel.scan_step"), 5)  # no candidate at t = 1
        for i, name in enumerate(names):
            if name == "kernel.scan_step":
                self.assertEqual(names[parents[i]], "mixmonitor.Monitor.step")
        self.assertEqual(rec.counts["kernel.scan_step.cells"], sum((min(t, 6) - 1) * 3 for t in range(2, 7)))


if __name__ == "__main__":
    unittest.main()
