#!/usr/bin/env python3
"""Tests for the renaissance launcher. Usage: CliTest.py PATH/TO/renaissance

Each case runs one benchmark for one warmup and one measured iteration:
finagle-http, whose operations allocate on the managed heap and publish one
load report each, unless the case names another.
"""

import json
import re
import subprocess
import sys
import unittest

CLI = None

# Every quantity the managed-heap report prints, by its --stats name.
HEAP_COUNTERS = [
    "bytes_allocated", "bytes_freed", "array_bytes", "small_allocs",
    "large_allocs", "remote_frees", "regions_allocated", "slabs_in_use",
    "slabs_recycled", "orphan_slabs_adopted", "reclaim_passes",
    "reclaim_ns", "reclaim_max_ns", "epoch", "live_bytes",
    "slab_occupancy_pct",
]


def run(*flags, bench="finagle-http"):
    """Runs the CLI; returns its stdout and its stderr."""
    proc = subprocess.run([CLI, "--warmups", "1", "--repetitions", "1",
                           *flags, bench],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc.stdout, proc.stderr


def stats(text):
    """The 'name value' lines of a --stats report, as a dict."""
    pairs = (line.split(" ") for line in text.splitlines())
    return {p[0]: float(p[1]) for p in pairs if len(p) == 2 and "." in p[0]}


class CliTest(unittest.TestCase):
    def test_stats_prints_every_heap_counter(self):
        counters = stats(run("--stats")[0])
        for name in HEAP_COUNTERS:
            self.assertIn("runtime.heap." + name, counters)
        # Whole-run deltas, not absolute values.
        self.assertGreater(counters["runtime.heap.bytes_allocated"], 0)
        self.assertEqual(counters["netsim.load_reports"], 2)

    def test_json_stdout_stays_one_document(self):
        stdout, stderr = run("--json", "--stats", "--trace-summary")
        self.assertEqual(json.loads(stdout)[0]["benchmark"], "finagle-http")
        self.assertIn("runtime.heap.live_bytes", stats(stderr))
        self.assertIn("trace profile:", stderr)

    def test_trace_summary_keeps_most_events(self):
        # fj-kmeans writes about 550k events. Drained only between
        # benchmarks, its five tracing threads keep one 8192-slot ring each
        # and 93% are dropped. Drained every 0.5 ms, 3-5% are dropped on an
        # idle 4-CPU host and 10-60% while ctest runs 4 to 40 tests beside
        # it, so the bound sits between the two.
        stdout, _ = run("--trace-summary", bench="fj-kmeans")
        m = re.search(r"trace profile: (\d+) events \((\d+) dropped\)",
                      stdout)
        self.assertIsNotNone(m, stdout)
        kept, dropped = int(m.group(1)), int(m.group(2))
        self.assertLess(dropped / (kept + dropped), 0.75)

    def test_csv_stdout_holds_only_the_table(self):
        stdout, stderr = run("--csv", "--stats")
        self.assertEqual(len(stdout.splitlines()), 3)  # header + 2 rows
        self.assertIn("runtime.heap.live_bytes", stats(stderr))


if __name__ == "__main__":
    CLI = sys.argv.pop(1)
    unittest.main()
