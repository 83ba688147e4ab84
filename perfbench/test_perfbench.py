"""Self-tests of the benchmark: its checks catch planted faults, every metric
is emitted, counters repeat exactly, and its reference agrees with sepfam.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import fnmatch
import json
import random
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

import worker

worker.import_sepfam()

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from sepfam import core, counting, documents, tree  # noqa: E402
from workloads import KNOWN, OK, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def judge(name: str, indices: list[int]) -> tuple[bool, int, int]:
    """Send the given requests of a workload and tally their verdicts."""
    w = WORKLOADS[name]
    records = worker.Records(len(indices))
    for i in indices:
        worker.send(w, w.make(SEED, i), records)
    verdicts = Counter({"ok": 0, "wrong": 0, "error": 0, "known": 0})
    for slot, i in enumerate(indices):
        record = (records.codes[slot], records.values[slot])
        verdicts[w.check(w.make(SEED, i), record)] += 1
    return run.tally(verdicts)


def first(name: str, want, count: int) -> list[int]:
    """Indices of the first `count` requests whose tuple satisfies `want`."""
    w = WORKLOADS[name]
    found = [i for i in range(2000) if want(w.make(SEED, i))]
    return found[:count]


def small_checks(req) -> bool:
    return req[0].startswith("check") and len(req[1]) <= 60


class PlantedFaults(unittest.TestCase):
    """Each planted fault must show in failed_ratio; without it nothing fails."""

    def assert_fault_shows(self, name, indices, target, attr, faulty):
        correct, attempted, failed = judge(name, indices)
        self.assertEqual((correct, failed), (True, 0))
        with mock.patch.object(target, attr, faulty):
            correct, attempted, failed = judge(name, indices)
        self.assertFalse(correct)
        self.assertGreater(failed / attempted, 0)

    def test_wrong_count(self):
        orig = counting.count_separating
        indices = first("count", lambda r: r[0] == "v1" and r[2] <= 120, 6)
        self.assert_fault_shows("count", indices, counting, "count_separating",
                                lambda n, k, proper=False: orig(n, k, proper) + 1)

    def test_flipped_verdict(self):
        orig = core.BipartitionFamily.is_minimal_separating
        self.assert_fault_shows("families", first("families", small_checks, 4),
                                core.BipartitionFamily, "is_minimal_separating",
                                lambda fam: not orig(fam))

    def test_wrong_edge_list(self):
        orig = documents.edges_to_text

        def swapped(g):
            edges = orig(g).split(",")
            edges[0], edges[-1] = edges[-1], edges[0]
            return ",".join(edges)

        indices = first("families", lambda r: r[0] == "family-to-tree", 4)
        self.assert_fault_shows("families", indices, documents, "edges_to_text", swapped)


class CountDigitLimit(unittest.TestCase):
    def test_cli_failure_over_4300_digits_is_predicted(self):
        w = WORKLOADS["count"]
        req = ("v1", 40, 600, False, True)
        record = w.run(req)
        verdict = w.check(req, record)
        # exit 2 today; once the CLI prints big counts the answer must be right
        self.assertEqual(verdict, KNOWN if record[0] else OK)

    def test_predicted_failure_does_not_fail_the_run(self):
        verdicts = {"ok": 9, "wrong": 0, "error": 0, "known": 1}
        self.assertEqual(run.tally(verdicts), (True, 10, 0))
        self.assertEqual(run.tally({**verdicts, "error": 1}), (False, 11, 1))


class Reference(unittest.TestCase):
    def test_count_residue_matches_both_closed_forms(self):
        for n in range(3, 15):
            for k in range(2, min((1 << (n - 1)) - 1, 30) + 1):
                for proper in (False, True):
                    want = ref.count_residue(n, k, proper)
                    self.assertEqual(counting.count_separating(n, k, proper) % ref.P, want)
                    self.assertEqual(counting.count_separating_dual(n, k, proper) % ref.P, want)

    def test_row_lemma_matches_predicates(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 9)
            k = rng.randint(1, 5)
            rows = [0] + [rng.randrange(1 << k) for _ in range(n - 1)]
            members = tuple(core.Bipartition(n, c) for c in ref.columns(rows, k))
            fam = core.BipartitionFamily(n, members)
            if len(fam) < k:  # repeated columns collapse; the lemma needs k members
                continue
            self.assertEqual(fam.is_separating(), ref.is_separating(rows))
            self.assertEqual(fam.is_minimal_separating(), ref.is_minimal(rows, k))

    def test_tree_texts_match_program(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(2, 12)
            code = [rng.randint(1, n) for _ in range(n - 2)]
            t = tree.prufer_decode(n, code)
            edges = ref.prufer_decode(n, code)
            self.assertEqual(documents.edges_to_text(t), ref.edges_text(edges))
            self.assertEqual(documents.family_to_compact(tree.edge_cut_family(t)),
                             ref.family_text(n, ref.edge_cut_coblocks(n, edges)))


class Tracing(unittest.TestCase):
    def traced_pass(self, name, count):
        t = tracer.Tracer()
        uninstall = tracer.install(t)
        try:
            worker.send_all(WORKLOADS[name], SEED, worker.Records(count), float("inf"), t)
        finally:
            uninstall()
        return t

    def test_counters_repeat_exactly(self):
        for name, count in (("verify", 40), ("families", 10), ("trees", 40)):
            a, b = self.traced_pass(name, count), self.traced_pass(name, count)
            self.assertEqual(a.calls, b.calls)
            self.assertEqual(a.counts, b.counts)
            self.assertGreater(sum(a.calls.values()), 0)

    def test_uninstall_restores_every_target(self):
        before = counting.count_separating, core.BipartitionFamily.__dict__["is_separating"]
        self.traced_pass("count", 3)
        after = counting.count_separating, core.BipartitionFamily.__dict__["is_separating"]
        self.assertEqual(before, after)

    def test_nested_calls_become_child_spans(self):
        t = self.traced_pass("families", 4)
        self_s = t.self_seconds()
        total = sum(end - start for name, start, end, parent, _ in t.spans if parent is None)
        self.assertAlmostEqual(sum(self_s.values()), total, places=6)
        self.assertGreaterEqual(min(self_s.values()), -1e-9)


class Calibration(unittest.TestCase):
    def test_each_request_scaled_by_its_kernel(self):
        records = worker.Records(2)
        records.size = 2
        records.latency[0], records.latency[1] = 0.2, 0.6
        records.pairs[1] = 1
        records.stretch_s = [1.0]
        # plain kernel at twice its nominal time, pair-cut kernel at nominal
        records.kernel_s = {False: [2 * worker.KERNEL_NOMINAL_S] * 2,
                            True: [worker.PAIRS_NOMINAL_S] * 2}
        self.assertEqual(records.scaled_latency(), [0.1, 0.6])
        raw, scaled = records.busy()
        self.assertEqual(raw, 1.0)
        self.assertAlmostEqual(scaled, 0.7 / 0.8)


class TinyRuns(unittest.TestCase):
    """A tiny run of each workload prints every declared metric and is correct."""

    def run_bench(self, name, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_metric_for_every_workload(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for w in BENCHMARK["workloads"]:
            for trace, declared in ((0, e2e), (1, layers)):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.run_bench(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, declared)


class Declarations(unittest.TestCase):
    def test_layer_map_covers_every_per_layer_metric(self):
        rationale = json.loads((HERE / "rationale.json").read_text())
        patterns = [p for row in rationale["layer_map"] for p in row["layer"]]
        for metric in BENCHMARK["per_layer"]:
            self.assertTrue(any(fnmatch.fnmatch(metric["name"], p) for p in patterns),
                            metric["name"])
        self.assertEqual(set(rationale["workloads"]), {w["name"] for w in BENCHMARK["workloads"]})


if __name__ == "__main__":
    unittest.main()
