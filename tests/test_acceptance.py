"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with -s (or -v) to see the lines; each test also asserts, so a FAIL line
comes with a failing test. Budgets are wall-clock on the machine at hand.
"""

import time
from math import comb, factorial

import pytest

import sepfam.counting
from sepfam import (
    Bipartition,
    BipartitionFamily,
    CharMatrix,
    LabeledGraph,
    bipartition_count,
    brute_count_separating,
    brute_minimal_max_families,
    brute_minimal_size_profile,
    check_matrix_count_identity,
    check_stirling_first_sum,
    check_transpose_symmetry,
    check_trivial_split,
    count_min_size_families,
    count_min_ground_families,
    count_separating,
    count_separating_dual,
    edge_cut_family,
    is_forced_zero,
    min_ground_size,
    min_separating_size,
    minimal_max_families,
    spanning_trees,
    stirling1_unsigned,
    unique_cut_graph,
)
from sepfam.cli import main
from sepfam.counting import _count_family_side
from sepfam.oracle import _brute_min_ground

M_P = [[0, 0], [0, 1], [1, 0], [1, 1]]
M_Q = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]

P1 = Bipartition.from_blocks(4, [[1, 2], [3, 4]])
P2 = Bipartition.from_blocks(4, [[1, 3], [2, 4]])
Q1 = Bipartition.from_blocks(4, [[1], [2, 3, 4]])
Q3 = Bipartition.from_blocks(4, [[1, 2, 3], [4]])
FP = BipartitionFamily(4, (P1, P2))
FQ = BipartitionFamily(4, (Q1, P1, Q3))


@pytest.fixture
def report(capsys):
    """Emit the per-criterion verdict line on the real terminal, then assert."""

    def _report(num, label, failures):
        verdict = "pass" if not failures else "FAIL"
        with capsys.disabled():
            print(f"criterion {num} ({label}): {verdict}")
        assert not failures, f"criterion {num} ({label}): {failures[:8]}"

    return _report


def _criterion_1_checks():
    failures = []
    if not (FP.is_separating() and FP.is_minimal_separating()):
        failures.append("pair family not separating+minimal")
    if not (FQ.is_separating() and FQ.is_minimal_separating()):
        failures.append("triple family not separating+minimal")
    if len(FQ) != FQ.n - 1:
        failures.append(f"triple family size {len(FQ)} != n-1")
    got_p = CharMatrix.encode(4, (P1, P2))
    got_q = CharMatrix.encode(4, (Q1, P1, Q3))
    if got_p != CharMatrix.from_rows(M_P):
        failures.append(f"pair matrix {got_p}")
    if got_q != CharMatrix.from_rows(M_Q):
        failures.append(f"triple matrix {got_q}")
    return failures


def test_criterion_1_worked_example_fixtures(report):
    _criterion_1_checks()  # warm caches before timing
    # best of five rides out scheduler noise
    best = float("inf")
    failures = []
    for _ in range(5):
        t0 = time.perf_counter()
        failures = _criterion_1_checks()
        best = min(best, time.perf_counter() - t0)
    if best >= 1e-3:
        failures.append(f"fixture pass took {best * 1e3:.3f} ms")
    report(1, "worked-example-fixtures", failures)


def test_criterion_2_tree_bijection(report):
    failures = []
    t0 = time.perf_counter()
    expected = {3: 3, 4: 16, 5: 125}
    for n, want in expected.items():
        brute = set(brute_minimal_max_families(n))
        enum = set(minimal_max_families(n))
        if len(brute) != want:
            failures.append(f"n={n}: oracle found {len(brute)} families")
        if brute != enum:
            failures.append(f"n={n}: enumeration disagrees with oracle set")
    bad = sum(1 for t in spanning_trees(6) if unique_cut_graph(edge_cut_family(t)) != t)
    total = sum(1 for _ in spanning_trees(6))
    if bad or total != 1296:
        failures.append(f"n=6 roundtrip: {bad} bad of {total}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f} s")
    report(2, "tree-bijection", failures)


def test_criterion_3_unique_cut_graphs(report):
    failures = []
    path = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    cycle = LabeledGraph.from_edges(4, [(1, 2), (2, 4), (4, 3), (3, 1)])
    if unique_cut_graph(FQ) != path:
        failures.append(f"triple family maps to {sorted(unique_cut_graph(FQ).edges)}")
    if unique_cut_graph(FP) != cycle:
        failures.append(f"pair family maps to {sorted(unique_cut_graph(FP).edges)}")
    report(3, "unique-cut-graphs", failures)


def test_criterion_4_counts_vs_oracle(report):
    failures = []
    t0 = time.perf_counter()
    anchors = [
        (4, 2, False, 3),
        (4, 3, False, 32),
        (4, 2, True, 3),
        (4, 3, True, 29),
        (5, 3, False, 140),
    ]
    for n, k, proper, want in anchors:
        got = count_separating(n, k, proper)
        if got != want:
            failures.append(f"anchor n={n} k={k} proper={proper}: {got} != {want}")
    for n in range(2, 6):
        for proper in (False, True):
            pool = bipartition_count(n, proper=proper)
            for k in range(0, pool + 1):
                brute = brute_count_separating(n, k, proper_only=proper)
                # count_separating picks a sum; v1 and v2 are the two sums themselves
                for name, fn in (("count", count_separating), ("v1", _count_family_side),
                                 ("v2", count_separating_dual)):
                    got = fn(n, k, proper)
                    if got != brute:
                        failures.append(f"{name} n={n} k={k} proper={proper}: {got} != {brute}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f} s")
    report(4, "counts-vs-oracle", failures)


def test_criterion_5_identities(report):
    failures = []
    t0 = time.perf_counter()
    for n in range(2, 9):
        pool = bipartition_count(n)
        for k in range(1, min(20, pool) + 1):
            if not check_matrix_count_identity(n, k):
                failures.append(f"matrix-count n={n} k={k}")
        for k in range(2, min(20, pool) + 1):
            if not check_trivial_split(n, k):
                failures.append(f"trivial-split n={n} k={k}")
            if not check_transpose_symmetry(n, k):
                failures.append(f"transpose n={n} k={k}")
    for k in range(0, 31):
        for i in range(0, k + 1):
            if not check_stirling_first_sum(k, i):
                failures.append(f"stirling-sum k={k} i={i}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f} s")
    report(5, "identities", failures)


def test_criterion_6_minimum_size_and_ground(report):
    failures = []
    anchors = {4: 3, 5: 140}
    for n in range(2, 6):
        prof = brute_minimal_size_profile(n)
        m = min_separating_size(n)
        formula = count_min_size_families(n)
        if formula != prof.get(m, 0):
            failures.append(f"min-size count n={n}: {formula} != {prof.get(m, 0)}")
        if n in anchors and formula != anchors[n]:
            failures.append(f"min-size anchor n={n}: {formula} != {anchors[n]}")
        if not all(m <= s <= n - 1 for s in prof):
            failures.append(f"support n={n}: {sorted(prof)} outside [{m}, {n - 1}]")
    for k in range(1, 8):
        for proper in (False, True):
            got_n, got_c = _brute_min_ground(k, proper)
            if min_ground_size(k, proper) != got_n:
                failures.append(f"ground size k={k} proper={proper}: != {got_n}")
            if proper or k >= 2:
                if count_min_ground_families(k, proper) != got_c:
                    failures.append(f"ground count k={k} proper={proper}: != {got_c}")
    report(6, "minimum-size-and-ground", failures)


def test_criterion_7_exact_division(report):
    failures = []
    for n in range(2, 9):
        pool = bipartition_count(n)
        for proper in (False, True):
            top = min(20, pool - 1 if proper else pool)
            for k in range(1, top + 1):
                if is_forced_zero(n, k, proper):
                    continue
                if proper:
                    acc = sum(
                        (-1) ** (k - i) * stirling1_unsigned(k + 1, i + 1) * comb((1 << i) - 1, n - 1)
                        for i in range(1, k + 1)
                    )
                else:
                    acc = sum(
                        (-1) ** (k - i) * stirling1_unsigned(k, i) * comb((1 << i) - 1, n - 1)
                        for i in range(1, k + 1)
                    )
                q, r = divmod(factorial(n - 1) * acc, factorial(k))
                if r != 0:
                    failures.append(f"remainder n={n} k={k} proper={proper}: {r}")
                elif q != count_separating(n, k, proper):
                    failures.append(f"quotient n={n} k={k} proper={proper}")
    report(7, "exact-division", failures)


def test_criterion_8_verify_cli_fault_detection(report, capsys, monkeypatch):
    failures = []
    if main(["verify", "--n-max", "5", "--k-max", "8"]) != 0:
        failures.append("clean verify did not exit 0")
    capsys.readouterr()

    real = sepfam.counting.stirling1_unsigned

    def warped(k, i):
        if (k, i) == (4, 2):
            return real(k, i) + 1
        return real(k, i)

    monkeypatch.setattr(sepfam.counting, "stirling1_unsigned", warped)
    code = main(["verify", "--n-max", "5", "--k-max", "8"])
    out = capsys.readouterr().out
    monkeypatch.undo()
    if code != 1:
        failures.append(f"fault-injected verify exited {code}")
    if not any(line.startswith("FAIL stirling-first-sum") for line in out.splitlines()):
        failures.append("failing identity not named in output")
    report(8, "verify-cli-fault-detection", failures)
