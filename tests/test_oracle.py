"""The exhaustive oracle against frozen tables, a live reference, and the harness."""

import hashlib
import itertools

import pytest

import helpers
import reference_tables as ref
import sepfam.counting
from sepfam import (
    BipartitionFamily,
    CapacityError,
    ValidationReport,
    all_bipartitions,
    brute_count_separating,
    brute_minimal_max_families,
    brute_minimal_size_profile,
    cross_validate,
    min_separating_size,
    separating_families,
)
from sepfam.oracle import _covering_prefixes, _cut_masks


def test_brute_counts_match_frozen_tables():
    for n, row in ref.SEPARATING_COUNTS.items():
        for k, want in row.items():
            assert brute_count_separating(n, k) == want, (n, k)
    for n, row in ref.SEPARATING_COUNTS_PROPER.items():
        for k, want in row.items():
            assert brute_count_separating(n, k, proper_only=True) == want, (n, k)


def test_brute_matches_reference_live():
    # independent re-derivation of the n <= 4 slice straight from definitions
    for n in (2, 3, 4):
        pool = helpers.naive_all_bipartitions(n)
        for k in range(len(pool) + 1):
            want = sum(
                1
                for combo in itertools.combinations(pool, k)
                if helpers.naive_is_separating(list(combo), n)
            )
            assert brute_count_separating(n, k) == want, (n, k)


def test_separating_families_match_a_filtered_scan():
    # every stream in order, and every count, against combinations of the
    # pool filtered by the row predicates, which share no code with the walk
    for n in (2, 3, 4):
        for proper in (False, True):
            pool = all_bipartitions(n, proper)
            for minimal in (False, True):
                keep = (
                    BipartitionFamily.is_minimal_separating
                    if minimal
                    else BipartitionFamily.is_separating
                )
                by_size = []
                for k in range(len(pool) + 1):
                    fams = (BipartitionFamily(n, c) for c in itertools.combinations(pool, k))
                    by_size.append([fam for fam in fams if keep(fam)])
                for k in range(len(pool) + 2):
                    want = by_size[k] if k <= len(pool) else []
                    got = list(separating_families(n, k, proper, minimal))
                    assert got == want, (n, k, proper, minimal)
                    if not minimal:
                        assert brute_count_separating(n, k, proper) == len(want), (n, k, proper)
                everything = list(separating_families(n, None, proper, minimal))
                assert everything == [fam for row in by_size for fam in row], (n, proper, minimal)


def test_minimal_size_profile_matches_definition():
    # minimality by the raw definition: no proper subfamily separates
    for n in (2, 3, 4):
        pool = helpers.naive_all_bipartitions(n)
        want: dict[int, int] = {}
        for k in range(len(pool) + 1):
            for combo in itertools.combinations(pool, k):
                if helpers.naive_is_minimal(list(combo), n):
                    want[k] = want.get(k, 0) + 1
        prof = brute_minimal_size_profile(n)
        assert prof == want, n
        assert list(prof) == sorted(prof), n  # sizes ascending


def test_oracle_capacity():
    for bad in (1, 6):
        with pytest.raises(CapacityError):
            brute_count_separating(bad, 2)
    with pytest.raises(CapacityError):
        next(separating_families(6))
    with pytest.raises(ValueError):
        brute_count_separating(4, -1)
    assert brute_count_separating(4, 9) == 0  # larger than the pool, not an error


def test_separating_families_stream(ex):
    fams = list(separating_families(4, size=2))
    assert len(fams) == 3
    assert ex.fp in fams
    assert all(f.is_separating() and len(f) == 2 for f in fams)
    minimal = list(separating_families(4, minimal_only=True))
    assert len(minimal) == 19  # 3 of size 2 plus 16 of size 3
    assert all(f.is_minimal_separating() for f in minimal)
    proper3 = list(separating_families(4, size=3, proper_only=True))
    assert len(proper3) == 29


def test_brute_minimal_max_families(ex):
    fams = brute_minimal_max_families(4)
    assert len(fams) == 16
    assert ex.fq in fams
    assert ex.fp not in fams  # size 2, not n-1
    for f in fams:
        assert len(f) == 3
        assert f.is_minimal_separating()


def test_walk_stream_is_pinned():
    # every mode, size and pool at n <= 5: 28 361 prefixes, each with its start, in walk order
    stream = []
    for n in range(2, 6):
        for proper in (False, True):
            masks, full = _cut_masks(n, proper)
            for size in [None, *range(len(masks) + 2)]:
                for minimal in (False, True):
                    stream.append(list(_covering_prefixes(masks, full, size, minimal)))
    assert sum(map(len, stream)) == 28361
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert digest == "05e2376e3516d009f9bdea62668b32f785175c56b05b51a8c63b023a9bfb9851"


def test_minimal_size_profile():
    for n, want in ref.MINIMAL_PROFILES.items():
        assert brute_minimal_size_profile(n) == want


def test_profile_support_within_bounds():
    for n in range(2, 6):
        prof = brute_minimal_size_profile(n)
        lo, hi = min_separating_size(n), n - 1
        assert all(lo <= s <= hi for s in prof)
        assert prof[hi] == n ** (n - 2)


def test_cross_validate_passes():
    rep = cross_validate(4, 6)
    assert rep.passed
    assert not rep.failures()
    d = rep.to_dict()
    assert d["passed"] is True and d["n_max"] == 4
    groups = rep.group_counts()
    for expected in (
        "arbitrary-count-vs-oracle",
        "proper-dual-vs-oracle",
        "tree-roundtrip",
        "enumeration-matches-oracle",
        "min-ground-count-proper",
        "stirling-first-sum",
    ):
        good, total = groups[expected]
        assert good == total > 0
    # the dual form is checked at k = 1 too, so at every cell the count is
    assert groups["arbitrary-dual-vs-oracle"] == groups["arbitrary-count-vs-oracle"]
    assert rep.summary_lines()[-1].startswith("result: PASS")


# groups that run over the same cells, so their counts agree at every shape
_ORACLE_GROUPS = ("arbitrary-count-vs-oracle", "proper-count-vs-oracle", "arbitrary-dual-vs-oracle",
                  "proper-dual-vs-oracle")
_TREE_GROUPS = ("prufer-roundtrip", "tree-roundtrip", "edge-cut-minimal", "cayley-count")
_N_GROUPS = ("enumeration-matches-oracle", "minimal-size-support", "min-size-count")
_MIN_GROUND_GROUPS = ("min-ground-size-arbitrary", "min-ground-count-arbitrary", "min-ground-size-proper",
                      "min-ground-count-proper")


def _totals(names, total):
    return [(name, (total, total)) for name in names]


@pytest.mark.parametrize(
    "n_max, k_max, counts",
    [
        # k_max = 1 gives no cell to trivial-split or transpose-symmetry, so both are absent
        (2, 1, [*_totals(_ORACLE_GROUPS, 1), ("closed-forms-agree-arbitrary", (1, 1)),
                ("closed-forms-agree-proper", (1, 1)), ("matrix-count-identity", (1, 1)),
                ("stirling-first-sum", (3, 3)), *_totals(_TREE_GROUPS, 1), *_totals(_N_GROUPS, 1),
                *_totals(_MIN_GROUND_GROUPS, 1)]),
        (3, 3, [*_totals(_ORACLE_GROUPS, 5), ("closed-forms-agree-arbitrary", (5, 5)),
                ("closed-forms-agree-proper", (4, 4)), ("matrix-count-identity", (5, 5)),
                ("trivial-split", (3, 3)), ("transpose-symmetry", (3, 3)), ("stirling-first-sum", (10, 10)),
                *_totals(_TREE_GROUPS, 2), *_totals(_N_GROUPS, 2), *_totals(_MIN_GROUND_GROUPS, 3)]),
        # past both caps: tree sweeps stop at n = 6 and oracle groups at n = 5
        (7, 5, [*_totals(_ORACLE_GROUPS, 16), ("closed-forms-agree-arbitrary", (26, 26)),
                ("closed-forms-agree-proper", (24, 24)), ("matrix-count-identity", (26, 26)),
                ("trivial-split", (20, 20)), ("transpose-symmetry", (20, 20)), ("stirling-first-sum", (21, 21)),
                *_totals(_TREE_GROUPS, 5), *_totals(_N_GROUPS, 4), *_totals(_MIN_GROUND_GROUPS, 5)]),
    ],
)
def test_group_counts_in_summary_order(n_max, k_max, counts):
    assert list(cross_validate(n_max, k_max).group_counts().items()) == counts


def test_report_takes_values_past_the_digit_limit():
    rep = ValidationReport(2, 1)
    rep.add("huge", 10**5000, 10**5000)
    rep.add("apart", 10**5000, -(10**5000))
    huge, apart = rep.checks
    assert huge.ok and huge.lhs == huge.rhs == "1" + "0" * 5000
    assert not apart.ok and apart.rhs == "-1" + "0" * 5000
    lines = rep.summary_lines()
    assert f"FAIL apart: lhs={apart.lhs} rhs={apart.rhs}" in lines
    assert lines[-1] == "result: FAIL (2 checks, 1 failed)"


def test_every_check_passes_exactly_when_its_sides_agree():
    rep = cross_validate(5, 16)
    assert len(rep.checks) == 501
    assert all(c.ok == (c.lhs == c.rhs) for c in rep.checks)
    assert rep.passed


def test_cross_validate_arg_validation():
    with pytest.raises(ValueError):
        cross_validate(1, 4)
    with pytest.raises(ValueError):
        cross_validate(4, 0)


def test_cross_validate_reports_injected_fault(monkeypatch):
    # corrupt one Stirling entry; the harness must notice, not crash
    real = sepfam.counting.stirling1_unsigned

    def warped(k, i):
        if (k, i) == (4, 2):
            return real(k, i) + 1
        return real(k, i)

    monkeypatch.setattr(sepfam.counting, "stirling1_unsigned", warped)
    rep = cross_validate(4, 6)
    assert not rep.passed
    failing_groups = {c.name.split(" ", 1)[0] for c in rep.failures()}
    assert "stirling-first-sum" in failing_groups
    summary = "\n".join(rep.summary_lines())
    assert "FAIL stirling-first-sum" in summary
    assert summary.splitlines()[-1].startswith("result: FAIL")
