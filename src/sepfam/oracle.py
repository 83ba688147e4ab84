"""Exhaustive ground truth on small ground sets, and the cross-check harness.

Everything here works straight from the definitions. Each pool member
carries a bitmask of the element pairs it cuts, so a family separates
exactly when the OR of its masks covers all C(n,2) pair bits, and a
separating family is minimal exactly when every member cuts a pair that no
other member cuts.

The three scans share one walk (`_covering_prefixes`) over the pool's index
subsets in lexicographic order. It carries the running OR and stops
descending at the first prefix that covers every pair, since every
extension of that prefix by later indices covers too; counts add those
extensions with `comb` and streams expand them with `combinations`. For
minimal families it also carries the pairs cut exactly once and prunes a
branch as soon as some chosen member owns none, because adding members never
gives a pair back. Only a new member that cuts some once-cut pairs can take
them away, and only then does a plain loop over the chosen indices look for
one left owning none. The walk is one loop with an explicit stack: the (OR,
cut-once) pair from before each chosen index, restored when it backs up.
Scans are capped at n <= ORACLE_MAX_N = 5.

`cross_validate` runs the checks declared in `_GROUPS`, one row per group in
summary order, each naming its axes, its cells and its two sides. One loop
owns the error trap and the sides shared between checks. Oracle groups stop
at ORACLE_MAX_N and tree sweeps at TREE_SWEEP_MAX_N = 6.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import counting, tree
from .core import BipartitionFamily, CapacityError, bipartition_count

ORACLE_MAX_N = 5
# verify's tree sweeps walk all n^(n-2) spanning trees: 1296 at n = 6, 16807 at n = 7
TREE_SWEEP_MAX_N = 6


def _require_oracle_n(n: int) -> None:
    if not 2 <= n <= ORACLE_MAX_N:
        raise CapacityError(f"brute-force scans support 2 <= n <= {ORACLE_MAX_N} (got n={n})")


def _cut_masks(n: int, proper_only: bool) -> tuple[list[int], int]:
    """Pair masks of the pool members, in pool order, and the all-pairs mask.

    Bit p stands for the p-th pair (i, j), i < j, in lexicographic order. A
    coblock cuts exactly the pairs with one element in it, so its mask is the
    XOR of its elements' pair masks; doubling the list once per element 2..n
    visits the coblocks in increasing order, as the pool lists them.
    """
    touching = [0] * n  # touching[i]: the pairs holding element i+1
    for p, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        touching[a] |= 1 << p
        touching[b] |= 1 << p
    masks = [0]
    for t in touching[1:]:
        masks += [m ^ t for m in masks]
    return masks[1:] if proper_only else masks, (1 << (n * (n - 1) // 2)) - 1


def _covering_prefixes(
    masks: list[int], full: int, size: int | None, minimal: bool
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (prefix, start) for each index subset that covers full while no
    shorter prefix of it does, in lexicographic order. The covering families
    that begin with prefix are prefix plus any indices from start on.

    With a size, only prefixes of at most size indices that leave room for a
    family of exactly size members are walked. With minimal, a branch is
    dropped as soon as some chosen member owns no pair (cuts no pair that the
    others leave uncut), so every prefix yielded is a minimal family.
    """
    if size == 0:  # an empty family covers no pair, and no member fits it
        return
    m = len(masks)
    chosen: list[int] = []
    saved: list[tuple[int, int]] = []  # (acc, once) as they were before each chosen index
    # acc: the pairs the chosen members cut; once: those cut by exactly one
    acc = once = once_now = j = 0
    while True:
        # with a size, leave room for the members still to come after index j
        stop = m if size is None else m - size + len(chosen) + 1
        for j in range(j, stop):
            c = masks[j]
            if minimal:
                own = c & ~acc
                if not own:
                    continue  # c cuts no pair the chosen members leave uncut
                lost = once & c
                once_now = (once ^ lost) | own
                # only members whose own pairs c also cuts can have run out
                if lost:
                    for i in chosen:
                        if not masks[i] & once_now:
                            break  # member i owns no pair now: c is dropped
                    else:
                        lost = 0
                    if lost:
                        continue
            if acc | c == full:
                yield (*chosen, j), j + 1
            elif len(chosen) + 1 != size:
                saved.append((acc, once))
                chosen.append(j)
                acc, once = acc | c, once_now
                break  # descend: the next level tries the indices after j
        else:  # this level is done: back up to the last chosen index
            if not chosen:
                return
            acc, once = saved.pop()
            j = chosen.pop()
        j += 1


def brute_count_separating(n: int, k: int, proper_only: bool = False) -> int:
    """k-subsets of the bipartition pool whose members cut every pair."""
    _require_oracle_n(n)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    masks, full = _cut_masks(n, proper_only)
    m = len(masks)
    return sum(
        math.comb(m - start, k - len(prefix))
        for prefix, start in _covering_prefixes(masks, full, k, False)
    )


def separating_families(
    n: int,
    size: int | None = None,
    proper_only: bool = False,
    minimal_only: bool = False,
) -> Iterator[BipartitionFamily]:
    """Yield separating families in canonical order; size=None means every size.

    The order is by size, then lexicographic in the pool's coblock order.
    """
    _require_oracle_n(n)
    masks, full = _cut_masks(n, proper_only)
    pool = range(2 if proper_only else 0, 1 << n, 2)  # the members' coblock masks, ascending
    m = len(pool)
    sizes = range(m + 1) if size is None else [size]
    for k in sizes:
        if k < 0 or k > m:
            continue
        for prefix, start in _covering_prefixes(masks, full, k, minimal_only):
            if minimal_only and len(prefix) < k:
                continue  # a minimal family has no separating prefix but itself
            for rest in itertools.combinations(range(start, m), k - len(prefix)):
                yield BipartitionFamily._of(n, map(pool.__getitem__, prefix + rest))


def brute_minimal_max_families(n: int) -> list[BipartitionFamily]:
    """All minimal separating families of the maximum size n-1, by scan."""
    return list(separating_families(n, size=n - 1, minimal_only=True))


def brute_minimal_size_profile(n: int) -> dict[int, int]:
    """size -> number of minimal separating families of that size, all sizes scanned."""
    _require_oracle_n(n)
    masks, full = _cut_masks(n, False)
    sizes = Counter(len(prefix) for prefix, _ in _covering_prefixes(masks, full, None, True))
    return dict(sorted(sizes.items()))


def _brute_min_ground(k: int, proper: bool) -> tuple[int, int]:
    # smallest n admitting a separating k-family, with the family count there;
    # n=1 works for a lone arbitrary bipartition (no pairs to cut)
    if not proper and k == 1:
        return 1, 1
    for n in range(2, ORACLE_MAX_N + 1):
        c = brute_count_separating(n, k, proper_only=proper)
        if c:
            return n, c
    raise CapacityError(f"min ground size for k={k} lies beyond the oracle range")


@dataclass(frozen=True)
class CheckResult:
    """One named comparison; lhs/rhs kept as strings for reporting."""

    name: str
    ok: bool
    lhs: str
    rhs: str


def _text(side) -> str:
    # counts can pass the 4300-digit limit of str(int)
    return counting.decimal_text(side) if isinstance(side, int) else str(side)


@dataclass
class ValidationReport:
    """Outcome of a cross_validate run."""

    n_max: int
    k_max: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, lhs, rhs) -> None:
        """Record a check; it passes exactly when its two sides are equal."""
        self.checks.append(CheckResult(name, lhs == rhs, _text(lhs), _text(rhs)))

    def group_counts(self) -> dict[str, tuple[int, int]]:
        """group name -> (passed, total), grouped by the first token of the name."""
        out: dict[str, tuple[int, int]] = {}
        for c in self.checks:
            key = c.name.split(" ", 1)[0]
            good, total = out.get(key, (0, 0))
            out[key] = (good + (1 if c.ok else 0), total + 1)
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"verify: n_max={self.n_max} k_max={self.k_max}"]
        for key, (good, total) in self.group_counts().items():
            lines.append(f"{key}: {good}/{total} ok")
        for c in self.failures():
            lines.append(f"FAIL {c.name}: lhs={c.lhs} rhs={c.rhs}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(self.checks)} checks, {len(self.failures())} failed)")
        return lines

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "k_max": self.k_max,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "ok": c.ok, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.checks
            ],
        }


def _n_k(n_cap: int | None = None, k_from: int = 1, proper: bool = False):
    """Cells (n, k): n from 2 to min(n_max, n_cap), k from k_from to k_max and the mode's pool at n."""
    def cells(n_max: int, k_max: int) -> list[tuple[int, int]]:
        top = n_max if n_cap is None else min(n_max, n_cap)
        return [(n, k) for n in range(2, top + 1) for k in range(k_from, min(k_max, bipartition_count(n, proper)) + 1)]
    return cells


def _n(n_cap: int):
    """Cells (n,): n from 2 to min(n_max, n_cap)."""
    return lambda n_max, k_max: [(n,) for n in range(2, min(n_max, n_cap) + 1)]


def _min_ground_k(proper: bool):
    """Cells (k,): every k to k_max whose smallest ground set the oracle reaches."""
    return lambda n_max, k_max: [(k,) for k in range(1, min(k_max, bipartition_count(ORACLE_MAX_N, proper)) + 1)]


def _k_i(n_max: int, k_max: int) -> list[tuple[int, int]]:
    """Cells (k, i): 0 <= i <= k <= k_max."""
    return [(k, i) for k in range(k_max + 1) for i in range(k + 1)]


# group -> (axis names, its cells for (n_max, k_max), its two sides at a cell given the run's shared
# sides s), in summary order. Sides look functions up when called, so one patched or traced after
# import is the one that runs.
_GROUPS = {
    "arbitrary-count-vs-oracle": ("n k", _n_k(ORACLE_MAX_N), lambda s, n, k: (
        counting.count_separating(n, k, False), s.brute(n, k, False))),
    "proper-count-vs-oracle": ("n k", _n_k(ORACLE_MAX_N), lambda s, n, k: (
        counting.count_separating(n, k, True), s.brute(n, k, True))),
    "arbitrary-dual-vs-oracle": ("n k", _n_k(ORACLE_MAX_N), lambda s, n, k: (
        counting.count_separating_dual(n, k, False), s.brute(n, k, False))),
    "proper-dual-vs-oracle": ("n k", _n_k(ORACLE_MAX_N), lambda s, n, k: (
        counting.count_separating_dual(n, k, True), s.brute(n, k, True))),
    # the family-side sum against the ground-side sum, whatever the shape
    "closed-forms-agree-arbitrary": ("n k", _n_k(), lambda s, n, k: (
        counting._count_family_side(n, k, False), counting.count_separating_dual(n, k, False))),
    "closed-forms-agree-proper": ("n k", _n_k(proper=True), lambda s, n, k: (
        counting._count_family_side(n, k, True), counting.count_separating_dual(n, k, True))),
    "matrix-count-identity": ("n k", _n_k(), lambda s, n, k: counting.check_matrix_count_identity(n, k)),
    "trivial-split": ("n k", _n_k(k_from=2), lambda s, n, k: counting.check_trivial_split(n, k)),
    "transpose-symmetry": ("n k", _n_k(k_from=2), lambda s, n, k: counting.check_transpose_symmetry(n, k)),
    "stirling-first-sum": ("k i", _k_i, lambda s, k, i: counting.check_stirling_first_sum(k, i)),
    # the trees come in the order of their Pruefer codes
    "prufer-roundtrip": ("n", _n(TREE_SWEEP_MAX_N), lambda s, n: (
        sum(tree.prufer_encode(t) == c
            for t, c in zip(s.trees(n), itertools.product(range(1, n + 1), repeat=n - 2), strict=True)),
        len(s.trees(n)))),
    "tree-roundtrip": ("n", _n(TREE_SWEEP_MAX_N), lambda s, n: (
        sum(tree.unique_cut_graph(f) == t for t, f in zip(s.trees(n), s.families(n), strict=True)),
        len(s.trees(n)))),
    "edge-cut-minimal": ("n", _n(TREE_SWEEP_MAX_N), lambda s, n: (
        sum(len(f) == n - 1 and f.is_minimal_separating() for f in s.families(n)), len(s.families(n)))),
    "cayley-count": ("n", _n(TREE_SWEEP_MAX_N), lambda s, n: (len(set(s.families(n))), n ** (n - 2))),
    "enumeration-matches-oracle": ("n", _n(ORACLE_MAX_N), lambda s, n: (
        len(set(s.families(n)) ^ set(brute_minimal_max_families(n))), 0)),
    "minimal-size-support": ("n", _n(ORACLE_MAX_N), lambda s, n: (
        [size for size in s.profile(n) if not counting.min_separating_size(n) <= size <= n - 1], [])),
    "min-size-count": ("n", _n(ORACLE_MAX_N), lambda s, n: (
        counting.count_min_size_families(n), s.profile(n).get(counting.min_separating_size(n), 0))),
    "min-ground-size-arbitrary": ("k", _min_ground_k(False), lambda s, k: (
        counting.min_ground_size(k, False), s.min_ground(k, False)[0])),
    "min-ground-count-arbitrary": ("k", _min_ground_k(False), lambda s, k: (
        counting.count_min_ground_families(k, False), s.min_ground(k, False)[1])),
    "min-ground-size-proper": ("k", _min_ground_k(True), lambda s, k: (
        counting.min_ground_size(k, True), s.min_ground(k, True)[0])),
    "min-ground-count-proper": ("k", _min_ground_k(True), lambda s, k: (
        counting.count_min_ground_families(k, True), s.min_ground(k, True)[1])),
}


def cross_validate(n_max: int, k_max: int) -> ValidationReport:
    """Run every formula, identity, and bijection check at desk scale.

    The checks come from one table of groups, in summary order; each group
    names its axes, the cells it runs over for (n_max, k_max) and its two
    sides at a cell. One loop runs every cell of every group, and a check
    passes exactly when its two sides are equal. A side that raises
    ArithmeticError or ValueError (CapacityError included) is recorded as a
    failed check with lhs "error: ..." and rhs "unavailable", so failures land
    in the report and are never raised. Sides that several checks read (the
    oracle's counts, profiles and min ground sizes, the trees and their
    families) are computed once per run; one that raises is not kept. Oracle
    comparisons stop at n = ORACLE_MAX_N and tree sweeps at n =
    TREE_SWEEP_MAX_N, however large n_max is; formula-vs-formula and identity
    checks use the full requested range.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rep = ValidationReport(n_max, k_max)
    shared = types.SimpleNamespace(
        brute=functools.cache(brute_count_separating),
        profile=functools.cache(brute_minimal_size_profile),
        min_ground=functools.cache(_brute_min_ground),
        trees=functools.cache(lambda n: tuple(tree.spanning_trees(n))),
        families=functools.cache(lambda n: tuple(tree.minimal_max_families(n))),
    )
    for group, (axes, cells, sides) in _GROUPS.items():
        for cell in cells(n_max, k_max):
            try:
                lhs, rhs = sides(shared, *cell)
            except (ArithmeticError, ValueError) as exc:
                lhs, rhs = f"error: {exc}", "unavailable"
            rep.add(" ".join([group, *(f"{a}={v}" for a, v in zip(axes.split(), cell))]), lhs, rhs)
    return rep
