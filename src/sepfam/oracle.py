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
gives a pair back. Scans are capped at n <= 5.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import counting, tree
from .core import (
    BipartitionFamily,
    CapacityError,
    all_bipartitions,
    bipartition_count,
)

ORACLE_MAX_N = 5


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
    m = len(masks)
    chosen: list[int] = []

    def extend(start: int, acc: int, once: int):
        # acc: the pairs the chosen members cut; once: those cut by exactly one
        depth = len(chosen) + 1  # of the prefixes tried here
        stop = m if size is None else m - size + depth
        for j in range(start, stop):
            c = masks[j]
            if minimal:
                own = c & ~acc
                if not own:
                    continue  # c cuts no pair the chosen members leave uncut
                lost = once & c
                once_now = (once ^ lost) | own
                # only members whose own pairs c also cuts can have run out
                if lost and not all(masks[i] & once_now for i in chosen):
                    continue
            else:
                once_now = 0
            chosen.append(j)
            if acc | c == full:
                yield tuple(chosen), j + 1
            elif depth != size:
                yield from extend(j + 1, acc | c, once_now)
            chosen.pop()

    if size != 0:  # an empty family covers no pair, and no member fits it
        yield from extend(0, 0, 0)


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
    pool = all_bipartitions(n, proper_only)
    masks, full = _cut_masks(n, proper_only)
    m = len(pool)
    sizes = range(m + 1) if size is None else [size]
    for k in sizes:
        if k < 0 or k > m:
            continue
        for prefix, start in _covering_prefixes(masks, full, k, minimal_only):
            if minimal_only and len(prefix) < k:
                continue  # a minimal family has no separating prefix but itself
            for rest in itertools.combinations(range(start, m), k - len(prefix)):
                yield BipartitionFamily(n, tuple(pool[i] for i in prefix + rest))


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


def cross_validate(n_max: int, k_max: int) -> ValidationReport:
    """Run every formula, identity, and bijection check at desk scale.

    Each check computes two sides and passes exactly when they are equal. A
    side that raises ArithmeticError or ValueError (CapacityError included) is
    recorded as a failed check with lhs "error: ..." and rhs "unavailable", so
    failures land in the report and are never raised. Oracle comparisons stop
    at n = 5 and tree sweeps at n = 6 no matter how large n_max is;
    formula-vs-formula and identity checks use the full requested range.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rep = ValidationReport(n_max, k_max)
    oracle_n = min(n_max, ORACLE_MAX_N)
    tree_n = min(n_max, 6)

    def check(name: str, make) -> None:
        # make() -> (lhs, rhs); a side blowing up is itself a failure
        try:
            lhs, rhs = make()
        except (ArithmeticError, ValueError) as exc:
            lhs, rhs = f"error: {exc}", "unavailable"
        rep.add(name, lhs, rhs)

    # sides needed by more than one check, computed once and inside the trap
    # (a side that raises is not cached, so each check records the error)
    brute = functools.cache(brute_count_separating)
    profile = functools.cache(brute_minimal_size_profile)
    min_ground = functools.cache(_brute_min_ground)
    trees = functools.cache(lambda n: tuple(tree.spanning_trees(n)))
    families = functools.cache(lambda n: tuple(tree.minimal_max_families(n)))

    forms = (
        ("arbitrary-count", counting.count_separating, False),
        ("proper-count", counting.count_separating, True),
        ("arbitrary-dual", counting.count_separating_dual, False),
        ("proper-dual", counting.count_separating_dual, True),
    )
    for n in range(2, oracle_n + 1):
        for k in range(1, min(k_max, bipartition_count(n)) + 1):
            for label, form, proper in forms:
                check(f"{label}-vs-oracle n={n} k={k}", lambda: (form(n, k, proper), brute(n, k, proper)))

    modes = (("arbitrary", False), ("proper", True))
    for n in range(2, n_max + 1):
        pool = bipartition_count(n)
        # the family-side sum against the ground-side sum, whatever the shape
        for label, proper in modes:
            for k in range(1, min(k_max, bipartition_count(n, proper)) + 1):
                check(
                    f"closed-forms-agree-{label} n={n} k={k}",
                    lambda: (
                        counting._count_family_side(n, k, proper),
                        counting.count_separating_dual(n, k, proper),
                    ),
                )
        for k in range(1, min(k_max, pool) + 1):
            check(f"matrix-count-identity n={n} k={k}", lambda: counting.check_matrix_count_identity(n, k))
        for k in range(2, min(k_max, pool) + 1):
            check(f"trivial-split n={n} k={k}", lambda: counting.check_trivial_split(n, k))
            check(f"transpose-symmetry n={n} k={k}", lambda: counting.check_transpose_symmetry(n, k))

    for k in range(0, k_max + 1):
        for i in range(0, k + 1):
            check(f"stirling-first-sum k={k} i={i}", lambda: counting.check_stirling_first_sum(k, i))

    for n in range(2, tree_n + 1):
        codes = itertools.product(range(1, n + 1), repeat=n - 2)  # the order trees come in
        check(
            f"prufer-roundtrip n={n}",
            lambda: (
                sum(tree.prufer_encode(t) == c for t, c in zip(trees(n), codes, strict=True)),
                len(trees(n)),
            ),
        )
        check(
            f"tree-roundtrip n={n}",
            lambda: (
                sum(tree.unique_cut_graph(f) == t for t, f in zip(trees(n), families(n), strict=True)),
                len(trees(n)),
            ),
        )
        check(
            f"edge-cut-minimal n={n}",
            lambda: (
                sum(len(f) == n - 1 and f.is_minimal_separating() for f in families(n)),
                len(families(n)),
            ),
        )
        check(f"cayley-count n={n}", lambda: (len(set(families(n))), n ** (n - 2)))

    for n in range(2, oracle_n + 1):
        check(
            f"enumeration-matches-oracle n={n}",
            lambda: (len(set(families(n)) ^ set(brute_minimal_max_families(n))), 0),
        )
        check(
            f"minimal-size-support n={n}",
            lambda: ([s for s in profile(n) if not counting.min_separating_size(n) <= s <= n - 1], []),
        )
        check(
            f"min-size-count n={n}",
            lambda: (
                counting.count_min_size_families(n),
                profile(n).get(counting.min_separating_size(n), 0),
            ),
        )

    # every size whose smallest ground set the oracle reaches
    for k in range(1, min(k_max, bipartition_count(ORACLE_MAX_N)) + 1):
        for label, proper in modes:
            if k > bipartition_count(ORACLE_MAX_N, proper):
                continue
            check(
                f"min-ground-size-{label} k={k}",
                lambda: (counting.min_ground_size(k, proper), min_ground(k, proper)[0]),
            )
            check(
                f"min-ground-count-{label} k={k}",
                lambda: (counting.count_min_ground_families(k, proper), min_ground(k, proper)[1]),
            )

    return rep
