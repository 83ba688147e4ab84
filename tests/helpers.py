"""Definition-level reference implementations used to check the library.

Everything here works on frozensets of frozensets with no bitmasks and no
code shared with the package, so agreement between the two is meaningful.
Minimality is checked against the raw definition (no proper subfamily
separates), not the single-removal shortcut the library uses. The counting
references are the two closed-form sums written with math.comb, over
Stirling rows from the plain recurrence, where the library takes falling
factorials.
"""

import itertools
import math
from functools import cache


def to_naive(b):
    """Library bipartition -> frozenset of its blocks."""
    return frozenset(frozenset(block) for block in b.blocks())


def naive_all_bipartitions(n, proper_only=False):
    base = frozenset(range(1, n + 1))
    out = [] if proper_only else [frozenset([base])]
    rest = sorted(base - {1})
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            a = frozenset({1, *combo})
            b = base - a
            if b:
                out.append(frozenset([a, b]))
    return out


def _block_of(p, x):
    for block in p:
        if x in block:
            return block
    raise AssertionError(f"{x} not covered")


def naive_cuts(p, i, j):
    return _block_of(p, i) is not _block_of(p, j)


def naive_is_separating(fam, n):
    return all(
        any(naive_cuts(p, i, j) for p in fam)
        for i, j in itertools.combinations(range(1, n + 1), 2)
    )


def naive_is_minimal(fam, n):
    if not naive_is_separating(fam, n):
        return False
    members = list(fam)
    for r in range(len(members)):
        for sub in itertools.combinations(members, r):
            if naive_is_separating(list(sub), n):
                return False
    return True


def naive_unique_cut_edges(fam, n):
    """Pairs (i, j), i < j, cut by exactly one member of fam."""
    return {
        (i, j)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        if sum(1 for p in fam if naive_cuts(p, i, j)) == 1
    }


def naive_edge_cut_family(n, edges):
    """For each tree edge, the blocks left when it is removed (found by DFS)."""
    out = set()
    for removed in edges:
        rest = [e for e in edges if e != removed]
        side = {removed[0]}
        stack = [removed[0]]
        while stack:
            x = stack.pop()
            for a, b in rest:
                for u, v in ((a, b), (b, a)):
                    if u == x and v not in side:
                        side.add(v)
                        stack.append(v)
        out.add(frozenset([frozenset(side), frozenset(range(1, n + 1)) - side]))
    return out


def naive_from_compact(text):
    """A compact family text as a frozenset of members, each a frozenset of
    blocks, relabeled to 1..n in increasing label order, and the relabeling
    (empty when the labels are already 1..n)."""
    members = [
        [[int(tok.strip()) for tok in chunk.split(",")] for chunk in part.split("|")]
        for part in text.strip().split(";")
    ]
    universe = sorted({x for member in members for block in member for x in block})
    relabel = {lab: pos for pos, lab in enumerate(universe, start=1)}
    fam = frozenset(
        frozenset(frozenset(relabel[x] for x in block) for block in member) for member in members
    )
    return fam, ({} if all(a == b for a, b in relabel.items()) else relabel)


def naive_compact(fam):
    """Canonical compact text of a frozenset family over 1..n: the block with 1
    first, labels ascending, members in increasing coblock order (a coblock
    ranks by its elements read from the largest down)."""

    def coblock(member):
        return next((block for block in member if 1 not in block), frozenset())

    def text(member):
        blocks = sorted(member, key=lambda block: 1 not in block)
        return "|".join(",".join(str(x) for x in sorted(block)) for block in blocks)

    order = sorted(fam, key=lambda member: sorted(coblock(member), reverse=True))
    return ";".join(text(member) for member in order)


@cache
def naive_stirling1_row(r):
    """Unsigned Stirling numbers of the first kind c(r, 0..r), built up from
    row 0 by c(q, i) = (q-1) c(q-1, i) + c(q-1, i-1)."""
    row = [1]
    for q in range(1, r + 1):
        row = [0, *((q - 1) * a + b for a, b in zip(row[1:], row)), 1]
    return tuple(row)


def naive_family_sum(n, k, proper=False):
    """Separating k-families over {1..n} by the family-side sum with binomials:
    (n-1)! / k! times the sum over i of (-1)^(k-i) c(k, i) comb(2^i - 1, n - 1);
    proper reads c(k+1, i+1) for c(k, i)."""
    shift = int(proper)
    c = naive_stirling1_row(k + shift)
    acc = sum((-1) ** (k - i) * c[i + shift] * math.comb(2**i - 1, n - 1) for i in range(1, k + 1))
    q, r = divmod(math.factorial(n - 1) * acc, math.factorial(k))
    assert r == 0
    return q


def naive_ground_sum(n, k, proper=False):
    """The same count by the ground-side sum with binomials, no division:
    the sum over i < n of (-1)^(n-1-i) c(n, i+1) comb(2^i - proper, k)."""
    c = naive_stirling1_row(n)
    return sum((-1) ** (n - 1 - i) * c[i + 1] * math.comb(2**i - proper, k) for i in range(n))
