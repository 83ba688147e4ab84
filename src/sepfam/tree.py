"""Spanning trees and their correspondence with minimal separating families.

A minimal separating family of the maximum size n-1 determines a spanning
tree on {1..n} (edge {i,j} when exactly one member cuts i and j) and every
spanning tree arises from exactly one such family (one bipartition per
edge: the two components left when the edge is removed). Trees are
enumerated through their length-(n-2) codes.

Both directions are linear in the input: the unique-cut graph is read off
the characteristic-matrix rows in O(n*k) (rows one bit apart, found by one
pass over the distinct rows per column), and every edge cut comes from one
rule over a leaf-stripping order (`_cut_coblocks`). `minimal_max_families`
feeds it each code's own order (`_strip`, the heap loop behind
`prufer_decode` too, which checks its code first; enumerated codes are valid
by construction) and hands the masks to the family as they are, so it builds
no graph, BFS or member per code; `edge_cut_family` feeds it the BFS that
checks its input, read backwards.

A tree is a `LabeledGraph` whose n-1 edges reach every vertex, tested by
one BFS from vertex 1; `prufer_decode` builds one by construction, unchecked.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import BipartitionFamily, CapacityError

# `enumerate minimal-max-families` measured on 3.11 (2 cores, output hashed): n = 8 (262 144
# families) in 7.2 and 8.7 s, n = 9 (4 782 969) in 187 s (one run); 16 MB peak RSS, streamed
TREE_ENUM_MAX_N = 9


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph on vertices {1..n}; edges held as (i, j) pairs with i < j."""

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"edge {e!r} must be a vertex pair")
            i, j = e
            if not 1 <= i < j <= self.n:
                raise ValueError(f"edge {e} must satisfy 1 <= i < j <= {self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> LabeledGraph:
        """Normalize endpoint order; rejects self-loops and repeated edges."""
        norm = []
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            norm.append((min(i, j), max(i, j)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        return cls(n, frozenset(norm))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _tree_bfs(g: LabeledGraph) -> tuple[list[int], dict[int, int], dict[int, set[int]]] | None:
    """BFS from vertex 1: the vertices in visiting order, each one's parent
    (0 for vertex 1) and the adjacency it walked, or None unless g has n-1
    edges that reach all n vertices.
    """
    if len(g.edges) != g.n - 1:
        return None
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    parent = {1: 0}
    order = [1]
    for x in order:  # grows while it is read: a BFS
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    return (order, parent, adj) if len(order) == g.n else None


def is_spanning_tree(g: LabeledGraph) -> bool:
    """Connected with exactly n-1 edges (which forces acyclicity)."""
    return _tree_bfs(g) is not None


def unique_cut_graph(f: BipartitionFamily) -> LabeledGraph:
    """Edge {i, j} appears when exactly one family member cuts i and j.

    Those are the pairs whose characteristic-matrix rows differ in exactly
    one bit: for each column, one pass over the distinct rows with that bit
    clear looks up the row with it set.
    """
    holders: dict[int, list[int]] = {}
    for i, r in enumerate(f.rows(), 1):
        holders.setdefault(r, []).append(i)
    edges = []
    for bit in (1 << j for j in range(len(f))):
        edges += [
            (min(i, e), max(i, e))
            for r in holders
            if not r & bit and (r | bit) in holders
            for i in holders[r]
            for e in holders[r | bit]
        ]
    return LabeledGraph(f.n, frozenset(edges))


def _cut_coblocks(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Edge coblocks from (x, s) pairs that strip each x as a leaf next to s:
    the side of x is x plus everything stripped into it before, and the
    coblock is that side, complemented when it holds element 1.
    """
    side = [0, *map((1).__lshift__, range(n))]  # v's own bit, to start
    full = (1 << n) - 1
    out = []
    for x, s in pairs:
        c = side[x]
        side[s] |= c
        out.append(full ^ c if c & 1 else c)
    return out


def edge_cut_family(g: LabeledGraph) -> BipartitionFamily:
    """One bipartition per edge: the two components left when it is removed.

    Input must be a spanning tree on n >= 2 vertices; this inverts
    unique_cut_graph on maximum-size minimal separating families. The BFS
    that checks the input, read backwards, strips each vertex v next to its
    parent, and the side of edge (parent, v) is the subtree of v.
    """
    if g.n < 2:
        raise ValueError("edge-cut family needs n >= 2")
    bfs = _tree_bfs(g)
    if bfs is None:
        raise ValueError("input is not a spanning tree")
    order, parent, _ = bfs
    rev = order[:0:-1]
    coblocks = _cut_coblocks(g.n, zip(rev, map(parent.__getitem__, rev)))
    return BipartitionFamily._of(g.n, coblocks)


def prufer_encode(t: LabeledGraph) -> tuple[int, ...]:
    """Length n-2 code: repeatedly strip the smallest leaf, record its neighbor."""
    if t.n < 2:
        raise ValueError("codes are defined for n >= 2")
    bfs = _tree_bfs(t)
    if bfs is None:
        raise ValueError("input is not a spanning tree")
    adj = bfs[2]  # a fresh dict, so the leaf stripping may consume it
    leaves = [v for v in range(1, t.n + 1) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(t.n - 2):
        x = heapq.heappop(leaves)
        (y,) = adj[x]
        seq.append(y)
        adj[y].remove(x)
        adj[x].clear()
        if len(adj[y]) == 1:
            heapq.heappush(leaves, y)
    return tuple(seq)


def _strip(n: int, code: Sequence[int]) -> list[tuple[int, int]]:
    """Strip the tree of a valid code (n-2 entries in {1..n}, n >= 2): the
    (leaf, neighbor) pair of each smallest leaf in turn, then the final edge.
    """
    deg = [1] * (n + 1)
    for s in code:
        deg[s] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    pairs = []
    for s in code:
        pairs.append((heapq.heappop(leaves), s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    pairs.append((leaves[0], leaves[1]))  # the last two leaves; a heap of two is sorted
    return pairs


def prufer_decode(n: int, seq: Sequence[int]) -> LabeledGraph:
    """Rebuild the unique tree with code seq (length must be n-2)."""
    if n < 2:
        raise ValueError("codes are defined for n >= 2")
    code = tuple(seq)
    if len(code) != n - 2:
        raise ValueError(f"code length {len(code)} != n-2 = {n - 2}")
    if set(map(type, code)) != {int}:
        # slow path: name the first entry that is no int; int subclasses other than bool pass
        for s in code:
            if not isinstance(s, int) or isinstance(s, bool):
                raise ValueError(f"code entry {s!r} is not an integer")
    for s in code:
        if not 1 <= s <= n:
            raise ValueError(f"code entry {s} outside {{1..{n}}}")
    return LabeledGraph(n, frozenset([(x, s) if x < s else (s, x) for x, s in _strip(n, code)]))


def _check_enum_cap(n: int) -> None:
    if n < 2:
        raise ValueError(f"enumeration needs n >= 2, got {n}")
    if n > TREE_ENUM_MAX_N:
        raise CapacityError(f"tree enumeration is capped at n <= {TREE_ENUM_MAX_N} (got n={n})")


def spanning_trees(n: int) -> Iterator[LabeledGraph]:
    """All n^(n-2) labeled spanning trees, in lexicographic code order."""
    _check_enum_cap(n)
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(n, seq)


def minimal_max_families(n: int) -> Iterator[BipartitionFamily]:
    """All minimal separating families of the maximum size n-1, in code order."""
    _check_enum_cap(n)
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield BipartitionFamily._of(n, _cut_coblocks(n, _strip(n, seq)))
