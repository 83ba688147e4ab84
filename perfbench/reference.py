"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports sepfam. A family is handled as its characteristic
matrix: row i is a k-bit integer whose bit j says whether member j cuts
element i away from element 1 (so row 1 is always 0). The paper's row lemma
then gives every verdict the `families` workload needs:

- the family separates exactly when its rows are distinct;
- a separating family is minimal exactly when masking any one column makes
  two rows equal.

Trees are handled through their Pruefer codes: decoding here, and the
edge-cut coblocks read off a rooting at vertex 1, give the exact text the
program must print for the tree and its family.
"""

from __future__ import annotations

import heapq
import math
import random

# Counts are compared by their residue modulo this Mersenne prime: the
# program's big integer is reduced, and the benchmark evaluates the closed
# form itself with every step taken modulo P.
P = (1 << 61) - 1


def is_separating(rows: list[int]) -> bool:
    return len(set(rows)) == len(rows)


def is_minimal(rows: list[int], k: int) -> bool:
    if not is_separating(rows):
        return False
    n = len(rows)
    return all(len({r & ~(1 << j) for r in rows}) < n for j in range(k))


def check_line(rows: list[int], k: int) -> tuple[str, int]:
    """The stdout line and exit code `sepfam check --minimal` must give."""
    sep = is_separating(rows)
    mini = sep and is_minimal(rows, k)
    line = f"separating: {'yes' if sep else 'no'}, minimal: {'yes' if mini else 'no'}\n"
    return line, 0 if mini else 1


def random_rows(rng: random.Random, n: int, k: int) -> list[int]:
    """n distinct k-bit rows with row 1 zero and pairwise-distinct columns.

    Distinct columns keep the family at exactly k members, so the text the
    program parses has no repeats for it to drop.
    """
    while True:
        rows = [0] + rng.sample(range(1, 1 << k), n - 1)
        if len(set(columns(rows, k))) == k:
            return rows


def columns(rows: list[int], k: int) -> list[int]:
    """Coblock mask of each member: bit i-1 set when member j cuts 1 from i."""
    return [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(k)]


def member_text(labels: list[str], coblock: int, rng: random.Random | None = None) -> str:
    """One member of a family over len(labels) elements, in compact form;
    with rng, the two blocks come in random order."""
    bits = format(coblock, f"0{len(labels)}b")[::-1]
    first = ",".join(lab for lab, bit in zip(labels, bits) if bit == "0")
    co = ",".join(lab for lab, bit in zip(labels, bits) if bit == "1")
    if not co:
        return first
    blocks = [first, co]
    if rng is not None:
        rng.shuffle(blocks)
    return "|".join(blocks)


def family_text(n: int, coblocks: list[int], rng: random.Random | None = None) -> str:
    """Compact text of a family: canonical (sorted, element-1 block first) without rng."""
    labels = [str(i) for i in range(1, n + 1)]
    if rng is None:
        return ";".join(member_text(labels, c) for c in sorted(coblocks))
    order = list(coblocks)
    rng.shuffle(order)
    return ";".join(member_text(labels, c, rng) for c in order)


def prufer_decode(n: int, code: list[int]) -> list[tuple[int, int]]:
    """Edges (i < j) of the tree on {1..n} with this code."""
    deg = [1] * (n + 1)
    for s in code:
        deg[s] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in code:
        x = heapq.heappop(leaves)
        edges.append((min(x, s), max(x, s)))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def edges_text(edges: list[tuple[int, int]]) -> str:
    return ",".join(f"{i}-{j}" for i, j in sorted(edges))


def edge_cut_coblocks(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """For each edge, the mask of the side that does not hold vertex 1."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {1: 0}
    order = [1]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    below = {v: 1 << (v - 1) for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    # the edge to v's parent cuts off exactly v's subtree
    return [below[v] for v in order[1:]]


def _stirling1_row(m: int) -> list[int]:
    """Unsigned first-kind Stirling numbers c(m, 0..m) mod P: x(x+1)...(x+m-1)."""
    row = [1]
    for j in range(m):
        nxt = [0] * (len(row) + 1)
        for i, c in enumerate(row):
            nxt[i] = (nxt[i] + c * j) % P
            nxt[i + 1] = (nxt[i + 1] + c) % P
        row = nxt
    return row


def _falling(x: int, r: int) -> int:
    """x(x-1)...(x-r+1) mod P."""
    out = 1
    for j in range(r):
        out = out * (x - j) % P
    return out


def count_residue(n: int, k: int, proper: bool) -> int:
    """Separating k-families over {1..n} (k >= 2, no forced zero), mod P.

    Evaluated in whichever orientation has fewer terms: the sum over
    distinct row counts (k terms) or the transposed sum over the ground set
    (n-1 terms). Either way the k! divisor is a modular inverse.
    """
    acc = 0
    if k <= n:
        row = _stirling1_row(k + 1 if proper else k)
        for i in range(1, k + 1):
            term = row[i + 1 if proper else i] * _falling(pow(2, i, P) - 1, n - 1)
            acc += -term if (k - i) % 2 else term
    else:
        row = _stirling1_row(n)
        for i in range(1, n):
            term = row[i + 1] * _falling(pow(2, i, P) - (1 if proper else 0), k)
            acc += -term if (n - 1 - i) % 2 else term
    return acc % P * pow(math.factorial(k) % P, P - 2, P) % P


def residue_of_decimal(text: str) -> int:
    """A decimal string's value mod P, read in chunks below Python's digit limit."""
    digits = text.strip()
    if not digits.isdigit():
        raise ValueError(f"not a decimal count: {digits[:40]!r}")
    r = 0
    for s in range(0, len(digits), 4000):
        chunk = digits[s:s + 4000]
        r = (r * pow(10, len(chunk), P) + int(chunk)) % P
    return r
