"""Text and JSON forms of families, trees, and codes used at the tool boundary.

Family document (JSON object):
    {"n": 4, "bipartitions": [[[1, 2], [3, 4]], [[1, 3], [2, 4]]]}
each bipartition being its list of one or two blocks. Compact one-line form
joins blocks with "|" and bipartitions with ";": "1,2|3,4;1,3|2,4".
Edge lists read "1-2,2-3,3-4" and codes "2,3".

External labels may be arbitrary distinct positive integers; parsing
normalizes them to 1..n in increasing order and reports the mapping.
Repeated bipartitions are dropped silently (families are sets).

Compact text is read and written from coblock mask bits: parsing maps each
label to its bit through one dict and builds each member from its coblock
mask, and writing picks, for each block, the label strings of the set bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Bipartition, BipartitionFamily, select_set_bits
from .tree import LabeledGraph


@dataclass(frozen=True)
class ParsedFamily:
    """A parsed family plus the label normalization that produced it."""

    family: BipartitionFamily
    label_map: dict[int, int]  # original -> canonical; empty when no relabeling happened

    @property
    def relabeled(self) -> bool:
        return bool(self.label_map)


def family_to_doc(f: BipartitionFamily) -> dict:
    return {"n": f.n, "bipartitions": [[list(block) for block in b.blocks()] for b in f]}


def family_to_compact(f: BipartitionFamily) -> str:
    labels = [str(i) for i in range(1, f.n + 1)]
    full = (1 << f.n) - 1
    parts = []
    for b in f:
        first = ",".join(select_set_bits(labels, full ^ b.coblock))
        if b.coblock:
            first += "|" + ",".join(select_set_bits(labels, b.coblock))
        parts.append(first)
    return ";".join(parts)


def _check_block(block: object) -> None:
    """Raise unless block is a nonempty list of positive ints (not bools)."""
    if not isinstance(block, list) or not block:
        raise ValueError("each block must be a nonempty list")
    if set(map(type, block)) == {int} and min(block) >= 1:
        return
    # slow path: name the first bad label; int subclasses other than bool pass
    for x in block:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"labels must be positive integers, got {x!r}")


def _family_from_blocklists(biparts: list, n: int | None) -> ParsedFamily:
    universe: list[int]
    if biparts:
        seen_universes = set()
        for bp in biparts:
            if not isinstance(bp, list) or not 1 <= len(bp) <= 2:
                raise ValueError("each bipartition must be a list of one or two blocks")
            for block in bp:
                _check_block(block)
            flat = set(bp[0]).union(*bp[1:])
            if len(flat) != sum(map(len, bp)):
                raise ValueError("blocks overlap or repeat an element")
            seen_universes.add(frozenset(flat))
        if len(seen_universes) != 1:
            raise ValueError("bipartitions cover different element sets")
        universe = sorted(next(iter(seen_universes)))
    else:
        if n is None:
            raise ValueError('an empty family needs an explicit "n"')
        universe = list(range(1, n + 1))
    if n is not None and n != len(universe):
        raise ValueError(f"n={n} but {len(universe)} distinct labels are present")
    m = len(universe)
    bit = {lab: 1 << pos for pos, lab in enumerate(universe)}
    # each bp already partitions the universe, so its coblock is the block
    # without the smallest label, and Bipartition.from_blocks has nothing to add
    lowest = universe[0]
    members = tuple(
        Bipartition(m, 0 if len(bp) == 1 else sum(map(bit.__getitem__, bp[lowest in bp[0]])))
        for bp in biparts
    )
    identity = universe[-1] == m  # m distinct positive labels, the largest m
    label_map = {} if identity else {lab: pos for pos, lab in enumerate(universe, start=1)}
    return ParsedFamily(BipartitionFamily(m, members), label_map)


def family_from_doc(obj: object) -> ParsedFamily:
    """Parse the JSON-object form."""
    if not isinstance(obj, dict):
        raise ValueError("family document must be a JSON object")
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    biparts = obj.get("bipartitions")
    if not isinstance(biparts, list):
        raise ValueError('family document needs a "bipartitions" list')
    return _family_from_blocklists(biparts, n)


def family_from_compact(text: str, n: int | None = None) -> ParsedFamily:
    """Parse the compact one-line form."""
    body = text.strip()
    if not body:
        raise ValueError("empty family text")
    biparts = []
    for part in body.split(";"):
        if not part or part.isspace():
            raise ValueError("empty bipartition entry")
        blocks = []
        for chunk in part.split("|"):
            try:
                blocks.append(list(map(int, chunk.split(","))))
            except ValueError:
                blocks.append(_labels_by_token(chunk))
        biparts.append(blocks)
    return _family_from_blocklists(biparts, n)


def _labels_by_token(chunk: str) -> list[int]:
    """Parse one block token by token, naming the first bad label.

    Blocks that int() refused as a whole come here: int() ignores the
    whitespace around a token except the separators \\x1c-\\x1f, which
    str.strip() removes.
    """
    items = []
    for tok in chunk.split(","):
        tok = tok.strip()
        try:
            items.append(int(tok))
        except ValueError:
            raise ValueError(f"bad label {tok!r}") from None
    return items


def family_from_text(text: str, n: int | None = None) -> ParsedFamily:
    """Accept either a JSON document or the compact one-line form."""
    body = text.strip()
    if body.startswith("{"):
        return family_from_doc(json.loads(body))
    return family_from_compact(body, n)


def edges_to_text(g: LabeledGraph) -> str:
    return ",".join(f"{i}-{j}" for i, j in g.sorted_edges())


def graph_from_edge_text(text: str) -> LabeledGraph:
    """Parse "i-j,i-j,..." into a graph on {1..max label}."""
    body = text.strip()
    if not body:
        raise ValueError("empty edge list")
    pairs = []
    for tok in body.split(","):
        tok = tok.strip()
        a, sep, b = tok.partition("-")
        if not sep:
            raise ValueError(f"bad edge token {tok!r}; expected i-j")
        try:
            i, j = int(a), int(b)
        except ValueError:
            raise ValueError(f"bad edge token {tok!r}") from None
        if i < 1 or j < 1:
            raise ValueError("vertex labels are 1-based")
        pairs.append((i, j))
    n = max(max(i, j) for i, j in pairs)
    return LabeledGraph.from_edges(n, pairs)


def code_to_text(seq: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in seq)
