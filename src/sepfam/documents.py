"""Text and JSON forms of families, trees, and codes used at the tool boundary.

Family document (JSON object):
    {"n": 4, "bipartitions": [[[1, 2], [3, 4]], [[1, 3], [2, 4]]]}
each bipartition being its list of one or two blocks. Compact one-line form
joins blocks with "|" and bipartitions with ";": "1,2|3,4;1,3|2,4".
Edge lists read "1-2,2-3,3-4" and codes "2,3".

External labels may be arbitrary distinct positive integers; parsing
normalizes them to 1..n in increasing order and reports the mapping.
Repeated bipartitions are dropped silently (families are sets).

Both forms are read by one validator, on masks. The first member's labels
give the universe, and one dict maps each label to its bit, keyed for
compact text by the token string; a token spelled another way (`03`, `+3`,
` 3`) is read with int() on a miss. Each member's block masks then go to
`core.block_coblock`, the one rule for blocks that `Bipartition.from_blocks`
also uses. A fault is named for the first member that has one. Writing
picks, for each block, the label strings of the set bits of its coblock
mask.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator

from .core import BipartitionFamily, block_coblock, select_set_bits
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
    for co in f.coblocks:
        first = ",".join(select_set_bits(labels, full ^ co))
        if co:
            first += "|" + ",".join(select_set_bits(labels, co))
        parts.append(first)
    return ";".join(parts)


def _member_fault(bp: list, label) -> str:
    """What is wrong with a member that failed the arithmetic check, in the
    order the checks are made: each token reads as an integer (label raises
    otherwise), one or two blocks, positive labels, no label twice, and
    last, a label set other than the first member's.
    """
    labels = [label(tok) for block in bp for tok in block]
    if not 1 <= len(bp) <= 2:
        return "each bipartition must be a list of one or two blocks"
    for x in labels:
        if x < 1:
            return f"labels must be positive integers, got {x}"
    if len(set(labels)) != len(labels):
        return "blocks overlap or repeat an element"
    return "bipartitions cover different element sets"


def _family_from_members(members: Iterator[list], n: int | None, label) -> ParsedFamily:
    """The one validator of both forms.

    members yields each member as a list of blocks, each a list of tokens,
    and label(tok) reads a token as an int or raises. The first member's
    labels give the universe, and one dict maps each label, as an int and
    as the first member's token, to its bit. Every member's block masks are
    then checked by block_coblock, which also picks its coblock.
    """
    first = next(members, None)
    if first is None:
        if n is None:
            raise ValueError('an empty family needs an explicit "n"')
        return ParsedFamily(BipartitionFamily(n), {})
    tokens = [tok for block in first for tok in block]
    try:
        labels = list(map(int, tokens))
    except ValueError:  # read them again by label, which names the bad one
        labels = list(map(label, tokens))
    universe = sorted(labels)
    bit = {lab: 1 << pos for pos, lab in enumerate(universe)}
    if len(bit) != len(labels) or universe[0] < 1:
        raise ValueError(_member_fault(first, label))
    bit.update(zip(tokens, map(bit.__getitem__, labels)))
    m = len(universe)
    get = bit.__getitem__
    coblocks = []
    for bp in itertools.chain((first,), members):
        try:
            masks = [sum(map(get, block)) for block in bp]
        except KeyError:
            # a token the dict lacks is read by label; a label of the universe
            # is keyed under this spelling too, any other is a fault
            spelled = {tok: bit.get(label(tok)) for tok in itertools.chain(*bp) if tok not in bit}
            if None in spelled.values():
                raise ValueError(_member_fault(bp, label)) from None
            bit.update(spelled)
            masks = [sum(map(get, block)) for block in bp]
        co = block_coblock(m, masks, sum(map(len, bp)))
        if co is None:
            raise ValueError(_member_fault(bp, label))
        coblocks.append(co)
    if n is not None and n != m:
        raise ValueError(f"n={n} but {m} distinct labels are present")
    identity = universe[-1] == m  # m distinct positive labels, the largest m
    label_map = {} if identity else {lab: pos for pos, lab in enumerate(universe, start=1)}
    return ParsedFamily(BipartitionFamily._of(m, coblocks), label_map)


def _doc_member(bp: object) -> list:
    """A JSON member, once it is known to be one or two nonempty lists of
    positive ints (not bools): JSON values are typed, and True or 1.0 would
    find label 1's key, so this is checked before any lookup.
    """
    if not isinstance(bp, list) or not 1 <= len(bp) <= 2:
        raise ValueError("each bipartition must be a list of one or two blocks")
    for block in bp:
        if not isinstance(block, list) or not block:
            raise ValueError("each block must be a nonempty list")
        if set(map(type, block)) == {int} and min(block) >= 1:
            continue
        # slow path: name the first bad label; int subclasses other than bool pass
        for x in block:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"labels must be positive integers, got {x!r}")
    return bp


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
    return _family_from_members(map(_doc_member, biparts), n, int)


def _compact_member(part: str) -> list[list[str]]:
    if not part or part.isspace():
        raise ValueError("empty bipartition entry")
    return [chunk.split(",") for chunk in part.split("|")]


def _compact_label(tok: str) -> int:
    """Read one compact token, naming it when it is not an integer.

    int() ignores the whitespace around a token except the separators
    \\x1c-\\x1f, which str.strip() removes.
    """
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad label {tok!r}") from None


def family_from_compact(text: str) -> ParsedFamily:
    """Parse the compact one-line form."""
    body = text.strip()
    if not body:
        raise ValueError("empty family text")
    return _family_from_members(map(_compact_member, body.split(";")), None, _compact_label)


def family_from_text(text: str) -> ParsedFamily:
    """Accept either a JSON document or the compact one-line form."""
    body = text.strip()
    if body.startswith("{"):
        return family_from_doc(json.loads(body))
    return family_from_compact(body)


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
