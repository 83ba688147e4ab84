"""Parsing and serializing families, trees, and codes."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers

from sepfam import Bipartition, BipartitionFamily, LabeledGraph
from sepfam.documents import (
    code_to_text,
    edges_to_text,
    family_from_compact,
    family_from_doc,
    family_from_text,
    family_to_compact,
    family_to_doc,
    graph_from_edge_text,
)

# fixed examples keep the suite deterministic; deadline off for slow hosts
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_doc_roundtrip(ex):
    doc = family_to_doc(ex.fq)
    assert doc["n"] == 4
    assert [[1, 2, 3], [4]] in doc["bipartitions"]
    parsed = family_from_doc(doc)
    assert parsed.family == ex.fq
    assert not parsed.relabeled


def test_compact_roundtrip(ex):
    text = family_to_compact(ex.fq)
    assert text == "1,2,3|4;1,2|3,4;1|2,3,4"
    assert family_from_compact(text).family == ex.fq


def test_doc_lists_blocks_element_1_first(ex):
    assert family_to_doc(BipartitionFamily(4, (ex.q3,)))["bipartitions"] == [[[1, 2, 3], [4]]]
    assert family_to_doc(BipartitionFamily(3, (Bipartition(3),))) == {
        "n": 3, "bipartitions": [[[1, 2, 3]]]
    }


def test_family_from_text_detects_format(ex):
    as_json = json.dumps(family_to_doc(ex.fp))
    assert family_from_text(as_json).family == ex.fp
    assert family_from_text(family_to_compact(ex.fp)).family == ex.fp


def test_label_normalization():
    parsed = family_from_compact("3|7,10;3,7|10")
    assert parsed.relabeled
    assert parsed.label_map == {3: 1, 7: 2, 10: 3}
    want = BipartitionFamily(
        3,
        (
            Bipartition.from_blocks(3, [[1], [2, 3]]),
            Bipartition.from_blocks(3, [[1, 2], [3]]),
        ),
    )
    assert parsed.family == want


def test_duplicates_dropped_silently():
    parsed = family_from_compact("1,2|3,4;1,2|3,4")
    assert len(parsed.family) == 1


def test_trivial_bipartition_in_documents():
    parsed = family_from_doc({"bipartitions": [[[2, 1, 3]]]})
    assert parsed.family == BipartitionFamily(3, (Bipartition(3),))


def test_empty_family_needs_n():
    assert family_from_doc({"n": 3, "bipartitions": []}).family == BipartitionFamily(3)
    with pytest.raises(ValueError, match='an empty family needs an explicit "n"'):
        family_from_doc({"bipartitions": []})


DOC_REJECTS = [
    ([], "family document must be a JSON object"),
    ({"bipartitions": 3}, 'family document needs a "bipartitions" list'),
    ({"n": 0, "bipartitions": []}, '"n" must be a positive integer, got 0'),
    ({"n": True, "bipartitions": []}, '"n" must be a positive integer, got True'),
    ({"bipartitions": [[[1], [1, 2]]]}, "blocks overlap or repeat an element"),
    ({"bipartitions": [[[1, 2], [2, 3]]]}, "blocks overlap or repeat an element"),
    ({"bipartitions": [[[1], [2]], [[1, 1, 1]]]}, "blocks overlap or repeat an element"),
    ({"bipartitions": [[[1, 2], [3]], [[1, 2], [4]]]}, "bipartitions cover different element sets"),
    ({"n": 4, "bipartitions": [[[1], [2, 3]]]}, "n=4 but 3 distinct labels are present"),
    ({"bipartitions": [[[0], [1]]]}, "labels must be positive integers, got 0"),
    ({"bipartitions": [[["a"], [1]]]}, "labels must be positive integers, got 'a'"),
    ({"bipartitions": [[[1], [2], [3]]]}, "each bipartition must be a list of one or two blocks"),
    ({"bipartitions": [[]]}, "each bipartition must be a list of one or two blocks"),
    ({"bipartitions": [[[1, True], [2]]]}, "labels must be positive integers, got True"),
]


@pytest.mark.parametrize(
    "doc, message", DOC_REJECTS, ids=[f"doc{i}" for i in range(len(DOC_REJECTS))]
)
def test_doc_rejects(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        family_from_doc(doc)


COMPACT_REJECTS = [
    ("", "empty family text"),
    (" ; ", "empty bipartition entry"),
    ("1,2|", "bad label ''"),
    ("1,x|2", "bad label 'x'"),
    ("1|2|3", "each bipartition must be a list of one or two blocks"),
    ("0|1", "labels must be positive integers, got 0"),
    ("1,1|2", "blocks overlap or repeat an element"),
    ("1,2|2,3", "blocks overlap or repeat an element"),
    ("1|2;1|3", "bipartitions cover different element sets"),
    ("1|2,3;1|2", "bipartitions cover different element sets"),
    # a later member with as many labels as the first, one of them repeated
    # or foreign, and with a fault of the member's own next to a foreign label
    ("1|2,3;1,1|2", "blocks overlap or repeat an element"),
    ("1|2;1,1,1", "blocks overlap or repeat an element"),  # 1 + 1 + 1 is the full mask 3
    ("1|2,3;1,2|4", "bipartitions cover different element sets"),
    ("1|2;1|2|3", "each bipartition must be a list of one or two blocks"),
    ("1|2;1,x|3", "bad label 'x'"),
]


@pytest.mark.parametrize("text, message", COMPACT_REJECTS, ids=[t for t, _ in COMPACT_REJECTS])
def test_compact_rejects(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        family_from_compact(text)


@pytest.mark.parametrize("spelling", ["03", "+3", "3 ", " 3", "3\x1c"])
def test_compact_reads_noncanonical_labels(spelling):
    want = family_from_compact("3|7,10;3,7|10")
    for text in (f"{spelling}|7,10;3,7|10", f"3|7,10;{spelling},7|10"):
        parsed = family_from_compact(text)
        assert (parsed.family, parsed.label_map) == (want.family, want.label_map)
    parsed = family_from_compact(f"1|2,{spelling};1,2|{spelling}")
    assert parsed.family == family_from_compact("1|2,3;1,2|3").family
    assert parsed.label_map == {}


@st.composite
def compact_texts(draw, max_n=64):
    """Compact text of a random family: labels relabeled or not, whitespace
    around tokens, blocks in either order, repeated and one-block members."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        labels = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True)))
    else:
        labels = list(range(1, n + 1))
    coblocks = draw(st.lists(st.integers(0, (1 << (n - 1)) - 1), min_size=1, max_size=8))
    if draw(st.booleans()):
        coblocks.append(0)  # the one-block member
    if draw(st.booleans()):
        coblocks.append(draw(st.sampled_from(coblocks)))  # a repeated member
    coblocks = draw(st.permutations(coblocks))
    # int() keeps \x1c around a token where str.strip() removes it
    pad = st.sampled_from(["", " ", "\t", "\n"] + (["\x1c"] if draw(st.booleans()) else []))
    parts = []
    for c in coblocks:
        co = [lab for i, lab in enumerate(labels[1:]) if c >> i & 1]
        rest = [lab for lab in labels if lab not in co]
        blocks = [b for b in (rest, co) if b]
        if draw(st.booleans()):
            blocks.reverse()
        parts.append("|".join(",".join(f"{draw(pad)}{lab}{draw(pad)}" for lab in b) for b in blocks))
    return ";".join(parts)


@PROPERTY
@given(compact_texts())
@example("1")
@example("3|7,10;3,7|10;3,7,10;10|7 , 3")
def test_compact_roundtrip_matches_naive(text):
    want_family, want_map = helpers.naive_from_compact(text)
    parsed = family_from_compact(text)
    assert {helpers.to_naive(b) for b in parsed.family} == want_family
    assert parsed.label_map == want_map
    out = family_to_compact(parsed.family)
    assert out == helpers.naive_compact(want_family)
    again = family_from_compact(out)
    assert again.family == parsed.family
    assert again.label_map == {}


@st.composite
def block_lists(draw, max_n=12):
    """Blocks over labels 1..n: the labels shuffled and cut into up to three
    blocks, empty ones kept or not, then maybe a label dropped, one moved
    into a second block as well, or one repeated in its own block."""
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    if not draw(st.booleans()):
        blocks = [b for b in blocks if b]
    full = [b for b in blocks if b]
    fault = draw(st.sampled_from(["none", "missing", "overlap", "repeat"]))
    if fault != "none" and full:
        block = draw(st.sampled_from(full))
        x = draw(st.sampled_from(block))
        if fault == "missing":
            block.remove(x)
        else:
            draw(st.sampled_from(full if fault == "overlap" else [block])).append(x)
    return n, blocks


@PROPERTY
@given(block_lists())
@example((4, [[3, 4], [1, 2]]))
@example((3, [[2, 1, 3]]))
@example((4, [[1, 2], [3]]))  # missing
@example((4, [[1, 2, 3], [3, 4]]))  # overlap
@example((3, [[1, 2], [3, 3]]))  # repeat
@example((3, [[1, 2], [], [3]]))  # empty block
@example((4, [[1], [2], [3, 4]]))  # three blocks
def test_from_blocks_accepts_what_the_doc_reader_accepts(case):
    n, blocks = case
    try:
        want = Bipartition.from_blocks(n, blocks)
    except ValueError:
        want = None
    try:
        parsed = family_from_doc({"n": n, "bipartitions": [blocks]})
    except ValueError:
        got = None
    else:
        assert parsed.label_map == {}
        (got,) = parsed.family
    assert got == want


def test_edge_text_roundtrip():
    g = LabeledGraph.from_edges(4, [(3, 4), (1, 2), (2, 3)])
    assert edges_to_text(g) == "1-2,2-3,3-4"
    assert graph_from_edge_text("1-2, 2-3 ,3-4") == g


def test_edge_text_infers_n():
    assert graph_from_edge_text("1-5").n == 5


@pytest.mark.parametrize("text", ["", "1-1", "1-2,2-1", "1-2,1-2", "a-2", "0-1", "1_2"])
def test_edge_text_rejects(text):
    with pytest.raises(ValueError):
        graph_from_edge_text(text)


def test_code_text():
    assert code_to_text((2, 3)) == "2,3"
    assert code_to_text(()) == ""
