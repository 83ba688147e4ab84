"""The spanning-tree correspondence and the tree codec."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfam import (
    Bipartition,
    BipartitionFamily,
    CapacityError,
    LabeledGraph,
    edge_cut_family,
    is_spanning_tree,
    minimal_max_families,
    prufer_decode,
    prufer_encode,
    spanning_trees,
    unique_cut_graph,
)
from sepfam.documents import code_to_text, edges_to_text, family_to_compact
from sepfam.tree import _cut_coblocks, _strip


def path4():
    return LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


def test_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph.from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        LabeledGraph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        LabeledGraph(0)
    g = LabeledGraph.from_edges(3, [(2, 1)])
    assert g.sorted_edges() == [(1, 2)]


def test_graph_equality():
    t = prufer_decode(4, (2, 3))
    g = LabeledGraph.from_edges(4, [(3, 4), (2, 1), (2, 3)])
    assert type(t) is LabeledGraph
    assert t == g and hash(t) == hash(g)
    assert t != LabeledGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
    assert LabeledGraph(3) != LabeledGraph(4)


def test_is_spanning_tree():
    assert is_spanning_tree(path4())
    assert is_spanning_tree(LabeledGraph(1))
    assert not is_spanning_tree(LabeledGraph.from_edges(4, [(1, 2), (2, 3)]))  # too few
    assert not is_spanning_tree(LabeledGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))  # cycle
    # right edge count but a cycle plus an isolated vertex
    assert not is_spanning_tree(LabeledGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)]))


def test_unique_cut_graph_fixtures(ex):
    assert unique_cut_graph(ex.fq) == LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    # the two crossing splits leave the 4-cycle 1-2-4-3-1
    assert unique_cut_graph(ex.fp) == LabeledGraph.from_edges(4, [(1, 2), (2, 4), (4, 3), (3, 1)])
    assert unique_cut_graph(BipartitionFamily(3)) == LabeledGraph(3)


def test_edge_cut_family_fixtures(ex):
    assert edge_cut_family(path4()) == ex.fq
    star = LabeledGraph.from_edges(3, [(1, 2), (1, 3)])
    want = BipartitionFamily(
        3,
        (Bipartition.from_blocks(3, [[1, 3], [2]]), Bipartition.from_blocks(3, [[1, 2], [3]])),
    )
    assert edge_cut_family(star) == want
    single = edge_cut_family(LabeledGraph.from_edges(2, [(1, 2)]))
    assert single == BipartitionFamily(2, (Bipartition.from_blocks(2, [[1], [2]]),))


def test_edge_cut_family_rejects():
    with pytest.raises(ValueError):
        edge_cut_family(LabeledGraph.from_edges(3, [(1, 2)]))
    with pytest.raises(ValueError):
        edge_cut_family(LabeledGraph(1))
    # n-1 edges with a cycle miss a vertex; n edges reach them all
    for edges in ([(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3), (3, 4), (1, 4)]):
        with pytest.raises(ValueError, match="not a spanning tree"):
            edge_cut_family(LabeledGraph.from_edges(4, edges))


def test_code_fixtures():
    assert prufer_encode(path4()) == (2, 3)
    assert prufer_decode(4, (2, 3)) == path4()
    assert prufer_encode(LabeledGraph.from_edges(2, [(1, 2)])) == ()
    assert prufer_decode(2, ()) == LabeledGraph.from_edges(2, [(1, 2)])


def test_code_validation():
    with pytest.raises(ValueError):
        prufer_decode(4, (2,))
    with pytest.raises(ValueError):
        prufer_decode(4, (0, 1))
    with pytest.raises(ValueError):
        prufer_decode(1, ())
    with pytest.raises(ValueError):
        prufer_encode(LabeledGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]))
    with pytest.raises(ValueError):  # n-1 edges, but a cycle and an isolated vertex
        prufer_encode(LabeledGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)]))


def test_code_entries_must_be_ints():
    # True is 1 and 2.0 equals 2, but neither is a vertex label
    with pytest.raises(ValueError, match="code entry True is not an integer"):
        prufer_decode(3, [True])
    with pytest.raises(ValueError, match=r"code entry 2\.0 is not an integer"):
        prufer_decode(4, [2.0, 3])

    class Label(int):
        pass

    t = prufer_decode(4, [Label(2), Label(3)])
    assert t == path4()
    assert edges_to_text(t) == "1-2,2-3,3-4" and code_to_text(prufer_encode(t)) == "2,3"


def test_codec_bijection_small_n():
    for n in range(2, 7):
        seen = set()
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            t = prufer_decode(n, seq)
            assert prufer_encode(t) == seq
            seen.add(t)
        assert len(seen) == n ** (n - 2)


def test_spanning_trees_enumeration():
    trees = list(spanning_trees(4))
    assert len(trees) == 16
    assert len(set(trees)) == 16
    assert all(is_spanning_tree(t) for t in trees)
    assert list(spanning_trees(2)) == [LabeledGraph.from_edges(2, [(1, 2)])]


def test_correspondence_roundtrip_all_trees():
    for n in range(2, 7):
        for t in spanning_trees(n):
            fam = edge_cut_family(t)
            assert len(fam) == n - 1
            assert unique_cut_graph(fam) == t


def test_edge_cut_families_are_minimal_separating():
    for n in range(2, 6):
        for t in spanning_trees(n):
            assert edge_cut_family(t).is_minimal_separating()


def test_minimal_max_families_counts():
    for n, want in [(2, 1), (3, 3), (4, 16), (5, 125)]:
        fams = list(minimal_max_families(n))
        assert len(fams) == want
        assert len(set(fams)) == want
    # the whole bijection's output for n = 2..7, one compact family a line
    digest = hashlib.sha256()
    for n in range(2, 8):
        for fam in minimal_max_families(n):
            digest.update((family_to_compact(fam) + "\n").encode())
    assert digest.hexdigest() == "46959d8ccd1977bc99b296b03fc1acf8222777e0915fa3cd22687344285b74f4"


def test_code_route_matches_bfs_route():
    # minimal_max_families strips each code; edge_cut_family walks a BFS of the decoded tree
    for n in range(2, 8):
        codes = itertools.product(range(1, n + 1), repeat=n - 2)
        assert list(minimal_max_families(n)) == [edge_cut_family(prufer_decode(n, c)) for c in codes]


@st.composite
def codes(draw):
    n = draw(st.integers(2, 40))
    return n, draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(codes())
def test_code_route_matches_bfs_route_on_random_codes(case):
    n, code = case
    pairs = _strip(n, code)
    assert len(pairs) == n - 1
    # sorted, not collapsed into a family, so a repeated coblock would show
    coblocks = sorted(_cut_coblocks(n, pairs))
    assert coblocks == [b.coblock for b in edge_cut_family(prufer_decode(n, code))]


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        next(spanning_trees(10))
    with pytest.raises(ValueError):
        next(minimal_max_families(1))
