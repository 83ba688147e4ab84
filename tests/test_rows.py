"""Property tests: the row-based predicates and tree maps against the definitions.

Families are drawn through their characteristic matrices: n rows of k bits
with a zero first row, so repeated rows (non-separating families), zero
columns (the one-block member) and repeated columns (members that collapse
in a family) all occur. tests/helpers.py holds the frozenset references.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from sepfam import (
    Bipartition,
    BipartitionFamily,
    CharMatrix,
    edge_cut_family,
    encode_family,
    prufer_decode,
    unique_cut_graph,
)

# fixed examples keep the suite deterministic; deadline off for slow hosts
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw, max_n=64, max_k=7):
    n = draw(st.integers(1, max_n))
    distinct = draw(st.booleans()) and n > 1  # then enough columns for distinct rows
    k = draw(st.integers((n - 1).bit_length() if distinct else 0, max_k))
    rows = [0] + draw(st.lists(st.integers(1 if distinct else 0, (1 << k) - 1),
                               min_size=n - 1, max_size=n - 1, unique=distinct))
    coblocks = [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(k)]
    return BipartitionFamily(n, tuple(Bipartition(n, c) for c in coblocks))


@st.composite
def codes(draw, max_n=60):
    n = draw(st.integers(2, max_n))
    return n, draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))


def naive(fam):
    return [helpers.to_naive(b) for b in fam]


@PROPERTY
@given(families())
@example(BipartitionFamily(1))
@example(BipartitionFamily(5))
@example(BipartitionFamily(1, (Bipartition(1),)))
@example(BipartitionFamily(2, (Bipartition(2), Bipartition(2, 0b10))))
def test_is_separating_matches_definition(fam):
    assert fam.is_separating() == helpers.naive_is_separating(naive(fam), fam.n)
    assert fam.is_separating() == encode_family(fam).has_distinct_rows()


@PROPERTY
@given(families(max_n=24, max_k=6))
@example(BipartitionFamily(1))
@example(BipartitionFamily(1, (Bipartition(1),)))
@example(BipartitionFamily(2, (Bipartition(2), Bipartition(2, 0b10))))
def test_is_minimal_separating_matches_definition(fam):
    assert fam.is_minimal_separating() == helpers.naive_is_minimal(naive(fam), fam.n)


@PROPERTY
@given(families())
@example(BipartitionFamily(1))
@example(BipartitionFamily(4, (Bipartition(4),)))
def test_unique_cut_graph_matches_definition(fam):
    want = helpers.naive_unique_cut_edges(naive(fam), fam.n)
    assert unique_cut_graph(fam).edges == want


@PROPERTY
@given(codes())
def test_edge_cut_family_matches_edge_removal(code):
    n, seq = code
    t = prufer_decode(n, seq)
    fam = edge_cut_family(t)
    assert set(naive(fam)) == helpers.naive_edge_cut_family(n, t.sorted_edges())
    assert unique_cut_graph(fam) == t


@PROPERTY
@given(families())
def test_matrix_encode_decode_roundtrip(fam):
    m = CharMatrix.encode(fam.n, fam.members)
    assert m == CharMatrix.from_rows([[int(helpers.naive_cuts(p, 1, i)) for p in naive(fam)]
                                      for i in range(1, fam.n + 1)])
    assert m.decode() == fam.members
