"""Core predicates against worked examples and the definition-level reference."""

import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sepfam import (
    Bipartition,
    BipartitionFamily,
    FULL_ENUM_MAX_N,
    CapacityError,
    LabeledGraph,
    all_bipartitions,
    bipartition_count,
    edge_cut_family,
    minimal_max_families,
    separating_families,
)
from sepfam.core import _set_elements
from sepfam.documents import family_from_text, family_to_compact


def test_worked_example_masks(ex):
    assert ex.p1.coblock == 0b1100
    assert ex.p2.coblock == 0b1010
    assert ex.q1.coblock == 0b1110
    assert ex.q3.coblock == 0b1000


def test_blocks_puts_block_with_1_first():
    b = Bipartition.from_blocks(4, [[3, 4], [1, 2]])
    assert b.blocks() == ((1, 2), (3, 4))
    assert b.coblock == 0b1100
    triv = Bipartition(3)
    assert triv.blocks() == ((1, 2, 3),)
    assert not triv.is_proper
    assert Bipartition.from_blocks(3, [[2, 1, 3]]) == triv
    # blocks() reads set bits; compare with a scan of every element
    rng = random.Random(7)
    for n in (1, 2, 9, 63, 64, 65, 300):
        for co in (0, ((1 << n) - 1) & ~1, rng.getrandbits(n) & ~1, 1 << (n - 1) if n > 1 else 0):
            b = Bipartition(n, co)
            inside = tuple(i for i in range(1, n + 1) if co >> (i - 1) & 1)
            outside = tuple(i for i in range(1, n + 1) if not co >> (i - 1) & 1)
            assert b.blocks() == ((outside, inside) if inside else (outside,))


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython tuple free lists")
def test_set_elements_does_not_fill_tuple_free_lists():
    # a tuple built from an iterator with no length hint is allocated at one
    # size and shrunk, so each freed result lands on another size's free list
    rng = random.Random(3)
    masks = [rng.getrandbits(width) & ~1 for width in range(1, 41)]
    for mask in masks * 5:
        _set_elements(mask)
    before = sys.getallocatedblocks()
    for i in range(20000):
        _set_elements(masks[i % len(masks)])
    assert sys.getallocatedblocks() - before < 5000


def test_from_blocks_roundtrips_everywhere():
    for n in range(1, 5):
        for b in all_bipartitions(n):
            assert Bipartition.from_blocks(n, b.blocks()) == b


@pytest.mark.parametrize(
    "n,blocks",
    [
        (4, [[1, 2], [3]]),  # misses 4
        (4, [[1, 2, 3, 4], [1]]),  # overlap
        (4, [[1], [2], [3, 4]]),  # three blocks
        (4, []),  # no blocks
        (3, [[1, 2], []]),  # empty block
        (3, [[1, 2], [3, 3]]),  # repeated element
        (3, [[1, 2], [3, 4]]),  # out of range
    ],
)
def test_from_blocks_rejects(n, blocks):
    with pytest.raises(ValueError):
        Bipartition.from_blocks(n, blocks)


def test_mask_validation():
    with pytest.raises(ValueError):
        Bipartition(4, 1)  # element 1 in the coblock
    with pytest.raises(ValueError):
        Bipartition(4, 1 << 4)  # element 5 on a 4-set
    with pytest.raises(ValueError):
        Bipartition(0, 0)
    with pytest.raises(ValueError, match="element 5 outside"):
        Bipartition.from_blocks(4, [[1, 2, 3, 4], [5]])
    with pytest.raises(ValueError):
        Bipartition(4, 0b1001)  # element 1 in a coblock with element 4


def test_predicates_answer_no_from_the_size_bound():
    # k members have at most 2^k distinct rows; n = 10^12 rows would not fit
    for members in ((), (Bipartition(10**12),), (Bipartition(10**12, 0b110),)):
        fam = BipartitionFamily(10**12, members)
        assert not fam.is_separating()
        assert not fam.is_minimal_separating()
    assert "_rows" not in fam.__dict__
    # at n = 2^k exactly the bound does not decide
    assert BipartitionFamily(4, (Bipartition(4, 0b1100), Bipartition(4, 0b1010))).is_minimal_separating()


def test_cuts_on_the_worked_example(ex):
    assert ex.p1.cuts(2, 3)
    assert ex.p1.cuts(1, 4)
    assert not ex.p1.cuts(1, 2)
    assert not ex.p1.cuts(3, 4)
    assert not ex.p2.cuts(1, 3)
    assert ex.q1.cuts(1, 2) and ex.q1.cuts(1, 4)
    assert not ex.q1.cuts(2, 4)


def test_trivial_bipartition_cuts_nothing():
    triv = Bipartition(4)
    assert not any(triv.cuts(i, j) for i, j in itertools.combinations(range(1, 5), 2))


def test_cuts_range_errors():
    b = Bipartition.from_blocks(3, [[1], [2, 3]])
    for i, j in [(0, 1), (1, 4), (-2, 2)]:
        with pytest.raises(ValueError):
            b.cuts(i, j)


def test_cuts_is_symmetric_and_matches_reference():
    for n in range(1, 5):
        for b in all_bipartitions(n):
            ref = helpers.to_naive(b)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                assert b.cuts(i, j) == b.cuts(j, i) == helpers.naive_cuts(ref, i, j)


def test_family_canonicalizes_and_dedups(ex):
    fam = BipartitionFamily(4, (ex.p1, ex.p2, ex.p1))
    assert len(fam) == 2
    assert fam.members == (ex.p2, ex.p1)  # increasing coblock mask
    assert fam == BipartitionFamily(4, (ex.p2, ex.p1))
    assert ex.p1 in fam and Bipartition(4, ex.p2.coblock) in fam
    # `in` compares members: a mask alone, or over another ground set, is none
    for item in (Bipartition(4), Bipartition(5, ex.p2.coblock), ex.p2.coblock, "x", None):
        assert item not in fam


def test_family_rows_are_a_fresh_list(ex):
    fam = BipartitionFamily(4, (ex.p1, ex.p2))
    rows = fam.rows()
    assert rows == [0, 1, 2, 3]  # members in canonical order: p2, then p1
    rows[1] = 0  # the family keeps its own copy, so its answers do not move
    assert fam.rows() == [0, 1, 2, 3] and fam.rows() is not fam.rows()
    assert fam.is_separating() and fam.is_minimal_separating()
    assert fam == BipartitionFamily(4, (ex.p2, ex.p1)) and hash(fam) == hash(BipartitionFamily(4, (ex.p2, ex.p1)))


def test_family_rejects_mixed_ground_sets(ex):
    with pytest.raises(ValueError):
        BipartitionFamily(5, (ex.p1,))
    # equal coblock masks over different ground sets are different members:
    # the n check sees every member before repeats collapse, so the foreign
    # one is refused wherever it stands among valid members of its mask
    good, foreign = Bipartition(4, 0b0110), Bipartition(5, 0b0110)
    for members in [(Bipartition(4), Bipartition(5)), (Bipartition(5), Bipartition(4)),
                    (good, foreign, good), (foreign, good, good)]:
        with pytest.raises(ValueError, match="member over n=5 in a family over n=4"):
            BipartitionFamily(4, members)


def test_family_fields_and_repr(ex):
    # a family holds n and its masks; the members are built when read, so
    # they equal the objects passed in without being them
    fam = BipartitionFamily(4, (ex.p1, ex.p2))
    assert [f.name for f in dataclasses.fields(BipartitionFamily)] == ["n", "coblocks"]
    assert dataclasses.asdict(fam) == {"n": 4, "coblocks": (0b1010, 0b1100)}
    assert repr(fam) == "BipartitionFamily(n=4, coblocks=(10, 12))"
    assert fam.members == (ex.p2, ex.p1) and fam.members[1] is not ex.p1
    with pytest.raises(TypeError):
        BipartitionFamily(4, (ex.p1,), coblocks=(0b1100,))


@pytest.mark.parametrize("n", [4.0, True, 0, -1, "4", None], ids=["float", "bool", "zero", "negative", "str", "none"])
def test_family_n_is_an_int_that_is_no_bool(n):
    with pytest.raises(ValueError, match=f"family needs an int n >= 1, got n={n!r}"):
        BipartitionFamily(n)
    with pytest.raises(ValueError, match="got n="):
        BipartitionFamily._of(n, ())
    # with a member over 4 the member check may speak first; either way it is a ValueError
    with pytest.raises(ValueError, match=f"n={n!r}"):
        BipartitionFamily(n, (Bipartition(4, 2),))


def test_family_reads_a_float_member_n_back_as_its_own_int():
    # 4.0 == 4, so the member is accepted; it is rebuilt over the family's n
    fam = BipartitionFamily(4, (Bipartition(4.0, 2),))
    assert fam.members == (Bipartition(4, 2),) and type(fam.members[0].n) is int
    assert repr(fam.members[0]) == "Bipartition(n=4, coblock=2)"


def test_no_producer_builds_members():
    n = 5
    tree = LabeledGraph.from_edges(n, [(1, 2), (2, 3), (2, 4), (4, 5)])
    fams = [
        edge_cut_family(tree),
        *itertools.islice(minimal_max_families(n), 7),
        *itertools.islice(separating_families(4), 7),
        *itertools.islice(separating_families(4, size=3, proper_only=True, minimal_only=True), 3),
        family_from_text("1,2|3,4;1,3|2,4;1,3|2,4").family,
        family_from_text('{"n": 4, "bipartitions": [[[1, 2], [3, 4]], [[1, 2, 3, 4]]]}').family,
        family_from_text('{"n": 3, "bipartitions": []}').family,
    ]
    for fam in fams:
        family_to_compact(fam)
        assert "members" not in fam.__dict__
        assert fam.members == tuple(Bipartition(fam.n, c) for c in fam.coblocks)
        assert "members" in fam.__dict__ and fam.members is fam.members


@st.composite
def member_lists(draw):
    """(n, m, left, right, shuffled, bad): two mask lists from one small pool,
    so they often hold the same set, a second ground set m that the masks
    also fit, left shuffled with some of its masks repeated, and a mask that
    is no bipartition of {1..n} for one reason only: bit 0 set, one bit too
    wide, or negative."""
    n = draw(st.integers(1, 8))
    mask = st.integers(0, (1 << (n - 1)) - 1).map(lambda c: c << 1)
    pool = draw(st.lists(mask, min_size=1, max_size=5))
    left, right = (draw(st.lists(st.sampled_from(pool), max_size=8)) for _ in "lr")
    m = draw(st.sampled_from([n, n, n + 1]))
    shuffled = draw(st.permutations(left + left[: draw(st.integers(0, len(left)))]))
    c = draw(st.sampled_from(pool))
    bad = draw(st.sampled_from([c | 1, c | 1 << n, -c - 2]))
    return n, m, left, right, shuffled, bad


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(member_lists())
def test_family_equality_is_n_and_the_set_of_masks(case):
    n, m, left, right, shuffled, bad = case
    f = BipartitionFamily(n, tuple(Bipartition(n, c) for c in left))
    g = BipartitionFamily(m, tuple(Bipartition(m, c) for c in right))
    assert f.coblocks == tuple(b.coblock for b in f.members) == tuple(sorted(set(left)))
    assert (f == g) == (n == m and set(left) == set(right))
    if f == g:
        assert hash(f) == hash(g)
    same = BipartitionFamily(n, tuple(Bipartition(n, c) for c in shuffled))
    assert same == f and hash(same) == hash(f) and same.members == f.members
    # the mask path the producers take: repeats collapse, members are built
    # in coblocks order, and a mask that is no bipartition is refused by value
    held = BipartitionFamily._of(n, shuffled)
    assert held == f and held.coblocks == tuple(sorted(set(left)))
    assert held.members == tuple(Bipartition(n, c) for c in held.coblocks) == f.members
    for at in {0, len(shuffled) // 2, len(shuffled)}:
        with pytest.raises(ValueError, match=f"coblock mask {bad} is no bipartition of a {n}-element set"):
            BipartitionFamily._of(n, shuffled[:at] + [bad] + shuffled[at:])
    # one member over another ground set, with a mask the others may share
    if m != n and left:
        mixed = [Bipartition(n, c) for c in shuffled]
        mixed.insert(len(shuffled) // 2, Bipartition(m, left[0]))
        with pytest.raises(ValueError, match=f"member over n={m}"):
            BipartitionFamily(n, tuple(mixed))


def test_separating_worked_examples(ex):
    assert ex.fp.is_separating()
    assert ex.fq.is_separating()
    assert not BipartitionFamily(4, (ex.p1,)).is_separating()
    # q1 and q3 both keep 2 and 3 together
    assert not BipartitionFamily(4, (ex.q1, ex.q3)).is_separating()


def test_minimal_worked_examples(ex):
    assert ex.fq.is_minimal_separating()
    assert ex.fp.is_minimal_separating()
    bloated = BipartitionFamily(4, (ex.p1, ex.p2, ex.q1))
    assert bloated.is_separating()
    assert not bloated.is_minimal_separating()


def test_empty_family_edge_cases():
    assert BipartitionFamily(1).is_separating()  # nothing to cut
    assert BipartitionFamily(1).is_minimal_separating()
    assert not BipartitionFamily(2).is_separating()


def test_predicates_match_reference_exhaustively():
    # every family over n = 3, and all 256 families over n = 4
    for n in (3, 4):
        pool = all_bipartitions(n)
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                fam = BipartitionFamily(n, combo)
                ref = [helpers.to_naive(b) for b in combo]
                assert fam.is_separating() == helpers.naive_is_separating(ref, n)
                assert fam.is_minimal_separating() == helpers.naive_is_minimal(ref, n)


def test_all_bipartitions_shape():
    for n in range(1, 6):
        pool = all_bipartitions(n)
        assert len(pool) == bipartition_count(n) == 2 ** (n - 1)
        assert len(set(pool)) == len(pool)
        assert [b.coblock for b in pool] == sorted(b.coblock for b in pool)
        proper = all_bipartitions(n, proper_only=True)
        assert len(proper) == bipartition_count(n, proper=True)
        assert all(b.is_proper for b in proper)


def test_all_bipartitions_capacity():
    with pytest.raises(CapacityError):
        all_bipartitions(FULL_ENUM_MAX_N + 1)
    with pytest.raises(CapacityError):
        all_bipartitions(25)
    with pytest.raises(ValueError):
        all_bipartitions(0)
    assert bipartition_count(30) == 2**29  # the count itself has no cap
