"""Combinatorics layer, checked against independent brute-force oracles."""

import doctest
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock.combinatorics
from qfock.combinatorics import (
    PairPartition,
    all_reduced_words,
    double_factorial,
    f_coefficient,
    g_coefficient,
    index_splittings,
    inversion_count,
    pair_partitions,
    permutations_by_length,
    reduced_word,
    word_permutation,
)
from qfock.ultra import _join_blocks


# -- oracles ------------------------------------------------------------------

def oracle_matchings(l):
    """All perfect matchings via exhaustive permutation pairing."""
    seen = set()
    for perm in itertools.permutations(range(l)):
        pairs = frozenset(
            tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(l // 2)
        )
        seen.add(pairs)
    return seen


def oracle_crossings(pairs):
    """Crossing count as interleaved point quadruples i<j<k<m with {i,k},{j,m} paired."""
    pairset = {tuple(p) for p in pairs}
    l = 2 * len(pairs)
    count = 0
    for i, j, k, m in itertools.combinations(range(l), 4):
        if (i, k) in pairset and (j, m) in pairset:
            count += 1
    return count


def oracle_join_blocks(a_blocks, b_blocks, size):
    """Connected components of the union graph, by BFS."""
    adj = {k: set() for k in range(size)}
    for blocks in (a_blocks, b_blocks):
        for b in blocks:
            for x, y in zip(b, b[1:]):
                adj[x].add(y)
                adj[y].add(x)
    seen, comps = set(), []
    for start in range(size):
        if start in seen:
            continue
        comp, queue = [], [start]
        seen.add(start)
        while queue:
            x = queue.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


# -- enumeration --------------------------------------------------------------

def test_counts_match_double_factorial():
    for l in (2, 4, 6, 8, 10, 12):
        assert len(pair_partitions(l)) == double_factorial(l - 1)


def test_odd_and_out_of_range_rejected():
    assert pair_partitions(3) == []
    assert pair_partitions(1) == []
    with pytest.raises(ValueError):
        pair_partitions(14)
    with pytest.raises(ValueError):
        pair_partitions(-2)


def test_l2_and_l4_frozen():
    assert [p.pairs for p in pair_partitions(2)] == [((0, 1),)]
    assert [p.pairs for p in pair_partitions(4)] == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_enumeration_matches_oracle():
    for l in (2, 4, 6, 8):
        got = {frozenset(p.pairs) for p in pair_partitions(l)}
        assert got == oracle_matchings(l)
        assert len(got) == len(pair_partitions(l)), "duplicates"


def test_canonical_storage():
    part = PairPartition.from_pairs([(5, 2), (1, 0), (3, 4)])
    assert part.pairs == ((0, 1), (2, 5), (3, 4))
    with pytest.raises(ValueError):
        PairPartition.from_pairs([(0, 1), (1, 2)])


# -- crossings ----------------------------------------------------------------

def test_crossing_frozen_examples():
    assert PairPartition.from_pairs([(0, 1), (2, 3)]).crossing_number() == 0
    assert PairPartition.from_pairs([(0, 2), (1, 3)]).crossing_number() == 1
    assert PairPartition.from_pairs([(0, 3), (1, 5), (2, 4)]).crossing_number() == 2


def test_crossing_matches_oracle():
    for l in (2, 4, 6, 8):
        for part in pair_partitions(l):
            assert part.crossing_number() == oracle_crossings(part.pairs)


def test_crossing_sum_at_1_and_0():
    for l in (2, 4, 6, 8, 10, 12):
        crossings = [p.crossing_number() for p in pair_partitions(l)]
        assert sum(1**c for c in crossings) == double_factorial(l - 1)
        catalan = math.comb(l, l // 2) // (l // 2 + 1)
        assert sum(1 for c in crossings if c == 0) == catalan


# -- join of two pair partitions ---------------------------------------------

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_join_blocks_match_the_bfs_oracle(data):
    size = 2 * data.draw(st.integers(0, 5))
    nu = data.draw(st.sampled_from(pair_partitions(size)))
    nup = data.draw(st.sampled_from(pair_partitions(size)))
    block, count = _join_blocks(nu.pairs, nup.pairs)
    components = oracle_join_blocks(nu.pairs, nup.pairs, size)
    groups = {}
    for pos, label in enumerate(block):
        groups.setdefault(label, []).append(pos)
    assert sorted(tuple(g) for g in groups.values()) == list(components)
    # the oracle sorts its components by least position
    assert [block[c[0]] for c in components] == list(range(len(components)))
    assert count == len(components)


# -- coefficients -------------------------------------------------------------

def test_g_noncrossing_is_one():
    q = [[0.3, 0.1], [0.1, 0.5]]
    for part in pair_partitions(6):
        if part.crossing_number() == 0:
            assert g_coefficient(part, (0, 1, 0, 1, 0, 1), q) == 1


def test_g_uniform_is_q_power():
    q = Fraction(2, 7)
    mat = [[q]]
    for l in (2, 4, 6, 8):
        for part in pair_partitions(l):
            got = g_coefficient(part, (0,) * l, mat)
            assert got == q ** part.crossing_number()


def test_g_mixed_label_frozen():
    # labels (0,1,0,1), nu = {(0,2),(1,3)}: one crossing (r,s)=(0,1),
    # factor q[labels[i_0]][labels[j_1]] = q[0][1]
    q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
    nu = PairPartition.from_pairs([(0, 2), (1, 3)])
    assert g_coefficient(nu, (0, 1, 0, 1), q) == Fraction(1, 3)


def test_f_frozen_examples():
    q = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
    labels = (0, 1, 0)
    # no inversions
    assert f_coefficient((0,), (1,), labels[:2], q) == 1
    # single inversion: q[labels[1]][labels[0]]
    assert f_coefficient((1,), (0,), labels[:2], q) == Fraction(1, 3)
    # positions (1,2) against (0,): q[l1][l0] * q[l2][l0]
    assert f_coefficient((1, 2), (0,), labels, q) == Fraction(1, 3) * Fraction(1, 2)


def test_f_empty_parts():
    q = [[0.4]]
    assert f_coefficient((0, 1), (), (0, 0), q) == 1
    assert f_coefficient((), (0, 1), (0, 0), q) == 1


def test_index_splittings_cover():
    n = 4
    splits = list(index_splittings(n, 2))
    assert len(splits) == math.comb(4, 2)
    for left, right in splits:
        assert sorted(left + right) == list(range(n))
        assert list(left) == sorted(left) and list(right) == sorted(right)


# -- reduced words ------------------------------------------------------------

def test_reduced_word_frozen():
    assert reduced_word((0, 1, 2)) == ()
    assert reduced_word((1, 0)) == (0,)
    w = reduced_word((2, 1, 0))
    assert len(w) == 3
    assert word_permutation(w, 3) == (2, 1, 0)


def test_reduced_word_recomposition_exhaustive():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            w = reduced_word(perm)
            assert len(w) == inversion_count(perm)
            assert word_permutation(w, n) == perm


def test_all_reduced_words_agree():
    for perm in itertools.permutations(range(4)):
        words = all_reduced_words(perm)
        assert len(set(words)) == len(words)
        target_len = inversion_count(perm)
        for w in words:
            assert len(w) == target_len
            assert word_permutation(w, 4) == perm


def test_longest_element_word_count():
    # S_3 longest element has 2 reduced words, S_4 longest has 16
    assert len(all_reduced_words((2, 1, 0))) == 2
    assert len(all_reduced_words((3, 2, 1, 0))) == 16


def test_permutations_by_length():
    perms = permutations_by_length(4)
    assert len(perms) == 24
    assert perms[0] == (0, 1, 2, 3)
    lengths = [inversion_count(p) for p in perms]
    assert lengths == sorted(lengths)


def test_docstring_examples_run():
    failed, attempted = doctest.testmod(qfock.combinatorics)
    assert failed == 0
    assert attempted == 6
