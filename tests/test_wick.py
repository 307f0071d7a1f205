"""Wick operators: splitting formula, fields, recursion, compression.

Oracles: full-space ladder matrices assembled by hand from the fock layer,
term-by-term hand expansions for small levels, a taller truncation of the
same space for the compression semantics, the splitting formula assembled
on dense level blocks from the dense ladder matrices for the entry
assembly, the word-by-word sum of dense basis-word matrices for the
scatter realization, and the densified word (``WickWord.dense``), the full
Gram form and the dense conjugation for the routes that work on entries
and level blocks.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qfock.combinatorics import f_coefficient, index_splittings
from qfock.errors import BuildError, CutoffError
from qfock.fock import TruncatedFock
from qfock.hilbert import build_space, leg_label
from qfock.linalg import gram_inner, identity_matrix, max_abs, op_norm, to_float
from qfock.modular import ModularData, modular_flow
from qfock.wick import (
    _word_entries,
    basis_word_operator,
    cache_footprint,
    field,
    from_vector,
    norm_bound,
    span_operator,
    wick_operator,
    wick_recursion_residual,
)

from conftest import Q_EXACT, Q_MIXED, Q_TRIVIAL, random_complex


@pytest.fixture(scope="module")
def fock_mixed():
    setup = build_space(Q_MIXED, [("rotation", 0, 2.0), ("fixed", 1)])
    return TruncatedFock(setup, 4)


@pytest.fixture(scope="module")
def fock_exact():
    setup = build_space(Q_EXACT, [("fixed", 0), ("fixed", 1)], exact=True)
    return TruncatedFock(setup, 3)


def full_creation(fock, xi):
    """Ladder oracle: creation on every admissible level at once."""
    out = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    for m in range(fock.n_max):
        out[fock.level_slice(m + 1), fock.level_slice(m)] = to_float(
            fock.creation(xi, m)
        )
    return out


def full_annihilation(fock, xi):
    out = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    for m in range(1, fock.n_max + 1):
        out[fock.level_slice(m - 1), fock.level_slice(m)] = to_float(
            fock.annihilation(xi, m)
        )
    return out


def state(fock, mat):
    """Vacuum expectation of a full-space operator matrix."""
    return to_float(mat.dot(fock.vacuum()))[0]


# -- level 1 -------------------------------------------------------------------

def test_level_one_is_ladder_sum(fock_mixed, rng):
    xi = random_complex(rng, fock_mixed.dim)
    xi[2] = 0  # keep the leg inside block 0
    xi[1] = xi[0] * 0.3
    word = wick_operator(fock_mixed, [xi])
    oracle = full_creation(fock_mixed, xi) + full_annihilation(
        fock_mixed, np.conj(xi)
    )
    assert max_abs(to_float(word.dense()) - oracle) < 1e-12


def test_vacuum_reproduction_levels(fock_mixed, rng):
    for n in (1, 2, 3):
        vec = random_complex(rng, fock_mixed.level_dim(n))
        word = from_vector(fock_mixed, vec, n)
        image = to_float(word.vacuum_image())
        assert np.allclose(image, to_float(fock_mixed.embed(vec, n)), atol=1e-12)


def test_level_one_self_adjoint_for_real(fock_mixed):
    xi = np.array([0.7, -0.2, 0.0], dtype=complex)
    word = wick_operator(fock_mixed, [xi])
    assert max_abs(to_float(word.dense()) - to_float(word.adjoint_matrix())) < 1e-11


# -- level 2 hand expansion ------------------------------------------------------

def test_level_two_expansion(fock_mixed, rng):
    # legs in blocks (0, 1); the crossing term carries q_{t2,t1}
    xi1 = np.zeros(3, dtype=complex)
    xi1[:2] = random_complex(rng, 2)
    xi2 = np.zeros(3, dtype=complex)
    xi2[2] = 1.4 - 0.2j
    q21 = Q_MIXED[1][0]
    word = wick_operator(fock_mixed, [xi1, xi2])
    c1, c2 = full_creation(fock_mixed, xi1), full_creation(fock_mixed, xi2)
    a1 = full_annihilation(fock_mixed, np.conj(xi1))
    a2 = full_annihilation(fock_mixed, np.conj(xi2))
    oracle = c1 @ c2 + c1 @ a2 + q21 * (c2 @ a1) + a1 @ a2
    # sources below the cutoff boundary are compression-free
    valid = fock_mixed.level_offset(fock_mixed.n_max - 1)
    diff = to_float(word.dense()) - oracle
    assert max_abs(diff[:, :valid]) < 1e-12


def test_linearity_in_a_leg(fock_mixed, rng):
    xi = np.zeros(3, dtype=complex)
    xi[:2] = random_complex(rng, 2)
    eta = np.zeros(3, dtype=complex)
    eta[:2] = random_complex(rng, 2)
    other = np.zeros(3, dtype=complex)
    other[2] = 1.0
    z = 0.4 - 1.1j
    lhs = wick_operator(fock_mixed, [z * xi + eta, other]).dense()
    rhs = z * wick_operator(fock_mixed, [xi, other]).dense() + wick_operator(
        fock_mixed, [eta, other]
    ).dense()
    assert max_abs(to_float(lhs - rhs)) < 1e-11


def test_a_leg_spanning_blocks_is_realized_by_linearity(fock_mixed, rng):
    u = np.zeros(3, dtype=complex)
    u[:2] = random_complex(rng, 2)
    v = np.zeros(3, dtype=complex)
    v[2] = 0.8 + 0.1j
    w = random_complex(rng, 3)
    lhs = wick_operator(fock_mixed, [u + v, w]).dense()
    rhs = wick_operator(fock_mixed, [u, w]).dense() + wick_operator(fock_mixed, [v, w]).dense()
    assert max_abs(to_float(lhs - rhs)) <= 1e-15 * max_abs(to_float(lhs))
    # a zero leg gives the zero word
    assert not np.any(wick_operator(fock_mixed, [np.zeros(3), w]).dense())


def test_fields_and_simple_tensors_realize_through_from_vector(mixed5, rng):
    # one path, bit for bit: the entries are those of the argument's
    # basis-word merge
    fock = TruncatedFock(mixed5, 3)

    def rotation_leg():
        leg = np.zeros(fock.dim)
        leg[:2] = rng.standard_normal(2)
        return leg

    for _ in range(20):
        xi, u, w = rotation_leg(), rotation_leg(), rotation_leg()
        pairs = [
            (field(fock, xi), from_vector(fock, xi, 1)),
            (wick_operator(fock, [u, w]), from_vector(fock, np.kron(u, w), 2)),
        ]
        for word, merged in pairs:
            for got, want in zip(word.entries, merged.entries):
                assert got.tobytes() == want.tobytes()


def test_argument_level_cutoff(fock_mixed):
    legs = [fock_mixed.setup.basis_vector(0)] * 5
    with pytest.raises(CutoffError):
        wick_operator(fock_mixed, legs)


# -- field operators ---------------------------------------------------------------

def test_field_matches_ladder_sum(fock_mixed):
    xi = np.array([0.3, 1.1, -0.4])
    s = field(fock_mixed, xi)
    oracle = full_creation(fock_mixed, xi) + full_annihilation(fock_mixed, xi)
    assert max_abs(to_float(s.dense()) - oracle) < 1e-13
    assert np.allclose(to_float(s.vacuum_image())[fock_mixed.level_slice(1)], xi)


def test_field_self_adjoint(fock_mixed):
    xi = np.array([0.3, 1.1, -0.4])
    s = field(fock_mixed, xi)
    assert max_abs(to_float(s.dense() - s.adjoint_matrix())) < 1e-11


def test_field_square_moment(fock_mixed):
    xi = np.array([0.9, -0.5, 0.7])
    s = field(fock_mixed, xi).dense()
    expect = fock_mixed.setup.u_inner(xi, xi)
    assert state(fock_mixed, s.dot(s)) == pytest.approx(expect, abs=1e-12)


def test_field_rejects_complex(fock_mixed):
    with pytest.raises(BuildError, match="real"):
        field(fock_mixed, np.array([1j, 0, 0]))


def test_field_equals_level_one_wick(fock_mixed):
    xi = np.array([0.0, 0.0, 2.3])
    s = field(fock_mixed, xi)
    w = wick_operator(fock_mixed, [xi])
    assert max_abs(to_float(s.dense() - w.dense())) == 0


# -- recursion -------------------------------------------------------------------

def test_recursion_single_step(fock_mixed, rng):
    xi1 = np.zeros(3, dtype=complex)
    xi1[:2] = random_complex(rng, 2)
    xi2 = np.zeros(3, dtype=complex)
    xi2[:2] = random_complex(rng, 2)
    assert wick_recursion_residual(fock_mixed, xi1, [xi2]) < 1e-10


def test_recursion_orthogonal_pair_exact_product(fock_mixed):
    # <conj(xi1), xi2>_U = 0 makes the correction vanish entirely
    xi1 = np.zeros(3, dtype=complex)
    xi1[0] = 1.0
    xi2 = np.zeros(3, dtype=complex)
    xi2[2] = 1.0
    assert fock_mixed.setup.u_inner(np.conj(xi1), xi2) == 0
    w12 = wick_operator(fock_mixed, [xi1, xi2]).dense()
    prod = wick_operator(fock_mixed, [xi1]).dense().dot(
        wick_operator(fock_mixed, [xi2]).dense()
    )
    valid = fock_mixed.level_offset(fock_mixed.n_max - 1)
    assert max_abs(to_float(w12 - prod)[:, :valid]) < 1e-12


def test_recursion_two_step_random(rng):
    setup = build_space(
        [[0.35, -0.15, 0.2], [-0.15, 0.5, 0.1], [0.2, 0.1, 0.25]],
        [("fixed", 0), ("fixed", 1), ("fixed", 2)],
    )
    fock = TruncatedFock(setup, 3)
    for _ in range(4):
        legs = []
        for _ in range(3):
            v = np.zeros(3, dtype=complex)
            v[int(rng.integers(0, 3))] = rng.standard_normal() + 1j * rng.standard_normal()
            legs.append(v)
        assert wick_recursion_residual(fock, legs[0], legs[1:]) < 1e-10


def test_recursion_exact_is_zero(fock_exact):
    e0 = fock_exact.setup.basis_vector(0)
    e1 = fock_exact.setup.basis_vector(1)
    assert wick_recursion_residual(fock_exact, e0, [e1, e1]) == 0


# -- compression semantics ----------------------------------------------------------

def test_truncation_is_compression():
    setup = build_space(Q_TRIVIAL, [("fixed", 0), ("fixed", 1)])
    small = TruncatedFock(setup, 3)
    tall = TruncatedFock(setup, 5)
    for word in [(0,), (0, 1), (1, 0, 0)]:
        op_small = to_float(basis_word_operator(small, word))
        op_tall = to_float(basis_word_operator(tall, word))
        keep = small.total_dim
        assert max_abs(op_small - op_tall[:keep, :keep]) < 1e-13


# -- norm bound ----------------------------------------------------------------------

def test_norm_bound_dominates_measured_norm(fock_mixed, rng):
    g = to_float(fock_mixed.full_gram)
    for n in (1, 2):
        vec = random_complex(rng, fock_mixed.level_dim(n))
        word = from_vector(fock_mixed, vec, n)
        measured = op_norm(to_float(word.dense()), g, g)
        assert measured <= norm_bound(fock_mixed, vec, n) + 1e-9


# -- exact mode ------------------------------------------------------------------------

def test_exact_wick_entries(fock_exact):
    e0 = fock_exact.setup.basis_vector(0)
    e1 = fock_exact.setup.basis_vector(1)
    word = wick_operator(fock_exact, [e0, e1])
    assert word.dense().dtype == object
    image = word.vacuum_image()
    assert image[fock_exact.level_offset(2) + fock_exact.word_index((0, 1))] == 1
    # vacuum-to-vacuum entry of W(e0 (x) e1) is exactly zero
    assert word.dense()[0, 0] == 0


def test_leg_label_helper(fock_mixed):
    assert leg_label(fock_mixed.setup, [1.0, 2.0, 0.0]) == 0
    assert leg_label(fock_mixed.setup, [0, 0, 3.0]) == 1


def test_leg_label_refuses_zero_and_multi_block_vectors(fock_mixed):
    with pytest.raises(BuildError, match="spans blocks"):
        leg_label(fock_mixed.setup, [1.0, 0.0, 1.0])
    with pytest.raises(BuildError, match="no block label"):
        leg_label(fock_mixed.setup, [0.0, 0.0, 0.0])


# -- sparse basis-word cache -------------------------------------------------------------

def dense_assembly(fock, legs, labels):
    """Oracle: the splitting formula on dense level blocks.

    Annihilation chains are dense products of the ladder matrices, creation
    legs are prepended by Kronecker products, and every splitting is added
    into its (row level, column level) block in the order of the formula.
    """
    n = len(legs)
    conj_legs = [np.conj(leg) for leg in legs]
    ent = fock.setup.deformation.entries
    out = fock._zeros((fock.total_dim, fock.total_dim))
    for k in range(n + 1):
        for left, right in index_splittings(n, k):
            coeff = f_coefficient(left, right, labels, ent)
            for m in range(k, fock.n_max + 1):
                out_level = m - k + (n - k)
                if out_level > fock.n_max:
                    continue  # compressed away with the cutoff
                cur = None
                lvl = m
                for j in reversed(right):
                    step = fock.annihilation(conj_legs[j], lvl)
                    cur = step if cur is None else step.dot(cur)
                    lvl -= 1
                for i in reversed(left):
                    if cur is None:
                        cur = fock.creation(legs[i], lvl)
                    else:
                        cur = np.kron(legs[i].reshape(fock.dim, 1), cur)
                    lvl += 1
                if cur is None:
                    cur = identity_matrix(fock.level_dim(m), fock.exact)
                out[fock.level_slice(out_level), fock.level_slice(m)] += coeff * cur
    return out


def dense_word(fock, word):
    """Splitting-formula operator of one basis word, on dense level blocks."""
    legs = [fock.setup.basis_vector(a) for a in word]
    return dense_assembly(fock, legs, fock.labels_of(word))


def assert_matches_dense(fast, dense, exact):
    """``==`` on exact spaces; on float spaces the same nonzero positions and
    entries within 1e-15 of the largest (the dense route sums chain products
    in BLAS order, the entries in formula order)."""
    if exact:
        assert np.all(fast == dense)
        return
    assert np.array_equal(fast != 0, dense != 0)
    assert max_abs(fast - dense) <= 1e-15 * max_abs(dense)


@pytest.fixture(scope="module")
def fock_trivial():
    return TruncatedFock(build_space(Q_TRIVIAL, [("fixed", 0), ("fixed", 1)]), 4)


@pytest.fixture(scope="module")
def fock_rotation():
    setup = build_space(
        Q_MIXED, [("rotation", 0, 2.0), ("fixed", 1), ("rotation", 1, 1.5)]
    )
    return TruncatedFock(setup, 3)


@pytest.fixture(scope="module")
def fock_commuting():
    # q = 0 across the blocks: splittings that cross them weigh exactly 0
    setup = build_space([[0.4, 0.0], [0.0, -0.3]], [("fixed", 0), ("fixed", 1)])
    return TruncatedFock(setup, 4)


@pytest.mark.parametrize(
    "space",
    ["fock_trivial", "fock_commuting", "fock_mixed", "fock_rotation", "fock_exact"],
)
def test_every_basis_word_matches_the_dense_assembly(space, request):
    fock = request.getfixturevalue(space)
    for n in range(fock.n_max + 1):
        for word in fock.basis_words(n):
            index, values = _word_entries(fock, word)
            assert np.all(np.diff(index) > 0) and np.all(values != 0)
            fast = basis_word_operator(fock, word)
            assert fast.dtype == (object if fock.exact else complex)
            assert_matches_dense(fast, dense_word(fock, word), fock.exact)


def test_simple_tensor_matches_the_dense_assembly(fock_rotation, rng):
    # legs spread over two letters of one block: creations prepend both
    legs = []
    for start in (0, 2, 3):
        leg = np.zeros(fock_rotation.dim, dtype=complex)
        leg[start : start + 2] = random_complex(rng, 2)
        legs.append(leg)
    fast = wick_operator(fock_rotation, legs).dense()
    assert_matches_dense(fast, dense_assembly(fock_rotation, legs, (0, 1, 1)), False)


def dense_from_vector(fock, vec, n):
    """Oracle: add one densified cached basis-word matrix per nonzero
    coordinate."""
    operator = fock._zeros((fock.total_dim, fock.total_dim))
    for idx in range(fock.level_dim(n)):
        if vec[idx] == 0:
            continue
        operator += vec[idx] * basis_word_operator(fock, fock.index_word(idx, n))
    return operator


def test_from_vector_matches_the_dense_word_sum(fock_mixed, rng):
    for n in range(fock_mixed.n_max + 1):
        full = random_complex(rng, fock_mixed.level_dim(n))
        sparse = full.copy()
        sparse[::2] = 0
        for vec in (full, sparse, full.real.copy()):
            fast = from_vector(fock_mixed, vec, n).dense()
            assert fast.tobytes() == dense_from_vector(fock_mixed, vec, n).tobytes()


def test_from_vector_matches_the_dense_word_sum_exactly(fock_exact):
    for n in range(fock_exact.n_max + 1):
        size = fock_exact.level_dim(n)
        vec = np.array([Fraction(i % 5 - 2, 3) for i in range(size)], dtype=object)
        fast = from_vector(fock_exact, vec, n).dense()
        assert fast.dtype == object
        assert np.all(fast == dense_from_vector(fock_exact, vec, n))


def test_basis_word_operator_matches_the_dense_assembly(fock_mixed, fock_exact):
    for word in [(), (2,), (0, 1), (1, 2, 0), (2, 2, 1, 0)]:
        fast = basis_word_operator(fock_mixed, word)
        assert_matches_dense(fast, dense_word(fock_mixed, word), False)
    for word in [(), (1,), (0, 1, 1)]:
        fast = basis_word_operator(fock_exact, word)
        assert np.all(fast == dense_word(fock_exact, word))
    # a fresh matrix each time: writing to one leaves the cache intact
    first = basis_word_operator(fock_mixed, (0, 1))
    first[:] = 0
    assert np.any(basis_word_operator(fock_mixed, (0, 1)))


def test_building_word_entries_stays_small(mixed5):
    # D = 781: one dense level block of the top level alone is 6.25 MB
    fock = TruncatedFock(mixed5, 4)
    for word in [(0,), (2, 4), (1, 0, 3)]:
        tracemalloc.start()
        try:
            _word_entries(fock, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"word {word}: peak {peak} B"


def test_cached_entries_are_read_only_and_sparse(fock_mixed):
    index, values = _word_entries(fock_mixed, (1, 2))
    with pytest.raises(ValueError):
        index[0] = 0
    with pytest.raises(ValueError):
        values[0] = 0
    entries, held = cache_footprint(fock_mixed)
    cache = fock_mixed.__dict__["_wick_cache"]
    assert entries == len(cache)
    assert held == sum(arr.nbytes for pair in cache.values() for arr in pair)
    assert held < entries * 16 * fock_mixed.total_dim**2 / 10


# -- entry routes against their dense oracles ---------------------------------

FIVE_SPACES = ["fock_trivial", "fock_commuting", "fock_mixed", "fock_rotation", "fock_exact"]


def random_coords(fock, rng, size):
    """Random coordinates: Fractions on exact spaces, complex otherwise."""
    if fock.exact:
        return np.array([Fraction(int(k), 7) for k in rng.integers(-9, 10, size)], dtype=object)
    return random_complex(rng, size)


def assert_agrees(fast, dense, exact):
    """``==`` on exact spaces, 1e-13 relative on float spaces."""
    if exact:
        assert np.all(fast == dense)
    else:
        assert max_abs(fast - dense) <= 1e-13 * max(1.0, max_abs(dense))


def sample_words(fock, rng):
    words = [from_vector(fock, random_coords(fock, rng, fock.level_dim(n)), n) for n in range(fock.n_max + 1)]
    xi = fock.setup.basis_vector(fock.dim - 1)
    words.append(wick_operator(fock, [xi, fock.setup.basis_vector(0)]))
    words.append(words[2].scaled(Fraction(2, 3) if fock.exact else 0.7 - 0.2j))
    words.append(field(fock, xi))
    return words


@pytest.mark.parametrize("space", FIVE_SPACES)
def test_apply_matches_the_dense_product(space, request, rng):
    fock = request.getfixturevalue(space)
    for word in sample_words(fock, rng):
        vec = random_coords(fock, rng, fock.total_dim)
        assert_agrees(word.apply(vec), word.dense().dot(vec), fock.exact)
        assert_agrees(word.vacuum_image(), word.dense().dot(fock.vacuum()), fock.exact)


@pytest.mark.parametrize("space", FIVE_SPACES)
def test_level_blocks_tile_the_dense_operator(space, request, rng):
    fock = request.getfixturevalue(space)
    for word in sample_words(fock, rng):
        dense = word.dense()
        levels = range(fock.n_max + 1)
        for r in levels:
            for c in levels:
                block = dense[fock.level_slice(r), fock.level_slice(c)]
                assert np.all(word.level_block(r, c) == block)
                if (r, c) not in word.level_pairs():
                    assert not np.any(block)


@pytest.mark.parametrize("space", FIVE_SPACES)
def test_levelwise_full_inner_matches_the_full_gram(space, request, rng):
    fock = request.getfixturevalue(space)
    for _ in range(3):
        u = random_coords(fock, rng, fock.total_dim)
        v = random_coords(fock, rng, fock.total_dim)
        dense = gram_inner(u, v, fock.full_gram)
        fast = fock.full_inner(u, v)
        if fock.exact:
            assert fast == dense
        else:
            assert abs(fast - dense) <= 1e-13 * max(1.0, abs(dense))


@pytest.mark.parametrize("space", FIVE_SPACES)
def test_blockwise_flow_residual_matches_the_dense_conjugation(space, request, rng):
    fock = request.getfixturevalue(space)
    modular = ModularData(fock)
    for n in (1, 2):
        word = from_vector(fock, random_coords(fock, rng, fock.level_dim(n)), n)
        for t in (0.3, 1.0):
            flowed = modular_flow(fock, t, word)
            conj = modular.unitary_conjugate(-t, word.dense())
            dense = max_abs(to_float(flowed.dense()) - conj)
            assert modular.flow_residual(t, word, flowed) == dense
            # an unrelated word has an order-one residual, on blocks where
            # only one side holds entries
            other = from_vector(fock, random_coords(fock, rng, fock.level_dim(n + 1)), n + 1)
            dense = max_abs(to_float(other.dense()) - conj)
            assert dense > 0.1
            assert modular.flow_residual(t, word, other) == dense
            # one NaN coordinate makes some block residuals NaN, and the
            # fold over blocks keeps it
            coords = random_coords(fock, rng, fock.level_dim(n))
            coords[-1] = np.nan
            assert np.isnan(modular.flow_residual(t, word, from_vector(fock, coords, n)))


def test_arguments_of_the_wrong_length_are_refused(fock_mixed):
    with pytest.raises(BuildError, match="level-2 argument of length 9 expected"):
        from_vector(fock_mixed, np.ones(8), 2)
    with pytest.raises(BuildError, match="level-2 argument of length 9 expected"):
        from_vector(fock_mixed, np.ones((9, 1)), 2)
    with pytest.raises(BuildError, match="span coordinates of length 121 expected"):
        span_operator(fock_mixed, np.ones(120))


def test_an_exact_word_takes_its_adjoint_in_floats(fock_exact):
    # as documented, an exact word's adjoint G^-1 X^* G is solved in floats:
    # the float inverse Gram times the float product, the float solve to roundoff
    vec = np.array([Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(1, 5)], dtype=object)
    word = from_vector(fock_exact, vec, 2)
    got = word.adjoint_matrix()
    assert got.dtype == complex
    gram = to_float(fock_exact.full_gram)
    want = np.linalg.solve(gram, to_float(word.dense()).conj().T.dot(gram))
    assert max_abs(got - want) <= 1e-12 * max_abs(want)
    # and it is the word of the closed argument, the reversed word
    closed = from_vector(fock_exact, vec[[0, 2, 1, 3]], 2)
    assert max_abs(got - to_float(closed.dense())) <= 1e-12 * max_abs(want)
