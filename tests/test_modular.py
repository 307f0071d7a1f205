"""Modular data: reversal, generator powers, conjugation, flow, exchange."""

import itertools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from qfock.errors import CutoffError
from qfock.fock import TruncatedFock
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import block_diag, gram_inner, identity_matrix, kron_power, max_abs, to_float
from qfock.modular import ModularData, kms_residual, modular_flow
from qfock.wick import WickWord, field, from_vector, vacuum_expectation, wick_operator

from conftest import random_complex

MOD_Q = [[0.3, -0.2], [-0.2, 0.55]]
LAM = 2.0


@pytest.fixture(scope="module")
def fock4():
    setup = build_space(
        DeformationMatrix.build(MOD_Q),
        [("rotation", 0, LAM), ("fixed", 1)],
    )
    return TruncatedFock(setup, 4)


@pytest.fixture(scope="module")
def modular4(fock4):
    return ModularData(fock4)


@pytest.fixture(scope="module")
def exact_modular():
    setup = build_space(
        DeformationMatrix.build([[F(1, 3), F(1, 7)], [F(1, 7), F(2, 5)]]),
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    return ModularData(TruncatedFock(setup, 3))


def eigvec_pair(setup):
    """The generator's eigenvectors for lam and 1/lam on the first rotation
    block: its frame letters f_+ and f_-."""
    a, b = setup.rotations[0].indices
    return setup.basis_vector(a), setup.basis_vector(b)


def closing_matrix(md, n):
    """Linear part of the closing map on level n: S applied to the
    identity's columns, the reversal composed with C's letter swap."""
    return md.s_apply(identity_matrix(md.fock.level_dim(n), md.fock.exact), n)


def swap_matrix(md, n):
    """C's letter swap on every leg of level n, as a permutation matrix."""
    return md.fock.setup.involution(identity_matrix(md.fock.level_dim(n), md.fock.exact), n)


def random_word(fock, rng, n):
    shape = fock.level_dim(n)
    arg = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return from_vector(fock, arg, n)


def test_reversal_permutes_words(fock4, modular4):
    rev2 = modular4.reversal(2)
    for idx in range(fock4.level_dim(2)):
        word = fock4.index_word(idx, 2)
        target = fock4.word_index(word[::-1])
        col = np.zeros(fock4.level_dim(2))
        col[target] = 1.0
        assert np.array_equal(to_float(rev2[:, idx]), col)
    assert max_abs(rev2.dot(rev2) - np.eye(9)) == 0
    assert to_float(modular4.reversal(0))[0, 0] == pytest.approx(1.0)
    assert max_abs(modular4.reversal(1) - np.eye(3)) == 0


def test_s_reverses_real_simple_tensors(modular4, rng):
    # real vectors, given in e-coordinates, are the frame vectors C fixes
    x = modular4.fock.setup.frame_vector(rng.standard_normal(3))
    y = modular4.fock.setup.frame_vector(rng.standard_normal(3))
    out = modular4.s_apply(np.kron(x, y), 2)
    assert max_abs(out - np.kron(y, x)) <= 1e-14


def test_s_is_an_involution(fock4, modular4, rng):
    for n in range(fock4.n_max + 1):
        v = rng.standard_normal(fock4.level_dim(n)) + 1j * rng.standard_normal(
            fock4.level_dim(n)
        )
        back = modular4.s_apply(modular4.s_apply(v, n), n)
        assert max_abs(back - v) <= 1e-14


def test_delta_scales_generator_eigenvectors(fock4, modular4):
    plus, _ = eigvec_pair(fock4.setup)
    image = modular4.delta_power(1, 1).dot(plus)
    assert max_abs(image - plus / LAM) <= 1e-12


def test_delta_matches_tensor_power_oracle(fock4, modular4):
    for z in (1.0, 0.5, -1.0, 0.3 + 0.7j):
        one = fock4.setup.a_power(-z)
        assert max_abs(modular4.delta_power(z, 2) - np.kron(one, one)) <= 1e-12
    assert to_float(modular4.delta_power(0.77, 0))[0, 0] == pytest.approx(1.0)


def test_delta_group_law(modular4, fock4):
    samples = (0.4, -1.0, 0.2 - 0.5j)
    for n in (2, 3):
        for z in samples:
            for w in samples:
                lhs = modular4.delta_power(z, n).dot(modular4.delta_power(w, n))
                rhs = modular4.delta_power(z + w, n)
                assert max_abs(lhs - rhs) <= 1e-11


def test_delta_imaginary_powers_are_gram_unitary(fock4, modular4):
    for t in (0.3, 1.0):
        for n in range(fock4.n_max + 1):
            m = modular4.delta_power(1j * t, n)
            g = to_float(fock4.gram(n))
            assert max_abs(np.conj(m).T.dot(g).dot(m) - g) <= 1e-11


def test_tomita_decomposition(fock4, modular4, exact_modular):
    # closing map = conjugation composed with positive part: linear parts
    # must satisfy S = j_matrix . conj(delta^{1/2}) on every level
    for n in range(fock4.n_max + 1):
        lhs = to_float(closing_matrix(modular4, n))
        rhs = modular4.j_matrix(n).dot(np.conj(modular4.delta_power(0.5, n)))
        assert max_abs(lhs - rhs) <= 1e-11
    md = exact_modular
    for n in range(md.fock.n_max + 1):
        rhs = md.j_matrix(n).dot(np.conj(md.delta_power(0.5, n)))
        assert np.array_equal(rhs, md.reversal(n))
        assert np.array_equal(rhs, closing_matrix(md, n))


def test_j_matrix_is_the_dense_reversal_product(fock4, modular4, exact_modular):
    # the row and column permutations equal the dense products with the
    # permutation matrices entry for entry (up to the sign of zeros)
    for md in (modular4, exact_modular):
        setup = md.fock.setup
        for n in range(md.fock.n_max + 1):
            half = kron_power(setup.a_power(-0.5), n)
            dense = md.reversal(n).dot(half).dot(swap_matrix(md, n))
            assert np.array_equal(md.j_matrix(n), dense)


def test_j_is_an_antiunitary_involution(fock4, modular4, rng):
    for n in range(fock4.n_max + 1):
        m = modular4.j_matrix(n)
        eye = np.eye(fock4.level_dim(n))
        assert max_abs(m.dot(np.conj(m)) - eye) <= 1e-12
        g = to_float(fock4.gram(n))
        v = rng.standard_normal(fock4.level_dim(n)) + 1j * rng.standard_normal(
            fock4.level_dim(n)
        )
        w = rng.standard_normal(fock4.level_dim(n)) + 1j * rng.standard_normal(
            fock4.level_dim(n)
        )
        lhs = gram_inner(m.dot(np.conj(v)), m.dot(np.conj(w)), g)
        rhs = np.conj(gram_inner(v, w, g))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_j_real_tensor_formula(fock4, modular4, rng):
    half = fock4.setup.a_power(-0.5)
    x = fock4.setup.frame_vector(rng.standard_normal(3))
    y = fock4.setup.frame_vector(rng.standard_normal(3))
    out = modular4.j_matrix(2).dot(np.conj(np.kron(x, y)))
    expected = np.kron(half.dot(y), half.dot(x))
    assert max_abs(out - expected) <= 1e-12


def test_s_matches_wick_adjoints(fock4, modular4, rng):
    # the closing map must send x Omega to x* Omega
    for n in (1, 2, 3):
        word = random_word(fock4, rng, n)
        star_vac = word.adjoint_matrix().dot(fock4.vacuum())
        closed = modular4.s_full_apply(word.vacuum_image())
        assert max_abs(star_vac - closed) <= 1e-10


def test_fock_unitary_fixes_vacuum_and_gram(fock4, modular4):
    for t in (0.0, 0.3, 1.0):
        u = modular4.fock_unitary(t)
        assert max_abs(u.dot(fock4.vacuum()) - fock4.vacuum()) <= 1e-13
        g = to_float(fock4.full_gram)
        assert max_abs(np.conj(u).T.dot(g).dot(u) - g) <= 1e-11
    assert max_abs(modular4.fock_unitary(0.0) - np.eye(fock4.total_dim)) == 0


def test_fock_unitary_matches_the_per_level_loop(modular4, exact_modular):
    for modular in (modular4, exact_modular):
        for t in (0.0, 0.3, -1.7):
            oracle = block_diag(
                [modular.unitary_level(t, n) for n in range(modular.fock.n_max + 1)]
            )
            ours = modular.fock_unitary(t)
            assert ours.dtype == oracle.dtype
            assert np.array_equal(ours, oracle)


def test_fock_unitary_intertwines_fields(fock4, modular4, rng):
    xi = fock4.setup.frame_vector(rng.standard_normal(3))
    for t in (0.3, 1.0):
        u = modular4.fock_unitary(t)
        u_inv = modular4.fock_unitary(-t)
        moved = u.dot(field(fock4, xi).dense()).dot(u_inv)
        direct = field(fock4, fock4.setup.u_matrix(t).dot(xi)).dense()
        assert max_abs(moved - direct) <= 1e-11


def test_modular_flow_at_real_times(fock4, modular4, rng):
    word = random_word(fock4, rng, 2)
    frozen = modular_flow(fock4, 0.0, word)
    assert max_abs(frozen.dense() - word.dense()) <= 1e-12
    for t in (0.3, 1.0):
        flowed = modular_flow(fock4, t, word)
        u = modular4.fock_unitary(-t)
        u_inv = modular4.fock_unitary(t)
        conj = u.dot(word.dense()).dot(u_inv)
        assert max_abs(flowed.dense() - conj) <= 1e-11


def test_flow_scales_eigenvector_words(fock4):
    plus, _ = eigvec_pair(fock4.setup)
    word = wick_operator(fock4, [plus])
    flowed = modular_flow(fock4, -1j, word)
    assert max_abs(flowed.argument - plus / LAM) <= 1e-12
    assert max_abs(flowed.dense() - word.dense() / LAM) <= 1e-12


def test_exchange_identity_orientation(fock4):
    plus, minus = eigvec_pair(fock4.setup)
    x = wick_operator(fock4, [plus])
    y = wick_operator(fock4, [minus])
    assert kms_residual(fock4, x, y) <= 1e-10
    # the misoriented form (flow on the left factor) fails by 2(lam - 1)
    lhs = vacuum_expectation(fock4, x.dense().dot(y.dense()))
    flowed_y = modular_flow(fock4, -1j, y)
    bad = vacuum_expectation(fock4, flowed_y.dense().dot(x.dense()))
    assert abs(lhs - bad) > 2 * (LAM - 1) - 0.1


def test_exchange_identity_on_random_words(fock4, rng):
    for _ in range(10):
        x = random_word(fock4, rng, int(rng.integers(1, 3)))
        y = random_word(fock4, rng, int(rng.integers(1, 3)))
        assert kms_residual(fock4, x, y) <= 1e-10


def kms_residual_by_dense_products(fock, x, y):
    """Exchange residual from the full operator products: the dense oracle."""
    flowed = modular_flow(fock, -1j, x)
    lhs = vacuum_expectation(fock, x.dense().dot(y.dense()))
    rhs = vacuum_expectation(fock, y.dense().dot(flowed.dense()))
    return abs(complex(lhs - rhs))


def test_kms_residual_matches_the_dense_products(fock4, rng):
    plus, minus = eigvec_pair(fock4.setup)
    pairs = [(wick_operator(fock4, [plus]), wick_operator(fock4, [minus]))]
    for _ in range(8):
        pairs.append(
            (
                random_word(fock4, rng, int(rng.integers(1, 3))),
                random_word(fock4, rng, int(rng.integers(1, 3))),
            )
        )
    # an operator that is not the Wick realization of its argument breaks
    # the identity, so the routes are also compared on an order-one residual
    x = random_word(fock4, rng, 1)
    size = (fock4.total_dim, fock4.total_dim)
    scrambled = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    every = (np.arange(scrambled.size), scrambled.ravel())
    pairs.append((WickWord(fock4, 1, x.argument, every), x))
    for x, y in pairs:
        dense = kms_residual_by_dense_products(fock4, x, y)
        assert abs(kms_residual(fock4, x, y) - dense) <= 1e-12
    assert kms_residual(fock4, *pairs[-1]) > 0.1


def kms_on_the_cut_and_the_space(fock, args, levels):
    """``kms_residual`` of the words of the arguments ``args`` on ``levels``,
    realized on the cut at n_max // 2 and on the whole space."""
    return [
        kms_residual(space, *(from_vector(space, a, n) for a, n in zip(args, levels)))
        for space in (fock.truncated(fock.n_max // 2), fock)
    ]


def test_kms_residual_on_the_cut_is_the_full_space_residual(fock4, rng):
    setup = build_space(DeformationMatrix.build(MOD_Q), [("fixed", 0), ("fixed", 1)])
    # every level pair up to the cut's top level, on a rotation and a fixed space
    for fock in (fock4, TruncatedFock(setup, 4)):
        for lx, ly in itertools.product((1, 2), repeat=2):
            args = [random_complex(rng, fock.level_dim(n)) for n in (lx, ly)]
            on_cut, full = kms_on_the_cut_and_the_space(fock, args, (lx, ly))
            assert abs(on_cut - full) <= 1e-13


def test_exact_kms_residual_on_the_cut_is_the_full_space_residual():
    setup = build_space(
        DeformationMatrix.build([[F(1, 3), F(1, 7)], [F(1, 7), F(2, 5)]]),
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    fock = TruncatedFock(setup, 4)
    for lx, ly in itertools.product((1, 2), repeat=2):
        args = [np.array([F(k % 5 - 2, 3) for k in range(2**n)], dtype=object) for n in (lx, ly)]
        on_cut, full = kms_on_the_cut_and_the_space(fock, args, (lx, ly))
        assert on_cut == full


def test_state_invariance_under_flow(fock4, modular4, rng):
    for t in (0.3, 1.0, 2.2):
        u = modular4.fock_unitary(-t)
        u_inv = modular4.fock_unitary(t)
        x = random_word(fock4, rng, 1)
        y = random_word(fock4, rng, 2)
        prod = x.dense().dot(y.dense())
        moved = u.dot(prod).dot(u_inv)
        before = vacuum_expectation(fock4, prod)
        after = vacuum_expectation(fock4, moved)
        assert abs(before - after) <= 1e-12 * (1 + abs(before))


def test_exact_mode_modular_data(exact_modular):
    md = exact_modular
    fock = md.fock
    rev = md.reversal(2)
    assert rev.dtype == object
    assert np.array_equal(md.j_matrix(2), rev)
    assert np.array_equal(md.delta_power(3, 2), np.eye(4, dtype=object) * F(1))
    # reversal swaps the coordinates of the words (0,1) and (1,0)
    v = np.array([F(1, 2), F(0), F(1, 3), F(0)], dtype=object)
    out = md.s_apply(v, 2)
    assert out[0] == F(1, 2) and out[1] == F(1, 3) and out[2] == 0


def test_level_guard(modular4):
    with pytest.raises(CutoffError):
        modular4.delta_power(1.0, 7)


def test_blockwise_conjugation_matches_the_dense_unitary_product(
    fock4, modular4, exact_modular, rng
):
    # the flow residual read off entry lists against the dense conjugation by
    # the quantized group element: a word with every entry filled, against
    # its dense conjugate, as well as Wick words against their flows
    size = fock4.total_dim
    full = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    every = WickWord(fock4, 1, np.zeros(fock4.level_dim(1)), (np.arange(size**2), full.ravel()))
    for t in (0.3, -1.0, 2.5):
        u = modular4.fock_unitary(-t)
        u_inv = modular4.fock_unitary(t)
        dense = u.dot(full).dot(u_inv)
        conj = WickWord(fock4, 1, every.argument, (every.entries[0], dense.ravel()))
        assert modular4.flow_residual(t, every, conj) <= 1e-14 * max_abs(dense)
        for n in (1, 2):
            word = random_word(fock4, rng, n)
            dense = u.dot(to_float(word.dense())).dot(u_inv)
            flowed = modular_flow(fock4, t, word)
            fast = modular4.flow_residual(t, word, flowed)
            assert abs(fast - max_abs(to_float(flowed.dense()) - dense)) <= 1e-12
            assert fast <= 1e-10
    # exact spaces: the group is trivial and the flow reproduces the word exactly
    md = exact_modular
    word = from_vector(md.fock, np.array([F(1, 2), F(-2, 3)], dtype=object), 1)
    assert md.flow_residual(0.7, word, modular_flow(md.fock, 0.7, word)) == 0


# -- the elementwise checks against their dense routes --------------------------


@pytest.fixture(scope="module")
def modular_wide():
    """d = 5 with two rotation blocks at n_max 4: level 4 has 625 words, and
    one complex level block is 16 * 625^2 = 6.25 MB."""
    setup = build_space(MOD_Q, [("rotation", 0, 2.0), ("fixed", 1), ("rotation", 1, 1.5)])
    return ModularData(TruncatedFock(setup, 4))


def dense_decomposition_gap(md, n):
    """J Delta^{1/2} less S as one level matrix, on linear parts: the dense route."""
    gap = md.j_matrix(n).dot(np.conj(md.delta_power(0.5, n)))
    return gap - closing_matrix(md, n)


def p_power_gap(md, n):
    """The n-th Kronecker power of P = A^{-1/2} C A^{-1/2} C less the
    identity, as one level matrix, C the conjugation composed with the
    letter swap: what the decomposition check reads off P's diagonal."""
    half = md.fock.setup.a_power(-0.5)
    swap = swap_matrix(md, 1)
    power = kron_power(half.dot(swap.dot(np.conj(half)).dot(swap)), n)
    return power - np.eye(len(power))


def test_decomposition_residual_is_the_dense_route(modular4, modular_wide, exact_modular):
    for md in (modular4, modular_wide, exact_modular):
        for n in range(md.fock.n_max + 1):
            got = md.decomposition_residual(n)
            assert got == float(max_abs(p_power_gap(md, n))), f"level {n}"
            # the level-sized dense route agrees up to its own rounding
            assert abs(got - max_abs(dense_decomposition_gap(md, n))) <= 1e-14, f"level {n}"
    assert max(modular_wide.decomposition_residual(n) for n in range(5)) > 0
    assert all(exact_modular.decomposition_residual(n) == 0 for n in range(4))


def test_decomposition_check_holds_less_than_a_level_block(modular_wide):
    tracemalloc.start()
    try:
        modular_wide.decomposition_residual(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # read off P's diagonal, the check holds no level matrix and less than
    # 32 columns of one (the level-sized route peaked at 2.32 MB)
    assert peak < 16 * 625 * 32, f"peak {peak} B"


def test_flow_check_holds_less_than_a_level_block(modular_wide, rng):
    # the check holds the two words' entry lists, scaled and merged, and
    # the merge's keys: 80 B per entry (69 B measured, 0.45 MB at level 1
    # and 2.27 MB at level 2), less than one level block (1.25 MB, 6.25 MB)
    fock = modular_wide.fock
    peaks = []
    for level in (1, 2):
        coords = rng.standard_normal(5**level) + 1j * rng.standard_normal(5**level)
        word = from_vector(fock, coords, level)
        flowed = modular_flow(fock, 0.3, word)
        tracemalloc.start()
        try:
            modular_wide.flow_residual(0.3, word, flowed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = len(word.entries[0]) + len(flowed.entries[0])
        assert peak < 80 * entries, f"level {level}: peak {peak} B, {entries} entries"
        peaks.append(peak)
    assert peaks[0] < 600_000, f"peak {peaks[0]} B"


def largest_block_bytes(fock, *words):
    """Bytes of the largest dense level block holding an entry of a word."""
    starts = [fock.level_offset(n) for n in range(1, fock.n_max + 1)]
    largest = 0
    for word in words:
        rows, cols = np.divmod(word.entries[0], fock.total_dim)
        r = np.searchsorted(starts, rows, side="right")
        c = np.searchsorted(starts, cols, side="right")
        for rl, cl in set(zip(r.tolist(), c.tolist())):
            largest = max(largest, 16 * fock.level_dim(rl) * fock.level_dim(cl))
    return largest


def flow_check_peak(md, rng, level):
    """(traced peak of the flow check of a random level-``level`` word,
    bytes of its largest level block)."""
    fock = md.fock
    coords = rng.standard_normal(5**level) + 1j * rng.standard_normal(5**level)
    word = from_vector(fock, coords, level)
    flowed = modular_flow(fock, 0.3, word)
    block = largest_block_bytes(fock, word, flowed)
    tracemalloc.start()
    try:
        md.flow_residual(0.3, word, flowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, block


@pytest.mark.parametrize("level", [1, 2])
def test_flow_check_holds_one_level_block_and_one_run(modular_wide, rng, level):
    peak, block = flow_check_peak(modular_wide, rng, level)
    # the bound of the blockwise route: one dense level block, two runs of 32
    # columns of level 4 (625 words) and index scratch.  The entry-list check
    # holds no block at all, so it stays well inside
    run = 16 * 625 * 32
    assert peak < block + 2 * run + 2**17, f"peak {peak} B, block {block} B"


def test_the_level_one_flow_check_holds_one_level_block_and_slice_scratch(modular_wide, rng):
    # the level-1 bound of the blockwise route, which conjugated its largest
    # block (625 x 125 entries) in place beside the moduli of one slice
    peak, block = flow_check_peak(modular_wide, rng, 1)
    assert peak < block + 2**18, f"peak {peak} B, block {block} B"


def test_the_flow_of_a_level_zero_word_is_the_word(fock4):
    word = from_vector(fock4, np.array([2.0 - 1.0j]), 0)
    for z in (0.3, -1j):
        assert modular_flow(fock4, z, word) is word
