"""Modular data: reversal, generator powers, conjugation, flow, exchange."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from qfock.errors import CutoffError
from qfock.fock import TruncatedFock
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import SLAB_COLUMNS, block_diag, gram_inner, kron_power, max_abs, to_float
from qfock.modular import ModularData, kms_residual, modular_flow
from qfock.wick import WickWord, field, from_vector, vacuum_expectation, wick_operator

from conftest import one_shot_legwise

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
    a, b = setup.rotations[0].indices
    e = np.eye(setup.dim, dtype=complex)
    plus = (e[a] - 1j * e[b]) / np.sqrt(2)
    minus = (e[a] + 1j * e[b]) / np.sqrt(2)
    return plus, minus


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
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
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
    # must satisfy reversal = j_matrix . conj(delta^{1/2}) on every level
    for n in range(fock4.n_max + 1):
        lhs = to_float(modular4.reversal(n))
        rhs = modular4.j_matrix(n).dot(np.conj(modular4.delta_power(0.5, n)))
        assert max_abs(lhs - rhs) <= 1e-11
        # the CLI's route: J applied leg by leg to the level matrix of delta^{1/2}
        legwise = modular4.j_apply(modular4.delta_power(0.5, n), n)
        assert max_abs(legwise - rhs) <= 1e-14 * max_abs(rhs)
    md = exact_modular
    for n in range(md.fock.n_max + 1):
        assert np.array_equal(md.j_apply(md.delta_power(0.5, n), n), md.reversal(n))


def test_j_matrix_is_the_dense_reversal_product(fock4, modular4, exact_modular):
    # the row permutation equals the dense product with the permutation
    # matrix entry for entry (up to the sign of zeros)
    for md in (modular4, exact_modular):
        setup = md.fock.setup
        for n in range(md.fock.n_max + 1):
            half = kron_power(setup.a_power(-0.5), n)
            dense = md.reversal(n).dot(half)
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
        lhs = gram_inner(modular4.j_apply(v, n), modular4.j_apply(w, n), g)
        rhs = np.conj(gram_inner(v, w, g))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_j_real_tensor_formula(fock4, modular4, rng):
    half = fock4.setup.a_power(-0.5)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    out = modular4.j_apply(np.kron(x, y), 2)
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
    xi = rng.standard_normal(3)
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
    # a full matrix as well as Wick words: every level block is conjugated
    shape = (fock4.total_dim,) * 2
    full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for t in (0.3, -1.0, 2.5):
        u = modular4.fock_unitary(t)
        u_inv = modular4.fock_unitary(-t)
        dense = u.dot(full).dot(u_inv)
        blockwise = modular4.unitary_conjugate(t, full)
        assert max_abs(blockwise - dense) <= 1e-14 * max_abs(dense)
        for n in (1, 2):
            word = random_word(fock4, rng, n)
            dense = u.dot(to_float(word.dense())).dot(u_inv)
            blockwise = modular4.unitary_conjugate(t, word.dense())
            assert max_abs(blockwise - dense) <= 1e-12
            # the CLI's flow residual, against the dense route
            flowed = modular_flow(fock4, -t, word).dense()
            fast = max_abs(flowed - blockwise)
            assert abs(fast - max_abs(flowed - dense)) <= 1e-12
            assert fast <= 1e-10
    # exact spaces: the group is trivial and conjugation reproduces X exactly
    md = exact_modular
    word = from_vector(md.fock, np.array([F(1, 2), F(-2, 3)], dtype=object), 1)
    dense = md.fock_unitary(0.7).dot(word.dense()).dot(md.fock_unitary(-0.7))
    assert np.array_equal(md.unitary_conjugate(0.7, word.dense()), to_float(dense))


# -- the checks by runs of columns against their dense routes --------------------


@pytest.fixture(scope="module")
def modular_wide():
    """d = 5 with two rotation blocks at n_max 4: level 4 has 625 words, ten
    runs of columns, and one complex level block is 16 * 625^2 = 6.25 MB."""
    setup = build_space(MOD_Q, [("rotation", 0, 2.0), ("fixed", 1), ("rotation", 1, 1.5)])
    return ModularData(TruncatedFock(setup, 4))


def dense_decomposition_gap(md, n):
    """J Delta^{1/2} less the reversal as one level matrix: the dense route."""
    gap = md.j_apply(md.delta_power(0.5, n), n)
    gap[md.reversed_index(n), np.arange(md.fock.level_dim(n))] -= 1
    return gap


def test_decomposition_residual_is_the_dense_route(modular4, modular_wide, exact_modular):
    for md in (modular4, modular_wide, exact_modular):
        for n in range(md.fock.n_max + 1):
            dense = float(max_abs(dense_decomposition_gap(md, n)))
            assert md.decomposition_residual(n) == dense, f"level {n}"
    assert max(modular_wide.decomposition_residual(n) for n in range(5)) > 0
    assert all(exact_modular.decomposition_residual(n) == 0 for n in range(4))


def test_decomposition_check_holds_less_than_a_level_block(modular_wide):
    tracemalloc.start()
    try:
        modular_wide.decomposition_residual(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense route peaked at 25 MB, four level blocks
    assert peak < 16 * 625**2, f"peak {peak} B"


def test_conjugate_block_is_the_one_shot_transpose_route(modular_wide, rng):
    fock, md = modular_wide.fock, modular_wide
    setup = fock.setup
    for r, c in [(4, 3), (3, 4), (4, 4), (2, 4)]:
        shape = (fock.level_dim(r), fock.level_dim(c))
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for t in (0.3, -1.0):
            left, right = setup.u_matrix(t), setup.u_matrix(-t).T
            dense = one_shot_legwise(right, c, one_shot_legwise(left, r, block).T).T
            handed = block.copy()
            out = md.conjugate_block(t, r, c, handed)
            assert out is handed  # transformed in place
            assert out.tobytes() == np.ascontiguousarray(dense).tobytes()


def test_flow_check_holds_less_than_a_level_block(modular_wide, rng):
    fock = modular_wide.fock
    word = from_vector(fock, rng.standard_normal(5) + 1j * rng.standard_normal(5), 1)
    flowed = modular_flow(fock, 0.3, word)
    tracemalloc.start()
    try:
        modular_wide.flow_residual(0.3, word, flowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # five blocks of 625 x 125 entries used to be held at once
    assert peak < 16 * 625**2, f"peak {peak} B"


@pytest.mark.parametrize("level", [1, 2])
def test_flow_check_holds_one_level_block_and_one_run(modular_wide, rng, level):
    fock = modular_wide.fock
    coords = rng.standard_normal(5**level) + 1j * rng.standard_normal(5**level)
    word = from_vector(fock, coords, level)
    flowed = modular_flow(fock, 0.3, word)
    pairs = word.level_pairs() | flowed.level_pairs()
    block = max(16 * fock.level_dim(r) * fock.level_dim(c) for r, c in pairs)
    run = 16 * fock.level_dim(fock.n_max) * SLAB_COLUMNS
    tracemalloc.start()
    try:
        modular_wide.flow_residual(0.3, word, flowed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a run's product holds its input and its output; the rest is index
    # scratch.  A second dense block for ``flowed`` took the level-1 check
    # to 3.8 MB, and the moduli of a whole block the level-2 one to 18.8 MB
    assert peak < block + 2 * run + 2**17, f"peak {peak} B, block {block} B"


def test_the_flow_of_a_level_zero_word_is_the_word(fock4):
    word = from_vector(fock4, np.array([2.0 - 1.0j]), 0)
    for z in (0.3, -1j):
        assert modular_flow(fock4, z, word) is word
