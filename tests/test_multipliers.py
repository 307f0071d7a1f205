"""Radial multipliers, second quantization, and the approximation net."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from qfock.config import load_config
from qfock.errors import BuildError
from qfock.fock import TruncatedFock
from qfock.hilbert import build_space
from qfock.linalg import (
    block_diag,
    gram_inner,
    hermitize,
    kron_power,
    max_abs,
    min_gen_eig,
    op_norm,
    to_float,
)
from qfock.modular import ModularData
from qfock.multipliers import (
    MAX_AMPLIFICATION,
    ContractionFamily,
    RadialSymbol,
    _as_scalar,
    _ascent_direction,
    _realize,
    _realized_norm,
    _scan,
    _whitened_stack,
    amplified_norm_estimate,
    amplified_norm_scan,
    check_quantizable,
    net_element,
    net_majorant,
    net_pointwise_defect,
    radial_apply,
    radial_matrix,
    second_quantize,
    second_quantize_matrix,
    tail_series,
)
from qfock.wick import (
    _level_entries,
    basis_word_operator,
    from_vector,
    span_operator,
    vacuum_expectation,
    wick_operator,
)

from conftest import in_frame

APPROX_Q = [[0.3, -0.2], [-0.2, 0.55]]


@pytest.fixture(scope="module")
def fock3():
    setup = build_space(APPROX_Q, [("rotation", 0, 2.0), ("fixed", 1)])
    return TruncatedFock(setup, n_max=3)


@pytest.fixture(scope="module")
def family3(fock3):
    return ContractionFamily(fock3.setup)


@pytest.fixture(scope="module")
def small_fock():
    setup = build_space([[0.5]], [("fixed", 0)])
    return TruncatedFock(setup, n_max=3)


def random_word(fock, rng, level):
    vec = rng.standard_normal(fock.level_dim(level)) + 1j * rng.standard_normal(
        fock.level_dim(level)
    )
    return from_vector(fock, vec, level)


# commutes with U_t and A: rotation block gets a multiple of a rotation,
# the fixed vector an independent scale; given in e-coordinates and carried
# into the frame of fock3's setup, where it is diagonal
def commuting_contraction():
    e_map = np.array([[0.6, -0.3, 0.0], [0.3, 0.6, 0.0], [0.0, 0.0, 0.7]])
    setup = build_space(APPROX_Q, [("rotation", 0, 2.0), ("fixed", 1)])
    return in_frame(setup, e_map)


def test_radial_symbol_shapes():
    f2 = RadialSymbol.kronecker(2)
    assert [f2.at(n) for n in range(4)] == [0.0, 0.0, 1.0, 0.0]
    b1 = RadialSymbol((1.0, 1.0))
    assert [b1.at(n) for n in range(4)] == [1.0, 1.0, 0.0, 0.0]
    ones = RadialSymbol((), 1.0)
    assert ones.at(17) == 1.0
    with pytest.raises(BuildError):
        RadialSymbol((1.0, math.inf))


def test_radial_projections_partition_identity(fock3):
    total = sum(
        radial_matrix(fock3, RadialSymbol.kronecker(n))
        for n in range(fock3.n_max + 1)
    )
    assert np.array_equal(total, np.eye(fock3.total_dim))
    for n in range(fock3.n_max + 1):
        fn = radial_matrix(fock3, RadialSymbol.kronecker(n))
        for m in range(fock3.n_max + 1):
            fm = radial_matrix(fock3, RadialSymbol.kronecker(m))
            expected = fn if n == m else np.zeros_like(fn)
            assert np.array_equal(fn.dot(fm), expected)


def test_radial_apply_projects_levels(fock3, rng):
    w = random_word(fock3, rng, 3)
    killed = radial_apply(RadialSymbol((1.0, 1.0, 1.0)), w)
    assert max_abs(killed.argument) == 0.0
    assert max_abs(killed.dense()) == 0.0
    kept = radial_apply(RadialSymbol((), 1.0), w)
    assert np.array_equal(kept.argument, w.argument)
    assert np.array_equal(kept.dense(), w.dense())
    delta = radial_apply(RadialSymbol.kronecker(3), w)
    assert np.array_equal(delta.argument, w.argument)


def test_scalar_quantization_fast_path_is_bitwise(fock3, rng):
    s = math.exp(-0.35)
    contraction = s * np.eye(3)
    for level in range(fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        out = second_quantize(fock3, contraction, w)
        assert max_abs(out.argument - s**level * w.argument) == 0.0
        assert max_abs(out.dense() - s**level * w.dense()) == 0.0


def test_scalar_path_matches_kron_route(fock3, rng):
    s = 0.8
    contraction = s * np.eye(3)
    for level in range(1, fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        fast = second_quantize(fock3, contraction, w)
        slow = from_vector(fock3, kron_power(contraction, level).dot(w.argument), level)
        assert max_abs(fast.argument - slow.argument) <= 1e-12
        assert max_abs(fast.dense() - slow.dense()) <= 1e-12


def test_generic_quantization_acts_legwise(fock3):
    contraction = commuting_contraction()
    xi = np.array([0.4, -0.1, 0.0])
    eta = np.array([0.0, 0.0, -0.5])
    w = wick_operator(fock3, [xi, eta])
    out = second_quantize(fock3, contraction, w)
    expected = np.kron(contraction.dot(xi), contraction.dot(eta))
    assert max_abs(out.argument - expected) <= 1e-13


def test_quantization_preserves_vacuum_state(fock3, rng):
    contraction = commuting_contraction()
    for level in range(fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        before = vacuum_expectation(fock3, w.dense())
        after = vacuum_expectation(fock3, second_quantize(fock3, contraction, w).dense())
        if level == 0:
            assert after == before
        else:
            assert before == 0.0 and after == 0.0


def test_quantization_fixes_identity(fock3):
    one = from_vector(fock3, np.ones(1), 0)
    out = second_quantize(fock3, commuting_contraction(), one)
    assert np.array_equal(out.dense(), one.dense())


def test_quantization_commutes_with_level_projections(fock3):
    gamma = second_quantize_matrix(fock3, commuting_contraction())
    for n in range(fock3.n_max + 1):
        fn = radial_matrix(fock3, RadialSymbol.kronecker(n))
        assert max_abs(fn.dot(gamma) - gamma.dot(fn)) == 0.0


def test_quantization_commutes_on_words_exactly(fock3, rng):
    contraction = commuting_contraction()
    for level in range(fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        for n in range(fock3.n_max + 1):
            symbol = RadialSymbol.kronecker(n)
            left = radial_apply(symbol, second_quantize(fock3, contraction, w))
            right = second_quantize(fock3, contraction, radial_apply(symbol, w))
            assert max_abs(left.argument - right.argument) == 0.0
            assert max_abs(left.dense() - right.dense()) == 0.0


def test_quantization_precondition_rejections(fock3):
    with pytest.raises(BuildError, match="norm"):
        check_quantizable(fock3.setup, 1.5 * np.eye(3))
    mixing = np.zeros((3, 3))
    mixing[0, 2] = 0.1
    with pytest.raises(BuildError, match="couples blocks"):
        check_quantizable(fock3.setup, mixing)
    # diagonal in e-coordinates, so it stretches the rotation plane unevenly
    skew = in_frame(fock3.setup, np.diag([0.9, 0.2, 0.5]))
    with pytest.raises(BuildError, match="commute"):
        check_quantizable(fock3.setup, skew)
    with pytest.raises(BuildError, match="3x3"):
        check_quantizable(fock3.setup, np.eye(2))
    # one consolidated error carrying every violation
    bad = 2.0 * np.eye(3)
    bad[2, 0] = 0.3
    with pytest.raises(BuildError) as info:
        check_quantizable(fock3.setup, bad)
    assert len(info.value.violations) >= 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_map_is_refused_before_its_norm(fock3, bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(BuildError) as info:
        check_quantizable(fock3.setup, matrix)
    assert info.value.violations == [
        "a one-particle map needs a finite matrix; entries (1, 2) are not finite"
    ]


def test_contraction_family_members(fock3, family3):
    setup = fock3.setup
    assert family3.size == setup.n_blocks + 1
    assert np.array_equal(family3.member(family3.size - 1), np.eye(setup.dim))
    assert max_abs(family3.member(0)) == 0.0
    g = to_float(setup.u_gram)
    for k in range(family3.size):
        t_k = family3.member(k)
        assert op_norm(t_k, g, g) <= 1 + 1e-12
        u = setup.u_matrix(0.9)
        assert max_abs(t_k.dot(u) - u.dot(t_k)) <= 1e-13
    with pytest.raises(BuildError):
        family3.member(family3.size)


def test_contraction_family_modular_symmetry(fock3, family3):
    modular = ModularData(fock3)
    m = modular.j_matrix(1)
    for k in range(family3.size):
        t_k = family3.member(k)
        sandwiched = m.dot(np.conj(t_k).dot(np.conj(m)))
        assert max_abs(sandwiched - t_k) <= 1e-13


def test_net_element_validation(fock3, family3):
    with pytest.raises(BuildError):
        net_element(fock3, family3, fock3.n_max + 1, 0.5, 2)
    with pytest.raises(BuildError):
        net_element(fock3, family3, 2, 0.0, 2)
    with pytest.raises(BuildError):
        net_element(fock3, family3, 2, 0.5, family3.size)


def test_net_identity_contraction_defect(fock3, family3, rng):
    t = 0.4
    element = net_element(fock3, family3, fock3.n_max, t, family3.size - 1)
    for level in range(fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        gram = to_float(fock3.gram(level))
        norm = math.sqrt(abs(gram_inner(w.argument, w.argument, gram)))
        defect = net_pointwise_defect(element, w, surrogate=1.0)
        assert defect == pytest.approx(abs(math.exp(-level * t) - 1.0) * norm, abs=1e-12)


def test_net_kills_beyond_cutoff(fock3, family3, rng):
    element = net_element(fock3, family3, 2, 0.3, family3.size - 1)
    w = random_word(fock3, rng, 3)
    image = element.apply(w)
    assert max_abs(image.argument) == 0.0
    gram = to_float(fock3.gram(3))
    norm = math.sqrt(abs(gram_inner(w.argument, w.argument, gram)))
    assert net_pointwise_defect(element, w, surrogate=1.0) == pytest.approx(norm, rel=1e-12)


def test_net_small_time_first_order_bound(fock3, family3, rng):
    t = 0.01
    element = net_element(fock3, family3, fock3.n_max, t, family3.size - 1)
    for level in range(fock3.n_max + 1):
        w = random_word(fock3, rng, level)
        gram = to_float(fock3.gram(level))
        norm = math.sqrt(abs(gram_inner(w.argument, w.argument, gram)))
        defect = net_pointwise_defect(element, w, surrogate=1.0)
        assert defect <= 0.02 * fock3.n_max * norm + 1e-12


def test_net_surrogate_path_stays_close(fock3, family3):
    # surrogate = max(1, estimate) stays at 1 for this norm-1 element, so
    # the defect matches the analytic value up to estimator roundoff
    t = 1.0 / 20.0
    element = net_element(fock3, family3, fock3.n_max, t, family3.size - 1)
    xi = np.zeros(3)
    xi[2] = 1.0 / math.sqrt(to_float(fock3.setup.u_gram)[2, 2].real)
    w = wick_operator(fock3, [xi])
    surrogate = max(1.0, amplified_norm_estimate(fock3, element.argument_matrix(), 2))
    defect = net_pointwise_defect(element, w, surrogate=surrogate)
    assert defect == pytest.approx(1.0 - math.exp(-t), abs=1e-6)
    assert defect < 0.05


def test_net_partial_rank_drops_missing_block(fock3, family3):
    element = net_element(fock3, family3, fock3.n_max, 0.2, 1)
    xi = np.array([0.0, 0.0, 1.0])
    w = wick_operator(fock3, [xi])
    image = element.apply(w)
    assert max_abs(image.argument) == 0.0
    eta = np.array([1.0, 0.5, 0.0])
    kept = element.apply(wick_operator(fock3, [eta]))
    assert max_abs(kept.argument - math.exp(-0.2) * eta) <= 1e-13


def test_argument_matrix_matches_apply(fock3, family3, rng):
    element = net_element(fock3, family3, 2, 0.7, 1)
    matrix = element.argument_matrix()
    coords = rng.standard_normal(fock3.total_dim) + 1j * rng.standard_normal(
        fock3.total_dim
    )
    mapped = matrix.dot(coords)
    for level in range(fock3.n_max + 1):
        seg = coords[fock3.level_slice(level)]
        w = from_vector(fock3, seg, level)
        image = element.apply(w)
        assert max_abs(mapped[fock3.level_slice(level)] - image.argument) <= 1e-12


# per-level assembly loops as written before the shared level-diagonal helper
def radial_matrix_by_levels(fock, symbol):
    blocks = []
    for n in range(fock.n_max + 1):
        blocks.append(symbol.at(n) * np.eye(fock.level_dim(n)))
    return block_diag(blocks)


def second_quantize_matrix_by_levels(fock, matrix):
    scalar = _as_scalar(matrix)
    blocks = []
    for n in range(fock.n_max + 1):
        if scalar is not None:
            blocks.append(scalar**n * np.eye(fock.level_dim(n)))
        else:
            blocks.append(kron_power(matrix, n))
    return block_diag(blocks)


def argument_matrix_by_levels(element):
    one = element.contraction()
    scalar = _as_scalar(one)
    blocks = []
    for n in range(element.fock.n_max + 1):
        if n > element.length_cut:
            blocks.append(np.zeros((element.fock.level_dim(n),) * 2))
        elif scalar is not None:
            blocks.append(scalar**n * np.eye(element.fock.level_dim(n)))
        else:
            blocks.append(kron_power(one, n))
    return block_diag(blocks)


def assert_same_array(ours, oracle):
    assert ours.dtype == oracle.dtype
    assert np.array_equal(ours, oracle)


def test_level_matrices_match_the_per_level_loops(fock3, family3):
    symbols = [
        RadialSymbol.kronecker(1),
        RadialSymbol((1.0, 1.0, 1.0)),
        RadialSymbol((), 0.3),
        RadialSymbol((1.0, 0.5), 0.25j),
    ]
    for symbol in symbols:
        assert_same_array(
            radial_matrix(fock3, symbol), radial_matrix_by_levels(fock3, symbol)
        )
    for one in (commuting_contraction(), 0.5 * np.eye(3), np.eye(3)):
        assert_same_array(
            second_quantize_matrix(fock3, one),
            second_quantize_matrix_by_levels(fock3, one),
        )
    # the scalar member the command line uses and a non-scalar member
    for index in (family3.size - 1, 1):
        for length_cut in range(fock3.n_max + 1):
            element = net_element(fock3, family3, length_cut, 0.4, index)
            assert_same_array(
                element.argument_matrix(), argument_matrix_by_levels(element)
            )


def test_tail_series_closed_form():
    assert tail_series(0, math.log(2.0)) == pytest.approx(6.0, rel=1e-12)
    for beyond, t in [(2, 1.0), (3, 0.7), (5, 0.25), (0, 2.0)]:
        x = math.exp(-t)
        closed = x * (1 + x) / (1 - x) ** 3
        partial = sum(k * k * x**k for k in range(1, beyond + 1))
        assert tail_series(beyond, t) == pytest.approx(closed - partial, rel=1e-12)


def test_tail_series_monotone_and_small():
    values = [tail_series(n, 0.5) for n in range(8)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
    assert tail_series(3, 4.0) < 1e-3
    with pytest.raises(BuildError):
        tail_series(2, 0.0)
    with pytest.raises(BuildError):
        tail_series(2, float("nan"))
    assert net_majorant(3, 4.0) == pytest.approx(1.0 + tail_series(3, 4.0))


# -1 divided by zero, -3 summed from k = -2 and 2.5 over half-integers
@pytest.mark.parametrize("beyond", [-1, -3, 2.5, 3.0, True, None])
def test_the_tail_refuses_a_start_that_is_not_a_nonnegative_integer(beyond):
    for call in (tail_series, net_majorant):
        with pytest.raises(BuildError, match="nonnegative integer beyond"):
            call(beyond, 1.0)


def test_a_numpy_integer_start_sums_as_the_same_python_int():
    # x**k with an np.int64 k went through numpy's power: the last bit moved
    for beyond in (0, 1, 3, 7):
        for t in (0.1, 0.5, 1.0, 4.0):
            for call in (tail_series, net_majorant):
                want = call(beyond, t)
                for start in (np.int64(beyond), np.int32(beyond), np.uint8(beyond)):
                    got = call(start, t)
                    assert type(got) is float and got == want, (call.__name__, start, t)


def test_sampled_positivity_of_quantization(fock3, rng):
    contraction = commuting_contraction()
    gamma = second_quantize_matrix(fock3, contraction)
    modular = ModularData(fock3)
    gram = to_float(fock3.full_gram)
    for _ in range(20):
        coords = rng.standard_normal(fock3.total_dim) + 1j * rng.standard_normal(
            fock3.total_dim
        )
        coords *= 0.5
        hermitian = coords + modular.s_full_apply(coords)
        realized = to_float(span_operator(fock3, hermitian))
        shift = op_norm(realized, gram, gram) + 0.1
        positive = np.array(hermitian, dtype=complex)
        positive[0] += shift
        image = to_float(span_operator(fock3, gamma.dot(positive)))
        assert min_gen_eig(gram.dot(image), gram) >= -1e-8


def test_amplified_estimate_identity_map(small_fock):
    scan = amplified_norm_scan(small_fock, np.eye(small_fock.total_dim), 3)
    for value in scan:
        assert value == pytest.approx(1.0, abs=1e-12)


def _block_realize(fock, witness):
    """Oracle realization: block (a, b) is the span operator of witness[a, b]."""
    size = witness.shape[0]
    d = fock.total_dim
    big = np.zeros((size * d, size * d), dtype=complex)
    for a in range(size):
        for b in range(size):
            big[a * d : (a + 1) * d, b * d : (b + 1) * d] = to_float(
                span_operator(fock, witness[a, b])
            )
    return big


def dense_whitened_stack(fock):
    """Oracle of the level-block stack: all D whitened basis-word operators
    L^H R_i L^-H as one dense (D, D, D) array, full_gram = L L^H."""
    d = fock.total_dim
    lower = np.linalg.cholesky(hermitize(to_float(fock.full_gram)))
    left = lower.conj().T
    right = np.linalg.solve(lower, np.eye(d)).conj().T
    words = [fock.basis_words(n) for n in range(fock.n_max + 1)]
    for n, level in enumerate(words):
        _level_entries(fock, n, level)
    stack = np.empty((d, d, d), dtype=complex)
    for i, word in enumerate(itertools.chain.from_iterable(words)):
        stack[i] = left.dot(to_float(basis_word_operator(fock, word))).dot(right)
    return stack


def dense_realize(dense, witnesses):
    """Oracle of ``_realize``: one (s^2 x D) by (D x D^2) product on the
    dense stack."""
    *batch, size, _, d = witnesses.shape
    blocks = witnesses.reshape(-1, d).dot(dense.reshape(d, d * d))
    big = blocks.reshape(*batch, size, size, d, d).swapaxes(-3, -2)
    return big.reshape(*batch, size * d, size * d)


def dense_direction(stack, dense, matrix, witness):
    """Oracle of ``_ascent_direction``: the gradient u_a^H S_i v_b as one
    (2 s^2 x D^2) by (D^2 x D) product on the dense stack, from the singular
    pairs of the level-block realization, so only the gradient differs."""
    size, _, d = witness.shape
    pair = np.stack([witness, witness.dot(matrix.T)])
    left, sigma, right = np.linalg.svd(_realize(stack, pair), full_matrices=False)
    u = left[:, :, 0].reshape(2, size, d).conj()
    v = right[:, 0, :].reshape(2, size, d).conj()
    outer = np.einsum("kap,kbq->kabpq", u, v).reshape(2 * size * size, d * d)
    g = outer.dot(dense.reshape(d, d * d).T).reshape(2, size, size, d)
    below, above = sigma[:, 0]
    direction = np.conj(g[1].dot(matrix) - (above / below) * g[0])
    return direction / np.linalg.norm(direction)


def scan_space(space, exact2, request):
    if space == "exact":
        return TruncatedFock(exact2, n_max=2)
    if space == "rotation":
        return TruncatedFock(build_space([[0.4]], [("rotation", 0, 2.0)]), n_max=3)
    return request.getfixturevalue(space)


@pytest.mark.parametrize("space", ["small_fock", "fock3", "rotation", "exact"])
def test_the_level_block_stack_realizes_as_the_dense_oracle(space, exact2, rng, request):
    fock = scan_space(space, exact2, request)
    stack, dense = _whitened_stack(fock), dense_whitened_stack(fock)
    d = fock.total_dim
    for size in (1, 2, 3):
        witness = rng.standard_normal((2, size, size, d)) + 1j * rng.standard_normal(
            (2, size, size, d)
        )
        realized, oracle = _realize(stack, witness), dense_realize(dense, witness)
        assert realized.shape == oracle.shape
        assert max_abs(realized - oracle) <= 1e-15 * max_abs(oracle)
        matrix = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        direction = _ascent_direction(stack, matrix, witness[0])
        expected = dense_direction(stack, dense, matrix, witness[0])
        assert max_abs(direction - expected) <= 1e-15 * max_abs(expected)


def test_the_stack_keeps_only_the_level_blocks_its_words_reach(fock3):
    # d = 3, n_max 3: D = 40
    stack, dims = _whitened_stack(fock3), [3**n for n in range(4)]
    held = sum(blocks.nbytes for _, _, _, blocks in stack)
    rule = sum(
        16 * dims[n] * dims[m] * dims[k]
        for m in range(4)
        for k in range(4)
        for n in range(4)
        if abs(m - k) <= n <= m + k and (m - k - n) % 2 == 0
    )
    assert held == rule == 439_792
    assert 16 * fock3.total_dim**3 == 1_024_000
    # the dense oracle is zero outside the kept blocks
    dense, kept = dense_whitened_stack(fock3), np.zeros((40, 40, 40), dtype=bool)
    for rows, cols, index, blocks in stack:
        kept[index, rows, cols] = True
        assert np.array_equal(dense[index, rows, cols], blocks)
    assert not np.any(dense[~kept])


def test_building_the_stack_allocates_no_dense_stack():
    setup = build_space(APPROX_Q, [("rotation", 0, 2.0), ("fixed", 1)])
    fock = TruncatedFock(setup, n_max=3)
    for n in range(fock.n_max + 1):
        _level_entries(fock, n, fock.basis_words(n))
    tracemalloc.start()
    try:
        _whitened_stack(fock)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kept blocks (439,792 bytes) and a few D x D scratch matrices,
    # below the 16 D^3 bytes of a dense stack alone
    assert peak < 16 * fock.total_dim**3


@pytest.mark.parametrize("space", ["small_fock", "fock3", "exact"])
def test_whitened_norm_matches_the_pencil_oracle(space, exact2, rng, request):
    if space == "exact":
        fock = TruncatedFock(exact2, n_max=2)
    else:
        fock = request.getfixturevalue(space)
    stack = _whitened_stack(fock)
    d = fock.total_dim
    for size in (1, 2, 3):
        gram = np.kron(np.eye(size), to_float(fock.full_gram))
        for _ in range(3):
            witness = rng.standard_normal((size, size, d)) + 1j * rng.standard_normal(
                (size, size, d)
            )
            oracle = op_norm(_block_realize(fock, witness), gram, gram)
            assert abs(_realized_norm(stack, witness) - oracle) <= 1e-12 * oracle


def test_amplified_scan_values_are_pencil_ratios_of_their_witnesses(small_fock):
    f1 = radial_matrix(small_fock, RadialSymbol.kronecker(1))
    # seed-7 values of the random search this scan replaced: lower bounds may only rise
    replaced = [1.4938356252387424, 1.5448869966155065, 1.5530510353353753]
    scan = _scan(small_fock, f1, 3, seed=7)
    assert amplified_norm_scan(small_fock, f1, 3, seed=7) == [value for value, _ in scan]
    for (value, witness), old in zip(scan, replaced):
        assert value >= old
        gram = np.kron(np.eye(witness.shape[0]), to_float(small_fock.full_gram))
        mapped = np.einsum("ij,abj->abi", f1, witness)
        pencil = op_norm(_block_realize(small_fock, mapped), gram, gram) / op_norm(
            _block_realize(small_fock, witness), gram, gram
        )
        assert abs(value - pencil) <= 1e-12 * pencil


def test_amplified_estimate_monotone_and_reproducible(small_fock):
    f1 = radial_matrix(small_fock, RadialSymbol.kronecker(1))
    scan = amplified_norm_scan(small_fock, f1, 3, seed=7)
    assert all(b >= a for a, b in zip(scan, scan[1:]))
    assert scan[0] > 0.1
    again = amplified_norm_scan(small_fock, f1, 3, seed=7)
    assert max(abs(a - b) for a, b in zip(scan, again)) <= 1e-6
    assert amplified_norm_estimate(small_fock, f1, 3, seed=7) == scan[-1]


@pytest.mark.parametrize("kind", ["kronecker", "cutoff"])
@pytest.mark.parametrize("space", ["small_fock", "fock3", "exact"])
def test_amplified_estimate_meets_the_radial_trivial_bound(space, kind, exact2, request):
    if space == "exact":
        fock = TruncatedFock(exact2, n_max=2)
    else:
        fock = request.getfixturevalue(space)
    for n in range(fock.n_max + 1):
        # the projection onto length n, or onto lengths up to n
        symbol = RadialSymbol.kronecker(n) if kind == "kronecker" else RadialSymbol((1.0,) * (n + 1))
        trivial = max(abs(symbol.at(k)) for k in range(fock.n_max + 1))
        estimate = amplified_norm_estimate(fock, radial_matrix(fock, symbol), 2)
        assert estimate >= trivial * (1 - 1e-12)


def test_length_one_projection_clears_the_trivial_bound_on_the_full_run_space():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full_run.yaml")
    fock = load_config(path).fock()
    f1 = radial_matrix(fock, RadialSymbol.kronecker(1))
    assert amplified_norm_estimate(fock, f1, 2) >= 1.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_amplified_scan_names_non_finite_entries(small_fock, bad):
    matrix = np.eye(small_fock.total_dim)
    matrix[2, 1] = bad
    with pytest.raises(BuildError, match=r"entries \(2, 1\) are not finite"):
        amplified_norm_scan(small_fock, matrix, 2)


def test_amplified_estimate_vacuum_projection_via_identity_witness(small_fock):
    f0 = radial_matrix(small_fock, RadialSymbol.kronecker(0))
    assert amplified_norm_estimate(small_fock, f0, 1) >= 1.0 - 1e-12


def test_amplified_estimate_guards(small_fock):
    with pytest.raises(BuildError):
        amplified_norm_scan(small_fock, np.eye(small_fock.total_dim), MAX_AMPLIFICATION + 1)
    with pytest.raises(BuildError):
        amplified_norm_scan(small_fock, np.eye(3), 2)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_amplified_scan_refuses_a_seed_that_is_not_a_nonnegative_integer(small_fock, seed):
    with pytest.raises(BuildError, match="seed must be a nonnegative integer"):
        amplified_norm_scan(small_fock, np.eye(small_fock.total_dim), 2, seed=seed)
