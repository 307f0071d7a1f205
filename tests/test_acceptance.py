"""Acceptance gate: one end-to-end check per core guarantee of the package.

Each test is self-contained and runs the full pipeline for its layer at the
pinned tolerances; `pytest -v tests/test_acceptance.py` prints one pass/fail
line per guarantee.  Tolerances are relative unless a comment says otherwise.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from qfock.combinatorics import all_reduced_words
from qfock.fock import TruncatedFock
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import gram_inner, max_abs, min_gen_eig, op_norm, to_float
from qfock.modular import ModularData, kms_residual, modular_flow
from qfock.moments import (
    MOMENT_TOLERANCE,
    MomentSpec,
    checked_moment,
    moment_matrix,
    moment_pairings,
)
from qfock.multipliers import (
    ContractionFamily,
    RadialSymbol,
    amplified_norm_estimate,
    net_element,
    net_pointwise_defect,
    radial_apply,
    radial_matrix,
    second_quantize,
    second_quantize_matrix,
    tail_series,
)
from qfock.ultra import (
    UmSpec,
    convergence_experiment,
    um_moment_closedform,
    um_moment_enumerate,
)
from qfock.wick import from_vector, span_operator, vacuum_expectation, wick_recursion_residual

from conftest import in_frame, random_spec

MIXED_Q = [[0.3, -0.2], [-0.2, 0.55]]
SEED = 20240817


def mixed_fock(n_max):
    setup = build_space(MIXED_Q, [("rotation", 0, 2.0), ("fixed", 1)])
    return TruncatedFock(setup, n_max)


def random_symmetric_q(rng, size, peak=0.9):
    raw = rng.uniform(-1.0, 1.0, size=(size, size))
    sym = (raw + raw.T) / 2
    top = np.max(np.abs(sym))
    return sym * (peak * rng.uniform(0.5, 1.0) / top)


def random_space(rng):
    # alternate between all-fixed geometries and a rotation block + fixed line
    if rng.integers(2):
        labels = int(rng.integers(2, 4))
        entries = random_symmetric_q(rng, labels)
        blocks = [("fixed", i) for i in range(labels)]
    else:
        entries = random_symmetric_q(rng, 2)
        lam = float(rng.uniform(1.0, 3.0))
        blocks = [("rotation", 0, lam), ("fixed", 1)]
    return build_space(entries, blocks)


def random_word(fock, rng, level):
    shape = fock.level_dim(level)
    vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return from_vector(fock, vec, level)


def commuting_contraction():
    # commutes with the rotation group and the generator on the mixed space;
    # given in e-coordinates and carried into the frame
    e_map = np.array([[0.6, -0.3, 0.0], [0.3, 0.6, 0.0], [0.0, 0.0, 0.7]])
    return in_frame(mixed_fock(1).setup, e_map)


def test_criterion_1_braid_relation_and_reduced_word_independence():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        fock = TruncatedFock(random_space(rng), 3)
        t01 = to_float(fock.t_amplified(0, 3))
        t12 = to_float(fock.t_amplified(1, 3))
        assert max_abs(t01 @ t12 @ t01 - t12 @ t01 @ t12) <= 1e-13

    # exact rational mode: the level-4 action of every permutation in S_4
    # is the same along each of its reduced words
    setup = build_space(
        DeformationMatrix.build([[F(1, 3), F(1, 7)], [F(1, 7), F(2, 5)]]),
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    fock = TruncatedFock(setup, 4)
    flips = [fock._flip(4, i) for i in range(3)]
    for perm in itertools.permutations(range(4)):
        expected = fock.pi_of(perm, 4)
        for word in all_reduced_words(perm):
            out = fock._identity_monomial(4)
            for letter in word:
                out = out.after(flips[letter])
            assert np.array_equal(out.matrix(True), expected)

    # one dense Fraction product ties the flips to the Kronecker assembly
    longest = (3, 2, 1, 0)
    dense = [fock.t_amplified(i, 4) for i in range(3)]
    out = np.array([[F(1) if i == j else F(0) for j in range(16)] for i in range(16)])
    for letter in all_reduced_words(longest)[0]:
        out = out.dot(dense[letter])
    assert np.array_equal(out, fock.pi_of(longest, 4))


def test_criterion_2_level_form_positivity():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        if rng.integers(2):
            labels = int(rng.integers(2, 4))
            entries = random_symmetric_q(rng, labels, peak=0.9)
            blocks = [("fixed", i) for i in range(labels)]
        else:
            entries = random_symmetric_q(rng, 2, peak=0.9)
            blocks = [("rotation", 0, float(rng.uniform(1.0, 3.0))), ("fixed", 1)]
        setup = build_space(entries, blocks)
        if setup.dim > 3:
            setup = build_space(entries[:2, :2], [("fixed", 0), ("fixed", 1)])
        fock = TruncatedFock(setup, 4)
        for n in range(5):
            assert fock.min_p_eigenvalue(n) > 1e-8


def test_criterion_3_creation_adjointness_and_norm_bound():
    fock = mixed_fock(3)
    rng = np.random.default_rng(SEED + 3)
    for trip in range(200):
        n = trip % fock.n_max
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(fock.level_dim(n)) + 1j * rng.standard_normal(
            fock.level_dim(n)
        )
        u = rng.standard_normal(fock.level_dim(n + 1)) + 1j * rng.standard_normal(
            fock.level_dim(n + 1)
        )
        create = to_float(fock.creation(xi, n))
        annihilate = to_float(fock.annihilation(xi, n + 1))
        lhs = np.conj(annihilate @ u) @ (to_float(fock.gram(n)) @ v)
        rhs = np.conj(u) @ (to_float(fock.gram(n + 1)) @ (create @ v))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    bound_scale = (1 - fock.t_norm) ** -0.5
    for n in range(fock.n_max):
        for i in range(fock.dim):
            xi = fock.setup.basis_vector(i)
            norm = op_norm(
                to_float(fock.creation(xi, n)),
                to_float(fock.gram(n + 1)),
                to_float(fock.gram(n)),
            )
            assert norm <= math.sqrt(abs(fock.setup.u_inner(xi, xi))) * bound_scale * (1 + 1e-10)


def test_criterion_4_wick_vacuum_recursion_and_splitting():
    fock = mixed_fock(4)
    rng = np.random.default_rng(SEED + 4)
    for n in range(fock.n_max + 1):
        vec = rng.standard_normal(fock.level_dim(n)) + 1j * rng.standard_normal(
            fock.level_dim(n)
        )
        word = from_vector(fock, vec, n)
        assert max_abs(word.vacuum_image() - fock.embed(vec, n)) <= 1e-12 * (
            1 + max_abs(vec)
        )

    def single_block_leg():
        vec = np.zeros(3, dtype=complex)
        if rng.integers(2):
            vec[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        else:
            vec[2] = complex(rng.standard_normal(), rng.standard_normal())
        return vec

    for rest_len in (1, 2):
        for _ in range(10):
            legs = [single_block_leg() for _ in range(rest_len + 1)]
            residual = wick_recursion_residual(fock, legs[0], legs[1:])
            assert residual <= 1e-10

    for n, k in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)):
        lhs = to_float(fock.p_matrix(n + k))
        rhs = np.kron(
            to_float(fock.p_matrix(n)), to_float(fock.p_matrix(k))
        ) @ to_float(fock.r_star(n, k))
        assert max_abs(lhs - rhs) <= 1e-12 * max(1.0, max_abs(lhs))
    d = fock.dim
    for n, k, l in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)):
        route_a = np.kron(np.eye(d**n), to_float(fock.r_star(k, l))) @ to_float(
            fock.r_star(n, k + l)
        )
        route_b = np.kron(to_float(fock.r_star(n, k)), np.eye(d**l)) @ to_float(
            fock.r_star(n + k, l)
        )
        assert max_abs(route_a - route_b) <= 1e-12


def test_criterion_5_moment_dual_path_agreement():
    assert MOMENT_TOLERANCE == 1e-9
    rng = np.random.default_rng(SEED + 5)
    focks = [
        TruncatedFock(build_space([[0.4, 0.15], [0.15, -0.3]], [("fixed", 0), ("fixed", 1)]), 3),
        mixed_fock(3),
    ]
    for i in range(100):
        fock = focks[i % 2]
        l = int(rng.integers(1, 7))
        spec = random_spec(fock.setup, rng, l)
        checked_moment(spec, fock)

    setup = build_space(
        DeformationMatrix.build([[F(3, 10)]]), [("fixed", 0)], exact=True
    )
    fock = TruncatedFock(setup, 2)
    e0 = setup.basis_vector(0)
    spec = MomentSpec.build(setup, [e0, e0, e0, e0])
    assert moment_pairings(spec, setup.deformation, setup) == 2 + F(3, 10)
    assert moment_matrix(spec, fock) == 2 + F(3, 10)


def test_criterion_6_modular_suite():
    fock = mixed_fock(4)
    modular = ModularData(fock)
    rng = np.random.default_rng(SEED + 6)

    for n in range(4):
        # the closing map's linear part: S on the identity's columns
        lhs = modular.s_apply(np.eye(fock.level_dim(n)), n)
        rhs = modular.j_matrix(n).dot(np.conj(modular.delta_power(0.5, n)))
        assert max_abs(lhs - rhs) <= 1e-11

    for n in (1, 2, 3):
        for _ in range(5):
            word = random_word(fock, rng, n)
            star_vac = word.adjoint_matrix().dot(fock.vacuum())
            closed = modular.s_full_apply(word.vacuum_image())
            assert max_abs(star_vac - closed) <= 1e-10 * (1 + max_abs(star_vac))

    kms_cap = fock.n_max // 2
    for _ in range(50):
        x = random_word(fock, rng, int(rng.integers(1, kms_cap + 1)))
        y = random_word(fock, rng, int(rng.integers(1, kms_cap + 1)))
        assert kms_residual(fock, x, y) <= 1e-10

    for t in (0.3, 1.0):
        word = random_word(fock, rng, 1)
        flowed = modular_flow(fock, t, word)
        u = modular.fock_unitary(-t)
        u_inv = modular.fock_unitary(t)
        assert max_abs(flowed.dense() - u.dot(word.dense()).dot(u_inv)) <= 1e-11


def test_criterion_7_approximation_suite():
    fock = mixed_fock(3)
    rng = np.random.default_rng(SEED + 7)
    gram = to_float(fock.full_gram)
    modular = ModularData(fock)

    for t in (0.3, 1.0):
        s = math.exp(-t)
        scaling = s * np.eye(3)
        for level in range(fock.n_max + 1):
            word = random_word(fock, rng, level)
            out = second_quantize(fock, scaling, word)
            assert max_abs(out.argument - s**level * word.argument) == 0.0
            assert max_abs(out.dense() - s**level * word.dense()) == 0.0

    contraction = commuting_contraction()
    gamma = second_quantize_matrix(fock, contraction)
    for level in range(fock.n_max + 1):
        word = random_word(fock, rng, level)
        before = vacuum_expectation(fock, word.dense())
        after = vacuum_expectation(
            fock, second_quantize(fock, contraction, word).dense()
        )
        assert abs(after - before) <= 1e-12 * (1 + abs(before))

    for level in range(fock.n_max + 1):
        word = random_word(fock, rng, level)
        for n in range(fock.n_max + 1):
            symbol = RadialSymbol.kronecker(n)
            left = radial_apply(symbol, second_quantize(fock, contraction, word))
            right = second_quantize(fock, contraction, radial_apply(symbol, word))
            assert max_abs(left.dense() - right.dense()) == 0.0
        fn = radial_matrix(fock, symbol)
        assert max_abs(fn.dot(gamma) - gamma.dot(fn)) == 0.0

    for _ in range(50):
        coords = 0.5 * (
            rng.standard_normal(fock.total_dim) + 1j * rng.standard_normal(fock.total_dim)
        )
        hermitian = coords + modular.s_full_apply(coords)
        realized = to_float(span_operator(fock, hermitian))
        shift = op_norm(realized, gram, gram) + 0.1
        positive = np.array(hermitian, dtype=complex)
        positive[0] += shift
        image = to_float(span_operator(fock, gamma.dot(positive)))
        assert min_gen_eig(gram.dot(image), gram) >= -1e-8

    family = ContractionFamily(fock.setup)
    full = family.size - 1
    words = []
    for i in range(fock.dim):
        coords = np.zeros(fock.level_dim(1), dtype=complex)
        coords[i] = 1.0
        norm = math.sqrt(abs(gram_inner(coords, coords, fock.gram(1))))
        words.append(from_vector(fock, coords / norm, 1))
    previous = [math.inf] * len(words)
    final = [math.inf] * len(words)
    for j in range(1, 21):
        element = net_element(fock, family, fock.n_max, 1.0 / j, full)
        estimate = float(
            amplified_norm_estimate(fock, element.argument_matrix(), 2, seed=SEED)
        )
        surrogate = max(1.0, estimate)
        for w, word in enumerate(words):
            defect = float(net_pointwise_defect(element, word, surrogate=surrogate))
            assert defect <= previous[w] + 1e-12
            previous[w] = defect
            final[w] = defect
    assert all(defect < 0.05 for defect in final)

    assert tail_series(3, 4.0) < 1e-3


def test_criterion_8_finite_dimension_averaging_convergence():
    unit = build_space(
        DeformationMatrix.build([[F(1, 3)]]), [("fixed", 0)], exact=True
    )
    ones = [unit.basis_vector(0)] * 2
    report = convergence_experiment(
        unit, ones, F(1, 2), F(3, 5), list(range(1, 9))
    )
    assert list(report.errors()) == [0.0] * 8

    q, qt = F(1, 2), F(3, 5)
    spec_vectors = [unit.basis_vector(0)] * 4
    for m in range(1, 7):
        target = (2 + q * qt) + F((2 + qt) * (2 + q) - (2 + q * qt), m)
        spec = UmSpec.build(unit, m, spec_vectors, q, qt)
        assert um_moment_enumerate(spec, unit) == target
        assert um_moment_closedform(spec, unit) == target

    floats = build_space([[1 / 3]], [("fixed", 0)])
    unit_vecs = [floats.basis_vector(0)] * 4
    report = convergence_experiment(floats, unit_vecs, 0.5, 0.6, list(range(2, 11)))
    assert -1.05 <= report.slope <= -0.90

    rng = np.random.default_rng(SEED + 8)
    for l in (2, 4, 6):
        vectors = [rng.standard_normal() * floats.basis_vector(0) for _ in range(l)]
        for m in (2, 3):
            spec = UmSpec.build(floats, m, vectors, 0.45, 0.7)
            enum = um_moment_enumerate(spec, floats)
            closed = um_moment_closedform(spec, floats)
            assert abs(enum - closed) <= 1e-12 * (1 + abs(closed))


def test_criterion_9_amplified_norm_report():
    fock = mixed_fock(3)
    identity = np.eye(fock.total_dim)
    assert amplified_norm_estimate(fock, identity, 2, seed=SEED) >= 1 - 1e-12

    for n in range(fock.n_max + 1):
        projector = radial_matrix(fock, RadialSymbol.kronecker(n))
        estimates = [
            amplified_norm_estimate(fock, projector, amp, seed=SEED)
            for amp in (1, 2, 3)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))
        repeat = amplified_norm_estimate(fock, projector, 2, seed=SEED)
        assert abs(repeat - estimates[1]) <= 1e-6
