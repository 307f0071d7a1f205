"""Moment evaluation: pairing combinatorics against the matrix oracle."""

from fractions import Fraction as F

import numpy as np
import pytest

from qfock.combinatorics import pair_partitions
from qfock.errors import BuildError, CutoffError, InvariantError
from qfock.fock import TruncatedFock
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import identity_matrix
from qfock.moments import (
    MomentSpec,
    checked_moment,
    moment_matrix,
    moment_pairings,
)
from qfock.wick import vacuum_expectation, wick_operator

from conftest import random_spec


def make_fock(entries, blocks, n_max, exact=False):
    setup = build_space(DeformationMatrix.build(entries), blocks, exact=exact)
    return TruncatedFock(setup, n_max)


@pytest.fixture(scope="module")
def single_block():
    return make_fock([[0.5]], [("fixed", 0)], 2)


@pytest.fixture(scope="module")
def two_blocks():
    entries = [[0.3, -0.5], [-0.5, 0.1]]
    return make_fock(entries, [("fixed", 0), ("fixed", 1)], 3)


@pytest.fixture(scope="module")
def rotation_space():
    entries = [[0.25, 0.4], [0.4, -0.3]]
    return make_fock(entries, [("rotation", 0, 2.0), ("fixed", 1)], 3)


def basis_spec(fock, *indices):
    setup = fock.setup
    vectors = [np.real(setup.basis_vector(i)) for i in indices]
    return MomentSpec.build(setup, vectors)


def test_odd_length_vanishes(single_block):
    spec = basis_spec(single_block, 0, 0, 0)
    setup = single_block.setup
    assert moment_pairings(spec, setup.deformation, setup) == 0
    assert abs(moment_matrix(spec, single_block)) <= 1e-12


def test_empty_word_has_moment_one(single_block):
    spec = MomentSpec.build(single_block.setup, [])
    setup = single_block.setup
    assert moment_pairings(spec, setup.deformation, setup) == 1
    assert moment_matrix(spec, single_block) == pytest.approx(1.0)


def test_length_two_is_the_inner_product(rotation_space):
    setup = rotation_space.setup
    v = np.array([0.7, -0.2, 0.0])
    w = np.array([0.1, 0.9, 0.0])
    spec = MomentSpec.build(setup, [v, w])
    expected = setup.u_inner(v, w)
    assert moment_pairings(spec, setup.deformation, setup) == expected
    assert abs(moment_matrix(spec, rotation_space) - expected) <= 1e-12


def test_length_two_orthogonal_blocks_vanish(two_blocks):
    spec = basis_spec(two_blocks, 0, 1)
    setup = two_blocks.setup
    assert moment_pairings(spec, setup.deformation, setup) == 0
    assert abs(moment_matrix(spec, two_blocks)) <= 1e-12


def test_uniform_fourth_moment(single_block):
    # pairings of 4 points: two non-crossing, one with a single crossing
    spec = basis_spec(single_block, 0, 0, 0, 0)
    setup = single_block.setup
    pairing = moment_pairings(spec, setup.deformation, setup)
    assert pairing == pytest.approx(2.5)
    assert moment_matrix(spec, single_block) == pytest.approx(2.5, abs=1e-12)


def test_uniform_fourth_moment_exact():
    fock = make_fock([[F(1, 3)]], [("fixed", 0)], 2, exact=True)
    spec = basis_spec(fock, 0, 0, 0, 0)
    setup = fock.setup
    assert moment_pairings(spec, setup.deformation, setup) == F(7, 3)
    assert moment_matrix(spec, fock) == F(7, 3)


def test_uniform_specialization():
    q = 0.4
    fock = make_fock(
        [[q, q], [q, q]], [("fixed", 0), ("fixed", 1)], 3
    )
    setup = fock.setup
    rng = np.random.default_rng(11)
    vectors = []
    for _ in range(6):
        v = np.zeros(2)
        v[rng.integers(2)] = rng.standard_normal()
        vectors.append(v)
    spec = MomentSpec.build(setup, vectors)
    direct = 0.0
    for nu in pair_partitions(6):
        term = q ** nu.crossing_number()
        for i, j in nu.pairs:
            term *= setup.u_inner(spec.vectors[i], spec.vectors[j])
        direct += term
    value = moment_pairings(spec, setup.deformation, setup)
    assert abs(value - direct) <= 1e-13 * (1 + abs(direct))


def test_dual_path_on_random_specs(rng):
    spaces = [
        make_fock([[0.5]], [("fixed", 0)], 3),
        make_fock([[-0.4]], [("rotation", 0, 1.8)], 3),
        make_fock([[0.3, -0.5], [-0.5, 0.1]], [("fixed", 0), ("fixed", 1)], 3),
        make_fock(
            [[0.25, 0.4], [0.4, -0.3]],
            [("rotation", 0, 2.2), ("fixed", 1)],
            3,
        ),
        make_fock(
            [[0.2, -0.3, 0.1], [-0.3, 0.6, 0.0], [0.1, 0.0, -0.5]],
            [("fixed", 0), ("fixed", 1), ("fixed", 2)],
            3,
        ),
    ]
    for trial in range(100):
        fock = spaces[trial % len(spaces)]
        l = int(rng.integers(0, 7))
        spec = random_spec(fock.setup, rng, l)
        setup = fock.setup
        pairing = moment_pairings(spec, setup.deformation, setup)
        matrix = moment_matrix(spec, fock)
        assert abs(pairing - matrix) <= 1e-9 * (1 + abs(pairing))


def moment_by_dense_product(spec, fock):
    """Vacuum entry of the full product W_1 ... W_l: the dense oracle."""
    prod = identity_matrix(fock.total_dim, fock.exact)
    for v in spec.vectors:
        prod = prod.dot(wick_operator(fock, [v]).dense())
    return vacuum_expectation(fock, prod)


def test_vacuum_propagation_matches_the_dense_product(rotation_space, rng):
    for l in (0, 1, 2, 3, 4, 5, 6):
        for _ in range(3):
            spec = random_spec(rotation_space.setup, rng, l)
            dense = moment_by_dense_product(spec, rotation_space)
            value = moment_matrix(spec, rotation_space)
            assert abs(value - dense) <= 1e-12 * (1 + abs(dense))


def test_vacuum_propagation_matches_the_dense_product_exactly():
    entries = [[F(1, 3), F(1, 7)], [F(1, 7), F(2, 5)]]
    fock = make_fock(entries, [("fixed", 0), ("fixed", 1)], 3, exact=True)
    words = [(0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 1)]
    for word in words:
        spec = MomentSpec.build(fock.setup, [fock.setup.basis_vector(i) for i in word])
        value = moment_matrix(spec, fock)
        assert isinstance(value, F)
        assert value == moment_by_dense_product(spec, fock)
        assert value == moment_pairings(spec, fock.setup.deformation, fock.setup)
    half = np.array([F(1, 2), F(0)], dtype=object)
    third = np.array([F(0), F(-1, 3)], dtype=object)
    spec = MomentSpec.build(fock.setup, [half, third, third, half])
    assert moment_matrix(spec, fock) == moment_by_dense_product(spec, fock)


def test_conjugate_symmetry_under_reversal(rotation_space, rng):
    setup = rotation_space.setup
    for _ in range(5):
        spec = random_spec(setup, rng, 4)
        reverse = MomentSpec(spec.vectors[::-1], spec.labels[::-1])
        forward = moment_matrix(spec, rotation_space)
        backward = moment_matrix(reverse, rotation_space)
        assert abs(backward - np.conj(forward)) <= 1e-12 * (1 + abs(forward))
        pair_fwd = moment_pairings(spec, setup.deformation, setup)
        pair_bwd = moment_pairings(reverse, setup.deformation, setup)
        assert abs(pair_bwd - np.conj(pair_fwd)) <= 1e-12 * (1 + abs(pair_fwd))


def test_checked_moment_agrees(rotation_space, rng):
    spec = random_spec(rotation_space.setup, rng, 4)
    value, _, _ = checked_moment(spec, rotation_space)
    setup = rotation_space.setup
    assert value == moment_pairings(spec, setup.deformation, setup)


def test_checked_moment_fails_loudly(single_block):
    # negative tolerance forces the disagreement branch deterministically
    spec = basis_spec(single_block, 0, 0)
    with pytest.raises(InvariantError, match="dual-path") as info:
        checked_moment(spec, single_block, tolerance=-1.0)
    replay = info.value.replay
    assert replay["labels"] == [0, 0]
    assert replay["n_max"] == single_block.n_max
    assert set(replay) >= {"vectors", "deformation", "pairing", "matrix", "gap"}


def test_checked_moment_fails_on_a_nan_word(single_block):
    # a NaN gap exceeds no tolerance by comparison, yet must fail the check
    spec = MomentSpec.build(single_block.setup, [np.array([np.nan]), np.array([1.0])])
    with pytest.raises(InvariantError, match="dual-path") as info:
        checked_moment(spec, single_block)
    assert np.isnan(info.value.replay["gap"])


def test_random_spec_shape(rotation_space, rng):
    spec = random_spec(rotation_space.setup, rng, 5)
    assert spec.l == 5
    block_of = rotation_space.setup.block_of
    for v, label in zip(spec.vectors, spec.labels):
        support = {block_of[i] for i in range(3) if v[i] != 0}
        assert support == {label}


def test_build_rejects_bad_words(rotation_space):
    setup = rotation_space.setup
    with pytest.raises(BuildError, match="real"):
        MomentSpec.build(setup, [np.array([1j, 0, 0])])
    with pytest.raises(BuildError, match="shape"):
        MomentSpec.build(setup, [np.ones(2)])
    with pytest.raises(BuildError, match="cap"):
        MomentSpec.build(setup, [np.eye(3)[0]] * 9)
    with pytest.raises(BuildError, match="spans blocks"):
        MomentSpec.build(setup, [np.array([1.0, 0.0, 1.0])])


def test_matrix_path_cutoff_guard(single_block):
    spec = basis_spec(single_block, *([0] * 6))
    with pytest.raises(CutoffError, match="cutoff"):
        moment_matrix(spec, single_block)
