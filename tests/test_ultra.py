"""Finite-m averaged moments: dual evaluators, limits, remainder decay."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qfock.combinatorics import pair_partitions
from qfock.errors import BuildError
from qfock.fock import TruncatedFock
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import to_float
from qfock.moments import MomentSpec, moment_pairings
from qfock.ultra import (
    MAX_AUX_DIM,
    MAX_UM_LENGTH,
    UmSpec,
    aux_deformation_matrix,
    convergence_experiment,
    effective_deformation,
    fitted_slope,
    recursion_remainder_norm,
    um_moment_closedform,
    um_moment_enumerate,
)
from qfock.wick import wick_operator

MIXED_Q = [[0.3, -0.2], [-0.2, 0.55]]


@pytest.fixture(scope="module")
def rot_space():
    return build_space(MIXED_Q, [("rotation", 0, 2.0), ("fixed", 1)])


@pytest.fixture(scope="module")
def unit_space():
    # one-dimensional trivial-group base, exact arithmetic
    return build_space([[Fraction(1, 3)]], [("fixed", 0)], exact=True)


def single_block_vectors(rng, count):
    out = []
    for _ in range(count):
        v = np.zeros(3)
        if rng.random() < 0.5:
            v[:2] = rng.standard_normal(2)
        else:
            v[2] = rng.standard_normal()
        out.append(v)
    return out


def brute_um_moment(spec, setup):
    """Ungrouped oracle: sum over every auxiliary multi-index, first factor
    through the generic pairing evaluator on an explicit auxiliary space."""
    m, l = spec.m, spec.l
    zero = Fraction(0) if setup.exact else complex(0)
    if np.ndim(spec.q_tilde) == 0:
        entries = [[spec.q_tilde for _ in range(m)] for _ in range(m)]
    else:
        n = spec.q_tilde.shape[0]
        entries = [
            [spec.q_tilde[a, b] if a < n and b < n else zero * 0 for b in range(m)]
            for a in range(m)
        ]
    aux_setup = build_space(entries, [("fixed", i) for i in range(m)], exact=setup.exact)
    aux_def = DeformationMatrix.build(entries)
    total = zero
    for k in itertools.product(range(m), repeat=l):
        vecs = [aux_setup.basis_vector(a) for a in k]
        phi1 = moment_pairings(MomentSpec.build(aux_setup, vecs), aux_def, aux_setup)
        if phi1 == 0:
            continue
        phi2 = zero
        for nu in pair_partitions(l):
            if any(k[i] != k[j] for i, j in nu.pairs):
                continue
            w = spec.q ** nu.crossing_number()
            for i, j in nu.pairs:
                w = w * setup.u_inner(spec.vectors[i], spec.vectors[j])
            phi2 = phi2 + w
        total = total + phi1 * phi2
    return total / m ** (l // 2)


def test_two_letter_moment_ignores_aux_dimension_and_shape(rot_space):
    f1 = np.array([0.7, -0.2, 0.0])
    f2 = np.array([0.1, 0.4, 0.0])
    ref = rot_space.u_inner(f1, f2)
    for m, qt in ((1, 0.8), (3, 0.2), (7, -0.5)):
        spec = UmSpec.build(rot_space, m, [f1, f2], 0.5, qt)
        assert um_moment_enumerate(spec, rot_space) == pytest.approx(ref, abs=1e-15)


def test_odd_lengths_vanish(rot_space, unit_space):
    f = np.array([0.7, -0.2, 0.0])
    spec = UmSpec.build(rot_space, 2, [f, f, f], 0.5, 0.4)
    assert um_moment_enumerate(spec, rot_space) == 0
    e = [Fraction(1)]
    spec = UmSpec.build(unit_space, 2, [e], Fraction(1, 2), Fraction(1, 4))
    value = um_moment_enumerate(spec, unit_space)
    assert value == 0 and isinstance(value, Fraction)
    assert um_moment_closedform(spec, unit_space) == 0


def test_empty_word_gives_one(unit_space):
    spec = UmSpec.build(unit_space, 4, [], Fraction(1, 2), Fraction(1, 4))
    assert um_moment_enumerate(spec, unit_space) == 1
    assert um_moment_closedform(spec, unit_space) == 1


def test_enumeration_matches_ungrouped_sum_float(rot_space):
    rng = np.random.default_rng(7)
    vecs = single_block_vectors(rng, 4)
    spec = UmSpec.build(rot_space, 3, vecs, 0.45, 0.7)
    got = um_moment_enumerate(spec, rot_space)
    want = brute_um_moment(spec, rot_space)
    assert got == pytest.approx(want, abs=1e-12)
    long_spec = UmSpec.build(rot_space, 2, vecs + vecs[:2], 0.45, 0.7)
    got = um_moment_enumerate(long_spec, rot_space)
    want = brute_um_moment(long_spec, rot_space)
    assert got == pytest.approx(want, abs=1e-12)


def test_enumeration_matches_ungrouped_sum_exact_matrix_shape():
    setup = build_space(
        [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(1, 5)]],
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    shape = [[Fraction(2, 5), Fraction(1, 5)], [Fraction(1, 5), Fraction(-3, 10)]]
    vecs = [
        [Fraction(1), Fraction(0)],
        [Fraction(1, 2), Fraction(0)],
        [Fraction(1), Fraction(0)],
        [Fraction(2), Fraction(0)],
    ]
    # m exceeds the declared shape size, so zero extension is exercised
    spec = UmSpec.build(setup, 3, vecs, Fraction(1, 2), shape)
    got = um_moment_enumerate(spec, setup)
    assert got == brute_um_moment(spec, setup)
    assert got != 0


def test_uniform_four_letter_fixture_exact(unit_space):
    e = [Fraction(1)]
    q, qt = Fraction(1, 2), Fraction(3, 5)
    diagonal = 2 + qt * q
    correction = (2 + qt) * (2 + q) - diagonal
    for m in range(1, 7):
        spec = UmSpec.build(unit_space, m, [e, e, e, e], q, qt)
        expect = diagonal + correction * Fraction(1, m)
        assert um_moment_enumerate(spec, unit_space) == expect
        assert um_moment_closedform(spec, unit_space) == expect


def test_closedform_agrees_with_enumeration_when_uniform(unit_space):
    e = [Fraction(1)]
    q, qt = Fraction(2, 5), Fraction(-1, 3)
    for l in (0, 2, 4, 6):
        for m in (1, 2, 3):
            spec = UmSpec.build(unit_space, m, [e] * l, q, qt)
            assert um_moment_enumerate(spec, unit_space) == um_moment_closedform(
                spec, unit_space
            )


def test_closedform_rejects_matrix_shape(rot_space):
    f = np.array([0.7, -0.2, 0.0])
    spec = UmSpec.build(rot_space, 2, [f, f], 0.5, [[0.4]])
    with pytest.raises(BuildError, match="closed form"):
        um_moment_closedform(spec, rot_space)


def test_finite_size_error_is_exactly_first_order(rot_space):
    # for four letters the join of two distinct pairings has one block, so
    # the whole finite-size error sits at order 1/m
    rng = np.random.default_rng(21)
    for _ in range(10):
        vecs = single_block_vectors(rng, 4)
        q = float(rng.uniform(0.2, 0.8))
        qt = float(rng.uniform(-0.8, 0.8))
        target = moment_pairings(
            MomentSpec.build(rot_space, vecs),
            effective_deformation(rot_space, q, qt),
            rot_space,
        )
        first = UmSpec.build(rot_space, 1, vecs, q, qt)
        coeff = um_moment_closedform(first, rot_space) - target
        for m in (2, 5):
            spec = UmSpec.build(rot_space, m, vecs, q, qt)
            got = um_moment_enumerate(spec, rot_space)
            assert got == pytest.approx(target + coeff / m, abs=1e-12)


def test_convergence_slope_matches_inverse_law(unit_space):
    e = [Fraction(1)]
    report = convergence_experiment(
        unit_space, [e] * 4, Fraction(1, 2), Fraction(3, 5), range(2, 11)
    )
    assert report.aux_dims == tuple(range(2, 11))
    assert report.slope == pytest.approx(-1.0, abs=0.01)
    errors = report.errors()
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_two_letter_errors_identically_zero_exact(unit_space):
    e = [Fraction(1)]
    report = convergence_experiment(
        unit_space, [e, e], Fraction(1, 2), Fraction(3, 5), [2, 3, 4]
    )
    assert report.errors() == (0.0, 0.0, 0.0)
    assert report.slope is None


def test_single_surviving_pairing_keeps_shape_correction():
    # the first-factor pairing sum never sees the base vectors, so killing
    # all but one second-factor pairing still leaves a 1/m correction
    setup = build_space(
        [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(1, 5)]],
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    a = [Fraction(1), Fraction(0)]
    b = [Fraction(0), Fraction(1)]
    q, qt = Fraction(1, 2), Fraction(3, 5)
    target = moment_pairings(
        MomentSpec.build(setup, [a, a, b, b]),
        effective_deformation(setup, q, qt),
        setup,
    )
    assert target == 1
    for m in (1, 2, 5):
        spec = UmSpec.build(setup, m, [a, a, b, b], q, qt)
        error = um_moment_enumerate(spec, setup) - target
        assert error == (1 + qt) * Fraction(1, m)


def test_fully_orthogonal_word_has_zero_error():
    setup = build_space(
        [[Fraction(0)] * 4 for _ in range(4)],
        [("fixed", i) for i in range(4)],
        exact=True,
    )
    vecs = [setup.basis_vector(i) for i in range(4)]
    report = convergence_experiment(
        setup, vecs, Fraction(1, 2), Fraction(3, 5), [2, 3]
    )
    assert complex(report.target) == 0
    assert report.errors() == (0.0, 0.0)


def test_nonuniform_shape_convergence_is_reported_only():
    # for nonconstant shapes the limit identification is outside the
    # verified regime; the report carries the data without asserting decay
    setup = build_space(
        [[0.25, 0.0], [0.0, 0.2]], [("fixed", 0), ("fixed", 1)]
    )
    shape = [[0.5, 0.2], [0.2, -0.3]]
    vecs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    report = convergence_experiment(setup, vecs, 0.5, shape, [2, 3, 4, 5])
    rows = report.rows()
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {
            "m",
            "value_re",
            "value_im",
            "target_re",
            "target_im",
            "abs_error",
        }
        assert np.isfinite(row["abs_error"])


def test_report_rows_structure(unit_space):
    e = [Fraction(1)]
    report = convergence_experiment(
        unit_space, [e] * 4, Fraction(1, 2), Fraction(3, 5), [2, 4]
    )
    rows = report.rows()
    assert [row["m"] for row in rows] == [2, 4]
    for row in rows:
        assert set(row) == {
            "m",
            "value_re",
            "value_im",
            "target_re",
            "target_im",
            "abs_error",
        }
        assert isinstance(row["value_re"], float)
        assert row["target_im"] == 0.0


def test_fitted_slope_ignores_floor_points():
    assert fitted_slope([2, 3], [0.0, 0.0]) is None
    assert fitted_slope([2, 4, 8], [1.0, 0.5, 0.25]) == pytest.approx(-1.0)


def test_effective_deformation_shapes(rot_space):
    d = effective_deformation(rot_space, 0.5, 0.6)
    assert to_float(np.asarray(d.entries)) == pytest.approx(0.3 * np.ones((2, 2)))
    with pytest.raises(BuildError, match="covers"):
        effective_deformation(rot_space, 0.5, [[0.4]])


def test_aux_deformation_matrix_zero_extension():
    out = aux_deformation_matrix([[0.5, 0.2], [0.2, -0.3]], 4)
    assert out[:2, :2] == pytest.approx(np.array([[0.5, 0.2], [0.2, -0.3]]))
    assert np.all(out[2:, :] == 0.0) and np.all(out[:, 2:] == 0.0)
    assert aux_deformation_matrix(0.7, 3) == pytest.approx(0.7 * np.ones((3, 3)))


def dense_remainder_oracle(m, q, qt, scales):
    """Assemble the remainder on the vacuum in the full two-factor tensor
    model, one-letter pieces through actual Wick operators."""
    shape = aux_deformation_matrix(qt, m)
    first = TruncatedFock(build_space(shape, [("fixed", i) for i in range(m)]), n_max=3)
    second = TruncatedFock(
        build_space(q * np.ones((m, m)), [("fixed", i) for i in range(m)]), n_max=3
    )
    s = [float(x) for x in scales]

    def vac(fock):
        v = np.zeros(fock.total_dim, dtype=complex)
        v[0] = 1.0
        return v

    def one_letter(fock, a, scale=1.0):
        vec = np.zeros(fock.setup.dim)
        vec[a] = scale
        return to_float(wick_operator(fock, [vec]).dense())

    def basis3(fock, word):
        v = np.zeros(fock.total_dim, dtype=complex)
        v[fock.level_offset(3) + fock.word_index(word)] = 1.0
        return v

    joint = {}

    def add(nx, ny, xfull, yfull, coeff):
        block = coeff * np.kron(xfull[first.level_slice(nx)], yfull[second.level_slice(ny)])
        joint[nx, ny] = joint.get((nx, ny), 0) + block

    for i, hat in ((2, 1), (3, 2)):
        rest = [p for p in range(3) if p != hat]
        for others in itertools.permutations(range(m), 2):
            k = [0, 0, 0]
            k[rest[0]], k[rest[1]] = others
            k[hat] = k[0]
            word = tuple(k)
            x3 = basis3(first, word)
            y3 = basis3(second, word) * (s[0] * s[1] * s[2])
            add(3, 3, x3, y3, 1.0)
            a, b = rest
            kappa2 = s[0] * s[hat] * q ** (i - 1)
            y_pair = one_letter(second, k[a], s[a]).dot(
                one_letter(second, k[b], s[b]).dot(vac(second))
            )
            for ny in (0, 2):
                add(3, ny, x3, y_pair, kappa2)
            kappa3 = 1.0 if i == 2 else shape[k[2], k[1]]
            x_pair = one_letter(first, k[a]).dot(one_letter(first, k[b]).dot(vac(first)))
            for nx in (0, 2):
                add(nx, 3, x_pair, y3, kappa3)

    total = 0.0
    for (nx, ny), vec in joint.items():
        gram = np.kron(to_float(first.gram(nx)), to_float(second.gram(ny)))
        total += float(np.real(np.conj(vec).dot(gram.dot(vec))))
    return np.sqrt(max(total, 0.0)) / m ** 1.5


def test_remainder_norm_matches_dense_tensor_oracle():
    scales = (1.0, 0.8, 1.25)
    for m in (2, 3):
        for qt in (0.6, [[0.5, 0.2], [0.2, -0.3]]):
            got = recursion_remainder_norm(m, 0.5, qt, scales)
            want = dense_remainder_oracle(m, 0.5, qt, scales)
            assert got == pytest.approx(want, abs=1e-12)


def test_remainder_norm_decays():
    values = [recursion_remainder_norm(m, 0.5, 0.6) for m in range(2, 9)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] / values[0] < 0.75


def test_remainder_norm_decays_for_matrix_shape():
    shape = [[0.5, 0.2], [0.2, -0.3]]
    values = [recursion_remainder_norm(m, 0.5, shape) for m in range(2, 9)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_spec_validation_consolidates_violations(rot_space):
    with pytest.raises(BuildError) as err:
        UmSpec.build(rot_space, 0, [np.ones(2)], 1.5, 2.0)
    text = str(err.value)
    assert "positive integer" in text
    assert "(0, 1)" in text
    assert "modulus < 1" in text
    assert "shape (2,)" in text
    with pytest.raises(BuildError, match="symmetric"):
        UmSpec.build(rot_space, 2, [], 0.5, [[0.1, 0.2], [0.3, 0.1]])
    with pytest.raises(BuildError, match="must be real"):
        UmSpec.build(rot_space, 2, [], 0.5, [[0.1j]])
    with pytest.raises(BuildError, match="real in"):
        UmSpec.build(rot_space, 2, [], 0.5j, 0.1)
    with pytest.raises(BuildError, match="length"):
        UmSpec.build(
            rot_space, 2, [np.array([1.0, 0, 0])] * (MAX_UM_LENGTH + 1), 0.5, 0.1
        )


def test_enumeration_guards(rot_space, unit_space):
    f = np.array([0.7, -0.2, 0.0])
    spec = UmSpec.build(rot_space, MAX_AUX_DIM + 1, [f, f], 0.5, 0.4)
    with pytest.raises(BuildError, match=f"capped at auxiliary dimension {MAX_AUX_DIM}"):
        um_moment_enumerate(spec, rot_space)
    with pytest.raises(BuildError, match="at least one"):
        convergence_experiment(unit_space, [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4), [])
    with pytest.raises(BuildError, match="must increase"):
        convergence_experiment(
            unit_space, [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4), [3, 3]
        )


def test_remainder_guards():
    with pytest.raises(BuildError, match="2 <= m <= 8"):
        recursion_remainder_norm(1, 0.5, 0.6)
    with pytest.raises(BuildError, match="2 <= m <= 8"):
        recursion_remainder_norm(9, 0.5, 0.6)
    with pytest.raises(BuildError, match="real in"):
        recursion_remainder_norm(3, 1.5, 0.6)
    with pytest.raises(BuildError, match="three letters"):
        recursion_remainder_norm(3, 0.5, 0.6, scales=(1.0, 1.0))
