"""Finite-m averaged moments: dual evaluators and limits."""

import itertools
import os
from fractions import Fraction

import numpy as np
import pytest

from qfock.combinatorics import pair_partitions
from qfock.config import load_config
from qfock.errors import BuildError
from qfock.hilbert import DeformationMatrix, build_space
from qfock.linalg import to_float
from qfock.moments import MomentSpec, moment_pairings
from qfock.ultra import (
    MAX_AUX_DIM,
    MAX_UM_LENGTH,
    UmSpec,
    convergence_experiment,
    effective_deformation,
    fitted_slope,
    um_moment_closedform,
    um_moment_enumerate,
)

from conftest import e_spectral

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
    # the e-coordinate inner product, against the closed form of G_U
    ref = f1.dot(e_spectral(rot_space, lambda lam: 2 * lam / (1 + lam))).dot(f2)
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


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_fitted_slope_is_the_polyfit_slope_on_the_shipped_configs(name):
    # the closed form against LAPACK's least squares, on the errors each
    # shipped config's ultra run fits, and on them with a floor point
    config = load_config(os.path.join(CONFIGS, name))
    params = config.experiment("ultra")
    report = convergence_experiment(
        config.setup(), params["vectors"], params["q"], params["q_tilde"], params["m_list"]
    )
    errors = report.errors()
    for dims, errs in [(report.aux_dims, errors), (report.aux_dims, (0.0,) + errors[1:])]:
        kept = [(m, e) for m, e in zip(dims, errs) if e > 1e-15]
        xs, ys = np.log([m for m, _ in kept]), np.log([e for _, e in kept])
        oracle = np.polyfit(xs, ys, 1)[0]
        assert abs(fitted_slope(dims, errs) - oracle) <= 1e-12 * abs(oracle)


def test_effective_deformation_shapes(rot_space):
    d = effective_deformation(rot_space, 0.5, 0.6)
    assert to_float(np.asarray(d.entries)) == pytest.approx(0.3 * np.ones((2, 2)))
    with pytest.raises(BuildError, match="covers"):
        effective_deformation(rot_space, 0.5, [[0.4]])


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


# int() took 2.7 as m = 2 and True as m = 1
@pytest.mark.parametrize("m", [2.7, 3.0, True, np.float64(2.0), "2", None])
def test_an_auxiliary_dimension_must_be_a_positive_integer(unit_space, m):
    vectors, q, q_tilde = [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4)
    with pytest.raises(BuildError, match="auxiliary dimension must be a positive integer"):
        UmSpec.build(unit_space, m, vectors, q, q_tilde)
    with pytest.raises(BuildError, match="auxiliary dimensions must be positive integers"):
        convergence_experiment(unit_space, vectors, q, q_tilde, [1, m])


def test_an_auxiliary_dimension_may_be_a_numpy_integer(unit_space):
    vectors, q, q_tilde = [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4)
    ours = convergence_experiment(unit_space, vectors, q, q_tilde, [np.int64(1), np.int64(3)])
    assert ours.aux_dims == (1, 3) and all(type(m) is int for m in ours.aux_dims)
    assert ours.values == convergence_experiment(unit_space, vectors, q, q_tilde, [1, 3]).values


def test_enumeration_guards(rot_space, unit_space):
    f = np.array([0.7, -0.2, 0.0])
    spec = UmSpec.build(rot_space, MAX_AUX_DIM + 1, [f, f], 0.5, 0.4)
    with pytest.raises(BuildError, match=f"capped at auxiliary dimension {MAX_AUX_DIM}"):
        um_moment_enumerate(spec, rot_space)
    # UmSpec.build refuses such a word first; a spec made directly meets the guard
    long = UmSpec(2, (f,) * (MAX_UM_LENGTH + 1), 0.5, 0.4)
    with pytest.raises(BuildError, match=f"capped at word length {MAX_UM_LENGTH}, got {MAX_UM_LENGTH + 1}"):
        um_moment_enumerate(long, rot_space)
    with pytest.raises(BuildError, match="at least one"):
        convergence_experiment(unit_space, [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4), [])
    with pytest.raises(BuildError, match="must increase"):
        convergence_experiment(
            unit_space, [[Fraction(1)]] * 2, Fraction(1, 2), Fraction(1, 4), [3, 3]
        )


# every shape deformation the averaging layer takes meets DeformationMatrix.build
MALFORMED_SHAPES = {
    "complex-entry": ([[0.1j]], "must be real numbers"),
    "complex-scalar": (0.1j, "must be real numbers"),
    "ragged": ([[0.5, 0.2], [0.2]], "nonempty square list of rows"),
    "empty": ([], "nonempty square list of rows"),
    "non-symmetric": ([[0.5, 0.2], [0.1, 0.5]], "must be symmetric"),
    "too-large": ([[0.5, 1.0], [1.0, 0.5]], r"\|q\| < 1"),
    "too-large-scalar": (-1.0, r"\|q\| < 1"),
}


# the one route that reports a scalar shape by the rule itself (UmSpec.build
# names it a uniform shape entry); the route stays in the test's id
@pytest.mark.parametrize("name", sorted(MALFORMED_SHAPES))
@pytest.mark.parametrize("route", ["effective"])
def test_malformed_shapes_fail_the_one_deformation_rule(rot_space, route, name):
    q_tilde, rule = MALFORMED_SHAPES[name]
    with pytest.raises(BuildError, match=rule):
        effective_deformation(rot_space, 0.5, q_tilde)
