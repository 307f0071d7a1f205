"""Group model and deformed inner product, against matrix-function oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import BuildError
from qfock.hilbert import (
    GROUP_CHECK_TIMES,
    DeformationMatrix,
    _check_assembly,
    build_space,
)
from qfock.linalg import hermitize, max_abs, to_float
from qfock.ultra import UmSpec

from conftest import Q_MIXED, e_rotation, e_spectral, random_complex


def rotation_eigvec(setup, which, sign):
    """The generator's eigenvector for lam**sign on rotation block
    ``which``: its frame letter f_+ (sign +1) or f_- (sign -1)."""
    a, b = setup.rotations[which].indices
    return setup.basis_vector(a if sign > 0 else b)


def in_e(setup, m):
    """A frame matrix in e-coordinates: F m F^H."""
    return setup.frame.dot(m).dot(setup.frame.conj().T)


# -- construction and validation ------------------------------------------

def test_trivial_space_is_undeformed(trivial2):
    assert np.allclose(trivial2.a_matrix, np.eye(2))
    assert np.allclose(trivial2.u_gram, np.eye(2))


def test_rotation_block_spectrum(mixed5):
    eigs = sorted(np.linalg.eigvals(mixed5.a_matrix).real)
    assert np.allclose(eigs, [0.5, 1 / 1.5, 1.0, 1.5, 2.0])
    assert np.max(np.abs(np.linalg.eigvals(mixed5.a_matrix).imag)) < 1e-12


def test_eigenvector_closed_form(mixed5):
    # the frame letters are (e_a -+ i e_b)/sqrt(2), eigenvectors of the
    # closed e-coordinate form of A
    a_e = e_spectral(mixed5, complex)
    for which, lam in ((0, 2.0), (1, 1.5)):
        a, b = mixed5.rotations[which].indices
        for sign in (+1, -1):
            v = rotation_eigvec(mixed5, which, sign)
            assert np.allclose(mixed5.a_matrix @ v, lam**sign * v)
            e = mixed5.frame.dot(v)
            closed = np.zeros(5, dtype=complex)
            closed[a], closed[b] = 1 / math.sqrt(2), -sign * 1j / math.sqrt(2)
            assert max_abs(e - closed) <= 1e-15
            assert np.allclose(a_e @ e, lam**sign * e)


@pytest.mark.parametrize("lam", [1.2, 2.0, 60.0, 200.0])
def test_the_frame_diagonals_are_the_e_coordinate_closed_forms(lam):
    setup = build_space(Q_MIXED, [("rotation", 0, lam), ("fixed", 1), ("rotation", 1, 1.5)])
    eye = np.eye(5)
    assert max_abs(setup.frame.conj().T.dot(setup.frame) - eye) <= 1e-15
    pairs = [
        (setup.a_matrix, e_spectral(setup, complex)),
        (setup.u_gram, e_spectral(setup, lambda x: 2 * x / (1 + x))),
    ]
    for z in (0.5, -0.5, -1.0, 0.37 + 0.2j):
        pairs.append((setup.a_power(z), e_spectral(setup, lambda x: x**z)))
    for t in GROUP_CHECK_TIMES + (-2.7,):
        pairs.append((setup.u_matrix(t), e_rotation(setup, t)))
    for diag, closed in pairs:
        assert np.array_equal(diag, np.diag(np.diagonal(diag)))
        assert max_abs(in_e(setup, diag) - closed) <= 1e-14 * max(1.0, max_abs(closed))


def test_nonsymmetric_rejected():
    with pytest.raises(BuildError, match="symmetric"):
        DeformationMatrix.build([[0.1, 0.2], [0.3, 0.1]])


def test_entry_magnitude_rejected():
    with pytest.raises(BuildError, match="\\|q\\| < 1"):
        DeformationMatrix.build([[1.0]])


def test_nan_entry_fails_the_magnitude_gate():
    with pytest.raises(BuildError, match="\\|q\\| < 1"):
        DeformationMatrix.build([[float("nan")]])


def test_bad_blocks_rejected():
    with pytest.raises(BuildError, match="out of range"):
        build_space(Q_MIXED, [("fixed", 2)])
    for lam in (0.8, math.inf, math.nan):
        with pytest.raises(BuildError, match="finite and >= 1"):
            build_space(Q_MIXED, [("rotation", 0, lam)])
    with pytest.raises(BuildError, match="cap"):
        build_space(Q_MIXED, [("rotation", 0, 2.0)] * 5)
    with pytest.raises(BuildError, match="at least one"):
        build_space(Q_MIXED, [])


MALFORMED = {
    "ragged": ([[0.1, 0.2], [0.2]], "square"),
    "empty": ([], "square"),
    "one-dimensional": (np.array([0.1, 0.2]), "square"),
    "complex": ([[0.1j]], "real"),
    "string": ([["x"]], "real"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_matrices_fail_the_one_deformation_rule(name):
    entries, rule = MALFORMED[name]
    setup = build_space(Q_MIXED, [("fixed", 0), ("fixed", 1)])
    with pytest.raises(BuildError, match=rule):
        DeformationMatrix.build(entries)
    with pytest.raises(BuildError, match=rule):
        build_space(entries, [("fixed", 0)])
    with pytest.raises(BuildError, match=rule):
        UmSpec.build(setup, 2, [], 0.5, entries)


def test_nan_entry_reports_only_the_magnitude_rule():
    nan = [[float("nan")]]
    with pytest.raises(BuildError) as err:
        DeformationMatrix.build(nan)
    assert err.value.violations == [
        "deformation entries must satisfy |q| < 1: need max|q_ij| < 1, got nan"
    ]
    setup = build_space(Q_MIXED, [("fixed", 0), ("fixed", 1)])
    with pytest.raises(BuildError) as err:
        UmSpec.build(setup, 2, [], 0.5, nan)
    assert err.value.violations == [
        "shape deformation: deformation entries must satisfy |q| < 1:"
        " need max|q_ij| < 1, got nan"
    ]


# -- deformed inner product -------------------------------------------------

def test_u_inner_trivial(trivial2):
    e1, e2 = np.eye(2)
    assert trivial2.u_inner(e1, e2) == pytest.approx(0)
    assert trivial2.u_inner(e1, e1) == pytest.approx(1)


def test_u_inner_on_eigenvectors(mixed5):
    for which, lam in ((0, 2.0), (1, 1.5)):
        plus = rotation_eigvec(mixed5, which, +1)
        minus = rotation_eigvec(mixed5, which, -1)
        assert mixed5.u_inner(plus, plus) == pytest.approx(2 * lam / (1 + lam))
        assert mixed5.u_inner(minus, minus) == pytest.approx(2 / lam / (1 + 1 / lam))
        assert abs(mixed5.u_inner(plus, minus)) < 1e-12


def test_u_inner_sesquilinearity(mixed5, rng):
    u = random_complex(rng, 5)
    v = random_complex(rng, 5)
    w = random_complex(rng, 5)
    z = 0.3 - 1.7j
    assert np.isclose(
        mixed5.u_inner(u, z * v + w),
        z * mixed5.u_inner(u, v) + mixed5.u_inner(u, w),
    )
    assert np.isclose(mixed5.u_inner(z * u, v), np.conj(z) * mixed5.u_inner(u, v))


def test_u_inner_dimension_mismatch(trivial2):
    with pytest.raises(BuildError, match="dimension"):
        trivial2.u_inner(np.zeros(3), np.zeros(2))


def test_gram_matches_direct_formula(mixed5):
    a = mixed5.a_matrix
    direct = 2 * a @ np.linalg.inv(np.eye(5) + a)
    assert np.allclose(mixed5.u_gram, direct, atol=1e-13)


# -- spectral calculus ------------------------------------------------------

def test_a_power_zero_is_identity(mixed5):
    assert np.allclose(mixed5.a_power(0), np.eye(5))


def test_a_power_matches_matrix_log_oracle(mixed5):
    log_a = scipy.linalg.logm(mixed5.a_matrix)
    for z in (0.5, -1.0, 0.37 + 0.2j, 2.0):
        oracle = scipy.linalg.expm(z * log_a)
        assert np.allclose(mixed5.a_power(z), oracle, atol=1e-11)


def test_group_route_agreement(mixed5):
    # spectral calculus route vs the closed-form rotation route in e-coordinates
    for t in (0.3, 1.0, 2.7):
        spectral = in_e(mixed5, mixed5.a_power(1j * t))
        closed = e_rotation(mixed5, t)
        assert np.allclose(spectral, closed, atol=1e-12)
        assert np.max(np.abs(spectral.imag)) < 1e-12
        assert np.array_equal(mixed5.u_matrix(t), mixed5.a_power(1j * t))


def test_rotation_angle(mixed5):
    u = in_e(mixed5, mixed5.u_matrix(0.9))
    theta = 0.9 * math.log(2.0)
    assert u[0, 0] == pytest.approx(math.cos(theta))
    assert u[1, 0] == pytest.approx(math.sin(theta))
    assert u[0, 1] == pytest.approx(-math.sin(theta))


def test_conjugation_inverts_generator(mixed5):
    # C A C = A^{-1}: on a diagonal matrix C acts on the diagonal
    a = mixed5.a_matrix
    cac = np.diag(mixed5.involution(np.diagonal(a)))
    assert np.allclose(cac, np.linalg.inv(a), atol=1e-12)
    assert np.allclose(mixed5.a_power(-1), cac, atol=1e-12)
    # and in e-coordinates, where C is plain conjugation
    a_e = in_e(mixed5, a)
    assert np.allclose(np.conj(a_e), np.linalg.inv(a_e), atol=1e-12)


# -- invariants -------------------------------------------------------------

def test_group_preserves_deformed_inner(mixed5, rng):
    for t in (0.3, 1.0, 2.7):
        u = mixed5.u_matrix(t)
        for _ in range(5):
            xi = random_complex(rng, 5)
            eta = random_complex(rng, 5)
            lhs = mixed5.u_inner(u @ xi, u @ eta)
            rhs = mixed5.u_inner(xi, eta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_real_part_recovers_real_inner(mixed5, rng):
    g = mixed5.u_gram
    g_e = in_e(mixed5, g)
    sym = (g_e + g_e.T) / 2
    for _ in range(5):
        # real vectors, given in e-coordinates, enter through the frame map
        xi = rng.standard_normal(5)
        eta = rng.standard_normal(5)
        val = mixed5.u_inner(mixed5.frame_vector(xi), mixed5.frame_vector(eta))
        assert val.real == pytest.approx((xi @ sym @ eta).real)
        assert val.real == pytest.approx(xi @ eta)
    # (G_U + C G_U C)/2 = I in the frame, Re G_U = I in e-coordinates
    assert np.allclose((np.diagonal(g) + mixed5.involution(np.diagonal(g))) / 2, 1, atol=1e-13)
    assert np.allclose(g_e.real, np.eye(5), atol=1e-13)


def test_conjugation_involution_and_commutation(mixed5, rng):
    # C is conjugation composed with the letter swap, an involution; the
    # group commutes with it exactly, because the exponents of f_+ and f_-
    # are negatives of each other (its e-coordinate matrices are real)
    v = random_complex(rng, 5)
    assert np.array_equal(mixed5.involution(mixed5.involution(v)), v)
    # C is e-coordinate conjugation, carried into the frame
    assert max_abs(mixed5.involution(v) - mixed5.frame_vector(np.conj(mixed5.frame.dot(v)))) <= 1e-15
    for t in (1.7, -0.4):
        u = mixed5.u_matrix(t)
        assert np.array_equal(mixed5.involution(np.diagonal(u)), np.diagonal(u))
        assert np.allclose(mixed5.involution(u @ v), u @ mixed5.involution(v))
        assert np.isrealobj(e_rotation(mixed5, t))


def test_a_real_e_vector_is_an_exactly_c_invariant_frame_vector(mixed5, rng):
    for _ in range(20):
        xi = mixed5.frame_vector(rng.standard_normal(5))
        assert np.all(mixed5.involution(xi) == xi)
    xi = mixed5.frame_vector(random_complex(rng, 5))
    assert not np.all(mixed5.involution(xi) == xi)


@given(
    lam=st.floats(1.0, 4.0),
    t=st.floats(-3.0, 3.0),
    q=st.floats(-0.8, 0.8),
)
@settings(max_examples=50, deadline=None)
def test_group_routes_agree_for_random_blocks(lam, t, q):
    setup = build_space([[q]], [("rotation", 0, lam)])
    assert np.allclose(in_e(setup, setup.a_power(1j * t)), e_rotation(setup, t), atol=1e-11)
    g = setup.u_gram
    u = setup.u_matrix(t)
    assert np.max(np.abs(u.conj().T @ g @ u - g)) < 1e-11


# -- exact mode ---------------------------------------------------------------

def test_exact_space(exact2):
    assert exact2.exact
    assert exact2.a_matrix.dtype == object
    e0 = exact2.basis_vector(0)
    e1 = exact2.basis_vector(1)
    assert exact2.u_inner(e0, e0) == Fraction(1)
    assert exact2.u_inner(e0, e1) == Fraction(0)
    assert isinstance(exact2.u_inner(e0, e0), Fraction)
    assert exact2.deformation.entries[0, 1] == Fraction(1, 7)


def test_exact_mode_rejections():
    with pytest.raises(BuildError, match="rational"):
        build_space([[0.25]], [("fixed", 0)], exact=True)
    with pytest.raises(BuildError, match="lam = 1"):
        build_space(
            [[Fraction(1, 4)]], [("rotation", 0, 2)], exact=True
        )


def test_exact_rotation_with_unit_parameter_allowed():
    setup = build_space([[Fraction(1, 4)]], [("rotation", 0, 1)], exact=True)
    assert setup.u_matrix(2.3).dtype == object
    assert setup.a_power(-1)[0, 0] == Fraction(1)


# -- the build's structural checks against their e-coordinate LAPACK oracle ---


def lapack_assembly_problems(setup):
    """The structural checks of the build in e-coordinates, with LAPACK's
    eigvalsh and inv on F A F^H and F G_U F^H, where C is plain
    conjugation: the oracle of ``_check_assembly``, which reads the frame's
    diagonals."""
    problems = []
    a, g = in_e(setup, setup.a_matrix), in_e(setup, to_float(setup.u_gram))
    if max_abs(a - a.conj().T) > 1e-12:
        problems.append("generator is not Hermitian")
    if min(np.linalg.eigvalsh(hermitize(a))) <= 0:
        problems.append("generator is not positive definite")
    if min(np.linalg.eigvalsh(hermitize(g))) <= 0:
        problems.append("deformed Gram is not positive definite")
    if max_abs(np.conj(a) - np.linalg.inv(a)) > 1e-10:
        problems.append("conjugation does not invert the generator")
    if max_abs(g.real - np.eye(setup.dim)) > 1e-12:
        problems.append("real part of the deformed Gram is not the identity")
    for t in GROUP_CHECK_TIMES:
        u = in_e(setup, setup.u_matrix(t))
        if max_abs(u.conj().T.dot(g).dot(u) - g) > 1e-11:
            problems.append("group is not unitary for the deformed Gram")
            break
    return problems


def assembly_problems(setup):
    try:
        _check_assembly(setup)
    except BuildError as err:
        return err.violations
    return []


def patched_setups():
    """One setup per verdict of the frame's checks, each failing that one."""
    base = build_space(Q_MIXED, [("rotation", 0, 2.0), ("fixed", 1)])
    a, g = base.a_matrix, base.u_gram
    lopsided = a.copy()
    lopsided[2, 2] += 0.5j
    # G_U + C G_U C = 2 and the rotations commute with it, but the spectrum
    # is 3, -1, 1: in e-coordinates imaginary part 2 on the rotation plane
    indefinite = np.diag([3.0, -1.0, 1.0]).astype(complex)
    return {
        # the conjugation check fails with it: C A C is conj(A) on the fixed letter
        "generator is not Hermitian": dataclasses.replace(base, a_matrix=lopsided),
        # -A is Hermitian and C(-A)C = -A^-1 still: only positivity fails
        "generator is not positive definite": dataclasses.replace(base, a_matrix=-a),
        "deformed Gram is not positive definite": dataclasses.replace(base, u_gram=indefinite),
        # 2A is Hermitian positive definite, and its inverse is C A C / 2
        "conjugation does not invert the generator": dataclasses.replace(base, a_matrix=2 * a),
        "": base,
    }


@pytest.mark.parametrize("verdict", list(patched_setups()))
def test_each_assembly_verdict_matches_the_lapack_oracle(verdict):
    setup = patched_setups()[verdict]
    problems = assembly_problems(setup)
    assert problems == lapack_assembly_problems(setup)
    assert (verdict in problems) if verdict else problems == []


@pytest.mark.parametrize("lam", [1.0, 1.2, 2.0, 3.0, 1e2, 1e3, 1e5, 1e8])
def test_the_assembly_verdicts_match_the_lapack_oracle_on_built_generators(lam):
    # the frame's checks pass every built generator; the e-coordinate
    # oracle agrees while A is well conditioned, and from lam = 1e3 on it
    # fails the conjugation check alone, on the rounding of its inverse
    for blocks in ([("rotation", 0, lam)], [("fixed", 1), ("rotation", 0, lam), ("rotation", 1, 1.5)]):
        setup = build_space(Q_MIXED, blocks)
        assert assembly_problems(setup) == []
        oracle = ["conjugation does not invert the generator"] if lam >= 1e3 else []
        assert lapack_assembly_problems(setup) == oracle
