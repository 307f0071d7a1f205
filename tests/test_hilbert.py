"""Group model and deformed inner product, against matrix-function oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.errors import BuildError
from qfock.hilbert import DeformationMatrix, build_space
from qfock.ultra import UmSpec

from conftest import Q_MIXED, random_complex


def rotation_eigvec(setup, which, sign):
    """(e_a -+ i e_b)/sqrt(2) for rotation block ``which``; sign +1 or -1."""
    a, b = setup.rotations[which].indices
    v = np.zeros(setup.dim, dtype=complex)
    v[a] = 1 / math.sqrt(2)
    v[b] = -sign * 1j / math.sqrt(2)
    return v


# -- construction and validation ------------------------------------------

def test_trivial_space_is_undeformed(trivial2):
    assert np.allclose(trivial2.a_matrix, np.eye(2))
    assert np.allclose(trivial2.u_gram, np.eye(2))


def test_rotation_block_spectrum(mixed5):
    eigs = sorted(np.linalg.eigvals(mixed5.a_matrix).real)
    assert np.allclose(eigs, [0.5, 1 / 1.5, 1.0, 1.5, 2.0])
    assert np.max(np.abs(np.linalg.eigvals(mixed5.a_matrix).imag)) < 1e-12


def test_eigenvector_closed_form(mixed5):
    for which, lam in ((0, 2.0), (1, 1.5)):
        for sign in (+1, -1):
            v = rotation_eigvec(mixed5, which, sign)
            assert np.allclose(mixed5.a_matrix @ v, lam**sign * v)


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
    # spectral calculus route vs the closed-form rotation route
    for t in (0.3, 1.0, 2.7):
        spectral = mixed5.a_power(1j * t)
        closed = mixed5.u_matrix(t)
        assert np.allclose(spectral, closed, atol=1e-12)
        assert np.max(np.abs(spectral.imag)) < 1e-12


def test_rotation_angle(mixed5):
    u = mixed5.u_matrix(0.9)
    theta = 0.9 * math.log(2.0)
    assert u[0, 0] == pytest.approx(math.cos(theta))
    assert u[1, 0] == pytest.approx(math.sin(theta))
    assert u[0, 1] == pytest.approx(-math.sin(theta))


def test_conjugation_inverts_generator(mixed5):
    a = mixed5.a_matrix
    assert np.allclose(np.conj(a), np.linalg.inv(a), atol=1e-12)
    assert np.allclose(mixed5.a_power(-1), np.conj(a), atol=1e-12)


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
    sym = (g + g.T) / 2
    for _ in range(5):
        xi = rng.standard_normal(5)
        eta = rng.standard_normal(5)
        val = mixed5.u_inner(xi, eta)
        assert val.real == pytest.approx((xi @ sym @ eta).real)
        assert val.real == pytest.approx(xi @ eta)
    assert np.allclose(g.real, np.eye(5), atol=1e-13)


def test_conjugation_involution_and_commutation(mixed5, rng):
    # conjugation in the distinguished real basis is entrywise, an
    # involution; the group commutes with it because its matrices are real
    v = random_complex(rng, 5)
    for t in (1.7, -0.4):
        u = mixed5.u_matrix(t)
        assert np.isrealobj(u)
        assert np.allclose(np.conj(u @ v), u @ np.conj(v))


@given(
    lam=st.floats(1.0, 4.0),
    t=st.floats(-3.0, 3.0),
    q=st.floats(-0.8, 0.8),
)
@settings(max_examples=50, deadline=None)
def test_group_routes_agree_for_random_blocks(lam, t, q):
    setup = build_space([[q]], [("rotation", 0, lam)])
    assert np.allclose(setup.a_power(1j * t), setup.u_matrix(t), atol=1e-11)
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
