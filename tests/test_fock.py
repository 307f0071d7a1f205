"""Fock-space layer: flips, symmetrizers, ladder operators, splitting maps.

The independent routes used as oracles here:
  - pi via the monomial table vs products of Kronecker-assembled flips
    along reduced words;
  - annihilation via its combinatorial formula vs the Gram adjoint of
    creation;
  - P(n + k) via direct symmetrization vs the splitting-map factorization.
"""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qfock.combinatorics import (
    all_reduced_words,
    apply_adjacent,
    descents,
    permutations_by_length,
    reduced_word,
)
from qfock.errors import BuildError, CutoffError
from qfock.fock import POSITIVITY_FLOOR, TruncatedFock
from qfock.hilbert import build_space
from qfock.linalg import block_diag, kron_power, max_abs, min_gen_eig, op_norm, to_float
from qfock.modular import ModularData
from qfock.wick import from_vector, wick_operator, wick_recursion_residual

from conftest import Q_EXACT, Q_MIXED, Q_TRIVIAL, one_shot_legwise, random_complex


@pytest.fixture(scope="module")
def fock_mixed():
    setup = build_space(
        Q_MIXED, [("rotation", 0, 2.0), ("fixed", 1), ("rotation", 1, 1.5)]
    )
    return TruncatedFock(setup, 3)


@pytest.fixture(scope="module")
def fock_trivial():
    setup = build_space(Q_TRIVIAL, [("fixed", 0), ("fixed", 1)])
    return TruncatedFock(setup, 4)


@pytest.fixture(scope="module")
def fock_exact():
    setup = build_space(Q_EXACT, [("fixed", 0), ("fixed", 1)], exact=True)
    return TruncatedFock(setup, 3)


@pytest.fixture(scope="module")
def fock_single():
    setup = build_space([[0.6]], [("fixed", 0)])
    return TruncatedFock(setup, 4)


def kron_pi(fock, perm, n):
    """pi(sigma) as an explicit product of Kronecker-built flips."""
    out = np.asarray(kron_power(np.eye(fock.dim, dtype=complex), n))
    for letter in reduced_word(perm):
        out = out @ to_float(fock.t_amplified(letter, n))
    return out


# -- flip operator -------------------------------------------------------------

def test_flip_action(fock_mixed):
    t = fock_mixed.t_matrix
    d = fock_mixed.dim
    for a, b in itertools.product(range(d), repeat=2):
        col = t[:, a * d + b]
        expect = np.zeros(d * d, dtype=complex)
        la, lb = fock_mixed.setup.block_of[a], fock_mixed.setup.block_of[b]
        expect[b * d + a] = fock_mixed.setup.deformation.entries[la, lb]
        assert np.allclose(to_float(col), expect)


def test_flip_self_adjoint_for_doubled_gram(fock_mixed):
    g2 = kron_power(fock_mixed.setup.u_gram, 2)
    t = to_float(fock_mixed.t_matrix)
    lhs = g2 @ t
    assert max_abs(lhs - lhs.conj().T) < 1e-12


def test_flip_norm_equals_peak(fock_mixed, fock_trivial):
    for fock in (fock_mixed, fock_trivial):
        assert fock.t_norm == pytest.approx(max_abs(fock.setup.deformation.entries), abs=1e-10)
        assert fock.t_norm < 1


def test_braid_relation_float(fock_mixed):
    t01 = to_float(fock_mixed.t_amplified(0, 3))
    t12 = to_float(fock_mixed.t_amplified(1, 3))
    assert max_abs(t01 @ t12 @ t01 - t12 @ t01 @ t12) < 1e-13


@pytest.mark.parametrize("space", ["trivial2", "mixed5"])
def test_braid_defect_matches_the_dense_triple_products(space, request):
    fock = TruncatedFock(request.getfixturevalue(space), 4)
    for n in range(3, fock.n_max + 1):
        for i in range(n - 2):
            ti = to_float(fock.t_amplified(i, n))
            tj = to_float(fock.t_amplified(i + 1, n))
            lhs, rhs = ti.dot(tj).dot(ti), tj.dot(ti).dot(tj)
            mi, mj = fock._flip(n, i), fock._flip(n, i + 1)
            assert mi.after(mj).after(mi).matrix(False).tobytes() == lhs.tobytes()
            assert mj.after(mi).after(mj).matrix(False).tobytes() == rhs.tobytes()
            assert fock.braid_defect(i, n) == max_abs(lhs - rhs)


def test_braid_relation_exact(fock_exact):
    t01 = fock_exact.t_amplified(0, 3)
    t12 = fock_exact.t_amplified(1, 3)
    lhs = t01.dot(t12).dot(t01)
    rhs = t12.dot(t01).dot(t12)
    assert np.array_equal(lhs, rhs)


def test_exact_braid_defect_is_computed_in_fractions():
    q = [[Fraction(1, 3), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(1, 2)]]
    setup = build_space(q, [("fixed", 0), ("fixed", 1), ("fixed", 0)], exact=True)
    fock = TruncatedFock(setup, 4)
    for i, n in [(0, 3), (0, 4), (1, 4)]:
        assert fock.braid_defect(i, n) == 0


def test_braid_positions_outside_the_level_raise(fock_mixed):
    for i, n in [(-1, 3), (1, 3), (0, 2)]:
        with pytest.raises(BuildError, match="no braid position %d on level %d" % (i, n)):
            fock_mixed.braid_defect(i, n)


# -- pi and the symmetrizers ----------------------------------------------------

def test_pi_identity(fock_mixed):
    for n in range(fock_mixed.n_max + 1):
        eye = np.eye(fock_mixed.level_dim(n))
        assert np.allclose(to_float(fock_mixed.pi_of(range(n), n)), eye)


def test_pi_single_flip_scalar():
    setup = build_space([[0.6]], [("fixed", 0)])
    fock = TruncatedFock(setup, 2)
    assert to_float(fock.pi_of((1, 0), 2))[0, 0] == pytest.approx(0.6)


def test_pi_matches_kron_route_exhaustively(fock_mixed):
    for n in (2, 3):
        for perm in itertools.permutations(range(n)):
            mine = to_float(fock_mixed.pi_of(perm, n))
            assert np.allclose(mine, kron_pi(fock_mixed, perm, n), atol=1e-12)


def test_pi_reduced_word_independent(fock_mixed):
    # the two reduced words of the S_3 longest element give equal products
    words = all_reduced_words((2, 1, 0))
    assert len(words) == 2
    mats = []
    for w in words:
        out = np.eye(fock_mixed.level_dim(3), dtype=complex)
        for letter in w:
            out = out @ to_float(fock_mixed.t_amplified(letter, 3))
        mats.append(out)
    assert np.allclose(mats[0], mats[1], atol=1e-13)
    assert np.allclose(to_float(fock_mixed.pi_of((2, 1, 0), 3)), mats[0], atol=1e-12)


def test_pi_reduced_word_independent_s4(fock_trivial):
    for perm in itertools.permutations(range(4)):
        reference = None
        for w in all_reduced_words(perm):
            out = np.eye(fock_trivial.level_dim(4), dtype=complex)
            for letter in w:
                out = out @ to_float(fock_trivial.t_amplified(letter, 4))
            if reference is None:
                reference = out
            else:
                assert np.allclose(out, reference, atol=1e-13)
        assert np.allclose(
            to_float(fock_trivial.pi_of(perm, 4)), reference, atol=1e-12
        )


def test_p_low_levels_are_identity(fock_mixed):
    assert np.allclose(to_float(fock_mixed.p_matrix(0)), np.eye(1))
    assert np.allclose(
        to_float(fock_mixed.p_matrix(1)), np.eye(fock_mixed.dim)
    )


def test_p2_single_index():
    setup = build_space([[0.6]], [("fixed", 0)])
    fock = TruncatedFock(setup, 2)
    assert to_float(fock.p_matrix(2))[0, 0] == pytest.approx(1.6)


def test_p2_two_blocks(fock_trivial):
    q = np.array(Q_TRIVIAL)
    expect = np.eye(4, dtype=complex)
    expect[0, 0] = 1 + q[0, 0]
    expect[3, 3] = 1 + q[1, 1]
    expect[1, 2] = expect[2, 1] = q[0, 1]
    assert np.allclose(to_float(fock_trivial.p_matrix(2)), expect)


def test_p_matches_brute_sum(fock_mixed):
    for n in (2, 3):
        brute = sum(
            kron_pi(fock_mixed, perm, n)
            for perm in itertools.permutations(range(n))
        )
        assert np.allclose(to_float(fock_mixed.p_matrix(n)), brute, atol=1e-11)


def test_p_exact_entries(fock_exact):
    p2 = fock_exact.p_matrix(2)
    assert p2[0, 0] == 1 + Fraction(1, 3)
    assert p2[1, 2] == Fraction(1, 7)
    assert p2.dtype == object
    # trivial group: the level Gram IS the symmetrizer
    assert np.array_equal(fock_exact.gram(2), p2)


def test_positivity_margins(fock_mixed):
    for n in range(fock_mixed.n_max + 1):
        assert fock_mixed.min_p_eigenvalue(n) > 1e-8


def test_positivity_over_random_configs():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n_blocks = int(rng.integers(1, 4))
        raw = rng.uniform(-0.9, 0.9, size=(n_blocks, n_blocks))
        q = (raw + raw.T) / 2
        scale = np.max(np.abs(q))
        if scale > 0.9:
            q *= 0.9 / scale
        blocks = [("fixed", int(rng.integers(0, n_blocks))) for _ in range(3)]
        fock = TruncatedFock(build_space(q, blocks), 3)
        for n in range(4):
            assert fock.min_p_eigenvalue(n) > 0, f"trial {trial} level {n}"


class _UncheckedFock(TruncatedFock):
    """Truncation built without the positivity gate, to inspect both sides."""

    def _check_build(self):
        pass


def build_verdict(fock):
    """Levels the build's positivity gate refuses, read off its BuildError."""
    try:
        TruncatedFock._check_build(fock)
    except BuildError as err:
        return [int(problem.split()[1]) for problem in err.violations]
    return []


@pytest.mark.parametrize(
    "q, blocks",
    [
        (-0.9999, [("fixed", 0)]),  # level 4 at 2e-8, just above the floor
        (-0.99995, [("fixed", 0)]),  # level 4 at 5e-9, below it
        (-0.999, [("rotation", 0, 2.0)]),  # level 3 at 2e-6, level 4 at 4e-9
        (-0.99999, [("fixed", 0), ("fixed", 1)]),  # level 4 at 1e-10
        (Q_MIXED[0][1], [("rotation", 0, 2.0), ("fixed", 0)]),
    ],
)
def test_positivity_verdict_and_minimum_match_the_pencil_oracle(q, blocks):
    n_blocks = 1 + max(b[1] for b in blocks)
    entries = [[q] * n_blocks for _ in range(n_blocks)]
    setup = build_space(entries, blocks)
    fock = _UncheckedFock(setup, 4)
    refused = []
    for n in range(fock.n_max + 1):
        pencil = min_gen_eig(fock.gram(n), kron_power(to_float(setup.u_gram), n))
        assert abs(fock.min_p_eigenvalue(n) - pencil) <= 1e-15, f"level {n}"
        if not pencil > POSITIVITY_FLOOR:
            refused.append(n)
    assert build_verdict(fock) == refused
    assert refused == [] or refused[0] > 2


def test_cholesky_verdict_lands_on_both_sides_of_the_floor():
    above = _UncheckedFock(build_space([[-0.9999]], [("fixed", 0)]), 4)
    below = _UncheckedFock(build_space([[-0.99995]], [("fixed", 0)]), 4)
    assert 1 < above.min_p_eigenvalue(4) / POSITIVITY_FLOOR < 4
    assert 0.25 < below.min_p_eigenvalue(4) / POSITIVITY_FLOOR < 1
    assert build_verdict(above) == []
    assert build_verdict(below) == [4]


def test_build_refuses_a_level_form_below_the_floor():
    TruncatedFock(build_space([[-0.9999]], [("fixed", 0)]), 4)
    with pytest.raises(BuildError, match="level 4 symmetrizer lost strict positivity"):
        TruncatedFock(build_space([[-0.99995]], [("fixed", 0)]), 4)
    with pytest.raises(BuildError, match="level 3 symmetrizer lost strict positivity"):
        TruncatedFock(build_space([[-0.99995]], [("rotation", 0, 2.0)]), 3)


def bareiss_determinant(rows):
    """Determinant of a square Fraction matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    size, sign, previous = len(a), 1, Fraction(1)
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / previous
        previous = a[k][k]
    return sign * a[-1][-1]


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 2), Fraction(-2, 5), Fraction(-3, 4)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_distinct_orbit_block_meets_zagiers_determinant(q, n):
    # Zagier, Comm. Math. Phys. 147 (1992): on n distinct letters, uniform q,
    # det P(n) = prod_{k=1}^{n-1} (1 - q^(k^2+k))^((n-k) n! / (k^2+k))
    fock = TruncatedFock(build_space([[q]], [("fixed", 0)] * n, exact=True), n)
    rows = sorted(fock.word_index(w) for w in itertools.permutations(range(n)))
    block = fock.p_matrix(n)[np.ix_(rows, rows)]
    expected = Fraction(1)
    for k in range(1, n):
        power, rest = divmod((n - k) * math.factorial(n), k * k + k)
        assert rest == 0
        expected *= (1 - q ** (k * k + k)) ** power
    assert bareiss_determinant(block) == expected


@pytest.mark.parametrize("space", ["trivial2", "mixed5", "exact2"])
def test_p_is_real_symmetric_and_commutes_with_the_gram_power(space, request):
    # the two facts that give the pencil (G_U^(n) P(n), G_U^(n)) the
    # spectrum of P(n), and so let the build read it off P(n) alone
    setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, 3)
    for n in range(fock.n_max + 1):
        p = fock.p_matrix(n)
        base = kron_power(setup.u_gram, n)
        if setup.exact:
            assert np.array_equal(p, p.T), f"level {n}"
            assert np.array_equal(base.dot(p), p.dot(base)), f"level {n}"
        else:
            assert not p.imag.any(), f"level {n}"
            assert max_abs(p - p.T) <= 1e-15, f"level {n}"
            assert max_abs(base.dot(p) - p.dot(base)) <= 1e-15, f"level {n}"


def test_orbit_route_factorizes_nothing_level_sized(mixed5, monkeypatch):
    # dim 5, n_max 4: 625 words at the top level, orbit blocks of <= 4! rows
    shapes = []
    for name in ("cholesky", "solve", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def recording(*args, _original=original, **kwargs):
            shapes.extend(np.shape(a) for a in args if np.ndim(a) >= 2)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    fock = TruncatedFock(mixed5, 4)
    minima = [fock.min_p_eigenvalue(n) for n in range(fock.n_max + 1)]
    assert all(value > POSITIVITY_FLOOR for value in minima)
    assert shapes, "the eigensolver was never called"
    assert max(shape[-1] for shape in shapes) <= math.factorial(4)


def test_gram_is_hermitian_and_positive(fock_mixed):
    for n in range(fock_mixed.n_max + 1):
        g = to_float(fock_mixed.gram(n))
        assert max_abs(g - g.conj().T) < 1e-10
        assert min(np.linalg.eigvalsh((g + g.conj().T) / 2)) > 0


# -- creation and annihilation ---------------------------------------------------

def test_creation_from_vacuum(fock_mixed, rng):
    xi = random_complex(rng, fock_mixed.dim)
    created = to_float(fock_mixed.creation(xi, 0)) @ np.ones(1)
    assert np.allclose(created, xi)


def test_creation_prepends(fock_trivial):
    e0 = fock_trivial.setup.basis_vector(0)
    e1 = np.zeros(2, dtype=complex)
    e1[1] = 1
    out = to_float(fock_trivial.creation(e0, 1)) @ e1
    expect = np.zeros(4, dtype=complex)
    expect[fock_trivial.word_index((0, 1))] = 1
    assert np.allclose(out, expect)


def test_creation_norm_bound(fock_mixed):
    # crude uniform bound, with the numerically measured flip norm
    bound_scale = 1 / math.sqrt(1 - fock_mixed.t_norm)
    for n in range(fock_mixed.n_max):
        for i in range(fock_mixed.dim):
            xi = fock_mixed.setup.basis_vector(i)
            mat = to_float(fock_mixed.creation(xi, n))
            norm = op_norm(
                mat,
                to_float(fock_mixed.gram(n + 1)),
                to_float(fock_mixed.gram(n)),
            )
            assert norm <= math.sqrt(abs(fock_mixed.setup.u_inner(xi, xi))) * bound_scale + 1e-10


def test_creation_cutoff(fock_mixed):
    xi = fock_mixed.setup.basis_vector(0)
    with pytest.raises(CutoffError):
        fock_mixed.creation(xi, fock_mixed.n_max)


def test_annihilation_of_vacuum(fock_mixed):
    xi = fock_mixed.setup.basis_vector(2)
    out = fock_mixed.annihilation(xi, 0)
    assert out.shape == (0, 1)


def test_annihilation_first_leg(fock_trivial):
    e0 = fock_trivial.setup.basis_vector(0)
    vec = np.zeros(4, dtype=complex)
    vec[fock_trivial.word_index((0, 1))] = 1
    out = to_float(fock_trivial.annihilation(e0, 2)) @ vec
    # <e0, e0>_U = 1 and <e0, e1>_U = 0 in the trivial geometry
    assert np.allclose(out, [0, 1])


def test_annihilation_second_leg_weight(fock_trivial):
    e0 = fock_trivial.setup.basis_vector(0)
    vec = np.zeros(4, dtype=complex)
    vec[fock_trivial.word_index((1, 0))] = 1
    out = to_float(fock_trivial.annihilation(e0, 2)) @ vec
    assert np.allclose(out, [0, Q_TRIVIAL[0][1]])


def test_annihilation_is_gram_adjoint_of_creation(fock_mixed, rng):
    for n in range(fock_mixed.n_max):
        xi = random_complex(rng, fock_mixed.dim)
        create = to_float(fock_mixed.creation(xi, n))
        annihilate = to_float(fock_mixed.annihilation(xi, n + 1))
        g_low = to_float(fock_mixed.gram(n))
        g_high = to_float(fock_mixed.gram(n + 1))
        adjoint = np.linalg.solve(g_low, create.conj().T @ g_high)
        assert np.allclose(annihilate, adjoint, atol=1e-10)


def test_adjointness_inner_products(fock_mixed, rng):
    for n in range(fock_mixed.n_max):
        xi = random_complex(rng, fock_mixed.dim)
        v = random_complex(rng, fock_mixed.level_dim(n))
        u = random_complex(rng, fock_mixed.level_dim(n + 1))
        lhs = np.conj(to_float(fock_mixed.creation(xi, n)) @ v) @ (
            to_float(fock_mixed.gram(n + 1)) @ u
        )
        rhs = np.conj(v) @ (
            to_float(fock_mixed.gram(n))
            @ (to_float(fock_mixed.annihilation(xi, n + 1)) @ u)
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_adjointness_exact(fock_exact):
    xi = np.array([Fraction(2, 3), Fraction(-1, 5)], dtype=object)
    v = np.array([Fraction(1, 2), Fraction(1, 7)], dtype=object)
    u = np.array([Fraction(i, 9) for i in range(4)], dtype=object)
    lhs = np.conj(fock_exact.creation(xi, 1).dot(v)).dot(
        fock_exact.gram(2).dot(u)
    )
    rhs = np.conj(v).dot(
        fock_exact.gram(1).dot(fock_exact.annihilation(xi, 2).dot(u))
    )
    assert lhs == rhs


# -- splitting maps ----------------------------------------------------------------

def test_r_star_right_trivial(fock_mixed):
    for n in (0, 1, 2, 3):
        r = to_float(fock_mixed.r_star(n, 0))
        assert np.allclose(r, np.eye(fock_mixed.level_dim(n)))


def test_r_star_two_terms(fock_trivial):
    r = to_float(fock_trivial.r_star(1, 1))
    q = np.array(Q_TRIVIAL)
    for a, b in itertools.product(range(2), repeat=2):
        vec = np.zeros(4)
        vec[fock_trivial.word_index((a, b))] = 1
        out = r @ vec
        expect = np.zeros(4, dtype=complex)
        expect[fock_trivial.word_index((a, b))] += 1
        expect[fock_trivial.word_index((b, a))] += q[b, a]
        assert np.allclose(out, expect)


def test_r_star_factorizes_symmetrizer(fock_mixed):
    for n, k in ((1, 1), (2, 1), (1, 2)):
        lhs = to_float(fock_mixed.p_matrix(n + k))
        rhs = np.kron(
            to_float(fock_mixed.p_matrix(n)), to_float(fock_mixed.p_matrix(k))
        ) @ to_float(fock_mixed.r_star(n, k))
        assert np.allclose(lhs, rhs, atol=1e-11)


def test_r_star_factorizes_exact(fock_exact):
    lhs = fock_exact.p_matrix(3)
    rhs = np.kron(fock_exact.p_matrix(1), fock_exact.p_matrix(2)).dot(
        fock_exact.r_star(1, 2)
    )
    assert np.array_equal(lhs, rhs)


def test_r_star_coassociativity(fock_trivial):
    d = fock_trivial.dim
    for n, k, l in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)):
        total = n + k + l
        route_a = np.kron(
            np.eye(d**n), to_float(fock_trivial.r_star(k, l))
        ) @ to_float(fock_trivial.r_star(n, k + l))
        route_b = np.kron(
            to_float(fock_trivial.r_star(n, k)), np.eye(d**l)
        ) @ to_float(fock_trivial.r_star(n + k, l))
        assert max_abs(route_a - route_b) < 1e-12, (n, k, l)


# -- bookkeeping and the full space ---------------------------------------------

def test_word_index_roundtrip(fock_mixed):
    for n in range(fock_mixed.n_max + 1):
        for idx, word in enumerate(fock_mixed.basis_words(n)):
            assert fock_mixed.word_index(word) == idx
            assert fock_mixed.index_word(idx, n) == word


def test_level_layout(fock_mixed):
    assert fock_mixed.total_dim == 1 + 5 + 25 + 125
    assert fock_mixed.level_offset(2) == 6
    sl = fock_mixed.level_slice(1)
    assert (sl.start, sl.stop) == (1, 6)


def test_vacuum_and_embedding(fock_mixed, rng):
    vac = fock_mixed.vacuum()
    assert fock_mixed.full_inner(vac, vac) == pytest.approx(1)
    v = random_complex(rng, fock_mixed.level_dim(2))
    emb = fock_mixed.embed(v, 2)
    assert np.allclose(emb[fock_mixed.level_slice(2)], v)
    direct = np.conj(v) @ to_float(fock_mixed.gram(2)) @ v
    assert fock_mixed.full_inner(emb, emb) == pytest.approx(direct)


def annihilation_by_words(fock, xi, n):
    """Per-word loop form of the annihilation formula: the oracle."""
    pairings = np.conj(xi).dot(fock.setup.u_gram)
    ent = fock.setup.deformation.entries
    bl = fock.setup.block_of
    out = fock._zeros((fock.level_dim(n - 1), fock.level_dim(n)))
    for idx in range(fock.level_dim(n)):
        word = fock.index_word(idx, n)
        for k in range(n):
            weight = pairings[word[k]]
            if weight == 0:
                continue
            for j in range(k):
                weight = weight * ent[bl[word[k]], bl[word[j]]]
            target = fock.word_index(word[:k] + word[k + 1 :])
            out[target, idx] += weight
    return out


def annihilation_by_positions(fock, xi, n):
    """Per-position loop over the whole digit table, added into a dense
    block one position at a time: the oracle for the entry step."""
    pairings = np.conj(xi).dot(fock.setup.u_gram)
    ent = fock.setup.deformation.entries
    labels = np.array(fock.setup.block_of)
    digits = fock._digits[n]
    out = fock._zeros((fock.level_dim(n - 1), fock.level_dim(n)))
    for k in range(n):
        cols = np.flatnonzero(pairings[digits[k]] != 0)
        removed = digits[k, cols]
        weight = pairings[removed]
        for j in range(k):
            weight = weight * ent[labels[removed], labels[digits[j, cols]]]
        low = fock.dim ** (n - 1 - k)
        out[cols // (low * fock.dim) * low + cols % low, cols] += weight
    return out


def annihilation_vectors(setup):
    vectors = [setup.basis_vector(a) for a in range(setup.dim)]
    if setup.exact:
        vectors.append(np.array([Fraction(2, 3), Fraction(-1, 5)], dtype=object))
    else:
        rng = np.random.default_rng(3)
        vectors.append(random_complex(rng, setup.dim))
        vectors.append(np.arange(setup.dim) - 1.0)  # one zero pairing
    return vectors


ANNIHILATION_SPACES = [("mixed5", 3), ("trivial2", 5), ("exact2", 4)]


@pytest.mark.parametrize("space, n_max", ANNIHILATION_SPACES)
def test_annihilation_matches_the_per_position_loop(space, n_max, request):
    setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, n_max)
    for xi in annihilation_vectors(setup):
        for n in range(1, n_max + 1):
            fast = fock.annihilation(xi, n)
            assert fast.dtype == (object if setup.exact else complex)
            assert np.array_equal(fast, annihilation_by_positions(fock, xi, n))


@pytest.mark.parametrize("space, n_max", ANNIHILATION_SPACES)
def test_annihilation_matches_the_per_word_loop(space, n_max, request):
    setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, n_max)
    for xi in annihilation_vectors(setup):
        for n in range(1, n_max + 1):
            fast = fock.annihilation(xi, n)
            slow = annihilation_by_words(fock, xi, n)
            assert fast.dtype == slow.dtype
            if setup.exact:
                assert np.array_equal(fast, slow)
                assert all(isinstance(x, Fraction) for x in fast.flat)
            else:
                assert fast.tobytes() == slow.tobytes(), f"level {n}"


def test_build_validation():
    setup = build_space(Q_TRIVIAL, [("fixed", 0), ("fixed", 1)])
    with pytest.raises(BuildError, match="cutoff"):
        TruncatedFock(setup, 0)
    with pytest.raises(BuildError, match="cutoff"):
        TruncatedFock(setup, 6)
    wide = build_space([[0.2]], [("fixed", 0)] * 8)
    with pytest.raises(BuildError, match="cap"):
        TruncatedFock(wide, 4)


@pytest.mark.parametrize("n", [-1, 4])
def test_levels_outside_the_truncation_raise(fock_mixed, n):
    fock, modular = fock_mixed, ModularData(fock_mixed)
    words = fock.dim ** max(n, 0)
    reads = [
        fock.gram,
        fock.min_p_eigenvalue,
        fock.level_slice,
        lambda n: fock.embed(np.zeros(words), n),
        lambda n: fock.pi_of(range(max(n, 0)), n),
        lambda n: fock.braid_defect(0, n),
        lambda n: fock.r_star(n, 0),
        lambda n: from_vector(fock, np.zeros(words), n),
        lambda n: from_vector(fock, np.ones(words), n),
        lambda n: modular.delta_power(1.0, n),
        modular.reversed_index,
    ]
    if n > 0:
        legs = [fock.setup.basis_vector(0)] * n
        reads.append(lambda n: wick_operator(fock, legs))
        reads.append(lambda n: wick_recursion_residual(fock, legs[0], legs[1:]))
    for read in reads:
        with pytest.raises(CutoffError, match="no level %d" % n):
            read(n)


def test_level_bound_errors(fock_mixed):
    with pytest.raises(CutoffError):
        fock_mixed.gram(4)
    with pytest.raises(CutoffError):
        fock_mixed.r_star(2, 2)
    with pytest.raises(CutoffError):
        fock_mixed.annihilation(fock_mixed.setup.basis_vector(0), 4)
    with pytest.raises(CutoffError, match="creation out of level 3"):
        fock_mixed.creation(fock_mixed.setup.basis_vector(0), 3)
    with pytest.raises(CutoffError, match="no level -1"):
        fock_mixed.creation(fock_mixed.setup.basis_vector(0), -1)


def test_block_diag_places_blocks_like_scipy():
    import scipy.linalg

    real = np.arange(6.0).reshape(2, 3)
    cplx = np.array([[1 + 2j]])
    exact = np.array([[Fraction(1, 3), Fraction(2)]], dtype=object)
    for blocks in ([np.eye(1), real, cplx], [real], [exact, np.eye(2, dtype=object)]):
        ours = block_diag(blocks)
        theirs = scipy.linalg.block_diag(*blocks)
        assert ours.dtype == theirs.dtype
        assert ours.shape == theirs.shape
        assert all(a == b and type(a) is type(b) for a, b in zip(ours.flat, theirs.flat))


@pytest.mark.parametrize("space", ["mixed5", "exact2"])
def test_level_grams_match_the_dense_tensor_power_product(space, request):
    setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, 4)
    for n in range(fock.n_max + 1):
        dense = kron_power(setup.u_gram, n).dot(fock.p_matrix(n))
        if fock.exact:
            assert np.array_equal(fock.gram(n), dense)
        else:
            assert max_abs(fock.gram(n) - dense) <= 1e-14 * max_abs(dense)


@pytest.mark.parametrize("space", ["mixed5", "exact2"])
def test_index_map_flips_match_the_kronecker_assembled_flips(space, request):
    fock = TruncatedFock(request.getfixturevalue(space), 4)
    for n in range(2, fock.n_max + 1):
        for i in range(n - 1):
            assert np.array_equal(fock._flip(n, i).matrix(fock.exact), fock.t_amplified(i, n))


# -- real symmetrizers and the build's memory ------------------------------------


def complex_symmetrizer(fock, n):
    """P(n) as it was assembled when stored complex: every pi(sigma) grown
    from a complex identity one flip at a time, as ``_pi_table`` grows it,
    and summed into a complex matrix.  The oracle of the real assembly."""
    size = fock.level_dim(n)
    flips = [fock._flip(n, i) for i in range(n - 1)]
    table = {}
    for perm in permutations_by_length(n):
        ds = descents(perm)
        if not ds:
            table[perm] = (np.arange(size), np.ones(size, dtype=complex))
            continue
        index, coeff = table[apply_adjacent(perm, ds[0])]
        flip = flips[ds[0]]
        table[perm] = (index[flip.perm], flip.coeff * coeff[flip.perm])
    out = np.zeros((size, size), dtype=complex)
    for index, coeff in table.values():
        out[index, np.arange(size)] += coeff
    return out


def test_float_symmetrizers_are_real_parts_of_the_complex_assembly(mixed5):
    fock = TruncatedFock(mixed5, 4)
    for n in range(fock.n_max + 1):
        old = complex_symmetrizer(fock, n)
        assert np.all(old.imag == 0)
        p = fock.p_matrix(n)
        assert p.dtype == np.float64
        assert p.tobytes() == old.real.tobytes(), f"level {n}"
        # numpy promotes the real P(n) to complex: the Gram is the old one
        assert np.array_equal(fock.gram(n), one_shot_legwise(mixed5.u_gram, n, old))


def test_a_fraction_deformation_in_a_float_space_is_float64():
    thirds = TruncatedFock(build_space([[Fraction(1, 3)]], [("fixed", 0)]), 4)
    floats = TruncatedFock(build_space([[1 / 3]], [("fixed", 0)]), 4)
    assert thirds.setup.deformation.entries.dtype == np.float64
    assert not thirds.setup.deformation.exact
    for n in range(thirds.n_max + 1):
        assert thirds.p_matrix(n).tobytes() == floats.p_matrix(n).tobytes()
        assert thirds.gram(n).tobytes() == floats.gram(n).tobytes()


def test_the_build_holds_less_than_a_level_block_beyond_what_it_keeps(mixed5):
    # D = 781: one complex block of the top level is 16 * 625^2 = 6.25 MB;
    # storing P(4) complex and forming G - G^H whole took 12.6 MB beyond it,
    # the stored complex level Grams kept 6.2 MB beside P(n), and the dense
    # real P(n) kept 3.26 MB where its orbit blocks and words take 74 KB
    tracemalloc.start()
    try:
        fock = TruncatedFock(mixed5, 4)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fock.level_dim(4) == 625
    assert peak - kept < 16 * 625**2, f"peak {peak} B, kept {kept} B"
    block_bytes = sum(a.nbytes for pairs in fock._p_blocks for pair in pairs for a in pair)
    assert block_bytes == fock.symmetrizer_bytes < 2**17
    assert kept < block_bytes + 2**20, f"kept {kept} B, orbit blocks {block_bytes} B"
    assert not hasattr(fock, "gram_levels") and not hasattr(fock, "_pi_tables")
    assert not hasattr(fock, "p_matrices")
    # no level matrix beyond the level-2 flip t_matrix is held
    level_shapes = {(fock.level_dim(n),) * 2 for n in range(3, fock.n_max + 1)}
    held = []
    for value in vars(fock).values():
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                held.append(item.shape)
    assert held and not any(shape[-2:] in level_shapes for shape in held), held


def dense_symmetrizer(fock, n):
    """P(n) as one dense scatter of every pi(sigma) of ``_pi_table``,
    ``out[perm, cols] += coeff`` in table order: the oracle of the orbit
    blocks (real in float mode, Fractions in exact mode)."""
    size = fock.level_dim(n)
    out = fock._zeros((size, size)) if fock.exact else np.zeros((size, size))
    for mono in fock._pi_table(n).values():
        out[mono.perm, np.arange(size)] += mono.coeff
    return out


@pytest.mark.parametrize("space", ["trivial2", "mixed5", "exact2", "exact3"])
def test_densified_orbit_blocks_are_the_dense_scatter(space, request):
    if space == "exact3":  # three letters over two labels: orbits of 1 to 12 words
        setup = build_space(Q_EXACT, [("fixed", 0), ("fixed", 1), ("fixed", 0)], exact=True)
    else:
        setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, 4)
    for n in range(fock.n_max + 1):
        dense, p = dense_symmetrizer(fock, n), fock.p_matrix(n)
        assert p.dtype == dense.dtype and p.shape == dense.shape
        if fock.exact:
            assert np.array_equal(p, dense), f"level {n}"
            assert all(type(v) is Fraction for v in p.flat)
        else:
            assert p.tobytes() == dense.tobytes(), f"level {n}"


@pytest.mark.parametrize("space", ["trivial2", "mixed5", "exact2"])
def test_every_word_sits_in_one_orbit_of_one_sorted_letter_key(space, request):
    fock = TruncatedFock(request.getfixturevalue(space), 4)
    for n in range(fock.n_max + 1):
        seen = []
        for words, blocks in fock._p_blocks[n]:
            assert blocks.shape == words.shape + words.shape[1:]
            for orbit in words:
                keys = {tuple(sorted(fock.index_word(int(w), n))) for w in orbit}
                assert len(keys) == 1, (n, orbit)
                assert list(orbit) == sorted(orbit)
                # the orbit is every word spelling its letters
                assert len(orbit) == len(set(itertools.permutations(keys.pop())))
            seen.extend(words.ravel())
        assert sorted(seen) == list(range(fock.level_dim(n))), f"level {n}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_full_inner_forms_no_gram_and_keeps_every_level_term(mixed5, rng):
    fock = TruncatedFock(mixed5, 4)
    u, v = random_complex(rng, fock.total_dim), random_complex(rng, fock.total_dim)
    tracemalloc.start()
    try:
        fock.full_inner(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a level-4 Gram, or P(4) copied to complex, is 16 * 625^2 = 6.25 MB
    assert peak < 2**20, f"peak {peak} B"
    vac = fock.vacuum()
    for n in range(fock.n_max + 1):
        for bad in (np.nan, np.inf, 1j * np.inf):
            w = v.copy()
            w[fock.level_slice(n).stop - 1] = bad
            assert not np.isfinite(fock.full_inner(vac, w)), (n, bad)
            assert not np.isfinite(fock.full_inner(w, vac)), (n, bad)


def _coupled(setup):
    """``setup`` with G_U coupling basis vectors 0 and 2, which carry labels
    with different q rows: G_U no longer commutes with the flip."""
    u = setup.u_gram.copy()
    u[0, 2] += 0.1
    u[2, 0] += 0.1
    return dataclasses.replace(setup, u_gram=u)


def test_the_hermiticity_gate_is_the_flip_commutation(mixed5):
    coupled = _coupled(mixed5)
    assert mixed5.block_of[0] != mixed5.block_of[2]
    assert not np.array_equal(Q_MIXED[0], Q_MIXED[1])
    with pytest.raises(BuildError, match="level 2 Gram is not Hermitian"):
        TruncatedFock(coupled, 2)
    # level 1 carries G_U itself, Hermitian: no level Gram below 2 can fail
    TruncatedFock(coupled, 1)
    assert build_verdict(_UncheckedFock(coupled, 3)) == [2]
    assert build_verdict(_UncheckedFock(mixed5, 3)) == []


@pytest.mark.parametrize("kind", ["mixed", "rotation", "coupled"])
def test_the_flip_skew_is_the_dense_level_2_skew(mixed5, kind):
    setup = {
        "mixed": mixed5,
        "rotation": build_space(Q_MIXED, [("rotation", 0, 2.0), ("rotation", 1, 1.5)]),
        "coupled": _coupled(mixed5),
    }[kind]
    fock = _UncheckedFock(setup, 2)
    g2 = fock.gram(2)
    dense = max_abs(g2 - g2.conj().T)
    skew, peak = fock.flip_skew()
    assert abs(skew - dense) <= 1e-15 * max(1.0, peak), (skew, dense)
    assert (skew > 1e-10 * max(1.0, peak)) == (kind == "coupled")


def test_vectors_and_permutations_of_the_wrong_length_are_refused(fock_mixed):
    with pytest.raises(BuildError, match="vector of dimension 5 expected"):
        wick_operator(fock_mixed, [np.ones(4)])
    with pytest.raises(BuildError, match="vector of dimension 5 expected"):
        fock_mixed.annihilation(np.ones((5, 1)), 2)
    with pytest.raises(BuildError, match="permutation of 3 letters expected"):
        fock_mixed.pi_of((1, 0), 3)
