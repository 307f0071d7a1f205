"""Gram-aware linear algebra: the numpy pencil solver against its oracle.

``min_gen_eig`` and ``op_norm`` reduce each Hermitian pencil by a Cholesky
factor in numpy; ``scipy.linalg.eigh`` solves the same pencils here as the
oracle.  Both pencil routes are in turn the oracle of the level positivity
minimum, which the fock layer reads off P(n)'s orbit blocks.

``legwise`` applies a tensor power leg by leg; the dense product with
``kron_power`` is its oracle, and the product written out in the tests
pins it bit for bit.  ``kron_columns`` builds
any columns of a tensor power; the chain of ``np.kron`` products is its
bitwise oracle.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import qfock.linalg
from qfock.fock import TruncatedFock
from qfock.linalg import (
    SLAB_COLUMNS,
    blas_config,
    column_slabs,
    hermitize,
    kron_columns,
    kron_power,
    legwise,
    min_gen_eig,
    op_norm,
    pin_blas_threads,
    to_float,
)

from conftest import kron_chain, one_shot_legwise


def pencil_oracle(a, b):
    return scipy.linalg.eigh(
        hermitize(to_float(a)), hermitize(to_float(b)), eigvals_only=True
    )


def random_block_preserving(setup, rng):
    labels = np.array(setup.block_of)
    same = labels[:, None] == labels[None, :]
    shape = (setup.dim, setup.dim)
    return np.where(same, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)


@pytest.mark.parametrize("space", ["trivial2", "mixed5", "exact2"])
def test_min_gen_eig_matches_the_pencil_oracle_at_every_level(space, request):
    setup = request.getfixturevalue(space)
    fock = TruncatedFock(setup, 3)
    for n in range(fock.n_max + 1):
        gram = fock.gram(n)
        base = kron_power(to_float(setup.u_gram), n)
        oracle = pencil_oracle(gram, base)[0]
        pencil = min_gen_eig(gram, base)
        assert abs(pencil - oracle) <= 1e-12 * abs(oracle)
        # the orbit-block route of the build agrees with both pencil routes
        orbit = fock.min_p_eigenvalue(n)
        assert abs(orbit - pencil) <= 1e-12 * abs(pencil), f"level {n}"
        assert abs(orbit - oracle) <= 1e-12 * abs(oracle), f"level {n}"


@pytest.mark.parametrize("space", ["trivial2", "mixed5", "exact2"])
def test_op_norm_matches_the_pencil_oracle(space, request, rng):
    setup = request.getfixturevalue(space)
    gram = to_float(setup.u_gram)
    fock = TruncatedFock(setup, 2)
    g2 = to_float(kron_power(setup.u_gram, 2))
    t = to_float(fock.t_matrix)
    oracle = np.sqrt(pencil_oracle(t.conj().T @ g2 @ t, g2)[-1])
    assert abs(fock.t_norm - oracle) <= 1e-12 * oracle
    for _ in range(5):
        x = random_block_preserving(setup, rng)
        x = 0.9 * x / np.sqrt(pencil_oracle(x.conj().T @ gram @ x, gram)[-1])
        oracle = np.sqrt(pencil_oracle(x.conj().T @ gram @ x, gram)[-1])
        assert abs(op_norm(x, gram, gram) - oracle) <= 1e-12 * oracle
        assert op_norm(x, gram, gram) == pytest.approx(0.9, rel=1e-12)


def test_a_non_positive_definite_gram_raises_on_both_routes():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        pencil_oracle(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        min_gen_eig(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(a, np.eye(2), b)


def test_pinning_without_openblas_thread_controls_changes_nothing(monkeypatch):
    # MKL and Accelerate builds of numpy export no OpenBLAS symbols
    missing = (("no_such_set_num_threads", "no_such_get_num_threads"),)
    monkeypatch.setattr(qfock.linalg, "_OPENBLAS_THREAD_SYMBOLS", missing)
    assert pin_blas_threads() is None


def test_blas_config_without_openblas_is_none(monkeypatch):
    monkeypatch.setattr(qfock.linalg, "_OPENBLAS_CONFIG_SYMBOLS", ("no_such_get_config",))
    assert blas_config() is None


# levels 0-5, not up to the level cap: the dense power at d = 3 takes
# 16 * 9^n bytes, about 55 GB at n = 10
@pytest.mark.parametrize("n", range(6))
def test_legwise_matches_the_dense_tensor_power_product(n, rng):
    d = 3
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 0.1  # not normal
    for shape in ((d**n,), (d**n, 7), (d**n, d**n)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = kron_power(m, n).dot(x)
        got = legwise(m, n, x)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", range(6))
def test_legwise_is_exact_on_fractions(n):
    m = np.array([[Fraction(1, 3), Fraction(-2, 5)], [Fraction(7, 2), Fraction(1)]], dtype=object)
    x = np.array(
        [[Fraction(i * j - 3, i + 2) for j in range(3)] for i in range(2**n)], dtype=object
    )
    for rhs in (x[:, 0], x):
        got = legwise(m, n, rhs)
        assert got.shape == rhs.shape
        assert all(type(v) is Fraction for v in got.flat)
        assert np.array_equal(got, kron_power(m, n).dot(rhs))


@pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 66, 127, 128, 129, 625, 2048])
def test_column_slabs_cut_runs_of_64_and_keep_the_remainder_last(size):
    slabs = column_slabs(size)
    covered = [i for s in slabs for i in range(size)[s]]
    assert covered == list(range(size))
    widths = [s.stop - s.start for s in slabs]
    assert all(w == SLAB_COLUMNS for w in widths[:-1])
    if size:
        # the last run keeps the remainder of the whole, and holds one
        # column only when the whole does
        assert widths[-1] % SLAB_COLUMNS == size % SLAB_COLUMNS
        assert widths[-1] > 1 or size == 1


def same_entries(a, b) -> bool:
    """Bit for bit on float arrays; equal values of one type on object arrays."""
    if a.dtype == object:
        return np.array_equal(a, b) and all(type(x) is type(y) for x, y in zip(a.flat, b.flat))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kron_columns_are_the_kron_chain_columns_bit_for_bit(mixed5, rng):
    exact = np.array([[Fraction(1, 3), Fraction(-2, 5)], [Fraction(7, 2), Fraction(1)]], dtype=object)
    wide = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    for m in (mixed5.a_power(-0.5), mixed5.u_matrix(0.7), exact, wide):
        for n in range(5):
            whole = kron_chain(m, n)
            assert same_entries(kron_power(m, n), whole)
            words = m.shape[1] ** n
            picks = [slice(words // 3, words), np.arange(0, words, 2), [words - 1]]
            for cols in picks + column_slabs(words):
                assert same_entries(kron_columns(m, n, cols), whole[:, cols])


@pytest.mark.parametrize("n", range(5))
def test_legwise_by_runs_is_the_one_shot_product_bit_for_bit(mixed5, n, rng):
    # d = 5 on a rotation space: level 4 has 625 words; real, complex and
    # non-contiguous arguments of every width meet the written-out product
    words = mixed5.dim**n
    for m in (mixed5.a_power(-0.5), mixed5.u_matrix(0.3), mixed5.u_gram):
        for shape in ((words,), (words, 1), (words, 65), (words, 130), (words, 7, 19), (words, words)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for arg in (x, x.real, np.swapaxes(x, 0, -1).copy().swapaxes(0, -1)):
                got, ref = legwise(m, n, arg), one_shot_legwise(m, n, arg)
                assert same_entries(got, ref), (m.dtype, shape)
