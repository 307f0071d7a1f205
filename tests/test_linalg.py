"""Gram-aware linear algebra: the numpy pencil solver against its oracle.

``min_gen_eig`` and ``op_norm`` reduce each Hermitian pencil by a Cholesky
factor in numpy; ``scipy.linalg.eigh`` solves the same pencils here as the
oracle.  Both pencil routes are in turn the oracle of the level positivity
minimum, which the fock layer reads off P(n)'s orbit blocks.
"""

import numpy as np
import pytest
import scipy.linalg

import qfock.linalg
from qfock.fock import TruncatedFock
from qfock.linalg import (
    hermitize,
    kron_power,
    min_gen_eig,
    op_norm,
    pin_blas_threads,
    to_float,
)


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
