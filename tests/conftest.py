"""Shared fixtures: a few small spaces reused across test modules."""

from fractions import Fraction

import numpy as np
import pytest

from qfock.hilbert import build_space
from qfock.linalg import pin_blas_threads
from qfock.moments import MomentSpec

# the suite runs numpy's OpenBLAS on one thread, as the CLI does
pin_blas_threads()

Q_TRIVIAL = [[0.4, 0.1], [0.1, -0.3]]
Q_MIXED = [[0.3, -0.2], [-0.2, 0.55]]
Q_EXACT = [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 7), Fraction(2, 5)]]


@pytest.fixture
def trivial2():
    """d = 2, two fixed vectors in distinct blocks, trivial group."""
    return build_space(Q_TRIVIAL, [("fixed", 0), ("fixed", 1)])


@pytest.fixture
def mixed5():
    """d = 5: rotation (lam 2) in block 0, fixed + rotation (lam 1.5) in block 1."""
    return build_space(
        Q_MIXED,
        [("rotation", 0, 2.0), ("fixed", 1), ("rotation", 1, 1.5)],
    )


@pytest.fixture
def exact2():
    """d = 2 exact-arithmetic space (rational deformation, trivial group)."""
    return build_space(Q_EXACT, [("fixed", 0), ("fixed", 1)], exact=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_spec(setup, rng, l: int) -> MomentSpec:
    """Random word of l unit-free real single-block vectors."""
    supports = {}
    for index, label in enumerate(setup.block_of):
        supports.setdefault(label, []).append(index)
    labels = sorted(supports)
    vectors = []
    for _ in range(l):
        label = labels[rng.integers(len(labels))]
        v = np.zeros(setup.dim)
        for index in supports[label]:
            v[index] = rng.standard_normal()
        if not np.any(v):
            v[supports[label][0]] = 1.0
        vectors.append(v)
    return MomentSpec.build(setup, vectors)


# -- one-shot oracles of the run-by-run products ------------------------------


def kron_chain(m, n):
    """The n-fold Kronecker power as a chain of ``np.kron`` products: the
    oracle of ``linalg.kron_power``."""
    out = np.eye(1, dtype=m.dtype)
    for _ in range(n):
        out = np.kron(out, m)
    return out


def one_shot_legwise(m, n, x):
    """``linalg.legwise`` with every column in one batched product per leg,
    written out: the pin of ``legwise`` and the one-shot oracle of the row
    runs of ``ModularData.conjugate_block``."""
    x = np.asarray(x)
    if n == 0:
        return x.astype(np.result_type(m.dtype, x.dtype))
    d, out = m.shape[1], x
    for k in range(n):
        out = np.matmul(m, out.reshape(d**k, d, -1))
    return out.reshape(x.shape)
