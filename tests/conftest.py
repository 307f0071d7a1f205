"""Shared fixtures: a few small spaces reused across test modules."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qfock.hilbert import build_space
from qfock.linalg import block_diag, kron_power, pin_blas_threads
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


# -- written-out oracles of the tensor powers --------------------------------


def kron_chain(m, n):
    """The n-fold Kronecker power as a chain of ``np.kron`` products: the
    oracle of ``linalg.kron_power``."""
    out = np.eye(1, dtype=m.dtype)
    for _ in range(n):
        out = np.kron(out, m)
    return out


def one_shot_legwise(m, n, x):
    """``linalg.legwise`` with every column in one batched product per leg,
    written out: the pin of ``legwise``, and the legwise Gram that
    ``TruncatedFock.gram``'s elementwise scaling is compared with."""
    x = np.asarray(x)
    if n == 0:
        return x.astype(np.result_type(m.dtype, x.dtype))
    d, out = m.shape[1], x
    for k in range(n):
        out = np.matmul(m, out.reshape(d**k, d, -1))
    return out.reshape(x.shape)


# -- the e-coordinate route: the oracle of the generator's eigenframe ---------


def e_spectral(setup, fn):
    """Matrix of fn(A) in e-coordinates, from the closed 2 x 2 form on each
    rotation block: the eigenvectors (e_a -+ i e_b)/sqrt(2) of lam and 1/lam
    give fn(A) = (fn(lam) + fn(1/lam))/2 on the diagonal and -+i times half
    their difference off it."""
    # every letter outside the rotation blocks is fixed
    out = np.diag([fn(1.0)] * setup.dim).astype(complex)
    for rb in setup.rotations:
        a, b = rb.indices
        plus, minus = fn(rb.lam), fn(1.0 / rb.lam)
        out[a, a] = out[b, b] = (plus + minus) / 2
        out[a, b] = 1j * (plus - minus) / 2
        out[b, a] = -1j * (plus - minus) / 2
    return out


def e_rotation(setup, t):
    """Group element at time t in e-coordinates, as closed-form real
    rotations by t log(lam) of each rotation plane."""
    out = np.eye(setup.dim)
    for rb in setup.rotations:
        a, b = rb.indices
        theta = t * np.log(rb.lam)
        out[a, a] = out[b, b] = np.cos(theta)
        out[a, b] = -np.sin(theta)
        out[b, a] = np.sin(theta)
    return out


def e_setup(setup):
    """The setup in e-coordinates: the closed forms of A and G_U, the
    identity frame and the identity letter swap, so C is plain conjugation.
    The Wick assembler reads only G_U and C, so a space built on it
    realizes words in e-coordinates."""
    eye = np.eye(setup.dim, dtype=complex)
    return dataclasses.replace(
        setup,
        a_matrix=e_spectral(setup, complex),
        u_gram=e_spectral(setup, lambda lam: 2 * lam / (1 + lam)),
        frame=eye,
        swap=np.arange(setup.dim),
    )


def in_frame(setup, m):
    """A one-particle map given in e-coordinates, in frame coordinates: F^H m F."""
    return setup.frame.conj().T.dot(m).dot(setup.frame)


def fock_frame(fock):
    """The frame map of the whole truncated space: F^(n) on level n."""
    return block_diag([kron_power(fock.setup.frame, n) for n in range(fock.n_max + 1)])
