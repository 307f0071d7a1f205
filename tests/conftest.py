"""Shared fixtures: a few small spaces reused across test modules."""

from fractions import Fraction

import numpy as np
import pytest

from qfock.hilbert import build_space
from qfock.linalg import pin_blas_threads

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
