"""Modular structure of the vacuum state on the truncated space.

The closing operator of the assignment (operator applied to vacuum) maps
x Omega to x* Omega.  Levelwise it applies the involution C to every leg
and reverses the leg order; its polar decomposition is explicit.  The
positive part is the tensor power of the inverse group generator, and the
antiunitary part is leg reversal composed with the -1/2 generator power
and C's letter swap.  All three are built here per level and
double-checked against each other by the test suite rather than assumed.

In the generator's eigenframe (``hilbert``) A, its powers and the group
are diagonal, so every level power of them is an elementwise scaling by
word weights (``linalg.word_weights`` of the letters' diagonal entries):
the flow scales a word's argument, ``flow_residual`` scales a word's
entries by the weights of their rows and columns, and
``decomposition_residual`` reads a diagonal one-particle identity.  The
dense powers ``delta_power``, ``j_matrix``, ``unitary_level`` and
``fock_unitary`` are the tests' oracles.  Leg reversal is a gather by
``reversed_index``, never the matrix ``reversal``.

The three identities' tolerances are constants here, as the braid
gate's is in ``fock``; no configuration sets them.

Antilinear maps are stored through their linear parts: apply(v) is always
(matrix) . conj(v), so compositions reduce to matrix products with an
explicit conjugation bookkeeping.

Flow orientation.  The one-parameter flow realized here acts on a word
argument by the tensor power of A^{-iz}, which at real z = t coincides
with conjugation by the quantized group element at time -t.  With that
convention the exchange identity of the state reads

    phi(x y) = phi(y sigma_{-i}(x)),   equivalently   phi(sigma_{+i}(y) x);

placing sigma_{-i} on the left factor instead is wrong whenever some
rotation parameter exceeds 1 (the two sides then differ by the square of
the generator).  ``kms_residual`` measures the first form.  The test suite
demonstrates the failure of the misoriented form instead of silently
picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import identity_matrix, kron_power, max_abs, to_float, word_weights
from .wick import WickWord, _merge_entries, from_vector

__all__ = [
    "DECOMPOSITION_TOLERANCE",
    "EXCHANGE_TOLERANCE",
    "FLOW_TOLERANCE",
    "ModularData",
    "kms_residual",
    "modular_flow",
]

# largest entry of J Delta^{1/2} less S on a level, on linear parts
DECOMPOSITION_TOLERANCE = 1e-11
# largest |phi(x y) - phi(y sigma_{-i}(x))| of a pair of words
EXCHANGE_TOLERANCE = 1e-10
# largest entry of a flowed word less the conjugated one
FLOW_TOLERANCE = 1e-11


@dataclass(frozen=True, eq=False)
class ModularData:
    """Per-level modular matrices of the vacuum state.

    Every method returns a matrix acting on one level's coordinates, except
    ``s_full_apply`` and ``fock_unitary``, which act on the whole truncated
    space, ``reversed_index``, which returns an index map, and
    ``decomposition_residual`` and ``flow_residual``, which return numbers.
    """

    fock: object

    def reversed_index(self, n: int) -> np.ndarray:
        """Index of the reversal of every level-n word, the position
        permutation p -> n - 1 - p as ``TruncatedFock.permuted_words``."""
        return self.fock.permuted_words(self.fock.check_level(n), range(n - 1, -1, -1))

    def reversal(self, n: int) -> np.ndarray:
        """Permutation matrix sending each basis word to its reversal: the
        identity's rows gathered by ``reversed_index``, an involution."""
        self.fock.check_level(n)
        eye = identity_matrix(self.fock.level_dim(n), self.fock.exact)
        return eye[self.reversed_index(n)]

    def delta_power(self, z, n: int) -> np.ndarray:
        """Level-n matrix of the z-th power of the modular operator.

        The modular operator acts as the n-fold tensor power of the inverse
        generator, so its z-th power is the tensor power of A^{-z}.
        """
        self.fock.check_level(n)
        return kron_power(self.fock.setup.a_power(-z), n)

    def s_apply(self, v, n: int) -> np.ndarray:
        """Closing map on a level-n coordinate vector: C on every leg, then
        the legs reversed.  On real simple tensors this is a pure reversal
        of the factors."""
        return self.fock.setup.involution(v, n)[self.reversed_index(n)]

    def j_matrix(self, n: int) -> np.ndarray:
        """Linear part of the modular conjugation: the reversal composed with
        the legwise -1/2 power of the generator and C's letter swap, as
        S Delta^{-1/2} is once C A^{1/2} C = A^{-1/2}."""
        self.fock.check_level(n)
        setup = self.fock.setup
        half = kron_power(setup.a_power(-0.5), n)
        # both permutations are involutions: row w is row reverse(w) of half,
        # and column w is its column swap(w), the word indices under C
        return half[self.reversed_index(n)][:, setup.involution(np.arange(len(half)), n)]

    def decomposition_residual(self, n: int) -> float:
        """Largest entry of J Delta^{1/2} less S on level n, on linear parts
        (the decomposition S = J Delta^{1/2}).  Both terms carry the
        reversal as a row permutation on the left and C's letter swap as a
        column permutation on the right, which a max over entries does not
        see, so this gate never could see a wrong reversal (the tests
        compare ``s_full_apply`` with the Wick words' adjoints).  What is
        left is the n-th tensor power of P = A^{-1/2} C A^{-1/2} C less the
        identity, with P diagonal: its level-n entries are the d^n products
        of P's diagonal, its ``word_weights``, each leg one product
        lam^{-1/2} lam^{1/2}."""
        self.fock.check_level(n)
        setup = self.fock.setup
        half = np.diagonal(setup.a_power(-0.5))
        p = half * setup.involution(half)
        return float(max_abs(word_weights(p, n) - 1))

    def s_full_apply(self, v) -> np.ndarray:
        """``s_apply`` on every level of a full-space vector."""
        fock, v = self.fock, np.asarray(v)
        levels = range(fock.n_max + 1)
        return np.concatenate([self.s_apply(v[fock.level_slice(n)], n) for n in levels])

    def unitary_level(self, t: float, n: int) -> np.ndarray:
        """Level-n quantized group element: the group acts on every leg."""
        self.fock.check_level(n)
        return kron_power(self.fock.setup.u_matrix(t), n)

    def fock_unitary(self, t: float) -> np.ndarray:
        """Quantized group element on the whole truncated space."""
        return self.fock.level_diag(lambda n: self.unitary_level(t, n))

    def flow_residual(self, t: float, word: WickWord, flowed: WickWord) -> float:
        """Max-entry residual between ``flowed`` and U(-t) X U(t), X the
        operator of ``word``, read off the two words' entry lists.

        The quantized group element is diagonal, so the conjugation scales
        each entry of X by the word weight of U(-t) on its row and of U(t)
        on its column.  These values and ``flowed``'s, negated, are merged
        by the assembler's ``_merge_entries``; an entry neither word holds
        vanishes on both sides, so the largest modulus of the merge is the
        dense residual.  A NaN entry keeps it NaN, and the zero word, whose
        merge is empty, gives 0.0.
        """
        fock = self.fock
        levels = range(fock.n_max + 1)

        def weights(time):
            diagonal = to_float(np.diagonal(fock.setup.u_matrix(time)))
            return np.concatenate([word_weights(diagonal, n) for n in levels])

        index, values = word.entries
        rows, cols = np.divmod(index, fock.total_dim)
        # calls, not ``*``: numpy may evaluate a product with a large
        # temporary with its factors swapped, which rounds a complex product
        # differently
        conj = np.multiply(np.multiply(to_float(values), weights(-t)[rows]), weights(t)[cols])
        other, theirs = flowed.entries
        _, gap = _merge_entries(fock, [index, other], [conj, -to_float(theirs)])
        return max_abs(gap)


def modular_flow(fock, z, word: WickWord) -> WickWord:
    """Flow of a Wick word at complex time z.

    The argument is scaled by the level-n word weights of A^{-iz}, its
    tensor power, and the word is re-realized through the canonical
    basis-word path.  At real z = t this agrees with conjugation by the
    quantized group element at time -t; at z = -i an eigenvector argument
    with generator eigenvalue lam is scaled by 1/lam.
    """
    n = word.level
    if n == 0:
        return word
    weights = word_weights(np.diagonal(fock.setup.a_power(-1j * z)), n)
    return from_vector(fock, weights * word.argument, n)


def kms_residual(fock, x: WickWord, y: WickWord) -> float:
    """Exchange-identity residual |phi(x y) - phi(y sigma_{-i}(x))|.

    Both state values are read by applying the right factor to the vacuum
    and then the left factor to that vector, both from their entries, so
    no operator product and no dense operator is formed.  Exact (up to
    roundoff) whenever both words' levels lie within the cutoff: y Omega is
    y's argument on its own level, and of x (or sigma_{-i}(x)) only the
    vacuum row is read, whose entries, the pure annihilation terms from that
    level, any cutoff holding it keeps.  So the residual is the same on
    every cut of the space (``TruncatedFock.truncated``) holding both levels.
    """
    flowed = modular_flow(fock, -1j, x)
    vacuum = fock.vacuum()
    lhs = fock.full_inner(vacuum, x.apply(y.vacuum_image()))
    rhs = fock.full_inner(vacuum, y.apply(flowed.vacuum_image()))
    return abs(complex(lhs - rhs))
