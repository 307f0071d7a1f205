"""Modular structure of the vacuum state on the truncated space.

The closing operator of the assignment (operator applied to vacuum) maps
x Omega to x* Omega.  Levelwise it conjugates coordinates and reverses the
leg order; its polar decomposition is explicit.  The positive part is the
tensor power of the inverse group generator, and the antiunitary part is
leg reversal composed with the -1/2 generator power.  All three are built
here per level and double-checked against each other by the test suite
rather than assumed.  Where a tensor power only acts on something (J on a
level matrix, the flow on a word argument, conjugation of a level block by
the group on its rows and, through the transpose, its columns) it is
applied leg by leg with ``linalg.legwise``; the dense powers stay as the
matrices ``delta_power``, ``j_matrix`` and ``unitary_level`` return, and
the tests' oracles.  The decomposition check ``decomposition_residual``
builds Delta^{1/2} one run of columns at a time (``linalg.kron_columns``),
so it holds no level-sized scratch matrix; the flow check conjugates one
level block of the word in place, a run at a time (``conjugate_block``),
and holds no other.  Leg reversal is a gather by ``reversed_index``, never
the matrix ``reversal``.

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

from .linalg import (
    column_slabs,
    identity_matrix,
    kron_columns,
    kron_power,
    legwise,
    max_abs,
    to_float,
)
from .wick import WickWord, from_vector

__all__ = [
    "ModularData",
    "kms_residual",
    "modular_flow",
]


@dataclass(frozen=True, eq=False)
class ModularData:
    """Per-level modular matrices of the vacuum state.

    Every method returns a matrix acting on one level's coordinates, except
    ``s_full_apply``, ``fock_unitary`` and ``unitary_conjugate``, which act
    on the whole truncated space, ``conjugate_block``, which transforms one
    level block in place, ``reversed_index``, which returns an index map, and
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
        """Closing map on a level-n coordinate vector: conjugate the
        coordinates, then reverse the legs.  On real simple tensors this is
        a pure reversal of the factors."""
        return np.conj(np.asarray(v))[self.reversed_index(n)]

    def j_matrix(self, n: int) -> np.ndarray:
        """Linear part of the modular conjugation: reversal composed with
        the legwise -1/2 power of the generator."""
        self.fock.check_level(n)
        half = kron_power(self.fock.setup.a_power(-0.5), n)
        # the reversal permutes rows; it is an involution, so row w of the
        # product is row reverse(w) of half
        return half[self.reversed_index(n)]

    def j_apply(self, v, n: int) -> np.ndarray:
        """``j_matrix(n)`` applied to the conjugate of v (a level-n vector or
        matrix), leg by leg, then the rows reversed."""
        self.fock.check_level(n)
        half = legwise(self.fock.setup.a_power(-0.5), n, np.conj(np.asarray(v)))
        return half[self.reversed_index(n)]

    def decomposition_residual(self, n: int) -> float:
        """Largest entry of J Delta^{1/2} less the reversal on level n (the
        decomposition S = J Delta^{1/2} on linear parts), a run of columns
        (``linalg.column_slabs``) at a time: each run of Delta^{1/2} comes
        from ``kron_columns``, goes through ``j_apply`` and loses its
        columns of the reversal, bit for bit as in the dense difference,
        whose max this is.  No array is as large as a level matrix."""
        fock = self.fock
        half, rev = fock.setup.a_power(-0.5), self.reversed_index(n)
        worst = 0.0
        for cols in column_slabs(fock.level_dim(n)):
            gap = self.j_apply(kron_columns(half, n, cols), n)
            gap[rev[cols], np.arange(gap.shape[1])] -= 1
            # np.maximum, unlike max(), keeps a NaN slab residual
            worst = np.maximum(worst, max_abs(gap))
        return float(worst)

    def s_full_apply(self, v) -> np.ndarray:
        """``s_apply`` on every level of a full-space vector, as one gather."""
        fock = self.fock
        levels = range(fock.n_max + 1)
        rev = np.concatenate([fock.level_offset(n) + self.reversed_index(n) for n in levels])
        return np.conj(np.asarray(v))[rev]

    def unitary_level(self, t: float, n: int) -> np.ndarray:
        """Level-n quantized group element: the group acts on every leg."""
        self.fock.check_level(n)
        return kron_power(self.fock.setup.u_matrix(t), n)

    def fock_unitary(self, t: float) -> np.ndarray:
        """Quantized group element on the whole truncated space."""
        return self.fock.level_diag(lambda n: self.unitary_level(t, n))

    def unitary_conjugate(self, t: float, operator) -> np.ndarray:
        """U(t) X U(-t) for a full-space matrix X, one level block at a time.

        The quantized group element is block diagonal, so block (r, c) of
        the product is ``conjugate_block(t, r, c, X_rc)`` on a copy of X_rc,
        and zero blocks of X stay zero; the dense product with
        ``fock_unitary`` is the same map.
        """
        fock = self.fock
        x = to_float(np.asarray(operator))
        out = np.zeros(x.shape, dtype=complex)
        levels = range(fock.n_max + 1)
        for r in levels:
            rows = fock.level_slice(r)
            for c in levels:
                cols = fock.level_slice(c)
                block = x[rows, cols]
                if np.any(block):
                    out[rows, cols] = self.conjugate_block(t, r, c, block.astype(complex))
        return out

    def conjugate_block(self, t: float, r: int, c: int, block: np.ndarray) -> np.ndarray:
        """U_r(t) B U_c(-t) for a complex block B from level c to level r,
        written over B, which is returned.  The group acts leg by leg: on the
        rows of the block one run of columns (``linalg.column_slabs``) at a
        time, then on its columns one run of rows at a time, through the
        transpose, since (U^(c))^T = (U^T)^(c).  A column of a product needs
        only the same column of its factor, so each run is transformed in
        place, bit for bit as on the whole block; beside the block, the
        scratch is that of one run."""
        left, right = self.fock.setup.u_matrix(t), self.fock.setup.u_matrix(-t).T
        for cols in column_slabs(block.shape[1]):
            block[:, cols] = legwise(left, r, block[:, cols])
        for rows in column_slabs(len(block)):
            block[rows] = legwise(right, c, block[rows].T).T
        return block

    def flow_residual(self, t: float, word: WickWord, flowed: WickWord) -> float:
        """Max-entry residual between ``flowed`` and U(-t) X U(t), X the
        operator of ``word``, one level block at a time.

        Only the blocks where either word holds entries are formed; on the
        others both sides vanish.  Each block of the conjugation is computed
        as ``unitary_conjugate`` computes it, in place on a fresh block of
        ``word``; ``flowed``'s entries are subtracted from it by index (its
        sign leaves the moduli as they are), and its largest modulus is read
        a run of rows at a time.  So the residual is the dense one, and one
        level block and the scratch of one run are held at a time.
        """
        worst = 0.0
        for r, c in sorted(word.level_pairs() | flowed.level_pairs()):
            gap = self.conjugate_block(-t, r, c, to_float(word.level_block(r, c)))
            rows, cols, values = flowed.block_entries(r, c)
            gap[rows, cols] -= to_float(values)
            for run in column_slabs(len(gap)):
                # np.maximum, unlike max(), keeps a NaN residual
                worst = np.maximum(worst, max_abs(gap[run]))
            del gap  # before the next block's scratch
        return float(worst)


def modular_flow(fock, z, word: WickWord) -> WickWord:
    """Flow of a Wick word at complex time z.

    The argument is hit legwise by A^{-iz} and the word is re-realized
    through the canonical basis-word path.  At real z = t this agrees with
    conjugation by the quantized group element at time -t; at z = -i an
    eigenvector argument with generator eigenvalue lam is scaled by 1/lam.
    """
    n = word.level
    if n == 0:
        return word
    argument = legwise(fock.setup.a_power(-1j * z), n, word.argument)
    return from_vector(fock, argument, n)


def kms_residual(fock, x: WickWord, y: WickWord) -> float:
    """Exchange-identity residual |phi(x y) - phi(y sigma_{-i}(x))|.

    Both state values are read by applying the right factor to the vacuum
    and then the left factor to that vector, both from their entries, so
    no operator product and no dense operator is formed.  Exact (up to
    roundoff) whenever both words have level <= n_max/2, since no
    vacuum-to-vacuum path then leaves the cutoff.
    """
    flowed = modular_flow(fock, -1j, x)
    vacuum = fock.vacuum()
    lhs = fock.full_inner(vacuum, x.apply(y.vacuum_image()))
    rhs = fock.full_inner(vacuum, y.apply(flowed.vacuum_image()))
    return abs(complex(lhs - rhs))
