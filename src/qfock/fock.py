"""Truncated deformed Fock space over a finite-dimensional group model.

Level n is spanned by words (a_1, ..., a_n) over the basis indices, in
lexicographic order.  The deformation enters through the flip operator
T(e_a (x) e_b) = q_{block(a), block(b)} e_b (x) e_a, its amplifications T_i,
the quasi-multiplicative representation pi of the symmetric groups, and the
level symmetrizers P(n) = sum over pi(sigma).  q is real, so every pi
coefficient is, and a float space stores P(n) as real float64 (exact spaces
keep Fractions).  pi(sigma) permutes the letters of a word, so P(n) is
block-diagonal over letter multisets, the S_n-orbits of words (at most n!
words each; at d = 5, level 4 holds 7,885 of P(4)'s 390,625 entries).  The
space keeps P(n) as those orbit blocks and nothing derived from it: the
dense P(n) and the level Gram G_U^(n) P(n) are formed on call, G_U applied
leg by leg (``linalg.legwise``), and the Gram's Hermiticity is checked
once, on the flip.

pi(sigma) in this representation sends each basis word to a single scaled
basis word, so permutations are carried as (index map, coefficient) pairs
and P(n) assembly costs one vector pass per permutation and orbit size,
scattered into the orbit blocks.  Every index map of a permutation of word
positions comes from ``permuted_words``.  The braid check composes the
same flips T_i that P(n) is built from, so it gates the build itself, and
reads its defect off the two composed index maps as a number, exactly in
exact mode; the Kronecker assembly I^(i) (x) T (x) I^(n-i-2) of T_i is the
tests' oracle.

Level positivity is read off P(n) alone.  q is real symmetric, so P(n) is
too; G_U is block-diagonal over the labels that q depends on, so G_U^(n)
commutes with every pi(sigma), and the level pencil (G_U^(n) P(n), G_U^(n))
has the spectrum of P(n).  So the build takes each level's smallest
eigenvalue from the stored orbit blocks and factorizes no level-sized
matrix; ``linalg.min_gen_eig`` on the pencil is the tests' oracle.

Creation beyond the level cutoff raises CutoffError rather than silently
truncating; identities are only ever asserted on compositions that stay
inside the cutoff.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (
    apply_adjacent,
    descents,
    f_coefficient,
    index_splittings,
    permutations_by_length,
)
from .errors import BuildError, CutoffError
from .limits import MAX_LEVEL, MAX_LEVEL_DIM
from .linalg import (
    block_diag,
    identity_matrix,
    kron_power,
    legwise,
    max_abs,
    op_norm,
    to_float,
)

# every level symmetrizer must keep its smallest eigenvalue above this floor
POSITIVITY_FLOOR = 1e-8
# largest entry a braid defect T_i T_{i+1} T_i - T_{i+1} T_i T_{i+1} may reach
BRAID_TOLERANCE = 1e-13


def size_violations(dim: int, n_max: int) -> list:
    """Why a space of dimension ``dim`` cannot be truncated at ``n_max``:
    the level cap, and the word budget of the top level, quoted at the
    requested cutoff even when that cutoff is beyond the level cap."""
    out = []
    if not n_max >= 1:
        out.append("level cutoff must be at least 1, got %r" % (n_max,))
    elif n_max > MAX_LEVEL:
        out.append("level cutoff %r beyond the level cap %d" % (n_max, MAX_LEVEL))
    # the exponent is capped: any dim >= 2 is over the budget long before 64
    if n_max >= 1 and dim ** min(n_max, 64) > MAX_LEVEL_DIM:
        words = " = %d" % dim**n_max if n_max <= 64 else ""
        out.append(
            "%d^%d%s top-level words beyond the per-level cap %d; lower the cutoff "
            "or the dimension" % (dim, n_max, words, MAX_LEVEL_DIM)
        )
    return out


@dataclass(frozen=True)
class _Monomial:
    """Operator sending e_w to coeff[w] * e_{perm[w]} (w = word index)."""

    perm: np.ndarray
    coeff: np.ndarray

    def after(self, other: "_Monomial") -> "_Monomial":
        """Composition self o other (other acts first)."""
        return _Monomial(
            self.perm[other.perm], other.coeff * self.coeff[other.perm]
        )

    def matrix(self, exact: bool) -> np.ndarray:
        size = len(self.perm)
        if exact:
            out = np.full((size, size), Fraction(0), dtype=object)
        else:
            out = np.zeros((size, size), dtype=complex)
        # added onto +0, as a dense product accumulates: signed zeros agree
        out[self.perm, np.arange(size)] += self.coeff
        return out


class TruncatedFock:
    """Levels 0..n_max of the deformed Fock space, fully materialized.

    Immutable by convention after construction.  It keeps per level P(n)
    as its orbit blocks (real in float mode, Fractions in exact mode) and
    its smallest eigenvalue, and the word count of the top level is capped
    to keep P(n) workable.  The pi tables, the dense P(n) (``p_matrix``) and
    the Gram forms are formed on call.
    """

    def __init__(self, setup, n_max: int):
        violations = size_violations(setup.dim, n_max)
        if violations:
            raise BuildError(violations)
        self.setup = setup
        self.n_max = int(n_max)
        self.dim = setup.dim
        self.exact = setup.exact
        self._block_arr = np.array(setup.block_of, dtype=int)

        levels = range(n_max + 1)
        # word tables fixed at build: the level offsets, and per level (to the
        # flip's level 2 at least) the read-only (n, dim**n) letters of every word
        self._offsets = tuple(itertools.accumulate((self.dim**n for n in levels), initial=0))
        self.total_dim = self._offsets[-1]
        self._digits = tuple(
            np.indices((self.dim,) * n).reshape(n, self.dim**n) for n in range(max(n_max, 2) + 1)
        )
        for table in self._digits:
            table.flags.writeable = False
        start = time.perf_counter()
        self.t_matrix = self._flip(2, 0).matrix(self.exact)
        self._p_blocks = tuple(self._orbit_blocks(n) for n in levels)
        assembled = time.perf_counter()
        self._p_minima = tuple(self._orbit_min_eigenvalue(n) for n in levels)
        self._check_build()
        # array bytes of the orbit blocks and their word arrays, for the manifest
        self.symmetrizer_bytes = sum(
            a.nbytes for pairs in self._p_blocks for pair in pairs for a in pair
        )
        # wall seconds per build phase, for the run manifest
        self.build_seconds = {
            "symmetrizers": round(assembled - start, 6),
            "positivity": round(time.perf_counter() - assembled, 6),
        }

    @functools.cached_property
    def full_gram(self) -> np.ndarray:
        """Deformed Gram form of the whole space, assembled from ``gram`` on
        first use: only the amplified-norm scan and dense adjoints read it."""
        return self.level_diag(self.gram)

    @functools.cached_property
    def t_norm(self) -> float:
        """Norm of the flip operator on level 2 in the deformed geometry."""
        g2 = to_float(kron_power(self.setup.u_gram, 2))
        return op_norm(to_float(self.t_matrix), g2, g2)

    # -- word bookkeeping ----------------------------------------------------

    def level_dim(self, n: int) -> int:
        return self.dim**n

    def level_offset(self, n: int) -> int:
        return self._offsets[n]

    def level_slice(self, n: int) -> slice:
        off = self.level_offset(self.check_level(n))
        return slice(off, off + self.level_dim(n))

    def level_diag(self, block) -> np.ndarray:
        """Full-space matrix with ``block(n)`` on level n's diagonal block."""
        return block_diag([block(n) for n in range(self.n_max + 1)])

    def word_index(self, word) -> int:
        idx = 0
        for a in word:
            idx = idx * self.dim + a
        return idx

    def index_word(self, idx: int, n: int) -> tuple:
        word = []
        for _ in range(n):
            idx, a = divmod(idx, self.dim)
            word.append(a)
        return tuple(reversed(word))

    def basis_words(self, n: int):
        return list(itertools.product(range(self.dim), repeat=n))

    def permuted_words(self, n: int, order) -> np.ndarray:
        """Index map of a position permutation on level n: for every word,
        the index of the word whose position p holds the letter at
        position ``order[p]``."""
        return (self.dim ** np.arange(n - 1, -1, -1)).dot(self._digits[n][list(order)])

    def _zeros(self, shape) -> np.ndarray:
        if self.exact:
            return np.full(shape, Fraction(0), dtype=object)
        return np.zeros(shape, dtype=complex)

    def _check_vector(self, xi) -> np.ndarray:
        xi = np.asarray(xi)
        if xi.shape != (self.dim,):
            raise BuildError("vector of dimension %d expected" % self.dim)
        return xi

    # -- flip operators and the symmetric-group representation ----------------

    def _flip(self, n: int, i: int) -> _Monomial:
        """T_i on level n: swap legs i, i+1 with the deformation weight."""
        order = list(range(n))
        order[i], order[i + 1] = i + 1, i
        labels = self._block_arr[self._digits[n][i : i + 2]]
        coeff = self.setup.deformation.entries[labels[0], labels[1]]
        return _Monomial(self.permuted_words(n, order), coeff)

    def _identity_monomial(self, n: int) -> _Monomial:
        size = self.dim**n
        coeff = np.full(size, Fraction(1), dtype=object) if self.exact else np.ones(size)
        return _Monomial(np.arange(size), coeff)

    def _pi_table(self, n: int) -> dict:
        """pi(sigma) for every sigma in S_n, grown one adjacent flip at a time."""
        flips = [self._flip(n, i) for i in range(n - 1)]
        table = {}
        for perm in permutations_by_length(n):
            ds = descents(perm)
            if not ds:
                table[perm] = self._identity_monomial(n)
                continue
            i = ds[0]
            shorter = apply_adjacent(perm, i)
            # perm = shorter . t_i with one more inversion, so pi multiplies
            table[perm] = table[shorter].after(flips[i])
        return table

    def pi_of(self, perm, n: int) -> np.ndarray:
        """Matrix of pi(sigma) on level n."""
        self.check_level(n)
        perm = tuple(perm)
        if len(perm) != n:
            raise BuildError("permutation of %d letters expected" % n)
        return self._pi_table(n)[perm].matrix(self.exact)

    def t_amplified(self, i: int, n: int) -> np.ndarray:
        """T_i on level n by Kronecker assembly, I^(i) (x) T (x) I^(n-i-2):
        the dense oracle of ``_flip``."""
        eye = identity_matrix(self.dim, self.exact)
        out = kron_power(eye, i)
        out = np.kron(out, self.t_matrix)
        return np.kron(out, kron_power(eye, n - i - 2))

    def braid_defect(self, i: int, n: int) -> float:
        """Largest entry of T_i T_{i+1} T_i - T_{i+1} T_i T_{i+1} on level n,
        for 0 <= i <= n - 3, composed from the flips ``_flip`` that P(n) is
        built from: exactly in exact mode, in floats otherwise.  Each entry
        of a product is the product of three flip entries that a dense
        product computes, and the defect is read column by column: where
        both products send the column to one row their entries subtract,
        elsewhere each stands alone."""
        self.check_level(n)
        if not 0 <= i <= n - 3:
            raise BuildError("no braid position %d on level %d" % (i, n))
        ti, tj = self._flip(n, i), self._flip(n, i + 1)
        lhs, rhs = ti.after(tj).after(ti), tj.after(ti).after(tj)
        apart = np.maximum(np.abs(lhs.coeff), np.abs(rhs.coeff))
        gap = np.where(lhs.perm == rhs.perm, np.abs(lhs.coeff - rhs.coeff), apart)
        return float(gap.max())

    def _orbit_blocks(self, n: int) -> tuple:
        """P(n) as its orbit blocks: a (words, blocks) pair per orbit size k,
        ``words`` (count, k) and ``blocks`` (count, k, k), block o holding
        P(n) on the words of orbit o.  A word's orbit is keyed by the index
        of its letters sorted; each orbit is a row of its words in increasing
        index, the rows in key order.  pi(sigma) keeps every orbit, so each
        monomial of ``_pi_table`` adds onto each entry once, in table order,
        from +0: every entry is that of the dense sum ``out[perm, cols] +=
        coeff`` bit for bit.  Real in float mode: q is real, and so is every
        pi coefficient."""
        keys = (self.dim ** np.arange(n - 1, -1, -1)).dot(np.sort(self._digits[n], axis=0))
        order = np.argsort(keys, kind="stable")
        orbits = {}
        for words in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            orbits.setdefault(len(words), []).append(words)
        groups = [np.array(rows) for rows in orbits.values()]
        place = np.empty(self.dim**n, dtype=int)  # a word's column in its block
        for words in groups:
            place[words] = np.arange(words.shape[1])
        zeros = self._zeros if self.exact else np.zeros
        blocks = [zeros(words.shape + words.shape[1:]) for words in groups]
        for mono in self._pi_table(n).values():
            for words, block in zip(groups, blocks):
                count, k = words.shape
                rows = place[mono.perm[words]]
                block[np.arange(count)[:, None], rows, np.arange(k)] += mono.coeff[words]
        for table in groups + blocks:
            table.flags.writeable = False
        return tuple(zip(groups, blocks))

    def p_matrix(self, n: int) -> np.ndarray:
        """P(n) as a dense level matrix, scattered from its orbit blocks on
        call (zero between orbits): real in float mode, Fractions in exact mode."""
        size = self.level_dim(self.check_level(n))
        out = self._zeros((size, size)) if self.exact else np.zeros((size, size))
        for words, block in self._p_blocks[n]:
            out[words[:, :, None], words[:, None, :]] = block
        return out

    def gram(self, n: int) -> np.ndarray:
        """Level Gram G_U^(n) P(n), formed on call; P(n) itself on exact
        spaces, where G_U = I as ``build_space`` checks."""
        p = self.p_matrix(n)
        return p if self.exact else legwise(self.setup.u_gram, n, p)

    def min_p_eigenvalue(self, n: int) -> float:
        """Smallest eigenvalue of P(n), equal to that of the pencil
        (G_n, G_U^(n)); computed once at build, in floats in exact mode."""
        return self._p_minima[self.check_level(n)]

    def _orbit_min_eigenvalue(self, n: int) -> float:
        """Smallest eigenvalue of P(n): one stacked ``eigvalsh`` per size of
        orbit block, in floats."""
        smallest = np.inf
        for _, blocks in self._p_blocks[n]:
            smallest = min(smallest, np.linalg.eigvalsh(to_float(blocks).real).min())
        return float(smallest)

    def check_level(self, n: int) -> int:
        """n itself, if level n lies within the cutoff; else CutoffError."""
        if not 0 <= n <= self.n_max:
            raise CutoffError("no level %d within the cutoff %d" % (n, self.n_max))
        return n

    def flip_skew(self) -> tuple:
        """(max |G_2 - G_2^H|, max |(G_U (x) G_U) T|): T is real symmetric and
        G_2 = (G_U (x) G_U)(1 + T), so G_2 - G_2^H is their commutator.  If it
        vanishes, G_U^(n) commutes with every T_i and P(n): every Gram is Hermitian."""
        g2 = to_float(kron_power(self.setup.u_gram, 2))
        t = to_float(self.t_matrix)
        left = g2.dot(t)
        return max_abs(left - t.dot(g2)), max_abs(left)

    def _check_build(self) -> None:
        problems = []
        # G_U = I on exact spaces, and a NaN skew fails the comparison
        if not self.exact and self.n_max >= 2:
            skew, peak = self.flip_skew()
            if not skew <= 1e-10 * max(1.0, peak):
                problems.append("level 2 Gram is not Hermitian: G_U does not commute with T")
        for n in range(self.n_max + 1):
            if not self._p_minima[n] > POSITIVITY_FLOOR:
                problems.append("level %d symmetrizer lost strict positivity" % n)
        if problems:
            raise BuildError(problems)

    # -- creation / annihilation ----------------------------------------------

    def creation(self, xi, n: int) -> np.ndarray:
        """Matrix of prepending xi, level n -> n + 1."""
        if self.check_level(n) == self.n_max:
            raise CutoffError(
                "creation out of level %d would leave the cutoff %d"
                % (n, self.n_max)
            )
        xi = self._check_vector(xi)
        eye = identity_matrix(self.level_dim(n), self.exact)
        return np.kron(xi.reshape(self.dim, 1), eye)

    def annihilation(self, xi, n: int) -> np.ndarray:
        """Deformed removal of one leg, level n -> n - 1: the dense matrix
        of ``annihilation_step`` on every level-n word.  Level 0 maps to the
        empty level: the vacuum is annihilated."""
        self.check_level(n)
        xi = self._check_vector(xi)
        if n == 0:
            return self._zeros((0, 1))
        cols = np.arange(self.level_dim(n))
        pairings = np.conj(xi).dot(self.setup.u_gram)[None]
        term, target, weight = self.annihilation_step(pairings, 0, n, cols)
        out = self._zeros((self.level_dim(n - 1), self.level_dim(n)))
        np.add.at(out, (target, cols[term]), weight)
        return out

    def annihilation_step(self, pairings, letters, n: int, rows) -> tuple:
        """Deformed removal of a leg xi from each level-n word ``rows[e]``,
        n >= 1, where entry e's xi has the pairings <xi, e_a>_U over the
        letters a in row ``letters[e]`` (or ``letters``, one for all) of
        ``pairings``.

        Returns (term, target, weight): word ``rows[term]`` goes to the
        level-(n - 1) word ``target`` with ``weight``.  Position k of a word
        contributes <xi, w_k>_U times the product of the weights
        q_{block(w_k), block(w_j)} over j < k, on the word with position k
        deleted.  Terms whose k-th leg pairs to zero are skipped, the
        deleted-position index is computed arithmetically, and terms are
        listed in increasing k, then in entry order, so summing them in
        order adds each entry's contributions in the order of the formula,
        whatever other entries share the call.
        """
        ent = self.setup.deformation.entries
        labels = self._block_arr
        digits = self._digits[n][:, rows]
        terms, targets, weights = [], [], []
        for k in range(n):
            pair = pairings[letters, digits[k]]
            keep = np.flatnonzero(pair != 0)
            removed = digits[k, keep]
            weight = pair[keep]
            for j in range(k):
                weight = weight * ent[labels[removed], labels[digits[j, keep]]]
            low = self.dim ** (n - 1 - k)
            # keep the digits before k, drop digit k, keep the digits after
            word = rows[keep]
            terms.append(keep)
            targets.append(word // (low * self.dim) * low + word % low)
            weights.append(weight)
        return np.concatenate(terms), np.concatenate(targets), np.concatenate(weights)

    # -- splitting maps ---------------------------------------------------------

    def r_star(self, n: int, k: int) -> np.ndarray:
        """Splitting map, level n + k -> (level n) tensor (level k).

        Sum over right index sets J of size k of the inversion weight
        f_{(J^c, J)} applied to the reshuffled word; the coordinate space
        is the same word space of length n + k on both sides.
        """
        total = self.check_level(n + k)
        out = self._zeros((self.level_dim(total), self.level_dim(total)))
        ent = self.setup.deformation.entries
        for idx in range(self.level_dim(total)):
            word = self.index_word(idx, total)
            labels = self._block_arr[list(word)]
            for left, right in index_splittings(total, k):
                coeff = f_coefficient(left, right, labels, ent)
                target = self.word_index(
                    tuple(word[p] for p in left) + tuple(word[p] for p in right)
                )
                out[target, idx] += coeff
        return out

    # -- full-space helpers -------------------------------------------------------

    def vacuum(self) -> np.ndarray:
        out = self._zeros(self.total_dim)
        out[0] = Fraction(1) if self.exact else 1.0
        return out

    def embed(self, vec, n: int) -> np.ndarray:
        """Place a level-n coordinate vector into the full space."""
        out = self._zeros(self.total_dim)
        out[self.level_slice(n)] = vec
        return out

    def full_inner(self, u, v):
        """Sum of the level inner products <u_n, G_U^(n) P(n) v_n>, forming no
        Gram and no dense P(n): P(n) acts orbit block by orbit block, and in
        float mode its real blocks take v_n's parts apart.  Every level's term
        is computed, so a non-finite coordinate reaches the result."""
        total = 0
        for n, pairs in enumerate(self._p_blocks):
            un, vn = u[self.level_slice(n)], v[self.level_slice(n)]
            pv = self._zeros(len(vn))
            for words, blocks in pairs:
                part = vn[words][..., None]
                if self.exact:
                    part = np.matmul(blocks, part)
                else:
                    part = np.matmul(blocks, part.real) + 1j * np.matmul(blocks, part.imag)
                pv[words] = part[..., 0]
            total += np.conj(un).dot(legwise(self.setup.u_gram, n, pv))
        return total
