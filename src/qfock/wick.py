"""Wick operators on the truncated Fock space.

A Wick word is the unique operator taking the vacuum to a prescribed
level-n argument while staying inside the algebra generated by the field
operators.  It is assembled from the explicit splitting formula

    W(xi_1 (x) ... (x) xi_n)
        = sum over (I, J) of f_(I,J) l(xi_I legs) l*(conj xi_J legs),

where (I, J) runs over the ordered splittings of the positions, f is the
inversion weight from the combinatorics module, creations are composed in
increasing position order and annihilations likewise.  Realized operators
are compressions to the truncated space: a summand whose image would leave
the cutoff is dropped, so identities are only asserted on source levels
whose compositions stay inside.

The formula is evaluated for basis words e_w only, a batch of one level's
words at a time, directly on (word, row, column, value) entries, never on
dense level blocks: each source level starts from the identity entries of
every word, annihilation legs map row words through the fock layer's
annihilation step against each entry's own letter, creation legs prepend
each entry's letter, and the terms of all splittings are summed once per
(word, flat index), in the order of the formula, so a word's entries are
the same in any batch.  The weights f read the letters' blocks, one coefficient
per word.  A basis word touches at most a few thousand of the D^2 entries,
and basis-word operators are cached per space as exactly those (a
read-only flat index array into the D x D operator and a value array).

``from_vector`` is the one realization of every other argument: W is
linear in it, so the basis words of its nonzero coordinates are assembled
in one batch if not cached, and their entries are scaled by the
coordinates and merged, in word order, into one entry list.
Simple tensors (``wick_operator``, whose legs may span blocks) and field
operators (``field``) are realized from their arguments this way.

A realized ``WickWord`` keeps its operator as such an entry list and acts
on vectors from it (``WickWord.apply``, a gather and a scatter over the
rows), so the moment and modular checks never form a D x D matrix.
Densifying is explicit: ``WickWord.dense`` for the tests' oracles and the
demos, and ``basis_word_operator``, a fresh dense copy of one cached word,
which the multiplier layer's norm scan stacks and combines in one matrix
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import f_coefficient, index_splittings
from .errors import BuildError
from .hilbert import leg_label
from .linalg import max_abs, to_float

__all__ = [
    "WickWord",
    "basis_word_operator",
    "cache_footprint",
    "field",
    "from_vector",
    "norm_bound",
    "span_operator",
    "vacuum_expectation",
    "wick_operator",
    "wick_recursion_residual",
]


@dataclass(frozen=True, eq=False)
class WickWord:
    """Realized Wick operator together with its vacuum argument.

    ``entries`` is the operator as (flat index into the row-major D x D
    matrix, values), the form the basis-word cache holds; an index occurs
    at most once.
    """

    fock: object
    level: int
    argument: np.ndarray
    entries: tuple

    def apply(self, vec) -> np.ndarray:
        """The operator applied to a full-space vector: each entry's value
        times the vector at its column, added onto its row in entry order."""
        fock = self.fock
        index, values = self.entries
        rows, cols = np.divmod(index, fock.total_dim)
        out = fock._zeros(fock.total_dim)
        np.add.at(out, rows, values * np.asarray(vec)[cols])
        return out

    def vacuum_image(self) -> np.ndarray:
        return self.apply(self.fock.vacuum())

    def dense(self) -> np.ndarray:
        """The operator as a fresh D x D matrix."""
        return _densify(self.fock, self.entries)

    def level_pairs(self) -> set:
        """(row level, column level) of every level block holding an entry."""
        fock = self.fock
        starts = [fock.level_offset(n) for n in range(1, fock.n_max + 1)]
        levels = np.searchsorted(starts, np.divmod(self.entries[0], fock.total_dim), side="right")
        # a bincount, not np.unique: a plain np.unique imports numpy.ma
        counts = np.bincount(levels[0] * (fock.n_max + 1) + levels[1])
        return {divmod(int(key), fock.n_max + 1) for key in np.flatnonzero(counts)}

    def block_entries(self, r: int, c: int) -> tuple:
        """(rows, cols, values) of the entries in the level block from level
        c to level r, rows and columns counted within the block."""
        fock = self.fock
        index, values = self.entries
        rows, cols = np.divmod(index, fock.total_dim)
        rows, cols = rows - fock.level_offset(r), cols - fock.level_offset(c)
        keep = (rows >= 0) & (rows < fock.level_dim(r)) & (cols >= 0) & (cols < fock.level_dim(c))
        return rows[keep], cols[keep], values[keep]

    def level_block(self, r: int, c: int) -> np.ndarray:
        """Fresh dense block of the operator from level c to level r."""
        rows, cols, values = self.block_entries(r, c)
        out = self.fock._zeros((self.fock.level_dim(r), self.fock.level_dim(c)))
        out[rows, cols] = values
        return out

    def adjoint_matrix(self) -> np.ndarray:
        """Adjoint in the deformed geometry, G^{-1} X^* G with G the full
        Gram form; exact words are solved in floats."""
        x, gram = self.dense(), self.fock.full_gram
        rhs = x.conj().T.dot(gram)
        if x.dtype == object:
            return np.linalg.inv(to_float(gram)).dot(to_float(rhs))
        return np.linalg.solve(gram, rhs)

    def scaled(self, factor) -> "WickWord":
        index, values = self.entries
        return WickWord(self.fock, self.level, factor * self.argument, (index, factor * values))


# identity entries one pass of the assembler starts from, at most: a batch
# is taken in runs of whole words under this count (one word at least), so
# the scratch of a pass stays near that of assembling one word alone
ASSEMBLY_ENTRIES = 8192


def _assemble_entries(fock, n, words) -> list:
    """Splitting-formula operators of the level-n basis words ``words``, as
    their nonzero entries.

    Returns one (flat index into the row-major D x D operator, values) pair
    per word, sorted by index.  For each splitting and each source level m,
    the words of a run start together from the identity entries of level
    m, as (word, row, column, value).  An annihilation leg maps every
    entry's row word through ``TruncatedFock.annihilation_step`` against
    its own word's letter; a creation leg prepends each entry's own letter
    a, moving the row to row + a d^level; the weights f are evaluated on
    the run's label arrays.  The terms are merged once, on the key (word,
    flat index) and in the order of the formula, so each word sums its
    terms exactly as it would alone; exact zeros are dropped.
    """
    setup, ent, size = fock.setup, fock.setup.deformation.entries, fock.total_dim
    letters = np.array(words, dtype=int).reshape(len(words), fock.check_level(n))
    pairings = np.array([np.conj(setup.basis_vector(a)).dot(setup.u_gram) for a in range(fock.dim)])
    blocks = [
        (left, right, m)
        for k in range(n + 1)
        for left, right in index_splittings(n, k)
        # the source levels whose image m - k + (n - k) stays inside the cutoff
        for m in range(k, fock.n_max + 1 - max(0, n - 2 * k))
    ]
    per_run = max(1, ASSEMBLY_ENTRIES // sum(fock.level_dim(m) for _, _, m in blocks))
    out = []
    for first in range(0, len(letters), per_run):
        run = letters[first : first + per_run]
        labels = fock._block_arr[run.T]
        keys, values = [], []
        for left, right, m in blocks:
            coeff = np.broadcast_to(f_coefficient(left, right, labels, ent), len(run))
            word, cols = np.divmod(np.arange(len(run) * fock.level_dim(m)), fock.level_dim(m))
            rows, vals, lvl = cols, fock._zeros(len(cols)) + 1, m
            for j in reversed(right):
                term, rows, weight = fock.annihilation_step(pairings, run[word, j], lvl, rows)
                word, cols, vals = word[term], cols[term], vals[term] * weight
                lvl -= 1
            for i in reversed(left):
                rows = run[word, i] * fock.level_dim(lvl) + rows
                lvl += 1
            flat = (rows + fock.level_offset(lvl)) * size + cols + fock.level_offset(m)
            keys.append(word * size**2 + flat)
            values.append(coeff[word] * vals)
        where, summed = _merge_entries(fock, keys, values)
        keep = summed != 0
        word, index = np.divmod(where[keep], size**2)
        summed = summed[keep]
        bounds = np.searchsorted(word, np.arange(len(run) + 1))
        out += [(index[a:b], summed[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return out


def _merge_entries(fock, index, values) -> tuple:
    """Sorted distinct entries of the arrays ``index``, with the values of
    each entry summed in list order.  ``values`` yields one array per array
    of ``index`` and is read only after the sort, one array at a time."""
    where, inverse = np.unique(np.concatenate(index), return_inverse=True)
    summed, start = fock._zeros(len(where)), 0
    for part in values:
        np.add.at(summed, inverse[start : start + len(part)], part)
        start += len(part)
    return where, summed


def _densify(fock, entries) -> np.ndarray:
    """Fresh D x D matrix holding the given (flat index, values) entries."""
    index, values = entries
    out = fock._zeros((fock.total_dim, fock.total_dim))
    out.reshape(-1)[index] = values
    return out


def _tensor_argument(fock, legs) -> np.ndarray:
    arg = fock._zeros(1)
    arg[0] = 1
    for leg in legs:
        arg = np.kron(arg, fock._check_vector(leg))
    return arg


def wick_operator(fock, legs) -> WickWord:
    """Wick word of the simple tensor of ``legs``, realized from its
    argument by ``from_vector``.  W is linear in its argument, so a leg may
    span blocks, and a zero leg gives the zero word."""
    return from_vector(fock, _tensor_argument(fock, legs), len(legs))


def _level_entries(fock, n, words) -> list:
    """Cached nonzero entries of the level-n basis words ``words``, in order.

    Each is a pair (flat index into the row-major D x D operator, values),
    both read-only.  The words not cached yet are assembled in one batch by
    ``_assemble_entries``: no level block or D x D scratch matrix is ever
    formed.
    """
    cache = fock.__dict__.setdefault("_wick_cache", {})
    missing = [word for word in words if word not in cache]
    if missing:
        for word, entry in zip(missing, _assemble_entries(fock, n, missing)):
            for arr in entry:
                arr.flags.writeable = False
            cache[word] = entry
    return [cache[word] for word in words]


def _word_entries(fock, word) -> tuple:
    """Cached nonzero entries of the basis word e_word's operator."""
    return _level_entries(fock, len(word), [word])[0]


def cache_footprint(fock) -> tuple:
    """(cached basis words, bytes held by their entry arrays)."""
    cache = fock.__dict__.get("_wick_cache", {})
    held = sum(arr.nbytes for entry in cache.values() for arr in entry)
    return len(cache), held


def basis_word_operator(fock, word) -> np.ndarray:
    """Full-space operator of the Wick word with argument e_word, as a fresh
    dense matrix densified from the cached entries."""
    return _densify(fock, _word_entries(fock, tuple(word)))


def from_vector(fock, vec, n: int) -> WickWord:
    """Wick word of an arbitrary level-n argument, by basis-word linearity.

    This is the canonical realization path: every multiplier acts on the
    argument coordinates and comes back through here.  The entries of the
    basis words with nonzero coordinates are scaled and merged into one
    entry list in word order, so every entry sums its terms in the order of
    a word-by-word sum of dense matrices.
    """
    vec = np.asarray(vec)
    fock.check_level(n)
    if vec.shape != (fock.level_dim(n),):
        raise BuildError("level-%d argument of length %d expected" % (n, fock.level_dim(n)))
    nonzero = np.flatnonzero(vec)
    entries = _level_entries(fock, n, [fock.index_word(int(idx), n) for idx in nonzero])
    # seeded empty, so a zero argument merges to no entries; a word's values
    # are scaled only when the merge adds them on
    index = [np.zeros(0, dtype=int)] + [where for where, _ in entries]
    values = (vec[idx] * vals for idx, (_, vals) in zip(nonzero, entries))
    return WickWord(fock, n, vec.copy(), _merge_entries(fock, index, values))


def vacuum_expectation(fock, operator):
    """State value of a realized operator: vacuum-to-vacuum matrix element
    in the deformed geometry."""
    vac = fock.vacuum()
    return fock.full_inner(vac, operator.dot(vac))


def span_operator(fock, coords) -> np.ndarray:
    """Operator of the Wick-span element with the given vacuum image.

    ``coords`` are full-space coordinates; the element is the sum of the
    levelwise realizations, so span_operator(coords) applied to the vacuum
    reproduces coords.
    """
    coords = np.asarray(coords)
    if coords.shape != (fock.total_dim,):
        raise BuildError(
            "span coordinates of length %d expected" % fock.total_dim
        )
    out = fock._zeros((fock.total_dim, fock.total_dim))
    for n in range(fock.n_max + 1):
        seg = coords[fock.level_slice(n)]
        if np.any(seg != 0):
            out += from_vector(fock, seg, n).dense()
    return out


def field(fock, xi) -> WickWord:
    """Self-adjoint field operator l(xi) + l*(xi) of a real vector: the
    level-1 Wick word of xi, which may span blocks."""
    xi = np.asarray(xi)
    if np.any(np.imag(to_float(np.atleast_1d(xi))) != 0):
        raise BuildError("field operators take real vectors")
    return from_vector(fock, xi, 1)


def wick_recursion_residual(fock, first, rest) -> float:
    """Max-entry residual of the one-step product recursion.

    Compares W(first (x) rest) against W(first) W(rest) minus the deformed
    contraction corrections, on all source levels whose compositions stay
    inside the cutoff (levels up to n_max - len(rest) - 1).  The
    corrections weigh the legs of ``rest`` by their blocks, so each of them
    must lie in a single block.
    """
    first = np.asarray(first)
    rest = [np.asarray(r) for r in rest]
    l = len(rest)
    fock.check_level(l + 1)
    rest_labels = tuple(leg_label(fock.setup, leg) for leg in rest)

    lhs = wick_operator(fock, [first] + rest).dense()
    rhs = wick_operator(fock, [first]).dense().dot(wick_operator(fock, rest).dense())
    ent = fock.setup.deformation.entries
    for r in range(l):
        pairing = fock.setup.u_inner(np.conj(first), rest[r])
        weight = pairing
        for j in range(r):
            weight = weight * ent[rest_labels[r], rest_labels[j]]
        if weight == 0:
            continue
        dropped = wick_operator(fock, rest[:r] + rest[r + 1 :]).dense()
        rhs = rhs - weight * dropped
    valid = fock.level_offset(fock.n_max - l)
    return max_abs(to_float(lhs - rhs)[:, :valid])


def norm_bound(fock, vec, n: int) -> float:
    """Crude rigorous operator-norm bound of the realized Wick word.

    Triangle inequality over basis words and splittings: every creation or
    annihilation leg of a basis vector is bounded by (1 - |T|)^{-1/2} in
    the deformed geometry, and the splitting weight is |f|.
    """
    vec = to_float(np.asarray(vec))
    ent = fock.setup.deformation.entries
    scale = (1 - fock.t_norm) ** (-n / 2)
    total = 0.0
    for idx in range(fock.level_dim(n)):
        c = abs(vec[idx])
        if c == 0:
            continue
        labels = fock._block_arr[list(fock.index_word(idx, n))]
        weight = 0.0
        for k in range(n + 1):
            for left, right in index_splittings(n, k):
                weight += abs(f_coefficient(left, right, labels, ent))
        total += c * weight * scale
    return float(total)
