"""Finite-rank approximation layer on the truncated Wick span.

Second quantization lifts a suitable one-particle contraction to the span
legwise; radial symbols scale each word length by a fixed value; the two
commute because quantization preserves word length.  Both are realized on
argument coordinates through the canonical basis-word path, so composition
identities that are exact in the scalars stay exact in the arrays.

The approximation net composes a length cutoff with the quantization of a
shrunk finite-rank contraction, then normalizes by a computable surrogate
for the amplified operator norm.  The norm estimator returns a LOWER bound:
it realizes matrix-valued combinations of Wick words (witnesses), measures
the ratio of realized operator norms after and before the map, and climbs
that ratio by a backtracking ascent along its singular-vector gradient from
one seed per level.  On a radial symbol the seeds alone meet the trivial
bound max_n |symbol(n)|.  Estimates are non-decreasing in the amplification
size because the previous witness embeds with an unchanged ratio and is
replaced only by a strictly better one.

Realization runs on a stack of all D basis-word operators, whitened by the
Cholesky factor of the full Gram form and built once per space.  A level-n
word maps level k only to the levels k + n - 2j, so the stack keeps each
word on the level blocks it reaches alone, one array of whitened blocks per
level pair (43% of a dense stack's 16 D^3 bytes at d = 3, n_max 3).  A
size-s witness is realized by one (s^2 x words) by (words x d^m d^k)
product per level pair, and its deformed norm is a plain spectral norm.
The scan still refuses spaces whose dense stack, 16 D^3 bytes, exceeds a
fixed budget (D <= 256).
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .errors import BuildError
from .hilbert import GROUP_CHECK_TIMES
from .limits import MAX_AMPLIFICATION, STACK_BUDGET_BYTES
from .linalg import (
    complex_normals,
    gram_inner,
    hermitize,
    kron_power,
    legwise,
    max_abs,
    op_norm,
    to_float,
)
from .wick import WickWord, _level_entries, basis_word_operator, from_vector

__all__ = [
    "MAX_AMPLIFICATION",
    "ContractionFamily",
    "NetElement",
    "RadialSymbol",
    "amplified_norm_estimate",
    "amplified_norm_scan",
    "check_quantizable",
    "check_stack_budget",
    "net_element",
    "net_majorant",
    "net_pointwise_defect",
    "radial_apply",
    "radial_matrix",
    "second_quantize",
    "second_quantize_matrix",
    "tail_series",
]

# scan ascent: at most this many steps, each refused after this many
# halvings, and a step kept only when it gains this much relative
_ASCENT_STEPS = 20
_ASCENT_HALVINGS = 6
_ASCENT_GAIN = 1e-9
# seeds scoring within this relative distance of the best are ascended
_SEED_TIE = 1e-12

# -- radial symbols ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadialSymbol:
    """Bounded function of word length: explicit head values, constant tail.

    ``values[n]`` is the scale at length n below the support bound, and
    ``tail`` applies from there on.  A zero tail makes the symbol finite
    rank on the span.
    """

    values: tuple
    tail: complex = 0.0

    def __post_init__(self):
        for v in (*self.values, self.tail):
            if not math.isfinite(abs(complex(v))):
                raise BuildError("radial symbol values must be finite")

    def at(self, n: int):
        if n < len(self.values):
            return self.values[n]
        return self.tail

    @classmethod
    def kronecker(cls, n: int) -> "RadialSymbol":
        """Projection onto words of length exactly n."""
        return cls((0.0,) * n + (1.0,), 0.0)


def radial_apply(symbol: RadialSymbol, word: WickWord) -> WickWord:
    """Scale a homogeneous Wick word by the symbol value at its length."""
    return word.scaled(symbol.at(word.level))


def radial_matrix(fock, symbol: RadialSymbol) -> np.ndarray:
    """Action of the symbol on argument coordinates, as a full matrix."""
    return fock.level_diag(lambda n: symbol.at(n) * np.eye(fock.level_dim(n)))


# -- second quantization -----------------------------------------------------


def _as_scalar(matrix: np.ndarray):
    """The scalar s when the matrix is exactly s times the identity."""
    d = matrix.shape[0]
    s = matrix[0, 0]
    for i in range(d):
        for j in range(d):
            if i == j:
                if matrix[i, j] != s:
                    return None
            elif matrix[i, j] != 0:
                return None
    return s


def _check_finite(matrix, user: str) -> None:
    """Refuse a matrix with a non-finite entry, naming the first five."""
    bad = [tuple(int(i) for i in entry) for entry in np.argwhere(~np.isfinite(to_float(matrix)))]
    if bad:
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise BuildError(
            f"{user} needs a finite matrix; entries "
            f"{', '.join(map(str, bad[:5]))}{more} are not finite"
        )


def check_quantizable(setup, matrix) -> None:
    """Validate the one-particle map to 1e-10: finite first, then a
    contraction in the deformed geometry, block preserving, commuting with
    the group at sampled times."""
    matrix = np.asarray(matrix)
    violations = []
    if matrix.shape != (setup.dim, setup.dim):
        raise BuildError(f"one-particle map must be {setup.dim}x{setup.dim}")
    _check_finite(matrix, "a one-particle map")
    norm = op_norm(to_float(matrix), to_float(setup.u_gram), to_float(setup.u_gram))
    if norm > 1 + 1e-10:
        violations.append(f"one-particle map has norm {norm:.6g} > 1")
    block_of = np.asarray(setup.block_of)
    coupling = (block_of[:, None] != block_of[None, :]) & (matrix != 0)
    for i, j in np.argwhere(coupling):
        violations.append(f"entry ({i}, {j}) couples blocks {block_of[i]} and {block_of[j]}")
    for t in GROUP_CHECK_TIMES:
        u = setup.u_matrix(t)
        if max_abs(matrix.dot(u) - u.dot(matrix)) > 1e-10:
            violations.append(f"one-particle map fails to commute with the group at t={t}")
    if violations:
        raise BuildError(violations)


def second_quantize(fock, matrix, word: WickWord) -> WickWord:
    """Legwise lift of a one-particle contraction to a Wick word.

    Scalar multiples of the identity take a fast path that scales the word
    by s**n outright, keeping the scaling identities exact.
    """
    matrix = np.asarray(matrix)
    check_quantizable(fock.setup, matrix)
    return _quantize(fock, matrix, word)


def _quantize(fock, matrix, word: WickWord) -> WickWord:
    """second_quantize for a matrix its caller has already checked."""
    scalar = _as_scalar(matrix)
    if scalar is not None:
        return word.scaled(scalar ** word.level)
    return from_vector(fock, legwise(matrix, word.level, word.argument), word.level)


def second_quantize_matrix(fock, matrix) -> np.ndarray:
    """Quantized map on argument coordinates, as a full matrix."""
    matrix = np.asarray(matrix)
    check_quantizable(fock.setup, matrix)
    return _legwise_matrix(fock, matrix, fock.n_max)


def _legwise_matrix(fock, matrix, length_cut: int) -> np.ndarray:
    """Full matrix of the legwise power of a one-particle map on lengths up
    to ``length_cut`` and zero above; a scalar map s gives s**n exactly."""
    scalar = _as_scalar(matrix)

    def block(n):
        if n > length_cut:
            return np.zeros((fock.level_dim(n),) * 2)
        if scalar is not None:
            return scalar**n * np.eye(fock.level_dim(n))
        return kron_power(matrix, n)

    return fock.level_diag(block)


# -- finite-rank contractions ------------------------------------------------


@dataclass(frozen=True, eq=False)
class ContractionFamily:
    """Block projections onto growing initial spans of the basis.

    Member k keeps the basis vectors of the first k blocks and kills the
    rest.  Entries are real, whole blocks are kept or dropped (so every
    member commutes with the group and with the generator), the operator
    norm is at most 1, and the last member is the identity.
    """

    setup: object

    @property
    def size(self) -> int:
        """Number of members, indices 0 .. size - 1."""
        return self.setup.n_blocks + 1

    def member(self, k: int) -> np.ndarray:
        if not 0 <= k < self.size:
            raise BuildError(f"family index {k} outside 0..{self.size - 1}")
        keep = [1.0 if label < k else 0.0 for label in self.setup.block_of]
        return np.diag(keep)


# -- approximation net -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NetElement:
    """Composite of a length cutoff with a shrunk quantized contraction.

    Kills word lengths above ``length_cut``, then applies the quantization
    of exp(-time) * member(index) legwise.
    """

    fock: object
    family: ContractionFamily
    length_cut: int
    time: float
    index: int

    def contraction(self) -> np.ndarray:
        return math.exp(-self.time) * self.family.member(self.index)

    def apply(self, word: WickWord) -> WickWord:
        if word.level > self.length_cut:
            return word.scaled(0.0)
        # net_element checked the contraction
        return _quantize(self.fock, self.contraction(), word)

    def argument_matrix(self) -> np.ndarray:
        """Full coordinate action, for norm estimation and reports."""
        return _legwise_matrix(self.fock, self.contraction(), self.length_cut)


def net_element(fock, family: ContractionFamily, length_cut: int, time: float, index: int) -> NetElement:
    violations = []
    if not 0 <= length_cut <= fock.n_max:
        violations.append(f"length cutoff {length_cut} outside 0..{fock.n_max}")
    if not time > 0:
        violations.append(f"net time must be positive, got {time}")
    if not 0 <= index < family.size:
        violations.append(f"family index {index} outside 0..{family.size - 1}")
    if violations:
        raise BuildError(violations)
    check_quantizable(fock.setup, math.exp(-time) * family.member(index))
    return NetElement(fock, family, length_cut, float(time), index)


def net_pointwise_defect(element: NetElement, word: WickWord, surrogate: float) -> float:
    """Deformed-norm distance between the image divided by ``surrogate``, a
    computed amplified-norm surrogate such as max(1, estimate), and the word."""
    fock = element.fock
    image = element.apply(word)
    diff = image.argument / surrogate - word.argument
    gram = to_float(fock.gram(word.level))
    return math.sqrt(abs(gram_inner(diff, diff, gram)))


def tail_series(beyond: int, t: float) -> float:
    """Sum of k^2 exp(-kt) over k > beyond, to absolute error below 1e-14.

    Terms decay at least geometrically once k exceeds max(beyond, 2/t), and
    the summation stops when the geometric majorant of the remainder drops
    below 1e-15.  ``beyond`` must be a nonnegative integer, a level count;
    any other raises BuildError.
    """
    if not (isinstance(beyond, numbers.Integral) and not isinstance(beyond, bool) and beyond >= 0):
        raise BuildError(f"tail series needs a nonnegative integer beyond, got {beyond!r}")
    if not t > 0:
        raise BuildError(f"tail series needs t > 0, got {t}")
    x = math.exp(-t)
    total = 0.0
    k = int(beyond) + 1
    while True:
        term = k * k * x**k
        total += term
        ratio = x * ((k + 1) / k) ** 2
        if ratio < 1 and term * ratio / (1 - ratio) < 1e-15:
            return total
        k += 1


def net_majorant(beyond: int, t: float) -> float:
    """Analytic normalization majorant 1 + tail_series.

    No concrete constant accompanies the bound, so the tail's coefficient
    is 1; reports carry this number as an annotation, never as a pass/fail
    threshold.
    """
    return 1.0 + tail_series(beyond, t)


# -- amplified norm estimation -----------------------------------------------


def check_stack_budget(fock) -> None:
    """Refuse a space whose realization stack, counted dense (16 D^3 bytes),
    is over budget."""
    d = fock.total_dim
    if 16 * d**3 > STACK_BUDGET_BYTES:
        raise BuildError(
            f"amplified-norm scan needs a realization stack of 16*{d}^3 = "
            f"{16 * d**3} bytes, over the budget of {STACK_BUDGET_BYTES} "
            "bytes; lower the cutoff or the dimension"
        )


def _whitened_stack(fock) -> tuple:
    """Basis-word operators in an orthonormal frame of the full Gram form,
    kept on the level blocks they reach.

    Word i's whitened operator is L^H R_i L^-H, where R_i realizes the i-th
    basis word in full coordinate order and full_gram = L L^H.  A realized
    span element then has its deformed operator norm as the plain spectral
    norm of its whitened form.  By the splitting formula a level-n word
    maps level k to the levels k + n - 2j, 0 <= j <= min(n, k), so it
    reaches the block (m, k) exactly when |m - k| <= n, m - k = n (mod 2) and
    m + k >= n; L is block-diagonal by level, so whitening keeps every
    other block zero.  The stack is one entry per level pair:
    (row slice of level m, column slice of level k, the indices of the
    words reaching the block, their whitened blocks as one array of shape
    (words, d^m, d^k)).  Each word is densified and whitened once, and its
    blocks are copied out.  Built once per space and memoized beside the
    basis-word cache; the budget still counts the dense 16 D^3 bytes.
    """
    hit = fock.__dict__.get("_whitened_stack")
    if hit is not None:
        return hit
    check_stack_budget(fock)
    d = fock.total_dim
    lower = np.linalg.cholesky(hermitize(to_float(fock.full_gram)))
    left = lower.conj().T
    right = np.linalg.solve(lower, np.eye(d)).conj().T
    levels = range(fock.n_max + 1)
    stack, reached = [], [[] for _ in levels]
    for m, k in itertools.product(levels, repeat=2):
        rows, cols = fock.level_slice(m), fock.level_slice(k)
        reach = range(abs(m - k), min(m + k, fock.n_max) + 1, 2)
        index = np.concatenate([np.arange(d)[fock.level_slice(n)] for n in reach])
        blocks = np.empty((len(index), fock.level_dim(m), fock.level_dim(k)), dtype=complex)
        start = 0
        for n in reach:  # the pair's words run level by level, in word order
            reached[n].append((rows, cols, blocks, start))
            start += fock.level_dim(n)
        stack.append((rows, cols, index, blocks))
    words = [fock.basis_words(n) for n in levels]
    for n, level in enumerate(words):
        _level_entries(fock, n, level)  # each level's words assembled in one batch
    for n, level in enumerate(words):
        for j, word in enumerate(level):
            whitened = left.dot(to_float(basis_word_operator(fock, word))).dot(right)
            for rows, cols, blocks, start in reached[n]:
                blocks[start + j] = whitened[rows, cols]
    for _, _, index, blocks in stack:
        index.flags.writeable = blocks.flags.writeable = False
    stack = tuple(stack)
    fock.__dict__["_whitened_stack"] = stack
    return stack


def _realize(stack: tuple, witnesses: np.ndarray) -> np.ndarray:
    """Block operators realizing a stack of witnesses of shape (..., s, s, D).

    Block (a, b) realizes the span coordinates witness[a, b].  Each level
    pair of every block is filled in place by one (s^2 x words) by
    (words x d^m d^k) product over the words reaching it.
    """
    *batch, size, _, d = witnesses.shape
    flat = witnesses.reshape(-1, d)
    big = np.empty((*batch, size, d, size, d), dtype=complex)
    for rows, cols, index, blocks in stack:
        count, dm, dk = blocks.shape
        part = flat[:, index].dot(blocks.reshape(count, dm * dk))
        big[..., rows, :, cols] = part.reshape(*batch, size, size, dm, dk).swapaxes(-3, -2)
    return big.reshape(*batch, size * d, size * d)


def _realized_norm(stack: tuple, witness: np.ndarray):
    """Deformed operator norms of the block operators realizing a stack of
    witnesses, by one stacked SVD: in the whitened frame each norm is the
    top singular value."""
    return np.linalg.svd(_realize(stack, witness), compute_uv=False)[..., 0]


def _scores(stack, matrix, witnesses) -> np.ndarray:
    """Ratios ||B(M W)|| / ||B(W)|| of a stack of unit witnesses, by one
    stacked SVD.  A denominator below 1e-9 scores 0; witnesses have unit
    Frobenius norm, so the guard does not depend on their scale."""
    count = len(witnesses)
    norms = _realized_norm(stack, np.concatenate([witnesses, witnesses.dot(matrix.T)]))
    below, above = norms[:count], norms[count:]
    return np.where(below < 1e-9, 0.0, above / np.maximum(below, 1e-9))


def _ascent_direction(stack, matrix, witness):
    """Unit direction of steepest ascent of the score at a witness, or None.

    With (u, v) the top singular pair of B(X), the derivative of ||B(X)||
    along dX is Re sum dX_abi g_abi with g_abi = u_a^H S_i v_b, S_i the
    whitened basis words; X = M W pulls g back through M.  g is summed
    level pair by level pair over the words reaching each.
    """
    size, _, d = witness.shape
    pair = np.stack([witness, witness.dot(matrix.T)])
    left, sigma, right = np.linalg.svd(_realize(stack, pair), full_matrices=False)
    u = left[:, :, 0].reshape(2, size, d).conj()
    v = right[:, 0, :].reshape(2, size, d).conj()
    g = np.zeros((2 * size * size, d), dtype=complex)
    for rows, cols, index, blocks in stack:
        count, dm, dk = blocks.shape
        outer = np.einsum("kap,kbq->kabpq", u[..., rows], v[..., cols]).reshape(-1, dm * dk)
        g[:, index] += outer.dot(blocks.reshape(count, dm * dk).T)
    g = g.reshape(2, size, size, d)
    below, above = sigma[:, 0]
    direction = np.conj(g[1].dot(matrix) - (above / below) * g[0])
    length = np.linalg.norm(direction)
    if not length > 0:
        return None
    return direction / length


def _ascend(stack, matrix, witness, value):
    """Backtracking ascent of the score from a unit witness.

    A step must gain more than _ASCENT_GAIN relative.  The step length
    doubles after a kept step and halves after a refused one; all halvings
    of one step are scored in one stacked SVD and the longest gaining one is
    kept.  The witness is renormalized after every step.
    """
    step = 0.5
    for _ in range(_ASCENT_STEPS):
        direction = _ascent_direction(stack, matrix, witness)
        if direction is None:
            break
        lengths = step * 0.5 ** np.arange(_ASCENT_HALVINGS + 1)
        trials = witness + lengths[:, None, None, None] * direction
        trials /= np.sqrt(np.sum(abs(trials) ** 2, axis=(1, 2, 3), keepdims=True))
        scores = _scores(stack, matrix, trials)
        gaining = np.flatnonzero(scores > value * (1 + _ASCENT_GAIN))
        if not len(gaining):
            break
        k = gaining[0]
        witness, value, step = trials[k], float(scores[k]), 2 * lengths[k]
    return witness, value


def _real_part(setup, v, n: int) -> np.ndarray:
    """The unit real part of a unit level-n vector v: v + Cv or i(v - Cv),
    whichever is longer (their squared norms sum to 4), normalized.  C keeps
    the top right singular vectors of a map commuting with it, as every
    map of the runs does, so v's real part is one of them."""
    image = setup.involution(v, n)
    part = max([v + image, 1j * (v - image)], key=np.linalg.norm)
    return part / np.linalg.norm(part)


def _scan(fock, matrix, max_amplification: int, seed: int) -> list:
    """Estimates of the amplified norms, sizes 1..max, each with its unit
    witness: a list of (value, witness) pairs.  See amplified_norm_scan."""
    if not 1 <= max_amplification <= MAX_AMPLIFICATION:
        raise BuildError(
            f"amplification size must lie in 1..{MAX_AMPLIFICATION}"
        )
    # random.Random accepts and hashes any object; a scan seed is a count
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
        raise BuildError(f"scan seed must be a nonnegative integer, got {seed!r}")
    # complex throughout, so every SVD of the scan is LAPACK's complex one
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (fock.total_dim,) * 2:
        raise BuildError("norm estimation expects a full coordinate matrix")
    _check_finite(matrix, "norm estimation")
    stack = _whitened_stack(fock)
    d = fock.total_dim
    seeds = np.zeros((fock.n_max + 1, 1, 1, d), dtype=complex)
    for n in range(fock.n_max + 1):
        columns = fock.level_slice(n)
        _, sigma, right = np.linalg.svd(matrix[:, columns], full_matrices=False)
        top = right[0].conj()
        # the top vector's real part, when that is a top right singular vector too
        real = _real_part(fock.setup, top, n)
        if np.linalg.norm(matrix[:, columns].dot(real)) >= sigma[0] * (1 - _SEED_TIE):
            top = real
        seeds[n, 0, 0, columns] = top
    scores = _scores(stack, matrix, seeds)
    value, witness = -math.inf, None
    for n in np.flatnonzero(scores >= scores.max() * (1 - _SEED_TIE)):
        climbed, reached = _ascend(stack, matrix, seeds[n], float(scores[n]))
        if reached > value:
            value, witness = reached, climbed
    results = [(value, witness)]
    rng = random.Random(seed)
    for size in range(2, max_amplification + 1):
        padded = np.zeros((size, size, d), dtype=complex)
        padded[:-1, :-1] = witness
        witness = padded
        trial = complex_normals(rng, (size, size, d))
        trial /= np.linalg.norm(trial)
        score = float(_scores(stack, matrix, trial[None])[0])
        if score > value:
            witness, value = _ascend(stack, matrix, trial, score)
        results.append((value, witness))
    return results


def amplified_norm_scan(
    fock,
    matrix,
    max_amplification: int,
    seed: int = 20240817,
) -> list:
    """Lower-bound estimates of the amplified norms, sizes 1..max.

    Each estimate is the ratio of realized operator norms after and before
    the map on a witness, a matrix of span coordinates.  Size 1 seeds one
    witness per level, a top right singular vector of the map restricted
    to that level's columns (a real one, ``_real_part``, where LAPACK's is
    not), and climbs by singular-vector ascent from every seed that ties
    the best; on a radial symbol the level-n seed scores |symbol(n)|.
    Each larger size keeps the previous witness padded by a zero row and
    column, whose ratio is unchanged, and replaces it only by
    a full-support witness that scores strictly higher after its own
    ascent.  That witness's coordinates are ``linalg.complex_normals`` draws
    from ``random.Random(seed)``; ``seed`` must be a nonnegative integer,
    and any other raises BuildError.  The sequence is non-decreasing by
    construction.
    """
    return [value for value, _ in _scan(fock, matrix, max_amplification, seed)]


def amplified_norm_estimate(fock, matrix, amplification: int, seed: int = 20240817) -> float:
    """Lower-bound estimate at the given amplification size, the largest
    over all sizes up to it; see amplified_norm_scan for the ascent."""
    return amplified_norm_scan(fock, matrix, amplification, seed)[-1]
