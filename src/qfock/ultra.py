"""Finite-m averaged-generator moments and their large-m limit.

An averaged generator over an auxiliary dimension m pairs each base vector
with m orthonormal auxiliary directions, one tracial factor carrying the
shape deformation and one factor carrying the uniform scale.  Joint vacuum
moments of these averages converge, as m grows, to the moments of the
mixed-deformation state with matrix entries q * q_tilde.

Two independent evaluators are provided.  The enumeration path computes
the exact finite-m double sum, grouping auxiliary multi-indices by the
value assignment on the blocks of the join of the two pair partitions
(injective and non-injective assignments alike), with the shape entries
read off the ACTUAL auxiliary values.  The closed form collapses the same
sum into crossing powers times m**(|join| - l/2); that collapse is valid
only when the shape deformation is uniform, because only then is the
first-factor crossing coefficient independent of the auxiliary values.
Non-uniform specs must use the enumeration path, and their convergence is
reported rather than asserted.

The remainder of the one-letter extension recursion (splitting an
(l+1)-letter average into the extended word, the contracted words, and a
normalized rest term) is realized as a vector norm check: the rest term is
applied to the vacuum in an explicit two-factor truncated model and its
normalized norm is expected to decay like m**(-1/2).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import pair_partitions
from .errors import BuildError
from .fock import TruncatedFock
from .hilbert import DeformationMatrix, build_space
from .limits import MAX_AUX_DIM, MAX_UM_LENGTH, REMAINDER_AUX_DIMS
from .linalg import to_float
from .moments import MomentSpec, moment_pairings, validate_word

__all__ = [
    "MAX_AUX_DIM",
    "MAX_UM_LENGTH",
    "ConvergenceReport",
    "UmSpec",
    "aux_deformation_matrix",
    "convergence_experiment",
    "effective_deformation",
    "recursion_remainder_norm",
    "um_moment_closedform",
    "um_moment_enumerate",
]


@dataclass(frozen=True, eq=False)
class UmSpec:
    """A word of averaged generators at one auxiliary dimension.

    ``q_tilde`` is either a scalar (uniform shape on every auxiliary
    index) or a square matrix of actual entries, read as zero outside its
    size.  ``q`` is the uniform scale of the second factor.  Each vector
    must lie in one block, as in a moment word (``validate_word``); the
    evaluators read only the vectors' inner products, never their labels.
    """

    m: int
    vectors: tuple
    q: object
    q_tilde: object

    @classmethod
    def build(cls, setup, m, vectors, q, q_tilde) -> "UmSpec":
        violations = []
        if not (isinstance(m, (int, np.integer)) and m >= 1):
            violations.append(f"auxiliary dimension must be a positive integer, got {m!r}")
        if not (isinstance(q, numbers.Real) and 0 < q < 1):
            violations.append(f"uniform scale q must be real in (0, 1), got {q!r}")
        # a uniform shape is checked as the 1x1 matrix of its value
        uniform = isinstance(q_tilde, numbers.Number)
        try:
            DeformationMatrix.build([[q_tilde]] if uniform else q_tilde)
        except BuildError as err:
            if uniform:
                violations.append(
                    f"uniform shape entry must be real with modulus < 1, got {q_tilde!r}"
                )
            else:
                violations.extend(f"shape deformation: {item}" for item in err.violations)
        vecs, _ = validate_word(setup, vectors, MAX_UM_LENGTH, "averaged-moment", violations)
        # the caller's own matrix, so exact Fraction entries keep their dtype
        return cls(int(m), vecs, q, q_tilde if uniform else np.asarray(q_tilde))

    @property
    def l(self) -> int:
        return len(self.vectors)

    @property
    def uniform(self) -> bool:
        return np.ndim(self.q_tilde) == 0

    def shape_entry(self, a: int, b: int):
        """Shape deformation between auxiliary values a and b (0-based),
        zero beyond the declared size."""
        if self.uniform:
            return self.q_tilde
        n = self.q_tilde.shape[0]
        if a < n and b < n:
            return self.q_tilde[a, b]
        return 0


def _zero(setup):
    return Fraction(0) if setup.exact else complex(0)


def _one(setup):
    return Fraction(1) if setup.exact else complex(1)


def _second_factor_weights(spec: UmSpec, setup):
    """Per pair partition: the uniform-scale crossing power times the
    product of deformed inner products of the paired vectors."""
    out = []
    for nu in pair_partitions(spec.l):
        w = spec.q ** nu.crossing_number()
        for i, j in nu.pairs:
            w = w * setup.u_inner(spec.vectors[i], spec.vectors[j])
        out.append((nu, w))
    return out


def _guard_enumeration(spec: UmSpec) -> None:
    violations = []
    if spec.m > MAX_AUX_DIM:
        violations.append(
            f"enumeration capped at auxiliary dimension {MAX_AUX_DIM}, got {spec.m}"
        )
    if spec.l > MAX_UM_LENGTH:
        violations.append(f"enumeration capped at word length {MAX_UM_LENGTH}, got {spec.l}")
    if violations:
        raise BuildError(violations)


def um_moment_enumerate(spec: UmSpec, setup):
    """Exact finite-m moment of the averaged word, by grouped summation.

    The double pairing sum forces the auxiliary multi-index to be constant
    on each block of the join of the two partitions; the sum over indices
    becomes a sum over value assignments on those blocks, evaluated with
    the shape entries at the assigned values.
    """
    _guard_enumeration(spec)
    l = spec.l
    if l % 2:
        return _zero(setup)
    if l == 0:
        return _one(setup)
    second = _second_factor_weights(spec, setup)
    total = _zero(setup)
    for nu in pair_partitions(l):
        nu_blocks = nu.as_set_partition()
        crossings = nu.crossing_indices()
        for nup, w2 in second:
            if w2 == 0:
                continue
            join = nu_blocks.join(nup.as_set_partition())
            cross_blocks = [
                (join.block_of(nu.pairs[r][0]), join.block_of(nu.pairs[s][1]))
                for r, s in crossings
            ]
            for values in itertools.product(range(spec.m), repeat=join.block_count):
                g1 = _one(setup)
                for bi, bj in cross_blocks:
                    g1 = g1 * spec.shape_entry(values[bi], values[bj])
                total = total + g1 * w2
    return total / spec.m ** (l // 2)


def um_moment_closedform(spec: UmSpec, setup):
    """Collapsed finite-m moment, valid only for a uniform shape entry.

    Sum over pairs of pair partitions of shape**crossings(first) times
    scale**crossings(second) times the paired inner products times
    m**(|join| - l/2).
    """
    if not spec.uniform:
        raise BuildError(
            "closed form needs a uniform shape deformation; "
            "use the enumeration path for matrix-valued shapes"
        )
    l = spec.l
    if l % 2:
        return _zero(setup)
    if l == 0:
        return _one(setup)
    second = _second_factor_weights(spec, setup)
    total = _zero(setup)
    for nu in pair_partitions(l):
        w1 = spec.q_tilde ** nu.crossing_number()
        nu_blocks = nu.as_set_partition()
        for nup, w2 in second:
            if w2 == 0:
                continue
            exponent = nu_blocks.join(nup.as_set_partition()).block_count - l // 2
            if setup.exact:
                scale = Fraction(spec.m) ** exponent
            else:
                scale = float(spec.m) ** exponent
            total = total + w1 * w2 * scale
    return total


def effective_deformation(setup, q, q_tilde) -> DeformationMatrix:
    """The limit deformation q * q_tilde on the base space's blocks."""
    n = setup.n_blocks
    if np.ndim(q_tilde) == 0:
        entries = [[q * q_tilde for _ in range(n)] for _ in range(n)]
    else:
        arr = np.asarray(q_tilde)
        # config states this rule too; it loads no upper layer
        if arr.shape[0] < n:
            raise BuildError(
                f"shape deformation covers {arr.shape[0]} blocks, space has {n}"
            )
        entries = [[q * arr[i, j] for j in range(n)] for i in range(n)]
    return DeformationMatrix.build(entries)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Finite-m values of one averaged-word moment against its limit."""

    aux_dims: tuple
    values: tuple
    target: object

    def errors(self) -> tuple:
        t = complex(self.target)
        return tuple(abs(complex(v) - t) for v in self.values)

    @property
    def slope(self):
        """Fitted log-log slope of the errors; None below two usable points."""
        return fitted_slope(self.aux_dims, self.errors())

    def rows(self) -> list:
        t = complex(self.target)
        out = []
        for m, v in zip(self.aux_dims, self.values):
            v = complex(v)
            out.append(
                {
                    "m": m,
                    "value_re": v.real,
                    "value_im": v.imag,
                    "target_re": t.real,
                    "target_im": t.imag,
                    "abs_error": abs(v - t),
                }
            )
        return out


def fitted_slope(aux_dims, errors):
    """Least-squares slope of log error against log m, ignoring points at
    or below 1e-15; None when fewer than two points remain."""
    xs, ys = [], []
    for m, e in zip(aux_dims, errors):
        if e > 1e-15:
            xs.append(math.log(m))
            ys.append(math.log(e))
    if len(xs) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def convergence_experiment(setup, vectors, q, q_tilde, m_list) -> ConvergenceReport:
    """Evaluate the averaged-word moment along increasing auxiliary
    dimensions and compare with the limit moment under q * q_tilde."""
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise BuildError("need at least one auxiliary dimension")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise BuildError(f"auxiliary dimensions must increase: {m_list}")
    values = []
    for m in m_list:
        spec = UmSpec.build(setup, m, vectors, q, q_tilde)
        values.append(um_moment_enumerate(spec, setup))
    word = MomentSpec.build(setup, vectors)
    target = moment_pairings(word, effective_deformation(setup, q, q_tilde), setup)
    return ConvergenceReport(tuple(m_list), tuple(values), target)


# -- recursion remainder ------------------------------------------------------


def aux_deformation_matrix(q_tilde, m: int) -> np.ndarray:
    """Shape deformation on m auxiliary indices as a dense float matrix,
    zero-extended past the declared size."""
    out = np.zeros((m, m))
    if np.ndim(q_tilde) == 0:
        out[:] = float(q_tilde)
    else:
        arr = to_float(np.asarray(q_tilde))
        n = min(m, arr.shape[0])
        out[:n, :n] = np.real(arr[:n, :n])
    return out


def _aux_fock(entries: np.ndarray, levels: int) -> TruncatedFock:
    m = entries.shape[0]
    setup = build_space(entries, [("fixed", i) for i in range(m)])
    return TruncatedFock(setup, n_max=levels)


def _sector_norm_sq(bucket: dict, gram_x: np.ndarray, gram_y: np.ndarray) -> float:
    if not bucket:
        return 0.0
    keys = list(bucket)
    ix = np.array([k[0] for k in keys])
    iy = np.array([k[1] for k in keys])
    c = np.array([bucket[k] for k in keys], dtype=complex)
    gx = to_float(gram_x)[np.ix_(ix, ix)]
    gy = to_float(gram_y)[np.ix_(iy, iy)]
    return float(np.real(np.conj(c).dot((gx * gy).dot(c))))


def recursion_remainder_norm(m: int, q: float, q_tilde, scales=(1.0, 1.0, 1.0)) -> float:
    """Normalized vacuum norm of the three-letter recursion remainder.

    Extending a two-letter averaged word by one letter leaves a remainder
    made of full-word terms, scale-contracted terms, and shape-contracted
    terms, summed over auxiliary multi-indices whose first value equals
    the hatted one and whose other values are distinct.  The remainder is
    applied to the two-factor vacuum in an explicit truncated model on a
    scalar base space (three real letters with the given scales), and the
    norm is divided by m**(3/2).  Expected to decay like m**(-1/2).
    """
    low, high = REMAINDER_AUX_DIMS
    if not low <= m <= high:
        raise BuildError(f"remainder model needs {low} <= m <= {high}, got {m}")
    if not (isinstance(q, numbers.Real) and 0 < q < 1):
        raise BuildError(f"uniform scale q must be real in (0, 1), got {q!r}")
    if len(scales) != 3:
        raise BuildError("the remainder model uses exactly three letters")
    shape = aux_deformation_matrix(q_tilde, m)
    first = _aux_fock(shape, 3)
    second = _aux_fock(float(q) * np.ones((m, m)), 3)

    def shape_entry(a, b):
        return shape[a, b]

    s1, s2, s3 = (float(s) for s in scales)
    full_scale = s1 * s2 * s3
    sec33: dict = {}
    sec32: dict = {}
    sec23: dict = {}
    # the two non-hatted values are distinct, so no term reaches a vacuum
    # sector on either factor
    for i, hat in ((2, 1), (3, 2)):
        rest = [p for p in range(3) if p != hat]
        for others in itertools.permutations(range(m), 2):
            k = [0, 0, 0]
            k[rest[0]], k[rest[1]] = others
            k[hat] = k[0]  # the extension letter contracts against the first
            word = tuple(k)
            x3 = first.word_index(word)
            y3 = second.word_index(word)
            key33 = (x3, y3)
            sec33[key33] = sec33.get(key33, 0.0) + full_scale
            pair = (k[rest[0]], k[rest[1]])
            pair_scale = scales[rest[0]] * scales[rest[1]]
            kappa2 = s1 * scales[hat] * q ** (i - 1)
            y2 = second.word_index(pair)
            key32 = (x3, y2)
            sec32[key32] = sec32.get(key32, 0.0) + kappa2 * pair_scale
            kappa3 = 1.0 if i == 2 else shape_entry(k[2], k[1])
            x2 = first.word_index(pair)
            key23 = (x2, y3)
            sec23[key23] = sec23.get(key23, 0.0) + kappa3 * full_scale
    total = (
        _sector_norm_sq(sec33, first.gram(3), second.gram(3))
        + _sector_norm_sq(sec32, first.gram(3), second.gram(2))
        + _sector_norm_sq(sec23, first.gram(2), second.gram(3))
    )
    return math.sqrt(max(total, 0.0)) / m ** 1.5
