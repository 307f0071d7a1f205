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
read off the ACTUAL auxiliary values.  ``_join_blocks`` labels the join's
blocks in place, by union-find over the two partitions' pairs, in order of
their least positions.  The closed form collapses the same sum into
crossing powers times m**(|join| - l/2); that collapse is valid only when
the shape deformation is uniform, because only then is the first-factor
crossing coefficient independent of the auxiliary values.
Non-uniform specs must use the enumeration path, and their convergence is
reported rather than asserted.
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
from .hilbert import DeformationMatrix
from .limits import MAX_AUX_DIM, MAX_UM_LENGTH
from .moments import MomentSpec, moment_pairings, validate_word

__all__ = [
    "MAX_AUX_DIM",
    "MAX_UM_LENGTH",
    "ConvergenceReport",
    "UmSpec",
    "convergence_experiment",
    "effective_deformation",
    "um_moment_closedform",
    "um_moment_enumerate",
]


@dataclass(frozen=True, eq=False)
class UmSpec:
    """A word of averaged generators at one auxiliary dimension.

    ``q_tilde`` is either a scalar (uniform shape on every auxiliary
    index) or a square matrix of actual entries, read as zero outside its
    size.  ``q`` is the uniform scale of the second factor.  Each vector
    must lie in one block, as in a moment word (``validate_word``, which
    maps the e-coordinates given to ``build`` into the frame); the
    evaluators read only the vectors' inner products, never their labels.
    """

    m: int
    vectors: tuple
    q: object
    q_tilde: object

    @classmethod
    def build(cls, setup, m, vectors, q, q_tilde) -> "UmSpec":
        violations = []
        if not _is_aux_dim(m):
            violations.append(f"auxiliary dimension must be a positive integer, got {m!r}")
        if not (isinstance(q, numbers.Real) and 0 < q < 1):
            violations.append(f"uniform scale q must be real in (0, 1), got {q!r}")
        uniform = isinstance(q_tilde, numbers.Number)
        try:
            _checked_shape(q_tilde)
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


def _is_aux_dim(m) -> bool:
    """An auxiliary dimension is a positive integer: a bool or a float is
    none, though int() would take either."""
    return isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 1


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


def _join_blocks(pairs, other) -> tuple[list[int], int]:
    """The block of every position in the join of two pair partitions of
    the same points, given by their pairs, and the number of blocks.

    Union-find keeps each root the least position of its block, so the
    blocks are numbered in order of their least positions.
    """
    parent = list(range(2 * len(pairs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.chain(pairs, other):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    roots = [find(k) for k in range(len(parent))]
    label = {root: n for n, root in enumerate(sorted(set(roots)))}
    return [label[root] for root in roots], len(label)


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
        crossings = nu.crossing_indices()
        for nup, w2 in second:
            if w2 == 0:
                continue
            block, count = _join_blocks(nu.pairs, nup.pairs)
            cross_blocks = [(block[nu.pairs[r][0]], block[nu.pairs[s][1]]) for r, s in crossings]
            for values in itertools.product(range(spec.m), repeat=count):
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
        for nup, w2 in second:
            if w2 == 0:
                continue
            exponent = _join_blocks(nu.pairs, nup.pairs)[1] - l // 2
            if setup.exact:
                scale = Fraction(spec.m) ** exponent
            else:
                scale = float(spec.m) ** exponent
            total = total + w1 * w2 * scale
    return total


def _checked_shape(q_tilde):
    """The shape deformation as ``DeformationMatrix.build`` admits it: a
    scalar, checked as the 1x1 matrix of its value, comes back as it is; a
    matrix comes back as the built entries.  Anything else raises the
    rule's BuildError."""
    if isinstance(q_tilde, numbers.Number):
        DeformationMatrix.build([[q_tilde]])
        return q_tilde
    return DeformationMatrix.build(q_tilde).entries


def effective_deformation(setup, q, q_tilde) -> DeformationMatrix:
    """The limit deformation q * q_tilde on the base space's blocks."""
    n = setup.n_blocks
    q_tilde = _checked_shape(q_tilde)
    if np.ndim(q_tilde) == 0:
        entries = [[q * q_tilde for _ in range(n)] for _ in range(n)]
    else:
        # config states this rule too; it loads no upper layer
        if q_tilde.shape[0] < n:
            raise BuildError(
                f"shape deformation covers {q_tilde.shape[0]} blocks, space has {n}"
            )
        entries = [[q * q_tilde[i, j] for j in range(n)] for i in range(n)]
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
    or below 1e-15; None when fewer than two points remain.  The closed
    form needs no LAPACK (``np.polyfit`` is the tests' oracle)."""
    xs, ys = [], []
    for m, e in zip(aux_dims, errors):
        if e > 1e-15:
            xs.append(math.log(m))
            ys.append(math.log(e))
    if len(xs) < 2:
        return None
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - x_bar for x in xs]
    return sum(u * (y - y_bar) for u, y in zip(dx, ys)) / sum(u * u for u in dx)


def convergence_experiment(setup, vectors, q, q_tilde, m_list) -> ConvergenceReport:
    """Evaluate the averaged-word moment along increasing auxiliary
    dimensions and compare with the limit moment under q * q_tilde; the
    ``vectors`` are e-coordinates, mapped into the frame by each spec."""
    m_list = list(m_list)
    bad = [m for m in m_list if not _is_aux_dim(m)]
    if bad:
        raise BuildError(f"auxiliary dimensions must be positive integers, got {bad!r}")
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

