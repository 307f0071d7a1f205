"""Vacuum expectations of products of field operators, two independent ways.

The combinatorial route sums over pair partitions: each partition nu
contributes its crossing coefficient g_nu times the product of deformed
inner products of the paired vectors.  Odd-length words vanish.  The matrix
route applies the realized field operators to the vacuum vector one at a
time, right to left, and takes the deformed inner product of the result
with the vacuum, so a word of length l costs l products of a sparse field
operator, held as its entries, with a vector.
The pairing route is the production evaluator; the matrix route is the
oracle.  ``checked_moment`` is the one comparison of the two, used by the
library and the command line alike: it returns both values and their
absolute gap, and raises a loud error carrying a replay record whenever
the gap exceeds the absolute tolerance ``MOMENT_TOLERANCE``, read at call
time.

Word vectors are given in e-coordinates, real and supported inside a
single block each; ``validate_word`` maps them into the generator's
eigenframe (``HilbertSetup.frame_vector``), where the involution fixes
them, so the field operator of every letter is self-adjoint and no
conjugation marks are needed in the pairing products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import g_coefficient, pair_partitions
from .errors import BuildError, CutoffError, InvariantError
from .hilbert import leg_label
from .limits import MAX_COMBINATORIAL_LENGTH
from .linalg import to_float
from .wick import field

# largest gap between the pairing and matrix routes' values of one moment
MOMENT_TOLERANCE = 1e-9

__all__ = [
    "MAX_COMBINATORIAL_LENGTH",
    "MOMENT_TOLERANCE",
    "MomentSpec",
    "checked_moment",
    "moment_matrix",
    "moment_pairings",
    "validate_word",
]


def validate_word(setup, vectors, cap: int, cap_name: str, violations=()):
    """Frame vectors and block labels of a word of real single-block
    vectors given in e-coordinates.

    Collects shape, realness and length-cap violations after any already
    found by the caller and raises them together as one BuildError; each
    vector is mapped once into the frame, and each label is the block of
    its support, which the frame keeps.
    """
    violations = list(violations)
    vecs = []
    for pos, raw in enumerate(vectors):
        v = np.asarray(raw)
        if v.shape != (setup.dim,):
            violations.append(f"vector {pos} has shape {v.shape}, expected ({setup.dim},)")
            continue
        if np.any(np.imag(to_float(v)) != 0):
            violations.append(f"vector {pos} must be real")
        vecs.append(setup.frame_vector(v))
    if len(vecs) > cap:
        violations.append(f"word length {len(vecs)} beyond the {cap_name} cap {cap}")
    if violations:
        raise BuildError(violations)
    return tuple(vecs), tuple(leg_label(setup, v) for v in vecs)


@dataclass(frozen=True, eq=False)
class MomentSpec:
    """A word of real single-block vectors whose joint moment is wanted,
    built from e-coordinates and kept in frame coordinates."""

    vectors: tuple
    labels: tuple

    @classmethod
    def build(cls, setup, vectors) -> "MomentSpec":
        return cls(*validate_word(setup, vectors, MAX_COMBINATORIAL_LENGTH, "pairing"))

    @property
    def l(self) -> int:
        return len(self.vectors)


def moment_pairings(spec: MomentSpec, deformation, setup):
    """Pair-partition value of the word's vacuum moment.

    Zero for odd length.  For even length l the value is the sum over all
    pair partitions of {0..l-1} of the crossing coefficient, computed from
    ``deformation.entries`` at the word's labels, times the product of
    deformed inner products of the paired vectors.
    """
    l = spec.l
    if l % 2:
        return Fraction(0) if setup.exact else complex(0)
    total = Fraction(0) if setup.exact else complex(0)
    for nu in pair_partitions(l):
        term = g_coefficient(nu, spec.labels, deformation.entries)
        for i, j in nu.pairs:
            term = term * setup.u_inner(spec.vectors[i], spec.vectors[j])
        total = total + term
    return total


def moment_matrix(spec: MomentSpec, fock):
    """Oracle value: apply the realized field operators to the vacuum,
    last letter first, and pair the resulting vector with the vacuum.

    Exact whenever l <= 2*n_max: a nonzero vacuum-to-vacuum path climbs at
    most l/2 levels, so the cutoff never clips a contributing term.  In
    exact mode every product stays in Fractions.
    """
    if spec.l > 2 * fock.n_max:
        raise CutoffError(
            f"word length {spec.l} needs cutoff >= {-(-spec.l // 2)}, "
            f"have {fock.n_max}"
        )
    vacuum = fock.vacuum()
    vec = vacuum
    for v in spec.vectors[::-1]:
        vec = field(fock, v).apply(vec)
    return fock.full_inner(vacuum, vec)


def _serialize(spec: MomentSpec, deformation) -> dict:
    return {
        "labels": list(spec.labels),
        "vectors": [[str(x) for x in v] for v in spec.vectors],
        "deformation": [[str(x) for x in row] for row in deformation.entries],
    }


def checked_moment(spec: MomentSpec, fock, **context):
    """Both routes' values and their absolute gap, as (pairing, matrix, gap).

    Raises InvariantError with a serialized replay record, extended by the
    caller's ``context``, when the gap exceeds ``MOMENT_TOLERANCE`` or is NaN.
    """
    setup = fock.setup
    pairing = complex(moment_pairings(spec, setup.deformation, setup))
    matrix = complex(moment_matrix(spec, fock))
    gap = abs(pairing - matrix)
    if not gap <= MOMENT_TOLERANCE:
        replay = _serialize(spec, setup.deformation)
        replay.update(
            context,
            pairing=repr(pairing),
            matrix=repr(matrix),
            gap=gap,
            tolerance=MOMENT_TOLERANCE,
            n_max=fock.n_max,
        )
        raise InvariantError("moment dual-path agreement", replay)
    return pairing, matrix, gap

