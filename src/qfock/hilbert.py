"""Finite-dimensional model of a one-parameter orthogonal group, in the
eigenframe of its analytic generator.

The domain space carries a distinguished real basis e.  Every basis vector
is either fixed by the group or paired with a partner into a
two-dimensional rotation block with parameter lam >= 1; on such a block
the analytic generator A has eigenvalues lam and 1/lam, so each vector of
the model is an entire analytic vector for the group.  The deformed inner
product is the one induced by the positive matrix 2A(1+A)^{-1}.  Its real
part, restricted to real vectors, recovers the original inner product; the
builder checks this along with the other structural identities.

Every coordinate of the package is taken in A's eigenframe: a rotation
block with lam != 1 carries the letters f_+ = (e_a - i e_b)/sqrt(2) and
f_- = (e_a + i e_b)/sqrt(2), of eigenvalues lam and 1/lam, and every other
letter is its e-vector.  The frame is unitary and keeps every block, so
A, A^z, G_U = 2A(1+A)^{-1} and the group U_t = A^{it} are diagonal, and
the flips and symmetrizers, which read block labels only, are unchanged.
The involution C, conjugation of e-coordinates, is conjugation of frame
coordinates composed with the letter swap f_+ <-> f_- (``involution``,
C's one source), so the build checks C A C = A^{-1} elementwise.

- Config vectors, given in e-coordinates, enter the frame once, by
  ``frame_vector`` (F^H v, F's columns the letters), where the moment and
  averaging layers build their specs; every other coordinate, of a level,
  a word argument or a one-particle map, is a frame coordinate.
- The real vectors are those C fixes: a real e-vector has conjugate
  coordinates on f_+ and f_-, exactly, as ``frame_vector`` computes them.
  Field operators take exactly these vectors.
- ``multipliers.check_quantizable`` keeps its meaning, since F keeps each
  block and G_U, so contraction, block preservation and commutation with
  the group are frame-free; ``ContractionFamily``'s block projections are
  the same matrices in the frame; and the scan whitens by the Cholesky
  factor of the full Gram form, which F changes by a unitary congruence,
  keeping every deformed norm.

Inner products are linear in the second argument throughout the package.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BuildError
from .limits import MAX_DIM
from .linalg import identity_matrix, max_abs, to_float

# sampled group times for the unitarity check here and the commutation
# check of one-particle maps in the multipliers layer
GROUP_CHECK_TIMES = (0.7, 1.3)


@dataclass(frozen=True, eq=False)
class DeformationMatrix:
    """Symmetric matrix of deformation parameters: ``entries[i, j]``
    couples block labels i and j.  ``build`` is the one rule for every
    deformation matrix of the package, the space's Q and the averaging
    layer's shape Q̃ alike.  Exact instances hold Fractions in object
    arrays."""

    entries: np.ndarray
    exact: bool

    @classmethod
    def build(cls, entries) -> "DeformationMatrix":
        """A nonempty square list of rows of real numbers, symmetric, with
        every entry of modulus < 1; anything else raises a BuildError."""
        try:
            rows = [list(r) for r in entries]
        except TypeError:
            rows = []
        if not rows or any(len(r) != len(rows) for r in rows):
            raise BuildError("deformation matrix must be a nonempty square list of rows")
        flat = [x for r in rows for x in r]
        if not all(isinstance(x, numbers.Real) for x in flat):
            raise BuildError("deformation entries must be real numbers")
        exact = all(isinstance(x, numbers.Rational) for x in flat)
        if exact:
            mat = np.array([[Fraction(x) for x in r] for r in rows], dtype=object)
        else:
            mat = np.array(rows, dtype=float)

        violations = []
        # NaN counts as equal to itself: a NaN entry fails only the magnitude rule
        if not np.array_equal(mat, mat.T, equal_nan=not exact):
            violations.append("deformation matrix must be symmetric")
        peak = max_abs(mat)
        if not peak < 1:
            violations.append(
                "deformation entries must satisfy |q| < 1: need max|q_ij| < 1, got %g" % peak
            )
        if violations:
            raise BuildError(violations)
        return cls(mat, exact)

    @property
    def n_blocks(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class RotationBlock:
    """Pair of e-basis vectors rotated into each other.

    ``lam`` is the larger generator eigenvalue on the block; the other one
    is 1/lam.  The group rotates the plane by t*log(lam) at time t.  With
    lam != 1 the letters at ``indices`` are the frame vectors f_+ and f_-,
    with eigenvalues lam and 1/lam.
    """

    label: int
    indices: tuple
    lam: float


def _diagonal(values, exact: bool) -> np.ndarray:
    """Diagonal matrix of ``values``, complex, or of Fractions in exact mode."""
    out = identity_matrix(len(values), exact)
    out[np.diag_indices(len(values))] = values
    return out


@dataclass(frozen=True, eq=False)
class HilbertSetup:
    """Immutable container for the group model and its deformed geometry,
    in the generator's eigenframe.

    ``a_matrix`` is the analytic generator A, ``u_gram`` the matrix of the
    deformed inner product 2A(1+A)^{-1}, both diagonal.  ``block_of[i]``
    gives the block label of letter i.  ``frame`` holds the frame letters
    as columns in e-coordinates, and ``swap[i]`` is the letter of C f_i;
    every fixed/rotation subspace is invariant under A, the group and C.
    """

    deformation: DeformationMatrix
    rotations: tuple
    dim: int
    block_of: tuple
    exact: bool
    a_matrix: np.ndarray
    u_gram: np.ndarray
    frame: np.ndarray
    swap: np.ndarray

    # -- spectral calculus --------------------------------------------------

    def a_power(self, z) -> np.ndarray:
        """A^z, diagonal: lam^{+-z} on the letters f_+- of a rotation block,
        1 elsewhere; a_power(1j*t) is the group at time t.  The exponent of
        f_- is that of f_+ negated, so C commutes with A^{it} exactly."""
        if self.exact:
            return identity_matrix(self.dim, exact=True)
        logs = [0.0] * self.dim
        for rb in self.rotations:
            if rb.lam != 1:
                logs[rb.indices[0]], logs[rb.indices[1]] = math.log(rb.lam), -math.log(rb.lam)
        return _diagonal([cmath.exp(z * x) for x in logs], False)

    def u_matrix(self, t: float) -> np.ndarray:
        """Group element at time t, A^{it}: diagonal, each letter scaled by
        the phase lam^{+-it} of its eigenvalue."""
        return self.a_power(1j * t)

    # -- the involution and the frame ------------------------------------------

    def involution(self, v, n: int = 1) -> np.ndarray:
        """C on every leg of level-n coordinates (n = 1: vectors of the space),
        taken along the first axis of ``v``: the coordinates conjugated, then
        gathered by the letter swap on every leg.  It fixes exactly the real
        vectors; for a diagonal matrix D, C D C = diag(involution(diag D))."""
        v = np.conj(np.asarray(v))
        legs = v.reshape((self.dim,) * n + (-1,))
        return legs[np.ix_(*(self.swap,) * n)].reshape(v.shape)

    def frame_vector(self, v) -> np.ndarray:
        """Frame coordinates F^H v of a vector given in e-coordinates."""
        return np.conj(self.frame).T.dot(v)

    # -- deformed geometry --------------------------------------------------

    def u_inner(self, xi, eta):
        """Deformed inner product; conjugate-linear in xi, linear in eta."""
        xi = np.asarray(xi)
        eta = np.asarray(eta)
        if xi.shape != (self.dim,) or eta.shape != (self.dim,):
            raise BuildError("vector dimension mismatch")
        return np.conj(xi).dot(self.u_gram.dot(eta))

    def basis_vector(self, i: int) -> np.ndarray:
        if self.exact:
            out = np.full(self.dim, Fraction(0), dtype=object)
            out[i] = Fraction(1)
        else:
            out = np.zeros(self.dim, dtype=complex)
            out[i] = 1.0
        return out

    @property
    def n_blocks(self) -> int:
        return self.deformation.n_blocks


def leg_label(setup, v) -> int:
    """Block label of a vector that must lie in one block: a letter of a
    moment or averaged word, or a later leg of the Wick recursion.  The
    rule counts labels, so a vector over two blocks that share a label
    lies in one block."""
    v = np.asarray(v)
    labels = {setup.block_of[i] for i in range(setup.dim) if v[i] != 0}
    if not labels:
        raise BuildError("zero vector has no block label")
    if len(labels) > 1:
        raise BuildError(
            "word vector spans blocks %s; each vector of a word must lie in "
            "one block" % sorted(labels)
        )
    return labels.pop()


def build_space(deformation, blocks, exact: bool = False) -> HilbertSetup:
    """Assemble and validate a HilbertSetup.

    ``blocks`` is a sequence of ("fixed", label) and ("rotation", label, lam)
    entries; each fixed entry occupies one basis index, each rotation two
    consecutive ones.  Exact mode needs rational deformation entries and
    lam = 1 everywhere (the group is then trivial and everything stays in
    Fraction arithmetic); a float space takes rational entries as float64.
    """
    if not isinstance(deformation, DeformationMatrix):
        deformation = DeformationMatrix.build(deformation)
    if not exact and deformation.exact:
        deformation = DeformationMatrix(deformation.entries.astype(float), False)

    violations = []
    rotations, block_of = [], []
    for entry in blocks:
        kind = entry[0]
        if kind == "fixed":
            block_of.append(int(entry[1]))
        elif kind == "rotation":
            _, label, lam = entry
            lam = Fraction(lam) if exact else float(lam)
            if not 1 <= lam < math.inf:
                violations.append("rotation parameter must be finite and >= 1, got %r" % (lam,))
            rotations.append(
                RotationBlock(int(label), (len(block_of), len(block_of) + 1), lam)
            )
            block_of.extend([int(label), int(label)])
        else:
            violations.append("unknown block kind %r" % (kind,))
    dim = len(block_of)

    if dim == 0:
        violations.append("at least one basis vector is required")
    if dim > MAX_DIM:
        violations.append("dimension %d exceeds the cap %d" % (dim, MAX_DIM))
    n = deformation.n_blocks
    for label in block_of:
        if not 0 <= label < n:
            violations.append("block label %d out of range [0, %d)" % (label, n))
            break
    if exact:
        if not deformation.exact:
            violations.append("exact mode needs rational deformation entries")
        if any(rb.lam != 1 for rb in rotations):
            violations.append("exact mode needs lam = 1 on every rotation block")
    if violations:
        raise BuildError(violations)

    one = Fraction(1) if exact else 1.0
    spectrum, frame, swap = [one] * dim, identity_matrix(dim, exact), np.arange(dim)
    for rb in rotations:
        if rb.lam != 1:
            a, b = rb.indices
            spectrum[a], spectrum[b] = rb.lam, 1 / rb.lam
            frame[a : b + 1, a : b + 1] = np.array([[1, 1], [-1j, 1j]]) * math.sqrt(0.5)
            swap[[a, b]] = b, a
    setup = HilbertSetup(
        deformation=deformation,
        rotations=tuple(rotations),
        dim=dim,
        block_of=tuple(block_of),
        exact=bool(exact),
        a_matrix=_diagonal(spectrum, exact),
        u_gram=_diagonal([2 * x / (1 + x) for x in spectrum], exact),
        frame=frame,
        swap=swap,
    )
    _check_assembly(setup)
    return setup


def _check_assembly(setup: HilbertSetup) -> None:
    """Structural identities that must hold for any valid input, read off
    the diagonals of the frame: A Hermitian and positive, G_U positive,
    C A C = A^{-1}, (G_U + C G_U C)/2 = I (the real part of the deformed
    Gram, restricted to real vectors, is the identity) and the group
    unitary for G_U, each elementwise."""
    if setup.exact:
        eye = identity_matrix(setup.dim, exact=True)
        if not (np.array_equal(setup.a_matrix, eye) and np.array_equal(setup.u_gram, eye)):
            raise BuildError("exact mode must produce identity matrices")
        return
    problems = []
    a, g = np.diagonal(setup.a_matrix), np.diagonal(to_float(setup.u_gram))
    if max_abs(a - np.conj(a)) > 1e-12:
        problems.append("generator is not Hermitian")
    if not np.all(a.real > 0):
        problems.append("generator is not positive definite")
    if not np.all(g.real > 0):
        problems.append("deformed Gram is not positive definite")
    # not <=: a NaN residual fails too
    if not max_abs(setup.involution(a) * a - 1) <= 1e-10:
        problems.append("conjugation does not invert the generator")
    if max_abs((g + setup.involution(g)) / 2 - 1) > 1e-12:
        problems.append("real part of the deformed Gram is not the identity")
    for t in GROUP_CHECK_TIMES:
        u = np.diagonal(setup.u_matrix(t))
        if max_abs(np.conj(u) * g * u - g) > 1e-11:
            problems.append("group is not unitary for the deformed Gram")
            break
    if problems:
        raise BuildError(problems)
