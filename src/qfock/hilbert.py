"""Finite-dimensional model of a one-parameter orthogonal group.

The domain space carries a distinguished real basis.  Every basis vector is
either fixed by the group or paired with a partner into a two-dimensional
rotation block with parameter lam >= 1; on such a block the analytic
generator has eigenvalues lam and 1/lam, so each vector of the model is an
entire analytic vector for the group.  The deformed inner product is the
one induced by the positive matrix 2A(1+A)^{-1}.  Its real part, restricted
to real vectors, recovers the original inner product; the builder checks
this along with the other structural identities.

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
from .linalg import hermitize, identity_matrix, max_abs, to_float

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
class FixedVector:
    """Basis vector fixed by the whole group (generator eigenvalue 1)."""

    label: int
    index: int


@dataclass(frozen=True)
class RotationBlock:
    """Pair of basis vectors rotated into each other.

    ``lam`` is the larger generator eigenvalue on the block; the other one
    is 1/lam.  The group rotates the plane by t*log(lam) at time t.
    """

    label: int
    indices: tuple
    lam: float


def _spectral_assemble(fixed, rotations, dim, exact, fn) -> np.ndarray:
    """Matrix of fn(A) from the block eigendata.

    On a rotation block with eigenvalues lam, 1/lam the eigenvectors are
    (e_a -+ i e_b)/sqrt(2), which gives the closed 2x2 form below.
    """
    if exact:
        out = identity_matrix(dim, exact=True)
        scale = fn(Fraction(1))
        for i in range(dim):
            out[i, i] = scale
        return out
    out = np.zeros((dim, dim), dtype=complex)
    for fv in fixed:
        out[fv.index, fv.index] = fn(1.0)
    for rb in rotations:
        a, b = rb.indices
        plus, minus = fn(rb.lam), fn(1.0 / rb.lam)
        out[a, a] = out[b, b] = (plus + minus) / 2
        out[a, b] = 1j * (plus - minus) / 2
        out[b, a] = -1j * (plus - minus) / 2
    return out


@dataclass(frozen=True, eq=False)
class HilbertSetup:
    """Immutable container for the group model and its deformed geometry.

    ``a_matrix`` is the analytic generator A, ``u_gram`` the matrix of the
    deformed inner product 2A(1+A)^{-1}.  ``block_of[i]`` gives the block
    label of basis index i.  Conjugation in the distinguished basis is the
    canonical antilinear involution; every fixed/rotation subspace is
    invariant under A and the group.
    """

    deformation: DeformationMatrix
    fixed: tuple
    rotations: tuple
    dim: int
    block_of: tuple
    exact: bool
    a_matrix: np.ndarray
    u_gram: np.ndarray

    # -- spectral calculus --------------------------------------------------

    def spectral_map(self, fn) -> np.ndarray:
        return _spectral_assemble(self.fixed, self.rotations, self.dim, self.exact, fn)

    def a_power(self, z) -> np.ndarray:
        """A^z by spectral calculus; a_power(1j*t) is the group at time t."""
        if self.exact:
            return identity_matrix(self.dim, exact=True)
        return self.spectral_map(lambda lam: cmath.exp(z * cmath.log(lam)))

    def u_matrix(self, t: float) -> np.ndarray:
        """Group element at time t, assembled as closed-form rotations.

        Independent of a_power on purpose: tests compare the two routes.
        """
        if self.exact:
            return identity_matrix(self.dim, exact=True)
        out = np.zeros((self.dim, self.dim), dtype=float)
        for fv in self.fixed:
            out[fv.index, fv.index] = 1.0
        for rb in self.rotations:
            a, b = rb.indices
            theta = t * np.log(rb.lam)
            out[a, a] = out[b, b] = np.cos(theta)
            out[a, b] = -np.sin(theta)
            out[b, a] = np.sin(theta)
        return out

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
    fixed, rotations, block_of = [], [], []
    for entry in blocks:
        kind = entry[0]
        if kind == "fixed":
            _, label = entry
            fixed.append(FixedVector(int(label), len(block_of)))
            block_of.append(int(label))
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

    fixed, rotations = tuple(fixed), tuple(rotations)
    a_matrix = _spectral_assemble(
        fixed, rotations, dim, exact, (lambda lam: lam) if exact else complex
    )
    u_gram = _spectral_assemble(
        fixed, rotations, dim, exact, lambda lam: 2 * lam / (1 + lam)
    )
    setup = HilbertSetup(
        deformation=deformation,
        fixed=fixed,
        rotations=rotations,
        dim=dim,
        block_of=tuple(block_of),
        exact=bool(exact),
        a_matrix=a_matrix,
        u_gram=u_gram,
    )
    _check_assembly(setup)
    return setup


def _check_assembly(setup: HilbertSetup) -> None:
    """Structural identities that must hold for any valid input."""
    if setup.exact:
        eye = identity_matrix(setup.dim, exact=True)
        if not (
            np.array_equal(setup.a_matrix, eye)
            and np.array_equal(setup.u_gram, eye)
        ):
            raise BuildError("exact mode must produce identity matrices")
        return
    problems = []
    a = setup.a_matrix
    g = to_float(setup.u_gram)
    if max_abs(a - a.conj().T) > 1e-12:
        problems.append("generator is not Hermitian")
    if min(np.linalg.eigvalsh(hermitize(a))) <= 0:
        problems.append("generator is not positive definite")
    if min(np.linalg.eigvalsh(hermitize(g))) <= 0:
        problems.append("deformed Gram is not positive definite")
    if max_abs(np.conj(a) - np.linalg.inv(a)) > 1e-10:
        problems.append("conjugation does not invert the generator")
    if max_abs(g.real - np.eye(setup.dim)) > 1e-12:
        problems.append("real part of the deformed Gram is not the identity")
    for t in GROUP_CHECK_TIMES:
        u = setup.u_matrix(t)
        if max_abs(u.conj().T.dot(g).dot(u) - g) > 1e-11:
            problems.append("group is not unitary for the deformed Gram")
            break
    if problems:
        raise BuildError(problems)
