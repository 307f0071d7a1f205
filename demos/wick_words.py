"""Wick words and the dual-route vacuum moments.

Shows the defining property W(xi) vacuum = xi, the one-step product
recursion with its deformed contraction corrections, and the same moment
computed by pair-partition combinatorics and by multiplying matrices.
"""

from fractions import Fraction as F

import numpy as np

from qfock import (
    DeformationMatrix,
    MomentSpec,
    TruncatedFock,
    build_space,
    field,
    from_vector,
    moment_matrix,
    moment_pairings,
)
from qfock.linalg import max_abs, pin_blas_threads
from qfock.wick import wick_recursion_residual


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    setup = build_space([[0.3, -0.2], [-0.2, 0.55]], [("rotation", 0, 2.0), ("fixed", 1)])
    fock = TruncatedFock(setup, n_max=3)
    rng = np.random.default_rng(7)

    vec = rng.standard_normal(fock.level_dim(2))
    word = from_vector(fock, vec, 2)
    print("W(xi) applied to the vacuum returns xi:")
    print("  residual %.3e" % max_abs(word.vacuum_image() - fock.embed(vec, 2)))

    # real vectors, given in e-coordinates, enter the generator's eigenframe
    xi = setup.frame_vector(np.array([0.8, -0.5, 0.0]))
    eta = setup.frame_vector(np.array([0.0, 0.0, 1.2]))
    print("\none-step recursion W(xi (x) eta) = W(xi) W(eta) - corrections:")
    print("  residual %.3e" % wick_recursion_residual(fock, xi, [eta]))

    s = field(fock, xi)
    print("\nfield operator s(xi) = creation + annihilation, realized as a matrix")
    print("  shape:", s.dense().shape)

    print("\nmoments, two independent routes:")
    exact = build_space(DeformationMatrix.build([[F(3, 10)]]), [("fixed", 0)], exact=True)
    exact_fock = TruncatedFock(exact, 2)
    e0 = exact.basis_vector(0)
    spec = MomentSpec.build(exact, [e0, e0, e0, e0])
    pairing = moment_pairings(spec, exact.deformation, exact)
    matrix = moment_matrix(spec, exact_fock)
    print("  uniform fourth moment, pair partitions: ", pairing)
    print("  uniform fourth moment, matrix product:  ", matrix)
    print("  (three pairings: two non-crossing, one crossing weighted by q)")

    mixed_vecs = [np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])] * 2
    spec = MomentSpec.build(setup, mixed_vecs)
    pairing = moment_pairings(spec, setup.deformation, setup)
    matrix = moment_matrix(spec, fock)
    print("  mixed-word moment, pair partitions: %.12f" % pairing.real)
    print("  mixed-word moment, matrix product:  %.12f" % matrix.real)


if __name__ == "__main__":
    main()
