"""Modular structure of the vacuum state on a rotation-deformed space.

The rotation block makes the vacuum state non-tracial: the closing map
S factors as J Delta^(1/2), the flow rotates each level, and the exchange
identity pins which factor the imaginary-time flow attaches to.
"""

import numpy as np

from qfock import ModularData, TruncatedFock, build_space, from_vector, kms_residual, modular_flow
from qfock.linalg import max_abs, pin_blas_threads
from qfock.wick import vacuum_expectation, wick_operator


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    lam = 2.0
    setup = build_space([[0.3, -0.2], [-0.2, 0.55]], [("rotation", 0, lam), ("fixed", 1)])
    fock = TruncatedFock(setup, n_max=4)
    modular = ModularData(fock)

    print("modular generator spectrum at level 1 (rotation eigenvalues lam, 1/lam):")
    delta = modular.delta_power(1.0, 1)
    print("  eigenvalues:", sorted(np.round(np.linalg.eigvals(delta).real, 6)))

    print("\nclosing map decomposition S = J Delta^(1/2), residual per level, as the")
    print("dense level product and as the gate reads it off A^(-1/2) C A^(-1/2) C:")
    for n in range(4):
        # the closing map's linear part: S on the identity's columns
        lhs = modular.s_apply(np.eye(fock.level_dim(n)), n)
        rhs = modular.j_matrix(n).dot(np.conj(modular.delta_power(0.5, n)))
        gate = modular.decomposition_residual(n)
        print("  level %d: %.3e  gate %.3e" % (n, max_abs(lhs - rhs), gate))

    print("\nflow at real times matches conjugation by the level unitaries:")
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(fock.level_dim(1)) + 1j * rng.standard_normal(fock.level_dim(1))
    word = from_vector(fock, vec, 1)
    for t in (0.3, 1.0):
        flowed = modular_flow(fock, t, word)
        u = modular.fock_unitary(-t)
        conj = u.dot(word.dense()).dot(modular.fock_unitary(t))
        print("  t = %.1f: residual %.3e" % (t, max_abs(flowed.dense() - conj)))

    # spectral vectors of the rotation block, (e_0 -+ i e_1)/sqrt(2) in
    # e-coordinates, are its frame letters: A v = lam v and A v' = v'/lam
    plus, minus = setup.basis_vector(0), setup.basis_vector(1)
    x = wick_operator(fock, [plus])
    y = wick_operator(fock, [minus])

    print("\nexchange identity: phi(xy) = phi(y sigma_{-i}(x))")
    print("  residual with the flow on the right factor: %.3e" % kms_residual(fock, x, y))
    lhs = vacuum_expectation(fock, x.dense().dot(y.dense()))
    wrong = vacuum_expectation(fock, modular_flow(fock, -1j, y).dense().dot(x.dense()))
    print("  attaching the flow to the wrong factor misses by %.4f" % abs(lhs - wrong))
    print("  (the gap is 2(lam - 1) = %.1f for these spectral vectors)" % (2 * (lam - 1)))


if __name__ == "__main__":
    main()
