"""Tour of the deformed one-particle geometry and the twisted level forms.

Builds a mixed space (one rotation block, one fixed line), inspects the
flip operator, and watches the level forms stay strictly positive.  Run as
``python3 demos/deformed_geometry.py``.
"""

from fractions import Fraction as F

import numpy as np

from qfock import DeformationMatrix, TruncatedFock, build_space
from qfock.linalg import max_abs, pin_blas_threads, to_float


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    entries = [[0.3, -0.2], [-0.2, 0.55]]
    setup = build_space(entries, [("rotation", 0, 2.0), ("fixed", 1)])
    print("mixed space: rotation block (lam = 2) + fixed line")
    print("  dimension:", setup.dim)
    print("  block of each coordinate:", list(setup.block_of))
    print("  deformation entries:\n", np.asarray(entries))

    fock = TruncatedFock(setup, n_max=4)
    print("\ntwisted Fock truncation at n_max = 4")
    print("  level dims:", [fock.level_dim(n) for n in range(5)])
    print("  flip operator norm |T| = %.6f" % fock.t_norm)

    t01 = to_float(fock.t_amplified(0, 3))
    t12 = to_float(fock.t_amplified(1, 3))
    braid = max_abs(t01 @ t12 @ t01 - t12 @ t01 @ t12)
    print("  braid relation residual at level 3: %.3e" % braid)

    print("\nlevel-form positivity (the geometry stays non-degenerate):")
    for n in range(5):
        print("  level %d: min eigenvalue of P(n) %.6f" % (n, fock.min_p_eigenvalue(n)))

    exact = build_space(
        DeformationMatrix.build([[F(1, 3), F(1, 7)], [F(1, 7), F(2, 5)]]),
        [("fixed", 0), ("fixed", 1)],
        exact=True,
    )
    exact_fock = TruncatedFock(exact, 3)
    gram = exact_fock.gram(2)
    print("\nexact rational mode: level-2 Gram entries are exact fractions")
    print("  <e0 e1, e1 e0> =", gram[exact_fock.word_index((0, 1)), exact_fock.word_index((1, 0))])
    print("  <e0 e0, e0 e0> =", gram[exact_fock.word_index((0, 0)), exact_fock.word_index((0, 0))])


if __name__ == "__main__":
    main()
