"""Averaged-generator moments: finite size effects and their decay.

A word of averaged generators over an auxiliary dimension m has moments
that approach the deformed pair-partition values like 1/m.  Two evaluators
(grouped enumeration and, in the uniform regime, a closed form) agree
exactly; the fitted slope of the error is -1.
"""

from fractions import Fraction as F

import numpy as np

from qfock import (
    DeformationMatrix,
    UmSpec,
    build_space,
    convergence_experiment,
    um_moment_closedform,
    um_moment_enumerate,
)
from qfock.linalg import pin_blas_threads


def main():
    pin_blas_threads()  # one BLAS thread, as the CLI runs: same digits anywhere
    unit = build_space(DeformationMatrix.build([[F(1, 3)]]), [("fixed", 0)], exact=True)
    ones = [unit.basis_vector(0)] * 4
    q, qt = F(1, 2), F(3, 5)

    print("uniform fourth moment of averaged generators, exact in m:")
    print("  closed form: (2 + q qtilde) + [(2 + qtilde)(2 + q) - (2 + q qtilde)] / m")
    for m in (1, 2, 3, 6):
        spec = UmSpec.build(unit, m, ones, q, qt)
        enum = um_moment_enumerate(spec, unit)
        closed = um_moment_closedform(spec, unit)
        print("  m = %d: enumeration %s, closed form %s" % (m, enum, closed))

    floats = build_space([[1 / 3]], [("fixed", 0)])
    report = convergence_experiment(
        floats, [floats.basis_vector(0)] * 4, 0.5, 0.6, list(range(2, 11))
    )
    print("\nconvergence to the deformed moment (q = 0.5, qtilde = 0.6):")
    print("  %4s %16s %16s" % ("m", "value", "abs error"))
    for row in report.rows():
        print("  %4d %16.10f %16.3e" % (row["m"], row["value_re"], row["abs_error"]))
    print("  fitted log-log slope: %.6f (first-order decay)" % report.slope)

    print("\nmatrix-shaped second deformation (entries vary per auxiliary index):")
    two = build_space([[0.4, 0.1], [0.1, -0.2]], [("fixed", 0), ("fixed", 1)])
    shape = np.array([[0.5, 0.2], [0.2, -0.3]])
    vectors = [two.basis_vector(0), two.basis_vector(0), two.basis_vector(1), two.basis_vector(1)]
    for m in (2, 4, 8):
        spec = UmSpec.build(two, m, vectors, 0.5, shape)
        print("  m = %d: enumeration %.10f" % (m, um_moment_enumerate(spec, two).real))
    print("  (no closed form here; the enumeration is the only evaluator)")


if __name__ == "__main__":
    main()
