"""Every size cap the package enforces, in one table.

Each layer imports its caps from here; ``config`` reads the caps only a
configuration has, and meets the rest through the layers' own checks.  The
caps keep every dense array and every enumeration small enough to verify
in seconds.
"""

MAX_DIM = 8  # hilbert: one-particle dimension
MAX_LEVEL = 5  # fock: level cutoff n_max
MAX_LEVEL_DIM = 2048  # fock: words on the top level, dim ** n_max
MAX_PAIRING_POINTS = 12  # combinatorics: points of an enumerated pair partition
MAX_WORD_SIZE = 8  # combinatorics: letters of a permutation word
MAX_COMBINATORIAL_LENGTH = 8  # moments: word length on the pair-partition route
MAX_AMPLIFICATION = 4  # multipliers: matrix size of the amplified-norm scan
# multipliers: bytes of the scan's whitened realization stack, 16 * D**3, so D <= 256
STACK_BUDGET_BYTES = 256 * 2**20
MAX_AUX_DIM = 10  # ultra: auxiliary dimension of the averaged-moment enumeration
MAX_UM_LENGTH = 6  # ultra: word length of the averaged-moment enumeration
# config: modular pairs and multiplier net steps, the experiments' repeat counts
MAX_REPEATS = 1000
