"""Exact combinatorics behind deformed moment formulas.

Pair partitions of an even index set with their crossing statistics, set
partitions with the lattice join, kernels of multi-indices, the two
coefficient families attached to crossings and to shuffle inversions, and
reduced words for permutations.  Positions are 0-based throughout.
Coefficient entries may be floats or Fractions; everything in this module
is exact for exact inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .limits import MAX_PAIRING_POINTS, MAX_WORD_SIZE


def double_factorial(n: int) -> int:
    """Product n(n-2)(n-4)..., ending at 1 or 2; (-1)!! = 1.

    >>> [double_factorial(k) for k in (-1, 1, 3, 5, 7)]
    [1, 1, 3, 15, 105]
    """
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of {0, ..., l-1}, stored as pairs (i, j) with
    i < j, sorted by left endpoint.

    >>> PairPartition.from_pairs([(3, 1), (0, 2)]).pairs
    ((0, 2), (1, 3))
    """

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "PairPartition":
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        part = cls(canon)
        part.validate()
        return part

    def validate(self) -> None:
        seen = [k for p in self.pairs for k in p]
        l = 2 * len(self.pairs)
        if sorted(seen) != list(range(l)):
            raise ValueError(f"pairs do not partition 0..{l - 1}: {self.pairs}")
        for i, j in self.pairs:
            if not i < j:
                raise ValueError(f"pair not sorted: {(i, j)}")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError("pairs not ordered by left endpoint")

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def crossing_indices(self) -> list[tuple[int, int]]:
        """Pairs of pair-indices (r, s) with i_r < i_s < j_r < j_s."""
        out = []
        for r, s in itertools.combinations(range(len(self.pairs)), 2):
            ir, jr = self.pairs[r]
            is_, js = self.pairs[s]
            if ir < is_ < jr < js:
                out.append((r, s))
        return out

    def crossing_number(self) -> int:
        """Number of crossings.

        >>> PairPartition.from_pairs([(0, 3), (1, 5), (2, 4)]).crossing_number()
        2
        """
        return len(self.crossing_indices())

    def as_set_partition(self) -> "SetPartition":
        return SetPartition.from_blocks(self.pairs)


def pair_partitions(l: int) -> list[PairPartition]:
    """All pair partitions of {0, ..., l-1}, empty for odd l.

    Enumeration matches the smallest unmatched index with every larger
    unmatched index, so the output order is deterministic and the count is
    (l-1)!! for even l.

    >>> [p.pairs for p in pair_partitions(4)]
    [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    """
    if l < 0 or l > MAX_PAIRING_POINTS:
        raise ValueError(f"need 0 <= l <= {MAX_PAIRING_POINTS}, got {l}")
    if l % 2:
        return []
    out: list[PairPartition] = []

    def match(rest: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not rest:
            out.append(PairPartition(acc))
            return
        lo = rest[0]
        for pos in range(1, len(rest)):
            partner = rest[pos]
            match(rest[:pos][1:] + rest[pos + 1:], acc + ((lo, partner),))

    match(tuple(range(l)), ())
    return out


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0, ..., l-1} into blocks, each block sorted, blocks
    ordered by their minimum."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        part = cls(canon)
        part.validate()
        return part

    def validate(self) -> None:
        seen = [k for b in self.blocks for k in b]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError(f"blocks do not partition 0..{len(seen) - 1}: {self.blocks}")

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, k: int) -> int:
        for idx, b in enumerate(self.blocks):
            if k in b:
                return idx
        raise ValueError(f"{k} not covered")

    def join(self, other: "SetPartition") -> "SetPartition":
        """Smallest common coarsening (the lattice join), via union-find.

        >>> a = SetPartition.from_blocks([(0, 1), (2, 3)])
        >>> b = SetPartition.from_blocks([(1, 2), (0,), (3,)])
        >>> a.join(b).blocks
        ((0, 1, 2, 3),)
        """
        if self.size != other.size:
            raise ValueError("partitions cover different ground sets")
        parent = list(range(self.size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for part in (self, other):
            for b in part.blocks:
                for k in b[1:]:
                    union(b[0], k)
        groups: dict[int, list[int]] = {}
        for k in range(self.size):
            groups.setdefault(find(k), []).append(k)
        return SetPartition.from_blocks(groups.values())


def kernel(values) -> SetPartition:
    """Partition of positions by equal values.

    >>> kernel((2, 7, 2, 9)).blocks
    ((0, 2), (1,), (3,))
    """
    groups: dict[object, list[int]] = {}
    for pos, v in enumerate(values):
        groups.setdefault(v, []).append(pos)
    return SetPartition.from_blocks(groups.values())


def refines(fine: SetPartition, coarse: SetPartition) -> bool:
    """True when every block of ``fine`` sits inside a block of ``coarse``."""
    return coarse.join(fine) == coarse


def g_coefficient(nu: PairPartition, labels, q):
    """Crossing coefficient of a pair partition.

    Product over crossings (r, s) -- meaning i_r < i_s < j_r < j_s -- of
    q[labels[i_r]][labels[j_s]].  Empty product is 1, so non-crossing
    partitions always get coefficient 1.
    """
    if len(labels) != nu.size:
        raise ValueError("label word and partition size differ")
    out = 1
    for r, s in nu.crossing_indices():
        ir = nu.pairs[r][0]
        js = nu.pairs[s][1]
        out = out * q[labels[ir]][labels[js]]
    return out


def f_coefficient(left, right, labels, q):
    """Shuffle-inversion coefficient for a split position word.

    ``left`` and ``right`` are the increasing position tuples of the two
    groups; the product runs over all (a, b) in left x right with a > b,
    each contributing q[labels[a]][labels[b]].  ``labels[p]`` may be an
    array of the labels at position p of many words, one coefficient each.
    """
    positions = sorted(left) + sorted(right)
    if sorted(positions) != list(range(len(labels))):
        raise ValueError("split does not cover the word positions")
    q = np.asarray(q)
    out = 1
    for a in left:
        for b in right:
            if a > b:
                out = out * q[labels[a], labels[b]]
    return out


def index_splittings(n: int, k: int):
    """Yield (left, right) position splits of {0..n-1} with |right| = k,
    both parts increasing."""
    base = range(n)
    for right in itertools.combinations(base, k):
        in_right = set(right)
        left = tuple(p for p in base if p not in in_right)
        yield left, right


# -- permutations and reduced words ------------------------------------------

def inversion_count(perm) -> int:
    p = list(perm)
    return sum(1 for a, b in itertools.combinations(range(len(p)), 2) if p[a] > p[b])


def check_permutation(perm) -> tuple[int, ...]:
    p = tuple(perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {perm}")
    if len(p) > MAX_WORD_SIZE:
        raise ValueError(f"word size capped at {MAX_WORD_SIZE}")
    return p


def apply_adjacent(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Right-multiply by the adjacent transposition swapping slots i, i+1."""
    p = list(perm)
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def reduced_word(perm) -> tuple[int, ...]:
    """A reduced word for ``perm`` in adjacent transpositions.

    Insertion-sort the one-line notation, recording each swap; reversing
    that record gives letters (r_1, ..., r_m) with perm = t_{r_1} ... t_{r_m}
    and m equal to the inversion number.

    >>> reduced_word((2, 1, 0))
    (0, 1, 0)
    >>> reduced_word((0, 1, 2))
    ()
    """
    p = list(check_permutation(perm))
    rec: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                rec.append(i)
                changed = True
    return tuple(reversed(rec))


def word_permutation(letters, n: int) -> tuple[int, ...]:
    """Compose the word t_{r_1} ... t_{r_m} into a permutation of {0..n-1},
    right-multiplying the one-line notation by one letter at a time."""
    perm = tuple(range(n))
    for i in letters:
        perm = apply_adjacent(perm, i)
    return perm


def descents(perm: tuple[int, ...]) -> list[int]:
    return [i for i in range(len(perm) - 1) if perm[i] > perm[i + 1]]


@lru_cache(maxsize=None)
def _all_reduced_words(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    if not descents(perm):
        return ((),)
    out = []
    for i in descents(perm):
        shorter = apply_adjacent(perm, i)
        out.extend(w + (i,) for w in _all_reduced_words(shorter))
    return tuple(out)


def all_reduced_words(perm) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of ``perm``; all share length = inversion number."""
    return _all_reduced_words(check_permutation(perm))


def permutations_by_length(n: int) -> list[tuple[int, ...]]:
    """All of S_n ordered by increasing inversion number (identity first)."""
    if n > MAX_WORD_SIZE:
        raise ValueError(f"word size capped at {MAX_WORD_SIZE}")
    return sorted(itertools.permutations(range(n)), key=inversion_count)
