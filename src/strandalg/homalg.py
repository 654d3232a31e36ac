"""Finite GF(2) chain complexes with bit-packed differentials.

Complexes are ungraded: the differential is any square-zero endomorphism of a
finite GF(2) vector space with a distinguished generator basis.  Homology rank
(dim ker - dim im) is the reproducible invariant; it is computed by Gaussian
elimination on bit-packed rows (python ints as bit vectors).

Every complex and chain map is validated on construction, a mapping cone
included.  The checks cost time linear in the bits set: a row is in range when
``row >> n`` is zero, which reads only the row, and d^2 = 0 and the chain-map
square XOR one row per set bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class NotAChainMap(ValueError):
    """Raised when a matrix fails to commute with the differentials."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _xor_rows(rows, mask: int) -> int:
    """The GF(2) sum of the rows whose indices the bits of mask select."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def gf2_rank_dense(rows) -> int:
    """GF(2) rank of a list of bit-packed rows (ints)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def gf2_rank_sparse(rows) -> int:
    """GF(2) rank via set-based elimination, pivoting on the sparsest row
    first.  Not used by the engine: it is the independent oracle the tests
    check gf2_rank_dense against, and it is O(n^2 log n) before any XOR."""
    active = [set(_bits(r)) for r in rows if r]
    rank = 0
    while active:
        active.sort(key=len)
        piv = active.pop(0)
        if not piv:
            continue
        col = min(piv)
        rank += 1
        nxt = []
        for row in active:
            if col in row:
                row = row ^ piv
            if row:
                nxt.append(row)
        active = nxt
    return rank


@dataclass(frozen=True)
class ChainComplex:
    """A finite GF(2) complex.

    ``differential[i]`` is the bitmask of generator indices appearing in the
    boundary of generator ``i``.  Squares to zero; validated on construction.
    """

    labels: tuple[str, ...]
    differential: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.differential) != n:
            raise ValueError("differential size does not match generator count")
        diff = self.differential
        for i, mask in enumerate(diff):
            if mask >> n:  # a bit past n, or a negative mask
                raise ValueError(f"differential of generator {i} out of range")
            if mask and _xor_rows(diff, mask):
                raise ValueError(f"differential does not square to zero at {self.labels[i]!r}")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def apply(self, mask: int) -> int:
        """The boundary of the chain whose generators mask selects."""
        return _xor_rows(self.differential, mask)

    def homology_rank(self) -> int:
        return homology_rank(self)

    def differential_rank(self) -> int:
        return gf2_rank_dense(self.differential)

    def to_json(self) -> str:
        pairs = sorted(
            (i, j) for i, mask in enumerate(self.differential) for j in _bits(mask)
        )
        return json.dumps(
            {"generators": list(self.labels), "differential": pairs},
            sort_keys=True,
        )


def zero_complex(labels) -> ChainComplex:
    labels = tuple(labels)
    return ChainComplex(labels, (0,) * len(labels))


def homology_rank(c: ChainComplex) -> int:
    """dim ker D - rank D.  Over GF(2), ungraded, this is n - 2 rank D."""
    return c.rank - 2 * c.differential_rank()


@dataclass(frozen=True)
class ChainMap:
    """A GF(2) chain map; ``matrix[i]`` is the target bitmask of source
    generator ``i``.  M D_src = D_tgt M is validated on construction."""

    source: ChainComplex
    target: ChainComplex
    matrix: tuple[int, ...]

    def __post_init__(self):
        if len(self.matrix) != self.source.rank:
            raise NotAChainMap("matrix size does not match source")
        n, matrix = self.target.rank, self.matrix
        for i, mask in enumerate(matrix):
            if mask >> n:  # a bit past n, or a negative mask
                raise NotAChainMap(f"matrix row {i} out of range")
        for i, mask in enumerate(self.source.differential):
            if _xor_rows(matrix, mask) != self.target.apply(matrix[i]):
                raise NotAChainMap(f"fails to commute on generator {i}")


def identity_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, tuple(1 << i for i in range(c.rank)))


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of a chain map: generators src + tgt, block differential
    [[D_src, 0], [M, D_tgt]]."""
    ns = f.source.rank
    labels = tuple(f"s:{l}" for l in f.source.labels) + tuple(
        f"t:{l}" for l in f.target.labels
    )
    diff = [f.source.differential[i] | (f.matrix[i] << ns) for i in range(ns)] + [
        f.target.differential[i] << ns for i in range(f.target.rank)
    ]
    return ChainComplex(labels, tuple(diff))
