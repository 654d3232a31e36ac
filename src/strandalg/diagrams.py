"""Closed nice Heegaard diagrams as region complexes, and their GF(2) Floer
complexes.

A diagram is a list of intersection points tagged by (alpha curve, beta
curve) and a list of regions, each a cyclic corner list of (point, quadrant)
incidences.  Quadrants 0..3 run cyclically around a point with opposite
sectors sharing parity: a two-corner region is an embedded bigon from its
even-quadrant corner to its odd one, a four-corner region is a rectangle from
the generator holding its even-quadrant diagonal to the one holding the odd
diagonal.  Away from the basepoint region all regions must be bigons or
squares ("nice"), which makes the differential a finite count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .homalg import ChainComplex
from .inputs import InputError, as_int


class DiagramError(InputError):
    """Malformed or rejected diagram or domain data; ``code`` identifies the
    reason: ``syntax`` (the JSON is not shaped like a diagram or domain),
    ``invalid`` (the diagram does not close up into a surface), ``not-nice``
    (a region without basepoint is neither a bigon nor a square) or
    ``bad-domain`` (the domain does not fit the diagram, or the index
    formula's level count or k is out of range)."""


@dataclass(frozen=True)
class Region:
    corners: tuple[tuple[int, int], ...]  # (point index, quadrant 0..3)
    has_z: bool = False
    genus: int = 0


@dataclass(frozen=True)
class ClosedDiagram:
    genus: int  # handlebody genus g-hat
    points: tuple[tuple[int, int], ...]  # (alpha index, beta index)
    regions: tuple[Region, ...]


def _corner(c, where: str) -> tuple[int, int]:
    try:
        p, q = c
        return as_int(p), as_int(q)
    except (TypeError, ValueError) as e:
        raise DiagramError("syntax", f"{where}: field 'corners' holds {c!r}, not a pair of integers") from e


def parse_diagram(text: str) -> ClosedDiagram:
    """Parse and validate a diagram; malformed input raises DiagramError
    naming the offending field."""
    data = DiagramError.json(text)
    points = tuple(
        (DiagramError.int_field(p, "alpha", f"point {n}"), DiagramError.int_field(p, "beta", f"point {n}"))
        for n, p in enumerate(DiagramError.list_field(data, "points", "diagram"))
    )
    regions = tuple(
        Region(
            corners=tuple(_corner(c, f"region {n}") for c in DiagramError.list_field(r, "corners", f"region {n}")),
            has_z=DiagramError.bool_field(r, "has_z", f"region {n}", False),
            genus=DiagramError.int_field(r, "genus", f"region {n}", 0),
        )
        for n, r in enumerate(DiagramError.list_field(data, "regions", "diagram"))
    )
    d = ClosedDiagram(DiagramError.int_field(data, "genus", "diagram"), points, regions)
    validate_diagram(d)
    return d


def serialize_diagram(d: ClosedDiagram) -> str:
    return json.dumps(
        {
            "genus": d.genus,
            "points": [{"alpha": a, "beta": b} for a, b in d.points],
            "regions": [
                {
                    "corners": [list(c) for c in r.corners],
                    "has_z": r.has_z,
                    **({"genus": r.genus} if r.genus else {}),
                }
                for r in d.regions
            ],
        },
        sort_keys=True,
    )


def validate_diagram(d: ClosedDiagram):
    """Structural consistency: four quadrants per point, each used once, no
    negative genus, and the assembled surface closes up with the stated genus."""
    n = len(d.points)
    if d.genus < 0 or any(r.genus < 0 for r in d.regions):
        raise DiagramError("invalid", "negative diagram or region genus")
    for a, b in d.points:
        if not (0 <= a < d.genus and 0 <= b < d.genus):
            raise DiagramError("invalid", "point tagged with out-of-range curve index")
    seen = set()
    for ri, r in enumerate(d.regions):
        for p, q in r.corners:
            if not (0 <= p < n) or not (0 <= q < 4):
                raise DiagramError("invalid", f"region {ri} has a corner out of range")
            if (p, q) in seen:
                raise DiagramError("invalid", f"corner ({p},{q}) used twice")
            seen.add((p, q))
    if len(seen) != 4 * n:
        raise DiagramError("invalid", "inconsistent corner incidences: each point needs 4")
    if sum(1 for r in d.regions if r.has_z) != 1:
        raise DiagramError("invalid", "exactly one basepoint region required")
    euler = sum(1 - 2 * r.genus for r in d.regions) - n
    if euler != 2 - 2 * d.genus:
        raise DiagramError(
            "invalid",
            f"Euler characteristic {euler} does not match genus {d.genus}"
        )


def enumerate_generators(d: ClosedDiagram):
    """All point tuples inducing a bijection alpha -> beta, as sorted index
    tuples, in lexicographic order."""
    by_alpha: dict[int, list[int]] = {a: [] for a in range(d.genus)}
    for i, (a, _) in enumerate(d.points):
        by_alpha[a].append(i)

    # One level per alpha curve: extend every partial choice by a point on
    # the next alpha curve whose beta curve is still free.
    beta = [b for _, b in d.points]
    partial = [()]
    for a in range(d.genus):
        partial = [
            chosen + (i,)
            for chosen in partial
            for i in by_alpha[a]
            if beta[i] not in {beta[j] for j in chosen}
        ]
    return sorted(tuple(sorted(chosen)) for chosen in partial)


def _interior_points(d: ClosedDiagram, r: Region):
    count: dict[int, int] = {}
    for p, _ in r.corners:
        count[p] = count.get(p, 0) + 1
    return {p for p, k in count.items() if k == 4}


def _region_moves(d: ClosedDiagram, r: Region):
    """The (source points, target points) swaps a nice z-free region can
    contribute: bigons move one coordinate, rectangles two (even quadrants
    mark the source corners)."""
    cs = r.corners
    if len(cs) == 2:
        (p, qp), (q, qq) = cs
        if p == q or d.points[p] != d.points[q]:
            return
        if qp % 2 == 0 and qq % 2 == 1:
            yield frozenset([p]), frozenset([q])
        elif qq % 2 == 0 and qp % 2 == 1:
            yield frozenset([q]), frozenset([p])
        return
    if len(cs) != 4:
        return
    evens = [i for i, (_, q) in enumerate(cs) if q % 2 == 0]
    if len(evens) != 2 or (evens[1] - evens[0]) % 2 != 0:
        return
    src = frozenset(cs[i][0] for i in evens)
    tgt = frozenset(cs[i][0] for i in range(4) if i not in evens)
    if len(src) != 2 or len(tgt) != 2:
        return
    sa = {d.points[p][0] for p in src}
    sb = {d.points[p][1] for p in src}
    ta = {d.points[p][0] for p in tgt}
    tb = {d.points[p][1] for p in tgt}
    if len(sa) == len(sb) == 2 and sa == ta and sb == tb:
        yield src, tgt


def cf_hat(d: ClosedDiagram) -> ChainComplex:
    """The hat Floer complex of a nice diagram: empty embedded bigons and
    rectangles away from the basepoint."""
    validate_diagram(d)
    if not all(r.has_z or (len(r.corners) in (2, 4) and r.genus == 0) for r in d.regions):
        raise DiagramError("not-nice", "non-nice region without basepoint")
    gens = enumerate_generators(d)
    index = {g: i for i, g in enumerate(gens)}
    gen_sets = [frozenset(g) for g in gens]

    # interior points only for a region that yields a move
    moves = [(src, tgt, _interior_points(d, r)) for r in d.regions if not r.has_z for src, tgt in _region_moves(d, r)]

    diff = []
    for gs in gen_sets:
        mask = 0
        for src, tgt, interior in moves:
            if not src <= gs:
                continue
            rest = gs - src
            if rest & interior:
                continue  # a spectator coordinate sits inside the region
            out = rest | tgt
            j = index.get(tuple(sorted(out)))
            if j is not None and len(out) == d.genus:
                mask ^= 1 << j
        diff.append(mask)

    labels = tuple(".".join(f"p{i}" for i in g) for g in gens)
    return ChainComplex(labels, tuple(diff))


@dataclass(frozen=True)
class DiagramDomain:
    """A 2-chain: an integer multiplicity per region, plus the strip level
    count and tuple size used by the index formula."""

    multiplicities: tuple[int, ...]
    levels: int = 1
    k: int = 0


def parse_domain(text: str) -> DiagramDomain:
    """Parse a domain; malformed input raises DiagramError naming the
    offending field."""
    data = DiagramError.json(text)
    values = DiagramError.list_field(data, "multiplicities", "domain")
    try:
        multiplicities = tuple(as_int(v) for v in values)
    except TypeError as e:
        raise DiagramError("syntax", f"domain: field 'multiplicities' holds a non-integer: {values!r}") from e
    return DiagramDomain(
        multiplicities=multiplicities,
        levels=DiagramError.int_field(data, "levels", "domain", 1),
        k=DiagramError.int_field(data, "k", "domain", 0),
    )


def euler_measure(d: ClosedDiagram, phi: DiagramDomain) -> Fraction:
    """Additive Euler measure: an embedded m-gon with convex corners counts
    1 - m/4."""
    if len(phi.multiplicities) != len(d.regions):
        raise DiagramError("bad-domain", "domain does not match the region count")
    e = Fraction(0)
    for mult, r in zip(phi.multiplicities, d.regions):
        if mult == 0:
            continue
        if r.genus:
            raise DiagramError("bad-domain", "Euler measure needs disc regions in the support")
        e += mult * (1 - Fraction(len(r.corners), 4))
    return e


def maslov_index(i_phi: int, e: Fraction, levels: int, k: int) -> Fraction:
    """mu = i + 2e - (levels - 1) k / 2; the diagonal intersection number is
    supplied by the caller."""
    if levels < 1:
        raise DiagramError("bad-domain", "levels must be >= 1")
    if k < 0:
        raise DiagramError("bad-domain", "k must be >= 0")
    return Fraction(i_phi) + 2 * Fraction(e) - Fraction((levels - 1) * k, 2)
