"""Closed nice Heegaard diagrams as region complexes, and their GF(2) Floer
complexes.

A diagram is a list of intersection points tagged by (alpha curve, beta
curve) and a list of regions, each a cyclic corner list of (point, quadrant)
incidences.  Quadrants 0..3 run cyclically around a point with opposite
sectors sharing parity.  cf_hat reads each region's move off its corner
tuple: a bigon or rectangle whose corner points are distinct and whose
quadrant parities alternate round the tuple moves from its even-quadrant
corners to its odd ones.  Those are the empty embedded bigons (2 distinct
corners) and rectangles (4); a move that does not carry a generator to a
generator is dropped by the generator lookup.  Away from the basepoint
region all regions must be bigons or squares ("nice"), which makes the
differential a finite count.
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
    negative genus, and the assembled surface closes up with the stated genus.
    One pass over the regions, then the first fault in the order genus,
    point, corner, count, basepoint, Euler is raised."""
    n = len(d.points)
    used = bytearray(4 * n)  # used[4 p + q]: corner (p, q) already seen
    negative, corner_fault = d.genus < 0, None
    corners = marked = 0
    euler = len(d.regions) - n
    for ri, r in enumerate(d.regions):
        if r.genus:
            negative = negative or r.genus < 0
            euler -= 2 * r.genus
        if r.has_z:
            marked += 1
        if corner_fault is None:
            for p, q in r.corners:
                if not (0 <= p < n and 0 <= q < 4):
                    corner_fault = f"region {ri} has a corner out of range"
                    break
                k = 4 * p + q
                if used[k]:
                    corner_fault = f"corner ({p},{q}) used twice"
                    break
                used[k] = 1
            corners += len(r.corners)
    if negative:
        raise DiagramError("invalid", "negative diagram or region genus")
    for a, b in d.points:
        if not (0 <= a < d.genus and 0 <= b < d.genus):
            raise DiagramError("invalid", "point tagged with out-of-range curve index")
    if corner_fault:
        raise DiagramError("invalid", corner_fault)
    if corners != 4 * n:
        raise DiagramError("invalid", "inconsistent corner incidences: each point needs 4")
    if marked != 1:
        raise DiagramError("invalid", "exactly one basepoint region required")
    if euler != 2 - 2 * d.genus:
        raise DiagramError("invalid", f"Euler characteristic {euler} does not match genus {d.genus}")


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
        grown = []
        for chosen in partial:
            taken = {beta[j] for j in chosen}
            grown += [chosen + (i,) for i in by_alpha[a] if beta[i] not in taken]
        partial = grown
    return sorted(tuple(sorted(chosen)) for chosen in partial)


def cf_hat(d: ClosedDiagram) -> ChainComplex:
    """The hat Floer complex of a nice diagram: empty embedded bigons and
    rectangles away from the basepoint, each region's move read off its
    corner tuple; where no region moves, every row is 0."""
    validate_diagram(d)
    moves = []
    for r in d.regions:
        if r.has_z:
            continue
        cs = r.corners
        if r.genus or len(cs) not in (2, 4):
            raise DiagramError("not-nice", "non-nice region without basepoint")
        if len({p for p, _ in cs}) < len(cs):
            continue
        if len(cs) == 2:
            (p, qp), (q, qq) = cs
            if qp % 2 == qq % 2:
                continue
            src, tgt = ((p,), (q,)) if qp % 2 == 0 else ((q,), (p,))
        else:
            (p0, q0), (p1, q1), (p2, q2), (p3, q3) = cs
            if not q0 % 2 == q2 % 2 != q1 % 2 == q3 % 2:
                continue
            src, tgt = ((p0, p2), (p1, p3)) if q0 % 2 == 0 else ((p1, p3), (p0, p2))
        moves.append((frozenset(src), frozenset(tgt)))

    gens = enumerate_generators(d)
    diff = [0] * len(gens)
    if moves:
        index = {g: i for i, g in enumerate(gens)}
        for i, g in enumerate(gens):
            gs = frozenset(g)
            for src, tgt in moves:
                if src <= gs:
                    j = index.get(tuple(sorted((gs - src) | tgt)))
                    if j is not None:
                        diff[i] ^= 1 << j

    labels = tuple([".".join([f"p{i}" for i in g]) for g in gens])
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
