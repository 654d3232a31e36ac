"""The bundled test corpus: named surfaces, the enumerated small-surface
family, closed diagrams, and the solid-torus module pairings.

The enumerated family covers every matching of up to three arcs on one or two
marked boundary circles; the named decorations add the one-disc (single
marked point, 2g arcs cutting the surface to one disc) and double-cover (two
marked points, 2g+1 arcs) families at genus one and two.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .diagrams import ClosedDiagram, Region
from .modules import TypeAModule, TypeDModule, load_module
from .strands import Algebra
from .surface import DecoratedSurface, SurfaceError, make_surface


# ---------------------------------------------------------------------------
# named surfaces


def disc() -> DecoratedSurface:
    return make_surface([["z"]], [])


def disc_with_arc() -> DecoratedSurface:
    return make_surface([["z", "e1", "e2"]], [["e1", "e2"]])


def one_disc_decoration(g: int) -> DecoratedSurface:
    """Genus g, one boundary circle, one marked point, 2g arcs interleaved in
    blocks of four so the complement is a single disc."""
    circle = ["z"] + [f"e{i}" for i in range(1, 4 * g + 1)]
    arcs = []
    for h in range(g):
        arcs.append([f"e{4 * h + 1}", f"e{4 * h + 3}"])
        arcs.append([f"e{4 * h + 2}", f"e{4 * h + 4}"])
    return make_surface([circle], arcs)


def torus_decoration() -> DecoratedSurface:
    return one_disc_decoration(1)


def double_cover_decoration(g: int) -> DecoratedSurface:
    """Genus g, one boundary circle, two marked points, 2g+1 arcs matching
    the j-th position of one interval with the j-th of the other."""
    n = 2 * g + 1
    circle = (
        ["z"]
        + [f"e{i}" for i in range(1, n + 1)]
        + ["z"]
        + [f"e{i}p" for i in range(1, n + 1)]
    )
    arcs = [[f"e{i}", f"e{i}p"] for i in range(1, n + 1)]
    return make_surface([circle], arcs)


# ---------------------------------------------------------------------------
# enumerated corpus


def _matchings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for m in _matchings(rest[:i] + rest[i + 1 :]):
            yield (pair,) + m


def corpus_surfaces():
    """(name, surface) for the whole bundled corpus: every connected matching
    of n <= 3 arcs over one or two marked circles, plus the named
    decorations.  Matchings that leave a circle unreached (the disc filling
    would be disconnected) are not decorated surfaces and are skipped."""
    out = [("disc", disc())]
    for n in (1, 2, 3):
        eps = [f"e{i}" for i in range(1, 2 * n + 1)]
        splits = [(2 * n,)] + [(a, 2 * n - a) for a in range(n, 2 * n)]
        for split in splits:
            circles = []
            at = 0
            for size in split:
                circles.append(["z"] + eps[at : at + size])
                at += size
            for mi, matching in enumerate(_matchings(eps)):
                name = f"n{n}_split{'x'.join(map(str, split))}_m{mi}"
                try:
                    ds = make_surface(circles, [list(p) for p in matching])
                except SurfaceError as e:
                    if e.code == "disconnected":
                        continue
                    raise
                out.append((name, ds))
    for g in (1, 2):
        out.append((f"onedisc_g{g}", one_disc_decoration(g)))
        out.append((f"doublecover_g{g}", double_cover_decoration(g)))
    return out


# ---------------------------------------------------------------------------
# closed diagrams


def slope_diagram(p: int) -> ClosedDiagram:
    """Genus-1 diagram with curves of slopes 0 and p: p points, p squares."""
    if p < 1:
        raise ValueError("slope must be >= 1")
    regions = tuple(
        Region(
            ((j % p, 0), ((j + 1) % p, 1), ((j + 2) % p, 2), ((j + 1) % p, 3)),
            has_z=(j == 0),
        )
        for j in range(p)
    )
    return ClosedDiagram(1, ((0, 0),) * p, regions)


def s3_diagram() -> ClosedDiagram:
    return slope_diagram(1)


def isotopic_diagram() -> ClosedDiagram:
    """Two isotopic essential curves meeting twice; both complement regions
    are squares with corner pattern x,x,y,y, so nothing fires."""
    return ClosedDiagram(
        1,
        ((0, 0), (0, 0)),
        (
            Region(((0, 0), (0, 1), (1, 0), (1, 1)), has_z=True),
            Region(((0, 2), (0, 3), (1, 2), (1, 3))),
        ),
    )


def bigon_diagram() -> ClosedDiagram:
    """Two curves on the torus meeting twice and bounding one empty bigon
    away from the basepoint, so the differential fires and HF-hat is 0."""
    return ClosedDiagram(
        1,
        ((0, 0), (0, 0)),
        (
            Region(((0, 0), (1, 1))),
            Region(((0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3)), has_z=True),
        ),
    )


NAMED_DIAGRAMS = {
    "s3": s3_diagram,
    "s1s2": isotopic_diagram,
    **{f"lens{p}": (lambda p=p: slope_diagram(p)) for p in range(2, 8)},
}

# rank of HF-hat of each named diagram's 3-manifold: S^3, S^1 x S^2, L(p, 1)
DIAGRAM_RANKS = {"s3": 1, "s1s2": 2, **{f"lens{p}": p for p in range(2, 8)}}


# ---------------------------------------------------------------------------
# bundled solid-torus modules over the torus algebra (k = 1)


def torus_algebra() -> Algebra:
    return Algebra.from_surface(torus_decoration(), 1)


def _chord(alg: Algebra, p: int, q: int) -> int:
    return alg.basis_index({"chords": [[p, q]]})


def solid_torus_typeA(alg: Algebra | None = None) -> TypeAModule:
    """The right module generated by one arc idempotent: hom(D_0, -) with the
    algebra acting by composition."""
    alg = alg or torus_algebra()
    c = lambda p, q: _chord(alg, p, q)
    i0, i1 = (0,), (1,)
    return TypeAModule(
        alg,
        ("u0", "c02", "c01", "c03", "c23"),
        {"u0": i0, "c02": i0, "c01": i1, "c03": i1, "c23": i1},
        {
            ("u0", (c(0, 1),)): frozenset(["c01"]),
            ("u0", (c(0, 2),)): frozenset(["c02"]),
            ("u0", (c(0, 3),)): frozenset(["c03"]),
            ("u0", (c(2, 3),)): frozenset(["c23"]),
            ("c02", (c(2, 3),)): frozenset(["c03"]),
            ("c01", (c(1, 2),)): frozenset(["c02"]),
            ("c01", (c(1, 3),)): frozenset(["c03"]),
        },
    )


def filling_typeD(q: int, alg: Algebra | None = None) -> TypeDModule:
    """Type D model of the q-framed solid torus filling: one arc-0 generator
    feeding a chain of q arc-1 generators."""
    if q < 0:
        raise ValueError("framing must be >= 0")
    alg = alg or torus_algebra()
    gens = ("v", *[f"w{i}" for i in range(1, q + 1)])  # each name formatted once
    arrows = [_chord(alg, 2, 3)] + [_chord(alg, 1, 3)] * (q - 1)
    delta = {x: frozenset([(a, y)]) for x, a, y in zip(gens, arrows, gens[1:])}
    delta[gens[-1]] = frozenset()
    return TypeDModule(alg, gens, {"v": (0,), **dict.fromkeys(gens[1:], (1,))}, delta)


def filling_reversed_typeA(q: int, alg: Algebra | None = None) -> TypeAModule:
    """Type A model of the orientation-reversed q-framed filling, read from
    its bundled file; its actions are cancellation-free, so its dual type D
    structure is valid."""
    if q not in range(6):
        raise ValueError("bundled fillings cover q = 0..5")
    return load_module(data_dir() / "modules" / f"filling{q}_rev_typeA.json", algebra=alg or torus_algebra())


PAIRINGS = tuple(
    {
        "name": f"filling{q}",
        "type_a": "modules/solid_torus_typeA.json",
        "type_d": f"modules/filling{q}_typeD.json",
        "reversed_type_a": f"modules/filling{q}_rev_typeA.json",
        "diagram": diagram,
        "rank": DIAGRAM_RANKS[diagram],
    }
    for q, diagram in enumerate(("s1s2", "s3", *(f"lens{p}" for p in range(2, 6))))
)


def data_dir() -> Path:
    return Path(str(resources.files("strandalg").joinpath("data")))


def load_bundled_pairings():
    """Load the shipped pairing files: (name, typeA, typeD, reversed typeA,
    diagram, expected rank)."""
    base = data_dir()
    alg = torus_algebra()
    out = []
    for p in PAIRINGS:
        ma = load_module(base / p["type_a"], algebra=alg)
        nd = load_module(base / p["type_d"], algebra=alg)
        mr = load_module(base / p["reversed_type_a"], algebra=alg)
        out.append((p["name"], ma, nd, mr, NAMED_DIAGRAMS[p["diagram"]](), p["rank"]))
    return out
