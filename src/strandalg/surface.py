"""Decorated surfaces: boundary circles with marked points and an arc matching.

A decorated surface is stored purely combinatorially: each boundary circle is
a cyclic node list whose entries are either the marked-point token ``z`` or an
endpoint identifier ``e<id>``, and the arcs are unordered endpoint pairs.  The
complement faces are derived by tracing, walking each directed boundary
segment once and crossing every arc once in each direction; filling the traced
cycles with discs (or, via overrides, with higher-genus pieces) reconstructs
the surface, so genus and Euler characteristic are derived quantities.

Everything downstream of this module that builds algebras only ever looks at
the intervals (maximal endpoint runs between marked points) and the matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .inputs import InputError

Z = "z"


class SurfaceError(InputError):
    """Malformed or rejected surface data; ``code`` identifies the reason."""


def _is_endpoint(tok: str) -> bool:
    return tok != Z


@dataclass(frozen=True)
class DecoratedSurface:
    """Immutable combinatorial (surface, marked points, arcs) triple.

    circles: per circle, the cyclic node sequence in boundary orientation.
    arcs: n unordered endpoint pairs, stored sorted.
    face_genus: optional (face index, genus) overrides; face indices refer to
        the deterministic tracing order of :func:`analyze_surface`.
    """

    circles: tuple[tuple[str, ...], ...]
    arcs: tuple[tuple[str, str], ...]
    face_genus: tuple[tuple[int, int], ...] = ()

    # -- derived lookups ---------------------------------------------------

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(t for c in self.circles for t in c if _is_endpoint(t))

    @property
    def z_marks(self) -> tuple[tuple[int, int], ...]:
        """(circle, node index) of every marked point, in circle order."""
        return tuple(
            (ci, ni)
            for ci, c in enumerate(self.circles)
            for ni, t in enumerate(c)
            if t == Z
        )

    def arc_of(self, endpoint: str) -> int:
        for i, (a, b) in enumerate(self.arcs):
            if endpoint in (a, b):
                return i
        raise KeyError(endpoint)

    def other_end(self, endpoint: str) -> str:
        a, b = self.arcs[self.arc_of(endpoint)]
        return b if endpoint == a else a

    def intervals(self) -> tuple[tuple[str, ...], ...]:
        """Maximal runs of endpoints between consecutive marked points.

        Every circle carries at least one mark, so each run is linearly
        ordered by the boundary orientation.  Empty runs are dropped.
        """
        runs = []
        for circle in self.circles:
            zs = [i for i, t in enumerate(circle) if t == Z]
            m = len(circle)
            for j, zi in enumerate(zs):
                nxt = zs[(j + 1) % len(zs)]
                run = []
                i = (zi + 1) % m
                while i != nxt:
                    run.append(circle[i])
                    i = (i + 1) % m
                if run:
                    runs.append(tuple(run))
        return tuple(runs)


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_surface(text: str) -> DecoratedSurface:
    """Parse the JSON surface format and validate all invariants."""
    data = SurfaceError.json(text)
    if not isinstance(data, dict) or "circles" not in data or "arcs" not in data:
        raise SurfaceError("syntax", "expected object with 'circles' and 'arcs'")

    for name in ("circles", "arcs"):
        for item in SurfaceError.list_field(data, name, "surface"):
            if not isinstance(item, list):
                raise SurfaceError("syntax", f"field {name!r} holds {item!r}, not a list")

    circles = []
    for c in data["circles"]:
        nodes = []
        for tok in c:
            if not isinstance(tok, str) or (tok != Z and not tok.startswith("e")):
                raise SurfaceError("bad-token", f"bad node token {tok!r}")
            nodes.append(tok)
        circles.append(tuple(nodes))

    arcs = []
    for pair in data["arcs"]:
        if len(pair) != 2:
            raise SurfaceError("bad-arc", f"arc {pair!r} is not a pair")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)):
            raise SurfaceError("bad-token", f"arc {pair!r} has a non-string endpoint")
        if a == b:
            raise SurfaceError("bad-arc", f"arc {pair!r} has equal endpoints")
        arcs.append(tuple(sorted((a, b))))

    face_genus = data.get("face_genus", {})
    if not isinstance(face_genus, dict):
        raise SurfaceError("syntax", "field 'face_genus' is not an object")
    overrides = []
    for k, v in face_genus.items():
        try:
            face = int(k) if k.isascii() and k.isdecimal() else None
        except ValueError:  # more digits than int() converts
            face = None
        # one key per face: k == str(face) rules out "00", "01" and the like
        if face is None or k != str(face) or type(v) is not int or v < 0:
            raise SurfaceError("syntax", f"field 'face_genus' maps {k!r} to {v!r}, not a face index to a genus")
        overrides.append((face, v))
    genus_overrides = tuple(sorted(overrides))
    ds = DecoratedSurface(tuple(circles), tuple(arcs), genus_overrides)
    _validate(ds)
    if genus_overrides:
        analyze_surface(ds)  # rejects an override for a face that does not exist
    return ds


def _validate(ds: DecoratedSurface):
    if not ds.circles:
        raise SurfaceError("no-circle", "a surface needs at least one boundary circle")
    seen: dict[str, int] = {}
    for tok in ds.endpoints:
        if not tok.startswith("e"):
            raise SurfaceError("bad-token", f"bad node token {tok!r}")
        seen[tok] = seen.get(tok, 0) + 1
    dup = [t for t, k in seen.items() if k > 1]
    if dup:
        raise SurfaceError("duplicate-endpoint", f"endpoint(s) {dup} occur twice on the boundary")

    in_arcs: dict[str, int] = {}
    for a, b in ds.arcs:
        for t in (a, b):
            in_arcs[t] = in_arcs.get(t, 0) + 1
    bad = [t for t, k in in_arcs.items() if k > 1]
    if bad:
        raise SurfaceError("duplicate-endpoint", f"endpoint(s) {bad} occur in two arcs")
    missing = set(in_arcs) ^ set(seen)
    if missing:
        raise SurfaceError(
            "unmatched-endpoint",
            f"endpoint(s) {sorted(missing)} not matched between circles and arcs",
        )

    for ci, circle in enumerate(ds.circles):
        if Z not in circle:
            # Without a marked point the morphism spaces wrap indefinitely
            # around this boundary circle; such data is rejected outright.
            raise SurfaceError("circle-without-z", f"circle {ci} carries no z mark")

    # The surface must be connected: the circles-joined-by-arcs graph has one
    # component.
    if len(ds.circles) > 1:
        circle_of = {
            t: ci for ci, c in enumerate(ds.circles) for t in c if _is_endpoint(t)
        }
        parent = list(range(len(ds.circles)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in ds.arcs:
            parent[find(circle_of[a])] = find(circle_of[b])
        if len({find(ci) for ci in range(len(ds.circles))}) > 1:
            raise SurfaceError("disconnected", "the circles are not joined by arcs")

    for fi, g in ds.face_genus:
        if g < 0:
            raise SurfaceError("bad-face-genus", f"negative genus for face {fi}")


def serialize_surface(ds: DecoratedSurface) -> str:
    data = {
        "circles": [list(c) for c in ds.circles],
        "arcs": [list(p) for p in ds.arcs],
    }
    if ds.face_genus:
        data["face_genus"] = {str(k): v for k, v in ds.face_genus}
    return json.dumps(data, sort_keys=True)


def make_surface(circles, arcs, face_genus=()) -> DecoratedSurface:
    ds = DecoratedSurface(
        tuple(tuple(c) for c in circles),
        tuple(tuple(sorted(p)) for p in arcs),
        tuple(face_genus),
    )
    _validate(ds)
    return ds


# ---------------------------------------------------------------------------
# face tracing


@dataclass(frozen=True)
class Face:
    """One traced boundary cycle of the cut-open surface.

    ``word`` alternates boundary segments ("seg", circle, start node index)
    with arc crossings ("arc", arc index, from endpoint, to endpoint).
    """

    word: tuple[tuple, ...]
    z_count: int
    genus: int


@dataclass(frozen=True)
class SurfaceReport:
    genus: int
    num_boundary_circles: int
    faces: tuple[Face, ...]
    euler: int
    every_face_marked: bool  # every face meets a marked point
    single_disc_faces: bool  # every face is a disc with <= 1 marked point


def _segments(ds: DecoratedSurface):
    """Directed boundary segments between consecutive endpoints.

    Returns ({start endpoint: (circle, start node idx)}, {key: (end endpoint,
    z count)}, standalone) where key identifies a segment by its start and
    standalone lists circles without endpoints.
    """
    seg_from: dict[str, tuple[int, int]] = {}
    seg_data: dict[str, tuple[str, int]] = {}
    standalone = []
    for ci, circle in enumerate(ds.circles):
        eps = [i for i, t in enumerate(circle) if _is_endpoint(t)]
        if not eps:
            standalone.append(ci)
            continue
        m = len(circle)
        for j, i0 in enumerate(eps):
            i1 = eps[(j + 1) % len(eps)]
            zc = 0
            i = (i0 + 1) % m
            while i != i1:
                zc += 1  # only z nodes can sit strictly between endpoints
                i = (i + 1) % m
            seg_from[circle[i0]] = (ci, i0)
            seg_data[circle[i0]] = (circle[i1], zc)
    return seg_from, seg_data, standalone


def analyze_surface(ds: DecoratedSurface) -> SurfaceReport:
    """Trace the complement faces and derive genus and validity flags.

    Each directed boundary segment is used exactly once; an arc is crossed
    once in each direction.  Faces are reported in the deterministic order of
    their smallest starting segment.
    """
    seg_from, seg_data, standalone = _segments(ds)
    overrides = dict(ds.face_genus)
    faces = []
    used: set[str] = set()

    for start in sorted(seg_from):
        if start in used:
            continue
        word = []
        zc = 0
        cur = start
        while True:
            used.add(cur)
            ci, ni = seg_from[cur]
            end, z_here = seg_data[cur]
            word.append(("seg", ci, ni))
            zc += z_here
            other = ds.other_end(end)
            word.append(("arc", ds.arc_of(end), end, other))
            cur = other
            if cur == start:
                break
        faces.append((tuple(word), zc))

    for ci in standalone:
        zc = sum(1 for t in ds.circles[ci] if t == Z)
        faces.append(((("seg", ci, 0),), zc))

    bad = [fi for fi in overrides if fi >= len(faces)]
    if bad:
        raise SurfaceError("bad-face-genus", f"override for nonexistent face(s) {bad}")
    face_objs = tuple(
        Face(word, zc, overrides.get(fi, 0)) for fi, (word, zc) in enumerate(faces)
    )

    # CW count: vertices = endpoints (plus one phantom per endpoint-free
    # circle), edges = segments + arcs (plus the phantom loops).
    n_end = len(ds.endpoints)
    v = n_end + len(standalone)
    e = n_end + len(standalone) + ds.n_arcs
    euler = v - e + sum(1 - 2 * f.genus for f in face_objs)
    two_minus = 2 - len(ds.circles) - euler
    if two_minus % 2:
        raise SurfaceError("inconsistent", "odd Euler defect; data is not a surface")
    genus = two_minus // 2
    if genus < 0:
        raise SurfaceError("inconsistent", "negative genus; data is not a surface")

    return SurfaceReport(
        genus=genus,
        num_boundary_circles=len(ds.circles),
        faces=face_objs,
        euler=euler,
        every_face_marked=all(f.z_count >= 1 for f in face_objs),
        single_disc_faces=all(f.genus == 0 and f.z_count <= 1 for f in face_objs),
    )


# ---------------------------------------------------------------------------
# transforms


def reverse_orientation(ds: DecoratedSurface) -> DecoratedSurface:
    """Reverse every boundary circle; arcs unchanged.  An involution."""
    circles = tuple((c[0],) + tuple(reversed(c[1:])) for c in ds.circles)
    return make_surface(circles, ds.arcs, ds.face_genus)


def band_token(tok: str, side: str) -> str:
    """boundary_connected_sum's name for token tok of the left ("L") or right
    ("R") summand: ``e<id>`` becomes ``eL<id>`` or ``eR<id>``, ``z`` stays."""
    return tok if tok == Z else "e" + side + tok[1:]


def boundary_connected_sum(
    ds1: DecoratedSurface, z1: int, ds2: DecoratedSurface, z2: int
) -> DecoratedSurface:
    """Join two surfaces by a band at the chosen marked points.

    The two host circles merge into one; the consumed marks are replaced by
    fresh marks on either side of the band.  Endpoint identifiers are
    renamed by band_token so the inputs may share names.

    Genus overrides are not carried over (face indices do not survive the
    merge); inputs with overrides are rejected.
    """
    if ds1.face_genus or ds2.face_genus:
        raise SurfaceError("unsupported", "connected sum with face genus overrides")

    def pick(ds, zi, side):
        marks = ds.z_marks
        if not 0 <= zi < len(marks):
            raise SurfaceError("no-such-z", f"{side} surface has no z mark #{zi}")
        return marks[zi]

    c1, n1 = pick(ds1, z1, "left")
    c2, n2 = pick(ds2, z2, "right")

    def rest_after(circle, ni, side):
        m = len(circle)
        return [band_token(circle[(ni + k) % m], side) for k in range(1, m)]

    merged = tuple([Z] + rest_after(ds2.circles[c2], n2, "R") + [Z] + rest_after(ds1.circles[c1], n1, "L"))
    circles = [merged]
    circles += [tuple(band_token(t, "L") for t in c) for i, c in enumerate(ds1.circles) if i != c1]
    circles += [tuple(band_token(t, "R") for t in c) for i, c in enumerate(ds2.circles) if i != c2]
    arcs = [(band_token(a, "L"), band_token(b, "L")) for a, b in ds1.arcs] + [
        (band_token(a, "R"), band_token(b, "R")) for a, b in ds2.arcs
    ]
    return make_surface(circles, arcs)


def _locate(ds: DecoratedSurface, endpoint: str) -> tuple[int, int]:
    for ci, c in enumerate(ds.circles):
        for ni, t in enumerate(c):
            if t == endpoint:
                return ci, ni
    raise SurfaceError("no-such-endpoint", f"endpoint {endpoint!r} not on any circle")


def slide_options(ds: DecoratedSurface) -> list[tuple[int, int, str]]:
    """(i, j, end) for every slide of arc i over arc j at end that
    ``arc_slide`` accepts."""
    options = []
    for i, arc in enumerate(ds.arcs):
        for end in arc:
            ci, ni = _locate(ds, end)
            nxt = ds.circles[ci][(ni + 1) % len(ds.circles[ci])]
            if nxt != Z and ds.arc_of(nxt) != i:
                options.append((i, ds.arc_of(nxt), end))
    return options


def arc_slide(ds: DecoratedSurface, i: int, j: int, end: str) -> DecoratedSurface:
    """Slide arc ``i`` over arc ``j`` at the endpoint ``end`` of arc ``i``.

    Precondition: the node immediately after ``end`` in boundary orientation
    is an endpoint of arc ``j``.  The slid arc keeps the far endpoint of arc
    ``i``; its moved endpoint is re-inserted immediately after the far
    endpoint of arc ``j``.  Genus and boundary circle count are preserved
    (verified internally).
    """
    if i == j:
        raise SurfaceError("bad-slide", "cannot slide an arc over itself")
    if not (0 <= i < ds.n_arcs and 0 <= j < ds.n_arcs):
        raise SurfaceError("bad-slide", "arc index out of range")
    if end not in ds.arcs[i]:
        raise SurfaceError("bad-slide", f"{end!r} is not an endpoint of arc {i}")

    ci, ni = _locate(ds, end)
    circle = ds.circles[ci]
    nxt = circle[(ni + 1) % len(circle)]
    if nxt == Z or ds.arc_of(nxt) != j:
        raise SurfaceError(
            "not-adjacent",
            f"endpoint {end!r} is not immediately followed by an endpoint of arc {j}",
        )
    q_far = ds.other_end(nxt)

    taken = set(ds.endpoints)
    k = 0
    while f"e_s{k}" in taken:
        k += 1
    fresh = f"e_s{k}"

    circles = [list(c) for c in ds.circles]
    circles[ci].pop(ni)
    fc, fn = next(
        (a, b) for a, c in enumerate(circles) for b, t in enumerate(c) if t == q_far
    )
    circles[fc].insert(fn + 1, fresh)

    keep = ds.other_end(end)
    arcs = list(ds.arcs)
    arcs[i] = tuple(sorted((keep, fresh)))
    out = make_surface(circles, arcs)

    before, after = analyze_surface(ds), analyze_surface(out)
    if (before.genus, before.num_boundary_circles) != (after.genus, after.num_boundary_circles):
        raise AssertionError("arc slide changed the surface topology")
    return out
