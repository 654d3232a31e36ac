import gc
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from strandalg.corpus import NAMED_DIAGRAMS, bigon_diagram, isotopic_diagram, s3_diagram, slope_diagram
from strandalg.diagrams import (
    ClosedDiagram,
    DiagramDomain,
    DiagramError,
    Region,
    cf_hat,
    enumerate_generators,
    euler_measure,
    maslov_index,
    parse_diagram,
    parse_domain,
    serialize_diagram,
    validate_diagram,
)


def test_pentagon_without_basepoint_rejected():
    bad = ClosedDiagram(
        1,
        ((0, 0), (0, 0)),
        (
            Region(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))),
            Region(((0, 3), (1, 2), (1, 3)), has_z=True),
        ),
    )
    with pytest.raises(DiagramError, match="non-nice"):
        cf_hat(bad)


def test_corner_incidence_errors():
    with pytest.raises(DiagramError, match="used twice"):
        validate_diagram(
            ClosedDiagram(
                1,
                ((0, 0),),
                (Region(((0, 0), (0, 0), (0, 1), (0, 2)), has_z=True),),
            )
        )
    with pytest.raises(DiagramError, match="basepoint"):
        validate_diagram(ClosedDiagram(1, ((0, 0),), (Region(((0, 0), (0, 1), (0, 2), (0, 3))),)))


def test_euler_consistency_enforced():
    with pytest.raises(DiagramError, match="Euler"):
        validate_diagram(
            ClosedDiagram(2, ((0, 0),), (Region(((0, 0), (0, 1), (0, 2), (0, 3)), has_z=True),))
        )


def test_generator_counts():
    assert len(enumerate_generators(s3_diagram())) == 1
    for p in range(2, 8):
        assert len(enumerate_generators(slope_diagram(p))) == p
    assert len(enumerate_generators(isotopic_diagram())) == 2


def test_cf_hat_sphere():
    c = cf_hat(s3_diagram())
    assert c.rank == 1 and c.homology_rank() == 1


@pytest.mark.parametrize("p", range(2, 8))
def test_cf_hat_slope_p(p):
    c = cf_hat(slope_diagram(p))
    assert all(m == 0 for m in c.differential)  # one moving coordinate only
    assert c.homology_rank() == p


def test_cf_hat_isotopic_curves():
    c = cf_hat(isotopic_diagram())
    assert all(m == 0 for m in c.differential)
    assert c.homology_rank() == 2


def test_bigon_differential_fires():
    d = bigon_diagram()
    c = cf_hat(d)
    assert c.differential == (0b10, 0)
    assert c.homology_rank() == 0


def _rectangle_diagram():
    """Genus 2, four points, one empty rectangle away from the basepoint."""
    return ClosedDiagram(
        2,
        ((0, 0), (0, 1), (1, 0), (1, 1)),
        (
            Region(((0, 0), (1, 1), (3, 2), (2, 3))),
            Region(
                tuple(
                    (p, q)
                    for p in range(4)
                    for q in range(4)
                    if (p, q) not in {(0, 0), (1, 1), (3, 2), (2, 3)}
                ),
                has_z=True,
            ),
        ),
    )


def test_rectangle_differential_fires():
    c = cf_hat(_rectangle_diagram())
    # {p0, p3} -> {p1, p2}, nothing back
    assert c.labels == ("p0.p3", "p1.p2")
    assert c.differential == (0b10, 0)
    assert c.homology_rank() == 0


def _diagram_json(points, regions):
    return json.dumps({
        "genus": 2,
        "points": [{"alpha": a, "beta": b} for a, b in points],
        "regions": [{"corners": cs, "has_z": z, **({"genus": g} if g else {})} for cs, z, g in regions],
    })


@pytest.mark.parametrize(
    "points, regions, rank",
    [
        # a square whose two diagonals are the same two points: source equals target
        (
            [(0, 0), (1, 1)],
            [([[0, 0], [0, 1], [1, 2], [1, 3]], False, 0), ([[0, 2], [0, 3], [1, 0], [1, 1]], True, 1)],
            1,
        ),
        # a square on three points, p0 at two corners
        (
            [(0, 0), (1, 1), (1, 1)],
            [
                ([[0, 0], [0, 1], [1, 2], [2, 3]], False, 0),
                ([[1, 1], [2, 1]], False, 0),
                ([[0, 2], [0, 3], [1, 0], [1, 3], [2, 0], [2, 2]], True, 1),
            ],
            2,
        ),
    ],
    ids=["diagonal-on-itself", "three-points"],
)
def test_a_region_with_a_repeated_corner_point_does_not_move(points, regions, rank):
    """Only a region whose corner points are distinct moves: a four-corner
    region that meets a point twice is no empty rectangle, so it neither
    maps a generator to itself nor fires as a move."""
    d = parse_diagram(_diagram_json(points, regions))
    c = cf_hat(d)
    assert c.differential == (0,) * c.rank
    assert c.homology_rank() == rank


def test_a_beta_index_equal_to_the_genus_is_rejected():
    """Kills the mutant that bounds a point's beta curve by genus + 1 (or not
    at all) in validate_diagram: beta == genus names no curve."""
    d = ClosedDiagram(1, ((0, 1),), (Region(((0, 0), (0, 1), (0, 2), (0, 3)), has_z=True),))
    with pytest.raises(DiagramError, match="out-of-range curve index") as err:
        validate_diagram(d)
    assert err.value.code == "invalid"


def test_d_squared_on_corpus():
    for name, fn in NAMED_DIAGRAMS.items():
        cf_hat(fn())  # ChainComplex construction validates d^2 = 0


def test_rank_invariant_under_relabeling():
    d = slope_diagram(4)
    perm = [2, 0, 3, 1]
    points = tuple(d.points[perm.index(i)] for i in range(4))
    regions = tuple(
        Region(tuple((perm[p], q) for p, q in r.corners), r.has_z, r.genus)
        for r in reversed(d.regions)
    )
    relabeled = ClosedDiagram(d.genus, points, regions)
    validate_diagram(relabeled)
    assert cf_hat(relabeled).homology_rank() == cf_hat(d).homology_rank()


def _reflect(d):
    # reverse every corner cycle and flip quadrant parity; over GF(2) this
    # transposes the differential
    regions = tuple(
        Region(tuple((p, 3 - q) for p, q in reversed(r.corners)), r.has_z, r.genus)
        for r in d.regions
    )
    return ClosedDiagram(d.genus, d.points, regions)


def test_rank_invariant_under_reflection():
    for name, fn in NAMED_DIAGRAMS.items():
        d = fn()
        refl = _reflect(d)
        validate_diagram(refl)
        assert cf_hat(refl).homology_rank() == cf_hat(d).homology_rank()


def test_euler_measure_bigon_and_square():
    bigon = bigon_diagram()
    assert euler_measure(bigon, DiagramDomain((1, 0))) == Fraction(1, 2)
    sq = slope_diagram(3)
    assert euler_measure(sq, DiagramDomain((0, 1, 0))) == 0


def test_euler_measure_additive():
    d = slope_diagram(4)
    a = DiagramDomain((0, 1, 0, 0))
    b = DiagramDomain((0, 0, 2, 0))
    ab = DiagramDomain((0, 1, 2, 0))
    assert euler_measure(d, ab) == euler_measure(d, a) + euler_measure(d, b)


def test_euler_measure_rejects_genus_region():
    d = ClosedDiagram(
        2,
        ((0, 0), (1, 1)),
        (
            Region(((0, 0), (0, 1), (0, 2), (0, 3)), has_z=True),
            Region(((1, 0), (1, 1), (1, 2), (1, 3)), genus=1),
        ),
    )
    validate_diagram(d)
    with pytest.raises(DiagramError, match="disc regions"):
        euler_measure(d, DiagramDomain((0, 1)))
    assert euler_measure(d, DiagramDomain((1, 0))) == 0  # support avoids it


def test_maslov_index_rigid_disc():
    for k in range(5):
        assert maslov_index(1, Fraction(0), 1, k) == 1


def test_maslov_index_higher_product_vanishing_case():
    # i = 0 and e = (l-1)k/4 give mu = 0 < 2 - l for l >= 3
    levels, k = 3, 2
    e = Fraction((levels - 1) * k, 4)
    assert maslov_index(0, e, levels, k) == 0
    assert maslov_index(0, Fraction(0), 1, 0) == 0


def test_maslov_index_argument_validation():
    with pytest.raises(ValueError) as e:
        maslov_index(0, Fraction(0), 0, 1)
    assert e.value.code == "bad-domain"
    with pytest.raises(ValueError) as e:
        maslov_index(0, Fraction(0), 1, -1)
    assert e.value.code == "bad-domain"


def test_serialize_parse_round_trip():
    for name, fn in NAMED_DIAGRAMS.items():
        d = fn()
        assert parse_diagram(serialize_diagram(d)) == d


_DROP = object()


def _s3_json(**change):
    """The S^3 diagram as JSON, with fields replaced or (_DROP) removed;
    a path like points__0__alpha walks into lists and objects."""
    data = json.loads(serialize_diagram(s3_diagram()))
    for path, value in change.items():
        *keys, last = path.split("__")
        obj = data
        for key in keys:
            obj = obj[int(key)] if key.isdigit() else obj[key]
        if value is _DROP:
            del obj[last]
        else:
            obj[last] = value
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"genus": 1,', "not valid JSON"),
        ("[1, 2]", "diagram is not an object"),
        (_s3_json(points=_DROP), "diagram lacks field 'points'"),
        (_s3_json(regions=_DROP), "diagram lacks field 'regions'"),
        (_s3_json(genus=_DROP), "diagram lacks field 'genus'"),
        (_s3_json(points__0__alpha=_DROP), "point 0 lacks field 'alpha'"),
        (_s3_json(points__0__beta=_DROP), "point 0 lacks field 'beta'"),
        (_s3_json(regions__0__corners=_DROP), "region 0 lacks field 'corners'"),
        (_s3_json(genus="one"), "diagram: field 'genus' is not an integer"),
        (_s3_json(genus=None), "diagram: field 'genus' is not an integer"),
        (_s3_json(points=7), "diagram: field 'points' is not a list"),
        (_s3_json(regions="abc"), "diagram: field 'regions' is not a list"),
        (_s3_json(points=[3]), "point 0 is not an object"),
        (_s3_json(points__0__beta=[0]), "point 0: field 'beta' is not an integer"),
        (_s3_json(regions__0__corners=[[0, 0, 1]]), "region 0: field 'corners' holds [0, 0, 1]"),
        (_s3_json(regions__0__corners=[5]), "region 0: field 'corners' holds 5"),
        (_s3_json(regions__0__corners=[["a", 0]]), "region 0: field 'corners' holds ['a', 0]"),
        (_s3_json(regions__0__genus="x"), "region 0: field 'genus' is not an integer"),
        (_s3_json(genus="1"), "diagram: field 'genus' is not an integer"),
        (_s3_json(genus=True), "diagram: field 'genus' is not an integer"),
        (_s3_json(points__0__alpha=0.7), "point 0: field 'alpha' is not an integer"),
        (_s3_json(regions__0__corners=[[0, 1.0]]), "region 0: field 'corners' holds [0, 1.0]"),
        (_s3_json(regions__0__corners=[[False, 0]]), "region 0: field 'corners' holds [False, 0]"),
        (_s3_json(regions__0__genus=0.5), "region 0: field 'genus' is not an integer"),
        (_s3_json(regions__0__has_z="false"), "region 0: field 'has_z' is not a boolean: 'false'"),
    ],
)
def test_malformed_diagram_is_a_diagram_error(text, message):
    with pytest.raises(DiagramError, match=re.escape(message)) as e:
        parse_diagram(text)
    assert e.value.code == "syntax"


@pytest.mark.parametrize(
    "text, message",
    [
        (_s3_json(genus=2), "Euler characteristic 0 does not match genus 2"),
        (_s3_json(points__0__alpha=1), "point tagged with out-of-range curve index"),
        (_s3_json(regions__0__corners=[[0, 0], [0, 1], [0, 2], [0, 4]]), "region 0 has a corner out of range"),
        (_s3_json(regions__0__corners=[[0, 0], [0, 1], [0, 2], [0, 2]]), "corner (0,2) used twice"),
        (_s3_json(regions__0__corners=[[0, 0], [0, 1], [0, 2]]), "each point needs 4"),
        (_s3_json(regions__0__has_z=False), "exactly one basepoint region required"),
        (
            '{"genus": -1, "points": [], "regions": [{"corners": [], "has_z": true}, {"corners": []}, {"corners": []}, {"corners": []}]}',
            "negative diagram or region genus",
        ),
        (
            _s3_json(regions=[{"corners": [[0, 0], [0, 1]], "has_z": True, "genus": -1}, {"corners": [[0, 2]], "genus": 1}, {"corners": [[0, 3]], "genus": 1}]),
            "negative diagram or region genus",
        ),
    ],
    ids=["euler", "curve-index", "corner-range", "corner-twice", "incidences", "basepoint", "genus", "region-genus"],
)
def test_inconsistent_diagram_is_invalid(text, message):
    with pytest.raises(DiagramError, match=re.escape(message)) as e:
        parse_diagram(text)
    assert e.value.code == "invalid"


def test_genus_zero_diagram_is_not_negative():
    """A genus-0 diagram of one marked disc fails on its Euler characteristic,
    not as a negative genus.  Exists to kill the mutant that reads genus 0
    as negative (d.genus <= 0 in validate_diagram)."""
    with pytest.raises(DiagramError, match=re.escape("Euler characteristic 1 does not match genus 0")) as e:
        validate_diagram(ClosedDiagram(0, (), (Region((), has_z=True),)))
    assert e.value.code == "invalid"


def test_domain_that_does_not_fit_is_a_bad_domain():
    d = s3_diagram()
    with pytest.raises(DiagramError, match="does not match the region count") as e:
        euler_measure(d, DiagramDomain((0, 1)))
    assert e.value.code == "bad-domain"
    d = ClosedDiagram(
        2,
        ((0, 0), (1, 1)),
        (
            Region(((0, 0), (0, 1), (0, 2), (0, 3)), has_z=True),
            Region(((1, 0), (1, 1), (1, 2), (1, 3)), genus=1),
        ),
    )
    with pytest.raises(DiagramError, match="disc regions") as e:
        euler_measure(d, DiagramDomain((0, 1)))
    assert e.value.code == "bad-domain"


def test_non_nice_diagram_has_its_own_code():
    bad = ClosedDiagram(
        1,
        ((0, 0), (0, 0)),
        (
            Region(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))),
            Region(((0, 3), (1, 2), (1, 3)), has_z=True),
        ),
    )
    with pytest.raises(DiagramError, match="non-nice") as e:
        cf_hat(bad)
    assert e.value.code == "not-nice"


def test_parse_domain():
    phi = parse_domain('{"multiplicities": [0, 1, 2], "levels": 3, "k": 2}')
    assert phi == DiagramDomain((0, 1, 2), levels=3, k=2)
    assert parse_domain('{"multiplicities": []}') == DiagramDomain(())


@pytest.mark.parametrize(
    "text, message",
    [
        ("nope", "not valid JSON"),
        ("[0, 1]", "domain is not an object"),
        ("{}", "domain lacks field 'multiplicities'"),
        ('{"multiplicities": 5}', "domain: field 'multiplicities' is not a list"),
        ('{"multiplicities": [1, "x"]}', "domain: field 'multiplicities' holds a non-integer"),
        ('{"multiplicities": [1, null]}', "domain: field 'multiplicities' holds a non-integer"),
        ('{"multiplicities": [1], "levels": "two"}', "domain: field 'levels' is not an integer"),
        ('{"multiplicities": [1], "levels": [2]}', "domain: field 'levels' is not an integer"),
        ('{"multiplicities": [1], "k": "x"}', "domain: field 'k' is not an integer"),
        ('{"multiplicities": [1], "k": null}', "domain: field 'k' is not an integer"),
        ('{"multiplicities": [1.5, true, "2"]}', "domain: field 'multiplicities' holds a non-integer"),
        ('{"multiplicities": [1, true]}', "domain: field 'multiplicities' holds a non-integer"),
        ('{"multiplicities": [1], "levels": 2.0}', "domain: field 'levels' is not an integer"),
        ('{"multiplicities": [1], "k": "2"}', "domain: field 'k' is not an integer"),
        ('{"multiplicities": [1], "k": false}', "domain: field 'k' is not an integer"),
    ],
    ids=["json", "non-object", "missing", "mult-int", "mult-str", "mult-null",
         "levels-str", "levels-list", "k-str", "k-null", "mult-float", "mult-bool", "levels-float",
         "k-numeric-str", "k-bool"],
)
def test_malformed_domain_is_a_diagram_error(text, message):
    with pytest.raises(DiagramError, match=re.escape(message)) as e:
        parse_domain(text)
    assert e.value.code == "syntax"
    # a rejected JSON text or integer conversion is chained from its cause
    assert (e.value.__cause__ is not None) == ("JSON" in message or "integer" in message)


def test_cf_hat_leaves_no_cyclic_garbage():
    """Reference counting alone frees everything cf_hat builds."""
    gc.collect()
    gc.disable()
    try:
        cf_hat(slope_diagram(64))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# cf_hat against the per-region move scan it replaced


def _reference_validate(d):
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
        raise DiagramError("invalid", f"Euler characteristic {euler} does not match genus {d.genus}")


def _reference_generators(d):
    by_alpha = {a: [] for a in range(d.genus)}
    for i, (a, _) in enumerate(d.points):
        by_alpha[a].append(i)
    beta = [b for _, b in d.points]
    partial = [()]
    for a in range(d.genus):
        partial = [c + (i,) for c in partial for i in by_alpha[a] if beta[i] not in {beta[j] for j in c}]
    return sorted(tuple(sorted(c)) for c in partial)


def _reference_region_moves(r):
    """The move of a bigon or square: where its corner points are distinct
    and its quadrant parities alternate round the cycle, from its
    even-quadrant corners to its odd ones."""
    cs = r.corners
    parities = [q % 2 for _, q in cs]
    if len(cs) in (2, 4) and len({p for p, _ in cs}) == len(cs):
        if all(parities[n] != parities[n - 1] for n in range(len(cs))):
            yield frozenset(p for p, q in cs if q % 2 == 0), frozenset(p for p, q in cs if q % 2)


def _reference_cf_hat(d):
    """The move scan as (labels, differential), before ChainComplex checks it."""
    _reference_validate(d)
    if not all(r.has_z or (len(r.corners) in (2, 4) and r.genus == 0) for r in d.regions):
        raise DiagramError("not-nice", "non-nice region without basepoint")
    gens = _reference_generators(d)
    index = {g: i for i, g in enumerate(gens)}
    moves = [m for r in d.regions if not r.has_z for m in _reference_region_moves(r)]
    diff = []
    for g in gens:
        gs, mask = frozenset(g), 0
        for src, tgt in moves:
            if src <= gs:
                out = (gs - src) | tgt
                j = index.get(tuple(sorted(out)))
                if j is not None and len(out) == d.genus:
                    mask ^= 1 << j
        diff.append(mask)
    return tuple(".".join(f"p{i}" for i in g) for g in gens), tuple(diff)


def _outcome(fn, d):
    try:
        return fn(d)
    except DiagramError as e:
        return "DiagramError", e.code, str(e)


def _shuffled(rng, d):
    """d with each point's quadrants permuted and each region's corners
    rotated or reordered, from rng: the corner incidences stay a valid
    diagram's, while the parity pattern of every region changes."""
    perms = [rng.sample(range(4), 4) for _ in d.points]
    regions = []
    for r in d.regions:
        cs = [(p, perms[p][q]) for p, q in r.corners]
        if rng.random() < 0.5:
            k = rng.randrange(len(cs))
            cs = cs[k:] + cs[:k]
        else:
            rng.shuffle(cs)
        regions.append(Region(tuple(cs), r.has_z, r.genus))
    return ClosedDiagram(d.genus, d.points, tuple(regions))


def _random_diagram(rng):
    """A seeded diagram that validate_diagram accepts but need not come from
    a surface: random curve tags, and the corners dealt at random into z-free
    bigons and squares, the basepoint region taking the rest."""
    genus = rng.randint(1, 3)
    n = rng.randint(2 * genus - 1, 2 * genus + 3)
    points = tuple((rng.randrange(genus), rng.randrange(genus)) for _ in range(n))
    corners = [(p, q) for p in range(n) for q in range(4)]
    rng.shuffle(corners)
    regions = []
    for _ in range(n + 1 - 2 * genus):  # genus-0 regions: Euler gives n + 2 - 2 genus of them
        size = min(rng.choice((2, 4)), len(corners) - 1)
        regions.append(Region(tuple(corners[:size])))
        del corners[:size]
    regions.insert(rng.randrange(len(regions) + 1), Region(tuple(corners), has_z=True))
    return ClosedDiagram(genus, points, tuple(regions))


def _broken(rng, d):
    """d with one to three seeded faults, each one that validate_diagram or
    the niceness test rejects."""
    genus, points, regions = d.genus, list(d.points), [list(r.corners) for r in d.regions]
    genera, marks = [r.genus for r in d.regions], [r.has_z for r in d.regions]
    for _ in range(rng.randint(1, 3)):
        ri = rng.randrange(len(regions))
        kind = rng.randrange(8)
        if kind == 0:
            genera[ri] = -1
        elif kind == 1:
            points[rng.randrange(len(points))] = (genus, 0)
        elif kind == 2 and regions[ri]:
            regions[ri][rng.randrange(len(regions[ri]))] = (rng.choice([len(points), -1, 0]), rng.choice([4, -1, 0]))
        elif kind == 3 and regions[ri]:
            regions[ri].append(rng.choice(regions[ri]))
        elif kind == 4 and regions[ri]:
            regions[ri].pop(rng.randrange(len(regions[ri])))
        elif kind == 5:
            marks[ri] = not marks[ri]
        elif kind == 6:
            genera[ri] += 1
        else:  # the basepoint moves to region ri
            marks = [i == ri for i in range(len(regions))]
    return ClosedDiagram(genus, tuple(points), tuple(
        Region(tuple(cs), z, g) for cs, z, g in zip(regions, marks, genera)
    ))


def test_cf_hat_matches_the_move_scan(monkeypatch):
    """cf_hat gives the (labels, differential) of the per-region move scan,
    or the same DiagramError code and message, on the corpus, the bigon and
    rectangle diagrams, their reflections, the slope diagrams up to 64, and
    seeded quadrant and corner-order shuffles and faults of each; the
    shuffles reach every parity pattern of the two- and four-corner regions,
    and moves fire."""
    from strandalg import diagrams as D

    monkeypatch.setattr(D, "ChainComplex", lambda labels, diff: (labels, diff))
    base = [fn() for fn in NAMED_DIAGRAMS.values()] + [bigon_diagram(), _rectangle_diagram()]
    base += [_reflect(d) for d in base] + [slope_diagram(q) for q in range(1, 65)]
    rng = random.Random(30)
    small = [d for d in base if len(d.points) <= 8]
    cases = base + [_shuffled(rng, d) for d in small for _ in range(40)]
    cases += [_broken(rng, d) for d in small for _ in range(20)]
    cases += [_random_diagram(rng) for _ in range(2000)]
    patterns, fired, raised = Counter(), 0, Counter()
    for d in cases:
        expected = _outcome(_reference_cf_hat, d)
        assert _outcome(cf_hat, d) == expected, d
        if expected[0] == "DiagramError":
            raised[re.sub(r"-?\d+", "#", expected[2])] += 1
            continue
        fired += any(expected[1])
        patterns.update(tuple(q % 2 for _, q in r.corners) for r in d.regions if not r.has_z)
    assert all(patterns[p] for n in (2, 4) for p in itertools.product((0, 1), repeat=n))
    assert fired > 20
    assert len(raised) == 8, raised  # every fault validate_diagram and the niceness test name
