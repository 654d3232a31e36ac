import functools
import hashlib
import io
import itertools
import json
import random
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from strandalg import strands
from strandalg.corpus import (
    corpus_surfaces,
    disc,
    disc_with_arc,
    double_cover_decoration,
    one_disc_decoration,
    torus_decoration,
)
from strandalg.strands import (
    Algebra,
    BasisElement,
    NotInMatchedSpan,
    brute_force_dimension,
    check_algebra,
    consum_check,
    consum_failures,
    directedness_check,
    opposite_algebra_map,
    opposite_check,
    opposite_failures,
)
from strandalg.surface import make_surface
from test_census import TABLE_KINDS

TORUS = torus_decoration()
DISC1 = disc_with_arc()


# ---------------------------------------------------------------------------
# chords


def test_chords_disc_with_one_arc():
    chords = Algebra.from_surface(DISC1, 0).chords
    assert chords == {(0, 0): ((0, 1),)}


def test_chords_interleaved():
    chords = Algebra.from_surface(TORUS, 0).chords
    sizes = {pair: len(cs) for pair, cs in chords.items()}
    assert sizes == {(0, 0): 1, (1, 1): 1, (0, 1): 3, (1, 0): 1}
    assert sum(sizes.values()) == 6


def test_chords_respect_interval_locality():
    ds = make_surface([["z", "e1", "e2", "z", "e3", "e4"]], [["e1", "e2"], ["e3", "e4"]])
    chords = Algebra.from_surface(ds, 0).chords
    assert sum(len(cs) for cs in chords.values()) == 2


@functools.cache
def _interval_of(interval_arcs) -> tuple:
    """Position -> the number of its interval, read from Algebra.interval_arcs:
    the intervals hold consecutive position ranges, in order."""
    return tuple(ii for ii, iv in enumerate(interval_arcs) for _ in iv)


def _reference_chords(alg) -> dict:
    """(arc of p, arc of q) -> the chords (p, q), in (p, q) order: a scan of
    every position pair p < q, kept where both lie in one interval of
    alg.interval_arcs."""
    arc_at = [a for iv in alg.interval_arcs for a in iv]
    interval = _interval_of(alg.interval_arcs)
    chords: dict = {}
    for p, q in itertools.combinations(range(len(arc_at)), 2):
        if interval[p] == interval[q]:
            key = (arc_at[p], arc_at[q])
            chords[key] = chords.get(key, ()) + ((p, q),)
    return chords


def test_chord_table_matches_the_position_pair_scan():
    """The chord table, tuple order included, on every corpus surface and at
    genus 3."""
    surfaces = [ds for _, ds in corpus_surfaces()] + list(GENUS3.values())
    for ds in surfaces:
        alg = Algebra.from_surface(ds, 0)
        assert alg.chords == _reference_chords(alg)
    assert len(surfaces) == 72 + 2


# ---------------------------------------------------------------------------
# basis


def test_basis_dimensions_interleaved():
    assert len(Algebra.from_surface(TORUS, 0).basis) == 1
    assert len(Algebra.from_surface(TORUS, 1).basis) == 8
    assert len(Algebra.from_surface(TORUS, 2).basis) == 7


def test_basis_block_split_k1():
    alg = Algebra.from_surface(TORUS, 1)
    sizes = Counter((b.s, b.t) for b in alg.basis)
    assert sizes == {((0,), (0,)): 2, ((0,), (1,)): 3, ((1,), (0,)): 1, ((1,), (1,)): 2}


def test_basis_k2_split_by_bijection():
    alg = Algebra.from_surface(TORUS, 2)
    ident = [b for b in alg.basis if b.f == b.s]
    swapped = [b for b in alg.basis if b.f != b.s]
    assert (len(ident), len(swapped)) == (4, 3)


def test_k_out_of_range():
    with pytest.raises(ValueError) as e:
        Algebra.from_surface(TORUS, 3)
    assert e.value.code == "bad-k"


@pytest.mark.parametrize(
    "interval_arcs, arc, count", [(((0, 1, 0),), 1, 1), (((0, 2, 0, 2),), 1, 0)], ids=["one-end", "missing-arc"]
)
def test_each_arc_needs_two_positions(interval_arcs, arc, count):
    with pytest.raises(ValueError, match=f"arc {arc} has {count} endpoint positions") as e:
        Algebra(interval_arcs, 0)
    assert e.value.code == "bad-arc"


def test_idempotent_count_is_n_choose_k():
    for _, ds in corpus_surfaces()[:25]:
        for k in range(ds.n_arcs + 1):
            alg = Algebra.from_surface(ds, k)
            assert len(alg.idempotent_set) == comb(ds.n_arcs, k)
            by_arcs = [alg.idempotent_index(s) for s in itertools.combinations(range(ds.n_arcs), k)]
            assert sorted(alg.idempotent_set) == by_arcs


# ---------------------------------------------------------------------------
# expansion and contraction


def _inversions(alg, diagram):
    """The inversion count of a strand diagram: its strand pairs in one
    interval whose starts and ends are in opposite orders."""
    interval = _interval_of(alg.interval_arcs)
    return sum(
        interval[p1] == interval[p2] and (p1 - p2) * (q1 - q2) < 0
        for (p1, q1), (p2, q2) in itertools.combinations(diagram, 2)
    )


def test_expand_idempotent_two_sections():
    alg = Algebra.from_surface(TORUS, 1)
    i = alg.idempotent_index([0])
    assert alg._expansions[i] == frozenset({((0, 0),), ((2, 2),)})


def test_expand_chord_pair_single_diagram():
    alg = Algebra.from_surface(TORUS, 2)
    i = alg.basis_index({"chords": [[0, 2], [1, 3]]})
    (d,) = alg._expansions[i]
    assert d == ((0, 2), (1, 3))
    assert _inversions(alg, d) == 0


def test_expand_marker_with_chord_inversions():
    alg = Algebra.from_surface(TORUS, 2)
    i = alg.basis_index({"chords": [[1, 3]], "markers": [0]})
    exp = alg._expansions[i]
    assert exp == frozenset({((0, 0), (1, 3)), ((1, 3), (2, 2))})
    assert sorted(_inversions(alg, d) for d in exp) == [0, 1]


def test_expansion_size_is_two_to_the_marked():
    for k in (0, 1, 2):
        alg = Algebra.from_surface(TORUS, k)
        for i, b in enumerate(alg.basis):
            assert len(alg._expansions[i]) == 2 ** len(b.marked)


def test_contract_round_trips_every_basis_element():
    for k in (0, 1, 2):
        alg = Algebra.from_surface(TORUS, k)
        for i in range(alg.dim):
            assert alg.contract(alg._expansions[i]) == frozenset([i])


def test_contract_empty_sum_is_zero():
    alg = Algebra.from_surface(TORUS, 1)
    assert alg.contract(frozenset()) == frozenset()


def test_contract_half_expansion_fails():
    alg = Algebra.from_surface(TORUS, 2)
    with pytest.raises(NotInMatchedSpan):
        alg.contract(frozenset({((0, 0), (1, 3))}))  # partner with marker at 2 missing


# ---------------------------------------------------------------------------
# differential and product (frozen examples)


def test_diff_of_idempotents_vanishes():
    for k in (0, 1, 2):
        alg = Algebra.from_surface(TORUS, k)
        for e in sorted(alg.idempotent_set):
            assert not alg.diff_basis(e)


def test_diff_crossing_resolution():
    alg = Algebra.from_surface(TORUS, 2)
    crossed = alg.basis_index({"chords": [[0, 3], [1, 2]]})
    straight = alg.basis_index({"chords": [[0, 2], [1, 3]]})
    assert alg.diff_basis(crossed) == {straight}


def test_diff_marker_term():
    alg = Algebra.from_surface(TORUS, 2)
    e = alg.basis_index({"chords": [[1, 3]], "markers": [0]})
    expect = alg.basis_index({"chords": [[2, 3], [1, 2]]})
    assert alg.diff_basis(e) == {expect}


def test_idempotents_act_as_units():
    alg = Algebra.from_surface(TORUS, 1)
    for i in range(alg.dim):
        src = alg.idempotent_index(alg.basis[i].s)
        tgt = alg.idempotent_index(alg.basis[i].t)
        other = alg.idempotent_index([1 - alg.basis[i].s[0]])
        assert alg.mul_basis(src, i) == {i}
        assert alg.mul_basis(i, tgt) == {i}
        assert not alg.mul_basis(other, i) or other == src


def test_mul_concatenation():
    alg = Algebra.from_surface(TORUS, 1)
    c01 = alg.basis_index({"chords": [[0, 1]]})
    c12 = alg.basis_index({"chords": [[1, 2]]})
    assert alg.mul_basis(c01, c12) == {alg.basis_index({"chords": [[0, 2]]})}
    assert not alg.mul_basis(c01, c01)


def test_algebra_depends_only_on_intervals_and_matching():
    """Rebuilding from the interval data alone gives identical structure
    constants; face analysis never enters."""
    for _, ds in corpus_surfaces()[:15]:
        for k in range(ds.n_arcs + 1):
            a = Algebra.from_surface(ds, k)
            arc_of = {t: i for i, pair in enumerate(ds.arcs) for t in pair}
            b = Algebra(tuple(tuple(arc_of[t] for t in iv) for iv in ds.intervals()), k)
            assert b.n_arcs == ds.n_arcs and a.basis == b.basis
            assert all(a.diff_basis(i) == b.diff_basis(i) for i in range(a.dim))
            assert all(
                a.mul_basis(i, j) == b.mul_basis(i, j)
                for i in range(a.dim)
                for j in range(a.dim)
            )


# ---------------------------------------------------------------------------
# law checks


@pytest.mark.parametrize("k", [0, 1, 2])
def test_check_algebra_interleaved(k):
    rep = check_algebra(TORUS, k)
    assert rep.ok, rep.failures


def test_check_algebra_trivial_k0():
    rep = check_algebra(disc(), 0)
    assert rep.ok and rep.dim == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_check_algebra_one_disc_g2(k):
    rep = check_algebra(one_disc_decoration(2), k)
    assert rep.ok, rep.failures


def test_dimension_formula_against_brute_force():
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    for ds, k in pairs:
        assert Algebra.from_surface(ds, k).dim == brute_force_dimension(ds, k)
    assert len(pairs) == 275


def test_brute_force_catches_a_dropped_basis_element(monkeypatch):
    """An enumeration that loses its last element is one short of the
    oracle, which reads the surface and not the engine's basis."""
    enumerate_basis = Algebra._enumerate_basis
    monkeypatch.setattr(Algebra, "_enumerate_basis", lambda self: list(enumerate_basis(self))[:-1])
    assert [Algebra.from_surface(TORUS, k).dim for k in (0, 1, 2)] == [0, 7, 6]
    assert [brute_force_dimension(TORUS, k) for k in (0, 1, 2)] == [1, 8, 7]


def test_brute_force_builds_no_algebra(monkeypatch):
    """The oracle gives its dimensions where no Algebra can be built."""

    def refuse(self, *args):
        raise AssertionError("the oracle built an Algebra")

    monkeypatch.setattr(Algebra, "__init__", refuse)
    assert [brute_force_dimension(TORUS, k) for k in (0, 1, 2)] == [1, 8, 7]
    assert brute_force_dimension(GENUS3["doublecover_g3"], 3) == 5075


def test_brute_force_refuses_a_negative_k():
    with pytest.raises(ValueError, match="k=-1 is negative") as e:
        brute_force_dimension(TORUS, -1)
    assert e.value.code == "bad-k"
    assert brute_force_dimension(TORUS, 3) == 0


GENUS3 = {"onedisc_g3": one_disc_decoration(3), "doublecover_g3": double_cover_decoration(3)}
GENUS3_DIMS = {
    "onedisc_g3": {k: d for k, d in enumerate((1, 72, 1589, 12448, 30451, 14744, 343))},
    "doublecover_g3": {3: 5075, 4: 12411, 5: 9219, 6: 1093},
}


@pytest.mark.parametrize("name, k", [(name, k) for name, dims in GENUS3_DIMS.items() for k in dims])
def test_genus3_dimensions(name, k):
    assert Algebra.from_surface(GENUS3[name], k).dim == GENUS3_DIMS[name][k]


@pytest.mark.parametrize("name, k", [("onedisc_g3", k) for k in (0, 1, 2, 3, 6)] + [("doublecover_g3", 3)])
def test_genus3_dimensions_against_brute_force(name, k):
    assert brute_force_dimension(GENUS3[name], k) == GENUS3_DIMS[name][k]


def _reference_basis(alg):
    """The basis by a scan over every source set s, target set t, bijection f
    among the permutations of t, and chord choice, realizable or not, with
    the chords of the position pair scan."""
    arcs, out, chords = range(alg.n_arcs), [], _reference_chords(alg)
    for s in itertools.combinations(arcs, alg.k):
        for t in itertools.combinations(arcs, alg.k):
            for image in itertools.permutations(t):
                pools = [[*chords.get((i, j), ()), *([None] if i == j else [])] for i, j in zip(s, image)]
                out += [BasisElement(s, t, image, assign) for assign in itertools.product(*pools)]
    return tuple(out)


def test_basis_matches_the_reference_scan():
    """The enumeration of realizable elements gives the reference scan's
    elements in the reference scan's order, on every corpus (surface, k) and
    at genus 3 for k <= 3."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(4)]
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        assert alg.basis == _reference_basis(alg)
    assert len(pairs) == 275 + 8


def test_dimension_formula_matches_chord_table():
    # dim = sum over (s, t, f) of the product of chord-option counts
    for ds in (TORUS, double_cover_decoration(1)):
        for k in range(ds.n_arcs + 1):
            alg = Algebra.from_surface(ds, k)
            chords = _reference_chords(alg)
            total = 0
            for s in itertools.combinations(range(ds.n_arcs), k):
                for t in itertools.combinations(range(ds.n_arcs), k):
                    for image in itertools.permutations(t):
                        prod = 1
                        for i, j in zip(s, image):
                            prod *= len(chords.get((i, j), ())) + (i == j)
                        total += prod
            assert total == alg.dim


# ---------------------------------------------------------------------------
# opposite algebra, connected sum, directedness


@pytest.mark.parametrize("k", [0, 1])
def test_opposite_disc_with_arc(k):
    assert opposite_check(DISC1, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_opposite_interleaved(k):
    assert opposite_check(TORUS, k)


def test_opposite_map_is_an_anti_isomorphism():
    alg, ralg, op = opposite_algebra_map(TORUS, 2)
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = frozenset(op[x] for x in alg.mul_basis(i, j))
            assert lhs == ralg.mul_support(frozenset([op[j]]), frozenset([op[i]]))


def test_consum_with_trivial_disc():
    for k in (0, 1, 2):
        assert consum_check(TORUS, disc(), k)


def test_consum_discs_with_arcs():
    assert consum_check(DISC1, DISC1, 1)
    from strandalg.surface import boundary_connected_sum

    dd = boundary_connected_sum(DISC1, 0, DISC1, 0)
    assert Algebra.from_surface(dd, 1).dim == 4  # 1*2 + 2*1


def test_consum_tori_dimension_78():
    from strandalg.surface import boundary_connected_sum

    tt = boundary_connected_sum(TORUS, 0, TORUS, 0)
    assert Algebra.from_surface(tt, 2).dim == 7 + 8 * 8 + 7 == 78
    assert consum_check(TORUS, TORUS, 2)


def test_directedness_double_cover_true():
    ds = double_cover_decoration(1)
    assert all(directedness_check(ds, k) for k in range(0, 4))


def test_directedness_interleaved_false_at_k1():
    assert not directedness_check(TORUS, 1)
    assert directedness_check(TORUS, 0)


def test_directedness_false_on_a_cycle_of_trivial_self_homs():
    """At n2_split2x2_m2 k=1 every self-hom is spanned by its idempotent, so
    only the cycle of off-diagonal homs makes it not directed."""
    ds = dict(corpus_surfaces())["n2_split2x2_m2"]
    alg = Algebra.from_surface(ds, 1)
    assert all(b.s != b.t for i, b in enumerate(alg.basis) if i not in alg.idempotent_set)
    assert not directedness_check(ds, 1)


def test_directedness_on_the_corpus():
    verdicts = [directedness_check(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    assert (len(verdicts), sum(verdicts)) == (275, 86)


# ---------------------------------------------------------------------------
# properties


@st.composite
def small_algebras(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    eps = [f"e{i}" for i in range(1, 2 * n + 1)]
    perm = draw(st.permutations(eps))
    arcs = [[perm[2 * i], perm[2 * i + 1]] for i in range(n)]
    order = draw(st.permutations(eps))
    k = draw(st.integers(min_value=0, max_value=n))
    ds = make_surface([["z"] + list(order)], arcs)
    return Algebra.from_surface(ds, k)


@settings(max_examples=25, deadline=None)
@given(small_algebras())
def test_d_squared_and_leibniz_property(alg):
    for i in range(alg.dim):
        assert not alg.diff_support(alg.diff_basis(i))
        for j in range(alg.dim):
            if alg.basis[i].t != alg.basis[j].s:
                continue
            lhs = alg.diff_support(alg.mul_basis(i, j))
            rhs = alg.mul_support(alg.diff_basis(i), frozenset([j])) ^ alg.mul_support(
                frozenset([i]), alg.diff_basis(j)
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the block index against an all-pairs reference scan


def _all_pairs_scan(alg):
    """Every composable pair, found by comparing all dim^2 basis pairs."""
    return [(i, j) for i in range(alg.dim) for j in range(alg.dim) if alg.basis[i].t == alg.basis[j].s]


def _reference_laws(alg, checks):
    """The laws and failure witnesses of check_algebra, computed one pair or
    triple at a time, with the sum of all idempotents as the unit.  Closure
    reads the all-pairs scan; leibniz and assoc read every pair and triple at
    which a stored entry makes a term of either side nonzero, composable or
    not."""
    laws, failures = {}, []
    pairs = _all_pairs_scan(alg)
    name, total = alg.describe, alg.describe_sum
    if "closure" in checks:
        laws["closure"] = True
        try:
            for i in range(alg.dim):
                alg.diff_basis(i)
            for i, j in pairs:
                alg.mul_basis(i, j)
        except NotInMatchedSpan as e:
            laws["closure"] = False
            failures.append(f"closure: {e}")
    if "d2" in checks:
        bad = [(i, r) for i in range(alg.dim) if (r := alg.diff_support(alg.diff_basis(i)))]
        laws["d2"] = not bad
        failures += [f"d2 fails on {name(i)}: residue {total(r)}" for i, r in bad[:3]]
    if "leibniz" in checks or "assoc" in checks:
        rows = alg.products()
        stored = [(i, j, o) for i, row in enumerate(rows) for j, o in row.items()]
        left_of = {}  # j -> every i with a stored a_i * a_j
        for i, j, _ in stored:
            left_of.setdefault(j, []).append(i)
    if "leibniz" in checks:
        at = {(i, j) for i, j, _ in stored}  # d(a_i a_j)
        at |= {(i, j) for i in range(alg.dim) for x in alg.diff_basis(i) for j in rows[x]}  # (d a_i) a_j
        at |= {(i, j) for j in range(alg.dim) for y in alg.diff_basis(j) for i in left_of.get(y, ())}  # a_i (d a_j)
        bad = []
        for i, j in sorted(at):
            lhs = alg.diff_support(alg.mul_basis(i, j))
            rhs = alg.mul_support(alg.diff_basis(i), frozenset([j])) ^ alg.mul_support(
                frozenset([i]), alg.diff_basis(j)
            )
            if lhs != rhs:
                bad.append((i, j, lhs ^ rhs))
        laws["leibniz"] = not bad
        failures += [f"leibniz fails on ({name(i)}, {name(j)}): residue {total(r)}" for i, j, r in bad[:3]]
    if "assoc" in checks:
        at = {(i, j, l) for i, j, x in stored for l in rows[x]}  # (a_i a_j) a_l
        at |= {(i, j, l) for j, l, y in stored for i in left_of.get(y, ())}  # a_i (a_j a_l)
        bad = []
        for i, j, l in sorted(at):
            lhs = alg.mul_support(alg.mul_basis(i, j), frozenset([l]))
            rhs = alg.mul_support(frozenset([i]), alg.mul_basis(j, l))
            if lhs != rhs:
                bad.append((i, j, l, lhs ^ rhs))
        laws["assoc"] = not bad
        failures += [
            f"assoc fails on ({name(i)}, {name(j)}, {name(l)}): residue {total(r)}" for i, j, l, r in bad[:3]
        ]
    if "idempotents" in checks:
        laws["idempotents"] = True
        idems = [alg.idempotent_index(s) for s in itertools.combinations(range(alg.n_arcs), alg.k)]
        for e, f in itertools.product(idems, idems):
            residue = alg.mul_basis(e, f) ^ (frozenset([e]) if e == f else frozenset())
            if residue:
                laws["idempotents"] = False
                failures.append(f"idempotent orthogonality fails on ({name(e)}, {name(f)}): residue {total(residue)}")
        unit = frozenset(idems)
        for i in range(alg.dim):
            one = frozenset([i])
            residue = (alg.mul_support(unit, one) ^ one) or (alg.mul_support(one, unit) ^ one)
            if residue:
                laws["idempotents"] = False
                failures.append(f"unit law fails on {name(i)}: residue {total(residue)}")
                break
    return laws, failures


def _reference_dump(alg):
    """The dump as a dict, with its product triples taken from the all-pairs
    scan: what Algebra.dump writes is this dict's sorted-key JSON."""
    return {
        "k": alg.k,
        "n_arcs": alg.n_arcs,
        "basis": [
            {"source": list(b.s), "target": list(b.t), "bijection": list(b.f), **alg.descriptor(b)}
            for b in alg.basis
        ],
        "differential": [[i, sorted(alg.diff_basis(i))] for i in range(alg.dim) if alg.diff_basis(i)],
        "product": [[i, j, out] for i, j in _all_pairs_scan(alg) for out in sorted(alg.mul_basis(i, j))],
    }


def _dump_text(alg):
    out = io.StringIO()
    alg.dump(out)
    return out.getvalue()


ALL_LAWS = ("d2", "leibniz", "assoc", "closure", "idempotents")


def test_block_index_matches_all_pairs_scan():
    cases = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    cases += [(g3, k) for g3 in (double_cover_decoration(3), one_disc_decoration(3)) for k in (0, 1, 2)]
    for ds, k in cases:
        alg = Algebra.from_surface(ds, k)
        scan = _all_pairs_scan(alg)
        products = {(i, j): o for i, row in enumerate(alg.products()) for j, o in row.items()}
        assert products == {(i, j): o for i, j in scan for o in alg.mul_basis(i, j)}
        rep = check_algebra(ds, k, algebra=alg)
        assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)
        assert rep.ok
        assert _dump_text(alg) == json.dumps(_reference_dump(alg), sort_keys=True) + "\n"
        kept = set(products)
        assert not any(alg.mul_basis(i, j) for i, j in scan if (i, j) not in kept)


def test_the_genus3_k3_dump_keeps_its_digest():
    """The canonical dump of doublecover_g3 at k=3 (dim 5075), past the
    reach of the reference-dict check above, hashes as recorded."""
    text = _dump_text(Algebra.from_surface(GENUS3["doublecover_g3"], 3))
    assert hashlib.sha256(text.encode()).hexdigest() == "f06c091df58b0673a0a438fc922df179b507e97acb7ba98464f7715ce5e0ba57"


def test_crossing_masks_match_the_inversion_recount():
    """On every composed diagram pair of the corpus, the crossing masks over
    the middle positions are disjoint exactly where the inversion counts add,
    and the composition built in left-diagram order is already sorted."""
    pairs = 0
    for _, ds in corpus_surfaces():
        for k in range(ds.n_arcs + 1):
            alg = Algebra.from_surface(ds, k)
            diagrams = [d for exp in alg._expansions for d in exp]
            starting_at = {}
            for d in diagrams:
                starting_at.setdefault(frozenset(p for p, _ in d), []).append(d)
            for d1 in diagrams:
                for d2 in starting_at.get(frozenset(q for _, q in d1), ()):
                    step = dict(d2)
                    comp = tuple((p, step[q]) for p, q in d1)
                    assert comp == tuple(sorted(comp))
                    adds = _inversions(alg, comp) == _inversions(alg, d1) + _inversions(alg, d2)
                    assert (not alg._crossings(d1, 1) & alg._crossings(d2, 0)) == adds
                    pairs += 1
    assert pairs == 30_729


def test_precomputed_masks_match_the_crossing_rule():
    """The row kernel's indexes hold each expansion diagram once: under its
    start mask, its start-side crossing mask; in its left record, the owner
    dict of its start mask, its end-side crossing mask, and the right
    diagrams it composes with (those that start at its ends and cross no
    pair it crosses) with the owner key of each composition, in
    _starting_at order.  Checked on the corpus and on genus 3 at k <= 2."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(3)]
    diagrams = hits = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        alg._index_diagrams()
        for j, exp in enumerate(alg._expansions):
            assert len(alg._left[j]) == len(exp)
            for d, ((left, js, keys), owned) in zip(exp, alg._left[j]):
                assert left == alg._crossings(d, 1)
                assert owned is alg._owned[sum(1 << p for p, _ in d)]
                ends = [q for _, q in d]
                composable = [
                    (jj, tuple(step[q] for q in ends))
                    for jj, step, right in alg._starting_at.get(sum(1 << q for q in ends), ())
                    if not left & right
                ]
                assert [(jj, kk if isinstance(kk, tuple) else (kk,)) for jj, kk in zip(js, keys)] == composable
                hits += len(js)
        starting_at = []
        for starts, entries in alg._starting_at.items():
            for j, step, right in entries:
                d = tuple((p, step[p]) for p in range(alg.n_positions) if starts >> p & 1)
                assert right == alg._crossings(d, 0)
                starting_at.append((j, d))
        assert sorted(starting_at) == sorted((j, d) for j, exp in enumerate(alg._expansions) for d in exp)
        diagrams += len(starting_at)
    assert (diagrams, hits) == (8_577 + 3_104, 65_694)


def _resolutions(diagram):
    """The smoothings of a start-sorted diagram, one per crossing whose
    rectangle holds no other strand, in crossing order: the per-diagram rule
    that Algebra's swap table stores per tuple of ends.  Strands run upward
    within an interval, so (p1, q1) and (p2, q2) with p1 < p2 cross exactly
    where q1 > q2, and swapping their ends keeps the smoothing sorted."""
    for x, (p1, q1) in enumerate(diagram):
        for y in range(x + 1, len(diagram)):
            p2, q2 = diagram[y]
            if q1 > q2 and not any(q2 < q < q1 for _, q in diagram[x + 1 : y]):
                yield diagram[:x] + ((p1, q2),) + diagram[x + 1 : y] + ((p2, q1),) + diagram[y + 1 :]


def test_rectangle_rule_matches_the_inversion_recount():
    """On every expansion diagram of the corpus, a crossing's rectangle holds
    no other strand exactly where its smoothing drops the inversion count by
    one, and _resolutions yields the smoothings the recount keeps, in crossing
    order and already sorted."""
    diagrams = kept = 0
    for _, ds in corpus_surfaces():
        for k in range(ds.n_arcs + 1):
            alg = Algebra.from_surface(ds, k)
            for d in (d for exp in alg._expansions for d in exp):
                inv, recount = _inversions(alg, d), []
                for (x, (p1, q1)), (y, (p2, q2)) in itertools.combinations(enumerate(d), 2):
                    if not _inversions(alg, ((p1, q1), (p2, q2))):
                        continue
                    smoothing = list(d)
                    smoothing[x], smoothing[y] = (p1, q2), (p2, q1)
                    smoothing = tuple(sorted(smoothing))
                    empty = not any(p1 < p < p2 and q2 < q < q1 for p, q in d)
                    assert empty == (_inversions(alg, smoothing) == inv - 1)
                    if empty:
                        recount.append(smoothing)
                assert list(_resolutions(d)) == recount
                diagrams += 1
                kept += len(recount)
    assert (diagrams, kept) == (8_577, 2_132)


@pytest.mark.parametrize(
    "ds, k",
    [(TORUS, 1), (TORUS, 2), (dict(corpus_surfaces())["n3_split6_m14"], 2), (dict(corpus_surfaces())["onedisc_g2"], 3)],
    ids=["torus-k1", "torus-k2", "n3_split6_m14-k2", "onedisc_g2-k3"],
)
def test_on_demand_products_match_the_filled_table(ds, k):
    """mul_basis over every composable pair, asked before any products()
    call, fills the rows one at a time to the table that products() fills on
    a fresh algebra; products() afterwards reads the same rows."""
    alg = Algebra.from_surface(ds, k)
    on_demand = {(i, j): o for i, j in _all_pairs_scan(alg) for o in alg.mul_basis(i, j)}
    filled = {(i, j): o for i, row in enumerate(Algebra.from_surface(ds, k).products()) for j, o in row.items()}
    assert on_demand == filled
    assert {(i, j): o for i, row in enumerate(alg.products()) for j, o in row.items()} == filled


def test_a_second_products_call_returns_the_stored_rows(monkeypatch):
    alg = Algebra.from_surface(TORUS, 2)
    rows = alg.products()
    fill, calls = alg._fill_row, []
    monkeypatch.setattr(alg, "_fill_row", lambda i: calls.append(i) or fill(i))
    assert alg.products() is rows is alg._rows
    assert not calls


def test_mul_basis_fills_only_the_row_of_a_composable_pair():
    alg = Algebra.from_surface(TORUS, 1)
    e0, e1 = alg.idempotent_index([0]), alg.idempotent_index([1])
    assert not alg.mul_basis(e0, e1)
    assert alg._rows == [None] * alg.dim
    assert alg.mul_basis(e0, e0) == {e0}
    assert [i for i, row in enumerate(alg._rows) if row is not None] == [e0]


def _reference_compositions(alg):
    """(i, j) -> the composed diagrams whose sum is a_i * a_j: every diagram
    of a_i followed by every diagram of a_j that starts where it ends, kept
    where no strand pair crosses in both (the rule the inversion recount
    above pins)."""
    by_start = {}
    for j, exp in enumerate(alg._expansions):
        for d in exp:
            by_start.setdefault(frozenset(p for p, _ in d), []).append((j, dict(d), alg._crossings(d, 0)))
    compositions = {}
    for i, exp in enumerate(alg._expansions):
        for d in exp:
            left = alg._crossings(d, 1)
            for j, step, right in by_start.get(frozenset(q for _, q in d), ()):
                if not left & right:
                    compositions.setdefault((i, j), []).append(tuple((p, step[q]) for p, q in d))
    return compositions


def test_the_table_stores_no_zero_entry():
    """The row kernel reads an entry from owner counts, which is exact only
    because no entry composes a diagram twice.  Against a reference
    composition, on the corpus and on genus 3 at k <= 2: each entry's
    compositions are distinct and contract to the one stored element, so no
    entry is zero."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(3)]
    entries = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        rows = alg.products()
        compositions = _reference_compositions(alg)
        assert {(i, j) for i, row in enumerate(rows) for j in row} == compositions.keys()
        for (i, j), diagrams in compositions.items():
            assert len(set(diagrams)) == len(diagrams)
            assert alg.contract(diagrams) == {rows[i][j]}
        entries += len(compositions)
    assert (len(pairs), entries) == (275 + 6, 55_528)


def test_every_entry_is_one_shared_basis_element(monkeypatch):
    """On the corpus and on genus 3 at k <= 2, every product entry is one
    element's whole expansion: the fill never falls back to contract, and
    every stored entry is a basis index."""
    calls = []
    contract = Algebra.contract
    monkeypatch.setattr(Algebra, "contract", lambda alg, diagrams: calls.append(1) or contract(alg, diagrams))
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(3)]
    entries = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        rows = alg.products()
        assert all(type(o) is int for row in rows for o in row.values())
        entries += sum(map(len, rows))
    assert not calls
    assert (len(pairs), entries) == (275 + 6, 55_528)


def _two_element_product():
    """A(TORUS, 1) whose row kernel was indexed with {"chords": [[0, 3]]}'s
    diagram added to the expansion of {"chords": [[0, 1]]}, restored after:
    the idempotent I(0) times that element composes to both elements' whole
    expansions.  Returned with the product's two factors."""
    alg = Algebra.from_surface(TORUS, 1)
    e, j, y = alg.idempotent_index([0]), alg.basis_index({"chords": [[0, 1]]}), alg.basis_index({"chords": [[0, 3]]})
    alg._expansions[j] |= alg._expansions[y]
    alg._index_diagrams()
    alg._expansions[j] -= alg._expansions[y]
    return alg, e, j


def test_a_product_of_two_elements_is_refused_naming_both_factors():
    """The table stores one basis index per entry, so a fill whose entry
    contracts to a sum of two elements raises NotInMatchedSpan naming both
    factors and the sum, and the closure law reports it."""
    witness = (
        'product of {"chords": [], "markers": [0]} and {"chords": [[0, 1]], "markers": []} is '
        '[{"chords": [[0, 1]], "markers": []}, {"chords": [[0, 3]], "markers": []}], not one basis element'
    )
    alg, e, j = _two_element_product()
    with pytest.raises(NotInMatchedSpan) as err:
        alg.mul_basis(e, j)
    assert str(err.value) == witness
    assert alg._rows[e] is None
    alg, _, _ = _two_element_product()
    assert check_algebra(TORUS, 1, checks=("closure",), algebra=alg).failures == [f"closure: {witness}"]


def test_a_failed_count_fills_the_row_through_contract(monkeypatch):
    """An owner whose expansion size reads one too many fails the fast path
    at every entry it owns; contract still fills those entries exactly."""
    fresh = Algebra.from_surface(TORUS, 2).products()
    alg = Algebra.from_surface(TORUS, 2)
    i, o = next((i, o) for i, row in enumerate(fresh) for o in row.values() if len(alg._expansions[o]) > 1)
    alg._index_diagrams()
    alg._sizes[o] += 1
    calls = []
    contract = alg.contract
    monkeypatch.setattr(alg, "contract", lambda diagrams: calls.append(1) or contract(diagrams))
    assert alg._fill_row(i) == fresh[i]
    assert len(calls) == sum(p == o for p in fresh[i].values()) >= 1


def test_the_fast_path_reads_every_owner_of_an_entry():
    """One diagram of a two-diagram element o given to another two-diagram
    element in the owner index makes entries of two owners, whose count
    matches the first owner's size whichever comes first.  Each must still
    be contracted, from the uncorrupted _owner, to the fresh table's entry."""
    fresh = Algebra.from_surface(TORUS, 2).products()
    alg = Algebra.from_surface(TORUS, 2)
    alg._index_diagrams()
    o, other = [z for z in range(alg.dim) if alg._sizes[z] == 2][:2]
    d = max(alg._expansions[o])
    alg._owned[sum(1 << p for p, _ in d)][tuple(q for _, q in d)] = other
    assert alg.products() == fresh


def _counted_row(alg, i):
    """Row i filled through the accumulate-and-count path for every row, the
    one the kernel keeps for elements of two or more diagrams: the owners of
    each j's compositions, gathered over all of a_i's diagrams, give o where
    they are o's whole expansion, and the contracted fill gives every other
    entry, in ascending j."""
    acc = {}
    for (_, js, keys), owned in alg._left[i]:
        for j, o in zip(js, map(owned.get, keys)):
            acc.setdefault(j, []).append(o)
    row = {}
    for j in sorted(acc):
        found, o = acc[j], acc[j][0]
        if o is not None and found.count(o) == len(found) == alg._sizes[o]:
            row[j] = o
        else:
            row[j] = alg._contracted(i, j)
    return row


def test_one_diagram_rows_match_the_counted_fill():
    """Every row, the rows of one-diagram elements filled without an owner
    count included, equals the accumulate-and-count fill with the same key
    order, on the corpus and on genus 3 at k <= 2."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(3)]
    rows = one_diagram = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        for i, row in enumerate(alg.products()):
            assert list(row.items()) == list(_counted_row(alg, i).items())
            rows += 1
            one_diagram += len(alg._left[i]) == 1
    assert (len(pairs), rows, one_diagram) == (275 + 6, 7_357, 4_699)


def test_a_failed_count_in_a_one_diagram_row_fills_through_contract(monkeypatch):
    """A size-1 owner whose expansion size reads one too many fails the
    one-diagram path at every entry it owns in a one-diagram row; contract
    still fills those entries, and the row equals a fresh algebra's."""
    ds, k = GENUS3["onedisc_g3"], 2
    fresh = Algebra.from_surface(ds, k).products()
    alg = Algebra.from_surface(ds, k)
    alg._index_diagrams()
    i, o = next(
        (i, o)
        for i, row in enumerate(fresh)
        if len(alg._left[i]) == 1
        for o in row.values()
        if alg._sizes[o] == 1
    )
    alg._sizes[o] += 1
    calls = []
    contract = alg.contract
    monkeypatch.setattr(alg, "contract", lambda diagrams: calls.append(1) or contract(diagrams))
    row = alg._fill_row(i)
    assert list(row.items()) == list(fresh[i].items())
    assert len(calls) == sum(p == o for p in fresh[i].values()) >= 1


def test_the_smoothings_of_an_element_are_distinct():
    """diff_basis hands contract the smoothings of an element's diagrams as a
    plain list, which is its GF(2) sum only because no smoothing occurs
    twice; checked on the corpus and on genus 3 at k <= 2."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(ds, k) for ds in GENUS3.values() for k in range(3)]
    elements = smoothings = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        for i in range(alg.dim):
            found = [res for d in alg._expansions[i] for res in _resolutions(d)]
            assert len(set(found)) == len(found)
            elements += 1
            smoothings += len(found)
    assert (len(pairs), elements, smoothings) == (275 + 6, 7_357, 2_785)


def test_diff_basis_is_the_contracted_reference_smoothings():
    """diff_basis, which smooths by the swaps of each diagram's ends, equals
    contract of the per-diagram reference smoothings on the corpus, on
    doublecover_g3 at k <= 3 and on onedisc_g3 at k <= 2; no swap table
    holds a swap that does not cross."""
    pairs = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    pairs += [(GENUS3["doublecover_g3"], k) for k in range(4)] + [(GENUS3["onedisc_g3"], k) for k in range(3)]
    elements = nonzero = 0
    for ds, k in pairs:
        alg = Algebra.from_surface(ds, k)
        for i in range(alg.dim):
            d = alg.diff_basis(i)
            assert d == alg.contract([res for dd in alg._expansions[i] for res in _resolutions(dd)])
            elements += 1
            nonzero += bool(d)
        assert all(ends[x] > ends[y] for ends, swaps in alg._swap_table.items() for x, y in swaps)
    assert (len(pairs), elements, nonzero) == (275 + 7, 12_432, 4_023)


@pytest.mark.parametrize(
    "dropped, owner",
    [
        (((0, 0), (1, 1)), {"chords": [[0, 2]], "markers": [1]}),
        (((0, 0), (3, 3)), {"chords": [[1, 3]], "markers": [0]}),
        (((1, 1), (2, 2)), {"chords": [[0, 2]], "markers": [1]}),
        (((2, 2), (3, 3)), {"chords": [[0, 2]], "markers": [1]}),
    ],
)
def test_a_partial_expansion_keeps_its_witness_in_every_row_law(dropped, owner):
    """A diagram dropped from the idempotent's expansion before the first
    fill leaves entries that are only part of an expansion: the owner count
    of those entries fails, and contract gives each row law its witness."""
    alg = Algebra.from_surface(TORUS, 2)
    (e,) = sorted(alg.idempotent_set)
    alg._expansions[e] -= {dropped}
    rep = check_algebra(TORUS, 2, algebra=alg)
    assert rep.laws == {"closure": False, "d2": True, "leibniz": False, "assoc": False, "idempotents": False}
    assert rep.failures == [
        f"{law}: expansion of {json.dumps(owner)} only partially present"
        for law in ("closure", "leibniz", "assoc", "idempotents")
    ]


def test_an_empty_expansion_fails_each_row_law_instead_of_hanging():
    """An owner whose expansion lacks a diagram it owns is a partial
    expansion: contract raises, and does not pick that diagram forever."""
    alg = Algebra.from_surface(TORUS, 1)
    owner = {"chords": [[0, 2]], "markers": []}
    alg._expansions[alg.basis_index(owner)] = frozenset()
    rep = check_algebra(TORUS, 1, algebra=alg)
    assert rep.laws == {"closure": False, "d2": True, "leibniz": False, "assoc": False, "idempotents": False}
    assert rep.failures == [
        f"{law}: expansion of {json.dumps(owner)} only partially present"
        for law in ("closure", "leibniz", "assoc", "idempotents")
    ]


def test_a_corrupted_idempotent_fails_the_idempotent_count():
    alg = Algebra.from_surface(TORUS, 1)
    i = alg.idempotent_index((0,))
    j = next(j for j in alg.by_source[(0,)] if j != i and alg.basis[j].t == (0,))
    alg.basis = alg.basis[:i] + (alg.basis[j],) + alg.basis[i + 1:]  # I(0) now carries a chord
    rep = check_algebra(TORUS, 1, checks=("idempotents",), algebra=alg)
    assert rep.failures == ["idempotent count differs from C(n, k)"]
    assert i not in alg.idempotent_set


def test_check_algebra_rejects_a_foreign_algebra():
    with pytest.raises(ValueError):
        check_algebra(TORUS, 1, algebra=Algebra.from_surface(TORUS, 2))
    with pytest.raises(ValueError):
        check_algebra(DISC1, 1, algebra=Algebra.from_surface(TORUS, 1))


@pytest.mark.parametrize("check", [opposite_failures, directedness_check], ids=["opposite", "directed"])
def test_a_given_algebra_is_reused_and_a_foreign_one_rejected(check, monkeypatch):
    """Given A(TORUS, 1), a check builds no second one and gives the verdict
    it gives on its own; an algebra of another surface or k raises."""
    alg = Algebra.from_surface(TORUS, 1)
    build, built = Algebra.from_surface.__func__, []
    monkeypatch.setattr(Algebra, "from_surface", classmethod(lambda cls, ds, k: built.append((ds, k)) or build(cls, ds, k)))
    assert check(TORUS, 1, algebra=alg) == check(TORUS, 1)
    assert built.count((TORUS, 1)) == 1  # the call without an algebra
    with pytest.raises(ValueError):
        check(TORUS, 1, algebra=Algebra.from_surface(TORUS, 2))
    with pytest.raises(ValueError):
        check(DISC1, 1, algebra=alg)


def test_check_algebra_rejects_an_unknown_law():
    with pytest.raises(ValueError, match=re.escape("unknown law(s) ['assco']")):
        check_algebra(TORUS, 1, checks=("assco",))


def test_d2_alone_fills_no_product():
    alg = Algebra.from_surface(TORUS, 2)
    assert check_algebra(TORUS, 2, checks=("d2",), algebra=alg).ok
    assert alg._rows == [None] * alg.dim


def test_a_sum_outside_the_matched_span_fails_each_law_that_meets_it(monkeypatch):
    alg = Algebra.from_surface(TORUS, 1)
    (d,) = alg._expansions[alg.basis_index({"chords": [[0, 3]]})]
    del alg._owner[d]
    reads = []
    products = alg.products
    monkeypatch.setattr(alg, "products", lambda: reads.append(1) or products())
    rep = check_algebra(TORUS, 1, algebra=alg)
    assert rep.laws == {"closure": False, "d2": True, "leibniz": False, "assoc": False, "idempotents": False}
    assert rep.failures == [
        f"{law}: diagram ((0, 3),) matches no basis element" for law in ("closure", "leibniz", "assoc", "idempotents")
    ]
    assert len(reads) == 1


# ---------------------------------------------------------------------------
# the checkers catch a corrupted structure constant


def _torus_element(alg, **desc):
    return alg.basis_index(desc)


def _filled_torus(k):
    alg = Algebra.from_surface(TORUS, k)
    assert check_algebra(TORUS, k, algebra=alg).ok
    return alg


def _build_torus_as(alg, monkeypatch):
    """Make Algebra.from_surface(TORUS, alg.k) return the given algebra."""
    build = Algebra.from_surface.__func__

    def from_surface(cls, ds, k):
        return alg if (ds, k) == (TORUS, alg.k) else build(cls, ds, k)

    monkeypatch.setattr(Algebra, "from_surface", classmethod(from_surface))


def _opposite_of(alg, monkeypatch):
    """opposite_failures(TORUS, k) run against the given torus algebra."""
    _build_torus_as(alg, monkeypatch)
    return opposite_failures(TORUS, alg.k)


@pytest.mark.parametrize(
    "k, left, right, witness, opposite",
    [
        (
            1,
            {"chords": [[0, 2]]},
            {"chords": [[2, 3]]},
            'assoc fails on ({"chords": [[0, 1]], "markers": []}, {"chords": [[1, 2]], "markers": []}, '
            '{"chords": [[2, 3]], "markers": []}): residue [{"chords": [[0, 3]], "markers": []}]',
            'product not transposed at ({"chords": [[0, 2]], "markers": []}, {"chords": [[2, 3]], "markers": []}): '
            'residue [{"chords": [[0, 3]], "markers": []}]',
        ),
        (
            2,
            {"chords": [[0, 2]], "markers": [1]},
            {"chords": [[1, 2], [2, 3]]},
            'leibniz fails on ({"chords": [[0, 2]], "markers": [1]}, {"chords": [[1, 2], [2, 3]], "markers": []}): '
            'residue [{"chords": [[0, 2], [1, 3]], "markers": []}]',
            'product not transposed at ({"chords": [[0, 2]], "markers": [1]}, '
            '{"chords": [[1, 2], [2, 3]], "markers": []}): residue [{"chords": [[0, 3], [1, 2]], "markers": []}]',
        ),
        (
            1,
            {"markers": [0]},
            {"markers": [0]},
            'idempotent orthogonality fails on ({"chords": [], "markers": [0]}, {"chords": [], "markers": [0]}): '
            'residue [{"chords": [], "markers": [0]}]',
            'product not transposed at ({"chords": [], "markers": [0]}, {"chords": [], "markers": [0]}): '
            'residue [{"chords": [], "markers": [0]}]',
        ),
    ],
    ids=["k1", "k2", "idempotent"],
)
def test_corrupted_product_is_caught(k, left, right, witness, opposite, monkeypatch):
    alg = _filled_torus(k)
    i, j = _torus_element(alg, **left), _torus_element(alg, **right)
    assert j in alg._rows[i]
    del alg._rows[i][j]

    rep = check_algebra(TORUS, k, algebra=alg)
    assert not (rep.laws["assoc"] and rep.laws["leibniz"])
    assert witness in rep.failures
    assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)

    assert _opposite_of(alg, monkeypatch) == [opposite]


@pytest.mark.parametrize(
    "k, target, flip, witness, opposite",
    [
        (
            1,
            {"chords": [[0, 3]]},
            {"chords": [[0, 1]]},
            'leibniz fails on ({"chords": [[0, 2]], "markers": []}, {"chords": [[2, 3]], "markers": []}): '
            'residue [{"chords": [[0, 1]], "markers": []}]',
            'differential not intertwined at {"chords": [[0, 3]], "markers": []}: '
            'residue [{"chords": [[2, 3]], "markers": []}]',
        ),
        (
            2,
            {"chords": [[0, 3], [1, 2]]},
            {"chords": [[0, 2], [1, 3]]},
            'leibniz fails on ({"chords": [[0, 2]], "markers": [1]}, {"chords": [[1, 2], [2, 3]], "markers": []}): '
            'residue [{"chords": [[0, 2], [1, 3]], "markers": []}]',
            'differential not intertwined at {"chords": [[0, 3], [1, 2]], "markers": []}: '
            'residue [{"chords": [[0, 2], [1, 3]], "markers": []}]',
        ),
        (
            # the witness pair's positions do not meet and its product is zero
            1,
            {"chords": [[0, 2]]},
            {"chords": [[2, 3]]},
            'leibniz fails on ({"chords": [[0, 2]], "markers": []}, {"chords": [[0, 2]], "markers": []}): '
            'residue [{"chords": [[0, 3]], "markers": []}]',
            'differential not intertwined at {"chords": [[0, 2]], "markers": []}: '
            'residue [{"chords": [[0, 1]], "markers": []}]',
        ),
    ],
    ids=["k1", "k2", "k1-mismatched-pair"],
)
def test_corrupted_differential_is_caught(k, target, flip, witness, opposite, monkeypatch):
    alg = _filled_torus(k)
    alg._diff[_torus_element(alg, **target)] ^= {_torus_element(alg, **flip)}

    rep = check_algebra(TORUS, k, algebra=alg)
    assert not (rep.laws["d2"] and rep.laws["leibniz"])
    assert witness in rep.failures
    assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)

    assert _opposite_of(alg, monkeypatch) == [opposite]


@pytest.mark.parametrize(
    "k, left, right, product, witness",
    [
        (
            1,
            {"chords": [[0, 2]]},
            {"chords": [[0, 2]]},
            {"chords": [[0, 2]]},
            'assoc fails on ({"chords": [[0, 2]], "markers": []}, {"chords": [[0, 2]], "markers": []}, '
            '{"chords": [[2, 3]], "markers": []}): residue [{"chords": [[0, 3]], "markers": []}]',
        ),
        (
            2,
            {"chords": [[0, 2], [1, 3]]},
            {"chords": [[0, 2], [1, 3]]},
            {"chords": [[0, 2], [1, 3]]},
            'assoc fails on ({"chords": [[0, 2], [1, 3]], "markers": []}, {"chords": [[1, 3]], "markers": [0]}, '
            '{"chords": [[0, 2]], "markers": [1]}): residue [{"chords": [[0, 2], [1, 3]], "markers": []}]',
        ),
    ],
    ids=["k1", "k2"],
)
def test_created_product_is_caught(k, left, right, product, witness):
    """A zero composable product made nonzero: the sparse assoc scan must
    visit the triples the new entry opens up, so it reads its rows from the
    table under check."""
    alg = _filled_torus(k)
    i, j = _torus_element(alg, **left), _torus_element(alg, **right)
    assert alg.basis[i].t == alg.basis[j].s and j not in alg._rows[i]
    alg._rows[i][j] = _torus_element(alg, **product)

    rep = check_algebra(TORUS, k, algebra=alg)
    assert not rep.laws["assoc"]
    assert witness in rep.failures
    assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)


@pytest.mark.parametrize("k", [1, 2])
def test_every_single_flip_matches_reference(k):
    """Each d(a_i) flipped by each basis element in turn, and each composable
    a_i * a_j set to each basis element e in turn (deleted where e is the
    entry), every single-entry corruption the table can store:
    check_algebra agrees with the all-pairs reference."""
    alg = _filled_torus(k)
    for i in range(alg.dim):
        kept = alg._diff[i]
        for e in range(alg.dim):
            alg._diff[i] = kept ^ {e}
            rep = check_algebra(TORUS, k, algebra=alg)
            assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)
        alg._diff[i] = kept
    for i, j in _all_pairs_scan(alg):
        row = alg._rows[i]
        kept = row.get(j)
        for e in range(alg.dim):
            if e == kept:
                del row[j]
            else:
                row[j] = e
            rep = check_algebra(TORUS, k, algebra=alg)
            assert (rep.laws, rep.failures) == _reference_laws(alg, ALL_LAWS)
        if kept is None:
            del row[j]
        else:
            row[j] = kept


# the census kinds that the GF(2) passes are compared on
FLIP_KINDS = (
    "product entry at a non-composable key",
    "product entry replaced, wrong idempotents",
    "differential term added, right idempotents",
    "differential term deleted",
)


def test_gf2_law_passes_match_reference_on_seeded_flips():
    """On every corpus (surface, k), one seeded corruption of TABLE_KINDS,
    the first of FLIP_KINDS, from a seeded one on and round again, that has
    a place on the table: the GF(2) passes of leibniz and assoc report what
    the one-pair-at-a-time reference does."""
    rng, verdicts = random.Random(18), Counter()
    cases = [(ds, k) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    for ds, k in cases:
        alg = Algebra.from_surface(ds, k)
        alg.products()
        for i in range(alg.dim):
            alg.diff_basis(i)
        turn = rng.randrange(len(FLIP_KINDS))
        kind = next(kind for kind in FLIP_KINDS[turn:] + FLIP_KINDS[:turn] if TABLE_KINDS[kind](alg, rng))
        laws = ("leibniz",) if kind.startswith("differential") else ("leibniz", "assoc")  # assoc reads no differential
        rep = check_algebra(ds, k, checks=laws, algebra=alg)
        assert (rep.laws, rep.failures) == _reference_laws(alg, laws)
        verdicts[kind, rep.ok] += 1
    assert len(cases) == 275
    # every entry at a key that does not compose and every wrong-idempotent
    # replacement is caught
    assert verdicts == {
        ("product entry at a non-composable key", False): 41,
        ("product entry replaced, wrong idempotents", False): 38,
        ("differential term added, right idempotents", False): 157,
        ("differential term added, right idempotents", True): 16,
        ("differential term deleted", False): 20,
        ("differential term deleted", True): 3,
    }


def _lose_product_term(alg):
    i, j = _torus_element(alg, chords=[[0, 2]]), _torus_element(alg, chords=[[2, 3]])
    del alg._rows[i][j]


def _gain_differential_term(alg):
    alg._diff[_torus_element(alg, chords=[[0, 3]])] ^= {_torus_element(alg, chords=[[0, 1]])}


@pytest.mark.parametrize(
    "corrupt, witness",
    [
        (
            _lose_product_term,
            'product not intertwined at ({"chords": [[2, 4]], "markers": []}, {"chords": [[4, 5]], "markers": []}): '
            'residue [{"chords": [[2, 5]], "markers": []}]',
        ),
        (
            _gain_differential_term,
            'differential not intertwined at {"chords": [[2, 5]], "markers": []}: '
            'residue [{"chords": [[2, 3]], "markers": []}]',
        ),
    ],
    ids=["product", "differential"],
)
def test_corrupted_summand_fails_consum_check(corrupt, witness, monkeypatch):
    alg = _filled_torus(1)
    corrupt(alg)
    _build_torus_as(alg, monkeypatch)
    assert consum_failures(TORUS, DISC1, 1) == [witness]


def test_created_summand_product_fails_consum_check(monkeypatch):
    """A product made nonzero at a summand pair whose positions do not meet:
    the sum algebra's own pairs never compose there, so the check must also
    visit the pairs where the summands' tables are nonzero."""
    alg = _filled_torus(1)
    i = _torus_element(alg, chords=[[0, 2]])
    assert i not in alg._rows[i]
    alg._rows[i][i] = i
    _build_torus_as(alg, monkeypatch)
    assert consum_failures(TORUS, DISC1, 1) == [
        'product not intertwined at ({"chords": [[2, 4]], "markers": []}, {"chords": [[2, 4]], "markers": []}): '
        'residue [{"chords": [[2, 4]], "markers": []}]'
    ]


def test_opposite_map_with_a_repeated_index_is_one_bijection_witness(monkeypatch):
    """A reversal map that sends two basis elements to one is reported by the
    bijection witness alone, before any law is compared."""
    alg, ralg, op = opposite_algebra_map(TORUS, 1)
    op[1] = op[0]
    monkeypatch.setattr(strands, "opposite_algebra_map", lambda ds, k, algebra=None: (alg, ralg, op))
    assert opposite_failures(TORUS, 1) == ["basis map is not a bijection: 8 elements, 7 distinct images, 8 targets"]
    assert not opposite_check(TORUS, 1)


def test_colliding_summand_index_is_one_bijection_witness(monkeypatch):
    """A summand algebra whose index gives two basis elements one number
    makes the connected-sum split non-injective: one bijection witness."""
    alg = Algebra.from_surface(TORUS, 1)
    a, b = alg.basis[:2]
    alg.index[b] = alg.index[a]
    _build_torus_as(alg, monkeypatch)
    assert consum_failures(TORUS, DISC1, 1) == ["basis map is not a bijection: 10 elements, 9 distinct images, 10 targets"]
    assert not consum_check(TORUS, DISC1, 1)


def _sorted_union_failures(alg, image, target_dim, d_image, want_rows, residue, product_word):
    """The isomorphism comparison as one scan over the sorted union of both
    sides' nonzero product pairs, one pair at a time: the reference for the
    row-against-row comparison."""
    n = len(set(image))
    if n != alg.dim or n != target_dim:
        return [f"basis map is not a bijection: {alg.dim} elements, {n} distinct images, {target_dim} targets"]
    failures = []
    for i in range(alg.dim):
        if r := {image[x] for x in alg.diff_basis(i)} ^ d_image(i):
            failures.append(f"differential not intertwined at {alg.describe(i)}: residue {residue(r)}")
            break
    rows, want_rows = alg.products(), list(want_rows)
    pairs = {(i, j) for i, row in enumerate(rows) for j in row}
    for i, j in sorted(pairs.union((i, j) for i, row in enumerate(want_rows) for j in row)):
        o, want = rows[i].get(j), want_rows[i].get(j)
        if r := ({image[o]} if o is not None else set()) ^ ({want} if want is not None else set()):
            failures.append(f"product not {product_word} at ({alg.describe(i)}, {alg.describe(j)}): residue {residue(r)}")
            break
    return failures


def _corrupt_row(alg, count, rng) -> None:
    """Corrupt count seeded product entries in one seeded row of a filled
    table, each by a seeded kind: replace a nonzero entry by a seeded
    element (delete it where that is the entry), make a zero composable entry
    nonzero (its key goes last in the row), replace or delete an entry and
    move it last, or delete a nonzero entry where the row has no zero
    composable entry left."""
    rows = alg.products()
    i = rng.choice([i for i, row in enumerate(rows) if row])
    row = rows[i]
    zero = [j for j in alg.by_source[alg.basis[i].t] if j not in row]
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 1 and zero:
            row[zero.pop(rng.randrange(len(zero)))] = rng.randrange(alg.dim)
        elif row:
            j = rng.choice(sorted(row))
            if kind in (0, 2):
                o, e = row.pop(j) if kind == 2 else row[j], rng.randrange(alg.dim)
                if e == o:
                    row.pop(j, None)
                else:
                    row[j] = e
            else:
                del row[j]


def test_isomorphism_witnesses_match_the_sorted_union_scan(monkeypatch):
    """One to three seeded corrupted product entries in one row, on either
    side of the opposite check (A(surface, k) or the reversed algebra) and
    of the connected-sum check (the sum algebra or a summand algebra), give
    the first witness that the sorted-union scan gives.  The n-th build of
    (surface, k) within one check call gets the n-th algebra made for it, so
    a surface that is its own reverse still has two distinct algebras."""
    built, made, calls = {}, [], Counter()
    build = Algebra.from_surface.__func__

    def from_surface(cls, ds, k):
        n = calls[ds, k]
        calls[ds, k] += 1
        algebras = built.setdefault((ds, k), [])
        if n == len(algebras):
            algebras.append(build(cls, ds, k))
            made.append(algebras[n])
        return algebras[n]

    def run(check, args):
        calls.clear()
        return check(*args)

    monkeypatch.setattr(Algebra, "from_surface", classmethod(from_surface))
    rng, verdicts = random.Random(28), Counter()
    cases = [(opposite_failures, (ds, k)) for _, ds in corpus_surfaces() for k in range(ds.n_arcs + 1)]
    dc1 = double_cover_decoration(1)
    sums = [(DISC1, DISC1, 1), (DISC1, DISC1, 2), (TORUS, disc(), 1), (TORUS, DISC1, 2), (TORUS, TORUS, 2), (dc1, DISC1, 2)]
    cases += [(consum_failures, args) for args in sums for _ in range(6)]
    for n, (check, args) in enumerate(cases):
        built.clear()
        made.clear()
        assert run(check, args) == []  # builds and fills every algebra the check reads
        count, side = 1 + n % 3, n // 3 % len(made)  # side 0: the algebra checked; else the reversed or a summand one
        _corrupt_row(made[side], count, rng)
        witness = run(check, args)
        with monkeypatch.context() as m:
            m.setattr(strands, "_isomorphism_failures", _sorted_union_failures)
            assert run(check, args) == witness
        verdicts[check.__name__, count, side > 0, bool(witness)] += 1
    # (check, entries corrupted, corrupted side is not the algebra checked, witness found)
    assert verdicts == {
        ("opposite_failures", 1, False, True): 46,
        ("opposite_failures", 1, True, True): 46,
        ("opposite_failures", 2, False, False): 1,
        ("opposite_failures", 2, False, True): 45,
        ("opposite_failures", 2, True, False): 1,
        ("opposite_failures", 2, True, True): 45,
        ("opposite_failures", 3, False, True): 46,
        ("opposite_failures", 3, True, True): 45,
        ("consum_failures", 1, False, True): 1,
        ("consum_failures", 1, True, True): 11,
        ("consum_failures", 2, False, True): 1,
        ("consum_failures", 2, True, False): 1,
        ("consum_failures", 2, True, True): 10,
        ("consum_failures", 3, False, True): 2,
        ("consum_failures", 3, True, True): 10,
    }
