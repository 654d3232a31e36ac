import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from strandalg.corpus import (
    corpus_surfaces,
    disc,
    disc_with_arc,
    double_cover_decoration,
    one_disc_decoration,
    torus_decoration,
)
from strandalg.strands import Algebra
from strandalg.surface import (
    SurfaceError,
    analyze_surface,
    arc_slide,
    boundary_connected_sum,
    make_surface,
    parse_surface,
    reverse_orientation,
    serialize_surface,
)

TORUS = torus_decoration()
DISC1 = disc_with_arc()


def test_parse_smallest_legal_input():
    ds = parse_surface('{"circles": [["z","e1","e2"]], "arcs": [["e1","e2"]]}')
    assert ds.n_arcs == 1
    assert ds.intervals() == (("e1", "e2"),)


def test_parse_interleaved_two_arc_surface():
    ds = parse_surface(
        '{"circles": [["z", "e1", "e2", "e3", "e4"]], "arcs": [["e1", "e3"], ["e2", "e4"]]}'
    )
    rep = analyze_surface(ds)
    assert len(rep.faces) == 1
    assert rep.euler == -1
    assert rep.genus == 1


def test_parse_circle_without_z_is_rejected_with_distinct_code():
    with pytest.raises(SurfaceError) as e:
        parse_surface('{"circles": [["e1", "e2"]], "arcs": [["e1","e2"]]}')
    assert e.value.code == "circle-without-z"


@pytest.mark.parametrize(
    "text,code",
    [
        ("not json", "syntax"),
        ('{"circles": [], "arcs": []}', "no-circle"),
        ('{"circles": [["z","e1","e1"]], "arcs": [["e1","e1"]]}', "bad-arc"),
        ('{"circles": [["z","e1","e2","e1"]], "arcs": [["e1","e2"]]}', "duplicate-endpoint"),
        ('{"circles": [["z","e1"]], "arcs": []}', "unmatched-endpoint"),
        ('{"circles": [["z","e1","e2"]], "arcs": [["e1","e3"]]}', "unmatched-endpoint"),
        ('{"circles": [["z","e1","e2"]], "arcs": [["e1",5]]}', "bad-token"),
    ],
)
def test_parse_errors(text, code):
    with pytest.raises(SurfaceError) as e:
        parse_surface(text)
    assert e.value.code == code


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"circles": 5, "arcs": []}', "field 'circles' is not a list"),
        ('{"circles": [5], "arcs": []}', "field 'circles' holds 5, not a list"),
        ('{"circles": [["z"]], "arcs": 3}', "field 'arcs' is not a list"),
        ('{"circles": [["z"]], "arcs": [5]}', "field 'arcs' holds 5, not a list"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": [1]}', "field 'face_genus' is not an object"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": 5}', "field 'face_genus' is not an object"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"a": 1}}', "field 'face_genus' maps 'a' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"0": "x"}}', "field 'face_genus' maps '0' to 'x'"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"0": -1}}', "field 'face_genus' maps '0' to -1"),
        # a face index is written one way only: ASCII digits, no sign, space or leading zero
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"00": 1}}', "field 'face_genus' maps '00' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"01": 1}}', "field 'face_genus' maps '01' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"\u0660": 1}}', "field 'face_genus' maps '\u0660' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"+1": 1}}', "field 'face_genus' maps '+1' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {" 1": 1}}', "field 'face_genus' maps ' 1' to 1"),
        ('{"circles": [["z"]], "arcs": [], "face_genus": {"0": 1, "\u0660": 1}}', "field 'face_genus' maps '\u0660' to 1"),
    ],
)
def test_malformed_surface_is_a_syntax_error(text, message):
    with pytest.raises(SurfaceError, match=re.escape(message)) as e:
        parse_surface(text)
    assert e.value.code == "syntax"


def test_a_face_index_past_the_digit_limit_of_int_is_a_syntax_error():
    text = json.dumps({"circles": [["z"]], "arcs": [], "face_genus": {"9" * 5000: 1}})
    with pytest.raises(SurfaceError, match="field 'face_genus' maps '999") as e:
        parse_surface(text)
    assert e.value.code == "syntax"


def test_face_genus_for_a_missing_face_is_rejected_by_parse():
    torus = json.loads(serialize_surface(torus_decoration()))
    assert len(analyze_surface(parse_surface(json.dumps({**torus, "face_genus": {"0": 1}}))).faces) == 1
    with pytest.raises(SurfaceError, match=re.escape("override for nonexistent face(s) [7]")) as e:
        parse_surface(json.dumps({**torus, "face_genus": {"7": 1}}))
    assert e.value.code == "bad-face-genus"


def test_disconnected_data_is_rejected():
    with pytest.raises(SurfaceError) as e:
        make_surface([["z", "e1", "e2"], ["z"]], [["e1", "e2"]])
    assert e.value.code == "disconnected"


def test_serialize_parse_round_trip():
    for _, ds in corpus_surfaces()[:20]:
        assert parse_surface(serialize_surface(ds)) == ds


def test_analyze_disc_with_one_arc():
    rep = analyze_surface(DISC1)
    assert len(rep.faces) == 2
    assert sorted(f.z_count for f in rep.faces) == [0, 1]
    assert rep.genus == 0
    assert rep.single_disc_faces  # both faces are discs with <= 1 mark
    assert not rep.every_face_marked  # one face misses the mark


def test_analyze_interleaved():
    rep = analyze_surface(TORUS)
    assert (rep.genus, len(rep.faces)) == (1, 1)
    assert rep.faces[0].z_count == 1
    assert rep.single_disc_faces and rep.every_face_marked


@pytest.mark.parametrize("g", [1, 2, 3])
def test_one_disc_decoration_cuts_to_a_single_disc(g):
    rep = analyze_surface(one_disc_decoration(g))
    assert len(rep.faces) == 1
    assert rep.genus == g
    assert rep.single_disc_faces


@pytest.mark.parametrize("g", [1, 2])
def test_double_cover_decoration(g):
    ds = double_cover_decoration(g)
    rep = analyze_surface(ds)
    assert rep.genus == g
    assert len(rep.faces) == 2
    assert all(f.z_count == 1 for f in rep.faces)
    assert len(ds.intervals()) == 2


def test_face_tracing_uses_every_segment_once_and_every_arc_twice():
    for _, ds in corpus_surfaces()[:30]:
        rep = analyze_surface(ds)
        segs = [t for f in rep.faces for t in f.word if t[0] == "seg"]
        arcs = [t[1] for f in rep.faces for t in f.word if t[0] == "arc"]
        assert len(segs) == len(set(segs))
        assert len(segs) == max(len(ds.endpoints), len(segs))
        for i in range(ds.n_arcs):
            assert arcs.count(i) == 2


def test_euler_characteristic_consistency():
    for _, ds in corpus_surfaces():
        rep = analyze_surface(ds)
        assert rep.euler == 2 - 2 * rep.genus - rep.num_boundary_circles


def test_face_genus_override_changes_genus():
    ds = make_surface([["z","e1","e2"]], [["e1", "e2"]], face_genus=[(0, 1)])
    rep = analyze_surface(ds)
    assert rep.genus == 1
    assert not rep.single_disc_faces


def test_reverse_orientation_is_an_involution():
    for _, ds in corpus_surfaces()[:30]:
        assert reverse_orientation(reverse_orientation(ds)) == ds


def test_reverse_orientation_reverses_interval_order():
    rds = reverse_orientation(TORUS)
    assert rds.intervals() == (("e4", "e3", "e2", "e1"),)
    assert analyze_surface(rds).genus == 1


def test_reverse_disc_with_arc_is_itself_up_to_relabeling():
    rds = reverse_orientation(DISC1)
    assert rds.intervals() == (("e2", "e1"),)
    assert analyze_surface(rds).genus == 0


def test_connected_sum_of_discs_with_arcs():
    out = boundary_connected_sum(DISC1, 0, DISC1, 0)
    rep = analyze_surface(out)
    assert len(out.circles) == 1
    assert len(out.z_marks) == 2
    assert out.n_arcs == 2
    assert rep.genus == 0
    assert len(out.intervals()) == 2


def test_connected_sum_with_trivial_disc_keeps_algebra_dimensions():
    out = boundary_connected_sum(TORUS, 0, disc(), 0)
    for k in (0, 1, 2):
        assert Algebra.from_surface(out, k).dim == Algebra.from_surface(TORUS, k).dim


def test_connected_sum_of_tori():
    out = boundary_connected_sum(TORUS, 0, TORUS, 0)
    rep = analyze_surface(out)
    assert out.n_arcs == 4
    assert rep.genus == 2
    assert len(out.circles) == 1
    assert len(out.z_marks) == 2


def test_connected_sum_euler_additivity():
    pairs = [(DISC1, DISC1), (TORUS, DISC1), (TORUS, TORUS)]
    for a, b in pairs:
        out = boundary_connected_sum(a, 0, b, 0)
        assert analyze_surface(out).euler == analyze_surface(a).euler + analyze_surface(b).euler - 1


def test_connected_sum_bad_mark_index():
    with pytest.raises(SurfaceError) as e:
        boundary_connected_sum(DISC1, 3, DISC1, 0)
    assert e.value.code == "no-such-z"


def test_arc_slide_on_interleaved_surface():
    out = arc_slide(TORUS, 0, 1, "e1")
    rep = analyze_surface(out)
    assert (rep.genus, rep.num_boundary_circles) == (1, 1)
    # the new endpoint sits immediately after arc 1's far endpoint e4
    iv = out.intervals()[0]
    assert iv.index("e4") + 1 == iv.index("e_s0")


def test_arc_slide_twice_restores_interleaved_pattern():
    once = arc_slide(TORUS, 0, 1, "e1")
    twice = arc_slide(once, 0, 1, "e3")
    arc_of = {t: i for i, p in enumerate(twice.arcs) for t in p}
    pattern = tuple(arc_of[t] for t in twice.intervals()[0])
    assert pattern in ((0, 1, 0, 1), (1, 0, 1, 0))


def test_arc_slide_preconditions():
    with pytest.raises(SurfaceError):
        arc_slide(TORUS, 0, 0, "e1")  # i == j
    with pytest.raises(SurfaceError) as e:
        arc_slide(DISC1, 0, 0, "e1")
    assert e.value.code == "bad-slide"
    # e2 on the interleaved surface is followed by e3, an endpoint of arc 0:
    # sliding arc 1 over arc 1 there is rejected, arc 0 over arc 1 at e1 is fine
    with pytest.raises(SurfaceError) as e:
        arc_slide(TORUS, 1, 0, "e4")  # e4 is followed by z
    assert e.value.code == "not-adjacent"


@st.composite
def small_surfaces(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    eps = [f"e{i}" for i in range(1, 2 * n + 1)]
    perm = draw(st.permutations(eps))
    arcs = [[perm[2 * i], perm[2 * i + 1]] for i in range(n)]
    order = draw(st.permutations(eps))
    n_z = draw(st.integers(min_value=1, max_value=2))
    cut = draw(st.integers(min_value=0, max_value=len(order)))
    nodes = list(order[:cut]) + ["z"] + list(order[cut:]) + (["z"] if n_z == 2 else [])
    return make_surface([nodes], arcs)


@settings(max_examples=40, deadline=None)
@given(small_surfaces())
def test_reverse_involution_property(ds):
    assert reverse_orientation(reverse_orientation(ds)) == ds
    rep = analyze_surface(ds)
    rrep = analyze_surface(reverse_orientation(ds))
    assert (rep.genus, len(rep.faces)) == (rrep.genus, len(rrep.faces))
