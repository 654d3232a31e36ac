import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strandalg.corpus import (
    data_dir,
    disc_with_arc,
    filling_reversed_typeA,
    filling_typeD,
    load_bundled_pairings,
    slope_diagram,
    solid_torus_typeA,
    torus_algebra,
    torus_decoration,
)
from strandalg import modules
from strandalg.diagrams import cf_hat
from strandalg.modules import (
    MAX_DEPTH,
    DepthExceeded,
    IdempotentMismatch,
    ModuleFormatError,
    TruncationUnsound,
    TypeAModule,
    TypeDModule,
    algebra_as_module,
    box_tensor,
    check_typeA,
    check_typeD,
    dual_type_d,
    dump_module,
    load_module,
    mor_complex,
    nilpotence_order,
    _relation_terms,
)
from strandalg.strands import Algebra, opposite_algebra_map

ALG = torus_algebra()
I0, I1 = (0,), (1,)


def chord(p, q, alg=ALG):
    return alg.basis_index({"chords": [[p, q]]})


# ---------------------------------------------------------------------------
# validators


def test_typeD_zero_delta_passes():
    n = TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset()})
    assert check_typeD(n).ok


def test_typeD_square_zero_self_chord_passes():
    # delta(v) = a (x) v with a.a = 0 and da = 0
    n = TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset([(chord(0, 2), "v")])})
    assert check_typeD(n).ok


def test_typeD_structure_equation_failure_detected():
    # v -> w -> u along a composable pair: (0,1).(1,2) = (0,2) survives
    n = TypeDModule(
        ALG,
        ("v", "w", "u"),
        {"v": I0, "w": I1, "u": I0},
        {
            "v": frozenset([(chord(0, 1), "w")]),
            "w": frozenset([(chord(1, 2), "u")]),
            "u": frozenset(),
        },
    )
    rep = check_typeD(n)
    assert not rep.ok and "structure equation" in rep.failures[0]


def test_typeD_idempotent_mismatch_rejected():
    with pytest.raises(IdempotentMismatch):
        TypeDModule(ALG, ("v", "w"), {"v": I1, "w": I1}, {"v": frozenset([(chord(2, 3), "w")])})


def test_typeA_trivial_passes():
    m = TypeAModule(ALG, ("x",), {"x": I0}, {})
    assert check_typeA(m).ok


def test_typeA_algebra_over_itself_passes():
    for k in (1, 2):
        alg = Algebra.from_surface(torus_decoration(), k)
        m = algebra_as_module(alg)
        assert m.j_max == 1
        assert check_typeA(m).ok


def test_typeA_relation_failure_detected():
    # an action by (0,1) then (1,2) without the composite action by (0,2)
    m = TypeAModule(
        ALG,
        ("x", "y", "z"),
        {"x": I0, "y": I1, "z": I0},
        {("x", (chord(0, 1),)): frozenset(["y"]), ("y", (chord(1, 2),)): frozenset(["z"])},
    )
    assert not check_typeA(m).ok


def test_typeA_idempotent_mismatch_rejected():
    with pytest.raises(IdempotentMismatch):
        TypeAModule(ALG, ("x", "y"), {"x": I1, "y": I1}, {("x", (chord(0, 1),)): frozenset(["y"])})


def test_bundled_modules_pass_validators():
    for _, ma, nd, mr, _, _ in load_bundled_pairings():
        assert check_typeA(ma).ok
        assert check_typeD(nd).ok
        assert check_typeA(mr).ok


def _full_product_check_typeA(m, max_inputs=None):
    """check_typeA over every basis argument tuple, composable or not."""
    depth = max_inputs if max_inputs is not None else m.j_max + 1
    failures = []
    for r in range(depth + 1):
        for x in m.generators:
            for args in itertools.product(range(m.algebra.dim), repeat=r):
                res = _relation_terms(m, x, args)
                if res:
                    inputs = ", ".join(map(m.algebra.describe, args))
                    failures.append(f"relation fails on ({x!r}, [{inputs}]): residue {sorted(res)}")
                    if len(failures) > 4:
                        return False, failures
    return not failures, failures


def _flipped(m):
    """m with the output of its first product action removed."""
    key = min(k for k in m.ops if k[1])
    ops = {**m.ops, key: m.ops[key] ^ {min(m.ops[key])}}
    return TypeAModule(m.algebra, m.generators, m.idem, {k: v for k, v in ops.items() if v})


def _typeA_cases():
    files = sorted((data_dir() / "modules").glob("*typeA.json"))
    cases = [(f.stem, load_module(f), None) for f in files]
    for k in (1, 2):
        m = algebra_as_module(Algebra.from_surface(torus_decoration(), k))
        cases += [(f"torus_k{k}", m, None), (f"torus_k{k}_depth3", m, 3)]
    cases += [("torus_k1_flipped", _flipped(algebra_as_module(ALG)), None)]
    return cases


def test_typeA_composable_chains_match_full_product():
    cases = _typeA_cases()
    assert len(cases) == 7 + 5
    for name, m, depth in cases:
        rep = check_typeA(m, max_inputs=depth)
        assert (rep.ok, rep.failures) == _full_product_check_typeA(m, depth), name
    assert not check_typeA(cases[-1][1]).ok


def test_a_repeated_typeA_operation_cancels_on_load():
    """Kills the mutants of load_module that OR a repeated operation's output
    into its entry instead of XORing it, or keep an entry that cancels to
    zero: an operation listed twice is gone, and listed three times is
    there once."""
    m = solid_torus_typeA()
    data = dump_module(m, {})
    op = data["operations"][0]
    key = (op["from"], tuple(ALG.basis_index(desc) for desc in op["alg"]))
    assert m.ops[key] == {op["to"]}
    twice = load_module({**data, "operations": data["operations"] + [op]}, algebra=ALG)
    thrice = load_module({**data, "operations": data["operations"] + [op, op]}, algebra=ALG)
    assert twice.ops == {k: v for k, v in m.ops.items() if k != key}
    assert thrice.ops == m.ops


def test_check_typeA_stops_at_five_witnesses():
    """Kills the mutants of check_typeA that stop after six witnesses or
    never stop: three generators, each acted on by the self-chord (0,2) as
    the identity, fail two relations each, and the first five are kept."""
    a = chord(0, 2)
    gens = ("x0", "x1", "x2")
    m = TypeAModule(ALG, gens, {x: I0 for x in gens}, {(x, (a,)): frozenset([x]) for x in gens})
    ok, first = _full_product_check_typeA(m)
    assert check_typeA(m).failures == first and len(first) == 5
    total = sum(
        bool(_relation_terms(m, x, args))
        for r in range(m.j_max + 2)
        for x in gens
        for args in itertools.product(range(ALG.dim), repeat=r)
    )
    assert total == 6


def test_a_three_input_relation_reads_the_middle_product():
    """Kills the mutant of _relation_terms that sums only the first product
    a_1 a_2 of an argument chain: m_3(x, (0,1), (1,3)) = y and nothing
    else, so the relation on ((0,1), (1,2), (2,3)) fails only through the
    middle product (1,2)(2,3) = (1,3), and every other relation holds."""
    a01, a12, a23, a13 = chord(0, 1), chord(1, 2), chord(2, 3), chord(1, 3)
    assert ALG.mul_basis(a12, a23) == {a13}
    m = TypeAModule(ALG, ("x", "y"), {"x": I0, "y": I1}, {("x", (a01, a13)): frozenset(["y"])})
    assert _relation_terms(m, "x", (a01, a12, a23)) == {"y"}
    rep = check_typeA(m)
    assert rep.failures == [f"relation fails on ('x', [{ALG.describe(a01)}, {ALG.describe(a12)}, {ALG.describe(a23)}]): residue ['y']"]


# ---------------------------------------------------------------------------
# box tensor


def test_box_trivial_pair():
    m = TypeAModule(ALG, ("x",), {"x": I0}, {})
    n = TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset()})
    c = box_tensor(m, n)
    assert c.rank == 1
    assert c.differential == (0,)


def test_box_generators_are_idempotent_matched_pairs():
    ma = solid_torus_typeA()
    nd = filling_typeD(3)
    c = box_tensor(ma, nd)
    expected = sum(
        1 for x in ma.generators for y in nd.generators if ma.idem[x] == nd.idem[y]
    )
    assert c.rank == expected
    assert all("|" in lab for lab in c.labels)


def test_box_ranks_match_closed_engine():
    for name, ma, nd, _, diag, rank in load_bundled_pairings():
        assert box_tensor(ma, nd).homology_rank() == rank
        assert cf_hat(diag).homology_rank() == rank, name


def test_box_requires_same_algebra():
    other = Algebra.from_surface(disc_with_arc(), 1)
    m = TypeAModule(other, ("x",), {"x": (0,)}, {})
    n = TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset()})
    with pytest.raises(ModuleFormatError, match="box tensor of modules over different algebras") as e:
        box_tensor(m, n)
    assert e.value.code == "mismatch"


def _looping_pair(inputs: int):
    # a valid self-looping delta plus an action with the given number of
    # inputs makes the delta chains as long as that action
    n = TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset([(chord(0, 2), "v")])})
    m = TypeAModule(
        ALG,
        ("x", "y"),
        {"x": I0, "y": I0},
        {("x", (chord(0, 2),) * inputs): frozenset(["y"])},
    )
    return m, n


def test_box_depth_exceeded():
    for box in (box_tensor, _reference_box):
        with pytest.raises(DepthExceeded):
            box(*_looping_pair(MAX_DEPTH + 1))
    assert box_tensor(*_looping_pair(MAX_DEPTH)).rank == 2


def test_a_long_operation_over_short_delta_chains_boxes():
    """An operation of more than MAX_DEPTH inputs raises nothing where no
    delta chain reaches MAX_DEPTH arrows: filling_typeD(3)'s longest has 3.
    Kills the mutant that raises whenever the depth asked for passes
    MAX_DEPTH, which test_box_depth_exceeded lets through."""
    m = TypeAModule(ALG, ("x",), {"x": I0}, {("x", (chord(0, 2),) * (MAX_DEPTH + 1)): frozenset(["x"])})
    n = filling_typeD(3, ALG)
    c = box_tensor(m, n)
    assert c.labels == ("x|v",)
    assert (c.labels, c.differential) == _reference_box(m, n)


# ---------------------------------------------------------------------------
# the box tensor against the per-pair reference


def _reference_evaluate(m, x, args):
    """m_{1+j}(x, args), extended strictly unitally: an argument is an
    idempotent when its basis element carries no chord."""
    basis = m.algebra.basis
    if any(all(c is None for c in basis[a].assign) for a in args):
        return frozenset([x]) if len(args) == 1 and basis[args[0]].s == m.idem[x] else frozenset()
    return m.ops.get((x, tuple(args)), frozenset())


def _reference_box(m, n):
    """The box tensor as (labels, differential), rebuilding the delta chains
    of y for every pair (x, y): the slow path box_tensor replaces."""
    depth = max(m.j_max, 1)
    pairs = [(x, y) for x in m.generators for y in n.generators if m.idem[x] == n.idem[y]]
    index = {p: i for i, p in enumerate(pairs)}
    diff = []
    for x, y in pairs:
        mask = 0
        chains, j = [((), y)], 0
        while chains:
            for args, yy in chains:
                for x2 in _reference_evaluate(m, x, args):
                    mask ^= 1 << index[x2, yy]
            if j == depth:
                break
            j += 1
            if j > MAX_DEPTH:
                raise DepthExceeded(f"delta iteration exceeded depth {MAX_DEPTH}")
            chains = [(args + (a,), y2) for args, yy in chains for a, y2 in n.delta_of(yy)]
        diff.append(mask)
    return tuple(f"{x}|{y}" for x, y in pairs), tuple(diff)


def _assert_box_matches_reference(m, n):
    c = box_tensor(m, n)
    assert (c.labels, c.differential) == _reference_box(m, n)


def test_box_matches_reference_on_bundled_pairings_and_mor_duals():
    for _, ma, nd, mr, _, _ in load_bundled_pairings():
        _assert_box_matches_reference(ma, nd)
        _assert_box_matches_reference(ma, dual_type_d(mr))  # the complex mor_complex(mr, ma) ranks


@pytest.mark.parametrize("q", [*range(65), 2731])
def test_box_matches_reference_on_fillings(q):
    _assert_box_matches_reference(solid_torus_typeA(ALG), filling_typeD(q, ALG))


def _random_modules(rng, alg):
    """A type A and a type D module with random generators, actions of up to
    two inputs and delta arrows, unit arrows included; neither need satisfy
    its structure equation."""
    idems = sorted(alg.by_source)
    xs = [f"x{i}" for i in range(rng.randint(1, 4))]
    ys = [f"y{i}" for i in range(rng.randint(1, 4))]
    idem = {g: rng.choice(idems) for g in xs + ys}

    def at(gs, e):
        return [g for g in gs if idem[g] == e]

    ops = {}
    for x in xs:
        for r in range(3):
            for _ in range(rng.randint(0, 2)):
                args, tail = (), idem[x]
                for _ in range(r):
                    choices = [a for a in alg.by_source[tail] if a not in alg.idempotent_set]
                    if not choices:
                        break
                    args += (rng.choice(choices),)
                    tail = alg.basis[args[-1]].t
                if len(args) == r and (outs := frozenset(rng.sample(at(xs, tail), rng.randint(0, len(at(xs, tail)))))):
                    ops[x, args] = outs
    delta = {}
    for y in ys:
        arrows = [(a, y2) for a in alg.by_source[idem[y]] for y2 in at(ys, alg.basis[a].t)]
        delta[y] = frozenset(rng.sample(arrows, min(len(arrows), rng.randint(0, 3))))
    m = TypeAModule(alg, tuple(xs), {x: idem[x] for x in xs}, ops)
    n = TypeDModule(alg, tuple(ys), {y: idem[y] for y in ys}, delta)
    return m, n


def test_box_matches_reference_on_random_modules(monkeypatch):
    # most random pairs do not square to zero, so compare the differential
    # box_tensor hands to ChainComplex, before its validation
    monkeypatch.setattr(modules, "ChainComplex", lambda labels, diff: (labels, diff))
    rng = random.Random(17)
    for alg in (ALG, Algebra.from_surface(torus_decoration(), 2), Algebra.from_surface(disc_with_arc(), 1)):
        for _ in range(150):
            m, n = _random_modules(rng, alg)
            assert box_tensor(m, n) == _reference_box(m, n)


def test_box_evaluates_each_action_once(monkeypatch):
    """The box tensor asks the type A side for each (x, chain labels) once
    per call, however many type D generators start such a chain, and the
    complex still matches the per-pair reference."""
    m, n = solid_torus_typeA(ALG), filling_typeD(64, ALG)
    calls = []
    evaluate = TypeAModule.evaluate
    monkeypatch.setattr(TypeAModule, "evaluate", lambda self, x, args: calls.append((x, args)) or evaluate(self, x, args))
    c = box_tensor(m, n)
    assert len(calls) == len(set(calls)) < sum(1 + len(n.delta_of(y)) for y in n.generators)
    monkeypatch.undo()
    assert (c.labels, c.differential) == _reference_box(m, n)


def _bad_typeD():
    """The bundled filling1_typeD plus the arrow v -> (0,2) v: its
    idempotents match, but the structure equation fails on v."""
    data = json.loads((data_dir() / "modules" / "filling1_typeD.json").read_text())
    data["operations"].append({"from": "v", "alg": {"chords": [[0, 2]], "markers": []}, "to": "v"})
    return load_module(data, algebra=ALG)


def test_box_complex_off_d_squared_is_a_coded_error():
    bad = _bad_typeD()
    assert check_typeD(bad).failures == [
        'structure equation fails on \'v\': residue [({"chords": [[0, 3]], "markers": []}, \'w1\')]'
    ]
    with pytest.raises(ModuleFormatError) as e:
        box_tensor(solid_torus_typeA(ALG), bad)
    assert e.value.code == "invalid"
    assert str(e.value) == "box complex: differential does not square to zero at 'u0|v'"
    assert type(e.value.__cause__) is ValueError


def test_box_output_off_the_chain_end_idempotent_is_a_mismatch():
    # an action changed after validation to land on an arc-0 generator where
    # the chain through (2,3) ends on arc 1
    m = solid_torus_typeA(ALG)
    m.ops["u0", (chord(2, 3),)] = frozenset(["c02"])
    with pytest.raises(IdempotentMismatch, match="action of 'u0' on a delta chain lands off the idempotent of its end 'w1'"):
        box_tensor(m, filling_typeD(2, ALG))


def test_module_witnesses_name_basis_elements_by_descriptor():
    # (0,1) then (1,2) acts, with no (0,2) action to match
    m = TypeAModule(
        ALG, ("x", "y"), {"x": I0, "y": I1}, {("x", (chord(0, 1),)): frozenset(["y"]), ("y", (chord(1, 2),)): frozenset(["x"])}
    )
    assert check_typeA(m).failures[0] == (
        'relation fails on (\'x\', [{"chords": [[0, 1]], "markers": []}, {"chords": [[1, 2]], "markers": []}]): '
        "residue ['x']"
    )


def test_box_counts_unit_arrows_without_actions():
    # N has no action (j_max == 0), yet an idempotent-labelled delta arrow
    # still pairs with it through the unit
    n_a = TypeAModule(ALG, ("u",), {"u": I0}, {})
    unit = ALG.idempotent_index(I0)
    d = TypeDModule(ALG, ("v", "w"), {"v": I0, "w": I0}, {"v": frozenset([(unit, "w")])})
    assert check_typeD(d).ok
    assert box_tensor(n_a, d).homology_rank() == 0
    # M = (x -> y) is acyclic, so Mor(M, N) is too
    m_a = TypeAModule(ALG, ("x", "y"), {"x": I0, "y": I0}, {("x", ()): frozenset(["y"])})
    assert mor_complex(m_a, n_a).homology_rank() == 0


# ---------------------------------------------------------------------------
# morphism complex


def test_mor_unit_algebra():
    disc_alg = Algebra.from_surface(torus_decoration(), 0)
    m = TypeAModule(disc_alg, ("x",), {"x": ()}, {})
    c = mor_complex(m, m)
    assert c.rank == 1 and c.homology_rank() == 1


def test_mor_yoneda_unit_on_disc_algebra():
    alg = Algebra.from_surface(disc_with_arc(), 1)
    m = algebra_as_module(alg)
    complex_rank = alg.dim - 2 * len([i for i in range(alg.dim) if alg.diff_basis(i)])
    assert mor_complex(m, m).homology_rank() == 2 == complex_rank


def test_mor_equals_box_on_bundled_pairs():
    for name, ma, nd, mr, _, rank in load_bundled_pairings():
        box_rank = box_tensor(ma, nd).homology_rank()
        mor_rank = mor_complex(mr, ma).homology_rank()
        assert box_rank == mor_rank == rank, name


def test_mor_rejects_higher_actions():
    m = TypeAModule(
        ALG, ("x",), {"x": I0}, {("x", (chord(0, 2), chord(0, 2))): frozenset(["x"])}
    )
    with pytest.raises(TruncationUnsound):
        mor_complex(m, m)


def test_mor_rejects_non_dualizable_module():
    # the idempotent-1 column of the algebra: u1 -> c12g -> c13g with a
    # direct u1 -> c13g action; its dual picks up an uncancelled composite
    p2 = TypeAModule(
        ALG,
        ("u1", "c12g", "c13g"),
        {"u1": I1, "c12g": I0, "c13g": I1},
        {
            ("u1", (chord(1, 2),)): frozenset(["c12g"]),
            ("u1", (chord(1, 3),)): frozenset(["c13g"]),
            ("c12g", (chord(2, 3),)): frozenset(["c13g"]),
        },
    )
    assert check_typeA(p2).ok  # a perfectly good module...
    with pytest.raises(TruncationUnsound):
        mor_complex(p2, p2)  # ...outside the finite dual model


def test_dual_type_d_of_bundled_sources_is_valid():
    for _, _, _, mr, _, _ in load_bundled_pairings():
        assert check_typeD(dual_type_d(mr)).ok


def test_nilpotence_order_of_torus_algebra():
    assert nilpotence_order(ALG) == 4  # (0,1).(1,2).(2,3) is the longest chain


# ---------------------------------------------------------------------------
# pairing symmetries


def _swap_pair(m, n, ralg, op):
    """Rewrite (type A, type D) over the reversed algebra with sides swapped,
    transposing all structure maps through the chord-reversal bijection."""
    ops: dict = {}
    for y in n.generators:
        for a, y2 in n.delta_of(y):
            key = (y2, (op[a],))
            ops[key] = ops.get(key, frozenset()) ^ {y}
    n_sw = TypeAModule(ralg, n.generators, dict(n.idem), {k: v for k, v in ops.items() if v})
    delta = {g: frozenset() for g in m.generators}
    for (x, args), outs in m.ops.items():
        for y in outs:
            lab = ralg.idempotent_index(m.idem[y]) if not args else op[args[0]]
            delta[y] = delta[y] ^ {(lab, x)}
    m_sw = TypeDModule(ralg, m.generators, dict(m.idem), delta)
    return n_sw, m_sw


def test_reversal_side_swap_preserves_pairing_ranks():
    alg, ralg, op = opposite_algebra_map(torus_decoration(), 1)
    for q in range(6):
        m = filling_reversed_typeA(q, alg)
        n = filling_typeD(q, alg)
        n_sw, m_sw = _swap_pair(m, n, ralg, op)
        assert check_typeD(m_sw).ok
        direct = box_tensor(m, n).homology_rank()
        mirrored = box_tensor(n_sw, m_sw).homology_rank()
        assert direct == mirrored


# ---------------------------------------------------------------------------
# file format


def test_module_files_round_trip():
    ref = {"surface": "../surfaces/torus.json", "k": 1}
    for build in (solid_torus_typeA, lambda: filling_typeD(2), lambda: filling_reversed_typeA(4)):
        m = build()
        data = dump_module(m, ref)
        m2 = load_module(json.loads(json.dumps(data)), algebra=ALG)
        assert m2.generators == m.generators
        assert m2.idem == m.idem
        if isinstance(m, TypeDModule):
            assert m2.delta == {g: m.delta_of(g) for g in m.generators}
        else:
            assert m2.ops == m.ops


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: filling_typeD(-1), "framing must be >= 0"),
        (lambda: slope_diagram(0), "slope must be >= 1"),
        (lambda: filling_reversed_typeA(9), "bundled fillings cover q = 0..5"),
    ],
    ids=["filling-typeD", "slope-diagram", "filling-reversed-typeA"],
)
def test_corpus_builders_reject_a_framing_out_of_range(build, message):
    with pytest.raises(ValueError, match=re.escape(message)) as e:
        build()
    assert type(e.value) is ValueError


def test_bundled_files_resolve_their_algebra():
    m = load_module(data_dir() / "modules" / "solid_torus_typeA.json")
    assert m.algebra.k == 1 and m.algebra.n_arcs == 2
    assert check_typeA(m).ok


BUILDERS = {
    "solid_torus_typeA": solid_torus_typeA,
    **{f"filling{q}_typeD": (lambda q=q: filling_typeD(q)) for q in range(6)},
}


@pytest.mark.parametrize("name", BUILDERS)
def test_bundled_files_match_builders(name):
    built = dump_module(BUILDERS[name](), {"surface": "../surfaces/torus.json", "k": 1})
    on_disk = json.loads((data_dir() / "modules" / f"{name}.json").read_text())
    assert built == on_disk


def test_typeD_dump_sorts_operations_by_target_then_element():
    """A type D generator with seven arrows to one target and one element
    to seven targets dumps each generator's operations by (to, element).
    Exists to kill the mutants that sort by target alone (key t[1]) or by
    element alone (key t[0]): each leaves a seven-way tie in frozenset
    order, which is sorted by chance once in 5040."""
    alg = Algebra.from_surface(torus_decoration(), 2)  # all 7 elements run from I(0, 1) to I(0, 1)
    targets = [f"y{n}" for n in range(7)]
    delta = {"x": frozenset({(a, "y0") for a in range(alg.dim)} | {(0, y) for y in targets})}
    m = TypeDModule(alg, ("x", *targets), {g: (0, 1) for g in ("x", *targets)}, delta)
    dumped = [(op["to"], alg.basis_index(op["alg"])) for op in dump_module(m, {})["operations"]]
    assert len(dumped) == 13
    assert dumped == sorted(dumped)


@pytest.mark.parametrize("kind", ["A", "D"])
@pytest.mark.parametrize("end", ["from", "to"])
def test_unknown_generator_is_a_format_error(kind, end):
    data = dump_module(solid_torus_typeA() if kind == "A" else filling_typeD(2), {"surface": "x", "k": 1})
    op = data["operations"][0]
    op[end] = "nowhere"
    with pytest.raises(ModuleFormatError, match=r"operation 0 \(.*\): unknown generator 'nowhere'") as e:
        load_module(data, algebra=ALG)
    assert e.value.code == "invalid"


def _load_edited(edit):
    """Load the solid-torus module after edit(data) on its dumped file."""
    data = dump_module(solid_torus_typeA(), {})
    edit(data)
    return load_module(data, algebra=ALG)


@pytest.mark.parametrize(
    "build, code, message",
    [
        (lambda: load_module({**dump_module(solid_torus_typeA(), {}), "type": "B"}, algebra=ALG),
         "invalid", "unknown module type 'B'"),
        (lambda: _load_edited(lambda d: d["generators"][0].update(idempotent=[1])),
         "invalid", "operation on 'u0' starts off its idempotent"),
        (lambda: _load_edited(lambda d: d["generators"][0].update(idempotent=[0, 0])),
         "invalid", "idempotent of 'u0' is not k=1 distinct arcs of the algebra: [0, 0]"),
        (lambda: _load_edited(lambda d: d["generators"][0].update(idempotent=[7])),
         "invalid", "idempotent of 'u0' is not k=1 distinct arcs of the algebra: [7]"),
        (lambda: _load_edited(lambda d: d.update(generators=5)), "syntax", "module: field 'generators' is not a list"),
        (lambda: _load_edited(lambda d: d.update(operations=5)), "syntax", "module: field 'operations' is not a list"),
        (lambda: _load_edited(lambda d: d["operations"][0].update({"from": ["x"]})),
         "syntax", "operation 0: field 'from' is not a generator name: ['x']"),
        (lambda: _load_edited(lambda d: d["generators"][0].update(name=["u0"])),
         "syntax", "generator 0: field 'name' is not a string: ['u0']"),
        (lambda: load_module({"type": "A", "generators": [{"name": "x", "idempotent": [0]}] * 2}, algebra=ALG),
         "invalid", "duplicate generator names"),
        (lambda: TypeAModule(ALG, ("x",), {"x": ()}, {}), "invalid",
         "idempotent of 'x' is not k=1 distinct arcs of the algebra: []"),
        (lambda: TypeAModule(ALG, ("x",), {"x": I0}, {("x", (ALG.idempotent_index([0]),)): frozenset("x")}),
         "invalid", "idempotent arguments are implicit"),
        (lambda: mor_complex(solid_torus_typeA(), algebra_as_module(Algebra.from_surface(disc_with_arc(), 1))),
         "mismatch", "morphism complex of modules over different algebras"),
        (lambda: TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset([(chord(0, 2), "y")])}),
         "invalid", "delta entry 'v'->'y' ends on an undeclared generator"),
        (lambda: TypeDModule(ALG, ("v",), {"v": I0}, {"y": frozenset()}), "invalid", "delta of undeclared generators: 'y'"),
        (lambda: TypeDModule(ALG, ("v", "x"), {"v": I0}, {}), "invalid", "generator 'x' has no idempotent"),
        (lambda: TypeAModule(ALG, ("x",), {"x": I0}, {("y", ()): frozenset("x")}),
         "invalid", "operation on an undeclared generator 'y'"),
        (lambda: TypeAModule(ALG, ("x",), {"x": I0}, {("x", ()): frozenset("y")}),
         "invalid", "operation 'x'->'y' lands on an undeclared generator"),
        (lambda: TypeDModule(ALG, ("v",), {"v": I0}, {"v": frozenset([(ALG.dim, "v")])}),
         "invalid", "delta entry 'v'->'v' has basis index 8, not below dim 8"),
        (lambda: TypeAModule(ALG, ("x",), {"x": I0}, {("x", (ALG.dim,)): frozenset("x")}),
         "invalid", "operation on 'x' has basis index 8, not below dim 8"),
    ],
    ids=["type", "off-idempotent", "idempotent-repeat", "idempotent-range", "generators-int", "operations-int",
         "from-list", "name-list", "duplicate", "idempotent-size", "idempotent-argument", "mor-mismatch",
         "delta-target", "delta-source", "no-idempotent", "op-source", "op-target", "delta-label-range", "op-label-range"],
)
def test_module_error_codes(build, code, message):
    with pytest.raises(ModuleFormatError, match=re.escape(message)) as e:
        build()
    assert e.value.code == code


def _set_alg(data, desc):
    data["operations"][0]["alg"] = [desc] if data["type"] == "A" else desc


def test_non_utf8_surface_file_is_a_format_error(tmp_path):
    (tmp_path / "bad.json").write_bytes(bytes.fromhex("fffe7b7d"))
    data = json.loads((data_dir() / "modules" / "filling2_typeD.json").read_text())
    data["algebra"]["surface"] = "bad.json"
    message = f"algebra: field 'surface' = 'bad.json' is invalid: {tmp_path / 'bad.json'} is not UTF-8 text: "
    with pytest.raises(ModuleFormatError, match=re.escape(message)) as e:
        load_module(data, base_dir=tmp_path)
    assert e.value.code == "syntax"
    assert isinstance(e.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("name", ["solid_torus_typeA", "filling2_typeD"])
@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda d: d.pop("type"), "syntax", "module lacks field 'type'"),
        (lambda d: d.pop("generators"), "syntax", "module lacks field 'generators'"),
        (lambda d: d.pop("algebra"), "syntax", "module lacks field 'algebra'"),
        (lambda d: d["algebra"].pop("k"), "syntax", "algebra lacks field 'k'"),
        (lambda d: d["generators"][0].pop("name"), "syntax", "generator 0 lacks field 'name'"),
        (lambda d: d["generators"][1].pop("idempotent"), "syntax", "generator 1 lacks field 'idempotent'"),
        (lambda d: d["operations"][0].pop("alg"), "syntax", "operation 0 lacks field 'alg'"),
        (lambda d: d["operations"][0].update(alg=5), "syntax", "operation 0: field 'alg' is not a"),
        (lambda d: _set_alg(d, {"chords": [[0, 9]]}), "bad-descriptor",
         'operation 0: bad descriptor {"chords": [[0, 9]]}: position out of range in chord (0,9)'),
        (lambda d: _set_alg(d, {"chords": [[2, 1]]}), "bad-descriptor",
         'operation 0: bad descriptor {"chords": [[2, 1]]}: (2,1) is not a chord'),
        (lambda d: _set_alg(d, {"chords": 3}), "bad-descriptor", 'operation 0: bad descriptor {"chords": 3}: '),
        (lambda d: _set_alg(d, {"markers": [0, 1]}), "bad-descriptor", "descriptor does not select 1 distinct arcs"),
        (lambda d: _set_alg(d, {"markers": [0, 0]}), "bad-descriptor",
         'bad descriptor {"markers": [0, 0]}: arc 0 marked twice'),
        (lambda d: _set_alg(d, {"chords": [[False, 3]]}), "bad-descriptor",
         'operation 0: bad descriptor {"chords": [[false, 3]]}: False is a boolean'),
        (lambda d: _set_alg(d, {"chords": [[0, 1.5]]}), "bad-descriptor",
         'operation 0: bad descriptor {"chords": [[0, 1.5]]}: '),
        (lambda d: _set_alg(d, {"markers": [False]}), "bad-descriptor",
         'operation 0: bad descriptor {"markers": [false]}: False is a boolean'),
        (lambda d: d["algebra"].update(k="x"), "syntax", "algebra: field 'k' is not an integer: 'x'"),
        (lambda d: d["algebra"].update(k=1.5), "syntax", "algebra: field 'k' is not an integer: 1.5"),
        (lambda d: d["algebra"].update(k=True), "syntax", "algebra: field 'k' is not an integer: True"),
        (lambda d: d["algebra"].update(k=99), "invalid",
         "algebra: field 'k' = 99 is invalid: k=99 out of range for 2 arcs"),
        (lambda d: d["generators"][0].update(idempotent=5), "syntax",
         "generator 0: field 'idempotent' is not a list of arcs: 5"),
        (lambda d: d["generators"][0].update(idempotent="01"), "syntax",
         "generator 0: field 'idempotent' is not a list of arcs: '01'"),
        (lambda d: d["generators"][0].update(idempotent=[False]), "syntax",
         "generator 0: field 'idempotent' is not a list of arcs: [False]"),
        (lambda d: d["algebra"].update(surface="nope.json"), "syntax",
         f"algebra: field 'surface' = 'nope.json' is invalid: cannot read {data_dir() / 'modules' / 'nope.json'}: "),
        (lambda d: d["algebra"].update(surface={"circles": [["e1"]], "arcs": []}), "invalid",
         "algebra: field 'surface' is invalid: endpoint(s) ['e1'] not matched between circles and arcs"),
        (lambda d: d["algebra"].update(surface="solid_torus_typeA.json"), "invalid",
         "algebra: field 'surface' is invalid: expected object with 'circles' and 'arcs'"),
        ('{"type": "D", ', "syntax", "module is not valid JSON: "),
        ("{not json", "syntax", "module is not valid JSON: "),
        (Path("missing.json"), "syntax", "module: cannot read "),
        (Path(), "syntax", "module: cannot read "),
        (bytes.fromhex("fffe7b7d"), "syntax", "module: "),
    ],
    ids=["type", "generators", "algebra", "k", "name", "idempotent", "alg", "alg-int",
         "range", "chord", "chords-int", "markers", "markers-twice", "chords-bool", "chords-float",
         "markers-bool", "k-str", "k-float", "k-bool", "k-range",
         "idempotent-int", "idempotent-str", "idempotent-bool", "surface", "surface-inline", "surface-file",
         "json-truncated", "json-syntax", "path-missing", "path-directory", "path-not-utf8"],
)
def test_malformed_module_is_a_format_error(name, edit, code, message, tmp_path):
    data = json.loads((data_dir() / "modules" / f"{name}.json").read_text())
    if isinstance(edit, str):  # the module text itself: load it as text and from a file
        path = tmp_path / f"{name}.json"
        path.write_text(edit)
        sources = [edit, path]
    elif isinstance(edit, Path):  # a path naming no readable file, given as a path and as a string
        path = tmp_path / edit
        message += str(path)
        sources = [path, str(path)]
    elif isinstance(edit, bytes):  # a file that is not UTF-8 text
        path = tmp_path / f"{name}.json"
        path.write_bytes(edit)
        message += f"{path} is not UTF-8 text: "
        sources = [path, str(path)]
    else:
        edit(data)
        sources = [data]
    for source in sources:
        with pytest.raises(ModuleFormatError, match=re.escape(message)) as e:
            load_module(source, base_dir=data_dir() / "modules")
        assert e.value.code == code
        # every error but a missing field or a wrong-typed 'alg' field is chained from its cause
        assert (e.value.__cause__ is None) == ("lacks field" in message or "field 'alg' is not a" in message)


@pytest.mark.parametrize("text", ["[]", "null", "3", ' ["type"] '], ids=["list", "null", "int", "padded"])
def test_json_text_that_is_not_an_object_is_not_read_as_a_path(text, tmp_path):
    """A JSON value other than an object is rejected alike as text, as a
    file and parsed; the text is not taken for a path."""
    path = tmp_path / "module.json"
    path.write_text(text)
    for source in (text, path, str(path), json.loads(text)):
        with pytest.raises(ModuleFormatError, match="^module is not an object$") as e:
            load_module(source)
        assert e.value.code == "syntax"


MODULE_FILES = {f.name: json.loads(f.read_text()) for f in sorted((data_dir() / "modules").glob("*.json"))}

# JSON values a mutation writes: junk, and values that look like the fields
# they replace (generator names, arcs, positions, descriptors)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False) | st.sampled_from(["u0", "w1", "v", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["chords", "markers", "name", "k"]), inner, max_size=2),
    max_leaves=6,
)


def _json_nodes(value, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_nodes(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MODULE_FILES)), st.integers(0), st.sampled_from(["replace", "delete", "repeat"]), _JSON_VALUES)
def test_mutated_module_files_load_or_raise_a_format_error(name, pick, action, value):
    data = json.loads(json.dumps(MODULE_FILES[name]))
    nodes = list(_json_nodes(data))
    *parent_path, key = nodes[pick % len(nodes)]
    parent = data
    for step in parent_path:
        parent = parent[step]
    if action == "replace":
        parent[key] = value
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    try:
        m = load_module(data, base_dir=data_dir() / "modules")
    except ModuleFormatError:
        return
    # dump∘load is the identity on every file it writes
    dumped = json.loads(json.dumps(dump_module(m, data["algebra"])))
    assert dump_module(load_module(dumped, base_dir=data_dir() / "modules"), data["algebra"]) == dumped


@pytest.mark.parametrize("name", sorted(MODULE_FILES))
def test_bundled_module_files_are_dump_load_fixed_points(name):
    data = MODULE_FILES[name]
    assert dump_module(load_module(data, base_dir=data_dir() / "modules"), data["algebra"]) == data
