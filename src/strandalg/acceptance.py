"""The acceptance gate: nine criteria over the bundled corpus.

Each criterion is a plain function returning ``(ok, detail, results)``:
``detail`` names the first failures, with basis-descriptor witnesses where
the underlying check gives them, and is empty on a pass; ``results`` holds
the figures a report records.  ``strandalg suite`` and the pytest gate both
run ``CRITERIA``.  Runtime budgets are asserted, and no elapsed time goes
into ``detail`` or ``results``, so two runs give byte-identical reports.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import corpus
from .diagrams import DiagramDomain, cf_hat, euler_measure, maslov_index
from .homalg import ChainComplex, identity_map, mapping_cone
from .modules import box_tensor, check_typeA, check_typeD, mor_complex
from .strands import (
    Algebra,
    brute_force_dimension,
    check_algebra,
    consum_failures,
    directedness_check,
    opposite_failures,
)
from .surface import analyze_surface, arc_slide, boundary_connected_sum, slide_options

SEED = 20260808
LAWS_BUDGET_S = 60.0
CLOSED_ENGINE_BUDGET_S = 5.0


def _verdict(failures: list, results: dict | None = None):
    return not failures, "; ".join(failures[:5]), results or {}


def _mismatches(checks) -> list:
    """A failure line for every (label, observed, expected) that differ."""
    return [f"{label}: {got}, expected {want}" for label, got, want in checks if got != want]


def _over_budget(t0: float, budget: float) -> list:
    return [f"over the {budget:.0f} s budget"] if time.monotonic() - t0 >= budget else []


def algebra_laws():
    """d², Leibniz, associativity, closure and idempotents on every corpus
    surface and every k, within the laws budget."""
    t0 = time.monotonic()
    surfaces = corpus.corpus_surfaces()
    failures = []
    for name, ds in surfaces:
        for k in range(ds.n_arcs + 1):
            rep = check_algebra(ds, k)
            if not rep.ok:
                failures.append(f"{name} k={k}: " + "; ".join(rep.failures[:3]))
    return _verdict(failures + _over_budget(t0, LAWS_BUDGET_S), {"corpus_surfaces": len(surfaces)})


def dimensions_and_idempotents():
    """dim A(T, k) = 1, 8, 7 for the torus, also by the brute-force oracle.
    The C(n, k) idempotent count on every corpus surface is the idempotents
    law, which algebra-laws checks."""
    torus = corpus.torus_decoration()
    dims = [Algebra.from_surface(torus, k).dim for k in (0, 1, 2)]
    checks = [
        ("torus dims", dims, [1, 8, 7]),
        ("brute-force torus dims", [brute_force_dimension(torus, k) for k in (0, 1, 2)], [1, 8, 7]),
    ]
    return _verdict(_mismatches(checks), {"torus_dims": dims})


def opposite_algebras():
    """Chord reversal is an isomorphism onto the opposite algebra on every
    corpus surface and every k."""
    failures = []
    for name, ds in corpus.corpus_surfaces():
        for k in range(ds.n_arcs + 1):
            if witnesses := opposite_failures(ds, k):
                failures.append(f"{name} k={k}: " + "; ".join(witnesses[:2]))
    return _verdict(failures)


def connected_sums():
    """The connected-sum decomposition on six pairs, and dim A(T#T, 2) = 78."""
    torus = corpus.torus_decoration()
    dwa, dc1 = corpus.disc_with_arc(), corpus.double_cover_decoration(1)
    pairs = [
        ("disc_with_arc # disc_with_arc", dwa, dwa, 1),
        ("disc_with_arc # disc_with_arc", dwa, dwa, 2),
        ("torus # disc", torus, corpus.disc(), 1),
        ("torus # disc_with_arc", torus, dwa, 2),
        ("torus # torus", torus, torus, 2),
        ("doublecover_g1 # disc_with_arc", dc1, dwa, 2),
    ]
    failures = []
    for label, a, b, k in pairs:
        if witnesses := consum_failures(a, b, k):
            failures.append(f"{label} k={k}: " + "; ".join(witnesses[:2]))
    dim = Algebra.from_surface(boundary_connected_sum(torus, 0, torus, 0), 2).dim
    return _verdict(failures + _mismatches([("dim A(T#T, 2)", dim, 78)]))


def directedness():
    """The double-cover algebras of genus 1 and 2 are directed at every k;
    the one-disc genus-1 algebra at k = 1 is not."""
    checks = [
        (f"doublecover_g{g} k={k} directed", directedness_check(corpus.double_cover_decoration(g), k), True)
        for g in (1, 2)
        for k in range(2 * g + 2)
    ]
    checks.append(("onedisc_g1 k=1 directed", directedness_check(corpus.one_disc_decoration(1), 1), False))
    return _verdict(_mismatches(checks))


def closed_engine_ranks():
    """HF-hat ranks 1 (S^3), 2 (S^1 x S^2) and p (L(p, 1), p = 2..7) from
    the closed-diagram engine, within its budget."""
    t0 = time.monotonic()
    ranks = {name: cf_hat(build()).homology_rank() for name, build in corpus.NAMED_DIAGRAMS.items()}
    failures = _mismatches([("diagram ranks", ranks, corpus.DIAGRAM_RANKS)])
    return _verdict(failures + _over_budget(t0, CLOSED_ENGINE_BUDGET_S), {"diagram_ranks": ranks})


def euler_measure_and_index():
    """Euler measures 1/2 (a bigon) and 0 (a lens-space square), and the
    index formula on the rigid-strip and higher-product cases."""
    checks = [
        ("bigon Euler measure", euler_measure(corpus.bigon_diagram(), DiagramDomain((1, 0))), Fraction(1, 2)),
        ("lens3 square Euler measure", euler_measure(corpus.slope_diagram(3), DiagramDomain((0, 1, 0))), 0),
    ]
    # rigid strips: mu = 2 - l = 1 at l = 1 for any k
    checks += [(f"rigid strip index, k={k}", maslov_index(1, Fraction(0), 1, k), 1) for k in range(6)]
    # the vanishing argument for higher products: e = (l-1)k/4 forces
    # mu = i = 0, while a rigid contribution would need mu = 2 - l < 0
    checks += [
        (f"higher product index, l={levels} k={k}", maslov_index(0, Fraction((levels - 1) * k, 4), levels, k), 0)
        for levels in (3, 4)
        for k in (1, 2, 3)
    ]
    return _verdict(_mismatches(checks))


def module_pairings():
    """On every bundled solid-torus pairing the modules validate and box
    tensor rank = closed-engine rank = morphism complex rank."""
    failures = []
    for name, ma, nd, mr, diag, rank in corpus.load_bundled_pairings():
        validators = {"type A": check_typeA(ma), "type D": check_typeD(nd), "reversed type A": check_typeA(mr)}
        failures += [
            f"{name} {label}: " + "; ".join(rep.failures[:2]) for label, rep in validators.items() if not rep.ok
        ]
        box, mor = box_tensor(ma, nd).homology_rank(), mor_complex(mr, ma).homology_rank()
        closed = cf_hat(diag).homology_rank()
        failures += _mismatches([(f"{name} (box, mor, closed) ranks", (box, mor, closed), (rank,) * 3)])
    return _verdict(failures)


def random_complex(rng: random.Random, na: int, nb: int) -> ChainComplex:
    """A two-step complex: each of the first na generators maps to a random
    subset of the last nb, which are closed, so d² = 0."""
    diff = [rng.getrandbits(nb) << na if nb else 0 for _ in range(na)] + [0] * nb
    return ChainComplex(tuple(f"g{i}" for i in range(na + nb)), tuple(diff))


def randomized_invariants():
    """100 random arc slides keep genus and boundary count; 100 random
    identity cones (1..7 + 0..7 generators) are acyclic."""
    rng = random.Random(SEED)
    pool = [(name, ds) for name, ds in corpus.corpus_surfaces() if ds.n_arcs >= 2]
    checks = []
    while len(checks) < 100:
        name, ds = rng.choice(pool)
        options = slide_options(ds)
        if options:
            i, j, end = rng.choice(options)
            before, after = analyze_surface(ds), analyze_surface(arc_slide(ds, i, j, end))
            checks.append((
                f"{name}: (genus, circles) after sliding arc {i} over {j} at {end}",
                (after.genus, after.num_boundary_circles),
                (before.genus, before.num_boundary_circles),
            ))
    for n in range(100):
        na, nb = rng.randint(1, 7), rng.randint(0, 7)
        rank = mapping_cone(identity_map(random_complex(rng, na, nb))).homology_rank()
        checks.append((f"identity cone #{n} ({na}+{nb} generators) homology rank", rank, 0))
    return _verdict(_mismatches(checks))


CRITERIA = (
    ("algebra-laws", algebra_laws),
    ("dimensions-and-idempotents", dimensions_and_idempotents),
    ("opposite-algebras", opposite_algebras),
    ("connected-sums", connected_sums),
    ("directedness", directedness),
    ("closed-engine-ranks", closed_engine_ranks),
    ("euler-measure-and-index", euler_measure_and_index),
    ("module-pairings", module_pairings),
    ("randomized-invariants", randomized_invariants),
)
