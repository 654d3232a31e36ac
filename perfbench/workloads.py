"""The benchmark's workloads: each turns a seed into a list of ops.

An op is one verdict: a callable returning an observed answer and the answer
it must equal.  Ops reach the engine only through its public functions, and
they look every function up on its module when they run, so the traced run
can swap in wrapped versions without rebuilding the ops.

Every op builds its own algebras, modules and complexes, so no engine cache
stays warm from one pass to the next.  The seed changes what the inputs
contain (which slides, which random complexes, how a surface's arcs and
endpoints are labelled), never how much work they take.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    expected: object


def relabeled(m, ds, rng: random.Random):
    """The same surface with its arcs listed in a seeded order and its
    endpoints renamed.  The algebra is isomorphic, so dimensions and the
    amount of work are unchanged."""
    ends = list(ds.endpoints)
    names = [f"e{i}" for i in range(1, len(ends) + 1)]
    rng.shuffle(names)
    rename = dict(zip(ends, names), z="z")
    arcs = [[rename[a], rename[b]] for a, b in ds.arcs]
    rng.shuffle(arcs)
    return m.surface.make_surface([[rename[t] for t in c] for c in ds.circles], arcs)


def sparse_complex(rng: random.Random, n: int):
    """Labels and differential of an n-generator complex: the first half maps
    to one to three random generators of the second half, which is closed,
    so the differential squares to zero."""
    half = n // 2
    diff = []
    for _ in range(half):
        mask = 0
        for _ in range(rng.randint(1, 3)):
            mask |= 1 << (half + rng.randrange(n - half))
        diff.append(mask)
    diff += [0] * (n - half)
    return tuple(f"g{i}" for i in range(n)), tuple(diff)


def _cone_rank(m, labels, diff):
    c = m.homalg.ChainComplex(labels, diff)
    return m.homalg.mapping_cone(m.homalg.identity_map(c)).homology_rank()


def _bundled_pairing(m, p):
    """The three-way pairing verdict of one bundled solid-torus filling:
    validators, box tensor rank, mor complex rank, closed-engine rank."""
    base = m.corpus.data_dir()
    alg = m.corpus.torus_algebra()
    ma = m.modules.load_module(base / p["type_a"], algebra=alg)
    nd = m.modules.load_module(base / p["type_d"], algebra=alg)
    mr = m.modules.load_module(base / p["reversed_type_a"], algebra=alg)
    valid = (
        m.modules.check_typeA(ma).ok
        and m.modules.check_typeD(nd).ok
        and m.modules.check_typeA(mr).ok
    )
    return (
        valid,
        m.modules.box_tensor(ma, nd).homology_rank(),
        m.modules.mor_complex(mr, ma).homology_rank(),
        m.diagrams.cf_hat(m.corpus.NAMED_DIAGRAMS[p["diagram"]]()).homology_rank(),
    )


def _slide_options(ds):
    """(arc, arc slid over, endpoint) for every legal slide of ds."""
    options = []
    for i in range(ds.n_arcs):
        for end in ds.arcs[i]:
            ci, ni = next(
                (a, b) for a, c in enumerate(ds.circles) for b, t in enumerate(c) if t == end
            )
            nxt = ds.circles[ci][(ni + 1) % len(ds.circles[ci])]
            if nxt != "z" and ds.arc_of(nxt) != i:
                options.append((i, ds.arc_of(nxt), end))
    return options


def _slide_keeps_topology(m, ds, i, j, end):
    before = m.surface.analyze_surface(ds)
    after = m.surface.analyze_surface(m.surface.arc_slide(ds, i, j, end))
    return (before.genus, before.num_boundary_circles) == (after.genus, after.num_boundary_circles)


# ---------------------------------------------------------------------------
# gate: the acceptance criteria, one op per verdict


def gate(m, seed: int, workdir: Path, tracer):
    """Every item of the acceptance gate, taking the stronger parameter set
    where the pytest gate and `strandalg suite` differ."""
    c, s = m.corpus, m.strands
    ops = []
    for name, ds in c.corpus_surfaces():
        for k in range(ds.n_arcs + 1):
            ops.append(Op(f"laws {name} k={k}", lambda ds=ds, k=k: s.check_algebra(ds, k).ok, True))
            ops.append(Op(f"opposite {name} k={k}", lambda ds=ds, k=k: s.opposite_check(ds, k), True))

    torus = c.torus_decoration()
    for k, dim in enumerate((1, 8, 7)):
        ops.append(Op(
            f"torus dim k={k}",
            lambda k=k: (s.Algebra.from_surface(torus, k).dim, s.brute_force_dimension(torus, k)),
            (dim, dim),
        ))

    sums = [
        (c.disc_with_arc(), c.disc_with_arc(), 1),
        (c.disc_with_arc(), c.disc_with_arc(), 2),
        (torus, c.disc(), 1),
        (torus, c.disc_with_arc(), 2),
        (torus, torus, 2),
        (c.double_cover_decoration(1), c.disc_with_arc(), 2),
    ]
    for n, (a, b, k) in enumerate(sums):
        ops.append(Op(f"consum #{n} k={k}", lambda a=a, b=b, k=k: s.consum_check(a, b, k), True))
    ops.append(Op(
        "dim A(T#T, 2)",
        lambda: s.Algebra.from_surface(m.surface.boundary_connected_sum(torus, 0, torus, 0), 2).dim,
        78,
    ))

    for g in (1, 2):
        ds = c.double_cover_decoration(g)
        for k in range(2 * g + 2):
            ops.append(Op(f"directed doublecover_g{g} k={k}", lambda ds=ds, k=k: s.directedness_check(ds, k), True))
    onedisc = c.one_disc_decoration(1)
    ops.append(Op("directed onedisc_g1 k=1", lambda: s.directedness_check(onedisc, 1), False))

    diagram_ranks = {"s3": 1, "s1s2": 2, **{f"lens{p}": p for p in range(2, 8)}}
    for name, rank in diagram_ranks.items():
        ops.append(Op(
            f"hfhat {name}",
            lambda name=name: m.diagrams.cf_hat(c.NAMED_DIAGRAMS[name]()).homology_rank(),
            rank,
        ))

    for p in c.PAIRINGS:
        r = p["rank"]
        ops.append(Op(f"pairing {p['name']}", lambda p=p: _bundled_pairing(m, p), (True, r, r, r)))

    rng = random.Random(seed)
    pool = [ds for _, ds in c.corpus_surfaces() if ds.n_arcs >= 2]
    slides = 0
    while slides < 100:
        ds = rng.choice(pool)
        options = _slide_options(ds)
        if options:
            slides += 1
            i, j, end = rng.choice(options)
            ops.append(Op(
                f"slide arc {i} over {j} at {end}",
                lambda ds=ds, i=i, j=j, end=end: _slide_keeps_topology(m, ds, i, j, end),
                True,
            ))

    for n in range(100):
        na, nb = rng.randint(1, 7), rng.randint(0, 7)
        diff = tuple([rng.getrandbits(nb) << na if nb else 0 for _ in range(na)] + [0] * nb)
        labels = tuple(f"g{i}" for i in range(na + nb))
        ops.append(Op(f"cone #{n} ({na}+{nb})", lambda l=labels, d=diff: _cone_rank(m, l, d), 0))
    return ops, []


# ---------------------------------------------------------------------------
# genus3: large algebras past the gate, through the command line


# SHA-256 of `strandalg algebra <surface> --k 2 --dump` on the canonical
# genus-3 decorations, recorded from the engine before any optimisation.
DUMP_DIGESTS = {
    "onedisc_g3": "a16303e1952f6c7532a8877a09bad63ed63ce72a3a7363756e58ac0d00d76b10",
    "doublecover_g3": "40024c2f36b7b7be5c564a6ae6b5ede482796d741c16e7a2f8fd284ada200fda",
}
GENUS3_DIMS = {("onedisc_g3", 1): 72, ("onedisc_g3", 2): 1589,
               ("doublecover_g3", 1): 49, ("doublecover_g3", 2): 791,
               ("doublecover_g3", 3): 5075}
LAWS = ("closure", "d2", "leibniz", "idempotents")


def _cli_algebra(m, workdir: Path, tag: str, surface_file: Path, k: int, checks, dump: bool, tracer):
    """Run `strandalg algebra` in-process; the observed answer is the exit
    status, the reported dimension and the digest of the dump file."""
    report_file = workdir / f"{tag}.report.json"
    argv = ["algebra", str(surface_file), "--k", str(k), "--json", str(report_file)]
    for check in checks:
        argv += ["--check", check]
    dump_file = workdir / f"{tag}.dump.json"
    if dump:
        argv += ["--dump", str(dump_file)]
    status, report = m.cli.run(argv)
    written = report_file.stat().st_size
    digest = None
    if dump:
        data = dump_file.read_bytes()
        written += len(data)
        digest = hashlib.sha256(data).hexdigest()
    tracer.add("cli.bytes_written", written)
    return status, report.results.get("dimension"), digest


def genus3(m, seed: int, workdir: Path, tracer):
    """Large genus-3 algebras outside the gate.  The law-check ops read
    surfaces relabeled from the seed; the dump ops read the canonical
    surfaces so their bytes can be compared with recorded digests.  The
    dim-5075 algebra is checked for d2 only: its full law set takes 7 s,
    which would leave too few passes in a run."""
    rng = random.Random(seed)
    canonical = {"onedisc_g3": m.corpus.one_disc_decoration(3),
                 "doublecover_g3": m.corpus.double_cover_decoration(3)}
    files = {}
    for name, ds in canonical.items():
        for variant, surf in (("seeded", relabeled(m, ds, rng)), ("canonical", ds)):
            path = workdir / f"{name}.{variant}.json"
            path.write_text(m.surface.serialize_surface(surf) + "\n")
            files[name, variant] = path

    items = [
        ("onedisc_g3", 1, LAWS, False),
        ("onedisc_g3", 2, LAWS, False),
        ("doublecover_g3", 1, LAWS, False),
        ("doublecover_g3", 2, LAWS + ("assoc",), False),
        ("doublecover_g3", 3, ("d2",), False),
        ("onedisc_g3", 2, (), True),
        ("doublecover_g3", 2, (), True),
    ]
    ops = []
    for n, (name, k, checks, dump) in enumerate(items):
        surface_file = files[name, "canonical" if dump else "seeded"]
        label = f"{name} k={k} " + ("dump" if dump else "+".join(checks))
        ops.append(Op(
            label,
            lambda f=surface_file, k=k, checks=checks, dump=dump, n=n: _cli_algebra(
                m, workdir, f"op{n}", f, k, checks, dump, tracer),
            (0, GENUS3_DIMS[name, k], DUMP_DIGESTS[name] if dump else None),
        ))

    # The dimension oracle cross-checks the seeded surfaces once per run,
    # outside the timed passes, wherever it takes under 0.1 s (not at dim 5075).
    oracle = []
    for (name, k), dim in GENUS3_DIMS.items():
        if (name, k) == ("doublecover_g3", 3):
            continue
        ds = m.surface.parse_surface(files[name, "seeded"].read_text())
        oracle.append(Op(f"brute-force dim {name} k={k}",
                         lambda ds=ds, k=k: m.strands.brute_force_dimension(ds, k), dim))
    return ops, oracle


# ---------------------------------------------------------------------------
# ladder: large module, diagram and elimination inputs over the torus algebra

# Framings q of the solid-torus ladder.  The box complex has 3q + 2
# generators, so q >= 2731 puts it past homalg.DENSE_LIMIT (8192) onto the
# sparse elimination path; 2700 stays just below it.
LADDER_Q = (1, 2, 3, 4, 5, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 2700, 3000, 3500, 4000)
# Generator counts of the random complexes whose identity cones (twice the
# size) are ranked: 8000 stays dense, 8400 and 9200 go sparse.
CONE_SIZES = (512, 2048, 4000, 4200, 4600)


def _box_rank(m, q):
    alg = m.corpus.torus_algebra()
    return m.modules.box_tensor(m.corpus.solid_torus_typeA(alg), m.corpus.filling_typeD(q, alg)).homology_rank()


def ladder(m, seed: int, workdir: Path, tracer):
    """The pairing theorem at sizes the bundled corpus never reaches: for
    every framing q, box-tensor rank = closed-diagram rank = q."""
    c = m.corpus
    ops = []
    for q in LADDER_Q:
        ops.append(Op(f"typeD filling q={q}",
                      lambda q=q: m.modules.check_typeD(c.filling_typeD(q, c.torus_algebra())).ok, True))
        ops.append(Op(f"box rank q={q}", lambda q=q: _box_rank(m, q), q))
        ops.append(Op(f"hfhat slope q={q}",
                      lambda q=q: m.diagrams.cf_hat(c.slope_diagram(q)).homology_rank(), q))

    base = c.data_dir()
    for p in c.PAIRINGS:
        def mor_rank(p=p):
            alg = c.torus_algebra()
            ma = m.modules.load_module(base / p["type_a"], algebra=alg)
            mr = m.modules.load_module(base / p["reversed_type_a"], algebra=alg)
            return m.modules.mor_complex(mr, ma).homology_rank()
        ops.append(Op(f"mor rank {p['name']}", mor_rank, p["rank"]))

    rng = random.Random(seed)
    dc3 = relabeled(m, c.double_cover_decoration(3), rng)
    ops.append(Op(
        "typeA A(doublecover_g3, 1) as a module",
        lambda: m.modules.check_typeA(
            m.modules.algebra_as_module(m.strands.Algebra.from_surface(dc3, 1)), max_inputs=2).ok,
        True,
    ))
    for n in CONE_SIZES:
        labels, diff = sparse_complex(rng, n)
        ops.append(Op(f"identity cone {2 * n}", lambda l=labels, d=diff: _cone_rank(m, l, d), 0))
    return ops, []


WORKLOADS = {"gate": gate, "genus3": genus3, "ladder": ladder}
