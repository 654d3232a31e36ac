"""Corruption censuses: how many corrupted tables and modules the checkers
let through.

The algebra census corrupts one entry of a freshly filled table, one seeded
draw of each kind of TABLE_KINDS on each corpus (surface, k) with k >= 1, and
runs check_algebra(ds, k, algebra=alg) on it.  A kind with no place on a
table (no second idempotent, no stored entry of its sort) is not tried there.
The module census deletes each type D arrow, type A operation and reversed
type A operation of the bundled pairings in turn, and adds each type D arrow
with the right idempotents that is not there; it runs the module's validator
and, where that passes, the pairing's rank.

The tests pin both tables.  A stronger checker lowers the pinned escapes:
ROADMAP items 3 (a graded law), 4 (an independent oracle for both tables)
and 11 (the identity type DD relation) are expected to, and each lowering is
a tightening recorded in CHANGES.md.  Run this file as a script to print
both tables:

    python tests/test_census.py
"""

import random
import sys
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the engine is ./src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strandalg.corpus import corpus_surfaces, load_bundled_pairings
from strandalg.modules import (
    DepthExceeded,
    ModuleFormatError,
    TruncationUnsound,
    TypeAModule,
    TypeDModule,
    box_tensor,
    check_typeA,
    check_typeD,
    mor_complex,
)
from strandalg.strands import LAWS, Algebra, check_algebra

TABLE_SEED = 3


def _blocks(alg):
    """(source, target) -> the basis elements between those idempotents."""
    out = {}
    for e, b in enumerate(alg.basis):
        out.setdefault((b.s, b.t), []).append(e)
    return out


def _entries(alg):
    return [(i, j, o) for i, row in enumerate(alg._rows) for j, o in row.items()]


# Each corruption changes one entry of a filled table at a seeded place and
# returns True, or returns False, drawing nothing, where the table has no
# place for it.


def _delete_product(alg, rng):
    if entries := _entries(alg):
        i, j, _ = rng.choice(entries)
        del alg._rows[i][j]
    return bool(entries)


def _replace_product_right(alg, rng):
    blocks, basis = _blocks(alg), alg.basis
    if entries := [(i, j, o) for i, j, o in _entries(alg) if len(blocks[basis[i].s, basis[j].t]) > 1]:
        i, j, o = rng.choice(entries)
        alg._rows[i][j] = rng.choice([e for e in blocks[basis[i].s, basis[j].t] if e != o])
    return bool(entries)


def _set_non_composable(alg, rng):
    basis = alg.basis
    if len(alg.by_source) < 2:
        return False
    i = rng.randrange(alg.dim)
    j = rng.choice([j for j in range(alg.dim) if basis[j].s != basis[i].t])
    alg._rows[i][j] = rng.randrange(alg.dim)
    return True


def _replace_product_wrong(alg, rng):
    basis = alg.basis
    if len(alg.by_source) < 2 or not (entries := _entries(alg)):
        return False
    i, j, _ = rng.choice(entries)
    alg._rows[i][j] = rng.choice([e for e in range(alg.dim) if (basis[e].s, basis[e].t) != (basis[i].s, basis[j].t)])
    return True


def _add_differential(alg, rng):
    blocks, basis, d = _blocks(alg), alg.basis, alg._diff
    if options := [(i, e) for i, b in enumerate(basis) for e in blocks[b.s, b.t] if e not in d[i]]:
        i, e = rng.choice(options)
        d[i] = d[i] | {e}
    return bool(options)


def _delete_differential(alg, rng):
    if terms := [(i, z) for i in range(alg.dim) for z in sorted(alg._diff[i])]:
        i, z = rng.choice(terms)
        alg._diff[i] = alg._diff[i] - {z}
    return bool(terms)


TABLE_KINDS = {
    "product entry deleted": _delete_product,
    "product entry replaced, right idempotents": _replace_product_right,
    "product entry at a non-composable key": _set_non_composable,
    "product entry replaced, wrong idempotents": _replace_product_wrong,
    "differential term added, right idempotents": _add_differential,
    "differential term deleted": _delete_differential,
}


def table_census() -> dict:
    """kind -> Counter of "tried", "escaped" (every law passes) and each
    law's name, counting the cases in which that law fails.  A case that
    raises stops the census with its traceback."""
    rng = random.Random(TABLE_SEED)
    counts = {kind: Counter() for kind in TABLE_KINDS}
    for _, ds in corpus_surfaces():
        for k in range(1, ds.n_arcs + 1):
            for kind, corrupt in TABLE_KINDS.items():
                alg = Algebra.from_surface(ds, k)
                alg.products()
                for i in range(alg.dim):
                    alg.diff_basis(i)
                if not corrupt(alg, rng):
                    continue
                rep = check_algebra(ds, k, algebra=alg)
                tally = counts[kind]
                tally["tried"] += 1
                tally["escaped"] += rep.ok
                tally.update(name for name, ok in rep.laws.items() if not ok)
    return counts


MODULE_KINDS = (
    "type D arrow deleted",
    "type D arrow added, right idempotents",
    "type A operation deleted",
    "reversed type A operation deleted",
)


def _without(m: TypeAModule, key) -> TypeAModule:
    return TypeAModule(m.algebra, m.generators, m.idem, {k: v for k, v in m.ops.items() if k != key})


def _with_delta(n: TypeDModule, x, arrows) -> TypeDModule:
    return TypeDModule(n.algebra, n.generators, n.idem, {**n.delta, x: arrows})


def _module_mutants(ma, nd, mr):
    """(kind, type A, type D, reversed type A) for each corruption of one
    bundled pairing, in a fixed order; each changes one module."""
    alg = nd.algebra
    for x in nd.generators:
        for arrow in sorted(nd.delta_of(x)):
            yield MODULE_KINDS[0], ma, _with_delta(nd, x, nd.delta_of(x) - {arrow}), mr
    for x in nd.generators:
        for a in alg.by_source[nd.idem[x]]:
            for y in nd.generators:
                if nd.idem[y] == alg.basis[a].t and (a, y) not in nd.delta_of(x):
                    yield MODULE_KINDS[1], ma, _with_delta(nd, x, nd.delta_of(x) | {(a, y)}), mr
    for key in sorted(ma.ops):
        yield MODULE_KINDS[2], _without(ma, key), nd, mr
    for key in sorted(mr.ops):
        yield MODULE_KINDS[3], ma, nd, _without(mr, key)


def module_census() -> dict:
    """kind -> Counter of "tried", "caught" by a module validator, and of the
    rest "refused" (a pairing raises a typed error), "wrong rank" and
    "escaped": the box and mor ranks are still right, so the module-pairings
    criterion passes."""
    counts = {kind: Counter() for kind in MODULE_KINDS}
    for _, ma, nd, mr, _, rank in load_bundled_pairings():
        for kind, a, d, r in _module_mutants(ma, nd, mr):
            tally = counts[kind]
            tally["tried"] += 1
            if not (check_typeA(a).ok and check_typeD(d).ok and check_typeA(r).ok):
                tally["caught"] += 1
                continue
            try:
                ranks = box_tensor(a, d).homology_rank(), mor_complex(r, a).homology_rank()
            except (ModuleFormatError, TruncationUnsound, DepthExceeded):
                tally["refused"] += 1
                continue
            tally["escaped" if ranks == (rank, rank) else "wrong rank"] += 1
    return counts


def test_table_census():
    """Tried and escaped per kind; no case raises.  Every entry at a key
    that does not compose fails leibniz or assoc."""
    counts = table_census()
    assert {kind: (tally["tried"], tally["escaped"]) for kind, tally in counts.items()} == {
        "product entry deleted": (203, 7),
        "product entry replaced, right idempotents": (196, 1),
        "product entry at a non-composable key": (132, 0),
        "product entry replaced, wrong idempotents": (132, 0),
        "differential term added, right idempotents": (203, 13),
        "differential term deleted": (105, 18),
    }


def test_module_census():
    """Tried, caught by a validator and escaped per kind, over the six
    bundled pairings; no case is refused by a pairing."""
    counts = module_census()
    assert not any(tally["refused"] for tally in counts.values())
    assert {kind: (tally["tried"], tally["caught"], tally["escaped"]) for kind, tally in counts.items()} == {
        "type D arrow deleted": (15, 0, 0),
        "type D arrow added, right idempotents": (167, 91, 75),
        "type A operation deleted": (42, 36, 1),
        "reversed type A operation deleted": (7, 0, 2),
    }


def _table(columns, counts) -> str:
    lines = ["| corruption | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    lines += [f"| {kind} | " + " | ".join(str(tally[c]) for c in columns) + " |" for kind, tally in counts.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    print(f"Algebra tables, seed {TABLE_SEED}; a law's column counts the cases it fails.\n")
    print(_table(["tried", "escaped", *LAWS], table_census()))
    print("\nModule pairings, the six bundled ones.\n")
    print(_table(["tried", "caught", "refused", "wrong rank", "escaped"], module_census()))
