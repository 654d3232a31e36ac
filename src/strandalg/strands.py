"""The finite strand algebra of a decorated surface.

For a decorated surface with n arcs and 0 <= k <= n, the algebra has a basis
of matched chord tuples: a source k-subset s of arcs, a target k-subset t, a
bijection f between them, and for each arc of s either a boundary chord ending
on the matched arc or (when fixed by f) an identity marker.  Each basis
element expands into 2^(#markers) unmatched strand diagrams, one horizontal
strand per marker placed at either endpoint of its arc; the differential and
product are computed on the diagrams (smoothing a crossing with an empty
rectangle; composition where no strand pair crosses in both factors) and read
back in the matched basis.

Algebra elements are named by basis index.  The differential maps an index
to a frozenset of basis indices, its image (a GF(2) sum); the product table
maps a pair of indices to one basis index, since in the matched basis a
product of two basis elements is one basis element or zero.  Basis
descriptors name them in files and failure witnesses.

Each fact about an expansion diagram is computed once.  Building the algebra
enumerates only realizable basis elements and makes each element's index,
expansion and owner entries in one loop.  The first row fill indexes every
diagram in one pass, as a right factor (start mask, step map, start-side
crossing mask) and as a left factor (end-side crossing mask, owner dict),
then lists once per tuple of ends the right diagrams that compose with a
left diagram ending there, with the owner key of each composition.  It runs
then, not at build, so a table corrupted before it is indexed as it stands.

The product table is the list of rows that Algebra.products() returns: row i
maps each j with a_i * a_j = a_o nonzero to the basis index o, and a row not
filled yet is None.  One kernel fills a row, for products() and mul_basis
alike: two diagrams compose only where the end positions of the first are
the start positions of the second, and to a nonzero diagram only where no
strand pair crosses in both, a test of two crossing bitmasks.  It reads each
composition's basis element from an owner index.  An entry whose
compositions are one element's whole expansion (every entry on the corpus
and genus 3 is) is that element's index; any other entry is contracted,
which gives the element or raises its witness, and a sum of two or more
elements raises NotInMatchedSpan naming both factors.  The row of a
one-diagram element has at most one composition per entry, so it is read
straight from the left record, with no owner count.  Every call reads the rows as they stand, so
the law, isomorphism and module checks see a corrupted entry wherever it is.

The differential swaps the ends of crossing strands (p1, q1), (p2, q2),
p1 < p2 and q1 > q2, where their rectangle is empty: no strand (p, q) has
p1 < p < p2 and q2 < q < q1, so the inversion count drops by exactly one.
Which pairs those are depends only on a start-sorted diagram's ends in start
order, so the swaps are found once per tuple of ends, kept in a swap table
on the algebra, and applied to each diagram inline.

check_algebra runs the laws of LAWS in order.  Each maps the algebra and its
product rows to failure witnesses; closure, which has no function, holds when
filling the differential and the product rows raises nothing.  A law that meets
a sum outside the matched span fails with that NotInMatchedSpan as its one line.
Leibniz and assoc make one GF(2) pass per left factor: every term of either
side gives an integer code for its factors and itself, and the codes of odd
count are the residues.  They are reported at every pair or triple where the
table holds a term, composable or not: the fill stores nothing at a key that
does not compose, so an entry there is a corruption like any other.

Algebra.dump(fp) streams the canonical JSON, json.dumps(d, sort_keys=True) +
"\n" for the dict d of basis, differential, k, n_arcs and product triples,
one source block and one product row at a time: no copy of the table is held.
Text shared by many entries is made once: a block's source, a bijection's
head and target, a row's index and each basis index's digits.

Nothing here looks at the complement faces: the algebra depends only on the
intervals, the positions, and the matching.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .inputs import InputError, as_int
from .surface import DecoratedSurface, band_token, boundary_connected_sum, reverse_orientation


class NotInMatchedSpan(ValueError):
    """A GF(2) sum of strand diagrams is not a sum of matched expansions."""


_ZERO: frozenset = frozenset()
_end = operator.itemgetter(1)  # the end of a strand (p, q)


def _no_ends(step) -> tuple:
    """The ends of a diagram with no strand (operator.itemgetter needs one)."""
    return ()


class BasisElement(NamedTuple):
    s: tuple[int, ...]  # source arcs, sorted
    t: tuple[int, ...]  # target arcs, sorted
    f: tuple[int, ...]  # image of s[i] under the matching bijection
    assign: tuple  # per source arc: None for a marker, else the chord (p, q)

    @property
    def marked(self) -> tuple[int, ...]:
        return tuple(a for a, c in zip(self.s, self.assign) if c is None)


def _basis_element(moves: dict) -> BasisElement:
    """The basis element whose moves map each source arc i to (target arc,
    chord), where a chord of None is the identity marker on arc i."""
    s = tuple(sorted(moves))
    f = tuple(moves[i][0] for i in s)
    assign = tuple(moves[i][1] for i in s)
    return BasisElement(s, tuple(sorted(f)), f, assign)


class Algebra:
    """The algebra attached to an interval structure, a matching, and k."""

    def __init__(self, interval_arcs, k: int):
        """interval_arcs: per interval, the arc index at each position.  A k
        outside 0..n_arcs raises InputError with code ``bad-k``."""
        self.interval_arcs = tuple(tuple(iv) for iv in interval_arcs)
        self.n_arcs = max((a + 1 for iv in self.interval_arcs for a in iv), default=0)
        if not 0 <= k <= self.n_arcs:
            raise InputError("bad-k", f"k={k} out of range for {self.n_arcs} arcs")
        self.k = k
        # two algebras are the same exactly where their keys are (n_arcs follows from the intervals)
        self.key = (self.interval_arcs, k)

        self.pos_arc: list[int] = [a for iv in self.interval_arcs for a in iv]
        self.n_positions = len(self.pos_arc)

        self.arc_positions: dict[int, tuple[int, ...]] = {}
        for p, a in enumerate(self.pos_arc):
            self.arc_positions.setdefault(a, ())
            self.arc_positions[a] += (p,)
        for a in range(self.n_arcs):
            if len(ps := self.arc_positions.get(a, ())) != 2:
                raise ValueError(f"arc {a} has {len(ps)} endpoint positions, expected 2")

        # (arc of p, arc of q) -> every chord (p, q), p < q in one interval,
        # interval by interval and in (p, q) order
        self.chords: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        start = 0
        for iv in self.interval_arcs:
            for p, q in itertools.combinations(range(start, start + len(iv)), 2):
                key = (self.pos_arc[p], self.pos_arc[q])
                self.chords[key] = self.chords.get(key, ()) + ((p, q),)
            start += len(iv)

        self.basis: tuple[BasisElement, ...] = tuple(self._enumerate_basis())
        self.index: dict[BasisElement, int] = {}
        # source idempotent -> ascending basis indices with that source; a
        # product a_i * a_j can be nonzero only for j in by_source[t(a_i)]
        self.by_source: dict[tuple, list[int]] = {}
        self._expansions: list[frozenset] = []
        self._owner: dict[tuple, int] = {}
        for i, b in enumerate(self.basis):
            self.index[b] = i
            self.by_source.setdefault(b.s, []).append(i)
            exp = self._expand(b)
            self._expansions.append(exp)
            for d in exp:
                self._owner[d] = i
        self._diff: dict[int, frozenset] = {}
        # ends in start order -> the swaps that smooth a diagram with those ends
        self._swap_table: dict[tuple, tuple] = {}
        # the product table: row i maps j to o where a_i * a_j = a_o; None until filled
        self._rows: list[dict[int, int] | None] = [None] * self.dim
        # the diagram indexes of the row kernel, built on its first use
        self._starting_at: dict[int, list] | None = None
        self._left: list[list[tuple]] = []
        self._owned: dict[int, dict] = {}
        self._sizes: list[int] = []

    @classmethod
    def from_surface(cls, ds: DecoratedSurface, k: int) -> "Algebra":
        return cls(_interval_arcs(ds), k)

    # -- basis -------------------------------------------------------------

    def _enumerate_basis(self):
        """The basis, source set by source set, in the order of a scan over
        every target set t, every f among the permutations of t, and every
        chord choice.  The chord-or-marker pool of each arc pair is gathered
        once per build.  Only realizable elements are made: f extends arc by
        arc of s to target arcs still free that the arc has a chord or marker
        to, and the f of a source block are sorted by (t, f)."""
        pools = {(i, i): (None,) for i in range(self.n_arcs)}  # None: the identity marker
        for ij, chords in self.chords.items():
            pools[ij] = chords + pools.get(ij, ())
        for s in itertools.combinations(range(self.n_arcs), self.k):
            fs = [()]
            for i in s:
                fs = [f + (j,) for f in fs for j in range(self.n_arcs) if (i, j) in pools and j not in f]
            for t, f in sorted((tuple(sorted(f)), f) for f in fs):
                for assign in itertools.product(*[pools[ij] for ij in zip(s, f)]):
                    yield BasisElement(s, t, f, assign)

    @functools.cached_property
    def idempotent_set(self) -> frozenset[int]:
        """The indices of the basis elements with no chord, read from the
        basis on first use (a chord is a non-empty tuple, a marker None)."""
        return frozenset(i for i, b in enumerate(self.basis) if not any(b.assign))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self, desc: dict) -> int:
        """Resolve {"chords": [[p, q], ...], "markers": [arc, ...]} to the
        index of a basis element; positions and arcs are JSON integers."""
        moves = {}
        for p, q in desc.get("chords", ()):
            p, q = as_int(p), as_int(q)
            if not (0 <= p < self.n_positions and 0 <= q < self.n_positions):
                raise ValueError(f"position out of range in chord ({p},{q})")
            i, j = self.pos_arc[p], self.pos_arc[q]
            if (p, q) not in self.chords.get((i, j), ()):
                raise ValueError(f"({p},{q}) is not a chord")
            if i in moves:
                raise ValueError(f"two chords start on arc {i}")
            moves[i] = (j, (p, q))
        for a in map(as_int, desc.get("markers", ())):
            if a in moves:
                clash = "marked twice" if moves[a][1] is None else "both marked and chorded"
                raise ValueError(f"arc {a} {clash}")
            moves[a] = (a, None)
        if len(moves) != self.k:
            raise ValueError(f"descriptor does not select {self.k} distinct arcs")
        i = self.index.get(_basis_element(moves))
        if i is None:
            raise ValueError("descriptor is not a basis element")
        return i

    def descriptor(self, b: BasisElement) -> dict:
        return {
            "chords": sorted(list(c) for c in b.assign if c is not None),
            "markers": sorted(b.marked),
        }

    def describe(self, i: int) -> str:
        """Basis element i as descriptor JSON, for failure witnesses."""
        return json.dumps(self.descriptor(self.basis[i]))

    def describe_sum(self, support) -> str:
        """A GF(2) sum of basis elements as a JSON list of descriptors."""
        return "[" + ", ".join(self.describe(i) for i in sorted(support)) + "]"

    # -- strand diagrams ----------------------------------------------------

    def _expand(self, b: BasisElement) -> frozenset:
        if None not in b.assign:  # no marker: one diagram
            return frozenset((tuple(sorted(b.assign)),))
        fixed = [c for c in b.assign if c is not None]
        spots = [[(p, p) for p in self.arc_positions[a]] for a, c in zip(b.s, b.assign) if c is None]
        return frozenset([tuple(sorted(fixed + list(pick))) for pick in itertools.product(*spots)])

    def _swaps(self, ends: tuple) -> tuple:
        """The (x, y), x < y, whose ends a start-sorted diagram with these
        ends in start order swaps to smooth a crossing whose rectangle holds
        no other strand, stored in the swap table.  Strands run upward within
        an interval, so (p1, q1) and (p2, q2) with p1 < p2 cross exactly where
        q1 > q2, the strands between them in start order are those with p1 < p
        < p2, and swapping their ends keeps the smoothing sorted."""
        swaps = self._swap_table[ends] = tuple(
            (x, y)
            for x, q1 in enumerate(ends)
            for y in range(x + 1, len(ends))
            if q1 > (q2 := ends[y]) and not any(q2 < q < q1 for q in ends[x + 1 : y])
        )
        return swaps

    def contract(self, diagrams) -> frozenset:
        """Express a GF(2) sum of diagrams in the matched basis.

        Matched expansions are pairwise disjoint, so membership in the span
        means the support is a disjoint union of full expansions; anything
        else raises NotInMatchedSpan.  The empty sum is the shared _ZERO.
        The differential contracts every entry; the row kernel contracts only
        an entry that is not one element's whole expansion.
        """
        rem = set(diagrams)
        out = set()
        while rem:
            d = max(rem)
            i = self._owner.get(d)
            if i is None:
                raise NotInMatchedSpan(f"diagram {d} matches no basis element")
            exp = self._expansions[i]
            # an owner whose expansion lacks d is a corrupted table, where
            # rem -= exp could remove nothing and pick d again forever
            if d not in exp or not exp <= rem:
                raise NotInMatchedSpan(f"expansion of {self.describe(i)} only partially present")
            rem -= exp
            out.add(i)
        return frozenset(out) if out else _ZERO

    # -- operations ---------------------------------------------------------

    def diff_basis(self, i: int) -> frozenset:
        """d(a_i): the smoothings of a_i's diagrams, read from the swap table
        by each diagram's ends and handed to contract as a plain list, since
        no two are equal (two diagrams differ in a marker's start, which a
        smoothing keeps, and two crossings change different ends).  An
        element none of whose diagrams has a swap is _ZERO."""
        cached = self._diff.get(i)
        if cached is None:
            table, found = self._swap_table, []
            for d in self._expansions[i]:
                ends = tuple(map(_end, d))
                swaps = table.get(ends)
                if swaps is None:
                    swaps = self._swaps(ends)
                for x, y in swaps:
                    smoothed = list(d)
                    (p1, q1), (p2, q2) = d[x], d[y]
                    smoothed[x], smoothed[y] = (p1, q2), (p2, q1)
                    found.append(tuple(smoothed))
            cached = self._diff[i] = self.contract(found) if found else _ZERO
        return cached

    def mul_basis(self, i: int, j: int) -> frozenset:
        """a_i * a_j as a GF(2) sum, made from the stored index."""
        row = self._rows[i]
        if row is None:
            if self.basis[i].t != self.basis[j].s:
                return _ZERO
            row = self._fill_row(i)
        o = row.get(j)
        return _ZERO if o is None else frozenset((o,))

    def _crossings(self, diagram, side: int) -> int:
        """Bit a * n_positions + b per crossing strand pair with ends a < b on
        side 0 (starts) or 1 (ends).  Positions run interval by interval, so
        strands in different intervals never cross."""
        n, mask = self.n_positions, 0
        for (p1, q1), (p2, q2) in itertools.combinations(diagram, 2):
            if (p1 - p2) * (q1 - q2) < 0:
                a, b = (q1, q2) if side else (p1, p2)
                mask |= 1 << (a * n + b if a < b else b * n + a)
        return mask

    def _fill_row(self, i: int) -> dict[int, int]:
        """Fill row i of the table with the basis index o of a_i * a_j = a_o
        wherever a diagram of a_i composes with one of a_j, and return it.
        Where contract raises, the row stays unfilled.

        The middle positions of a composition are distinct, so its inversion
        count is the sum of its factors' counts less twice the strand pairs
        crossing in both: the inversion counts add exactly where the two
        crossing masks over the middle positions are disjoint.  The starts of
        a left diagram are sorted, so each composition is too.

        No diagram is composed twice: a composition keeps its left diagram's
        starts, two diagrams of a_i differ in a marker's start, and distinct
        right diagrams give distinct step maps.  So the compositions of an
        entry are distinct, and those with owner o are distinct diagrams of
        o's expansion, the only diagrams the owner index gives to o.  Where
        all of an entry's compositions have one owner o and there are
        len(expansion of o) of them, they are exactly o's expansion: the
        entry is a_o, stored as o.  The row is filled from the left records
        that _index_diagrams made for a_i's diagrams on the first fill, whose
        crossing masks and owner keys are already tested and read: each
        composition's owner is looked up in the left diagram's owner dict.
        Every other entry is filled by _contracted.

        Where a_i has one diagram, its one left record gives the row without
        a count: the right diagrams of one start mask belong to distinct
        elements (the diagrams of one element differ in start mask), so each
        j has at most one composition, and the js already ascend.  Its entry
        is o where its owner o has one diagram, else contracted.
        Rows of elements with two or more diagrams gather the owners of each
        j over all their diagrams and count them as above."""
        if self._starting_at is None:
            self._index_diagrams()
        records, sizes = self._left[i], self._sizes
        if len(records) == 1:
            ((_, js, keys), owned), = records
            row = {
                j: o if o is not None and sizes[o] == 1 else self._contracted(i, j)
                for j, o in zip(js, map(owned.get, keys))
            }
            self._rows[i] = row
            return row
        acc: dict[int, list] = {}
        for (_, js, keys), owned in records:
            for j, o in zip(js, map(owned.get, keys)):
                if j in acc:
                    acc[j].append(o)
                else:
                    acc[j] = [o]
        row = {}
        for j in sorted(acc):
            found = acc[j]
            o = found[0]
            row[j] = o if o is not None and found.count(o) == len(found) == sizes[o] else self._contracted(i, j)
        self._rows[i] = row
        return row

    def _index_diagrams(self) -> None:
        """Build the row kernel's indexes in one pass over every expansion
        diagram, on the first fill (so a table corrupted before it is indexed
        as it stands):

        - _starting_at: start mask -> [(j, end by start position, start-side
          crossing mask)];
        - _owned, the owner index: start mask -> ends in start order -> basis
          index, keyed as operator.itemgetter returns them (a tuple, or for
          one strand the end itself).  It takes its owners from _owner, but
          leaves out a diagram that _owner gives to an element whose
          expansion lacks it;
        - _left: per basis index, one record per diagram of its expansion,
          in expansion order: ((end-side crossing mask, js, keys), the _owned
          dict of its start mask).  js are the basis indexes of the right
          diagrams that start at its ends and cross no strand pair it
          crosses, in _starting_at order, and keys the owner keys of the
          compositions.  The first part depends only on the ends in start
          order, so it is made once per ends tuple and shared, and js and
          keys are read once _starting_at is whole;
        - _sizes, the expansion size by basis index."""
        self._starting_at, self._owned, self._left = {}, {}, []
        self._sizes = [len(exp) for exp in self._expansions]
        key = operator.itemgetter(*range(self.k)) if self.k else _no_ends
        shapes: dict[tuple, tuple] = {}
        owner_keys: dict = {}  # one object per owner key, shared by _owned and the left records
        for j, exp in enumerate(self._expansions):
            records = []
            for d in exp:
                starts, step = 0, [0] * self.n_positions
                for p, q in d:
                    step[p], starts = q, starts | 1 << p
                ends, owned = tuple([q for _, q in d]), self._owned.setdefault(starts, {})
                if (shape := shapes.get(ends)) is None:
                    shape = shapes[ends] = (self._crossings(d, 1), [], [])
                # a strand pair crosses on both sides or on neither, and step is
                # a tuple of ints, which the garbage collector stops tracking
                right = self._crossings(d, 0) if shape[0] else 0
                self._starting_at.setdefault(starts, []).append((j, tuple(step), right))
                if self._owner.get(d) == j:
                    kk = key(ends)
                    owned[owner_keys.setdefault(kk, kk)] = j
                records.append((shape, owned))
            self._left.append(records)
        # the right factors of each ends tuple, read once _starting_at is whole
        for ends, (left, js, keys) in shapes.items():
            ends_of = operator.itemgetter(*ends) if ends else _no_ends
            for j, step, right in self._starting_at.get(sum(1 << q for q in ends), ()):
                if not left & right:
                    kk = ends_of(step)
                    js.append(j)
                    keys.append(owner_keys.get(kk, kk))

    def _contracted(self, i: int, j: int) -> int:
        """The basis index of a_i * a_j where its compositions are not one
        element's whole expansion (a corrupted table): the diagrams composed
        in full and contracted, which gives the element or raises the
        witness.  No entry sums to zero, since its compositions are distinct,
        and a sum of two or more elements raises NotInMatchedSpan."""
        found = []
        for d in self._expansions[i]:
            left = self._crossings(d, 1)
            for jj, step, right in self._starting_at.get(sum(1 << q for _, q in d), ()):
                if jj == j and not left & right:
                    found.append(tuple((p, step[q]) for p, q in d))
        out = self.contract(found)
        if len(out) == 1:
            return min(out)
        raise NotInMatchedSpan(
            f"product of {self.describe(i)} and {self.describe(j)} is {self.describe_sum(out)}, not one basis element"
        )

    def products(self) -> list[dict[int, int]]:
        """The product table itself, every row filled: row i maps j to o
        wherever a_i * a_j = a_o is nonzero.  The rows are returned as stored,
        for reading only, so a corrupted entry is read as it stands."""
        for i, row in enumerate(self._rows):
            if row is None:
                self._fill_row(i)
        return self._rows

    def diff_support(self, support: frozenset) -> frozenset:
        acc: frozenset = frozenset()
        for i in support:
            acc ^= self.diff_basis(i)
        return acc

    def mul_support(self, sa: frozenset, sb: frozenset) -> frozenset:
        acc: frozenset = frozenset()
        for i in sa:
            for j in sb:
                acc ^= self.mul_basis(i, j)
        return acc

    def idempotent_index(self, arcs) -> int:
        return self.index[_basis_element({a: (a, None) for a in arcs})]

    # -- dumps ---------------------------------------------------------------

    def dump(self, fp) -> None:
        """Write json.dumps(d, sort_keys=True) + "\n" to the text file fp, for
        d = {k, n_arcs, basis, differential: [i, d(a_i)] per nonzero d(a_i),
        product: [i, j, o] per a_i * a_j = a_o}, all ascending.  Every value is
        an int or a list of ints, whose str() is its JSON.  The tables are
        filled before the first write, so an engine error writes nothing.

        A block's '"source": ..., "target": ' tail is written once per
        block, and a bijection's '{"bijection": ..., "chords": ' head and
        its target once per run of elements sharing it; the markers are
        read from the source and the chord choices.  A product triple is a
        per-row prefix and the str of each index, made once per dump."""
        diff = ", ".join(f"[{i}, {sorted(d)}]" for i in range(self.dim) if (d := self.diff_basis(i)))
        rows, sep = self.products(), ""
        fp.write('{"basis": [')
        for s, block in self.by_source.items():
            tail, f, texts = f', "source": {list(s)}, "target": ', None, []
            for b in map(self.basis.__getitem__, block):
                if b.f != f:  # the elements of one f are adjacent, and f fixes t
                    f = b.f
                    head, end = f'{{"bijection": {list(f)}, "chords": ', f"{tail}{list(b.t)}}}"
                chords = sorted([list(c) for c in b.assign if c is not None])
                markers = [a for a, c in zip(s, b.assign) if c is None]
                texts.append(f'{head}{chords}, "markers": {markers}{end}')
            fp.write(sep + ", ".join(texts))
            sep = ", "
        fp.write(f'], "differential": [{diff}], "k": {self.k}, "n_arcs": {self.n_arcs}, "product": [')
        names, sep = list(map(str, range(self.dim))), ""
        for i, row in enumerate(rows):
            if row:
                pre = f"[{i}, "
                fp.write(sep + ", ".join([f"{pre}{names[j]}, {names[row[j]]}]" for j in sorted(row)]))
                sep = ", "
        fp.write("]}\n")


# ---------------------------------------------------------------------------
# surface-level operations


def _interval_arcs(ds: DecoratedSurface) -> tuple:
    arc_of = {}
    for i, (a, b) in enumerate(ds.arcs):
        arc_of[a] = i
        arc_of[b] = i
    return tuple(tuple(arc_of[t] for t in iv) for iv in ds.intervals())


def _algebra_of(ds: DecoratedSurface, k: int, algebra: Algebra | None) -> Algebra:
    """algebra where given, else a new A(ds, k); an algebra that is not
    A(ds, k) raises ValueError."""
    if algebra is None:
        return Algebra.from_surface(ds, k)
    if algebra.key != (_interval_arcs(ds), k):
        raise ValueError(f"algebra is not the algebra of this surface at k={k}")
    return algebra


@dataclass
class AlgebraCheckReport:
    dim: int
    law_failures: dict  # law name -> its own failure lines, in LAWS order

    @property
    def laws(self) -> dict:
        return {name: not lines for name, lines in self.law_failures.items()}

    @property
    def failures(self) -> list:
        return [line for lines in self.law_failures.values() for line in lines]

    @property
    def ok(self) -> bool:
        return not self.failures


def _d2(alg: Algebra, rows) -> list[str]:
    bad = [(i, r) for i in range(alg.dim) if (r := alg.diff_support(alg.diff_basis(i)))]
    return [f"d2 fails on {alg.describe(i)}: residue {alg.describe_sum(r)}" for i, r in bad[:3]]


def _odd(codes: list[int]) -> list[int]:
    """The codes that occur an odd number of times, in order.  A sorted list
    pairs off position by position exactly where every code occurs an even
    number of times."""
    codes.sort()
    if codes[::2] == codes[1::2]:
        return []
    return sorted(c for c, n in Counter(codes).items() if n & 1)


def _residues(odd: list[int], stride: int) -> list[tuple[int, frozenset]]:
    """Read sorted odd codes, each key * stride + z for a term z at a key,
    as (key, residue) in key order."""
    out: dict[int, set] = {}
    for code in odd:
        key, z = divmod(code, stride)
        out.setdefault(key, set()).add(z)
    return [(key, frozenset(zs)) for key, zs in out.items()]


def _leibniz(alg: Algebra, rows) -> list[str]:
    """d(a_i a_j) = (d a_i) a_j + a_i (d a_j), checked in one GF(2) pass per
    left factor i: each term z of any of the three sums gives the code
    j * dim + z, and the codes of odd count are the residues, at whatever
    pair the table holds a term."""
    dim = alg.dim
    diff = [alg.diff_basis(i) for i in range(dim)]
    # y -> j * dim for every j with y in d(a_j)
    d_into: dict[int, list[int]] = {}
    for j, dj in enumerate(diff):
        for y in dj:
            d_into.setdefault(y, []).append(j * dim)
    bad = []
    for i, row in enumerate(rows):
        terms = [jd + z for j, y in row.items() for jd in (j * dim,) for z in diff[y]]  # d(a_i a_j)
        terms += [j * dim + xj for x in diff[i] for j, xj in rows[x].items()]  # (d a_i) a_j
        # a_i (d a_j), read from a_i y for each y and each j with y in d(a_j)
        terms += [jd + iy for y, iy in row.items() for jd in d_into.get(y, ())]
        if odd := _odd(terms):
            bad += [(i, j, r) for j, r in _residues(odd, dim)]
            if len(bad) >= 3:
                break
    return [
        f"leibniz fails on ({alg.describe(i)}, {alg.describe(j)}): residue {alg.describe_sum(r)}"
        for i, j, r in bad[:3]
    ]


def _assoc(alg: Algebra, rows) -> list[str]:
    """(a_i a_j) a_l = a_i (a_j a_l), checked in one GF(2) pass per left
    factor i: each term z of either side gives the code (j * dim + l) * dim
    + z, and the codes of odd count are the residues, at whatever triple the
    table holds a term."""
    dim = alg.dim
    # per row x, the code l * dim + z of every term z of every a_x a_l
    codes = [[l * dim + xl for l, xl in row.items()] for row in rows]
    # y -> (j * dim + l) * dim for every (j, l) with a_j a_l = a_y
    made_from: dict[int, list[int]] = {}
    for j, row in enumerate(rows):
        for l, y in row.items():
            made_from.setdefault(y, []).append((j * dim + l) * dim)
    dim2 = dim * dim
    bad = []
    for i, row in enumerate(rows):
        terms = [jd + c for j, x in row.items() for jd in (j * dim2,) for c in codes[x]]  # (a_i a_j) a_l
        # a_i (a_j a_l), read from a_i y for each y and each (j, l) with a_j a_l = a_y
        terms += [jl + iy for y, iy in row.items() for jl in made_from.get(y, ())]
        if odd := _odd(terms):
            bad += [(i, *divmod(jl, dim), r) for jl, r in _residues(odd, dim)]
            if len(bad) >= 3:
                break
    return [
        f"assoc fails on ({alg.describe(i)}, {alg.describe(j)}, {alg.describe(l)}): residue {alg.describe_sum(r)}"
        for i, j, l, r in bad[:3]
    ]


def _residue(got, want) -> set:
    """The GF(2) difference of two product entries or their images, each one
    element or None for zero."""
    return set() if got == want else {got, want} - {None}


def _idempotents(alg: Algebra, rows) -> list[str]:
    failures = []
    idems = sorted(alg.idempotent_set)
    for a, b in itertools.product(idems, idems):
        if residue := _residue(rows[a].get(b), a if a == b else None):
            failures.append(
                f"idempotent orthogonality fails on ({alg.describe(a)}, {alg.describe(b)}): "
                f"residue {alg.describe_sum(residue)}"
            )
    # a_i sits between I(s) and I(t).  Orthogonality reads a_i's products
    # with the other idempotents only where a_i is one; an entry stored at
    # any other such key is left to leibniz and assoc
    idem_of = {s: alg.idempotent_index(s) for s in alg.by_source}
    for i, b in enumerate(alg.basis):
        if residue := _residue(rows[idem_of[b.s]].get(i), i) or _residue(rows[i].get(idem_of[b.t]), i):
            failures.append(f"unit law fails on {alg.describe(i)}: residue {alg.describe_sum(residue)}")
            break
    if len(alg.idempotent_set) != comb(alg.n_arcs, alg.k):
        failures.append("idempotent count differs from C(n, k)")
    return failures


LAWS = {"closure": None, "d2": _d2, "leibniz": _leibniz, "assoc": _assoc, "idempotents": _idempotents}
_ROW_LAWS = ("closure", "leibniz", "assoc", "idempotents")  # the laws that read the product rows


def check_algebra(ds: DecoratedSurface, k: int, checks=tuple(LAWS), algebra: Algebra | None = None) -> AlgebraCheckReport:
    """Verify the named laws of LAWS over the whole basis.

    Pass `algebra` to check an already built A(ds, k) and reuse its filled
    tables instead of building it again."""
    if unknown := sorted(set(checks) - LAWS.keys()):
        raise ValueError(f"unknown law(s) {unknown}")
    alg = _algebra_of(ds, k, algebra)
    rows = fill_error = None
    if any(name in checks for name in _ROW_LAWS):
        try:
            for i in range(alg.dim):
                alg.diff_basis(i)
            rows = alg.products()
        except NotInMatchedSpan as e:
            fill_error = e
    law_failures = {}
    for name, law in LAWS.items():
        if name in checks:
            try:
                if fill_error and name in _ROW_LAWS:
                    raise fill_error
                lines = law(alg, rows) if law else []
            except NotInMatchedSpan as e:
                lines = [f"{name}: {e}"]
            law_failures[name] = lines
    return AlgebraCheckReport(dim=alg.dim, law_failures=law_failures)


def _token_positions(ds: DecoratedSurface) -> dict[str, int]:
    """Endpoint token -> algebra position, in position order."""
    return {t: p for p, t in enumerate(t for iv in ds.intervals() for t in iv)}


def _isomorphism_failures(
    alg: Algebra, image, target_dim: int, d_image, want_rows, residue, product_word: str
) -> list[str]:
    """Witnesses that the basis map i -> image[i] is not a bijection onto a
    basis of target_dim elements, or does not carry the differential and
    product of alg to d_image(i), a set of images, and want_rows: the bijection
    witness alone, or the first failing basis element and the first failing
    pair.  residue names a set of images in a witness.

    want_rows holds, for each basis index i in order, a dict j -> the image
    a_i * a_j must map to: the other side's product table pulled back
    through the inverse map.  It is read only once the map is a bijection.
    Each row of alg, mapped, is compared whole with its pulled-back row;
    only a row that differs is searched for its least failing j."""
    n = len(set(image))
    if n != alg.dim or n != target_dim:
        return [f"basis map is not a bijection: {alg.dim} elements, {n} distinct images, {target_dim} targets"]
    failures: list[str] = []
    for i in range(alg.dim):
        if r := {image[x] for x in alg.diff_basis(i)} ^ d_image(i):
            failures.append(f"differential not intertwined at {alg.describe(i)}: residue {residue(r)}")
            break
    for i, (row, want) in enumerate(zip(alg.products(), want_rows)):
        got = {j: image[o] for j, o in row.items()}
        if got != want:
            j = min(j for j in got.keys() | want.keys() if got.get(j) != want.get(j))
            r = _residue(got.get(j), want.get(j))
            failures.append(f"product not {product_word} at ({alg.describe(i)}, {alg.describe(j)}): residue {residue(r)}")
            break
    return failures


def opposite_algebra_map(ds: DecoratedSurface, k: int, algebra: Algebra | None = None):
    """(algebra, reversed algebra, basis map): the chord-reversal map from
    the basis of A(surface, k), the given one or a new one, to the basis of
    the reversed surface's algebra, swapping source and target."""
    alg = _algebra_of(ds, k, algebra)
    rds = reverse_orientation(ds)
    ralg = Algebra.from_surface(rds, k)
    rpos = _token_positions(rds)
    pm = [rpos[t] for t in _token_positions(ds)]

    def op_basis(b: BasisElement) -> int:
        moves = {j: (i, None if c is None else (pm[c[1]], pm[c[0]])) for i, j, c in zip(b.s, b.f, b.assign)}
        return ralg.index[_basis_element(moves)]

    return alg, ralg, [op_basis(b) for b in alg.basis]


def opposite_failures(ds: DecoratedSurface, k: int, algebra: Algebra | None = None) -> list[str]:
    """Witnesses that chord reversal is not an isomorphism onto the opposite
    algebra, one that intertwines differentials and transposes every
    structure constant; empty where it is.  The reversed algebra's rows are
    pulled back transposed: a_i * a_j must map to op(a_j) * op(a_i).  Pass
    `algebra` to check an already built A(ds, k) and reuse its filled
    tables."""
    try:
        alg, ralg, op = opposite_algebra_map(ds, k, algebra)
    except KeyError:
        return ["basis reversal is not well defined"]
    pre = [0] * ralg.dim
    for i, x in enumerate(op):
        pre[x] = i
    want: list[dict[int, int]] = [{} for _ in range(alg.dim)]
    for u, row in enumerate(ralg.products()):
        for v, o in row.items():
            want[pre[v]][pre[u]] = o
    return _isomorphism_failures(
        alg, op, ralg.dim, lambda i: ralg.diff_basis(op[i]), want, ralg.describe_sum, "transposed"
    )


def opposite_check(ds: DecoratedSurface, k: int) -> bool:
    """True iff chord reversal is an isomorphism onto the opposite algebra."""
    return not opposite_failures(ds, k)


def consum_failures(ds1: DecoratedSurface, ds2: DecoratedSurface, k: int, z1: int = 0, z2: int = 0) -> list[str]:
    """Witnesses that the algebra of a boundary connected sum is not the
    direct sum over k1 + k2 = k of tensor products of the summand algebras,
    by a basis bijection intertwining differential and product; empty where
    it is.  The product rows compared with the sum algebra's are the tensor
    products of the summand rows, (a1 (x) a2)(b1 (x) b2) = a1 b1 (x) a2 b2,
    and zero across two summand pairs."""
    dsum = boundary_connected_sum(ds1, z1, ds2, z2)
    n1 = ds1.n_arcs
    asum = Algebra.from_surface(dsum, k)

    # sum-algebra position -> (side, position in that summand's algebra), by band_token's names
    split = {band_token(t, "LR"[side]): (side, p) for side, ds in enumerate((ds1, ds2)) for t, p in _token_positions(ds).items()}
    split_pos = [split[t] for t in _token_positions(dsum)]

    # k1 -> (A1(k1), A2(k - k1)), one entry per summand pair of the direct sum
    summands = {
        k1: (Algebra.from_surface(ds1, k1), Algebra.from_surface(ds2, k - k1))
        for k1 in range(max(0, k - ds2.n_arcs), min(k, n1) + 1)
    }

    def split_basis(b: BasisElement):
        """Split a sum-algebra basis element into its left/right parts."""
        parts = ({}, {})
        for i, j, c in zip(b.s, b.f, b.assign):
            side, off = (0, 0) if i < n1 else (1, n1)
            if c is not None:
                sd1, p = split_pos[c[0]]
                sd2, q = split_pos[c[1]]
                if sd1 != side or sd2 != side:
                    return None
                c = (p, q)
            parts[side][i - off] = (j - off, c)
        return [_basis_element(moves) for moves in parts]

    pair_of: list[tuple[int, int, int]] = []  # (k1, index in A1, index in A2)
    for bi, b in enumerate(asum.basis):
        halves = split_basis(b)
        if halves is None:
            return [f"{asum.describe(bi)} mixes sides"]
        b1, b2 = halves
        k1 = len(b1.s)
        a1, a2 = summands.get(k1, (None, None))
        if a1 is None or b1 not in a1.index or b2 not in a2.index:
            return [f"{asum.describe(bi)} does not split"]
        pair_of.append((k1, a1.index[b1], a2.index[b2]))

    index_of = {p: bi for bi, p in enumerate(pair_of)}
    rows = {k1: (a1.products(), a2.products()) for k1, (a1, a2) in summands.items()}
    # row bi of the tensor product A1(k1) (x) A2(k - k1), pulled back through
    # index_of; made as it is read, since index_of covers every summand pair
    # only where pair_of is a bijection
    want_rows = (
        {index_of[k1, j1, j2]: (k1, u, v) for j1, u in rows[k1][0][i1].items() for j2, v in rows[k1][1][i2].items()}
        for k1, i1, i2 in pair_of
    )

    def d_image(bi):
        k1, i1, i2 = pair_of[bi]
        a1, a2 = summands[k1]
        return {(k1, y, i2) for y in a1.diff_basis(i1)} ^ {(k1, i1, y) for y in a2.diff_basis(i2)}

    return _isomorphism_failures(
        asum,
        pair_of,
        sum(a1.dim * a2.dim for a1, a2 in summands.values()),
        d_image,
        want_rows,
        lambda r: asum.describe_sum(index_of[p] for p in r),
        "intertwined",
    )


def consum_check(ds1: DecoratedSurface, ds2: DecoratedSurface, k: int, z1: int = 0, z2: int = 0) -> bool:
    """True iff the connected-sum algebra is the direct sum of tensor
    products of the summand algebras (see consum_failures)."""
    return not consum_failures(ds1, ds2, k, z1, z2)


def directedness_check(ds: DecoratedSurface, k: int, algebra: Algebra | None = None) -> bool:
    """True iff each hom(D_s, D_s) is spanned by its idempotent and the
    quiver of nonzero off-diagonal hom spaces is acyclic, read from the
    basis of `algebra` where given, else of a new A(ds, k)."""
    alg = _algebra_of(ds, k, algebra)
    edges: dict[tuple, set] = {}
    for i, b in enumerate(alg.basis):
        if i in alg.idempotent_set:
            continue
        if b.s == b.t:
            return False
        edges.setdefault(b.s, set()).add(b.t)
    try:  # the sorter reads the edges as predecessors; a cycle is one either way
        graphlib.TopologicalSorter(edges).prepare()
    except graphlib.CycleError:
        return False
    return True


def brute_force_dimension(ds: DecoratedSurface, k: int) -> int:
    """Independent dimension count, read from the surface alone: the positions
    are the endpoints of ds.intervals() in order, and ds.arcs names the arc of
    each.  For every k arcs, a strand starts at either endpoint of each and
    runs upward within its interval to an endpoint whose arc no earlier strand
    ends on.  Each diagram counts by its matched key, per strand its source
    arc, target arc and chord (p, q), or None where p = q, a marker, which
    either endpoint gives.  No Algebra is built."""
    arc_of = {t: i for i, ends in enumerate(ds.arcs) for t in ends}
    ends_of: list[list[int]] = [[] for _ in ds.arcs]  # arc -> its positions
    above: list[list[tuple]] = []  # position p -> (q, arc of q) for each q >= p in its interval
    for iv in ds.intervals():
        start = len(above)
        arc_at = [arc_of[t] for t in iv]
        for x, i in enumerate(arc_at):
            ends_of[i].append(start + x)
            above.append([(start + y, arc_at[y]) for y in range(x, len(iv))])
    seen = set()
    for arcs in itertools.combinations(range(len(ds.arcs)), k):
        partial = [((), 0)]  # (keys so far, bitmask of the target arcs used)
        for i in arcs:
            partial = [
                (keys + ((i, j, None if p == q else (p, q)),), used | 1 << j)
                for keys, used in partial
                for p in ends_of[i]
                for q, j in above[p]
                if not used >> j & 1
            ]
        seen.update(keys for keys, _ in partial)
    return len(seen)
