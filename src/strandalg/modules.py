"""Type A and type D modules over a strand algebra, and their pairings.

A type D module is a map from generators to algebra-tensor-generator sums
whose twisted differential squares to zero.  A type A module is a right
module with finitely many action operations m_{1+j}; coefficients form a
differential algebra, so the validator only needs relations up to a finite
input length.  The box tensor of a type A with a type D module is a finite
GF(2) chain complex; the morphism complex of two type A modules is computed
through a finite dual type D model (see mor_complex).

A generator's idempotent is the algebra's own key for it: the sorted tuple of
k distinct arcs that BasisElement.s and .t and Algebra.by_source use.  So a
label a runs from generator x to y exactly where basis[a].s == idem[x] and
basis[a].t == idem[y], with no conversion between the two sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .homalg import ChainComplex
from .inputs import InputError, as_int
from .strands import Algebra
from .surface import SurfaceError, parse_surface

# longest delta chain box_tensor follows before raising DepthExceeded
MAX_DEPTH = 64


class ModuleFormatError(InputError):
    """Malformed or rejected module data; ``code`` identifies the reason:
    ``syntax`` (not JSON, an unreadable file, or a missing or mistyped
    field), ``bad-descriptor`` (a basis descriptor that names no basis
    element), ``invalid`` (unknown or duplicate generators, an idempotent
    that is not k distinct arcs of the algebra, an entry that runs off an
    idempotent, an idempotent argument, an unknown type, a malformed surface
    or a bad k) or ``mismatch`` (modules of the wrong kinds, or over
    different algebras, paired)."""


class IdempotentMismatch(ModuleFormatError):
    """An operation or delta entry runs off a generator's idempotent."""

    def __init__(self, message: str):
        super().__init__("invalid", message)


class DepthExceeded(RuntimeError):
    """delta iteration passed MAX_DEPTH without vanishing."""


class TruncationUnsound(RuntimeError):
    """The finite morphism-complex model does not apply to this input."""


def _check_idempotents(alg: Algebra, generators, idem: dict) -> None:
    for x in generators:
        if x not in idem:
            raise ModuleFormatError("invalid", f"generator {x!r} has no idempotent")
        if idem[x] not in alg.by_source:
            raise ModuleFormatError("invalid", f"idempotent of {x!r} is not k={alg.k} distinct arcs of the algebra: {list(idem[x])}")


@dataclass
class TypeDModule:
    """delta maps each generator to a GF(2) sum of (algebra basis, generator)
    pairs; entry labels run from the generator's idempotent to the target's."""

    algebra: Algebra
    generators: tuple[str, ...]
    idem: dict
    delta: dict

    def __post_init__(self):
        basis, dim, known = self.algebra.basis, self.algebra.dim, set(self.generators)
        _check_idempotents(self.algebra, self.generators, self.idem)
        if extra := self.delta.keys() - known:
            raise ModuleFormatError("invalid", f"delta of undeclared generators: {', '.join(sorted(map(repr, extra)))}")
        for x in self.generators:
            for a, y in self.delta.get(x, frozenset()):
                if y not in known:
                    raise ModuleFormatError("invalid", f"delta entry {x!r}->{y!r} ends on an undeclared generator")
                if not 0 <= a < dim:
                    raise ModuleFormatError("invalid", f"delta entry {x!r}->{y!r} has basis index {a}, not below dim {dim}")
                if basis[a].s != self.idem[x]:
                    raise IdempotentMismatch(f"delta entry of {x!r} starts off its idempotent")
                if basis[a].t != self.idem[y]:
                    raise IdempotentMismatch(f"delta entry {x!r}->{y!r} ends off the target idempotent")

    def delta_of(self, x) -> frozenset:
        return self.delta.get(x, frozenset())


@dataclass
class TypeAModule:
    """ops[(x, (a_1, ..., a_j))] is the GF(2) sum of outputs of m_{1+j};
    only non-idempotent basis elements may appear as inputs, idempotents act
    strictly unitally."""

    algebra: Algebra
    generators: tuple[str, ...]
    idem: dict
    ops: dict

    def __post_init__(self):
        basis, idempotents = self.algebra.basis, self.algebra.idempotent_set
        dim, known = self.algebra.dim, set(self.generators)
        _check_idempotents(self.algebra, self.generators, self.idem)
        for (x, args), outs in self.ops.items():
            if x not in known:
                raise ModuleFormatError("invalid", f"operation on an undeclared generator {x!r}")
            for a in args:
                if not 0 <= a < dim:
                    raise ModuleFormatError("invalid", f"operation on {x!r} has basis index {a}, not below dim {dim}")
            if not idempotents.isdisjoint(args):
                raise ModuleFormatError("invalid", "idempotent arguments are implicit (strict unitality)")
            if args:
                if basis[args[0]].s != self.idem[x]:
                    raise IdempotentMismatch(f"operation on {x!r} starts off its idempotent")
                for a, b in zip(args, args[1:]):
                    if basis[a].t != basis[b].s:
                        raise IdempotentMismatch(f"operation on {x!r} has a non-composable argument chain")
            tail = basis[args[-1]].t if args else self.idem[x]
            for y in outs:
                if y not in known:
                    raise ModuleFormatError("invalid", f"operation {x!r}->{y!r} lands on an undeclared generator")
                if self.idem[y] != tail:
                    raise IdempotentMismatch(f"operation {x!r}->{y!r} lands off the idempotent")

    @property
    def j_max(self) -> int:
        return max((len(args) for (_, args) in self.ops), default=0)

    def evaluate(self, x, args) -> frozenset:
        """m_{1+j}(x, args) on basis-element arguments, extended strictly
        unitally over idempotents."""
        alg = self.algebra
        if not alg.idempotent_set.isdisjoint(args):
            if len(args) == 1 and alg.basis[args[0]].s == self.idem[x]:
                return frozenset([x])
            return frozenset()
        return self.ops.get((x, tuple(args)), frozenset())


# ---------------------------------------------------------------------------
# file format


def _load_algebra(ref, base_dir) -> Algebra:
    surf = ModuleFormatError.field(ref, "surface", "algebra")
    if isinstance(surf, str):
        path = Path(base_dir or ".") / surf
        text = ModuleFormatError.read_text(path, f"algebra: field 'surface' = {surf!r} is invalid: ")
    else:
        text = json.dumps(surf)
    try:
        ds = parse_surface(text)
    except SurfaceError as e:
        raise ModuleFormatError("invalid", f"algebra: field 'surface' is invalid: {e}") from e
    k = ModuleFormatError.int_field(ref, "k", "algebra")
    try:
        return Algebra.from_surface(ds, k)
    except ValueError as e:
        raise ModuleFormatError("invalid", f"algebra: field 'k' = {k!r} is invalid: {e}") from e


def _basis_index(algebra: Algebra, n: int, desc) -> int:
    """The basis element that descriptor desc of operation n names."""
    try:
        return algebra.basis_index(desc)
    except (ValueError, TypeError, AttributeError) as e:
        raise ModuleFormatError("bad-descriptor", f"operation {n}: bad descriptor {json.dumps(desc, default=repr)}: {e}") from e


def _check_ends(n: int, op: dict, idem: dict) -> None:
    """Operation n must run between declared generators."""
    for end in ("from", "to"):
        g = ModuleFormatError.field(op, end, f"operation {n}")
        if not isinstance(g, str):
            raise ModuleFormatError("syntax", f"operation {n}: field {end!r} is not a generator name: {g!r}")
        if g not in idem:
            raise ModuleFormatError("invalid", f"operation {n} ({op['from']!r} -> {op.get('to')!r}): unknown generator {g!r}")


def _is_json_text(text: str) -> bool:
    """Whether a str source is JSON text, not a path: it starts with '{', or
    it decodes as some other JSON value, which load_module then rejects."""
    if text.lstrip().startswith("{"):
        return True
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def load_module(source, algebra: Algebra | None = None, base_dir=None):
    """Load a type A or type D module from a JSON file path, text, or dict.
    A Path is always a file; a str is JSON text where _is_json_text says so."""
    if isinstance(source, str) and _is_json_text(source):
        data = ModuleFormatError.json(source, "module is ")
    elif isinstance(source, (str, Path)):
        path = Path(source)
        data = ModuleFormatError.json(ModuleFormatError.read_text(path, "module: "), "module is ")
        base_dir = base_dir or path.parent
    else:
        data = source
    kind = ModuleFormatError.field(data, "type", "module")
    if algebra is None:
        algebra = _load_algebra(ModuleFormatError.field(data, "algebra", "module"), base_dir)

    gens = []
    idem = {}
    for n, g in enumerate(ModuleFormatError.list_field(data, "generators", "module")):
        name = ModuleFormatError.field(g, "name", f"generator {n}")
        if not isinstance(name, str):
            raise ModuleFormatError("syntax", f"generator {n}: field 'name' is not a string: {name!r}")
        gens.append(name)
        arcs = ModuleFormatError.field(g, "idempotent", f"generator {n}")
        try:
            idem[name] = tuple(sorted(map(as_int, arcs)))
        except TypeError as e:
            raise ModuleFormatError("syntax", f"generator {n}: field 'idempotent' is not a list of arcs: {arcs!r}") from e
    if len(set(gens)) != len(gens):
        raise ModuleFormatError("invalid", "duplicate generator names")

    if kind == "D":
        delta: dict = {g: set() for g in gens}
        for n, op in enumerate(ModuleFormatError.list_field(data, "operations", "module", ())):
            _check_ends(n, op, idem)
            desc = ModuleFormatError.field(op, "alg", f"operation {n}")
            if not isinstance(desc, dict):
                raise ModuleFormatError("syntax", f"operation {n}: field 'alg' is not an object")
            delta[op["from"]] ^= {(_basis_index(algebra, n, desc), op["to"])}
        return TypeDModule(algebra, tuple(gens), idem, {g: frozenset(v) for g, v in delta.items()})
    if kind == "A":
        ops: dict = {}
        for n, op in enumerate(ModuleFormatError.list_field(data, "operations", "module", ())):
            _check_ends(n, op, idem)
            descs = ModuleFormatError.list_field(op, "alg", f"operation {n}")
            args = [_basis_index(algebra, n, desc) for desc in descs]
            key = (op["from"], tuple(args))
            ops[key] = ops.get(key, frozenset()) ^ {op["to"]}
        ops = {k: v for k, v in ops.items() if v}
        return TypeAModule(algebra, tuple(gens), idem, ops)
    raise ModuleFormatError("invalid", f"unknown module type {kind!r}")


def dump_module(m, algebra_ref: dict) -> dict:
    alg = m.algebra
    data = {
        "algebra": algebra_ref,
        "generators": [
            {"name": g, "idempotent": list(m.idem[g])} for g in m.generators
        ],
    }
    if isinstance(m, TypeDModule):
        data["type"] = "D"
        data["operations"] = [
            {"from": x, "alg": alg.descriptor(alg.basis[a]), "to": y}
            for x in m.generators
            for a, y in sorted(m.delta_of(x), key=lambda t: (t[1], t[0]))
        ]
    else:
        data["type"] = "A"
        data["operations"] = [
            {"from": x, "alg": [alg.descriptor(alg.basis[a]) for a in args], "to": y}
            for (x, args), outs in sorted(m.ops.items(), key=lambda kv: (kv[0][0], kv[0][1]))
            for y in sorted(outs)
        ]
    return data


# ---------------------------------------------------------------------------
# validators


@dataclass
class ModuleCheckReport:
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_typeD(n: TypeDModule) -> ModuleCheckReport:
    """Structure equation: differential of labels plus two-step compositions
    cancel on every generator."""
    alg = n.algebra
    failures = []
    for x in n.generators:
        acc: set = set()
        for a, y in n.delta_of(x):
            for da in alg.diff_basis(a):
                acc ^= {(da, y)}
            for b, z in n.delta_of(y):
                for c in alg.mul_basis(a, b):
                    acc ^= {(c, z)}
        if acc:
            residue = ", ".join(f"({alg.describe(c)}, {z!r})" for c, z in sorted(acc))
            failures.append(f"structure equation fails on {x!r}: residue [{residue}]")
    return ModuleCheckReport(failures)


def _relation_terms(m: TypeAModule, x, args):
    alg = m.algebra
    acc: set = set()
    r = len(args)
    for i in range(r + 1):
        for y in m.evaluate(x, args[:i]):
            acc ^= m.evaluate(y, args[i:])
    for i in range(r):
        for b in alg.diff_basis(args[i]):
            acc ^= m.evaluate(x, args[:i] + (b,) + args[i + 1 :])
    for i in range(r - 1):
        for c in alg.mul_basis(args[i], args[i + 1]):
            acc ^= m.evaluate(x, args[:i] + (c,) + args[i + 2 :])
    return acc


def _composable_chains(alg: Algebra, start: tuple, r: int):
    """Every basis argument tuple of length r whose chain starts at idempotent
    `start` and is composable, in lexicographic order."""
    if r == 0:
        yield ()
        return
    for a in alg.by_source.get(start, ()):
        for rest in _composable_chains(alg, alg.basis[a].t, r - 1):
            yield (a,) + rest


def check_typeA(m: TypeAModule, max_inputs: int | None = None) -> ModuleCheckReport:
    """Module relations over the differential algebra, for all basis argument
    tuples of length <= max_inputs (default j_max + 1).  Only composable chains
    starting at the generator's idempotent are visited: the module has no
    other operation, and the differential and product keep idempotents, so
    every relation on another tuple is zero."""
    alg = m.algebra
    depth = max_inputs if max_inputs is not None else m.j_max + 1
    failures = []
    for r in range(depth + 1):
        for x in m.generators:
            for args in _composable_chains(alg, m.idem[x], r):
                res = _relation_terms(m, x, args)
                if res:
                    inputs = ", ".join(map(alg.describe, args))
                    failures.append(f"relation fails on ({x!r}, [{inputs}]): residue {sorted(res)}")
                    if len(failures) > 4:
                        return ModuleCheckReport(failures)
    return ModuleCheckReport(failures)


def algebra_as_module(alg: Algebra) -> TypeAModule:
    """The algebra as a right module over itself (m1 = differential,
    m2 = product)."""
    gens = tuple(f"b{i}" for i in range(alg.dim))
    idem = {f"b{i}": b.t for i, b in enumerate(alg.basis)}
    ops: dict = {}
    for i, row in enumerate(alg.products()):
        d = alg.diff_basis(i)
        if d:
            ops[(f"b{i}", ())] = frozenset(f"b{j}" for j in d)
        for a, o in row.items():
            if a not in alg.idempotent_set:
                ops[(f"b{i}", (a,))] = frozenset((f"b{o}",))
    return TypeAModule(alg, gens, idem, ops)


# ---------------------------------------------------------------------------
# pairings


def _delta_chains(n: TypeDModule, y, depth: int) -> list:
    """Every delta chain out of y of length 0 to depth, as (labels, end);
    DepthExceeded if a chain of length MAX_DEPTH would be extended."""
    delta = n.delta
    level = chains = [((), y)]
    for j in range(1, depth + 1):
        if j > MAX_DEPTH:
            raise DepthExceeded(f"delta iteration exceeded depth {MAX_DEPTH}")
        level = [(args + (a,), y2) for args, yy in level for a, y2 in delta.get(yy, ())]
        if not level:
            break
        chains = chains + level
    return chains


def box_tensor(m: TypeAModule, n: TypeDModule) -> ChainComplex:
    """Box tensor product: generators are idempotent-matched pairs, the
    differential feeds the delta chains of the type D side, of length 0 to
    max(j_max, 1), into the type A actions.  Chains of length 1 count even
    where the type A side has no action, since an idempotent-labelled arrow
    acts by the unit.  If MAX_DEPTH is hit first, DepthExceeded is raised.

    Pairs are numbered x-major: the pair (x, y) is base[x] + pos[y], where
    base[x] counts the pairs of the type A generators before x and pos[y] is
    y's place among the type D generators of its idempotent.  The chains out
    of y are built once per y that has a partner and fed to every x paired
    with it.  Each (x, chain labels) is evaluated once per call and kept, in
    a dict that the call drops, as the bits base[x2] of its outputs x2, which
    a chain ending at yy shifts by pos[yy].  Outputs off the idempotent of
    the chain's end (only a module changed after validation has them) are an
    IdempotentMismatch.  Wrong kinds or algebras are a "mismatch", a complex
    that does not square to zero "invalid"."""
    if not (isinstance(m, TypeAModule) and isinstance(n, TypeDModule)):
        raise ModuleFormatError("mismatch", "box tensor needs a type A and a type D module, in that order")
    if m.algebra.key != n.algebra.key:
        raise ModuleFormatError("mismatch", "box tensor of modules over different algebras")
    depth = max(m.j_max, 1)

    xs_at, ys_at = {}, {}
    for y in n.generators:
        ys_at.setdefault(n.idem[y], []).append(y)
    pos = {y: i for ys in ys_at.values() for i, y in enumerate(ys)}
    base, total = {}, 0
    for x in m.generators:
        xs_at.setdefault(m.idem[x], []).append(x)
        base[x], total = total, total + len(ys_at.get(m.idem[x], ()))

    diff = [0] * total
    actions: dict = {}  # (x, chain labels) -> (sum of 1 << base[x2] over outputs x2, their idempotents)
    for y in n.generators:
        xs = xs_at.get(n.idem[y])
        if not xs:
            continue
        chains = [(args, pos[yy], n.idem[yy], yy) for args, yy in _delta_chains(n, y, depth)]
        for x in xs:
            mask = 0
            for args, at, end, yy in chains:
                hit = actions.get((x, args))
                if hit is None:
                    outs = m.evaluate(x, args)
                    hit = actions[x, args] = (sum(1 << base[x2] for x2 in outs), {m.idem[x2] for x2 in outs})
                bits, idems = hit
                if bits and idems != {end}:
                    raise IdempotentMismatch(f"action of {x!r} on a delta chain lands off the idempotent of its end {yy!r}")
                mask ^= bits << at
            diff[base[x] + pos[y]] = mask

    labels = tuple([f"{x}|{y}" for x in m.generators for y in ys_at.get(m.idem[x], ())])
    try:
        return ChainComplex(labels, tuple(diff))
    except ValueError as e:
        raise ModuleFormatError("invalid", f"box complex: {e}") from e


def dual_type_d(m: TypeAModule) -> TypeDModule:
    """The action quiver of a dg type A module rewritten as a type D
    structure on the dual generators: an action m2(x, a) = y becomes a delta
    arrow x -> a (x) y, and m1 arrows are labelled by the idempotent."""
    if m.j_max > 1:
        raise TruncationUnsound("dual model needs a dg module (actions m_{1+j}, j <= 1)")
    alg = m.algebra
    delta: dict = {g: set() for g in m.generators}
    for (x, args), outs in m.ops.items():
        lab = args[0] if args else alg.idempotent_index(m.idem[x])
        delta[x] ^= {(lab, y) for y in outs}
    return TypeDModule(alg, m.generators, dict(m.idem), {g: frozenset(v) for g, v in delta.items()})


def nilpotence_order(alg: Algebra) -> int:
    """Smallest j such that all j-fold products of non-idempotent basis
    elements vanish; raises TruncationUnsound if there is none."""
    rows = alg.products()
    aplus = frozenset(range(alg.dim)) - alg.idempotent_set
    cur = aplus
    j = 1
    while cur:
        nxt = frozenset(o for i in cur for a, o in rows[i].items() if a in aplus)
        if nxt == cur:
            raise TruncationUnsound("non-idempotent basis elements are not nilpotent")
        cur = nxt
        j += 1
        if j > alg.dim + 1:
            raise TruncationUnsound("non-idempotent basis elements are not nilpotent")
    return j


def mor_complex(m1: TypeAModule, m2: TypeAModule) -> ChainComplex:
    """Morphism complex of two type A modules over the same algebra.

    The naive bar-type complex Hom(M1 (x) A^j, M2) is infinite whenever the
    algebra has composable chains of every length, so the complex is computed
    through the finite dual model: the dual type D structure of M1 paired
    against M2.  Soundness requires the non-idempotent part of the algebra to
    be nilpotent and the dual of M1 to satisfy the type D structure equation;
    both are checked and TruncationUnsound is raised otherwise.  Wrong kinds
    or algebras are a "mismatch".
    """
    if not (isinstance(m1, TypeAModule) and isinstance(m2, TypeAModule)):
        raise ModuleFormatError("mismatch", "morphism complex needs two type A modules")
    if m1.algebra.key != m2.algebra.key:
        raise ModuleFormatError("mismatch", "morphism complex of modules over different algebras")
    nilpotence_order(m1.algebra)
    dual = dual_type_d(m1)
    rep = check_typeD(dual)
    if not rep.ok:
        raise TruncationUnsound(
            "dual of the source module is not a type D structure: " + "; ".join(rep.failures)
        )
    return box_tensor(m2, dual)
