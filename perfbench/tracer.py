"""Span tracer for the benchmark's traced run.

The engine is not instrumented.  Instead the tracer wraps the engine's public
functions, on every module that binds them, and records a span per call:
name, start, end, parent span and op id.  The hot per-basis methods of
`Algebra` are called millions of times per pass, so they get running call
counts and self time instead of one span each; the harness snapshots those
totals around every op.  Spans stay in memory and are written out once, at
the end of the run.

A span's self time is its duration minus the time its children cover.  Calls
are strictly nested in one thread, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, kind, layer name, size metric, size function)
#   kind "span": one span per call
#   kind "hot":  aggregated calls and self time, no span
#   kind "count": call count only, adds no frame (time stays in the parent)
TARGETS = [
    *[("surface", f, "span", "surface", None, None) for f in (
        "parse_surface", "serialize_surface", "make_surface", "analyze_surface",
        "reverse_orientation", "boundary_connected_sum", "arc_slide")],
    *[("corpus", f, "span", "corpus", None, None) for f in (
        "corpus_surfaces", "disc", "disc_with_arc", "one_disc_decoration", "torus_decoration",
        "double_cover_decoration", "slope_diagram", "s3_diagram", "isotopic_diagram",
        "torus_algebra", "solid_torus_typeA", "filling_typeD", "filling_reversed_typeA",
        "load_bundled_pairings", "data_dir")],
    ("strands", "Algebra.from_surface", "span", "strands.build", "strands.basis_dim_sum", lambda a, r: r.dim),
    ("strands", "check_algebra", "span", "strands.check", None, None),
    ("strands", "opposite_check", "span", "strands.opposite", None, None),
    ("strands", "consum_check", "span", "strands.consum", None, None),
    ("strands", "directedness_check", "span", "strands.directed", None, None),
    ("strands", "Algebra.dump", "span", "strands.dump", None, None),
    ("strands", "brute_force_dimension", "span", "strands.oracle", None, None),
    ("strands", "Algebra.diff_basis", "hot", "strands.table", None, None),
    ("strands", "Algebra.mul_basis", "hot", "strands.table", None, None),
    ("strands", "Algebra.contract", "hot", "strands.fill", None, None),
    ("strands", "Algebra.diff_support", "hot", "strands.support", None, None),
    ("strands", "Algebra.mul_support", "hot", "strands.support", None, None),
    ("homalg", "ChainComplex.__post_init__", "span", "homalg.complex", "homalg.complex.generators_sum",
     lambda a, r: len(a[0].labels)),
    ("homalg", "homology_rank", "span", "homalg.rank", None, None),
    ("homalg", "gf2_rank_dense", "count", "homalg.rank.dense", None, None),
    ("homalg", "gf2_rank_sparse", "count", "homalg.rank.sparse", None, None),
    ("homalg", "identity_map", "span", "homalg.cone", None, None),
    ("homalg", "mapping_cone", "span", "homalg.cone", None, None),
    ("modules", "box_tensor", "span", "modules.box", "modules.box.generators_sum", lambda a, r: r.rank),
    ("modules", "mor_complex", "span", "modules.mor", None, None),
    ("modules", "check_typeA", "span", "modules.check", None, None),
    ("modules", "check_typeD", "span", "modules.check", None, None),
    ("modules", "load_module", "span", "modules.load", None, None),
    ("modules", "algebra_as_module", "span", "modules.build", None, None),
    ("diagrams", "cf_hat", "span", "diagrams.cf_hat", "diagrams.generators_sum", lambda a, r: r.rank),
    ("cli", "run", "span", "cli.run", None, None),
]


class Tracer:
    """Records spans and counters while active; inactive it records nothing,
    so the workloads can hold one tracer in untraced runs too."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # (name, start, end, parent id, op id, self_s)
        self.stack: list = [[None, 0.0]]  # open frames: [span id, time covered by children]
        self.op = None
        self.totals: dict = {}  # running totals: name -> [calls, self_s] or a number
        self.per_op: dict = {}  # op id -> {name: delta of the running totals}
        self.op_labels: dict = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value) -> None:
        """Add to a counter of the current op (no-op while inactive)."""
        if self.active:
            self.totals[name] = self.totals.get(name, 0) + value

    def _snapshot(self) -> dict:
        return {k: (list(v) if isinstance(v, list) else v) for k, v in self.totals.items()}

    def run_op(self, op_id, label: str, fn):
        """Run fn() as op `op_id`, under a root span named after its kind."""
        self.op = op_id
        self.op_labels[op_id] = label
        before = self._snapshot()
        try:
            return self._span_wrapper("setup" if op_id == "setup" else "op", fn, None, None)()
        finally:
            delta = {}
            for k, v in self.totals.items():
                old = before.get(k)
                if isinstance(v, list):
                    old = old or [0, 0.0]
                    if v[0] != old[0]:
                        delta[k] = [v[0] - old[0], v[1] - old[1]]
                elif v != (old or 0):
                    delta[k] = v - (old or 0)
            self.per_op[op_id] = delta
            self.op = None

    def _span_wrapper(self, name, fn, size_name, size_fn):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans[frame[0]] = (name, start, end, parent[0], tracer.op, end - start - frame[1])
            if size_name is not None:
                tracer.add(size_name, size_fn(args, result))
            return result

        return functools.wraps(fn)(traced)

    def _hot_wrapper(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        rec = self.totals.setdefault(name, [0, 0.0])

        def traced(*args):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - frame[1]

        return functools.wraps(fn)(traced)

    def _count_wrapper(self, name, fn):
        totals = self.totals

        def traced(*args, **kwargs):
            totals[name] = totals.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(traced)

    # -- installing the wrappers -----------------------------------------------

    def install(self, mods) -> None:
        """Wrap every target.  Module functions are replaced on every engine
        module that binds them (the package re-exports most names, and the
        CLI imports them), methods on their class."""
        everything = list(vars(mods).values())
        for module_name, attr, kind, name, size_name, size_fn in TARGETS:
            module = getattr(mods, module_name)
            if kind == "span":
                wrap = lambda fn: self._span_wrapper(name, fn, size_name, size_fn)
            elif kind == "hot":
                wrap = lambda fn: self._hot_wrapper(name, fn)
            else:
                wrap = lambda fn: self._count_wrapper(name, fn)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                new = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            new = wrap(orig)
            for owner in everything:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, key, new)
                        self._undo.append((owner, key, orig))
        self.active = True

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        self.active = False

    # -- results -----------------------------------------------------------

    def layer_totals(self, op_ids) -> dict:
        """Per-layer calls and self time, plus counters, over the given ops."""
        ops = set(op_ids)
        out: dict = {}
        for name, _, _, _, op, self_s in self.spans:
            if op in ops:
                rec = out.setdefault(name, [0, 0.0])
                rec[0] += 1
                rec[1] += self_s
        for op in ops:
            for name, v in self.per_op.get(op, {}).items():
                if isinstance(v, list):
                    rec = out.setdefault(name, [0, 0.0])
                    rec[0] += v[0]
                    rec[1] += v[1]
                else:
                    out[name] = out.get(name, 0) + v
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "self_s"],
            "spans": [list(s) for s in self.spans],
            "ops": {str(k): v for k, v in self.op_labels.items()},
            "per_op_totals": {str(k): v for k, v in self.per_op.items()},
        }
