"""Command line interface: one binary, machine-readable reports.

Every subcommand produces a RunReport; ``--json`` writes it to a file as
canonical JSON (sorted keys, no timing) so identical inputs give
byte-identical reports.  Exit status is 0 iff every requested check passed.
An exception becomes one failed ``error`` check whose detail names its class,
so a rejected input names its InputError subclass.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .diagrams import (
    cf_hat,
    euler_measure,
    maslov_index,
    parse_diagram,
    parse_domain,
)
from .inputs import InputError
from .modules import (
    ModuleFormatError,
    TypeDModule,
    box_tensor,
    check_typeA,
    check_typeD,
    load_module,
    mor_complex,
)
from .strands import (
    LAWS,
    Algebra,
    check_algebra,
    consum_failures,
    directedness_check,
    opposite_failures,
)
from .surface import analyze_surface, arc_slide, parse_surface, serialize_surface


@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timing_ms: float | None = None

    def add_check(self, name: str, ok: bool, detail: str = ""):
        entry = {"name": name, "pass": bool(ok)}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        # timing is measured but excluded from the canonical report so that
        # identical inputs produce byte-identical files
        data = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "pass": self.ok,
            "timing_ms": None,
        }
        return json.dumps(data, sort_keys=True, indent=1) + "\n"

    def human(self) -> str:
        lines = [f"command: {self.command}"]
        for k in sorted(self.results):
            lines.append(f"  {k}: {self.results[k]}")
        for c in self.checks:
            mark = "PASS" if c["pass"] else "FAIL"
            detail = f"  ({c['detail']})" if c.get("detail") else ""
            lines.append(f"  [{mark}] {c['name']}{detail}")
        if self.timing_ms is not None:
            lines.append(f"  time: {self.timing_ms:.0f} ms")
        lines.append("result: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def _read(report: RunReport, path) -> str:
    """The text of an input file, the hash of its bytes recorded in the
    report (UTF-8 text encodes back to exactly the bytes read)."""
    text = InputError.read_text(path)
    report.inputs[str(path)] = hashlib.sha256(text.encode()).hexdigest()
    return text


def _load_surface(report, path):
    return parse_surface(_read(report, path))


def _module_with_inputs(report, path):
    """The module at path, parsed from the one text whose hash is recorded."""
    data = ModuleFormatError.json(_read(report, path), "module is ")
    return load_module(data, base_dir=Path(path).parent)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args, report):
    ds = _load_surface(report, args.surface)
    rep = analyze_surface(ds)
    report.results.update(
        genus=rep.genus,
        boundary_circles=rep.num_boundary_circles,
        faces=len(rep.faces),
        face_z_counts=[f.z_count for f in rep.faces],
        every_face_marked=rep.every_face_marked,
        single_disc_faces=rep.single_disc_faces,
        canonical=serialize_surface(ds),
    )
    report.add_check("valid-surface", True)


def _cmd_algebra(args, report):
    ds = _load_surface(report, args.surface)
    alg = Algebra.from_surface(ds, args.k)
    report.results["dimension"] = alg.dim
    report.results["idempotents"] = len(alg.idempotent_set)
    which = args.check or []
    if "all" in which:
        which = [*LAWS, "op", "directed"]
    law_names = [c for c in which if c in LAWS]
    if law_names:
        rep = check_algebra(ds, args.k, checks=tuple(law_names), algebra=alg)
        for name in law_names:
            report.add_check(name, rep.laws[name], "; ".join(rep.law_failures[name][:1]))
    if "op" in which:
        failures = opposite_failures(ds, args.k, algebra=alg)
        report.add_check("opposite", not failures, "; ".join(failures[:1]))
    if "directed" in which:
        report.results["directed"] = directedness_check(ds, args.k, algebra=alg)
    if args.dump:
        for i in range(alg.dim):  # fill the tables first: an engine error leaves no dump file
            alg.diff_basis(i)
        alg.products()
        with open(args.dump, "w") as fp:
            alg.dump(fp)
        report.results["dump"] = args.dump


def _cmd_op_check(args, report):
    ds = _load_surface(report, args.surface)
    failures = opposite_failures(ds, args.k)
    report.add_check("opposite", not failures, "; ".join(failures[:2]))


def _cmd_consum(args, report):
    ds1 = _load_surface(report, args.surface1)
    ds2 = _load_surface(report, args.surface2)
    failures = consum_failures(ds1, ds2, args.k, args.z1, args.z2)
    report.add_check("connected-sum", not failures, "; ".join(failures[:2]))


def _cmd_slide(args, report):
    ds = _load_surface(report, args.surface)
    out = arc_slide(ds, args.arc, args.over, args.end)
    text = serialize_surface(out)
    if args.out:
        Path(args.out).write_text(text + "\n")
    report.results["surface"] = text
    rep = analyze_surface(out)
    report.results["genus"] = rep.genus
    report.add_check("slide-valid", True)


def _cmd_hfhat(args, report):
    c = cf_hat(parse_diagram(_read(report, args.diagram)))
    report.results["generators"] = c.rank
    report.results["rank"] = c.homology_rank()
    if args.complex:
        Path(args.complex).write_text(c.to_json() + "\n")
        report.results["complex"] = args.complex
    report.add_check("d-squared-zero", True)


def _cmd_euler(args, report):
    d = parse_diagram(_read(report, args.diagram))
    phi = parse_domain(_read(report, args.domain))
    e = euler_measure(d, phi)
    report.results["euler_measure"] = str(e)
    report.add_check("euler", True)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}: {e}") from None


def _cmd_index(args, report):
    mu = maslov_index(args.i, args.e, args.l, args.k)
    report.results["maslov_index"] = str(mu)
    report.add_check("index", True)


def _cmd_checkmod(args, report):
    m = _module_with_inputs(report, args.module)
    if isinstance(m, TypeDModule):
        rep = check_typeD(m)
        report.results["type"] = "D"
    else:
        rep = check_typeA(m)
        report.results["type"] = "A"
        report.results["j_max"] = m.j_max
    report.results["generators"] = len(m.generators)
    report.add_check("structure-equations", rep.ok, "; ".join(rep.failures[:2]))


def _cmd_pair(args, report):
    ma = _module_with_inputs(report, args.type_a)
    nd = _module_with_inputs(report, args.type_d)
    c = box_tensor(ma, nd)
    report.results["generators"] = c.rank
    if args.rank:
        report.results["rank"] = c.homology_rank()
    report.add_check("d-squared-zero", True)


def _cmd_mor(args, report):
    m1 = _module_with_inputs(report, args.module1)
    m2 = _module_with_inputs(report, args.module2)
    c = mor_complex(m1, m2)
    report.results["generators"] = c.rank
    if args.rank:
        report.results["rank"] = c.homology_rank()
    report.add_check("d-squared-zero", True)


def _cmd_suite(args, report):
    from .acceptance import CRITERIA  # imported here: no other subcommand compiles the gate

    for name, criterion in CRITERIA:
        ok, detail, results = criterion()
        report.add_check(name, ok, detail)
        report.results.update(results)


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs more than most runs
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="strandalg")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="FILE", help="write the report as canonical JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("validate", help="parse and analyze a surface file")
    p.add_argument("surface")
    p.set_defaults(fn=_cmd_validate)

    p = add("algebra", help="build the algebra of a surface")
    p.add_argument("surface")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dump", metavar="FILE")
    p.add_argument("--check", action="append", choices=["all", *LAWS, "op", "directed"])
    p.set_defaults(fn=_cmd_algebra)

    p = add("op-check", help="opposite-algebra isomorphism check")
    p.add_argument("surface")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_op_check)

    p = add("consum", help="boundary connected sum decomposition check")
    p.add_argument("surface1")
    p.add_argument("surface2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z1", type=int, default=0)
    p.add_argument("--z2", type=int, default=0)
    p.set_defaults(fn=_cmd_consum)

    p = add("slide", help="slide one arc over another")
    p.add_argument("surface")
    p.add_argument("--arc", type=int, required=True)
    p.add_argument("--over", type=int, required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_slide)

    p = add("hfhat", help="homology rank of a nice closed diagram")
    p.add_argument("diagram")
    p.add_argument("--complex", metavar="FILE")
    p.set_defaults(fn=_cmd_hfhat)

    p = add("euler", help="Euler measure of a domain")
    p.add_argument("diagram")
    p.add_argument("domain")
    p.set_defaults(fn=_cmd_euler)

    p = add("index", help="index formula i + 2e - (l-1)k/2")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--e", type=_fraction, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_index)

    p = add("checkmod", help="validate a module file")
    p.add_argument("module")
    p.set_defaults(fn=_cmd_checkmod)

    p = add("pair", help="box tensor of a type A and a type D file")
    p.add_argument("type_a")
    p.add_argument("type_d")
    p.add_argument("--rank", action="store_true")
    p.set_defaults(fn=_cmd_pair)

    p = add("mor", help="morphism complex of two type A files")
    p.add_argument("module1")
    p.add_argument("module2")
    p.add_argument("--rank", action="store_true")
    p.set_defaults(fn=_cmd_mor)

    p = add("suite", help="run the acceptance gate")
    p.set_defaults(fn=_cmd_suite)

    return ap


def run(argv) -> tuple[int, RunReport]:
    args = build_parser().parse_args(argv)
    report = RunReport(command=args.cmd)
    t0 = time.perf_counter()
    try:
        args.fn(args, report)
    except Exception as e:  # surface errors, module errors, file errors
        report.add_check("error", False, f"{type(e).__name__}: {e}")
    report.timing_ms = (time.perf_counter() - t0) * 1000
    if args.json:
        Path(args.json).write_text(report.to_json())
    return (0 if report.ok else 1), report


def main(argv=None) -> int:
    status, report = run(sys.argv[1:] if argv is None else argv)
    print(report.human())
    return status
