import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from strandalg import cli, corpus
from strandalg.acceptance import CRITERIA
from strandalg.cli import run
from strandalg.corpus import data_dir
from strandalg.diagrams import parse_diagram
from strandalg.inputs import InputError
from strandalg.strands import Algebra, NotInMatchedSpan
from strandalg.surface import parse_surface, reverse_orientation

DATA = data_dir()
TORUS = str(DATA / "surfaces" / "torus.json")
DISC1 = str(DATA / "surfaces" / "disc_with_arc.json")
LENS5 = str(DATA / "diagrams" / "lens5.json")
TYPE_A = str(DATA / "modules" / "solid_torus_typeA.json")
TYPE_D = str(DATA / "modules" / "filling3_typeD.json")
REV_A = str(DATA / "modules" / "filling3_rev_typeA.json")


# the bundled example files are copies of the corpus builders
BUILDERS = {
    "surfaces/disc.json": (parse_surface, corpus.disc),
    "surfaces/disc_with_arc.json": (parse_surface, corpus.disc_with_arc),
    "surfaces/torus.json": (parse_surface, corpus.torus_decoration),
    "surfaces/doublecover_g1.json": (parse_surface, lambda: corpus.double_cover_decoration(1)),
    "surfaces/doublecover_g2.json": (parse_surface, lambda: corpus.double_cover_decoration(2)),
    "surfaces/onedisc_g2.json": (parse_surface, lambda: corpus.one_disc_decoration(2)),
    **{f"diagrams/{name}.json": (parse_diagram, build) for name, build in corpus.NAMED_DIAGRAMS.items()},
}


@pytest.mark.parametrize(
    "path",
    sorted(p.relative_to(DATA).as_posix() for kind in ("surfaces", "diagrams") for p in (DATA / kind).glob("*.json")),
)
def test_bundled_surfaces_and_diagrams_match_builders(path):
    parse, build = BUILDERS[path]
    assert parse((DATA / path).read_text()) == build()


def test_validate():
    status, rep = run(["validate", TORUS])
    assert status == 0
    assert rep.results["genus"] == 1
    assert rep.results["single_disc_faces"] is True


def test_validate_missing_file():
    status, rep = run(["validate", "/nonexistent.json"])
    assert status == 1
    assert not rep.ok


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["validate", "/nonexistent.json"], "InputError: cannot read /nonexistent.json: "),
        (["hfhat", "/nonexistent.json"], "InputError: cannot read /nonexistent.json: "),
        (["algebra", TORUS, "--k", "-1"], "InputError: k=-1 out of range for 2 arcs"),
        (["index", "--i", "0", "--e", "0", "--l", "0", "--k", "1"], "DiagramError: levels must be >= 1"),
    ],
    ids=["validate-missing", "hfhat-missing", "algebra-k", "index-levels"],
)
def test_invalid_input_is_reported_by_its_coded_class(argv, detail):
    status, rep = run(argv)
    assert status == 1
    assert [(c["name"], c["detail"][: len(detail)]) for c in rep.checks] == [("error", detail)]


@pytest.mark.parametrize("command", ["validate", "checkmod"])
def test_non_utf8_input_is_a_syntax_error(command, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(bytes.fromhex("fffe7b7d"))
    status, rep = run([command, str(path)])
    assert status == 1
    detail = f"InputError: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"
    assert [(c["name"], c["detail"][: len(detail)]) for c in rep.checks] == [("error", detail)]


def test_algebra_all_checks():
    status, rep = run(["algebra", TORUS, "--k", "1", "--check", "all"])
    assert status == 0
    assert rep.results["dimension"] == 8
    assert rep.results["directed"] is False
    names = {c["name"] for c in rep.checks}
    assert {"d2", "leibniz", "assoc", "closure", "idempotents", "opposite"} <= names


def test_algebra_all_checks_builds_the_algebra_once(monkeypatch):
    """The laws, the opposite check and directedness all read the one A(ds, k)
    the command builds; the opposite check adds only the reversed algebra."""
    ds = parse_surface(Path(TORUS).read_text())
    keys = [Algebra.from_surface(s, 1).key for s in (ds, reverse_orientation(ds))]
    init, built = Algebra.__init__, []

    def counting(self, interval_arcs, k):
        init(self, interval_arcs, k)
        built.append(self.key)

    monkeypatch.setattr(Algebra, "__init__", counting)
    status, _ = run(["algebra", TORUS, "--k", "1", "--check", "all"])
    assert status == 0
    assert built == keys


def test_algebra_op_check_reports_its_first_witness(monkeypatch):
    monkeypatch.setattr(cli, "opposite_failures", lambda ds, k, algebra=None: ["first", "second"])
    status, rep = run(["algebra", TORUS, "--k", "1", "--check", "op"])
    assert status == 1
    assert rep.checks == [{"name": "opposite", "pass": False, "detail": "first"}]


def test_algebra_each_law_reports_its_own_first_witness(monkeypatch):
    status, rep = run(["algebra", TORUS, "--k", "1", "--check", "d2", "--check", "closure", "--check", "leibniz"])
    assert status == 0
    assert rep.checks == [{"name": name, "pass": True} for name in ("d2", "closure", "leibniz")]

    build = Algebra.from_surface.__func__

    def from_surface(cls, ds, k):
        alg = build(cls, ds, k)
        (d,) = alg._expansions[alg.basis_index({"chords": [[0, 3]]})]
        del alg._owner[d]
        return alg

    monkeypatch.setattr(Algebra, "from_surface", classmethod(from_surface))
    status, rep = run(["algebra", TORUS, "--k", "1", "--check", "d2", "--check", "closure", "--check", "leibniz"])
    assert status == 1
    assert rep.checks == [
        {"name": "d2", "pass": True},
        {"name": "closure", "pass": False, "detail": "closure: diagram ((0, 3),) matches no basis element"},
        {"name": "leibniz", "pass": False, "detail": "leibniz: diagram ((0, 3),) matches no basis element"},
    ]


def test_algebra_dump(tmp_path):
    out = tmp_path / "dump.json"
    status, rep = run(["algebra", TORUS, "--k", "2", "--dump", str(out)])
    assert status == 0
    data = json.loads(out.read_text())
    assert len(data["basis"]) == 7
    assert data["differential"]  # nonzero differential at k = 2
    assert all(len(t) == 3 for t in data["product"])


def test_algebra_dump_writes_no_file_on_an_engine_error(tmp_path, monkeypatch):
    """The tables are filled before the dump file is opened, so a fill that
    raises leaves no file behind."""

    def fill_row(self, i):
        raise NotInMatchedSpan("row kernel failed")

    monkeypatch.setattr(Algebra, "_fill_row", fill_row)
    out = tmp_path / "out.json"
    status, rep = run(["algebra", TORUS, "--k", "2", "--dump", str(out)])
    assert status == 1
    assert rep.checks == [{"name": "error", "pass": False, "detail": "NotInMatchedSpan: row kernel failed"}]
    assert not out.exists()


def test_op_check():
    status, _ = run(["op-check", TORUS, "--k", "2"])
    assert status == 0


def test_consum():
    status, _ = run(["consum", TORUS, TORUS, "--k", "2"])
    assert status == 0


def test_slide(tmp_path):
    out = tmp_path / "slid.json"
    status, rep = run(["slide", TORUS, "--arc", "0", "--over", "1", "--end", "e1", "--out", str(out)])
    assert status == 0
    assert rep.results["genus"] == 1
    assert out.exists()


def test_slide_precondition_fails():
    status, rep = run(["slide", TORUS, "--arc", "1", "--over", "0", "--end", "e4"])
    assert status == 1
    assert "not-adjacent" in rep.checks[-1]["detail"] or "SurfaceError" in rep.checks[-1]["detail"]


def test_hfhat(tmp_path):
    out = tmp_path / "cx.json"
    status, rep = run(["hfhat", LENS5, "--complex", str(out)])
    assert status == 0
    assert rep.results["rank"] == 5
    assert json.loads(out.read_text())["generators"]


def test_euler(tmp_path):
    dom = tmp_path / "dom.json"
    dom.write_text('{"multiplicities": [0, 1, 0, 0, 0]}')
    status, rep = run(["euler", LENS5, str(dom)])
    assert status == 0
    assert rep.results["euler_measure"] == "0"


def test_index():
    status, rep = run(["index", "--i", "1", "--e", "0", "--l", "1", "--k", "3"])
    assert status == 0
    assert rep.results["maslov_index"] == "1"
    status, rep = run(["index", "--i", "0", "--e", "1", "--l", "3", "--k", "2"])
    assert rep.results["maslov_index"] == "0"


def test_checkmod():
    status, rep = run(["checkmod", TYPE_D])
    assert status == 0 and rep.results["type"] == "D"
    status, rep = run(["checkmod", TYPE_A])
    assert status == 0 and rep.results["type"] == "A"


def test_pair_and_mor_agree():
    status, rep = run(["pair", TYPE_A, TYPE_D, "--rank"])
    assert status == 0 and rep.results["rank"] == 3
    status, rep = run(["mor", REV_A, TYPE_A, "--rank"])
    assert status == 0 and rep.results["rank"] == 3


def test_each_module_file_is_read_once(monkeypatch):
    """The CLI parses a module from the very text whose hash it records."""
    reads = Counter()
    read_bytes = Path.read_bytes

    def counting(self):
        reads[str(self)] += 1
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    status, rep = run(["pair", TYPE_A, TYPE_D])
    assert status == 0
    assert (reads[TYPE_A], reads[TYPE_D]) == (1, 1)
    assert rep.inputs[TYPE_A] == hashlib.sha256(read_bytes(Path(TYPE_A))).hexdigest()


# each subcommand that reads files: (file count, other arguments)
FILE_COMMANDS = {
    "validate": (1, []),
    "algebra": (1, ["--k", "1"]),
    "op-check": (1, ["--k", "1"]),
    "slide": (1, ["--arc", "0", "--over", "1", "--end", "e1"]),
    "hfhat": (1, []),
    "checkmod": (1, []),
    "consum": (2, ["--k", "1"]),
    "euler": (2, []),
    "pair": (2, []),
    "mor": (2, []),
}


def _names(cls) -> set:
    return {cls.__name__}.union(*(_names(sub) for sub in cls.__subclasses__()))


def test_every_file_command_on_every_kind_of_file_passes_or_names_a_coded_error():
    """A surface, a diagram, a type A and a type D module in every slot of
    every file-reading subcommand: each run passes or fails with one error
    naming an InputError subclass or TruncationUnsound, never a stray
    exception of the wrong kind of input."""
    coded = _names(InputError) | {"TruncationUnsound"}
    runs, stray = 0, []
    for command, (arity, extra) in FILE_COMMANDS.items():
        for paths in itertools.product([TORUS, LENS5, TYPE_A, TYPE_D], repeat=arity):
            status, rep = run([command, *paths, *extra])
            failed = [c for c in rep.checks if not c["pass"]]
            runs += 1
            if status and not (
                [c["name"] for c in failed] == ["error"] and failed[0]["detail"].split(":")[0] in coded
            ):
                stray.append((command, paths, failed))
    assert (runs, stray) == (88, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["suite", "--max-arcs", "1"],
        ["suite", "--seed", "0"],
        ["index", "--i", "0", "--e", "1/0", "--l", "3", "--k", "2"],
        ["index", "--i", "0", "--e", "abc", "--l", "3", "--k", "2"],
    ],
)
def test_unknown_arguments_are_rejected(argv):
    with pytest.raises(SystemExit):
        run(argv)


def test_one_parser_serves_every_run(tmp_path):
    """Runs of different subcommands share one parser, built on first use,
    and each run's report is the one a fresh parser gives."""
    cli.build_parser.cache_clear()
    first = [run(["validate", TORUS])[1].to_json(), run(["hfhat", LENS5])[1].to_json()]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    cli.build_parser.cache_clear()
    again = [run(["hfhat", LENS5])[1].to_json(), run(["validate", TORUS])[1].to_json()]
    assert again[::-1] == first
    assert json.loads(first[0])["results"]["genus"] == 1 and json.loads(first[1])["results"]["rank"] == 5


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "strandalg", "validate", TORUS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, cwd=src.parent,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("command: validate") and done.stdout.endswith("result: ok\n")


def test_json_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["hfhat", LENS5, "--json", str(a)])
    run(["hfhat", LENS5, "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["pass"] is True
    assert data["timing_ms"] is None
    assert LENS5 in data["inputs"]


def test_suite_report_bytes_are_pinned(suite_run):
    """`strandalg suite --json` writes these bytes; a change to any verdict,
    detail or result of the acceptance gate changes the digest."""
    _, rep = suite_run
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "aee1a76974387dd05488d78633e7cb3c24c97e84fcff40e600a9952d9acd461f"


def test_suite_runs_the_acceptance_criteria(suite_run):
    status, rep = suite_run
    assert status == 0
    assert [c["name"] for c in rep.checks] == [name for name, _ in CRITERIA]
    assert all(c["pass"] for c in rep.checks)
    assert rep.results["corpus_surfaces"] == 72
    assert rep.results["torus_dims"] == [1, 8, 7]
