"""The benchmark's ops call the engine through its public functions; a smoke
run of a few of them catches a renamed function or a changed answer here,
before a benchmark run counts it as failed ops."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import strandalg
from strandalg import cli, corpus, diagrams, homalg, modules, strands, surface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks the module up here
    spec.loader.exec_module(module)
    return module


workloads, tracer = _load("workloads"), _load("tracer")

# the engine modules the workloads read, as already imported: the benchmark's
# own importer drops strandalg from sys.modules first, which other tests'
# imports would not see
ENGINE = SimpleNamespace(
    package=strandalg,
    cli=cli,
    corpus=corpus,
    diagrams=diagrams,
    homalg=homalg,
    modules=modules,
    strands=strands,
    surface=surface,
)


def _smoke_ops(ops):
    """The first op of each kind (the first word of its label), and every
    dump op, whose answer is the digest of a whole algebra."""
    kinds, picked = set(), []
    for op in ops:
        kind = op.name.split()[0]
        if kind not in kinds or op.name.endswith(" dump"):
            kinds.add(kind)
            picked.append(op)
    return picked


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_ops_give_their_expected_answers(workload, tmp_path):
    ops, oracle = workloads.WORKLOADS[workload](ENGINE, 1, tmp_path, tracer.Tracer())
    picked = _smoke_ops(ops + oracle)
    assert len({op.name.split()[0] for op in picked}) > 1
    for op in picked:
        assert op.run() == op.expected, op.name
