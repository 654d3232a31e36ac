"""Set-up, the timed passes and the metrics of one workload run.

A run lives in one process and serves one workload.  Set-up (importing the
engine, building the corpus and inputs, writing input files) is repeated
SETUP_REPS times and its median reported, so that a change moving work into
set-up shows.  Then whole passes over the workload's ops are timed until the
run's seconds are spent.  There are no
threads or worker processes: the load comes from this single process.
"""

from __future__ import annotations

import gc
import importlib
import resource
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPS = 9
ENGINE_MODULES = ("cli", "corpus", "diagrams", "homalg", "modules", "strands", "surface")


class WrongAnswer:
    """An expected answer no op can produce; used by the harness self-test."""

    def __eq__(self, other):
        return False

    def __repr__(self):
        return "<deliberately wrong expected answer>"


def import_engine():
    """Import the engine afresh: earlier imports are dropped first, so every
    set-up repetition pays for the import again."""
    for name in [n for n in sys.modules if n == "strandalg" or n.startswith("strandalg.")]:
        del sys.modules[name]
    package = importlib.import_module("strandalg")
    return types.SimpleNamespace(
        package=package,
        **{n: importlib.import_module(f"strandalg.{n}") for n in ENGINE_MODULES},
    )


@dataclass
class Setup:
    seconds: list
    mods: types.SimpleNamespace
    ops: list
    oracle: list
    tracer: Tracer


def set_up(workload: str, seed: int, workdir: Path, reps: int = SETUP_REPS) -> Setup:
    seconds = []
    for _ in range(reps):
        start = time.perf_counter()
        mods = import_engine()
        tracer = Tracer()
        ops, oracle = WORKLOADS[workload](mods, seed, workdir, tracer)
        seconds.append(time.perf_counter() - start)
    return Setup(seconds, mods, ops, oracle, tracer)


@dataclass
class PassResult:
    wall_s: float
    op_s: list
    verdicts: list  # per op: (ok, observed answer as text)
    failures: list


def check(op):
    """Run one op and judge it.  An exception or a wrong answer is a failure;
    neither stops the pass."""
    try:
        got = op.run()
    except Exception as e:  # a failing op is counted, never fatal
        return False, f"{type(e).__name__}: {e}"
    return got == op.expected, repr(got)


def run_pass(ops, tracer: Tracer | None = None, pass_no: int = 0) -> PassResult:
    gc.collect()
    op_s, verdicts = [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        if tracer is None:
            verdict = check(op)
        else:
            verdict = tracer.run_op(f"{pass_no}:{i}", op.name, lambda: check(op))
        op_s.append(clock() - t0)
        verdicts.append(verdict)
    wall = clock() - start
    failures = [
        f"{op.name}: got {got}, expected {op.expected!r}"
        for op, (ok, got) in zip(ops, verdicts) if not ok
    ]
    return PassResult(wall, op_s, verdicts, failures)


def timed_passes(ops, seconds: float, tracer: Tracer | None = None, mods=None):
    """Run whole passes until the next one would end after `seconds`,
    predicting its length from the last pass of its kind.  With a tracer,
    untraced and traced passes alternate, at least one of each.  Returns
    (traced, PassResult) pairs."""
    kinds = (False,) if tracer is None else (False, True)
    results, last = [], {}
    start = time.perf_counter()
    while True:
        traced = kinds[len(results) % len(kinds)]
        if traced:
            tracer.install(mods)
        try:
            result = run_pass(ops, tracer if traced else None, len(results))
        finally:
            if traced:
                tracer.uninstall()
        results.append((traced, result))
        last[traced] = result.wall_s
        following = kinds[len(results) % len(kinds)]
        if len(results) >= len(kinds) and time.perf_counter() - start + last[following] > seconds:
            return results


def run_oracle(oracle) -> list:
    """Untimed cross-checks, run once per run."""
    return [(op, check(op)) for op in oracle]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
