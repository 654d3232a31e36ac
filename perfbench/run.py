"""Benchmark of the strandalg engine: three workloads, end-to-end and
per-layer metrics, every verdict checked against a known answer.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; the engine is imported from ./src and
nothing is installed.  `--workload all` runs gate, genus3 and ladder one
after the other, each in a fresh process, and prints a table.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics, and
writes the spans to .bench_out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
give the environment (Python, nproc, platform, commit, seed) and each metric
with its unit, including ops_failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from harness import WrongAnswer, peak_rss_mb, run_oracle, set_up, timed_passes
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = [
    ("wall_s", "s"),
    ("hardest_verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, layer or counter recorded by the tracer, 0 = calls,
# 1 = self seconds, None = counter value).  Each value is one traced set-up
# plus the median over traced passes.
PER_LAYER = [
    ("surface.calls", "count", "surface", 0),
    ("surface.self_s", "s", "surface", 1),
    ("corpus.self_s", "s", "corpus", 1),
    ("strands.build.calls", "count", "strands.build", 0),
    ("strands.build.self_s", "s", "strands.build", 1),
    ("strands.basis_dim_sum", "count", "strands.basis_dim_sum", None),
    ("strands.fill.calls", "count", "strands.fill", 0),
    ("strands.fill.self_s", "s", "strands.fill", 1),
    ("strands.table.calls", "count", "strands.table", 0),
    ("strands.table.self_s", "s", "strands.table", 1),
    ("strands.support.calls", "count", "strands.support", 0),
    ("strands.support.self_s", "s", "strands.support", 1),
    ("strands.check.self_s", "s", "strands.check", 1),
    ("strands.opposite.self_s", "s", "strands.opposite", 1),
    ("strands.consum.self_s", "s", "strands.consum", 1),
    ("strands.directed.self_s", "s", "strands.directed", 1),
    ("strands.dump.self_s", "s", "strands.dump", 1),
    ("homalg.complex.calls", "count", "homalg.complex", 0),
    ("homalg.complex.self_s", "s", "homalg.complex", 1),
    ("homalg.complex.generators_sum", "count", "homalg.complex.generators_sum", None),
    ("homalg.rank.self_s", "s", "homalg.rank", 1),
    ("homalg.rank.dense_calls", "count", "homalg.rank.dense", None),
    ("homalg.rank.sparse_calls", "count", "homalg.rank.sparse", None),
    ("homalg.cone.self_s", "s", "homalg.cone", 1),
    ("modules.box.calls", "count", "modules.box", 0),
    ("modules.box.self_s", "s", "modules.box", 1),
    ("modules.box.generators_sum", "count", "modules.box.generators_sum", None),
    ("modules.mor.self_s", "s", "modules.mor", 1),
    ("modules.check.self_s", "s", "modules.check", 1),
    ("modules.load.self_s", "s", "modules.load", 1),
    ("diagrams.cf_hat.self_s", "s", "diagrams.cf_hat", 1),
    ("diagrams.generators_sum", "count", "diagrams.generators_sum", None),
    ("cli.run.self_s", "s", "cli.run", 1),
    ("cli.bytes_written", "B", "cli.bytes_written", None),
]
DERIVED = [("strands.table_hit_ratio", "ratio"), ("trace_overhead_ratio", "ratio")]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout without .git gives "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, passes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": [round(r.wall_s, 4) for _, r in passes],
        "pass_hardest_s": [round(max(r.op_s), 4) for _, r in passes],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, n_ops: int, traced_passes: list) -> dict:
    setup = tracer.layer_totals(["setup"])
    per_pass = [tracer.layer_totals([f"{p}:{i}" for i in range(n_ops)]) for p in traced_passes]

    def value(totals, source, field):
        v = totals.get(source, 0 if field is None else [0, 0.0])
        return v if field is None else v[field]

    out = {}
    for name, _, source, field in PER_LAYER:
        out[name] = value(setup, source, field) + statistics.median(
            value(t, source, field) for t in per_pass)
    table = out["strands.table.calls"]
    out["strands.table_hit_ratio"] = 1 - out["strands.fill.calls"] / table if table else 0.0
    return out


def run_workload(args) -> int:
    if not (SRC / "strandalg" / "__init__.py").is_file():
        print(f"no engine source at {SRC}/strandalg; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setup = set_up(args.workload, args.seed, workdir)
    ops = setup.ops
    tracer = setup.tracer if args.trace else None
    if tracer is not None:
        tracer.install(setup.mods)
        ops, _ = tracer.run_op(
            "setup", "setup", lambda: WORKLOADS[args.workload](setup.mods, args.seed, workdir, tracer))
        tracer.uninstall()
    if args.inject_wrong_answer:
        ops[len(ops) // 2].expected = WrongAnswer()

    passes = timed_passes(ops, args.seconds, tracer, setup.mods)
    oracle = run_oracle(setup.oracle)
    plain = [r for traced, r in passes if not traced]
    traced_nos = [n for n, (traced, _) in enumerate(passes) if traced]

    attempted = sum(len(r.verdicts) for _, r in passes) + len(oracle)
    failures = [f for _, r in passes for f in r.failures]
    failures += [f"{op.name}: got {got}, expected {op.expected!r}" for op, (ok, got) in oracle if not ok]
    # A traced pass must reach exactly the verdicts of the untraced pass.
    for n in traced_nos:
        for op, a, b in zip(ops, plain[0].verdicts, passes[n][1].verdicts):
            if a != b:
                failures.append(f"{op.name}: traced verdict {b} differs from untraced {a}")
                attempted += 1
    failed = len(failures)

    # Times are means over passes, not medians: on a shared host the speed
    # changes in phases lasting 5-30 s, and the mean integrates over them.
    wall = statistics.mean(r.wall_s for r in plain)
    if tracer is None:
        metrics = {
            "wall_s": wall,
            "hardest_verdict_s": statistics.mean(max(r.op_s) for r in plain),
            "setup_s": statistics.median(setup.seconds),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(tracer, len(ops), traced_nos)
        metrics["trace_overhead_ratio"] = statistics.mean(
            passes[n][1].wall_s for n in traced_nos) / wall
        units = {name: unit for name, unit, _, _ in PER_LAYER} | dict(DERIVED)

    env = environment(args, passes)
    print(json.dumps({"env": env}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload:<7} {name:<31} {value:.6g} {units[name]}")
    print(f"{args.workload:<7} {'ops_failed_ratio':<31} {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} ops)")
    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)

    if tracer is not None:
        op_s = [t for r in plain for t in r.op_s]
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "env": env,
            "metrics": metrics,
            "untraced_op_s": {"p50": percentile(op_s, 0.5), "p90": percentile(op_s, 0.9),
                              "samples": len(op_s)},
            "pass_wall_s": [[traced, r.wall_s] for traced, r in passes],
            **tracer.dump(),
        }))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other, so that
    set-up, memory and caches belong to that workload alone."""
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="harness self-test: give one op a wrong expected answer")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
