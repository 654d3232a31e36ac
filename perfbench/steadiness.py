"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

Runs every workload once per seed (seeds 1..runs, workloads interleaved so
that slow drifts of the machine fall on all of them), each run in a fresh
process with BENCHMARK.json's run_seconds.  For each workload and metric it
reports the median, the quartiles from statistics.quantiles(values, n=4), and
the spread (q3 - q1) / median against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    values: dict = {w: {} for w in args.workloads}
    passes: dict = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            argv = [sys.executable, str(RUN), "--workload", w, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            env = json.loads(lines[0])["env"]
            passes.setdefault(w, []).append({k: env[k] for k in ("pass_wall_s", "pass_hardest_s")})
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            report.setdefault(w, {"passes": passes[w]})[name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name],
                "within_bound": spread <= bounds[name],
                "within_third_of_bound": spread < bounds[name] / 3,
                "values": vals,
            }
            print(f"{w:<7} {name:<18} median {statistics.median(vals):.4g}  spread {spread:.3f}"
                  f"  bound {bounds[name]}")
    print(f"failed ops over all runs: {failed}")
    if args.out:
        env = environment(argparse.Namespace(workload=args.workloads, seed=None,
                                             seconds=bench["run_seconds"], trace=0), [])
        env.pop("pass_wall_s")
        env.pop("pass_hardest_s")
        args.out.write_text(json.dumps(
            {"env": env, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "failed_ops": failed, "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
