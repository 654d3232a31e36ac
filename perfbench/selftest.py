"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a deliberately wrong expected answer is counted as a failed op
without crashing the run or passing it, that an op raising an exception is a
failure too, that BENCHMARK.json names exactly the workloads and metrics the
runner reports, and that a directory holding only BENCHMARK.json and the
benchmark exits non-zero without printing a result.  Prints one PASS/FAIL
line per check and exits 0 iff all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from harness import check
from run import DERIVED, END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS, Op

RUN = Path(__file__).resolve().parent / "run.py"


def run_bench(script: Path, cwd: Path, *extra: str):
    argv = [sys.executable, str(script), "--workload", "ladder", "--seed", "1",
            "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def result_line(stdout: str):
    lines = stdout.splitlines()
    try:
        data = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) and "correct" in data else None


def wrong_answer_is_counted() -> bool:
    proc = run_bench(RUN, ROOT, "--inject-wrong-answer")
    res = result_line(proc.stdout)
    return (proc.returncode == 0 and res is not None and res["correct"] is False
            and 1 <= res["failed"] < res["attempted"])


def clean_run_passes() -> bool:
    proc = run_bench(RUN, ROOT)
    res = result_line(proc.stdout)
    return proc.returncode == 0 and res is not None and res["correct"] is True and res["failed"] == 0


def exception_is_a_failure() -> bool:
    ok, got = check(Op("raises", lambda: 1 // 0, 0))
    return not ok and got.startswith("ZeroDivisionError")


def manifest_matches_runner() -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    return (
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
        and e2e == END_TO_END
        and layer == [(n, u) for n, u, _, _ in PER_LAYER] + DERIVED
    )


def bare_directory_fails() -> bool:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare / RUN.parent.name / RUN.name, bare)
        return proc.returncode != 0 and result_line(proc.stdout) is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    ok = True
    for test in (exception_is_a_failure, manifest_matches_runner, bare_directory_fails,
                 wrong_answer_is_counted, clean_run_passes):
        passed = test()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {test.__name__}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
