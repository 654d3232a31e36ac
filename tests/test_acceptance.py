"""The acceptance gate: one test per criterion of ``strandalg.acceptance``,
each reading its entry from one shared `strandalg suite` run.

Each test prints one line, ``acceptance <name>: PASS/FAIL`` (run pytest with
-s to see them); a failure shows the criterion's detail with its witnesses.
A missing entry, or an ``error`` check from a criterion that raised, fails.
"""

import pytest

from strandalg.acceptance import CRITERIA


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_acceptance(name, suite_run):
    _, report = suite_run
    entries = [c for c in report.checks if c["name"] == name]
    errors = [c["detail"] for c in report.checks if c["name"] == "error"]
    ok = len(entries) == 1 and entries[0]["pass"] and not errors
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert not errors, errors
    assert len(entries) == 1, f"the suite report has {len(entries)} {name!r} entries"
    assert entries[0]["pass"], entries[0].get("detail", "")
