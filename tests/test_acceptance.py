"""The acceptance gate: one test per criterion of ``strandalg.acceptance``.

Each test prints one line, ``acceptance <name>: PASS/FAIL`` (run pytest with
-s to see them); a failure shows the criterion's detail with its witnesses.
"""

import pytest

from strandalg.acceptance import CRITERIA


@pytest.mark.parametrize("name, criterion", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_acceptance(name, criterion):
    ok, detail, _ = criterion()
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail
