import pytest

from strandalg.cli import run


@pytest.fixture(scope="session")
def suite_run():
    """(exit status, report) of one `strandalg suite` run, shared by the
    acceptance tests and the CLI test."""
    return run(["suite"])
