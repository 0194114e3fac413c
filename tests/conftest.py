import pytest

from bildsim import acceptance


@pytest.fixture(scope="session")
def acceptance_results():
    """The acceptance battery, run once per session: {criterion number: result}."""
    return {r.number: r for r in acceptance.run_all()}
