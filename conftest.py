import pytest


@pytest.fixture(scope="session")
def spark():
    """One SparkSession for the whole test session, built like the
    table entrypoint's and the benchmark's."""
    # imported here: test trees that set up their own sys.path (perfbench)
    # load this file before src/ is importable
    from repro.tables.runner import make_session

    s = make_session("repro-tests")
    yield s
    s.stop()
