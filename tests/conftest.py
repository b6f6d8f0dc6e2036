"""Shared fixtures: the two paper platforms, built once per session, and
a clean runner worker pool for the tests that watch it."""

import os

import pytest

from repro.platform.presets import epyc_7302, epyc_9634

# Tests monkeypatch experiment functions and then drive cli.main(); the
# CLI's default-on result cache would persist those doctored values under
# real keys. Keep the whole test process uncached unless a test opts in
# explicitly (monkeypatch.setenv / an explicit ResultCache).
os.environ.setdefault("REPRO_CACHE", "0")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/goldens/*.json from the current simulator "
            "output instead of comparing against it"
        ),
    )


@pytest.fixture(scope="session")
def update_goldens(request):
    """True when the run should rewrite golden snapshots, not check them."""
    return request.config.getoption("--update-goldens")


@pytest.fixture()
def fresh_pool():
    """No shared runner worker pool when the test starts or after it ends.

    For tests that forbid or force building the pool, or kill its
    workers: a pool left warm by an earlier test would skip the serial
    ramp and the construction they watch for.
    """
    from repro.runner import shutdown_pool

    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture(scope="session")
def p7302():
    return epyc_7302()


@pytest.fixture(scope="session")
def p9634():
    return epyc_9634()


@pytest.fixture(scope="session", params=["7302", "9634"])
def platform(request, p7302, p9634):
    """Parametrized over both evaluated platforms."""
    return p7302 if request.param == "7302" else p9634
