import random

import pytest

from uawq.field import ctx_new
from uawq.modules import Params5

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_record():
    """Collector for per-criterion pass/fail lines (also printed live)."""

    def record(line: str) -> None:
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx13():
    return ctx_new(13, 3)


@pytest.fixture(scope="session")
def ctx13d6():
    return ctx_new(13, 6)


@pytest.fixture(scope="session")
def ctx37():
    return ctx_new(37, 6)


@pytest.fixture()
def rng():
    return random.Random(20240801)


def force_nu(quad, nu):
    """The quintuple whose delta makes nu a root of the spectral equation for quad."""
    dbar = quad.ctx.dbar
    al = quad.a / quad.lam
    return Params5(*quad.astuple(), nu ** dbar + nu ** (-dbar) - al ** dbar - al ** (-dbar))
