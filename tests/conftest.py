import random

import numpy as np
import pytest
from reference import ref_orbit_image

from uawq import table1
from uawq.classify import _cond_inv_a, _cond_inv_ab, _move_inv, s4_orbit, sample_quintuple, sign_key
from uawq.field import ctx_new, index_of
from uawq.modules import Params5, build_W, delta_shift

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


def image_pair(ctx, rng):
    """A drawn W module and the module of a drawn row image with the delta that
    keeps it in the same class, as the large_module benchmark pairs them."""
    p5 = sample_quintuple(ctx, rng)
    row = table1.ROWS[rng.randrange(len(table1.ROWS))]
    other = ref_orbit_image(row, p5.quadruple.astuple(), delta_shift(p5))
    return build_W(p5), build_W(Params5(*other))


# Predicates on production code: the one-step relation whose equivalence
# closure ``classify.simeq_closure`` computes, read off the production
# ``s4_orbit``, ``_move_inv`` and ``_cond_inv_*`` on parameter tuples.  The
# tests that use them exercise those functions; they are not references.


def approx_equiv(p1, p2):
    """Whether the sign-class of p2 lies in the 24-row orbit of p1."""
    return sign_key(p2.astuple()) in s4_orbit(p1).member_keys()


def simeq_z2s4(p1, p2):
    """Quadruple orbits match and the corner invariant is preserved."""
    return delta_shift(p1) == delta_shift(p2) and approx_equiv(p1.quadruple, p2.quadruple)


def sim_related(p1, p2):
    """The one-step relation: orbit equivalence or one of the two inversion moves.

    The inversion branches compare quintuples literally (not up to sign).
    NeedsExtension can only escape from the orbit branch.
    """
    ctx, node = p1.ctx, np.array(index_of(p1.astuple()))
    for cand, cond in zip(_move_inv(ctx, node), (_cond_inv_a, _cond_inv_ab)):
        if cond(ctx, node) and cand.tolist() == list(index_of(p2.astuple())):
            return True
    return simeq_z2s4(p1, p2)


def move_images(p5):
    """``classify._move_inv`` of a quintuple, as quintuples."""
    return tuple(Params5(*map(p5.ctx.from_index, node))
                 for node in _move_inv(p5.ctx, np.array(index_of(p5.astuple()))).tolist())


def cond_inv_ab(p5):
    """``classify._cond_inv_ab`` at a quintuple."""
    return bool(_cond_inv_ab(p5.ctx, np.array(index_of(p5.astuple()))))
