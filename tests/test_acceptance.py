"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each criterion runs the verification bodies of ``uawq.suite`` at its own
seed and count, and prints a single PASS/FAIL line (collected into the
terminal summary).  The exhaustive sweeps honor UAWQ_THREADS.
"""

import random

import pytest
from conftest import force_nu

from uawq import table1
from uawq.classify import rand_nonzero, sample_quintuple
from uawq.field import ctx_new
from uawq.modules import Params4, marginal_values
from uawq.suite import (
    Tally,
    center_chebyshev,
    charpoly_corner,
    classify_rerun,
    cross_class_pairs,
    descent_delta_case,
    equiv_case,
    feasible_cases,
    irr_vn_samples,
    ladder_case,
    marginal_case,
    relation_verify,
    vn_grid_sweep,
    w_grid_sweep,
)


@pytest.fixture(scope="module")
def ctx():
    return ctx_new(13, 3)


def free_quadruple(ctx, rng):
    """Unrestricted nonzero quadruple (may have a non-square orbit argument)."""
    return Params4(*(rand_nonzero(ctx, rng) for _ in range(4)))


def test_criterion_01_relation_verification(ctx, acceptance_record):
    """1,000 seeded quintuples: every built module satisfies the relations."""
    t = relation_verify(ctx, random.Random(1001), 1000)
    line = f"criterion 01 relation-verification: {t.failures} failures in {t.cases} builds"
    acceptance_record(("PASS " if t.failures == 0 else "FAIL ") + line)
    assert t.failures == 0


def test_criterion_02_w_criterion_oracle_exhaustive(acceptance_record):
    """Exhaustive (F_13^x)^4 x F_13 sweep at d=3: criterion == oracle."""
    mismatches = w_grid_sweep(13, 3)
    total = 12 ** 4 * 13
    line = (f"criterion 02 irr-W criterion vs oracle: {len(mismatches)} mismatches "
            f"in {total} exhaustive cases")
    acceptance_record(("PASS " if not mismatches else "FAIL ") + line)
    assert mismatches == []


def test_criterion_03_vn_criterion_oracle(acceptance_record):
    """Exhaustive (F_13^x)^3 x {0,1} plus 500 seeded cases at p=37, d=6."""
    mismatches = vn_grid_sweep(13, 3)
    t = irr_vn_samples(ctx_new(37, 6), random.Random(1003), 500)
    total = 12 ** 3 * 2
    line = (f"criterion 03 irr-Vn criterion vs oracle: {len(mismatches)} mismatches in "
            f"{total} exhaustive cases, {t.failures} in {t.cases} seeded cases at p=37 d=6")
    ok = not mismatches and t.failures == 0
    acceptance_record(("PASS " if ok else "FAIL ") + line)
    assert ok


def test_criterion_04_closed_form_vs_recurrence(ctx, acceptance_record):
    """>= 50 seeded parameter sets per spectral case: closed == recurrence == matrix."""
    rng = random.Random(1004)
    case_hits = [0, 0, 0, 0]
    t = Tally()
    trials = 0
    while min(case_hits) < 50 and trials < 20000:
        trials += 1
        quad = free_quadruple(ctx, rng)
        a, b, c, lam = quad.astuple()
        base = [
            a / lam * ctx.qpow(-2),
            a * lam * ctx.qpow(2),
            b * c / ctx.q,
            b / (c * ctx.q),
        ][trials % 4]
        shift_i = rng.randrange(ctx.dbar)
        for ci in ladder_case(force_nu(quad, base * ctx.qpow(2 * shift_i)), t):
            case_hits[ci] += 1
    ok = t.failures == 0 and min(case_hits) >= 50
    line = (f"criterion 04 closed form vs recurrence: case hits {case_hits}, "
            f"{t.failures} value mismatches")
    acceptance_record(("PASS " if ok else "FAIL ") + line)
    assert ok


def test_criterion_05_charpoly_identities(ctx, acceptance_record):
    """500 seeded cyclic modules: both characteristic polynomial identities."""
    t = charpoly_corner(ctx, random.Random(1005), 500)
    line = f"criterion 05 characteristic polynomials: {t.failures} failures in {t.cases} reps"
    acceptance_record(("PASS " if t.failures == 0 else "FAIL ") + line)
    assert t.failures == 0


def test_criterion_06_feasibility_roundtrip(ctx, acceptance_record):
    """200 seeded quadruples: solver contains the input and stays in its orbit."""
    rng = random.Random(1006)
    t = Tally()
    skipped = feasible_cases(ctx, [free_quadruple(ctx, rng) for _ in range(200)], t)
    line = (f"criterion 06 feasibility round-trip: {t.failures} failures, "
            f"{skipped}/200 orbit checks skipped (needs field extension)")
    acceptance_record(("PASS " if t.failures == 0 else "FAIL ") + line)
    assert t.failures == 0


def test_criterion_07_orbit_isomorphism_coherence(ctx, acceptance_record):
    """Neighbors are isomorphic (invertible map); distinct classes are not."""
    rng = random.Random(1007)
    within = Tally()
    checked = sum(equiv_case(sample_quintuple(ctx, rng), table1.ROWS, within)
                  for _ in range(200))
    cross = cross_class_pairs(ctx, rng, 100, 5000)
    ok = within.failures == 0 and cross.failures == 0 and cross.cases == 100
    line = (f"criterion 07 orbit/isomorphism coherence: {within.failures} failures in "
            f"{checked} neighbor maps, {cross.failures} unexpected maps in {cross.cases} "
            f"cross-class pairs")
    acceptance_record(("PASS " if ok else "FAIL ") + line)
    assert ok


def test_criterion_08_marginal_machinery(ctx, acceptance_record):
    """Membership tests match matrix conditions; descent scalar matches entrywise."""
    rng = random.Random(1008)
    t = Tally()
    branch_hits = [0] * 8

    def run_case(p5):
        for k in marginal_case(p5, t) or ():
            branch_hits[k] += 1

    # constructed families hitting each membership branch
    trials = 0
    while min(branch_hits) < 20 and trials < 20000:
        trials += 1
        quad = free_quadruple(ctx, rng)
        plus, minus = marginal_values(quad, rng.randrange(ctx.dbar))
        run_case(force_nu(quad, (plus + minus)[trials % 8]))
    # 200 generic cases
    for _ in range(200):
        run_case(sample_quintuple(ctx, rng))

    # descent scalar with the delta term, entrywise
    descent = Tally()
    for _ in range(200):
        descent_delta_case(sample_quintuple(ctx, rng), descent)
    ok = t.failures == 0 and descent.failures == 0 and min(branch_hits) >= 20
    line = (f"criterion 08 marginal machinery: {t.failures} membership/matrix "
            f"disagreements, {descent.failures} descent-scalar mismatches, "
            f"branch hits >= {min(branch_hits)}")
    acceptance_record(("PASS " if ok else "FAIL ") + line)
    assert ok


def test_criterion_09_classification_smoke(ctx, acceptance_record):
    """seed=42, count=200: stable class table, validated both directions."""
    report, same = classify_rerun(ctx, 42, 200)
    ok = same and report["errors"] == [] and len(report["classes"]) >= 1
    line = (f"criterion 09 classification smoke: {len(report['classes'])} classes, "
            f"{len(report['rejected'])} rejected, {len(report['errors'])} errors, "
            f"rerun byte-identical={same}")
    acceptance_record(("PASS " if ok else "FAIL ") + line)
    assert ok


def test_criterion_10_chebyshev_center(ctx, acceptance_record):
    """200 seeded reps: translated generators are central; corner acts as delta."""
    t = center_chebyshev(ctx, random.Random(1010), 200)
    line = f"criterion 10 chebyshev/center: {t.failures} failures in {t.cases} reps"
    acceptance_record(("PASS " if t.failures == 0 else "FAIL ") + line)
    assert t.failures == 0
