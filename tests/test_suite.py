import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import force_nu

import uawq
from uawq import classify, suite
from uawq.classify import (Target, classify_sample, feasible_target, sample_quadruple,
                           sample_quintuple, s4_orbit, simeq_closure)
from uawq.errors import NuOutsideField
from uawq.field import ctx_new
from uawq.modules import nu_of
from uawq.suite import report_bytes, run_suite

# SHA-256 of the newline-joined run_suite(13, 3, seed, "smoke") lines (seeds 0
# and 1 print the same lines) and of the compact, key-sorted JSON of
# classify_sample(ctx_new(13, 3), 42, 10).
SUITE_SMOKE_SHA256 = "8d68eb647367397007897e0ab85626033678309e9ab055973f2806c3aada2744"
CLASSIFY_SHA256 = "f887cbae6576a8f415dab2149a75bd2ea79c1cc72ef39aa7dd490cf47c150aef"


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_smoke_lines_are_golden(seed):
    lines = []
    run_suite(13, 3, seed, "smoke", emit=lines.append)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SUITE_SMOKE_SHA256


def test_classify_report_is_golden(ctx13):
    report = classify_sample(ctx13, 42, 10)
    assert hashlib.sha256(report_bytes(report)).hexdigest() == CLASSIFY_SHA256


def sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# Recorded before the field moved to discrete-log tables: SHA-256 of the
# compact, key-sorted to_json() of simeq_closure on five quintuples drawn by
# sample_quintuple from random.Random(7), at (13, 3) and at (29, 28).
CLOSURE_SHA256 = {
    (13, 3): [
        "e6be7ed07f6fae37224856744ff6c2239661d553e416d6f4a708f99f842f707e",
        "7d07c72e0e3451d561b656ef7fe90c52a47ee4216c9943b9f52cb9708cb13dc7",
        "c5f17b71f9aaf15d86c83a003f27770144447624f4eb67c0f87ada35c77d1fd5",
        "91eae2feebf1e905ca869c388d427f69e2cd0e34534745d5890960a2d1e9e394",
        "22f904187fbc2889dc88f75fd8235a20d3d1e063053ad601d35460303488550b",
    ],
    (29, 28): [
        "08679bec10d0276be1b639430d87052a2a4df0d435392bf9ddf99701d1b3ed44",
        "b1fc26234e2e88e4ddddf18e089ff8ca5168a6ecfdc17793aa9f45422d1eb233",
        "0d4c272ec1051efa29651fc2769939c70da1a18c7a39950df74210e49ed2b4de",
        "be27e642b8a2f9b68d794d2e6bea9628e3f741bf6ad7554ec3d0f7ebe383a7f5",
        "8ff123e943585dfd51a8b683759c48811f8704ddd1136e3a497fafeea40adb44",
    ],
}
# s4_orbit of five sample_quadruple draws from random.Random(8) at (29, 28).
S4_ORBIT_29_SHA256 = [
    "9971285c16fa22e9d07273260aacd0aa5cb93657105d83ebd85235c77192a9a9",
    "827ed9daf4100441684aae7019332e51a5e9dffbe96d6be2cd5bb4cc4d9339d4",
    "1b95130b9d58aad642b2580d3c89faa18e23c7f7feeaa9f63f7b86e7cc8d7f15",
    "1331c513296a0bd590aba4617248883c2505bd3b7bfbc4fe0b241cfde2279848",
    "96cd121f0a2227e7a676db3999f86374d8f3ce1cd4d3040ab5ee6ad8cbfbf5ab"
]
# nu_of at (41, 40) for 20 quintuples drawn from random.Random(9); three in
# four get the delta that makes a drawn nu a root; None is NuOutsideField.
NU_41 = [[1, 6], [3, 5], [1, 1], None, [1, 12], [1, 23], [1, 13], None, [3, 14], [1, 37],
         [1, 14], None, [1, 4], [1, 30], [1, 16], None, [1, 16], [1, 30], [3, 15], None]


@pytest.mark.parametrize("p,d", sorted(CLOSURE_SHA256))
def test_closures_are_golden(p, d):
    ctx, rng = ctx_new(p, d), random.Random(7)
    got = [sha(simeq_closure(sample_quintuple(ctx, rng)).to_json()) for _ in range(5)]
    assert got == CLOSURE_SHA256[(p, d)]


def test_s4_orbits_are_golden_at_29():
    ctx, rng = ctx_new(29, 28), random.Random(8)
    assert [sha(s4_orbit(sample_quadruple(ctx, rng)).to_json()) for _ in range(5)] == S4_ORBIT_29_SHA256


def test_nu_is_golden_at_41():
    ctx, rng = ctx_new(41, 40), random.Random(9)
    got = []
    for k in range(20):
        p5 = sample_quintuple(ctx, rng)
        if k % 4 != 3:
            p5 = force_nu(p5.quadruple, ctx.from_index(rng.randrange(1, 41 * 41)))
        try:
            got.append(nu_of(p5).nu.to_json())
        except NuOutsideField:
            got.append(None)
    assert got == NU_41


def test_feasible_case_rejects_a_corrupted_target(monkeypatch, ctx13):
    # A wrong phi formula in feasible_target, seen by every caller: comparing
    # the read-off target with itself cannot notice it, the solver's
    # polynomial system does.
    def corrupted(p4):
        tgt = feasible_target(p4)
        return Target(tgt.mu, tgt.phi + 1, tgt.omega_star, tgt.omega_eps)

    rng = random.Random(3)
    quads = [sample_quadruple(ctx13, rng) for _ in range(10)]
    honest = suite.Tally()
    for p4 in quads:
        suite.feasible_case(p4, honest)
    assert honest.failures == 0
    monkeypatch.setattr(classify, "feasible_target", corrupted)
    monkeypatch.setattr(suite, "feasible_target", corrupted)
    t = suite.Tally()
    for p4 in quads:
        suite.feasible_case(p4, t)
    assert t.failures == len(quads)
    assert t.first == (quads[0].astuple(), "read-off target not feasible")


def run_optimized(code: str) -> list[str]:
    """Run ``code`` under ``python -O``; its stdout lines, the first being __debug__."""
    src = str(Path(uawq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", "print(__debug__)\n" + code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    debug, *lines = proc.stdout.splitlines()
    assert debug == "False"
    return lines


MATRIX_SIDE_DISAGREES = """
import random
from uawq import suite
from uawq.field import ctx_new
suite.marginal_matrix_e = lambda rep, params, i, nu: (True, True)
tally, detail = dict(suite.CHECKS)["marginal-membership"](ctx_new(13, 3), random.Random(0), 8)
print(suite.result_line(tally.result("marginal-membership", detail)))
"""


def test_marginal_membership_fails_under_optimize():
    (line,) = run_optimized(MATRIX_SIDE_DISAGREES)
    assert line.startswith("FAIL marginal-membership: membership vs matrix mismatch (+)")


NUDATA_WRONG_ROOT = """
from uawq.errors import UawqError
from uawq.field import ctx_new
from uawq.modules import NuData
ctx = ctx_new(13, 3)
try:
    NuData(ctx.el(2), ctx.el(5))  # 2^3 + 2^-3 = 0, not 5
except UawqError as exc:
    print(type(exc).__name__, exc)
else:
    print("constructed")
"""


def test_nudata_invariant_holds_under_optimize():
    (line,) = run_optimized(NUDATA_WRONG_ROOT)
    assert line.startswith("InvariantViolation nu=2 does not solve")
