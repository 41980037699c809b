import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import force_nu, image_pair
from reference import ref_kron_system

import uawq
from uawq import classify, suite, table1
from uawq.algebra import vee
from uawq.classify import (classify_sample, intertwiner, sample_quadruple,
                           sample_quintuple, sample_triple, s4_orbit, simeq_closure)
from uawq.cli import main
from uawq.errors import NuOutsideField
from uawq.field import ctx_new, index_of
from uawq.linalg import rank, rref
from uawq.modules import build_Vn, build_W, nu_of
from uawq.suite import report_bytes, run_suite

# SHA-256 of the newline-joined run_suite(13, 3, seed, "smoke") lines (seeds 0
# and 1 print the same lines) and of the compact, key-sorted JSON of
# classify_sample(ctx_new(13, 3), 42, 10).
SUITE_SMOKE_SHA256 = "8d68eb647367397007897e0ab85626033678309e9ab055973f2806c3aada2744"
# The same for run_suite(13, 3, seed, "standard"), seeds 0 and 1, recorded
# before feasibility was solved for a batch of targets at once.
SUITE_STANDARD_SHA256 = "30b08a2c9ba4d87515e8edf3cd374e38d739836953167f9109f9abaa4d89fc13"
CLASSIFY_SHA256 = "f887cbae6576a8f415dab2149a75bd2ea79c1cc72ef39aa7dd490cf47c150aef"
# SHA-256 of the stdout of `uawq classify --p 13 --d 3 --seed 42 --count 200
# --json`, recorded while each closure was still searched on its own.
CLASSIFY_200_STDOUT_SHA256 = "fa12a813bebd0022cb76b4f41912fc983a97bc01d6fca1053a69f4c8e16df368"


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_smoke_lines_are_golden(seed):
    lines = []
    run_suite(13, 3, seed, "smoke", emit=lines.append)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SUITE_SMOKE_SHA256


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_standard_lines_are_golden(seed):
    lines = []
    run_suite(13, 3, seed, "standard", emit=lines.append)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SUITE_STANDARD_SHA256


def test_classify_report_is_golden(ctx13):
    report = classify_sample(ctx13, 42, 10)
    assert hashlib.sha256(report_bytes(report)).hexdigest() == CLASSIFY_SHA256


def test_classify_stdout_at_count_200_is_golden(capsys):
    assert main(["classify", "--p", "13", "--d", "3", "--seed", "42", "--count", "200", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLASSIFY_200_STDOUT_SHA256


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


# Recorded before the sparse-aware elimination: intertwiner on eight
# image_pair draws from random.Random(11) at (29, 28) (392x196 systems) ...
INTERTWINER_29_SHA256 = [
    "205253434695a3ea8578247f252eeabc61b5d2b452849c70049f72961fa0a54c",
    "a22545191a5e2a7c273bd9a75e2e1ba822915d9097c4d6c1f622aa809845ba9a",
    "8ea4d364db0f26c7d2c2109546b65cda711e11d79f0d0a51131ef3fe590c14c4",
    "e466a1f24110c3c8e1d5f03141237fdb5c5a7a22f35b6243e8f61608fe088cdf",
    "1c332a1c37492cafc88a714bf09ebe79837668cf0db692857d09dd35b87601b9",
    "5d6080656a5183b8eb4ad789b507ab1abfe3c1f85d23054713f61b624e141089",
    "6f394a4807c907beeb9c1ab2f353829bd53247995fba889184802d272fe63364",
    "d07b51e7b9279f76146f485ac0a25ead7cc2dc142e9e3121f439adef0cb1a9de",
]
# ... rref of the 800x400 systems of two draws from random.Random(12) at (41, 40),
# as [matrix JSON, pivots] ...
RREF_41_SHA256 = [
    "1093e2f70c885763dabb83010f08656ecbab75362f0484beb95e0e407e94e8a1",
    "9b0dbb0c173e7fc6dd69907ff9856d0855b98e084f1be8ccf2b5012e3d008fad",
]
# ... and the stdout of `uawq irr w` at (29, 28) on a reducible and an
# irreducible quintuple.
IRR_29_STDOUT = {
    "2,3,5,1,0": "criterion=False oracle=False agree=True\n",
    "2,3,5,7,1": "criterion=True oracle=True agree=True\n",
}


def test_intertwiners_are_golden_at_29():
    ctx, rng = ctx_new(29, 28), random.Random(11)
    got = []
    for _ in range(8):
        s = intertwiner(*image_pair(ctx, rng))
        got.append(sha(None if s is None else s.to_json()))
    assert got == INTERTWINER_29_SHA256


def test_intertwiner_systems_reduce_golden_at_41():
    ctx, rng = ctx_new(41, 40), random.Random(12)
    got = []
    for _ in range(2):
        m = ref_kron_system(*image_pair(ctx, rng))
        assert m.shape == (800, 400)
        red, piv = rref(m)
        got.append(sha([red.to_json(), list(piv)]))
    assert got == RREF_41_SHA256


# Recorded with the Kronecker solve: SHA-256 of intertwiner on the image_pair
# draw from random.Random(31) at (61, 62), dbar 31, whose solve peaked at
# 112.8 MiB of traced memory.
INTERTWINER_61_SHA256 = "31588dbce4512e981a3ab0cb5227ea6b64d29b7cd8631567cc3ac6ec786b5647"


def test_intertwiner_is_golden_and_small_at_dbar_31():
    ctx = ctx_new(61, 62)
    x, y = image_pair(ctx, random.Random(31))
    tracemalloc.start()
    try:
        s = intertwiner(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sha(s.to_json()) == INTERTWINER_61_SHA256
    assert s @ x.A == y.A @ s and s @ x.B == y.B @ s and rank(s) == ctx.dbar == 31
    assert peak < 16 * 2**20


@pytest.mark.parametrize("params", sorted(IRR_29_STDOUT))
def test_irr_stdout_is_golden_at_29(capsys, params):
    assert main(["irr", "w", "--p", "29", "--d", "28", "--params", params]) == 0
    assert capsys.readouterr().out == IRR_29_STDOUT[params]


def test_feasible_case_rejects_a_corrupted_target(monkeypatch, ctx13):
    # A wrong phi formula in feasible_targets, seen by every caller: comparing
    # the read-off target with itself cannot notice it, the solver's
    # polynomial system does.
    real = classify.feasible_targets

    def corrupted(ctx, index):
        out = real(ctx, index)
        out[:, 1] = (out[:, 1] + ctx.p) % (ctx.p * ctx.p)  # phi + 1: x0 + 1 mod p
        return out

    rng = random.Random(3)
    quads = [sample_quadruple(ctx13, rng) for _ in range(10)]
    honest = suite.Tally()
    suite.feasible_cases(ctx13, quads, honest)
    assert honest.failures == 0
    monkeypatch.setattr(classify, "feasible_targets", corrupted)
    monkeypatch.setattr(suite, "feasible_targets", corrupted)
    t = suite.Tally()
    suite.feasible_cases(ctx13, quads, t)
    assert t.failures == len(quads)
    assert t.first == (quads[0].astuple(), "read-off target not feasible")


def test_feasible_case_reports_an_infeasible_solver_output(monkeypatch, ctx13):
    # solve_feasible_many checks every row of every target with one
    # classify.feasible_targets call; feasible_cases charges a wrong row to its
    # own case alone.  Only omega_eps of one row of the fourth target is wrong,
    # the input quadruple itself; the read-off targets come from suite's own
    # name, which stays honest.
    rng = random.Random(5)
    quads = [sample_quadruple(ctx13, rng) for _ in range(10)]
    planted = index_of(quads[3].astuple())
    real, calls = classify.feasible_targets, []

    def reject_one(ctx, index):
        hit = (index == planted).all(1)
        calls.append((len(index), hit.sum()))
        out = real(ctx, index)
        out[hit, 3] = (out[hit, 3] + 1) % (ctx.p * ctx.p)
        return out

    monkeypatch.setattr(classify, "feasible_targets", reject_one)
    t = suite.Tally()
    suite.feasible_cases(ctx13, quads, t)
    assert (t.failures, t.first) == (1, (quads[3].astuple(), "solver output not feasible"))
    [(rows, hits)] = calls
    assert rows > len(quads) and hits == 1


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


# A context whose p and t overflow every accumulation bound, (1+t)*p^2,
# n*(1+t)*p^2 and n^2*(1+t)*p^2; each guard must fire before anything is
# allocated or reduced.
HUGE_P_GUARDS = """
from types import SimpleNamespace
import numpy as np
from uawq.algebra import verify_rep_many
from uawq.classify import (burnside_irreducible, burnside_irreducible_many, intertwiner,
                           intertwiner_many)
from uawq.errors import UawqError
from uawq.field import ctx_new
from uawq.linalg import FMat, rref
from uawq.modules import build_W
huge = SimpleNamespace(p=2**31 - 1, t=7)
ctx = ctx_new(13, 3)
m = FMat.identity(ctx, 2)
m.ctx = huge
rep = SimpleNamespace(ctx=huge, n=2, A=m, B=m, scalars=lambda: ())
for call in (lambda: rref(m), lambda: burnside_irreducible(rep),
             lambda: burnside_irreducible_many(huge, np.zeros((1, 2, 2, 2, 2), dtype=np.int64)),
             lambda: intertwiner(rep, rep),
             lambda: intertwiner_many(huge, *np.zeros((2, 1, 2, 2, 2, 2), dtype=np.int64)),
             lambda: verify_rep_many(huge, np.zeros((1, 2, 2, 2, 2), dtype=np.int64),
                                     [(ctx.one,) * 3])):
    try:
        call()
    except UawqError as exc:
        print(type(exc).__name__, exc)
    else:
        print("no error")
"""


def test_int64_guards_hold_under_optimize():
    (rref_line, oracle_line, batch_line, intertwiner_line, many_line,
     relations_line) = run_optimized(HUGE_P_GUARDS)
    assert rref_line.startswith("InvariantViolation rref row update sums up to")
    assert oracle_line.startswith("InvariantViolation spanning oracle reduction sums up to")
    assert batch_line.startswith("InvariantViolation spanning oracle reduction sums up to")
    assert intertwiner_line.startswith("InvariantViolation intertwiner products sums up to")
    assert many_line.startswith("InvariantViolation intertwiner products sums up to")
    assert relations_line.startswith("InvariantViolation relation products sums up to")


def test_grid_chunks_report_flipped_cases_in_grid_order(monkeypatch):
    # Criteria that disagree with the oracle on exactly these cases: the
    # mismatch lists must name them, in grid order, however the batch
    # oracle's slices and dimension groups line verdicts up with cases.
    w_flips = {(1, 1, 1, 1, 0), (1, 2, 1, 3, 4), (1, 2, 4, 3, 0), (1, 2, 4, 3, 1),
               (1, 4, 4, 4, 4)}
    vn_flips = {(1, 1, 1, 0), (1, 2, 1, 1), (1, 2, 3, 0), (1, 2, 3, 1), (1, 4, 4, 1)}
    irr_w, irr_vn = suite.irr_W_criterion_many, suite.irr_Vn_criterion

    def flipped_w(ctx, index):
        cases = index // ctx.p  # entries (x, 0) of F_p
        return irr_w(ctx, index) != [tuple(case) in w_flips for case in cases.tolist()]

    def flipped_vn(a, b, c, n):
        return irr_vn(a, b, c, n) != ((a.x0, b.x0, c.x0, n) in vn_flips)

    monkeypatch.setattr(suite, "irr_W_criterion_many", flipped_w)
    monkeypatch.setattr(suite, "irr_Vn_criterion", flipped_vn)
    assert suite.w_grid_chunk((5, 3, 1)) == sorted(w_flips)
    assert suite.vn_grid_chunk((5, 3, 1)) == sorted(vn_flips)


def plant_relation_failures(monkeypatch, modules):
    """``suite.verify_rep_many`` failing every case whose central scalars are
    those of one of ``modules``."""
    real, fails = suite.verify_rep_many, {index_of(rep.scalars()) for rep in modules}

    def planted(ctx, gens, scalars):
        out = real(ctx, gens, scalars)
        out[[tuple(s) in fails for s in np.asarray(scalars).tolist()]] = False
        return out

    monkeypatch.setattr(suite, "verify_rep_many", planted)


def test_relation_verify_catches_a_wrong_sequence_body(monkeypatch):
    # The builder and every spectral check read one sequence body; the
    # defining relations are what catch a wrong formula in it at run time.
    ctx = ctx_new(13, 3)
    assert suite.relation_verify(ctx, random.Random(5), 12).failures == 0
    terms = uawq.modules._SEQ_TERMS.copy()
    terms[:2, 5] //= 2  # theta with q^i for q^2i
    monkeypatch.setattr(uawq.modules, "_SEQ_TERMS", terms)
    got = suite.relation_verify(ctx, random.Random(5), 12)
    assert got.cases == 24 and got.failures >= 12, (got.failures, got.first)


@pytest.mark.parametrize("w_first", [False, True])
def test_relation_verify_reports_planted_failures_in_draw_order(monkeypatch, w_first):
    # Failing cases planted in both batches, with a Vn failure drawn before a
    # lower-dimensional one, whose group is judged first: the count and the
    # first failure are those of judging each draw's W build, then its Vn build.
    ctx, rng = ctx_new(13, 3), random.Random(5)
    draws = [(sample_quintuple(ctx, rng), (*sample_triple(ctx, rng), rng.randrange(ctx.dbar - 1)))
             for _ in range(12)]
    k1 = next(k for k, (_, vn) in enumerate(draws) if vn[3] == 1)
    k2 = next(k for k, (_, vn) in enumerate(draws) if k > k1 and vn[3] == 0)
    w_fail, vn_fail = {k1 + 1, k2} | ({k1} if w_first else set()), {k1, k2}
    plant_relation_failures(monkeypatch, [build_W(draws[k][0]) for k in w_fail]
                            + [build_Vn(*draws[k][1]) for k in vn_fail])
    want = suite.Tally()
    for k, (p5, vn) in enumerate(draws):
        want.check(k not in w_fail, p5.astuple(), "cyclic quotient fails relations")
        want.check(k not in vn_fail, vn, "truncated quotient fails relations")
    got = suite.relation_verify(ctx, random.Random(5), 12)
    assert (got.cases, got.failures, got.first) == (24, want.failures, want.first)
    assert got.first[1].startswith("cyclic" if w_first else "truncated")


def test_vee_involution_reports_planted_failures_in_draw_order(monkeypatch):
    # Modules failing at 2 and 5 and twists at 5 and 7: the verdicts differ at
    # 2 and 7 only, and 2 is the first failure.
    ctx, rng = ctx_new(13, 3), random.Random(6)
    draws = [sample_quintuple(ctx, rng) for _ in range(10)]
    reps = [build_W(p5) for p5 in draws]
    plant_relation_failures(monkeypatch, [reps[2], reps[5], vee(reps[5]), vee(reps[7])])
    got, _ = suite.check_vee_involution(ctx, random.Random(6), 10)
    assert (got.cases, got.failures) == (10, 2)
    assert got.first == (draws[2].astuple(), "twist changes verification")


def test_orbit_closure_reports_planted_escapes_in_member_order(monkeypatch):
    # Images outside the orbit (all-zero rows) planted at (member, row) of the
    # two drawn orbits' row images: those at generator rows fail once each,
    # and the first failure is the one a loop over members, then generator
    # rows in order, meets first; (132) is no generator and is not judged.
    ctx, real = ctx_new(13, 3), suite._row_images
    labels = [row[0] for row in table1.ROWS]
    plants = iter([[(1, "(34)"), (0, "(132)"), (2, "(23)")], [(0, "(12)")]])

    def planted(ctx, quads):
        images, mask, stop = real(ctx, quads)
        for member, label in next(plants):
            images[member, labels.index(label)] = 0
        return images, mask, stop

    monkeypatch.setattr(suite, "_row_images", planted)
    tally, _ = suite.check_orbit_closure(ctx, random.Random(5), 16)
    p4 = sample_quadruple(ctx, random.Random(5))
    assert (tally.cases, tally.failures) == (2, 3)
    assert tally.first == ((p4.astuple(), "(34)"), "generator escapes orbit")


# Suite checks at unit-test sizes: (check, p, d, its count n, the cases it
# counts).
SUITE_BODIES = [
    ("field-arithmetic", 13, 3, 8, 72),
    ("poly-roots", 13, 3, 8, 4),
    ("relation-verify", 13, 3, 8, 16),
    ("relation-verify", 37, 6, 8, 16),
    ("relation-verify", 97, 8, 3, 6),
    ("vee-involution", 13, 3, 4, 4),
    ("charpoly-corner", 13, 3, 12, 6),
    ("charpoly-corner", 37, 6, 12, 6),
    ("charpoly-corner", 97, 8, 6, 3),
    ("sequence-periodicity", 13, 3, 40, 10),
    ("sequence-periodicity", 13, 6, 8, 2),
    ("weight-ladder", 13, 3, 24, 6),
    ("ladder-eigvec", 13, 3, 20, 5),
    ("ladder-eigvec", 37, 6, 20, 5),
    ("marginal-membership", 13, 3, 100, 25),
    ("bridge-vectors", 13, 3, 8, 2),
    ("feasible-roundtrip", 13, 3, 8, 4),
    ("orbit-closure", 13, 3, 16, 2),
    ("orbit-closure", 37, 6, 24, 3),
    ("equiv-intertwiner", 13, 3, 16, 16),
    ("equiv-intertwiner", 37, 6, 16, 16),
    ("closure-pm-closed", 13, 3, 24, 3),
    ("closure-iso", 13, 3, 32, 2),
    ("classify-determinism", 13, 3, 8, 2),
    ("irr-vn-agreement", 13, 3, 150, 150),
    ("irr-w-agreement", 13, 3, 100, 100),
    ("irr-w-agreement", 37, 6, 100, 100),
    ("irr-w-agreement", 97, 8, 3, 3),
]


@pytest.mark.parametrize("name,p,d,n,cases", SUITE_BODIES)
def test_suite_check_passes(name, p, d, n, cases):
    check = {**dict(suite.CHECKS), "irr-vn-agreement": suite.check_irr_vn,
             "irr-w-agreement": suite.check_irr_w}[name]
    tally, detail = check(ctx_new(p, d), random.Random(20240801), n)
    assert (tally.failures, tally.cases) == (0, cases), tally.result(name, detail)


def test_cross_class_pairs_without_a_pair(ctx13):
    # a draw budget of 0 finds no pair, and no pair has nothing to check
    tally = suite.cross_class_pairs(ctx13, random.Random(0), 3, 0)
    assert (tally.cases, tally.failures) == (0, 0)
