import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uawq
from uawq.classify import classify_sample
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


MATRIX_SIDE_DISAGREES = """
import random
from uawq import suite
from uawq.field import ctx_new
print(__debug__)
suite.marginal_matrix_e = lambda rep, params, i, nu: (True, True)
tally, detail = dict(suite.CHECKS)["marginal-membership"](ctx_new(13, 3), random.Random(0), 8)
print(suite.result_line(tally.result("marginal-membership", detail)))
"""


def test_marginal_membership_fails_under_optimize():
    src = str(Path(uawq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", MATRIX_SIDE_DISAGREES],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    debug, line = proc.stdout.splitlines()
    assert debug == "False"
    assert line.startswith("FAIL marginal-membership: membership vs matrix mismatch (+)")
