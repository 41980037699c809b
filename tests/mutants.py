"""Mutation check: every recorded mutant of ``src/uawq`` must fail a test.

Run from anywhere, with no arguments for every mutant, or with the names of
some mutants for those alone:

    python tests/mutants.py
    python tests/mutants.py "theta with q^i for q^2i" "builder writes the corner to A[n-1, 0]"

A mutant is data: the file under ``src/uawq`` it changes, a text that occurs
there exactly once, the text that replaces it, and the test files that must
notice.  The test files of the chosen mutants are first run once on an
unmutated copy of ``src/`` and must pass.  Then each mutant is applied to a
fresh temporary copy of ``src/``, never in place, and ``pytest -x -q`` runs
its test files against that copy.  A mutant is killed when a test fails and survives when all pass.
The exit status is nonzero if any mutant survives or cannot be applied.

pytest is not collecting this file: its name does not match ``test_*.py``.
"""

import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ALGEBRA = ("tests/test_algebra.py",)
CLASSIFY = ("tests/test_classify.py",)
FIELD = ("tests/test_field.py",)
MODULES = ("tests/test_modules.py",)
SUITE = ("tests/test_suite.py",)

W_MONOMIALS = (  # the six rows of classify.W_MONOMIALS, as written there
    "(0, 0, 0, 2, 0),  # lam^2",
    "(-1, -1, -1, 1, -1),  # lam/(a b c q)",
    "(-1, -1, 1, 1, -1),  # c lam/(a b q)",
    "(1, -1, -1, 1, -1),  # a lam/(b c q)",
    "(1, -1, 1, 1, -1),  # a c lam/(b q)",
    "(0, -2, 0, 0, -2),  # 1/(b q)^2",
)
W_CONDITIONS = (  # the four rows of classify.W_CONDITIONS, as written there
    "((1, 0, 0, -1, 0), (0, 1, 2)),",
    "((1, 0, 0, 1, 0), (0, 3, 4)),",
    "((0, 1, 1, 0, 1), (3, 1, 5)),",
    "((0, 1, -1, 0, 1), (4, 5, 2)),",
)
VN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def bump_exponent(row: str, k: int) -> str:
    """``row`` with the k-th entry of its exponent tuple increased by one."""
    vec, comment = row.split(")", 1)
    entries = vec.strip("(").split(", ")
    entries[k] = str(int(entries[k]) + 1)
    return "(" + ", ".join(entries) + ")" + comment


def swap_triples(i: int, j: int) -> str:
    """The W_CONDITIONS rows with the window triples of conditions i and j swapped."""
    rows = list(W_CONDITIONS)
    (xi, ti), (xj, tj) = (rows[k][:-2].rsplit(", (", 1) for k in (i, j))
    rows[i], rows[j] = f"{xi}, ({tj}),", f"{xj}, ({ti}),"
    return "\n    ".join(rows)


MUTANTS = [
    Mutant("sign rule reversed", "classify.py",
           "flip = np.sign(head - flipped) @ np.array([8, 4, 2, 1]) > 0",
           "flip = np.sign(head - flipped) @ np.array([8, 4, 2, 1]) < 0", CLASSIFY),
    Mutant("row exponent EXPONENTS[9, 2, 0] += 1", "table1.py",
           "EXPONENTS = np.array([entries for _, _, entries in ROWS])  # every row's vectors, (24, 4, 6)",
           "EXPONENTS = np.array([entries for _, _, entries in ROWS])\nEXPONENTS[9, 2, 0] += 1",
           CLASSIFY),
    Mutant("closure delta not adjusted", "classify.py",
           "corner_index(ctx, ent[..., 0] - ent[..., 3])",
           "corner_index(ctx, np.repeat(logs[:, :1] - logs[:, 3:4], 24, 1))", CLASSIFY),
    Mutant("ab-inversion defect dropped", "classify.py",
           "\n            & (_defect_index(ctx, nodes) == 0))", ")", CLASSIFY),
    Mutant("ab-inversion condition always false", "classify.py",
           "return (~_move_windows(ctx)[1]", "return False & (~_move_windows(ctx)[1]", CLASSIFY),
    Mutant("a-inversion condition always false", "classify.py",
           "return _move_windows(ctx)[0][2 * log[nodes[..., 3]] % len(exp)]",
           "return np.zeros(nodes.shape[:-1], dtype=bool)", CLASSIFY),
    Mutant("reverse inversion edges masked off", "classify.py",
           "np.concatenate([mask, conds.T], 1)",
           "np.concatenate([mask, conds.T & np.array([True, False, True, False])], 1)", CLASSIFY),
    Mutant("cap test off by one", "classify.py",
           "minlength=n) > cap)", "minlength=n) >= cap)", CLASSIFY),
    Mutant("cap counted over all starts together", "classify.py",
           "np.bincount(members[:, 0], minlength=n) > cap", "np.full(n, len(members)) > cap",
           CLASSIFY),
    Mutant("start label dropped from interned rows", "classify.py",
           "[level[node, :1], sign_index(", "[0 * level[node, :1], sign_index(", CLASSIFY),
    Mutant("one start's stop mask applied to every start", "classify.py",
           "< cut[level[:, 0], None]", "< cut.min()", CLASSIFY),
    Mutant("search stops after the first level", "classify.py",
           "        level = members[ids]\n", "        level = members[ids[:0]]\n", CLASSIFY),
    Mutant("intertwiner with the A relation block in place of B's", "classify.py",
           "for g, h in zip(gx, gy)]", "for g, h in zip(gx[[0, 0]], gy[[0, 0]])]",
           CLASSIFY),
    Mutant("intertwiner basis without the column reversal", "classify.py",
           "rref(FMat(ctx, sols[..., ::-1]))[0].arr[:, ::-1, ::-1]",
           "rref(FMat(ctx, sols))[0].arr[:, ::-1]",
           CLASSIFY),
    Mutant("intertwiner returns S P in place of S", "classify.py",
           "sols = mm(mm(tk, null).transpose(0, 3, 2, 1), pinv)",
           "sols = mm(tk, null).transpose(0, 3, 2, 1)", CLASSIFY),
    Mutant("_echelon_insert stores the new row one index low", "classify.py",
           "at, lo = size[gain], ", "at, lo = size[gain] - 1, ", CLASSIFY),
    Mutant("standard basis without the B-relation check", "classify.py",
           "ok = (np.array(sx) == np.array(ys)).all((0, 2, 3, 4))",
           "ok = (np.array(sx) == np.array(ys))[:, :, 0].all((0, 2, 3))", CLASSIFY),
    Mutant("standard basis normalised by the first nonzero entry", "classify.py",
           "last = n * n - 1 - (code[:, ::-1] != 0).argmax(1)", "last = (code != 0).argmax(1)",
           CLASSIFY),
    Mutant("standard basis replays Y's words with X's generators", "classify.py",
           "pair[..., :n, :n], pair[..., n:, n:] = gx[at], gy[at]",
           "pair[..., :n, :n], pair[..., n:, n:] = gx[at], gx[at]", CLASSIFY),
    Mutant("standard basis takes Y's eigenvector at X's index", "classify.py",
           "hit[at[has]].argmax(1))", "k[at[has]])", CLASSIFY),
    Mutant("standard basis reports every map invertible", "classify.py",
           "bool(invertible)", "True", CLASSIFY),
    Mutant("Norton without the triangularity check", "classify.py",
           "norton = simple & upper", "norton = simple", CLASSIFY),
    Mutant("standard basis without the triangularity check on B_y", "classify.py",
           "route = simple & upper & upper_y &", "route = simple & upper &", CLASSIFY),
    Mutant("Norton on a repeated diagonal value", "classify.py",
           "(diag[:, :, None] == diag[:, None, :]).sum(2) == 1",
           "(diag[:, :, None] == diag[:, None, :]).sum(2) >= 1", CLASSIFY),
    Mutant("back substitution step without its minus sign", "classify.py",
           "p, t, subtract_from=(0, 0))", "p, t)", CLASSIFY),
    Mutant("Norton without the dual spin", "classify.py",
           "verdict[at] = full[:at.size] & full[at.size:]", "verdict[at] = full[:at.size]",
           CLASSIFY),
    Mutant("Norton without the eigenvector spin", "classify.py",
           "verdict[at] = full[:at.size] & full[at.size:]", "verdict[at] = full[at.size:]",
           CLASSIFY),
    Mutant("_of_parts components swapped", "linalg.py",
           "np.stack(parts)", "np.stack(parts[::-1])", ("tests/test_linalg.py",)),
    Mutant("FMat.to_json writes each matrix transposed", "linalg.py",
           "self.arr.transpose(1, 2, 0).tolist()", "self.arr.transpose(2, 1, 0).tolist()", SUITE),
    Mutant("W incidence entry [0, 3] flipped", "classify.py",
           "_W_INCIDENCE = np.array([[j in js for j in range(len(W_MONOMIALS))] for _, js in W_CONDITIONS])",
           "_W_INCIDENCE = np.array([[j in js for j in range(len(W_MONOMIALS))] for _, js in W_CONDITIONS])"
           "\n_W_INCIDENCE[0, 3] ^= True", CLASSIFY),
    Mutant("W binding value without the a/lam corner term", "classify.py",
           "index_sub(corner_index(ctx, logs @ _W_BINDING.T), corner, ctx.p)",
           "corner_index(ctx, logs @ _W_BINDING.T)", CLASSIFY),
    Mutant("root_log chooses the lex-larger root", "field.py",
           "np.minimum(exp[r], exp[r + half])", "np.maximum(exp[r], exp[r + half])", FIELD),
    Mutant("from_index without its int", "field.py",
           "divmod(int(k), self.p)", "divmod(k, self.p)", FIELD),
    Mutant("poly_roots keeps points where one component vanishes", "field.py",
           "(acc0 == 0) & (acc1 == 0)", "(acc0 == 0) | (acc1 == 0)", FIELD),
    Mutant("quadratic_roots returns a double root twice", "field.py",
           "return [r1]", "return [r1, r1]", FIELD),
    *(Mutant(f"W_MONOMIALS[{i}][{k}] += 1", "classify.py", row, bump_exponent(row, k), CLASSIFY)
      for i, row in enumerate(W_MONOMIALS) for k in range(5)),
    *(Mutant(f"W_CONDITIONS triples {i} and {j} swapped", "classify.py",
             "\n    ".join(W_CONDITIONS), swap_triples(i, j), CLASSIFY)
      for i, j in itertools.combinations(range(4), 2)),
    *(Mutant(f"Vn sign pattern {drop} dropped", "classify.py",
             "for sb in (1, -1) for sc in (1, -1))",
             f"for sb, sc in {tuple(s for s in VN_PATTERNS if s != drop)})", CLASSIFY)
      for drop in VN_PATTERNS),
    Mutant("Vn zero check also at n = 0", "classify.py",
           "if n and min(la, lb, lc) < 0:", "if min(la, lb, lc) < 0:", CLASSIFY),
    Mutant("Vn zero check never fires", "classify.py",
           "if n and min(la, lb, lc) < 0:", "if n and min(la, lb, lc) < -1:", CLASSIFY),
    Mutant("sign_key without sign_index", "classify.py",
           "return tuple(sign_index(np.array(index_of(t)), t[0].ctx.p).tolist())",
           "return index_of(t)", CLASSIFY),
    Mutant("W criterion reads delta from column 3", "classify.py",
           "index[:, :4]), index[:, 4]", "index[:, :4]), index[:, 3]", CLASSIFY),
    Mutant("orbit-closure generator rows off by one", "suite.py",
           "gens = [list(table1.ROW_BY_LABEL).index(g) for g in table1.GENERATOR_LABELS]",
           "gens = [list(table1.ROW_BY_LABEL).index(g) + 1 for g in table1.GENERATOR_LABELS]",
           SUITE),
    Mutant("relations with (q^2 - q^-2) for the (q^2 + q^-2) coefficient", "algebra.py",
           "(-(q2 + q2i) * k, mm(yx, y))", "(-(q2 - q2i) * k, mm(yx, y))", ALGEBRA),
    Mutant("relations without the omega_eps term of alpha and beta", "algebra.py",
           ", (lin(((q - qi) * (q - qi) * k, eps)), y))", ")", ALGEBRA),
    Mutant("relations verdict without the B-side C-relation", "algebra.py",
           "hit[:, 2] & hit[:, 3]", "hit[:, 2]", ALGEBRA),
    Mutant("sequences keyed on (a, b, c) only: every row takes the first row's lam", "modules.py",
           "    logs = table1.param_logs(ctx, index)\n",
           "    logs = table1.param_logs(ctx, index)\n    logs[:, 3] = logs[:1, 3]\n", MODULES),
    Mutant("builder reads varphi(0) to varphi(n-2) for varphi(1) to varphi(n-1)", "modules.py",
           "varphi[..., 1:]", "varphi[..., :-1]", MODULES),
    Mutant("builder writes the corner to A[n-1, 0]", "modules.py",
           "flat[:, 0, 0, n - 1], flat[:, 0, 1, n - 1] =",
           "flat[:, 0, 0, n * (n - 1)], flat[:, 0, 1, n * (n - 1)] =", MODULES),
    Mutant("builder writes the first row's corner into every case", "modules.py",
           "divmod(index[:, 4], ctx.p)", "divmod(index[:1, 4], ctx.p)", MODULES),
    Mutant("varphi's k2 without the c inverse", "modules.py",
           "(1, 1, -1, -1, -1, 1),  # q^-i - a b q^(i-1)/(c lam)",
           "(1, 1, 0, -1, -1, 1),  # q^-i - a b q^(i-1)/(c lam)", MODULES),
    Mutant("varphi's lam factor a sum, not a difference", "modules.py",
           "_SEQ_SIGNS = np.array([1, 1, -1, -1, -1, -1])",
           "_SEQ_SIGNS = np.array([1, 1, -1, 1, -1, -1])", MODULES),
    Mutant("theta with q^i for q^2i", "modules.py",
           "(1, 0, 0, -1, 0, 2), (-1, 0, 0, 1, 0, -2),  # theta:",
           "(1, 0, 0, -1, 0, 1), (-1, 0, 0, 1, 0, -1),  # theta:", MODULES),
    Mutant("omega_star with the pairs of omega", "modules.py",
           "_CENTRAL_PAIRS = (((1, 2), (0, 3)), ((2, 0), (1, 3)),",
           "_CENTRAL_PAIRS = (((1, 2), (0, 3)), ((1, 2), (0, 3)),", MODULES),
    Mutant("Fq2 sequence values with their components swapped", "modules.py",
           "Fq2(ctx, x0, x1) for x0, x1", "Fq2(ctx, x1, x0) for x0, x1", MODULES),
    Mutant("e_vector reads theta(h-1) for theta(h)", "modules.py",
           "coeffs[h] * (vt - theta[h])", "coeffs[h] * (vt - theta[h - 1])", MODULES),
    Mutant("L_recurrence reads theta_star(dbar-k-1) for theta_star(dbar-k)", "modules.py",
           "theta_star[dbar - j - 1] - theta_star[dbar - k]",
           "theta_star[dbar - j - 1] - theta_star[dbar - k - 1]", MODULES),
    Mutant("w_ij reads varphi(i+k) for varphi(i+k+1)", "modules.py",
           "term = term * varphi[k + 1]", "term = term * varphi[k]", MODULES),
    Mutant("L_closed case 0 reads varphi one index low", "modules.py",
           "np.arange(dbar - j, dbar)", "np.arange(dbar - j - 1, dbar - 1)", MODULES),
    Mutant("universal property reads varphi(0) for varphi(1)", "modules.py",
           "+ varphi[1]", "+ varphi[0]", MODULES),
    Mutant("ladder's running vector skips its first step", "suite.py",
           "            if k:\n                vec = rep.B @ vec",
           "            if k > 1:\n                vec = rep.B @ vec", SUITE),
    Mutant("lowering charpoly from theta_star", "suite.py",
           "want_a = poly_from_roots(ctx, theta)", "want_a = poly_from_roots(ctx, theta_star)",
           SUITE),
    Mutant("bridge descent reads theta_star(i) for theta_star(i+1)", "suite.py",
           "lhs = (rep.B - S(rep, theta_star[i + 1]))", "lhs = (rep.B - S(rep, theta_star[i]))",
           SUITE),
    Mutant("sequences without the zero check", "modules.py",
           "    if (logs < 0).any():", "    if (logs < -1).any():", MODULES),
    Mutant("solver self-check compares mu only", "classify.py",
           "bad = (feasible_targets(ctx, rows) != targets[own]).any(1)",
           "bad = feasible_targets(ctx, rows)[:, 0] != targets[own, 0]", SUITE),
    Mutant("solver reads r off omega_eps for every lam", "classify.py",
           "unit = 2 * logs[:, 3] % n == 0", "unit = logs[:, 3] >= 0", CLASSIFY),
    Mutant("solver emits a double root c twice", "classify.py",
           "square & (s != 0).any(0)", "square", CLASSIFY),
    Mutant("solver pairs sextic roots with the wrong kappa", "classify.py",
           "owner, kappa = owner[sextic], kappa[sextic]",
           "owner, kappa = owner[sextic], kappa[sextic - 1]", CLASSIFY),
    Mutant("solver sorts its rows by target only", "classify.py",
           "rows = rows[np.lexsort(rows.T[::-1])]",
           "rows = rows[np.argsort(rows[:, 0], kind=\"stable\")]", CLASSIFY),
    Mutant("feasible target's phi a sum of its two products", "classify.py",
           "_PHI_SIGNS = np.array([1, -1, 1, -1, -1, 1, -1, 1])",
           "_PHI_SIGNS = np.array([1, -1, 1, -1, 1, -1, 1, -1])", CLASSIFY),
]


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    """pytest -x -q on ``tests`` with ``uawq`` imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def first_failure(out: str) -> str:
    return next((line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))),
                out.strip().splitlines()[-1] if out.strip() else "no output")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(map(repr, sorted(unknown)))}")
        return 2
    mutants = [m for m in MUTANTS if m.name in names] if names else MUTANTS
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        where = subprocess.run([sys.executable, "-c", "import uawq; print(uawq.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"uawq is imported from {where or 'nowhere'}, not from the copy at {src}")
            return 2
        proc = run_tests(src, tests)
        if proc.returncode != 0:
            print(f"the unmutated tests fail: {first_failure(proc.stdout)}")
            return 2
    print(f"baseline: {' '.join(tests)} pass unmutated")
    bad = 0
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = src / "uawq" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"NOT APPLIED  {m.name}: the text occurs {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            proc = run_tests(src, m.tests)
        if proc.returncode == 1:
            print(f"killed    {m.name}: {first_failure(proc.stdout)}")
        elif proc.returncode == 0:
            print(f"SURVIVED  {m.name}")
            bad += 1
        else:
            print(f"ERROR     {m.name}: pytest exit {proc.returncode}, {first_failure(proc.stdout)}")
            bad += 1
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
