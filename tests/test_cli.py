import json

import pytest

from uawq.cli import main, parse_element
from uawq.field import ctx_new


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_plain(self, ctx13):
        assert parse_element(ctx13, "7") == ctx13.el(7)

    def test_extension(self, ctx13):
        assert parse_element(ctx13, "7+2i") == ctx13.el(7, 2)

    def test_negative_reduces(self, ctx13):
        assert parse_element(ctx13, "-1") == ctx13.el(12)

    def test_garbage_rejected(self, ctx13):
        with pytest.raises(ValueError):
            parse_element(ctx13, "2*i")


class TestBuild:
    def test_w_smoke(self, capsys):
        code, out, _ = run(capsys, "build", "w", "--p", "13", "--d", "3",
                           "--params", "1,1,1,1,0", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["schema"] == 1
        assert blob["dbar"] == 3
        assert len(blob["A"]) == 3
        assert blob["A"][0][2] == [0, 0]  # corner delta = 0

    def test_vn_smoke(self, capsys):
        code, out, _ = run(capsys, "build", "vn", "--p", "13", "--d", "3",
                           "--params", "2,2,2", "--n", "1", "--json")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["A"]) == 2
        assert blob["n"] == 1

    def test_invalid_n_exit2(self, capsys):
        code, _out, err = run(capsys, "build", "vn", "--p", "13", "--d", "3",
                              "--params", "2,2,2", "--n", "9")
        assert code == 2
        assert json.loads(err)["error"] == "BadRange"

    def test_zero_param_exit2(self, capsys):
        code, _out, err = run(capsys, "build", "w", "--p", "13", "--d", "3",
                              "--params", "0,1,1,1,0")
        assert code == 2
        assert "error" in json.loads(err)

    def test_bad_d_exit2(self, capsys):
        code, _out, err = run(capsys, "build", "w", "--p", "13", "--d", "4",
                              "--params", "1,1,1,1,0")
        assert code == 2
        assert json.loads(err)["error"] == "DExcluded"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dump.json"
        code, out, _ = run(capsys, "build", "w", "--p", "13", "--d", "3",
                           "--params", "1,1,1,1,0", "--json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["schema"] == 1


class TestIrr:
    def test_v0_true(self, capsys):
        code, out, _ = run(capsys, "irr", "vn", "--p", "13", "--d", "3",
                           "--params", "2,3,4", "--n", "0", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob == {"schema": 1, "criterion": True, "oracle": True, "agree": True}

    def test_w_reducible_agrees(self, capsys):
        code, out, _ = run(capsys, "irr", "w", "--p", "13", "--d", "3",
                           "--params", "1,1,1,1,0", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["criterion"] is False and blob["oracle"] is False and blob["agree"]

    def test_seeded_case(self, capsys):
        code, out, _ = run(capsys, "irr", "w", "--p", "13", "--d", "3",
                           "--params", "2,5,7,11,3", "--json")
        assert code == 0
        assert json.loads(out)["agree"] is True


class TestOrbit:
    def test_quadruple_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--p", "13", "--d", "3",
                           "--params", "1,1,1,1", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "quadruple"
        assert 1 <= blob["size"] <= 24
        assert [[1, 0]] * 4 in blob["members"]

    def test_row12_image_present(self, capsys):
        code, out, _ = run(capsys, "orbit", "--p", "13", "--d", "3",
                           "--params", "2,5,7,11", "--json")
        assert code == 0
        blob = json.loads(out)
        inv7 = ctx_new(13, 3).el(7).inv()
        assert [[2, 0], [5, 0], inv7.to_json(), [11, 0]] in blob["members"]

    def test_quintuple_closure(self, capsys):
        code, out, _ = run(capsys, "orbit", "--p", "13", "--d", "3",
                           "--params", "2,5,7,11,0", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "quintuple"
        assert blob["size"] >= 1

    def test_needs_extension_exit4(self, capsys):
        # 1+1i times q = 3+3i has norm (1-t)*9 = ... scan assures non-square
        # choose params with a known non-square orbit argument
        from uawq.field import is_square

        ctx = ctx_new(13, 3)
        probe = None
        for x in ctx.elements():
            if not x.is_zero() and not is_square(x * ctx.q):
                probe = x
                break
        text = f"{probe.x0}+{probe.x1}i" if probe.x1 else str(probe.x0)
        code, _out, err = run(capsys, "orbit", "--p", "13", "--d", "3",
                              "--params", f"{text},1,1,1")
        assert code == 4
        assert json.loads(err)["error"] == "NeedsExtension"


class TestSuiteCmd:
    def test_smoke_level_passes(self, capsys):
        code, out, _ = run(capsys, "suite", "--p", "13", "--d", "3",
                           "--level", "smoke", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert len(blob["checks"]) == 20
        assert all(c["passed"] for c in blob["checks"])

    def test_text_out_file(self, capsys, tmp_path):
        target = tmp_path / "suite.txt"
        argv = ("suite", "--p", "7", "--d", "3", "--level", "smoke")
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == run(capsys, *argv)[1]

    def test_invalid_field_exit2(self, capsys):
        code, _out, err = run(capsys, "suite", "--p", "15", "--d", "3",
                              "--level", "smoke")
        assert code == 2
        assert json.loads(err)["error"] == "NotPrime"


class TestClassifyCmd:
    def test_deterministic_bytes(self, capsys):
        code1, out1, _ = run(capsys, "classify", "--p", "13", "--d", "3",
                             "--seed", "42", "--count", "10", "--json")
        code2, out2, _ = run(capsys, "classify", "--p", "13", "--d", "3",
                             "--seed", "42", "--count", "10", "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_shape(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "13", "--d", "3",
                           "--seed", "5", "--count", "8", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["schema"] == 1
        assert blob["errors"] == []
        for cls in blob["classes"]:
            assert cls["irreducible"] is True
            assert cls["size"] >= 1
