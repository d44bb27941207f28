import io
import json

import pytest

from bgrank import QPolynomial, cli, qseries
from bgrank.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestMapUnmap:
    def test_map_showcase(self):
        code, text = run(["map", "9,7,5,4,1", "--box", "4,1", "--no-conjugate"])
        assert code == 0
        assert "t          = 6" in text
        assert "delta      = 4,5,4,4,2,1" in text
        assert "b          = 4,1,3,1,1" in text
        assert "image      = 6,3,1" in text

    def test_map_fourth_showcase(self):
        code, text = run(["map", "11,8,7,4,3,1", "--box", "6,1", "--no-conjugate"])
        assert code == 0
        assert "t          = 6" in text
        assert "image      = 5,5,3,1" in text

    def test_map_empty(self):
        code, text = run(["map", ""])
        assert code == 0
        assert "t          = 0" in text
        assert "image      = \n" in text

    def test_unmap_showcase(self):
        code, text = run(["unmap", "6", "6,3,1", "--box", "4,1", "--no-conjugate"])
        assert code == 0
        assert "partition  = 9,7,5,4,1" in text
        assert "N          = 4" in text
        assert "n          = 26" in text

    def test_unmap_third_showcase(self):
        code, text = run(["unmap", "10", "8,7", "--box", "5,1", "--no-conjugate"])
        assert code == 0
        assert "partition  = 11,8,6,5,4,3,2,1" in text

    def test_unmap_empty(self):
        code, text = run(["unmap", "0", ""])
        assert code == 0
        assert "partition  = \n" in text or text.rstrip().endswith("partition  =")

    def test_map_unmap_text_identity(self):
        for source in ("9,7,5,4,1", "12,11,6,4,2", "4,1", "2,1", ""):
            code, text = run(["map", source, "--json"])
            record = json.loads(text)
            code, text = run(["unmap", str(record["t"]), record["image"], "--json"])
            back = json.loads(text)
            assert back["image"] == source

    def test_map_json_schema(self):
        code, text = run(["map", "9,7,5,4,1", "--box", "4,1", "--no-conjugate", "--json"])
        record = json.loads(text)
        assert set(record) == {
            "cmd", "input", "k", "t", "delta", "image", "bounds", "ok", "mismatch", "ms",
        }
        assert record["cmd"] == "map"
        assert record["k"] == 2
        assert record["t"] == 6
        assert record["delta"] == [4, 5, 4, 4, 2, 1]
        assert record["image"] == "6,3,1"
        assert record["bounds"] == {"L": 6, "M": 3}
        assert record["ok"] is True
        assert isinstance(record["ms"], float)

    def test_parse_error_exit_2(self):
        code, _ = run(["map", "3,5"])
        assert code == 2

    def test_domain_error_exit_3(self):
        code, _ = run(["map", "9,7,5,4,1", "--box", "1,0"])
        assert code == 3
        code, _ = run(["unmap", "2", "1"])
        assert code == 3


class TestRankAndGf:
    def test_rank(self):
        code, text = run(["rank", "10,7,4,2"])
        assert code == 0
        assert "bg-rank        = -1" in text
        assert "r0             = 11" in text
        assert "r1             = 12" in text
        assert "characteristic = 1" in text

    def test_rank_json(self):
        code, text = run(["rank", "9,7,5,4,1", "--json"])
        assert json.loads(text)["k"] == 2

    def test_gf_gaussian(self):
        code, text = run(["gf", "gaussian", "--m", "4", "--n", "2"])
        assert code == 0
        assert text.strip() == "1 + q + 2*q^2 + q^3 + q^4"

    def test_gf_strict(self):
        code, text = run(["gf", "strict", "--max-part", "2", "--k", "0"])
        assert text.strip() == "1 + q^2"

    def test_gf_negpoch(self):
        code, text = run(["gf", "negpoch", "--count", "3"])
        assert text.strip() == "1 + q + q^2 + 2*q^3 + q^4 + q^5 + q^6"

    def test_gf_invpoch_json(self):
        code, text = run(["gf", "invpoch", "--base", "2", "--factors", "inf", "--degree", "6", "--json"])
        record = json.loads(text)
        assert record == {"coeffs": ["1", "0", "1", "0", "2", "0", "3"], "truncation": 6}

    def test_gf_all(self):
        code, text = run(["gf", "all", "--max-part", "1", "--k", "0", "--degree", "4"])
        assert text.strip() == "1 + q^2 + q^4"


class TestVerify:
    def test_eq1_sweep(self):
        code, text = run(["verify", "eq1", "--N", "0..2", "--nu", "0,1", "--k=-3..3"])
        assert code == 0
        assert "MISMATCH" not in text
        lines = text.strip().splitlines()
        assert len(lines) == 6 * 7

    def test_eq52_sweep(self):
        code, text = run(["verify", "eq52", "--N", "0..3"])
        assert code == 0

    def test_eq51_json(self):
        code, text = run(["verify", "eq51", "--N", "0..1", "--k", "0", "--degree", "12", "--json"])
        assert code == 0
        for line in text.strip().splitlines():
            record = json.loads(line)
            assert record["ok"] is True
            assert record["cmd"] == "verify"

    def test_roundtrip(self):
        code, text = run(["verify", "roundtrip", "--n-max", "10"])
        assert code == 0
        assert "FAILED" not in text

    def test_theorem31(self):
        code, text = run(["verify", "theorem31", "--n-max", "8", "--N", "0..2", "--k=-2..2"])
        assert code == 0
        assert "MISMATCH" not in text

    def test_thread_env(self, monkeypatch):
        monkeypatch.setenv("BGRANK_THREADS", "4")
        code, text = run(["verify", "eq52", "--N", "0..2"])
        assert code == 0
        assert len(text.strip().splitlines()) == 6

    def test_grid_order_is_deterministic(self):
        _, first = run(["verify", "eq1", "--N", "0..1", "--k=-2..2"])
        _, second = run(["verify", "eq1", "--N", "0..1", "--k=-2..2"])
        assert first == second


class TestRender:
    def test_young(self):
        code, text = run(["render", "young", "1"])
        assert code == 0
        assert text.strip() == "[ ]"

    def test_residue(self):
        code, text = run(["render", "residue", "10,7,4,2"])
        assert text.count("[0]") == 11
        assert text.count("[1]") == 12

    def test_blocks(self):
        code, text = run(["render", "blocks", "9,7,5,4,1"])
        for label in ("B1", "B2", "B3", "B4", "B5"):
            assert label in text

    def test_blocks_requires_strict(self):
        code, _ = run(["render", "blocks", "2,2"])
        assert code == 2

    def test_ascii_flag_accepted(self):
        code, text = run(["render", "young", "2,1", "--ascii"])
        assert code == 0


class TestSelftest:
    def test_quick_passes(self):
        code, text = run(["selftest", "--quick"])
        assert code == 0
        assert "8/8 criteria passed" in text

    def test_quick_json(self):
        code, text = run(["selftest", "--quick", "--json"])
        assert code == 0
        records = [json.loads(line) for line in text.strip().splitlines()]
        assert len(records) == 8
        assert all(r["ok"] for r in records)

    def test_mutation_is_caught(self, monkeypatch):
        # corrupt one coefficient of every Gaussian binomial: the suite must fail
        original = qseries.gaussian_binomial

        def corrupted(m, n):
            poly = original(m, n)
            if poly.is_zero():
                return poly
            coeffs = list(poly.coeffs)
            coeffs[0] += 1
            return QPolynomial(coeffs, poly.truncation)

        monkeypatch.setattr(qseries, "gaussian_binomial", corrupted)
        code, text = run(["selftest", "--quick"])
        assert code == 1
        assert "FAIL" in text


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_identity_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "eq99"])
        assert exc.value.code == 2


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gf", "strict", "--max-part", "-1"], 3),
            (["verify", "eq1", "--nu", "2"], 3),
            (["verify", "eq1", "--N", "0..x"], 2),
            (["gf", "invpoch", "--factors", "abc"], 2),
            (["gf", "gaussian", "--m", "5", "--n", "2", "--base", "-1"], 3),
            (["gf", "gaussian", "--m", "5", "--n", "2", "--base", "0"], 3),
            (["verify", "eq1", "--N", ""], 2),
            (["verify", "eq1", "--nu", ""], 2),
            (["verify", "eq1", "--k", ""], 2),
            (["verify", "theorem31", "--N", ""], 2),
            (["verify", "theorem31", "--nu", ""], 2),
            (["verify", "theorem31", "--k", ""], 2),
            (["verify", "eq53", "--N=-1"], 3),
        ],
        ids=[
            "negative-max-part",
            "nu-2",
            "bad-range",
            "bad-factors",
            "gaussian-base-negative",
            "gaussian-base-zero",
            "empty-N",
            "empty-nu",
            "empty-k",
            "theorem31-empty-N",
            "theorem31-empty-nu",
            "theorem31-empty-k",
            "eq53-negative-N",
        ],
    )
    def test_bad_argument_gives_one_error_line(self, argv, code, capsys):
        assert run(argv)[0] == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_n_is_named(self, capsys):
        assert run(["verify", "eq53", "--N=-1"])[0] == 3
        assert capsys.readouterr().err == "error: N must be non-negative, got -1\n"

    def test_rank_check_is_a_real_raise(self, monkeypatch, capsys):
        # the residue count and the part indices must agree on the BG-rank;
        # break that agreement and `rank` must refuse, also under python -O
        monkeypatch.setattr(cli, "bg_rank", lambda p: 99)
        assert run(["rank", "10,7,4,2"])[0] == 3
        assert capsys.readouterr().err.startswith("error: ")
