import json
import math
from fractions import Fraction

import numpy as np
import pytest

from egyptsieve import cli
from egyptsieve.arith import sieve_primes
from egyptsieve.cli import main
from egyptsieve.reports import certificate_from_dict
from egyptsieve.egypt import verify


def _strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines()
                     if '"timestamp"' not in ln
                     and not ln.startswith("# timestamp"))


class TestDecomposeVerifyRoundTrip:
    def test_certificate_passes_verify(self, tmp_path):
        cert = tmp_path / "cert.json"
        rc = main(["decompose", "--target", "1", "--shift", "1",
                   "--out", str(cert)])
        assert rc == 0
        doc = json.loads(cert.read_text())
        dec = certificate_from_dict(doc)
        assert verify(dec).valid
        assert main(["verify", "--cert", str(cert)]) == 0

    def test_r_fold_certificates(self, tmp_path):
        cert = tmp_path / "rf.json"
        rc = main(["decompose", "--target", "1/2", "--shift", "1",
                   "--r-fold", "2", "--out", str(cert)])
        assert rc == 0
        doc = json.loads(cert.read_text())
        assert len(doc["decompositions"]) == 2
        assert main(["verify", "--cert", str(cert)]) == 0

    def test_several_targets(self, tmp_path):
        cert = tmp_path / "two.json"
        assert main(["decompose", "--target", "1", "1/2", "--shift", "1",
                     "--out", str(cert)]) == 0
        decs = json.loads(cert.read_text())["decompositions"]
        assert [certificate_from_dict(d).target for d in decs] == \
            [1, Fraction(1, 2)]
        assert main(["verify", "--cert", str(cert)]) == 0

    def test_several_targets_r_fold(self, tmp_path):
        cert = tmp_path / "rf.json"
        assert main(["decompose", "--target", "1/2", "1", "--shift", "1",
                     "--r-fold", "2", "--out", str(cert)]) == 0
        decs = [certificate_from_dict(d) for d in
                json.loads(cert.read_text())["decompositions"]]
        assert [d.target for d in decs] == [Fraction(1, 2)] * 2 + [1] * 2
        for pair in (decs[:2], decs[2:]):
            assert not set(pair[0].primes) & set(pair[1].primes)
        assert main(["verify", "--cert", str(cert)]) == 0

    def test_targets_from_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cert = tmp_path / "cert.json"
        cfgfile.write_text(json.dumps({"target": "5/3", "shift": 1}))
        assert main(["--config", str(cfgfile), "decompose",
                     "--out", str(cert)]) == 0
        assert certificate_from_dict(json.loads(cert.read_text())).target \
            == Fraction(5, 3)
        cfgfile.write_text(json.dumps({"target": ["1", "1/2"], "shift": 1}))
        assert main(["--config", str(cfgfile), "decompose",
                     "--out", str(cert)]) == 0
        assert len(json.loads(cert.read_text())["decompositions"]) == 2
        assert main(["verify", "--cert", str(cert)]) == 0

    def test_bad_certificate_exits_1(self, tmp_path):
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps({
            "h": 1, "target": {"num": "1", "den": "1"},
            "primes": ["3", "5"]}))
        assert main(["verify", "--cert", str(cert)]) == 1

    def test_long_wrong_certificate_exits_1(self, tmp_path):
        # the sum has far more than 4,300 digits; the reason quotes none
        primes = [str(p) for p in list(sieve_primes(70000))[1:6001]]
        assert len(primes) == 6000
        cert = tmp_path / "long.json"
        out = tmp_path / "report.json"
        cert.write_text(json.dumps({
            "h": 1, "target": {"num": "1", "den": "1"}, "primes": primes}))
        assert main(["verify", "--cert", str(cert), "--out", str(out)]) == 1
        result, = json.loads(out.read_text())["results"]
        assert result == {"valid": False, "primes": 6000, "reason":
                          "sum of the 6000 reciprocals is above the target"}

    def test_malformed_certificate_exits_2(self, tmp_path):
        cert = tmp_path / "junk.json"
        cert.write_text("{not json")
        assert main(["verify", "--cert", str(cert)]) == 2

    @pytest.mark.parametrize("cert_doc", [
        # int(3.5) would read 3, and {3} is a certificate of 1/2 at h=1
        {"h": 1, "target": {"num": 1, "den": 2}, "primes": [3.5]},
        {"h": 1.9, "target": {"num": 1, "den": 2}, "primes": ["3"]},
        {"h": True, "target": {"num": 1, "den": 2}, "primes": ["3"]},
        {"h": 1, "target": {"num": 1.0, "den": 2}, "primes": ["3"]},
        {"h": 1, "target": {"num": 1, "den": True}, "primes": ["2"]},
        {"h": 1, "target": {"num": "1", "den": " 2"}, "primes": ["3"]},
        {"h": 1, "target": {"num": "1", "den": "2"}, "primes": ["3.0"]},
        {"h": 1, "target": {"num": "1", "den": "2"}, "primes": ["+3"]},
        {"h": 1, "target": {"num": "1", "den": "2"}, "primes": "3"},
        {"h": 1, "target": {"num": "1", "den": "0"}, "primes": ["3"]},
        {"h": 1, "target": {"num": 1, "den": 0}, "primes": ["3"]},
        {"h": 1, "target": {"num": 1, "den": -2}, "primes": ["3"]},
        {"decompositions": 5},
        {"decompositions": {"h": 1}},
        {"decompositions": [5]},
    ])
    def test_unsound_reads_exit_2(self, tmp_path, capsys, cert_doc):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(cert_doc))
        assert main(["verify", "--cert", str(cert)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_fields_may_be_json_numbers(self, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "h": -1, "target": {"num": 1, "den": 3}, "primes": [2]}))
        assert main(["verify", "--cert", str(cert)]) == 0


class TestExitCodes:
    def test_analyze_validation(self, capsys):
        rc = main(["analyze", "--lemma", "3", "--N", "1000",
                   "--y", "4", "--z", "3"])
        assert rc == 2

    def test_obstructed_target(self):
        rc = main(["decompose", "--target", "1/8", "--shift", "-2"])
        assert rc == 2

    def test_r_fold_0_exits_2(self):
        assert main(["decompose", "--target", "1", "--r-fold", "0"]) == 2

    def test_exhausted_is_1(self):
        rc = main(["decompose", "--target", "1/97", "--shift", "1",
                   "--max-prime", "50"])
        assert rc == 1

    def test_missing_grid_file(self):
        assert main(["sweep", "--grid", "/nonexistent/grid.json"]) == 2

    def test_grid_point_without_lemma_parameter(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lemma": 1, "N": 1000}))
        assert main(["sweep", "--grid", str(grid)]) == 2
        assert "lemma 1 needs --epsilon" in capsys.readouterr().err

    def test_negative_shift_past_max_prime_exits_1(self, capsys):
        # the assembly stage sees d = p - h up to max_prime - h
        for h in (-1001, -10 ** 12 - 1, -10 ** 19 - 1):
            rc = main(["decompose", "--target", "1/2", "1", "--shift",
                       str(h), "--max-prime", "1000"])
            assert rc == 1, h
            assert capsys.readouterr().err.startswith("exhausted:"), h

    def test_huge_integer_target_exits_1(self, capsys):
        # the units of x are solved one at a time, never listed up front
        rc = main(["decompose", "--target", "1000000000000", "--shift", "1",
                   "--max-prime", "1000"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("exhausted:")

    @pytest.mark.parametrize("argv", [
        ["sieve", "--limit", "100000000000"],
        ["analyze", "--lemma", "1", "--N", "100000000000", "--shift", "1",
         "--epsilon", "3/10"],
        ["analyze", "--lemma", "2", "--N", "100000000000", "--delta", "1/2"],
    ])
    def test_whole_range_array_over_cap_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "over the 500000000 limit" in capsys.readouterr().err

    def test_malformed_grid_values_exit_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        for bad in ({"N": "big"}, {"shift": 1.5}, {"epsilon": "abc"}):
            grid.write_text(json.dumps({"lemma": 1, "N": 1000,
                                        "epsilon": "0.3", **bad}))
            assert main(["sweep", "--grid", str(grid)]) == 2, bad
            assert capsys.readouterr().err.startswith("error:"), bad

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        def fail(cfg):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "_cmd_sieve", fail)
        assert main(["sieve", "--limit", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert "Traceback" in err and "RuntimeError: injected fault" in err

    def test_unfactorable_modulus_exits_2(self, capsys):
        den = (10 ** 6 + 3) * (10 ** 6 + 33)
        rc = main(["decompose", "--target", f"1/{den}", "--shift", "1"])
        assert rc == 2
        assert "composite cofactor" in capsys.readouterr().err


class TestAnalyze:
    def test_lemma1_json(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["analyze", "--lemma", "1", "--N", "10000", "--shift", "1",
                   "--epsilon", "0.3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["lemma"] == 1
        rep = doc["report"]
        assert 0.0 <= rep["relative_density"] <= 1.0
        assert rep["baseline"] == pytest.approx(0.3)
        assert doc["config"]["epsilon"] == "0.3"

    def test_csv_json_same_numbers(self, tmp_path):
        j = tmp_path / "rep.json"
        c = tmp_path / "rep.csv"
        args = ["analyze", "--lemma", "3", "--N", "10000", "--shift", "1",
                "--y", "4", "--z", "7"]
        assert main(args + ["--out", str(j)]) == 0
        assert main(args + ["--out", str(c), "--format", "csv"]) == 0
        doc = json.loads(j.read_text())["report"]
        lines = [ln for ln in c.read_text().splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert int(row["count"]) == doc["count"]
        assert float(row["relative_density"]) == doc["relative_density"]
        assert float(row["baseline"]) == doc["baseline"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        out = tmp_path / "rep.json"
        args = ["analyze", "--lemma", "2", "--N", "10000", "--shift", "1",
                "--delta", "0.5", "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert main(args) == 0
        second = out.read_text()
        assert _strip_timestamp(first) == _strip_timestamp(second)


class TestSieveCommand:
    def test_report_and_primes_out(self, tmp_path):
        out = tmp_path / "sieve.json"
        primes = tmp_path / "primes.txt"
        rc = main(["sieve", "--limit", "100", "--out", str(out),
                   "--primes-out", str(primes)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 25
        assert doc["largest"] == 97
        listed = [int(x) for x in primes.read_text().split()]
        assert listed[:4] == [2, 3, 5, 7] and len(listed) == 25

    def test_npy_1e6_matches_stream(self, tmp_path):
        out = tmp_path / "sieve.json"
        primes = tmp_path / "x.npy"
        assert main(["sieve", "--limit", "1000000", "--out", str(out),
                     "--primes-out", str(primes)]) == 0
        arr = np.load(primes)
        assert arr.dtype == np.int64
        assert np.array_equal(
            arr, np.fromiter(sieve_primes(10 ** 6), dtype=np.int64))
        doc = json.loads(out.read_text())
        assert (doc["count"], doc["largest"]) == (78498, 999983)

    def test_limit_below_2_exits_2(self, tmp_path):
        for limit in ("1", "0"):
            assert main(["sieve", "--limit", limit,
                         "--out", str(tmp_path / "s.json")]) == 2



class TestSweep:
    def test_lemma1_grid_monotone(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "lemma": 1, "N": 10000, "shift": 1,
            "epsilon": ["0.1", "0.2", "0.3", "0.4"]}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--grid", str(grid), "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        dens = [float(dict(zip(header, ln.split(",")))["relative_density"])
                for ln in lines[1:]]
        assert len(dens) == 4
        assert dens == sorted(dens)

    def test_lemma3_grid_baseline(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "lemma": 3, "N": 10000, "shift": 1,
            "y": [5, 10], "z": [50, 100]}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", str(grid), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 4
        for row in rows:
            expect = math.log(float(row["y"])) / math.log(float(row["z"]))
            assert float(row["baseline"]) == pytest.approx(expect)

    def test_empty_grid(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", str(grid), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines == []

    def test_oversized_grid(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "lemma": 1, "N": 10000,
            "epsilon": [str(k) for k in range(1, 10002)]}))
        assert main(["sweep", "--grid", str(grid)]) == 2


class TestConfigPrecedence:
    def test_file_then_flags(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"shift": -1, "modulus": 1,
                                       "epsilon": "0.2"}))
        out = tmp_path / "rep.json"
        rc = main(["--config", str(cfgfile), "analyze", "--lemma", "1",
                   "--N", "10000", "--epsilon", "0.3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["shift"] == -1          # from file
        assert doc["config"]["epsilon"] == "0.3"     # flag overrides file
        assert doc["report"]["params"]["h"] == -1

    def test_malformed_values_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        for bad in ({"max_prime": "lots"}, {"shift": 1.5},
                    {"max_terms": True}, {"modulus": [10]}):
            cfgfile.write_text(json.dumps(bad))
            assert main(["--config", str(cfgfile), "sieve",
                         "--limit", "10"]) == 2, bad
            assert capsys.readouterr().err.startswith("error:"), bad

    def test_integral_values_accepted(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"shift": -1.0, "modulus": "1"}))
        out = tmp_path / "rep.json"
        assert main(["--config", str(cfgfile), "analyze", "--lemma", "1",
                     "--N", "1000", "--epsilon", "0.3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["shift"] == -1

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfgfile), "sieve", "--limit", "10"]) == 2
