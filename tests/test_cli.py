import hashlib
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from egyptsieve import arith, cli, egypt, reports
from egyptsieve.arith import prime_array, sieve_primes
from egyptsieve.cli import main
from egyptsieve.reports import certificate_from_dict
from egyptsieve.egypt import verify

from conftest import strip_timestamp


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

    @pytest.mark.parametrize("text", [
        json.dumps({"h": 1, "target": {"num": "1", "den": "2"},
                    "primes": ["3", hex(2 ** 30000 + 1)]}),
        json.dumps({"h": 1, "target": {"num": "1",
                                       "den": hex(2 ** 10 ** 6)},
                    "primes": ["3"]}),
        '{"h": 1, "target": {"num": 1, "den": 1' + "0" * 5000 + '},'
        ' "primes": ["3"]}',
    ], ids=["hex prime", "hex target", "long JSON int"])
    def test_certificate_past_the_cap_exits_2(self, tmp_path, capsys, text):
        # refused as read: no primality test or gcd on the long field
        cert = tmp_path / "big.json"
        cert.write_text(text)
        start = time.perf_counter()
        assert main(["verify", "--cert", str(cert)]) == 2
        assert time.perf_counter() - start < 1
        assert "internal error" not in capsys.readouterr().err

    def test_probable_prime_reported(self, tmp_path):
        # a prime above psi_13 passes only BPSW; the report says so, and
        # a certificate of small primes keeps its former keys
        p = 100000000000000000000000000319
        cert = tmp_path / "big.json"
        out = tmp_path / "report.json"
        cert.write_text(json.dumps({"decompositions": [
            {"h": 1, "target": {"num": "1", "den": str(p - 1)},
             "primes": [str(p)]},
            {"h": 1, "target": {"num": "1", "den": "1"},
             "primes": ["3", "5", "7", "13"]}]}))
        assert main(["verify", "--cert", str(cert), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"] == [
            {"valid": True, "reason": None, "primes": 1,
             "probable_primes": 1},
            {"valid": True, "reason": None, "primes": 4}]

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
        # certifies nothing, so nothing was checked
        {"decompositions": []},
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


class TestVerifiedOnce:
    def test_decompose_checks_each_certificate_once(self, tmp_path,
                                                    monkeypatch):
        # egypt checks each certificate at its public exit, and nothing
        # else re-checks what a search returned
        checked = []

        def counting(real):
            def wrapped(d):
                checked.append(len(d.primes))
                return real(d)
            return wrapped

        monkeypatch.setattr(egypt, "verify", counting(egypt.verify))
        monkeypatch.setattr(cli, "verify", counting(cli.verify))
        out = tmp_path / "rf.json"
        assert main(["decompose", "--target", "1", "--shift", "1",
                     "--r-fold", "3", "--max-prime", "1000000",
                     "--out", str(out)]) == 0
        certs = json.loads(out.read_text())["decompositions"]
        terms = sum(len(c["primes"]) for c in certs)
        assert sum(checked) == terms


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

    def test_negative_max_terms_exits_2(self):
        with pytest.raises(egypt.DomainError, match="malformed budget"):
            egypt.SearchBudget(max_terms=-5)
        assert main(["decompose", "--target", "1/2", "--shift", "1",
                     "--max-terms", "-5"]) == 2

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

    @pytest.mark.parametrize("target", ["1/100000000000000000000001",
                                        "7/100000000000000000000001"])
    def test_huge_assembly_modulus_exits_1(self, target, capsys):
        # the assembly modulus passes 2^63; e | M is tested exactly
        rc = main(["decompose", "--target", target, "--shift", "1",
                   "--max-prime", "1000"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("exhausted:")

    def test_shift_past_int64_exits_1(self, capsys):
        rc = main(["decompose", "--target", "1/2", "--shift",
                   "100000000000000000001", "--max-prime", "1000"])
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

    def test_unknown_grid_key_exits_2(self, tmp_path, capsys):
        # checked like a config file's keys: a key no density report
        # reads was laid over the config and ignored (exit 0)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lemma": 1, "N": 1000,
                                    "epsilon": "0.3", "bogus": 5}))
        assert main(["sweep", "--grid", str(grid)]) == 2
        assert capsys.readouterr().err == "error: unknown grid key 'bogus'\n"

    @pytest.mark.parametrize("kind", ["config", "certificate", "grid"])
    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                             ids=["missing", "malformed", "array"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, kind,
                                           text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        argv = {"config": ["--config", str(path), "sieve", "--limit", "10"],
                "certificate": ["verify", "--cert", str(path)],
                "grid": ["sweep", "--grid", str(path)]}[kind]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{kind} file" in err, err
        assert "internal error" not in err

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        def fail(cfg, flags):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli._COMMANDS, "sieve", fail)
        assert main(["sieve", "--limit", "100"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert "Traceback" in err and "RuntimeError: injected fault" in err

    @pytest.mark.parametrize("argv,baseline", [
        (["--lemma", "3", "--y", "5", "--z", "1e400"],
         math.log(5) / (400 * math.log(10))),
        (["--lemma", "3", "--y", "1e400", "--z", "1e401"], 400 / 401),
        (["--lemma", "2", "--delta", "1e400"], 0.0),
    ], ids=["z-1e400", "y-1e400", "delta-1e400"])
    def test_parameters_past_float_range_exit_0(self, argv, baseline,
                                                capsys):
        assert main(["analyze", "--N", "1000", *argv]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["baseline"] == pytest.approx(baseline, rel=1e-12)
        if "--delta" in argv:
            # delta saturates to infinity: the report --delta 1e300 gives
            assert main(["analyze", "--N", "1000", "--lemma", "2",
                         "--delta", "1e300"]) == 0
            finite = json.loads(capsys.readouterr().out)["report"]
            del rep["params"]["delta"], finite["params"]["delta"]
            assert rep == finite and rep["count"] == 0

    def test_gated_split_part_exits_1(self, capsys):
        # 4/5 passes the gate at h = 6; a part of its split does not,
        # which proves nothing about 4/5 (the paper's theorem covers it)
        rc = main(["decompose", "--target", "4/5", "--shift", "6"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("exhausted:") and "provably" not in err

    @pytest.mark.parametrize("argv, rc, err", [
        (["--target", "4/5", "--shift", "6"], 1,
         "exhausted: part 2/3 of the search has a denominator sharing a "
         "factor with |h| = 6; the search stops there\n"),
        (["--target", "1/97", "--shift", "1", "--max-prime", "50"], 1,
         "exhausted: all strategies exhausted for target 1/97\n"),
        (["--target", "1/4", "--shift", "-2"], 2,
         "error: gcd(|h|=2, den=4) = 2 > 1: only p = 2 can give a "
         "denominator divisible by 2, so every achievable sum has 2-adic "
         "valuation >= -2; target has -2\n"),
    ], ids=["gated-part", "exhausted", "obstructed"])
    def test_failed_search_messages(self, argv, rc, err, capsys):
        assert main(["decompose", *argv]) == rc
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", err)

    def test_unfactorable_modulus_ends_no_search(self, capsys):
        # a modulus the cascade builds, with a composite cofactor past
        # trial division, is a refusal for that modulus: the search goes
        # on and ends in a certificate or exhausted, never exit 2.  At
        # the default prime bound the first three targets are below
        # 1/(max_prime - 1) and refused before any modulus; primes to
        # 1e10 let the DP reach the moduli of 101/den
        den = (10 ** 6 + 3) * (10 ** 6 + 33)
        for target, more in ((f"1/{den}", []), (f"2/{den}", []),
                             (f"1/{30030 ** 12}", []),
                             (f"101/{den}", ["--max-prime", str(10 ** 10)])):
            rc = main(["decompose", "--target", target, "--shift", "1",
                       *more])
            assert rc in (0, 1), target
            assert "composite cofactor" not in capsys.readouterr().err

    def test_part_below_the_smallest_unit_exits_1(self, capsys):
        # 1/30030^12 < 1/(max_prime - 1) is refused before any pool and
        # ends exhausted
        assert main(["decompose", "--target", f"1/{30030 ** 12}",
                     "--shift", "1"]) == 1
        assert capsys.readouterr().err.startswith(
            "exhausted: all strategies exhausted for target 1/")

    def test_deep_smooth_modulus_pool_stays_small(self, capsys):
        # 30030^16 has 17^6 = 24 M divisors, of which the pools keep only
        # those up to max_prime - h; 3.5 MiB peak measured
        tracemalloc.start()
        try:
            rc = main(["decompose", "--target", f"1/{30030 ** 16}",
                       "--shift", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc in (1, 2)
        assert "internal error" not in capsys.readouterr().err
        assert peak < 8 << 20

    @pytest.mark.parametrize("argv,rc", [
        (["--lemma", "1", "--shift", str(10 ** 20), "--epsilon", "0.3"], 0),
        (["--lemma", "2", "--shift", str(-10 ** 20), "--delta", "0.3"], 2),
        (["--lemma", "1", "--shift", "1", "--modulus", str(10 ** 20 + 1),
          "--epsilon", "0.3"], 0),
    ], ids=["shift-1e20", "shift-minus-1e20", "modulus-1e20"])
    def test_shift_or_modulus_past_int64(self, argv, rc, capsys):
        # a shift above N - q or a modulus above N selects no n; a shift
        # below -N puts n past every table
        assert main(["analyze", "--N", "1000", *argv]) == rc
        out = capsys.readouterr()
        if rc == 0:
            assert json.loads(out.out)["report"]["count"] == 0
        else:
            assert "over the 500000000 limit" in out.err

    @pytest.mark.parametrize("argv, rc", [
        (["analyze", "--lemma", "1", "--N", "1000", "--epsilon", "1e5000"],
         2),
        (["analyze", "--lemma", "2", "--N", "1000", "--delta", "1e5000"], 0),
        (["analyze", "--lemma", "3", "--N", "1000", "--y", "3",
          "--z", "1e5001"], 2),
        (["decompose", "--target", "1e-5000"], 1),
        (["decompose", "--target", "1e-5000", "--shift", "2"], 2),
        (["decompose", "--target=-1e5000"], 2),
    ], ids=["epsilon", "delta", "z", "exhausted", "obstructed", "negative"])
    def test_numbers_past_the_decimal_limit(self, argv, rc, capsys):
        # a message or a report names a number of more than
        # MAX_DECIMAL_BITS bits in hex, which has no digit limit
        assert main(argv) == rc
        out = capsys.readouterr()
        assert "internal error" not in out.err
        text = out.out if rc == 0 else out.err
        big = 10 ** 5000
        assert hex(big) in text or hex(big * 10) in text
        if rc == 0:
            assert json.loads(out.out)["report"]["params"]["delta"] == \
                hex(big)

    def test_epsilon_with_a_denominator_past_the_float_range(self, capsys):
        # at a prime power n the near-tie test once took b log n with
        # b = 10^5000 and exited 3; n > n^(1 - eps) is decided exactly
        rc = main(["analyze", "--lemma", "1", "--N", "1000",
                   "--epsilon", "1e-5000"])
        out = capsys.readouterr()
        assert rc in (0, 2) and "internal error" not in out.err
        if rc == 0:
            report = json.loads(out.out)["report"]
            assert report["params"]["epsilon"] == f"1/{hex(10 ** 5000)}"
            # n = p - 1 <= 999 is counted just when it is a prime power
            ns = [p - 1 for p in prime_array(1000).tolist() if p > 2]
            assert report["count"] == sum(len(arith.trial_factor(n)) == 1
                                          for n in ns)

    def test_target_past_the_ssize_t_range(self, capsys):
        # the unit loop runs over range(int(x)), which takes any int;
        # a repeat of 10^5000 units once overflowed and exited 3
        rc = main(["decompose", "--target", "1e5000", "--shift", "1",
                   "--max-prime", "1000"])
        assert rc == 1
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("lemma", [
        ["--lemma", "1", "--epsilon", "0.3"],
        ["--lemma", "2", "--delta", "0.3"],
        ["--lemma", "3", "--y", "5", "--z", "10"],
    ], ids=["lemma1", "lemma2", "lemma3"])
    def test_n_over_cap_exits_2(self, lemma, monkeypatch, capsys):
        # n = p + 10^5 passes a cap of 10^4: refused before any array
        # indexed by n, lemma 3's window mask included, is built
        monkeypatch.setattr(arith, "MAX_ARRAY_LIMIT", 10 ** 4)
        argv = ["analyze", "--N", "1000", "--shift", "-100000", *lemma]
        assert main(argv) == 2
        assert "over the 10000 limit" in capsys.readouterr().err


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

    @pytest.mark.parametrize("lemma,N,params", [
        (1, 10 ** 5, {"epsilon": "3/10"}), (2, 10 ** 6, {"delta": "1/2"}),
        (3, 10 ** 5, {"y": "5", "z": "1000"})])
    def test_long_sums_written_in_hex(self, tmp_path, lemma, N, params):
        # past MAX_DECIMAL_BITS bits the sum's parts are hex; read with
        # int(s, 0) they are the report's ints, in JSON and in CSV
        _, rep = cli._analyze_one({"lemma": lemma, "N": N, "shift": 1,
                                   "modulus": 1, **params})
        x = rep.reciprocal_sum
        assert x.denominator.bit_length() > reports.MAX_DECIMAL_BITS
        j, c = tmp_path / "rep.json", tmp_path / "rep.csv"
        args = ["analyze", "--lemma", str(lemma), "--N", str(N),
                *(a for k, v in params.items() for a in (f"--{k}", v))]
        assert main(args + ["--out", str(j)]) == 0
        assert main(args + ["--out", str(c), "--format", "csv"]) == 0
        d = json.loads(j.read_text())["report"]["reciprocal_sum"]
        assert d["den"].startswith("0x")
        assert (int(d["num"], 0), int(d["den"], 0)) == \
            (x.numerator, x.denominator)
        row = [ln for ln in c.read_text().splitlines()
               if not ln.startswith("#")][1]
        assert row.endswith(f",{d['num']}/{d['den']}")

    def test_determinism_modulo_timestamp(self, tmp_path):
        out = tmp_path / "rep.json"
        args = ["analyze", "--lemma", "2", "--N", "10000", "--shift", "1",
                "--delta", "0.5", "--out", str(out)]
        assert main(args) == 0
        first = out.read_text()
        assert main(args) == 0
        second = out.read_text()
        assert strip_timestamp(first) == strip_timestamp(second)


class TestGoldenReports:
    """sha256 of report text, timestamp line removed: any byte a change
    moves in a count, a density, a baseline, a parameter string, a CSV
    column or a reciprocal sum fails here."""

    LEMMA_ARGS = {1: ["--epsilon", "0.3"], 2: ["--delta", "0.5"],
                  3: ["--y", "7", "--z", "100"]}
    ANALYZE = {
        (1, 1, 1, "json"): "05b2d32decb5dc713e260b983fe4e297"
                           "40f91511fc9122309d2dcaa83e2713fb",
        (1, 1, 1, "csv"): "617b7af17d45e743ffef38166216fa82"
                          "dbc6fea1b1e1dc3491ad44a1e6f1a86e",
        (1, -2, 5, "json"): "8204dee75243db69bdf1d269de703c7b"
                            "b0a384b0861f78aca76563d9dc5be63a",
        (1, -2, 5, "csv"): "db3d380579fb8267b830490c233e5cd4"
                           "81305704bf324f7231d2d56d4fbdae94",
        (2, 1, 1, "json"): "3c81886cfcd679ca0dd610bc97f73f41"
                           "c81ce6c1329000338f9c5d2356ee2f93",
        (2, 1, 1, "csv"): "79f6045466c15e41ec382f1435f6c407"
                          "dc4a05e916e954001e4efc3c1bf66f69",
        (2, -2, 5, "json"): "f5b7e52d70177d4671f66b0dcdc2b238"
                            "b827a24efaae6af39a92fb0e2fe37389",
        (2, -2, 5, "csv"): "3c8cf6081aa6dc679fcf2ba1bcf4c4f9"
                           "d3db594738a063bc338fe621c8928118",
        (3, 1, 1, "json"): "5af60382780a9bd17272f796e7579f26"
                           "ea8aba16c2285e7be6b72d52328c6bfe",
        (3, 1, 1, "csv"): "99a2f07d04426a1a8f38fe89f7386427"
                          "9b8e499fd07d77efdb4165e4cd030ab1",
        (3, -2, 5, "json"): "6adea0442de61faeb793438c79b03976"
                            "105dcd29c4459c35b20c3af0abe489dc",
        (3, -2, 5, "csv"): "13faf58722316aec8125d033a61f7000"
                           "794b5a20e29e6af647ba09e6106f4cd0",
    }
    SWEEP = ("2126444b78c5e160104f01f447b701fe"
             "d3b4e02365a6bfd8c95308ec16786ff8")

    @staticmethod
    def _digest(capsys) -> str:
        text = strip_timestamp(capsys.readouterr().out)
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("key", sorted(ANALYZE, key=str),
                             ids=lambda k: "-".join(map(str, k)))
    def test_analyze(self, capsys, key):
        lemma, h, q, fmt = key
        assert main(["analyze", "--lemma", str(lemma), "--N", "10000",
                     "--shift", str(h), "--modulus", str(q),
                     "--format", fmt, *self.LEMMA_ARGS[lemma]]) == 0
        assert self._digest(capsys) == self.ANALYZE[key]

    def test_sweep_csv(self, tmp_path, monkeypatch, capsys):
        # a relative grid path keeps the embedded config free of tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.json").write_text(json.dumps({
            "lemma": 3, "N": 10000, "shift": [1, -2], "modulus": [1, 5],
            "y": 7, "z": 100}))
        assert main(["sweep", "--grid", "grid.json", "--format", "csv"]) == 0
        assert self._digest(capsys) == self.SWEEP

    SIEVE = ("85a3e7e7d566500cf8587403c75c5197"
             "9c7f9d7637e1cdd427d1bdfb7a26afa9")
    BARE_CERTIFICATE = ("9e99c7023db970bbe734e517192f3cc3"
                        "12e871c0cdaa341d40018767c08ed8a3")
    R_FOLD = ("c80c8b14cd9fc206f5c8f86662a198af"
              "f77c398b4ebc76adae4677018b2d5726")
    VERIFY = ("0ca0a67a264b4e7550cf9b22a4555ef3"
              "9b192c603311f2e577b1a63baebf5741")

    def test_sieve(self, capsys):
        assert main(["sieve", "--limit", "1000"]) == 0
        assert self._digest(capsys) == self.SIEVE

    def test_bare_certificate(self, capsys):
        assert main(["decompose", "--target", "5/3", "--shift", "-1",
                     "--max-prime", "100000"]) == 0
        assert self._digest(capsys) == self.BARE_CERTIFICATE

    def test_r_fold_and_verify(self, tmp_path, monkeypatch, capsys):
        # the certify instance, assembly included; relative paths keep
        # the embedded out and cert free of tmp_path
        monkeypatch.chdir(tmp_path)
        assert main(["decompose", "--target", "1", "--shift", "1",
                     "--r-fold", "3", "--max-prime", "1000000",
                     "--out", "cert.json"]) == 0
        text = strip_timestamp((tmp_path / "cert.json").read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == self.R_FOLD
        assert main(["verify", "--cert", "cert.json"]) == 0
        assert self._digest(capsys) == self.VERIFY


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

    def test_npy_bytes_equal_np_save_of_int64(self, tmp_path):
        # written one slice at a time from the int32 primes, the file is
        # byte for byte what np.save writes for the int64 primes
        path = tmp_path / "x.npy"
        assert main(["sieve", "--limit", "1000000", "--primes-out", str(path),
                     "--out", str(tmp_path / "s.json")]) == 0
        ref = io.BytesIO()
        np.save(ref, np.fromiter(sieve_primes(10 ** 6), dtype=np.int64))
        assert path.read_bytes() == ref.getvalue()

    def test_text_written_one_slice_at_a_time(self, tmp_path, monkeypatch):
        # one decimal prime a line; the text of one _chunks slice is held
        # at a time, not the text of the whole array
        path = tmp_path / "primes.txt"
        assert main(["sieve", "--limit", "1000000", "--primes-out",
                     str(path), "--out", str(tmp_path / "s.json")]) == 0
        assert path.read_text() == \
            "\n".join(map(str, sieve_primes(10 ** 6))) + "\n"
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 14)
        prime_array(10 ** 6)
        tracemalloc.start()
        try:
            assert main(["sieve", "--limit", "1000000", "--primes-out",
                         str(path), "--out", str(tmp_path / "s.json")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a slice of 1,024 primes as ints and strings is about 100 KB;
        # the whole array's would be about 7.5 MB
        assert peak < 4 * (arith.SEGMENT_SIZE >> 4) * 100, peak
        assert path.read_text() == \
            "\n".join(map(str, sieve_primes(10 ** 6))) + "\n"

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

    @staticmethod
    def _rows(tmp_path, grid, config=None):
        gfile = tmp_path / "grid.json"
        gfile.write_text(json.dumps(grid))
        argv = ["sweep", "--grid", str(gfile), "--format", "csv",
                "--out", str(tmp_path / "sweep.csv")]
        if config is not None:
            cfile = tmp_path / "cfg.json"
            cfile.write_text(json.dumps(config))
            argv = ["--config", str(cfile), *argv]
        assert main(argv) == 0
        return [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                if not ln.startswith("#")]

    def test_config_file_lemma_parameter(self, tmp_path):
        from_config = self._rows(tmp_path, {"lemma": 1, "N": [1000]},
                                 {"epsilon": "0.3"})
        from_grid = self._rows(tmp_path, {"lemma": 1, "N": [1000],
                                          "epsilon": "0.3"})
        assert from_config == from_grid
        assert len(from_config) == 2

    def test_grid_overrides_config(self, tmp_path):
        rows = self._rows(tmp_path, {"lemma": 1, "N": 1000, "shift": -1,
                                     "epsilon": "0.2"},
                          {"N": 5000, "shift": 1, "epsilon": "0.3"})
        header = rows[0].split(",")
        row = dict(zip(header, rows[1].split(",")))
        assert (row["N"], row["h"], row["epsilon"]) == ("1000", "-1", "1/5")

    def test_mixed_lemma_grid(self, tmp_path):
        rows = self._rows(tmp_path, {"lemma": [1, 2], "N": 1000,
                                     "epsilon": "0.3", "delta": "0.5"})
        header = rows[0].split(",")
        assert header.index("epsilon") < header.index("count")
        assert header[-1] == "delta"
        lemma1, lemma2 = (dict(zip(header, ln.split(","))) for ln in rows[1:])
        assert (lemma1["epsilon"], lemma1["delta"]) == ("3/10", "")
        assert (lemma2["epsilon"], lemma2["delta"]) == ("", "1/2")
        assert lemma2["excluded"] != ""

    def test_rows_name_their_lemma(self, tmp_path):
        grid = {"lemma": [1, 2], "N": 1000, "epsilon": "0.3", "delta": "0.5"}
        rows = self._rows(tmp_path, grid)
        assert rows[0].split(",")[0] == "lemma"
        assert [ln.split(",")[0] for ln in rows[1:]] == ["1", "2"]
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--grid", str(tmp_path / "grid.json"),
                     "--out", str(out)]) == 0
        # the JSON text sorts its keys, so there the field is by name
        assert [row["lemma"] for row in json.loads(out.read_text())["rows"]] \
            == [1, 2]

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

    def test_oversized_grid_refused_before_its_points(self, tmp_path,
                                                      capsys, monkeypatch):
        # 10^4 x 10^4 = 10^8 points in a file of about 100 KB: refused
        # from the list lengths, before any point dict is built.  The
        # product is never entered (a grid built anyway would take GBs)
        def product(*lists):
            raise AssertionError("grid points built")

        monkeypatch.setattr(cli.itertools, "product", product)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lemma": 1, "N": list(range(10 ** 4)),
                                    "epsilon": list(range(10 ** 4))}))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert main(["sweep", "--grid", str(grid)]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert "grid cardinality 100000000 exceeds 1e4" in \
            capsys.readouterr().err
        # the parsed grid itself is about 0.6 MB
        assert peak < 4 << 20, peak


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

    @pytest.mark.parametrize("command", [
        ["sieve", "--limit", "10"],
        ["analyze", "--lemma", "1", "--N", "1000", "--epsilon", "0.3"],
        ["decompose", "--target", "1"]])
    def test_malformed_paths_and_format_exit_2(self, tmp_path, capsys,
                                               command):
        # a path that is no string was a TypeError from Path (exit 3),
        # and an unknown format was written as JSON (exit 0)
        cfgfile = tmp_path / "cfg.json"
        for bad in ({"out": 5}, {"primes_out": 5}, {"cert": ["a"]},
                    {"grid": {"lemma": 1}}, {"format": "xml"},
                    {"format": None}):
            cfgfile.write_text(json.dumps(bad))
            assert main(["--config", str(cfgfile), *command]) == 2, bad
            err = capsys.readouterr().err
            assert err.startswith("error:") and "internal" not in err, bad
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("command", [
        ["sieve", "--limit", "10"],
        ["decompose", "--target", "1"],
        ["verify", "--cert", "cert.json"]])
    def test_csv_format_refused_without_csv_output(self, tmp_path, capsys,
                                                   command):
        # sieve, decompose and verify write JSON only: a config's csv was
        # written as JSON (exit 0) and echoed as "format": "csv"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "csv"}))
        assert main(["--config", str(cfgfile), *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "csv" in err
        assert list(tmp_path.iterdir()) == [cfgfile]

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
