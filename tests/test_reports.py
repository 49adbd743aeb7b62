import json
from fractions import Fraction

import pytest

from egyptsieve import __version__
from egyptsieve.egypt import Decomposition
from egyptsieve.errors import DomainError
from egyptsieve.reports import (
    MAX_DECIMAL_BITS,
    certificate_dict,
    certificate_from_dict,
    density_rows,
    fraction_dict,
    fraction_from_dict,
    render_csv,
    render_report,
)
from egyptsieve.spectrum import ShiftParams, friability_density

from conftest import strip_timestamp


def test_fraction_round_trip():
    x = Fraction(-75, 8)
    assert fraction_from_dict(fraction_dict(x)) == x


def test_fraction_strings_survive_64bit():
    d = fraction_dict(Fraction(1, 2 ** 61 - 1))
    assert d == {"num": "1", "den": str(2 ** 61 - 1)}
    assert isinstance(d["den"], str)


def test_fraction_malformed():
    with pytest.raises(DomainError):
        fraction_from_dict({"num": "x", "den": "2"})


def test_hex_past_the_decimal_bits():
    # decimal up to MAX_DECIMAL_BITS bits, hex past them; both read back
    top = 2 ** MAX_DECIMAL_BITS - 1
    d = fraction_dict(Fraction(top, top + 2))
    assert d == {"num": str(top), "den": hex(top + 2)}
    for x in (Fraction(top, top + 2), Fraction(-top - 2, 3)):
        d = fraction_dict(x)
        assert fraction_from_dict(d) == x
        assert (int(d["num"], 0), int(d["den"], 0)) == \
            (x.numerator, x.denominator)
    for bad in ("0XFF", "0xFF", "0x", "0x-1", "- 0x1", "0x1.0"):
        with pytest.raises(DomainError):
            fraction_from_dict({"num": bad, "den": "1"})


def test_density_rows_hex_past_the_decimal_bits():
    rep = friability_density(10 ** 5, ShiftParams(1), Fraction(1, 5))
    x = rep.reciprocal_sum
    assert x.denominator.bit_length() > MAX_DECIMAL_BITS
    num, den = density_rows([rep])[0]["reciprocal_sum"].split("/")
    assert den.startswith("0x")
    assert (int(num, 0), int(den, 0)) == (x.numerator, x.denominator)


@pytest.mark.parametrize("field", ["num", "den", "prime", "h"])
def test_certificate_integers_capped(field):
    # a certificate integer past MAX_DECIMAL_BITS bits is refused as read,
    # in hex or as a JSON int; at the cap it is read
    for bits, ok in ((MAX_DECIMAL_BITS, True), (MAX_DECIMAL_BITS + 1, False)):
        big = 2 ** bits - 1
        for v in (hex(big), big):
            doc = {"h": 1, "target": {"num": "1", "den": "2"},
                   "primes": ["3"]}
            if field == "prime":
                doc["primes"] = ["3", v]
            elif field == "h":
                doc["h"] = v
            else:
                doc["target"][field] = v
            if ok:
                certificate_from_dict(doc)
            else:
                with pytest.raises(DomainError, match="-bit cap"):
                    certificate_from_dict(doc)


def test_certificate_round_trip():
    dec = Decomposition(h=-1, target=Fraction(5, 3), primes=(2, 5, 11))
    doc = certificate_dict(dec)
    assert doc["primes"] == ["2", "5", "11"]
    assert certificate_from_dict(doc) == dec


def test_render_report_timestamp_isolated():
    text = render_report({"k": 1}, {"command": "x"}, __version__)
    lines = [ln for ln in text.splitlines() if '"timestamp"' in ln]
    assert len(lines) == 1
    # identical payloads differ only on that line
    t2 = render_report({"k": 1}, {"command": "x"}, __version__)
    kept1 = [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    kept2 = [ln for ln in t2.splitlines() if '"timestamp"' not in ln]
    assert kept1 == kept2


def test_render_report_fixed_timestamp_is_byte_stable():
    a = render_report({"k": [1, 2]}, {"c": 1}, __version__)
    b = render_report({"k": [1, 2]}, {"c": 1}, __version__)
    assert strip_timestamp(a) == strip_timestamp(b)
    doc = json.loads(a)
    assert doc["timestamp"] and doc["k"] == [1, 2]


def test_density_rows_and_csv():
    rep = friability_density(10 ** 4, ShiftParams(1), Fraction(1, 5))
    rows = density_rows([rep])
    assert rows[0]["N"] == 10 ** 4
    assert rows[0]["epsilon"] == "1/5"
    assert "/" in rows[0]["reciprocal_sum"]
    text = render_csv(rows, {"c": 1}, __version__)
    lines = text.splitlines()
    assert lines[0].startswith("# version:")
    assert lines[2].startswith("# timestamp: ")
    assert strip_timestamp(text) == strip_timestamp(
        render_csv(rows, {"c": 1}, __version__))
    assert lines[3].startswith("N,")
    assert len(lines) == 5


def test_render_csv_empty():
    text = render_csv([], {"c": 1}, __version__)
    assert text.count("\n") == 3
