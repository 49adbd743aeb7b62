"""JSON and CSV emission for reports and certificates.

Rationals are encoded as {"num": "...", "den": "..."} with string
digits; primes in certificates are strings too, so 64-bit values
survive every JSON parser.  An integer of up to MAX_DECIMAL_BITS bits
is written in decimal and a longer one in hex, "0x..." (``_num_text``):
Python converts to and from base 16 in linear time, with no digit
limit, where decimal is quadratic and refused past 4,300 digits.  The
reader takes both.  A certificate field past MAX_DECIMAL_BITS bits is
refused as read, before a gcd or a primality test could run on it.
Report files embed the resolved run configuration and the toolkit
version; the timestamp sits on its own line so byte-level comparisons
can ignore it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
from datetime import datetime, timezone
from fractions import Fraction

from .arith import MAX_DECIMAL_BITS, _num_text
from .egypt import Decomposition
from .errors import DomainError
from .spectrum import DensityReport


def fraction_dict(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": _num_text(x.numerator), "den": _num_text(x.denominator)}


def _exact_int(v) -> int:
    """A JSON integer, a decimal-integer string or a ``_num_text`` hex
    string, exactly as written; floats, bools and anything int() would
    round or coerce are refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return int(v)
    if isinstance(v, str) and re.fullmatch(r"-?0x[0-9a-f]+", v):
        return int(v, 16)
    raise ValueError(f"not an integer: {v!r}")


def _certificate_int(v) -> int:
    """``_exact_int`` of a certificate field, refused with DomainError
    past MAX_DECIMAL_BITS bits: a longer target would cost a quadratic
    gcd in Fraction, a longer prime a cubic ``is_prime``."""
    n = _exact_int(v)
    if n.bit_length() > MAX_DECIMAL_BITS:
        raise DomainError(f"certificate integer of {n.bit_length()} bits "
                          f"is over the {MAX_DECIMAL_BITS}-bit cap")
    return n


def fraction_from_dict(d, read=_exact_int) -> Fraction:
    """The rational of a ``fraction_dict``, its parts read by read; a
    DomainError of read passes as it is, without the field's text."""
    try:
        num, den = read(d["num"]), read(d["den"])
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed rational {d!r}") from exc
    if den <= 0:
        raise DomainError(f"malformed rational {d!r}: denominator {den}")
    return Fraction(num, den)


def density_report_dict(rep: DensityReport) -> dict:
    return {**dataclasses.asdict(rep),
            "reciprocal_sum": fraction_dict(rep.reciprocal_sum)}


def certificate_dict(dec: Decomposition) -> dict:
    return {
        "h": dec.h,
        "target": fraction_dict(dec.target),
        "primes": [str(p) for p in dec.primes],
    }


def certificate_from_dict(d) -> Decomposition:
    try:
        primes = d["primes"]
        if not isinstance(primes, list):    # a string would split in digits
            raise TypeError(f"primes must be a list, not {primes!r}")
        return Decomposition(
            h=_certificate_int(d["h"]),
            target=fraction_from_dict(d["target"], _certificate_int),
            primes=tuple(_certificate_int(p) for p in primes),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed certificate: {exc}") from exc


def render_report(payload: dict, config: dict, version: str) -> str:
    """Stable JSON text: sorted keys, embedded config and version, the
    timestamp isolated on its own line."""
    doc = dict(payload)
    doc["config"] = config
    doc["version"] = version
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def density_rows(reports) -> list[dict]:
    """Flat CSV-ready rows for a parameter sweep."""
    rows = []
    for rep in reports:
        row = {"N": rep.N}
        row.update(rep.params)
        row.update({
            "count": rep.count,
            "normalizer": rep.normalizer,
            "excluded": rep.excluded,
            "relative_density": repr(rep.relative_density),
            "baseline": repr(rep.baseline),
            "reciprocal_sum": f"{_num_text(rep.reciprocal_sum.numerator)}"
                              f"/{_num_text(rep.reciprocal_sum.denominator)}",
        })
        rows.append(row)
    return rows


def render_csv(rows, config: dict, version: str) -> str:
    """CSV with provenance comment lines; the timestamp comment is a
    separate line, like the JSON key.  The columns are the rows' keys in
    order of first appearance, so rows of different lemmas share one
    header and leave each other's parameters empty."""
    buf = io.StringIO()
    buf.write(f"# version: {version}\n")
    buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    buf.write(f"# timestamp: {datetime.now(timezone.utc).isoformat()}\n")
    rows = list(rows)
    if rows:
        fields = list(dict.fromkeys(k for row in rows for k in row))
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()
