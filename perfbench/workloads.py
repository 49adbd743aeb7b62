"""The ops of one round of each workload, and the independent checks of
their outputs.

An op's ``call`` is the timed part: it makes the same calls the command
line or ``scripts/`` make.  Its ``judge`` runs after the round's timing
and decides, without trusting the program's own verifier, whether the
op succeeded, failed (with a cause), or returned a wrong output.
Certificates are checked with ``sympy.isprime`` and this file's own
exact sum; counts against ``pins.json``, which ``make_pins.py``
computes without egyptsieve.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from typing import Callable

import numpy as np
import sympy

import plan
from egyptsieve import __version__, cli, egypt, reports, spectrum
from egyptsieve.errors import ObstructionError, SearchExhausted

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())

# Serializing an int of more than 4300 decimal digits raises this
# ValueError under CPython's default int_max_str_digits; the benchmark
# leaves that limit as it is.
INT_DIGITS_ERROR = "integer string conversion"


@dataclass
class Verdict:
    cause: str | None = None   # why the op failed; None when it succeeded
    wrong: str | None = None   # what is wrong with an output, if anything
    record: str = ""           # canonical output text, for the digest
    terms: int = 0             # primes in correct certificates


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    judge: Callable[[object, BaseException | None], Verdict]


def failure_cause(exc: BaseException) -> str:
    if isinstance(exc, MemoryError):
        return "memory"
    if isinstance(exc, SearchExhausted):
        return "exhausted"
    if isinstance(exc, ValueError) and INT_DIGITS_ERROR in str(exc):
        return "serialization"
    return "error:" + type(exc).__name__


def without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"timestamp"' not in line
                   and not line.startswith("# timestamp:"))


def hex_rational(x: Fraction) -> str:
    return f"{x.numerator:x}/{x.denominator:x}"


def rational_hash(x: Fraction) -> str:
    return hashlib.sha256(hex_rational(x).encode()).hexdigest()


def reciprocal_sum_terms(dens: list[int]) -> tuple[int, int]:
    """sum of 1/d as an unreduced (numerator, denominator) pair."""
    items = [(1, d) for d in dens]
    while len(items) > 1:
        nxt = [(a * d + c * b, b * d) for (a, b), (c, d)
               in zip(items[::2], items[1::2])]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0] if items else (0, 1)


def certificate_error(h: int, target: Fraction, primes) -> str | None:
    """Why primes do not certify target = sum 1/(p - h), or None."""
    primes = [int(p) for p in primes]
    if not primes:
        return "empty certificate"
    if any(b <= a for a, b in zip(primes, primes[1:])):
        return "primes not strictly increasing"
    if primes[0] - h < 1:
        return f"denominator {primes[0] - h} < 1"
    for p in primes:
        if not sympy.isprime(p):
            return f"{p} is not prime"
    num, den = reciprocal_sum_terms([p - h for p in primes])
    if num * target.denominator != target.numerator * den:
        return "reciprocal sum differs from the target"
    return None


# -- certify -------------------------------------------------------------

def certify_ops(spec: dict, work: Path) -> list[Op]:
    x, h, r, max_prime = spec["target"], spec["h"], spec["r"], \
        spec["max_prime"]
    key = f"certify:x={x}:h={h}:r={r}:max_prime={max_prime}"
    cert = work / "certify.cert.json"
    checked = work / "certify.verify.json"

    def call():
        code = cli.main(["decompose", "--target", x, "--shift", str(h),
                         "--r-fold", str(r), "--max-prime", str(max_prime),
                         "--out", str(cert)])
        if code != 0:
            return ("decompose", code)
        return ("verify", cli.main(["verify", "--cert", str(cert),
                                    "--out", str(checked)]))

    def judge(out, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        stage, code = out
        if stage == "decompose":
            cause = {1: "exhausted", 2: "domain"}.get(code, f"exit:{code}")
            return Verdict(cause=cause, record=f"{key} {stage} {code}")
        cert_text = cert.read_text()
        verify_text = checked.read_text()
        record = key + "\n" + without_timestamp(cert_text) \
            + without_timestamp(verify_text)
        decs = json.loads(cert_text)["decompositions"]
        target = Fraction(x)
        seen: set[int] = set()
        terms = 0
        for i, d in enumerate(decs):
            primes = [int(p) for p in d["primes"]]
            why = certificate_error(h, target, primes)
            if why is None and seen.intersection(primes):
                why = "certificates share a prime"
            if why is not None:
                return Verdict(cause="wrong_output",
                               wrong=f"{key}[{i}]: {why}", record=record)
            seen.update(primes)
            terms += len(primes)
        if len(decs) != r:
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: {len(decs)} certificates, not {r}",
                           record=record)
        if code != 0 or not json.loads(verify_text)["all_valid"]:
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: verify rejected valid certificates",
                           record=record)
        return Verdict(record=record, terms=terms)

    return [Op(key, call, judge)]


# -- targets -------------------------------------------------------------

def target_universe() -> list[tuple[Fraction, int]]:
    return [(Fraction(a, b), h)
            for b in range(2, plan.TARGETS_MAX_DEN + 1)
            for a in range(1, min(b, 5))
            if gcd(a, b) == 1
            for h in plan.TARGETS_SHIFTS]


def targets_ops(spec: dict, work: Path) -> list[Op]:
    items = target_universe()
    random.Random(spec["order_seed"]).shuffle(items)
    return [target_op(x, h) for x, h in items]


def target_op(x: Fraction, h: int) -> Op:
    """decompose, verify and serialize, as scripts/decompose_batch.py does."""
    key = f"target:x={x}:h={h}"
    gated = gcd(abs(h), x.denominator) != 1

    def call():
        dec = egypt.decompose(x, h)
        res = egypt.verify(dec)
        text = json.dumps({**reports.certificate_dict(dec),
                           "version": __version__}, indent=2)
        return dec, res, text

    def judge(out, exc):
        if isinstance(exc, ObstructionError):
            rec = f"{key} obstructed witness={exc.result.witness} " \
                  f"floor={exc.result.valuation_floor}"
            if gated:
                return Verdict(record=rec)
            # the gate passes x itself; a split subtarget was obstructed
            return Verdict(cause="false_obstruction", record=rec)
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        dec, res, text = out
        primes = list(dec.primes)
        record = f"{key} ok " + ",".join(f"{p:x}" for p in primes)
        why = certificate_error(h, x, primes)
        if why is None and not res.valid:
            why = f"verify rejected a valid certificate: {res.reason}"
        if why is None and json.loads(text)["primes"] != [str(p)
                                                          for p in primes]:
            why = "serialized primes differ"
        if why is not None:
            return Verdict(cause="wrong_output", wrong=f"{key}: {why}",
                           record=record)
        return Verdict(record=record, terms=len(primes))

    return Op(key, call, judge)


# -- density -------------------------------------------------------------

LEMMAS = {
    1: ({"epsilon": "3/10"},
        lambda N, sh: spectrum.friability_density(N, sh, Fraction(3, 10))),
    2: ({"delta": "1/2"},
        lambda N, sh: spectrum.omega_deviation_density(N, sh,
                                                       Fraction(1, 2))),
    3: ({"y": "5", "z": "100"},
        lambda N, sh: spectrum.divisor_window_density(
            N, sh, Fraction(5), Fraction(100))),
}


def density_ops(spec: dict, work: Path) -> list[Op]:
    h = spec["h"]
    ops = [lemma_op(lemma, N, h)
           for N in plan.DENSITY_N for lemma in sorted(LEMMAS)]
    ops += [mertens_op(w) for w in plan.MERTENS_W]
    return ops


def lemma_op(lemma: int, N: int, h: int) -> Op:
    """One ``analyze`` report: computed, then serialized through reports
    the way the command line does it."""
    key = f"l{lemma}:N={N}:h={h}"
    params, compute = LEMMAS[lemma]
    config = {"command": "analyze", "N": N, "shift": h, "modulus": 1,
              **params}

    def call():
        rep = compute(N, spectrum.ShiftParams(h, 1))
        try:
            payload = {"lemma": lemma,
                       "report": reports.density_report_dict(rep)}
            return rep, reports.render_report(payload, config, __version__)
        except ValueError as exc:
            return rep, exc

    def judge(out, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        rep, text = out
        record = (f"{key} count={rep.count} normalizer={rep.normalizer} "
                  f"excluded={rep.excluded} rel={rep.relative_density!r} "
                  f"baseline={rep.baseline!r} "
                  f"rsum={hex_rational(rep.reciprocal_sum)}")
        pin = PINS["density"][key]
        got = {"count": rep.count, "normalizer": rep.normalizer,
               "excluded": rep.excluded,
               "rsum": rational_hash(rep.reciprocal_sum)}
        if got != pin:
            bad = sorted(k for k in pin if got[k] != pin[k])
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: {bad} differ from the pins",
                           record=record)
        if isinstance(text, BaseException):
            return Verdict(cause=failure_cause(text), record=record)
        return Verdict(record=record + "\n" + without_timestamp(text))

    return Op(key, call, judge)


def mertens_op(w: int) -> Op:
    key = f"mertens:w={w}"

    def call():
        value = spectrum.mertens_product(w)
        try:
            return value, reports.render_report(
                {"w": w, "mertens_product": reports.fraction_dict(value)},
                {"command": "mertens", "w": w}, __version__)
        except ValueError as exc:
            return value, exc

    def judge(out, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        value, text = out
        record = f"{key} {hex_rational(value)}"
        if rational_hash(value) != PINS["density"][key]["value"]:
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: product differs from the pin",
                           record=record)
        if isinstance(text, BaseException):
            return Verdict(cause=failure_cause(text), record=record)
        return Verdict(record=record + "\n" + without_timestamp(text))

    return Op(key, call, judge)


# -- sieve ---------------------------------------------------------------

def sieve_ops(spec: dict, work: Path) -> list[Op]:
    return [sieve_cli_op(work), ap_table_op(spec["residues"]),
            halberstam_op(spec["h"]), legendre_op(spec["legendre_lo"])]


def sieve_cli_op(work: Path) -> Op:
    limit = plan.SIEVE_LIMIT
    key = f"sieve:limit={limit}"
    primes_out = work / "primes.npy"
    report = work / "sieve.json"
    pin = PINS["sieve"]

    def call():
        return cli.main(["sieve", "--limit", str(limit), "--primes-out",
                         str(primes_out), "--out", str(report)])

    def judge(code, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        if code != 0:
            return Verdict(cause=f"exit:{code}", record=key)
        text = report.read_text()
        arr = np.load(primes_out)
        sha = hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest()
        primes_out.unlink()
        doc = json.loads(text)
        record = f"{key} primes={sha}\n" + without_timestamp(text)
        if (doc["count"], doc["largest"], sha) != (
                pin["count"], pin["largest"], pin["array_sha256"]):
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: primes differ from the pins",
                           record=record)
        return Verdict(record=record)

    return Op(key, call, judge)


def ap_table_op(residues: dict) -> Op:
    """Prime counts in one residue class for every modulus d <= 20 (the
    Siegel-Walfisz table), as one op."""
    N = plan.SIEVE_LIMIT
    classes = [(d, residues[str(d)]) for d in plan.AP_MODULI]
    key = f"prime_count_ap:N={N}:" + ",".join(f"{a}mod{d}"
                                              for d, a in classes)
    pin = PINS["sieve"]

    def call():
        return [spectrum.prime_count_ap(N, d, a) for d, a in classes]

    def judge(out, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        record = key + " " + " ".join(f"{c}:{e!r}" for c, e in out)
        for (d, a), (count, expected) in zip(classes, out):
            phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
            if count != pin["ap"][f"{d}:{a}"] or \
                    abs(expected * phi / pin["li"] - 1) > 1e-9:
                return Verdict(cause="wrong_output",
                               wrong=f"{key}: ({count}, {expected}) for "
                                     f"{a} mod {d} differs from the pins",
                               record=record)
        return Verdict(record=record)

    return Op(key, call, judge)


def halberstam_op(h: int) -> Op:
    N = plan.HALBERSTAM_N
    key = f"halberstam_variance:N={N}:h={h}"

    def call():
        return spectrum.halberstam_variance(N, spectrum.ShiftParams(h, 1))

    def judge(value, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        record = f"{key} {value!r}"
        pin = PINS["sieve"]["halberstam"][str(h)]
        if abs(value - pin) > 1e-12 * abs(pin):
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: {value!r} != pinned {pin!r}",
                           record=record)
        return Verdict(record=record)

    return Op(key, call, judge)


def legendre_op(lo: int) -> Op:
    hi = lo + plan.LEGENDRE_SPAN - 1
    window = plan.LEGENDRE_WINDOW
    key = f"legendre_sieve_count:A=[{lo},{hi}]"

    def call():
        return spectrum.legendre_sieve_count((lo, hi), window)

    def judge(est, exc):
        if exc is not None:
            return Verdict(cause=failure_cause(exc), record=key)
        rem = hashlib.sha256("".join(
            f"{d}:{hex_rational(r)};" for d, r in sorted(
                est.remainders.items())).encode()).hexdigest()
        record = (f"{key} count={est.exact_count} "
                  f"main={est.main_term!r} remainders={rem}")
        coprime = np.ones(hi - lo + 1, dtype=bool)
        for p in window:
            coprime[(-lo) % p::p] = False
        main = plan.LEGENDRE_SPAN * prod(Fraction(p - 1, p) for p in window)
        if est.exact_count != int(coprime.sum()) or \
                abs(est.main_term - float(main)) > 1e-9 * float(main):
            return Verdict(cause="wrong_output",
                           wrong=f"{key}: count or main term is wrong",
                           record=record)
        return Verdict(record=record)

    return Op(key, call, judge)


ROUND_OPS = {"certify": certify_ops, "targets": targets_ops,
            "density": density_ops, "sieve": sieve_ops}
