#!/usr/bin/env python3
"""Compute the reference values the benchmark checks outputs against.

Written without importing egyptsieve, so the pins are an independent
oracle: primes come from a plain numpy Eratosthenes sieve, factorizations
from a smallest-prime-factor table, and exact sums from this file's own
rational arithmetic.  Rerun only when a workload's inputs change:

    python3 perfbench/make_pins.py > perfbench/pins.json

Needs about 300 MB of memory and under a minute on a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np

import plan

SIEVE_LIMIT = 10 ** 8


def primes_upto(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def spf_upto(n: int) -> np.ndarray:
    spf = np.arange(n + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            block = spf[p * p::p]
            np.minimum(block, p, out=block)
    return spf


def factor(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def rational_hash(x: Fraction) -> str:
    """sha256 of 'num_hex/den_hex' (hex is not subject to the
    int-to-decimal digit limit)."""
    return hashlib.sha256(
        f"{x.numerator:x}/{x.denominator:x}".encode()).hexdigest()


def exact_reciprocal_sum(values) -> Fraction:
    """sum of 1/v as a numerator/denominator tree, reduced at each level."""
    items = [Fraction(1, int(v)) for v in values]
    if not items:
        return Fraction(0)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def density_pins() -> dict:
    top = max(plan.DENSITY_N) + 8
    spf = spf_upto(top)
    primes_all = primes_upto(top)
    out = {}
    for h in plan.DENSITY_SHIFTS:
        for N in plan.DENSITY_N:
            primes = primes_all[primes_all <= N]
            narr = primes[primes - h >= 1] - h
            facs = [factor(int(n), spf) for n in narr]
            # lemma 1: largest prime power above n^(7/10), decided exactly
            bad = [int(n) for n, f in zip(narr, facs) if n >= 2
                   and max(p ** e for p, e in f) ** 10 > int(n) ** 7]
            out[f"l1:N={N}:h={h}"] = {
                "count": len(bad), "normalizer": len(narr), "excluded": 0,
                "rsum": rational_hash(exact_reciprocal_sum(bad))}
            # lemma 2: the float predicate is the definition, in float64
            keep = narr >= 16
            m = narr[keep]
            om = np.array([len(f) for n, f in zip(narr, facs) if n >= 16],
                          dtype=np.float64)
            ll = np.log(np.log(m.astype(np.float64)))
            dev = np.abs(om - ll) >= 0.5 * ll
            out[f"l2:N={N}:h={h}"] = {
                "count": int(dev.sum()), "normalizer": int(len(m)),
                "excluded": int((~keep).sum()),
                "rsum": rational_hash(exact_reciprocal_sum(m[dev].tolist()))}
            # lemma 3: no prime factor in the closed window [5, 100]
            good = [int(n) for n, f in zip(narr, facs)
                    if not any(5 <= p <= 100 for p, _ in f)]
            out[f"l3:N={N}:h={h}"] = {
                "count": len(good), "normalizer": len(narr), "excluded": 0,
                "rsum": rational_hash(exact_reciprocal_sum(good))}
    for w in plan.MERTENS_W:
        num = den = 1
        for p in primes_all[primes_all <= w].tolist():
            num *= p - 1
            den *= p
        out[f"mertens:w={w}"] = {"value": rational_hash(Fraction(num, den))}
    return out


def sieve_pins() -> dict:
    primes = primes_upto(SIEVE_LIMIT)
    out = {
        "count": int(len(primes)),
        "largest": int(primes[-1]),
        "array_sha256": hashlib.sha256(
            primes.astype("<i8").tobytes()).hexdigest(),
        "li": float(mpmath.li(SIEVE_LIMIT)),
        "ap": {},
    }
    for d in range(1, 21):
        counts = np.bincount(primes % d, minlength=d)
        for a in range(d):
            if gcd(a, d) == 1:
                out["ap"][f"{d}:{a}"] = int(counts[a])
    del primes
    N = plan.HALBERSTAM_N
    primes = primes_upto(N)
    spf = spf_upto(N + 8)
    out["halberstam"] = {}
    for h in plan.HALBERSTAM_SHIFTS:
        m = primes - h
        m = m[m >= 2]
        om = np.zeros(len(m), dtype=np.int64)
        rest = m.copy()
        while True:
            live = rest > 1
            if not live.any():
                break
            p = spf[rest[live]].astype(np.int64)
            om[live] += 1
            r = rest[live]
            while True:
                div = r % p == 0
                if not div.any():
                    break
                r[div] //= p[div]
            rest[live] = r
        s1 = int(om.sum())
        s2 = int((om * om).sum())
        c = math.log(math.log(N))
        total = s2 - 2 * c * s1 + c * c * len(m)
        out["halberstam"][str(h)] = total / (len(primes) * c)
    return out


if __name__ == "__main__":
    print(json.dumps({"density": density_pins(), "sieve": sieve_pins()},
                     indent=1, sort_keys=True))
