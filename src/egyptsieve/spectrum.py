"""Desk-scale density measurements over shifted primes.

Counts are exact set cardinalities (no sampling), taken in bulk on sieve
arrays over n = p - h: friability of the largest prime power, the
deviation of omega(n) from loglog n, and prime factors in a window
[y, z].  Beside them: Legendre sieve counts, prime counts in
progressions and Mertens products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .arith import (
    TRIAL_PRIME_BOUND,
    _cached,
    _coprime_fraction,
    _split_rough,
    balanced_product,
    is_prime,
    li_approx,
    prime_array,
    prime_power_sieve,
    reciprocal_sum,
    trial_factor,
)
from .errors import CapacityError, DomainError

# smallest n whose loglog (natural logs) exceeds 1; below this the
# omega-window statistics are undefined and elements are excluded
MIN_OMEGA_N = 16

MAX_WINDOW_PRIMES = 25

MAX_POWER_BITS = 1 << 20

# lcm(1..16) = 2^4 3^2 5 7 11 13: every modulus up to 16 divides it, and
# so do 18, 20, 36, ..., so one histogram of the primes modulo it serves
# them all
_HIST_MODULUS = 720720
_HIST_MEMO_SIZE = 4


def omega_array(limit: int) -> np.ndarray:
    """omega(n) for all n <= limit (number of distinct prime factors), as
    int8, from the segmented kernel ``prime_power_sieve``: base primes
    up to sqrt(limit) only, no prime table up to limit."""
    return _cached("omega", limit, lambda n: prime_power_sieve(n, "omega"))


def max_prime_power_array(limit: int) -> np.ndarray:
    """Largest prime power exactly dividing n, for all n <= limit, as
    uint32 (values never exceed limit), from the same segmented kernel
    as ``omega_array``."""
    return _cached("maxpp", limit, lambda n: prime_power_sieve(n, "maxpp"))


def _as_fraction(x) -> Fraction:
    """Exact rational view of a parameter given as int, Fraction, str or
    decimal-literal float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _exceeds_power(value: int, base: int, expo: Fraction) -> bool:
    """Exact test of value > base**expo for positive integers, expo >= 0.

    Floats decide away from the boundary; near it (or for tiny inputs)
    the comparison is value**b > base**a in integers, for expo = a/b, so
    ties at equality are classified exactly.  Integer powers of more
    than MAX_POWER_BITS bits raise CapacityError.
    """
    if base <= 1:
        return value > 1
    a, b = expo.numerator, expo.denominator
    lhs = b * math.log(value)
    rhs = a * math.log(base)
    if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1.0):
        return lhs > rhs
    bits = max(b * value.bit_length(), a * base.bit_length())
    if bits > MAX_POWER_BITS:
        raise CapacityError(f"an exact tie test at exponent {expo} needs "
                            f"{bits}-bit powers, over {MAX_POWER_BITS}")
    return value ** b > base ** a


@dataclass(frozen=True)
class ShiftParams:
    """Shift h and progression modulus q, with gcd(|h|, q) = 1."""

    h: int
    q: int = 1

    def __post_init__(self):
        if self.h == 0:
            raise DomainError("shift h must be nonzero")
        if self.q < 1:
            raise DomainError(f"modulus q must be >= 1, got {self.q}")
        if gcd(abs(self.h), self.q) != 1:
            raise DomainError(
                f"gcd(|h|, q) must be 1, got h={self.h} q={self.q}")


@dataclass(frozen=True)
class DensityReport:
    """Exact count of a condition set within an arithmetic progression.

    relative_density = count / normalizer where the normalizer is
    #{p <= N : p = h (mod q), p - h >= q}; baseline carries the shape
    the corresponding asymptotic statement predicts, with no implied
    constant.  reciprocal_sum is the exact sum of 1/n over the counted
    set, n = p - h.
    """

    N: int
    params: dict
    count: int
    normalizer: int
    relative_density: float
    baseline: float
    reciprocal_sum: Fraction
    excluded: int = 0


@dataclass(frozen=True)
class SieveEstimate:
    """Inclusion-exclusion bookkeeping: |A_d| = f(d) X + R_d exactly."""

    X: Fraction
    f: dict
    remainders: dict
    main_term: float
    exact_count: int


def _progression(N: int, shift: ShiftParams) -> np.ndarray:
    """Primes p <= N with p = h (mod q) and p - h >= q."""
    primes = prime_array(N)
    sel = (primes % shift.q) == (shift.h % shift.q)
    sel &= primes - shift.h >= shift.q
    return primes[sel]


def friability_density(N: int, shift: ShiftParams, epsilon) -> DensityReport:
    """Relative density of primes whose n = p - h has a prime-power
    divisor exceeding n**(1 - epsilon); baseline is epsilon itself."""
    if N < 100:
        raise DomainError("need N >= 100")
    eps = _as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise DomainError(f"epsilon must be in [0,1], got {epsilon}")
    primes = _progression(N, shift)
    narr = (primes - shift.h).astype(np.int64)
    normalizer = len(narr)
    if eps == 0 or normalizer == 0:
        bad = np.zeros(len(narr), dtype=bool)
    else:
        mpp = max_prime_power_array(int(narr.max()))[narr]
        multi = narr >= 2
        lhs = np.log(mpp.astype(np.float64))
        rhs = float(1 - eps) * np.log(np.maximum(narr, 2).astype(np.float64))
        bad = (lhs > rhs + 1e-9) & multi
        near = (np.abs(lhs - rhs) <= 1e-9) & multi
        for i in np.flatnonzero(near):
            bad[i] = _exceeds_power(int(mpp[i]), int(narr[i]), 1 - eps)
    count = int(bad.sum())
    return DensityReport(
        N=N,
        params={"h": shift.h, "q": shift.q, "epsilon": str(eps)},
        count=count,
        normalizer=normalizer,
        relative_density=count / normalizer if normalizer else 0.0,
        baseline=float(eps),
        reciprocal_sum=reciprocal_sum(narr[bad].tolist()),
    )


def omega_deviation_density(N: int, shift: ShiftParams, delta) -> DensityReport:
    """Relative density of |omega(n) - loglog n| >= delta * loglog n over
    n = p - h >= 16; smaller n are excluded from both sides and counted
    in ``excluded``.  The asymptotic baseline is 0."""
    if N < 100:
        raise DomainError("need N >= 100")
    delta = _as_fraction(delta)
    if delta < 0:
        raise DomainError("delta must be >= 0")
    primes = _progression(N, shift)
    narr = (primes - shift.h).astype(np.int64)
    keep = narr >= MIN_OMEGA_N
    excluded = int((~keep).sum())
    m = narr[keep]
    if len(m):
        om = omega_array(int(m.max()))[m].astype(np.float64)
        ll = np.log(np.log(m.astype(np.float64)))
        dev = np.abs(om - ll) >= float(delta) * ll
    else:
        dev = np.zeros(0, dtype=bool)
    count = int(dev.sum())
    return DensityReport(
        N=N,
        params={"h": shift.h, "q": shift.q, "delta": str(delta)},
        count=count,
        normalizer=len(m),
        relative_density=count / len(m) if len(m) else 0.0,
        baseline=0.0,
        reciprocal_sum=reciprocal_sum(m[dev].tolist()),
        excluded=excluded,
    )


def halberstam_variance(N: int, shift: ShiftParams) -> float:
    """Second-moment ratio sum (omega(p-h) - loglog N)^2 over all primes
    p <= N with p - h >= 2, divided by pi(N) loglog N.

    The statistic ranges over all primes (the modulus q of the shift
    plays no role here); omega sums are exact integers, combined with
    the loglog N center in one float step at the end.
    """
    if N < 100:
        raise DomainError("need N >= 100")
    primes = prime_array(N)
    narr = (primes - shift.h).astype(np.int64)
    m = narr[narr >= 2]
    if len(m) == 0:
        return 0.0
    om = omega_array(int(m.max()))[m].astype(np.int64)
    s1 = int(om.sum())
    s2 = int((om * om).sum())
    c = math.log(math.log(N))
    total = s2 - 2 * c * s1 + c * c * len(m)
    return total / (len(primes) * c)


def divisor_window_density(N: int, shift: ShiftParams, y, z) -> DensityReport:
    """Relative density of primes whose n = p - h has no prime factor in
    the closed window [y, z]; baseline log y / log z."""
    if N < 100:
        raise DomainError("need N >= 100")
    y = _as_fraction(y)
    z = _as_fraction(z)
    if not 4 <= y < z:
        raise DomainError(f"need 4 <= y < z, got y={y} z={z}")
    primes = _progression(N, shift)
    narr = (primes - shift.h).astype(np.int64)
    if len(narr):
        top = int(narr.max())
        window = [int(p) for p in prime_array(min(top, int(z)))
                  if y <= p <= z]
        marked = np.zeros(top + 1, dtype=bool)
        for q in window:
            marked[q::q] = True
        good = ~marked[narr]
    else:
        good = np.zeros(0, dtype=bool)
    count = int(good.sum())
    return DensityReport(
        N=N,
        params={"h": shift.h, "q": shift.q, "y": str(y), "z": str(z)},
        count=count,
        normalizer=len(narr),
        relative_density=count / len(narr) if len(narr) else 0.0,
        baseline=math.log(float(y)) / math.log(float(z)),
        reciprocal_sum=reciprocal_sum(narr[good].tolist()),
    )


def _subset_counts(A, window_primes):
    """Enumerate squarefree d | P(z) with |A_d| possibly nonzero.

    Yields (d, mu, |A_d|).  Subsets whose product exceeds max(A) are
    pruned; they contribute zero to the count.
    """
    if isinstance(A, tuple) and len(A) == 2:
        lo, hi = A
        if lo > hi:
            raise DomainError(f"empty interval {A}")

        def count_div(d):
            return hi // d - (lo - 1) // d

        top = hi
    else:
        arr = np.asarray(list(A), dtype=np.int64)
        if len(arr) == 0:
            raise DomainError("empty set")
        if int(arr.min()) < 1:
            raise DomainError("set elements must be positive")

        def count_div(d):
            return int((arr % d == 0).sum())

        top = int(arr.max())

    out = []

    def rec(i, d, mu):
        out.append((d, mu, count_div(d)))
        for j in range(i, len(window_primes)):
            nd = d * window_primes[j]
            if nd > top:
                break
            rec(j + 1, nd, -mu)

    rec(0, 1, 1)
    return out


def legendre_sieve_count(A, window_primes) -> SieveEstimate:
    """Exact inclusion-exclusion count of elements of A coprime to all
    window primes, with the sieve bookkeeping |A_d| = f(d) X + R_d.

    A is an inclusive interval (lo, hi) or an explicit collection of
    positive integers.  f is d -> 1/d and X is |A|; R_d values are exact
    rationals.  Counts are re-verified by a direct scan when |A| <= 1e6.
    """
    window_primes = sorted(set(int(p) for p in window_primes))
    if len(window_primes) > MAX_WINDOW_PRIMES:
        raise CapacityError(
            f"{len(window_primes)} window primes exceed the "
            f"{MAX_WINDOW_PRIMES} budget (2^k inclusion-exclusion terms)")
    for p in window_primes:
        if not is_prime(p):
            raise DomainError(f"window element {p} is not prime")

    if isinstance(A, tuple) and len(A) == 2:
        size = A[1] - A[0] + 1
    else:
        A = list(A)
        size = len(A)
    if size > 10 ** 8:
        raise CapacityError(f"set of size {size} exceeds the 1e8 budget")
    X = Fraction(size)
    fmap = {p: Fraction(1, p) for p in window_primes}
    counts = _subset_counts(A, window_primes)
    exact = 0
    remainders = {}
    for d, mu, cnt in counts:
        exact += mu * cnt
        remainders[d] = cnt - X / d
    main = X
    for p in window_primes:
        main *= (1 - fmap[p])

    if size <= 10 ** 6:
        if isinstance(A, tuple):
            elems = np.arange(A[0], A[1] + 1, dtype=np.int64)
        else:
            elems = np.asarray(A, dtype=np.int64)
        keep = np.ones(len(elems), dtype=bool)
        for p in window_primes:
            keep &= elems % p != 0
        scan = int(keep.sum())
        if scan != exact:
            raise RuntimeError(
                f"inclusion-exclusion {exact} disagrees with scan {scan}")

    return SieveEstimate(X=X, f=fmap, remainders=remainders,
                         main_term=float(main), exact_count=exact)


@lru_cache(maxsize=_HIST_MEMO_SIZE)
def _residue_histogram(N: int) -> np.ndarray:
    """Number of primes p <= N in each class modulo _HIST_MODULUS, as a
    read-only int32 array (no entry exceeds pi(N)); memoized."""
    hist = np.bincount(prime_array(N) % _HIST_MODULUS,
                       minlength=_HIST_MODULUS).astype(np.int32)
    hist.flags.writeable = False
    return hist


def prime_count_ap(N: int, d: int, h: int) -> tuple[int, float]:
    """Exact count of primes p <= N with p = h (mod d), next to the
    expected li(N) / phi(d).

    A modulus d above N leaves every prime p <= N its own residue, so
    the count is 1 when h mod d is a prime up to N and 0 otherwise.  A
    modulus d dividing 720720 = lcm(1..16) sums every d-th entry of
    ``_residue_histogram(N)``, the prime counts modulo 720720, built once
    per N (an LRU memo of 4 entries, 2.9 MB each); any other d reduces
    the primes up to N modulo d in one pass.  All give the same count,
    so no result depends on the order of calls.  phi(d) comes from the
    factorization of d by trial division."""
    if N < 100:
        raise DomainError("need N >= 100")
    if d < 1:
        raise DomainError("need d >= 1")
    if gcd(h, d) != 1:
        raise DomainError(f"residue {h} shares a factor with modulus {d}")
    if d > N:
        count = int(h % d <= N and is_prime(h % d))
    elif _HIST_MODULUS % d == 0:
        count = int(_residue_histogram(N)[h % d::d].sum())
    else:
        count = int(((prime_array(N) % d) == (h % d)).sum())
    # the primes up to sqrt(d) factor d as the default list would, without
    # keeping that list of 78,498 ints (3.5 MB) for small d
    roots = prime_array(min(isqrt(d), TRIAL_PRIME_BOUND)).tolist()
    return count, li_approx(N) / trial_factor(d, roots).totient


def mertens_product(w: int, shifted: bool = False, lo: int = 2) -> Fraction:
    """Exact product of (1 - 1/p) over primes lo <= p <= w; with
    ``shifted`` the factors are (1 - 1/(p - 1)), for window products
    over shifted moduli (then lo must be at least 3).

    The product is prod(p - 1) / prod(p), or prod(p - 2) / prod(p - 1),
    and every factor is w-smooth: the exponent of each prime q <= w is
    counted on both sides (``_split_rough`` on the shifted values) and
    subtracted, so numerator and denominator come out coprime, each one
    balanced product of prime powers, with no gcd."""
    if w < 2:
        raise DomainError("need w >= 2")
    if shifted and lo < 3:
        raise DomainError("shifted product needs lo >= 3 (p = 2 gives 0)")
    ps = prime_array(w)
    ps = ps[ps >= lo]
    if not len(ps):
        return Fraction(1)

    def exponents(values):
        # index 1 counts the values without a prime above B; 1 ** k is 1
        base, exps, rough = _split_rough(values)
        out = np.bincount(rough, minlength=w + 1)
        out[base] += exps
        return out

    expo = exponents(ps - 2 if shifted else ps - 1)
    if shifted:
        expo -= exponents(ps - 1)
    else:
        expo[ps] -= 1
    qs = np.flatnonzero(expo).tolist()
    ks = expo[qs].tolist()
    num = balanced_product(q ** k for q, k in zip(qs, ks) if k > 0)
    den = balanced_product(q ** -k for q, k in zip(qs, ks) if k < 0)
    return _coprime_fraction(num, den)
