"""Desk-scale density measurements over shifted primes.

Counts are exact set cardinalities (no sampling), taken in bulk on sieve
arrays over n = p - h: friability of the largest prime power, the
deviation of omega(n) from loglog n, and prime factors in a window
[y, z]: each lemma gives its parameter check and its mask of counted
n, and ``_report`` builds the report.  Beside them: Legendre sieve
counts over an interval, prime counts in progressions, Mertens products.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .arith import (
    _check_array_limit,
    _chunks,
    _coprime_fraction,
    _exact_fields,
    _exact_ints,
    _exact_sum,
    _gather,
    _num_text,
    balanced_product,
    is_prime,
    li_approx,
    prime_array,
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


def _exceeds_power(value: int, base: int, expo: Fraction) -> bool:
    """Exact test of value > base**expo for positive integers, expo >= 0.

    value == base is decided exactly: n > n^e just when e < 1, n >= 2.
    Otherwise floats decide away from the boundary, log value against
    float(expo) log base, which no size of expo's numerator a or
    denominator b overflows; near it the comparison is value**b >
    base**a in integers, so ties at equality are classified exactly.
    Integer powers of more than MAX_POWER_BITS bits raise CapacityError.
    """
    if base <= 1:
        return value > 1
    if value == base:
        return expo < 1
    lhs = math.log(value)
    rhs = float(expo) * math.log(base)
    if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1.0):
        return lhs > rhs
    a, b = expo.numerator, expo.denominator
    bits = max(b * value.bit_length(), a * base.bit_length())
    if bits > MAX_POWER_BITS:
        raise CapacityError(
            f"an exact tie test at exponent {_num_text(expo)} needs "
            f"{_num_text(bits)}-bit powers, over {MAX_POWER_BITS}")
    return value ** b > base ** a


@dataclass(frozen=True)
class ShiftParams:
    """Shift h and progression modulus q, with gcd(|h|, q) = 1, as the
    ints ``arith._exact_ints`` reads."""

    h: int
    q: int = 1

    def __post_init__(self):
        _exact_fields(self, "h", "q")
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
    """Inclusion-exclusion bookkeeping: |A_d| = |A| / d + R_d exactly."""

    remainders: dict
    main_term: float
    exact_count: int


def _shifted_primes(primes: np.ndarray, h: int, least: int) -> np.ndarray:
    """The slice of the primes p of the nonempty sorted array with
    p - h >= least, bounding h in Python ints first: a shift past
    max p - least selects nothing, and one that puts max p - h past
    MAX_ARRAY_LIMIT raises CapacityError.  Otherwise h + least and every
    p - h fit the primes' int32, and the search takes h + least in it."""
    top = int(primes[-1])
    if h + least > top:
        return primes[:0]
    _check_array_limit("n = p - h", top - h)
    return primes[np.searchsorted(primes, primes.dtype.type(h + least)):]


def _shifted(primes: np.ndarray, h: int, q: int, least: int) -> np.ndarray:
    """n = p - h for the primes p of ``_shifted_primes`` with p = h
    (mod q); a residue h mod q past max p selects nothing."""
    top = int(primes[-1])
    ps = primes[:0] if h % q > top else _shifted_primes(primes, h, least)
    if len(ps) == 0:
        return np.zeros(0, dtype=np.int64)
    return (ps if q == 1 else ps[(ps if q > top else ps % q) == h % q]) - h


def _report(N: int, shift: ShiftParams, baseline, select, kinds: tuple,
            **params) -> DensityReport:
    """The density report of one lemma over n = p - h, for the primes
    p <= N with p = h (mod q) and p - h >= q.

    ``params`` (in report order) are ints, Fractions, strings or
    decimal-literal floats, read as exact rationals.
    ``baseline(*params)`` refuses them with DomainError or returns the
    baseline.  One ``arith._gather`` at the n reads the kernel ``kinds``
    the lemma asks for and "rest", in one walk; ``select(n, *stats,
    *params)`` on a nonempty n returns the mask of the counted n and how
    many n it keeps out of the normalizer, and ``arith._exact_sum`` sums
    1/n over the counted n with their rest.  N (``_exact_ints``) is
    checked first; a refused call builds no array.
    """
    (N,) = _exact_ints((N,), "N")
    if N < 100:
        raise DomainError("need N >= 100")
    params = {k: Fraction(v if isinstance(v, (int, Fraction)) else str(v))
              for k, v in params.items()}
    base = baseline(*params.values())
    n = _shifted(prime_array(N), shift.h, shift.q, shift.q)
    *stats, rest = _gather(n, 0, *kinds, "rest")
    counted, excluded = (select(n, *stats, *params.values()) if len(n)
                         else (np.zeros(0, dtype=bool), 0))
    del stats
    count = int(counted.sum())
    normalizer = len(n) - excluded
    # only the counted n and their rest stay alive through the exact sum
    n, rest = n[counted], rest[counted]
    del counted
    return DensityReport(
        N=N,
        params={"h": shift.h, "q": shift.q,
                **{k: _num_text(v) for k, v in params.items()}},
        count=count,
        normalizer=normalizer,
        relative_density=count / normalizer if normalizer else 0.0,
        baseline=base,
        reciprocal_sum=_exact_sum(n, rest),
        excluded=excluded,
    )


def friability_density(N: int, shift: ShiftParams, epsilon) -> DensityReport:
    """Relative density of primes whose n = p - h has a prime-power
    divisor exceeding n**(1 - epsilon); baseline is epsilon itself."""
    def baseline(eps):
        if not 0 <= eps <= 1:
            raise DomainError(
                f"epsilon must be in [0,1], got {_num_text(eps)}")
        return float(eps)

    def select(n, mpp, eps):
        bad = np.zeros(len(n), dtype=bool)
        scale = float(1 - eps)
        # the float64 logs of one _chunks slice at a time
        for ns, ms, out in zip(_chunks(n), _chunks(mpp), _chunks(bad)):
            multi = ns >= 2
            lhs = np.log(ms.astype(np.float64))
            rhs = scale * np.log(np.maximum(ns, 2).astype(np.float64))
            out[:] = (lhs > rhs + 1e-9) & multi
            near = (np.abs(lhs - rhs) <= 1e-9) & multi
            for i in np.flatnonzero(near):
                out[i] = _exceeds_power(int(ms[i]), int(ns[i]), 1 - eps)
        return bad, 0

    return _report(N, shift, baseline, select, ("maxpp",), epsilon=epsilon)


def omega_deviation_density(N: int, shift: ShiftParams, delta) -> DensityReport:
    """Relative density of |omega(n) - loglog n| >= delta * loglog n over
    n = p - h >= 16; smaller n are excluded from both sides and counted
    in ``excluded``.  The asymptotic baseline is 0.  A delta past the
    float range reads as infinity: nothing deviates that far."""
    def baseline(d):
        if d < 0:
            raise DomainError("delta must be >= 0")
        return 0.0

    def select(n, om, d):
        keep = n >= MIN_OMEGA_N
        m, om = n[keep], om[keep]
        thr = math.inf if d > sys.float_info.max else float(d)
        # counted: the kept n whose omega deviates that far, the float64
        # logs of one _chunks slice at a time
        far = np.empty(len(m), dtype=bool)
        for ms, oms, out in zip(_chunks(m), _chunks(om), _chunks(far)):
            ll = np.log(np.log(ms.astype(np.float64)))
            out[:] = np.abs(oms - ll) >= thr * ll
        keep[keep] = far
        return keep, len(n) - len(m)

    return _report(N, shift, baseline, select, ("omega",), delta=delta)


def halberstam_variance(N: int, shift: ShiftParams) -> float:
    """Second-moment ratio sum (omega(p-h) - loglog N)^2 over all primes
    p <= N with p - h >= 2, divided by pi(N) loglog N.

    The statistic ranges over all primes (the modulus q of the shift
    plays no role here).  ``arith._gather`` reads omega(p - h), shifted
    by h, on the slice of cached primes with p - h >= 2
    (``_shifted_primes``), so no array of the n = p - h is built: the
    int8 omega array is the only one as long as the primes beside the
    gather's int8 v array and one kernel segment.  The omega sums are
    exact integers counted per omega value, by ``np.bincount`` over one
    ``arith._chunks`` slice at a time (it copies its input to intp), and
    combined with the loglog N center in one float step at the end.  N
    is read by ``arith._exact_ints``."""
    (N,) = _exact_ints((N,), "N")
    if N < 100:
        raise DomainError("need N >= 100")
    primes = prime_array(N)
    ps = _shifted_primes(primes, shift.h, 2)
    if len(ps) == 0:
        return 0.0
    (om,) = _gather(ps, shift.h, "omega")
    top = int(om.max()) + 1
    counts = sum(np.bincount(c, minlength=top) for c in _chunks(om)).tolist()
    s1 = sum(k * c for k, c in enumerate(counts))
    s2 = sum(k * k * c for k, c in enumerate(counts))
    c = math.log(math.log(N))
    total = s2 - 2 * c * s1 + c * c * len(ps)
    return total / (len(primes) * c)


def _coprime_mask(lo: int, hi: int, primes) -> np.ndarray:
    """A bool array over lo..hi, entry i standing for lo + i, False at
    the multiples of each listed prime: one strided store per prime from
    its first multiple at or above lo, i = -lo mod p."""
    keep = np.ones(hi - lo + 1, dtype=bool)
    for p in primes:
        keep[(-lo) % p::p] = False
    return keep


def divisor_window_density(N: int, shift: ShiftParams, y, z) -> DensityReport:
    """Relative density of primes whose n = p - h has no prime factor in
    the closed window [y, z]; baseline log y / log z, which holds past
    the float range too."""
    def log(x):
        if x > sys.float_info.max:
            return math.log(x.numerator) - math.log(x.denominator)
        return math.log(float(x))

    def baseline(y, z):
        if not 4 <= y < z:
            raise DomainError(f"need 4 <= y < z, got y={_num_text(y)} "
                              f"z={_num_text(z)}")
        return log(y) / log(z)

    def select(n, y, z):
        # entry 0 of the mask is never read: n >= q >= 1
        top = int(n.max())
        primes = [p for p in prime_array(min(top, int(z))).tolist() if p >= y]
        return _coprime_mask(0, top, primes)[n], 0

    return _report(N, shift, baseline, select, (), y=y, z=z)


def _subset_counts(A, window_primes):
    """(d, mu(d), |A_d|) for the interval A = (lo, hi) and each
    squarefree d | P(z) up to hi; larger d have A_d empty."""
    lo, hi = A
    out = []

    def rec(i, d, mu):
        out.append((d, mu, hi // d - (lo - 1) // d))
        for j in range(i, len(window_primes)):
            nd = d * window_primes[j]
            if nd > hi:
                break
            rec(j + 1, nd, -mu)

    rec(0, 1, 1)
    return out


def legendre_sieve_count(A, window_primes) -> SieveEstimate:
    """Exact inclusion-exclusion count of the integers in the interval
    A = (lo, hi), 1 <= lo <= hi, coprime to all window primes, with the
    exact sieve bookkeeping |A_d| = X / d + R_d, X = hi - lo + 1.  The
    ends and the window primes are read by ``arith._exact_ints``, so a
    float or bool among them is a DomainError, never truncated.  The
    count is re-verified by a direct scan when X <= 1e6: the survivors
    of ``_coprime_mask`` over A are counted."""
    if not (isinstance(A, tuple) and len(A) == 2):
        raise DomainError(f"need an interval (lo, hi), got {A!r}")
    lo, hi = _exact_ints(A, "interval end")
    # d > hi divides no n in A only when lo >= 1; zero is in every A_d
    if not 1 <= lo <= hi:
        raise DomainError(f"need an interval 1 <= lo <= hi, got {A!r}")
    window_primes = sorted(set(_exact_ints(window_primes, "window element")))
    if len(window_primes) > MAX_WINDOW_PRIMES:
        raise CapacityError(
            f"{len(window_primes)} window primes exceed the "
            f"{MAX_WINDOW_PRIMES} budget (2^k inclusion-exclusion terms)")
    for p in window_primes:
        if not is_prime(p):
            raise DomainError(f"window element {p} is not prime")

    size = hi - lo + 1
    if size > 10 ** 8:
        raise CapacityError(f"set of size {size} exceeds the 1e8 budget")
    counts = _subset_counts((lo, hi), window_primes)
    exact = sum(mu * cnt for _, mu, cnt in counts)
    remainders = {d: cnt - Fraction(size, d) for d, _, cnt in counts}
    main = Fraction(size * math.prod(p - 1 for p in window_primes),
                    math.prod(window_primes))

    if size <= 10 ** 6:
        scan = int(np.count_nonzero(_coprime_mask(lo, hi, window_primes)))
        if scan != exact:
            raise RuntimeError(
                f"inclusion-exclusion {exact} disagrees with scan {scan}")

    return SieveEstimate(remainders=remainders, main_term=float(main),
                         exact_count=exact)


@lru_cache(maxsize=_HIST_MEMO_SIZE)
def _residue_histogram(N: int) -> np.ndarray:
    """Number of primes p <= N in each class modulo _HIST_MODULUS, as a
    read-only int32 array (no entry exceeds pi(N)); memoized.

    The cached primes are sorted, so the primes of each block
    [k M, (k + 1) M), M = _HIST_MODULUS, are one slice, its ends found
    by one searchsorted over all blocks.  Their residues are p - k M,
    and one unbuffered ``np.add.at`` per block counts them: no ``%``
    pass and no temporary longer than a block's primes."""
    primes = prime_array(N)
    ends = np.searchsorted(primes, np.arange(N // _HIST_MODULUS + 2,
                                             dtype=primes.dtype)
                           * _HIST_MODULUS).tolist()
    hist = np.zeros(_HIST_MODULUS, dtype=np.int32)
    # the added value must have hist's dtype: a Python 1 or an int64 one
    # sends ufunc.at off its fast path, 15 to 25 times slower at 1e8
    one = np.int32(1)
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        np.add.at(hist, primes[a:b] - k * _HIST_MODULUS, one)
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
    the cached primes modulo d one ``arith._chunks`` slice at a time,
    as p - (p // d) d (a floor division by a scalar multiplies by its
    invariant, about 3x faster than ``%`` on the int32 primes), and
    counts h's class.  All give the same count, a Python int, so no
    result depends on the order of calls.  phi(d) comes from the
    factorization of d by trial division.  N, d and h are read by
    ``arith._exact_ints``: a bool or float is a DomainError."""
    N, d, h = _exact_ints((N, d, h), "prime_count_ap argument")
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
        count = sum(int(np.count_nonzero(ps - ps // d * d == h % d))
                    for ps in _chunks(prime_array(N)))
    phi = math.prod(p ** (e - 1) * (p - 1) for p, e in trial_factor(d))
    return count, li_approx(N) / phi


def mertens_product(w: int) -> Fraction:
    """Exact product of (1 - 1/p) over primes p <= w.

    The product is prod(p - 1) / prod(p), and every factor is w-smooth.
    Each p - 1 splits as m * r: one ``arith._gather`` at the sorted
    cached primes, shifted by 1, reads rest(p - 1), and r is that rest
    when it exceeds B = max(isqrt(max(p - 1)), 2), else 1.  So r is 1 or
    the one prime of p - 1 above B, and m is B-smooth.  B is at least 2
    because rest(2) = rest(1) = 1: at w = 3 and 4, where max(p - 1) = 2,
    the 2 of p - 1 = 2 is counted in m.  The exponent of each q <= w is
    its count among the r plus, for q <= B, its exponent in prod(m),
    summed over the multiples of q, q^2, ... in a bincount of the m;
    less one at each p.  The coprime numerator and denominator come out
    as balanced products of prime powers, no gcd.  The p - 1 stay in the
    cached primes' int32, and the cut at B searches them with B in it.
    w is read by ``arith._exact_ints``."""
    (w,) = _exact_ints((w,), "w")
    if w < 2:
        raise DomainError("need w >= 2")
    ps = prime_array(w)
    vals = ps - 1
    b = max(isqrt(int(vals[-1])), 2)
    (rough,) = _gather(ps, 1, "rest")
    rough[rough <= b] = 1
    # index 1 counts the values without a prime above B; 1 ** k is 1
    expo = np.bincount(rough, minlength=w + 1)
    count = np.bincount(vals // rough)
    for q in ps[:np.searchsorted(ps, ps.dtype.type(b), "right")].tolist():
        qk = q
        while qk < len(count):
            expo[q] += count[qk::qk].sum()
            qk *= q
    expo[ps] -= 1
    qs = np.flatnonzero(expo).tolist()
    ks = expo[qs].tolist()
    num = balanced_product(q ** k for q, k in zip(qs, ks) if k > 0)
    den = balanced_product(q ** -k for q, k in zip(qs, ks) if k < 0)
    return _coprime_fraction(num, den)
