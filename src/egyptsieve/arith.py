"""Exact arithmetic substrate: primality, sieving, factorization, li,
exact reciprocal sums.

Everything here is deterministic.  Rationals are ``fractions.Fraction``:
exact, always in lowest terms, positive denominator.  Exact sums run no
gcd on a large integer: each value splits at sqrt(max) into a smooth
part and at most one big prime, gcds and lcms touch only the small
smooth parts, the big primes cancel by an exact divisibility test, and
the coprime result is built without the constructor's gcd.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .errors import CapacityError, DomainError

# Strong-pseudoprime witnesses: the first twelve primes are deterministic
# below psi_12 (Sorenson & Webster, Math. Comp. 86, 2017), hence for every
# 64-bit input; from psi_12 on base 41 is added, which makes the test
# deterministic below psi_13.  psi_13 itself is a strong pseudoprime to
# all thirteen bases, so from psi_13 on a strong Lucas test follows
# (together with base 2 that is BPSW, Baillie & Wagstaff, Math. Comp. 35,
# 1980): no counterexample is known, but above psi_13 it is a
# probable-prime test, not a proof.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

DEFAULT_SEGMENT_SIZE = 1 << 20
# prime_segments refuses limits whose base sieve would not fit in memory
MAX_BASE_PRIME = 1 << 27
# _cached builds whole-range arrays to here: 2 GB at the 4 B per entry
# of max_prime_power_array
MAX_ARRAY_LIMIT = 5 * 10 ** 8
# trial_factor's default prime list runs to here; built on first use
TRIAL_PRIME_BOUND = 10 ** 6

_EULER_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")


def is_prime(n: int) -> bool:
    """Deterministic primality for all n below psi_13 (Miller-Rabin with a
    fixed witness set, trial division first for small factors); from
    psi_13 on the Miller-Rabin rounds are followed by a strong Lucas
    test (BPSW)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    witnesses = _MR_WITNESSES if n < _PSI_12 else _MR_WITNESSES + (41,)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        return _strong_lucas_prp(n)
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters
    (P = 1, Q = (1 - D)/4, D the first of 5, -7, 9, -11, ... with
    (D / n) = -1), for odd n without prime factors below 50."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q^k mod n for k = 1, climbing the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def prime_segments(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield the primes in [2, limit] as one increasing int64 array per
    segment [lo, hi) of ``segment_size`` odd numbers.  A segment is a bool
    array cleared by one strided slice per base prime p <= sqrt(hi); the
    first starts at 1, whose entry stands for 2.  The base primes come
    from this kernel itself, run to sqrt(limit); below limit 4 there are
    none.  Limits whose base sieve exceeds the budget raise CapacityError.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if segment_size < 64:
        raise DomainError("segment_size too small")
    base_limit = isqrt(limit)
    if base_limit > MAX_BASE_PRIME:
        raise CapacityError(
            f"limit {limit} needs base primes to {base_limit}, over the "
            f"{MAX_BASE_PRIME} budget")
    odd_base = _build_primes(base_limit)[1:]
    for lo in range(1, limit + 1, 2 * segment_size):
        hi = min(lo + 2 * segment_size, limit + 1)
        seg = np.ones((hi - lo + 1) // 2, dtype=bool)
        ps = odd_base[:np.searchsorted(odd_base, isqrt(hi - 1), "right")]
        start = np.maximum(ps * ps, -(-lo // ps) * ps)
        start += ps * (start % 2 == 0)
        for p, first in zip(ps.tolist(), ((start - lo) // 2).tolist()):
            seg[first::p] = False
        primes = lo + 2 * np.flatnonzero(seg)
        if lo == 1:
            primes[0] = 2
        yield primes


def sieve_primes(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield the primes in [2, limit], increasing, as Python ints, one
    segment of ``prime_segments`` converted at a time."""
    for primes in prime_segments(limit, segment_size):
        yield from primes.tolist()


def prime_power_sieve(limit: int, kind: str,
                      segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """omega(n) (kind "omega", int8) or the largest prime power exactly
    dividing n (kind "maxpp", uint32) for every 0 <= n <= limit; n = 0
    and n = 1 get omega 0 and prime power 1.

    One segment [lo, hi) at a time, each base prime p with p^2 < hi
    marks its multiples and multiplies every power p^k < hi into the
    segment's smooth part.  What is left of n after dividing that out is
    1 or a single prime to the first power (two factors of at least
    sqrt(hi) would exceed n), which adds one to omega and is a
    prime-power candidate.  The Python loop runs only over the base
    primes p <= sqrt(limit) (and their powers), once per segment.
    """
    if kind not in ("omega", "maxpp"):
        raise DomainError(f"unknown kind {kind!r}")
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit > np.iinfo(np.uint32).max:
        raise CapacityError(f"limit {limit} exceeds the uint32 range")
    if segment_size < 64:
        raise DomainError("segment_size too small")
    omega = kind == "omega"
    if omega:
        out = np.zeros(limit + 1, dtype=np.int8)
    else:
        out = np.ones(limit + 1, dtype=np.uint32)
    base = _build_primes(isqrt(limit)).tolist()
    for lo in range(0, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        seg = out[lo:hi]
        smooth = np.ones(hi - lo, dtype=np.uint32)
        for p in base:
            if p * p >= hi:
                break
            q = p
            while q < hi:
                first = max(q, -(-lo // q) * q) - lo
                smooth[first::q] *= p
                if not omega:
                    marks = seg[first::q]
                    np.maximum(marks, q, out=marks)
                elif q == p:
                    seg[first::q] += 1
                q *= p
        n = np.arange(lo, hi, dtype=np.uint32)
        if omega:
            seg += smooth < n
        else:
            np.maximum(seg, n // smooth, out=seg)
    return out


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with primes increasing."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise DomainError(f"malformed factorization {self.factors}")
            last = p

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out

    @property
    def omega(self) -> int:
        """Number of distinct prime divisors."""
        return len(self.factors)

    @property
    def totient(self) -> int:
        """Euler's phi of the value: the product of p^(e-1) (p - 1)."""
        out = 1
        for p, e in self.factors:
            out *= p ** (e - 1) * (p - 1)
        return out

    @property
    def max_prime_power(self) -> int:
        """Largest prime power exactly dividing the value (1 for value 1)."""
        return max((p ** e for p, e in self.factors), default=1)

    def divisors(self) -> list[int]:
        """All divisors, sorted ascending."""
        out = [1]
        for p, e in self.factors:
            out = [d * p ** k for d in out for k in range(e + 1)]
        out.sort()
        return out


@functools.cache
def _trial_primes() -> list[int]:
    return _build_primes(TRIAL_PRIME_BOUND).tolist()


def trial_factor(n: int, primes: list[int] | None = None) -> Factorization:
    """Factorization of n >= 1 by trial division over ``primes``, all the
    primes up to some bound in increasing order (default: those up to
    TRIAL_PRIME_BOUND).  Division stops once p^2 exceeds the cofactor,
    which is then 1 or prime; a cofactor left over after the last listed
    prime must pass is_prime, or CapacityError is raised."""
    if n == 0:
        raise DomainError("cannot factor 0")
    if n < 0:
        raise DomainError(f"cannot factor negative {n}")
    if primes is None:
        primes = _trial_primes()
    factors = []
    m = n
    for p in primes:
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
            if m == 1:
                break
        elif p * p > m:
            break
    else:
        if m > 1 and not is_prime(m):
            raise CapacityError(
                f"{n} has a composite cofactor {m} without prime factors "
                f"among the {len(primes)} listed primes")
    if m > 1:
        factors.append((m, 1))
    return Factorization(tuple(factors))


def li_approx(n: int) -> float:
    """Logarithmic integral li(n), relative error well under 1e-9.

    Evaluated as Ei(log n) from the exponential-integral power series
    around log n, carried in 40-digit decimal arithmetic internally.
    """
    if n < 3:
        raise DomainError(f"li_approx needs n >= 3, got {n}")
    with localcontext() as ctx:
        ctx.prec = 40
        y = Decimal(n).ln()
        total = _EULER_GAMMA + y.ln()
        term = Decimal(1)
        k = 0
        tiny = Decimal(10) ** -35
        while True:
            k += 1
            term = term * y / k
            add = term / k
            total += add
            if abs(add) < tiny and k > int(y):
                break
        return float(total)


_cache: dict[tuple[str, int], np.ndarray] = {}


def _cached(kind: str, limit: int, build) -> np.ndarray:
    """build(limit), cached per kind.  The one array kept for a kind
    serves every limit up to its own as a slice (prime arrays after their
    last prime <= limit, arrays indexed by n at limit + 1), and a build
    for a larger limit replaces it.  Stored arrays are read-only, and so
    are the slices handed out.  A build above MAX_ARRAY_LIMIT raises
    CapacityError."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    held = [n for k, n in _cache if k == kind]
    if held and held[0] >= limit:
        arr = _cache[(kind, held[0])]
        return arr[:np.searchsorted(arr, limit, "right") if kind == "primes"
                   else limit + 1]
    if limit > MAX_ARRAY_LIMIT:
        raise CapacityError(f"{kind} array to {limit} is over the "
                            f"{MAX_ARRAY_LIMIT} limit")
    arr = build(limit)
    arr.flags.writeable = False
    for n in held:
        del _cache[(kind, n)]
    _cache[(kind, limit)] = arr
    return arr


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array over 0..limit, True at prime indices, marked from
    ``prime_array(limit)`` (cached, read-only)."""
    def build(n):
        flags = np.zeros(n + 1, dtype=bool)
        flags[prime_array(n)] = True
        return flags

    return _cached("flags", limit, build)


def _build_primes(limit: int) -> np.ndarray:
    """The primes <= limit, uncached.  Base primes and trial-division
    lists come from here: a _cached build nested in the build of a larger
    prime array would leave a second "primes" entry behind."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(list(prime_segments(limit)))


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty below 2): the segments
    of ``prime_segments`` concatenated (cached, read-only)."""
    return _cached("primes", limit, _build_primes)


def _pairwise(items: list, merge, empty):
    """items reduced by merge over a balanced tree: neighbours merge level
    by level, an odd last item moves up unchanged; empty for no items."""
    if not items:
        return empty
    while len(items) > 1:
        nxt = [merge(items[i], items[i + 1])
               for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


# Fraction(num, den) for a pair already in lowest terms with den > 0,
# without the constructor's gcd: Python 3.12 added _from_coprime_ints
# and dropped the _normalize flag it replaces.
_coprime_fraction = (getattr(Fraction, "_from_coprime_ints", None)
                     or functools.partial(Fraction, _normalize=False))


def _split_rough(values: np.ndarray):
    """Split every value v >= 1 of an int64 array as v = m * r, where r
    is 1 or the one prime factor of v above B = isqrt(max v) (it divides
    v once: (B + 1)^2 > max v) and m is B-smooth.

    One divisibility test over the array per prime p <= B; only its hits
    are tested again for p^2, p^3, ...  Returns the primes up to B, the
    exponent of each summed over all values, and r for every value.
    """
    rest = values.copy()
    primes = _build_primes(isqrt(int(rest.max())))
    exps = np.zeros(len(primes), dtype=np.int64)
    for i, p in enumerate(primes.tolist()):
        hit = np.flatnonzero(rest % p == 0)
        while len(hit):
            rest[hit] //= p
            exps[i] += len(hit)
            hit = hit[rest[hit] % p == 0]
    return primes, exps, rest


def _sum_merge(x, y):
    """Sum of two reciprocal sums held as a / (s * b): s from small lcms,
    b a product of distinct primes, the b of x and y coprime."""
    (a1, s1, b1), (a2, s2, b2) = x, y
    s = lcm(s1, s2)
    return a1 * (s // s1) * b2 + a2 * (s // s2) * b1, s, b1 * b2


def reciprocal_sum(values) -> Fraction:
    """Exact sum of 1/v over an iterable of integers v >= 1, repeats
    counted, without a gcd on a large integer.

    Each v splits as m * r (``_split_rough``: m is B-smooth for
    B = isqrt(max v), r is 1 or a prime above B).  The values sharing an
    r sum to u_r / (s_r * r) with s_r the lcm of their m, and the groups
    merge in one balanced tree into a / (s * b), s = lcm of the s_r,
    b = product of the r.  One gcd(a, s) costs O(len a), s being small;
    then r divides a exactly when it divides u_r (modulo r every other
    group's term vanishes and the rest of r's term is a unit), so those
    r leave a and b once each: [5, 20] gives 1/4.  The result is in
    lowest terms by construction.

    Values below 1 raise DomainError; a B above MAX_BASE_PRIME, that is
    max v >= (MAX_BASE_PRIME + 1)^2, raises CapacityError.
    """
    vals = list(values)
    if not vals:
        return Fraction(0)
    if min(vals) < 1:
        raise DomainError(f"reciprocal_sum needs values >= 1, got "
                          f"{min(vals)}")
    top = int(max(vals))
    if isqrt(top) > MAX_BASE_PRIME:
        raise CapacityError(
            f"value {top} needs split primes to {isqrt(top)}, over the "
            f"{MAX_BASE_PRIME} budget")
    arr = np.array(vals, dtype=np.int64)
    _, _, rough = _split_rough(arr)
    order = np.argsort(rough, kind="stable")
    rough = rough[order]
    smooth = (arr[order] // rough).tolist()
    cuts = [0, *(np.flatnonzero(np.diff(rough)) + 1).tolist(), len(vals)]
    rough = rough.tolist()
    leaves = []
    cancel = 1
    for lo, hi in zip(cuts, cuts[1:]):
        r = rough[lo]
        u, s, _ = _pairwise([(1, m, 1) for m in smooth[lo:hi]], _sum_merge,
                            None)
        if r > 1 and u % r == 0:
            cancel *= r
        leaves.append((u, s, r))
    a, s, b = _pairwise(leaves, _sum_merge, None)
    g = gcd(a, s)
    return _coprime_fraction(a // g // cancel, s // g * (b // cancel))


def prime_reciprocal_sum(primes) -> tuple[int, int]:
    """Exact (numerator, denominator) of sum of 1/p over distinct primes:
    the s = 1 case of reciprocal_sum's merge.  The denominators are
    pairwise coprime, so the pair is already in lowest terms."""
    a, _, b = _pairwise([(1, 1, int(p)) for p in primes], _sum_merge,
                        (0, 1, 1))
    return a, b


def balanced_product(values) -> int:
    """Product of the integers, multiplied in a balanced tree."""
    return _pairwise([int(v) for v in values], operator.mul, 1)
