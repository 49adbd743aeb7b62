"""Exact arithmetic substrate: primality, one sieve kernel over odd
segments (``prime_power_sieve``: the prime flags and the prime-power
statistics), each segment started from patterns of one 3 5 7 11 13
wheel (``_wheel``) so that only larger primes and prime powers strike,
one prime path (``prime_array`` alone reads the "prime" kind, into the
one cached int32 array: every prime list, ``sieve_primes``' too, is it
or a slice of it), prime-power statistics gathered at any n in one walk
of the kernel with no table (``_gather``), one capacity limit
(MAX_ARRAY_LIMIT, for the arrays and the walks of the kernel),
factorization into (prime, exponent) pairs, li, exact reciprocal sums.

Everything here is deterministic.  Rationals are ``fractions.Fraction``:
exact, always in lowest terms, positive denominator.  Exact sums run no
gcd on a large integer: each value splits at B = sqrt(max) into a
smooth part and at most one big prime, gcds and lcms touch only the
small smooth parts, the big primes cancel by an exact divisibility
test, and the coprime result is built without the constructor's gcd.
``_exact_sum`` is their one entry: its caller gathers the kernel's
"rest" at its sorted values (``_gather``), and the big primes are read
off it.

Every exact sum of reciprocals has one tree format, leaves u / (s * r)
and nodes a / (s * b): ``_fold`` sums runs of _FOLD leaves in Python,
and only the folded nodes enter the balanced merge tree of
``_sum_merge``.  ``_exact_sum`` builds its leaves from the sorted
arrays; ``_reciprocal_tree`` (the unreduced sum that ``egypt.verify``
and ``egypt.merge_by_pigeonhole`` check) takes u = s = 1 and r = d.
The products of the merge trees (these sums and ``balanced_product``)
go through ``_products``: a float FFT over 8-bit limbs once every
operand has _FFT_MIN_BITS bits, at the shortest of the lengths 2^k,
3 * 2^(k - 2) and 5 * 2^(k - 3) that holds the product
(``_fft_length``), exact by a stated error bound per radix up to
transforms of _FFT_MAX_LEN limbs, and ``*`` otherwise.
"""
from __future__ import annotations

import functools
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm, log, prod

import numpy as np

from .errors import CapacityError, DomainError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Strong-pseudoprime witnesses, tiered by n: a row (psi_k, bases) holds
# the first k prime bases, which decide every n below psi_k, the least
# strong pseudoprime to all of them (OEIS A014233, tabulated by Jaeschke,
# Math. Comp. 61, 1993, to psi_8 and by Sorenson & Webster, Math. Comp.
# 86, 2017, to psi_13).  k = 8, 10 and 11 have no row: psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so the extra base decides nothing more.  The
# last row adds base 41 from psi_12 on, which makes the test
# deterministic below psi_13.  psi_13 itself is a strong pseudoprime to
# all thirteen bases, so from psi_13 on a strong Lucas test follows
# (together with base 2 that is BPSW, Baillie & Wagstaff, Math. Comp.
# 35, 1980): no counterexample is known, but above psi_13 it is a
# probable-prime test, not a proof.
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981
_MR_WITNESSES = tuple((psi, _SMALL_PRIMES[:k]) for psi, k in (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (_PSI_12, 12),
    (_PSI_13, 13),
))

SEGMENT_SIZE = 1 << 20       # numbers per segment of the sieve kernel
# prime_array, every walk of the sieve kernel (so the odd part of every
# gathered n) and the n = p - h of spectrum._shifted_primes reach only
# to here, so int32 holds them
MAX_ARRAY_LIMIT = 5 * 10 ** 8
# trial_factor divides by the primes of prime_array up to here
TRIAL_PRIME_BOUND = 10 ** 6
# integers up to this many bits are written in decimal, longer ones in
# hex (``_num_text``); below 4,300 digits (14,284 bits), so every integer
# the decimal writer took keeps its text.  A certificate's integers stop
# here too
MAX_DECIMAL_BITS = 14_000

_EULER_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")


def is_prime(n: int) -> bool:
    """Deterministic primality for all n below psi_13, BPSW from there on.

    n is read by ``_exact_ints`` (after a test that passes a Python int
    as it is): a numpy integer counts as the int it holds, and a bool,
    float, Fraction or string raises DomainError.  Trial division by the
    primes to 47 comes first.  Then Miller-Rabin runs on the first k
    prime bases, k the least count proven to decide n (the
    ``_MR_WITNESSES`` rows: base 2 below 2,047, bases 2 and 3 below
    1,373,653, ..., 2..37 below psi_12, 2..41 from there on), and from
    psi_13 on a strong Lucas test follows."""
    if type(n) is not int:
        (n,) = _exact_ints((n,), "is_prime argument")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    # the first row whose bound exceeds n; from psi_13 on, the last row
    for bound, witnesses in _MR_WITNESSES:
        if n < bound:
            break
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


_WHEEL_PRIMES = (3, 5, 7, 11, 13)
# the period, in i, of n = lo + 2i modulo the wheel primes
_WHEEL = prod(_WHEEL_PRIMES)


def _wheel_patterns():
    """One period of each pattern over odd n, entry j standing for every
    n = 1 + 2j (mod 2 _WHEEL): n coprime to the wheel, the count and
    the largest of the wheel primes dividing n (1 for none), and the
    inverse mod 2^32 of their product W, so that n times it in uint32
    is n / W; each is read off the 32 sets of wheel primes, numbered
    by bits.  Last, over the same entries j but only for the odd n
    below 13^2: the wheel prime p | n with p^2 > n, else 1."""
    n = np.arange(1, 2 * _WHEEL, 2)
    at = sum((n % p == 0) << k for k, p in enumerate(_WHEEL_PRIMES))
    divs = [[p for k, p in enumerate(_WHEEL_PRIMES) if c >> k & 1]
            for c in range(1 << len(_WHEEL_PRIMES))]

    def per_set(values, dtype):
        return np.array(values, dtype)[at]

    largest = per_set([max(d, default=1) for d in divs], np.uint32)
    head = largest[:_WHEEL_PRIMES[-1] ** 2 // 2]
    patterns = (at == 0, per_set([len(d) for d in divs], np.int8), largest,
                per_set([pow(prod(d), -1, 1 << 32) for d in divs],
                        np.uint32),
                np.where(head * head > n[:len(head)], head, 1))
    for pattern in patterns:
        pattern.flags.writeable = False
    return patterns


_COPRIME, _WHEEL_OMEGA, _WHEEL_MAXPP, _WHEEL_INVERSE, _WHEEL_HEAD = \
    _wheel_patterns()


def _wheel(seg: np.ndarray, lo: int, pattern: np.ndarray, op) -> None:
    """op(view, part) over the whole of seg, entry i standing for the
    odd n = lo + 2i, where part holds the pattern's entries at those n:
    a head up to the first n = 1 (mod 2 _WHEEL), the whole periods as
    rows of _WHEEL (part is the pattern itself, broadcast), and a tail.
    No array longer than the pattern is built."""
    s = (lo - 1) // 2 % _WHEEL
    head = min(-s % _WHEEL, len(seg))
    op(seg[:head], pattern[s:s + head])
    end = head + (len(seg) - head) // _WHEEL * _WHEEL
    op(seg[head:end].reshape(-1, _WHEEL), pattern)
    op(seg[end:], pattern[:len(seg) - end])


# the kinds of prime_power_sieve that _gather reads, with their dtypes
_KINDS = {"omega": np.int8, "maxpp": np.uint32, "rest": np.uint32}


def prime_power_sieve(limit: int, *kinds: str):
    """Yield, for the odd n <= limit (``_exact_ints``, at most
    MAX_ARRAY_LIMIT), one tuple per segment of SEGMENT_SIZE odd n =
    lo + 2i from lo = 1 holding an array of each kind asked for, in that
    order: omega(n) (kind "omega", int8), the largest prime power
    exactly dividing n ("maxpp", uint32), the prime factor of n above
    sqrt(n), or 1 ("rest", uint32), and whether n is prime ("prime",
    bool); n = 1 gets 0, 1, 1 and True, its "prime" standing for 2.
    ``_gather`` reads the first three at each even n off its odd part.
    A segment starts from the ``_wheel`` patterns of the wheel primes
    3 5 7 11 13 dividing n: prime the n coprime to them, with the wheel
    primes set back, omega their count, maxpp the largest, and rest, a
    uint32 copy of the n, times the inverse mod 2^32 of their product
    W, which is n / W since W | n.  Below 13^2 a wheel prime p | n may
    exceed sqrt(n): rest takes it back, and omega counts it there
    instead.  Then each power q = p^k of an odd base prime with
    p^2 < hi, but p >= 17 or k >= 2, strikes its odd multiples from
    max(q, p^2) on: it clears prime at q = p and divides p out of them
    in rest, by a uint32 multiply with p^-1 mod 2^32.  That is exact
    division (Granlund and Montgomery, PLDI 1994, sec. 9): the
    p-strikes at n, the wheel's included, number at most v_p(n), so p
    still divides every struck entry.  What is left of n is 1 or one
    prime (n's least prime strikes it, and two primes above sqrt(n)
    would exceed n): one more for omega, and a prime-power candidate.
    rest, unless asked for, is freed before the segment is handed out;
    "prime" alone builds no rest and strikes only q = p.  2 and its
    powers are never strided."""
    (limit,) = _exact_ints((limit,), "limit")
    if not kinds or not set(kinds) <= {*_KINDS, "prime"}:
        raise DomainError(f"unknown kinds {kinds!r}")
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    _check_array_limit("sieve", limit)
    # a statistic asked for: rest is built, and every p^k strikes
    stats = set(kinds) != {"prime"}
    base = prime_array(isqrt(limit))[1:].tolist()
    powers = sorted((max(p ** k, p * p), p ** k, p) for p in base
                    for k in range(1, int(log(limit, p)) + 2 if stats else 2)
                    if p ** k <= limit
                    and (k > 1 or p > _WHEEL_PRIMES[-1]))
    least, qs = np.array(powers, dtype=np.int64).reshape(-1, 3).T[:2]
    # p^-1 mod 2^32 of each strike, a uint32 like rest
    inverses = [np.uint32(pow(p, -1, 1 << 32)) if stats else None
                for _, _, p in powers]
    for lo in range(1, limit + 1, 2 * SEGMENT_SIZE):
        hi = min(lo + 2 * SEGMENT_SIZE, limit + 1)
        size = (hi - lo + 1) // 2
        # the entry of each struck q's first odd multiple >= its least
        k = int(np.searchsorted(least, hi))
        q = qs[:k]
        first = np.maximum(least[:k], -(-lo // q) * q)
        first += q * (first % 2 == 0)
        first = ((first - lo) // 2).tolist()
        prime = omega = maxpp = rest = None
        if "prime" in kinds:
            prime = np.empty(size, bool)
            _wheel(prime, lo, _COPRIME, np.copyto)
            for p in _WHEEL_PRIMES:
                if lo <= p < hi:
                    prime[(p - lo) // 2] = True
        if "omega" in kinds:
            omega = np.empty(size, np.int8)
            _wheel(omega, lo, _WHEEL_OMEGA, np.copyto)
        if "maxpp" in kinds:
            maxpp = np.empty(size, np.uint32)
            _wheel(maxpp, lo, _WHEEL_MAXPP, np.copyto)
        if stats:
            rest = np.arange(lo, hi, 2, dtype=np.uint32)
            _wheel(rest, lo, _WHEEL_INVERSE, operator.imul)
            # empty from n = 13^2 on
            big = _WHEEL_HEAD[(lo - 1) // 2:][:size]
            rest[:len(big)] *= big
            if omega is not None:
                omega[:len(big)] -= big > 1
        for (_, q, p), inv, i in zip(powers, inverses, first):
            if prime is not None and q == p:
                prime[i::q] = False
            if rest is None:
                continue
            rest[i::q] *= inv
            if maxpp is not None:
                np.maximum(maxpp[i::q], q, out=maxpp[i::q])
            if omega is not None and q == p:
                omega[i::q] += 1
        if omega is not None:
            omega += rest > 1
        if maxpp is not None:
            np.maximum(maxpp, rest, out=maxpp)
        out = tuple({"prime": prime, "omega": omega, "maxpp": maxpp,
                     "rest": rest}[k] for k in kinds)
        del prime, omega, maxpp, rest
        yield out
        del out          # freed, once the reader lets go, before the next


def _chunks(arr: np.ndarray):
    """Yield arr in consecutive slices of SEGMENT_SIZE / 16 entries (at
    least one), so an elementwise pass over a prime array holds no
    temporary longer than a slice."""
    step = max(SEGMENT_SIZE >> 4, 1)
    for i in range(0, len(arr), step):
        yield arr[i:i + step]


def _gather(xs: np.ndarray, h: int, *kinds: str) -> list[np.ndarray]:
    """The ``prime_power_sieve`` kinds at n = x - h for each entry x of a
    sorted integer array (the int32 primes, or any sorted n at h = 0)
    with 0 <= x - h < 2^32 in its dtype, one array per kind
    (n = 0 reads 0), in one walk of the kernel and with no array of the
    n.  Each n >= 1 is 2^v u, u odd: omega(n) = omega(u) + (v > 0),
    maxpp(n) = max(2^v, maxpp(u)) and rest(n) = rest(u); the v fill an
    int8 array from ``_chunks`` of the xs.  The walk goes up to the
    largest u and serves every v: a segment [lo, hi) of u serves the n
    between lo 2^v and hi 2^v whose v matches, the xs between lo 2^v + h
    and hi 2^v + h, found by searchsorted with the bounds clipped to the
    xs' dtype (a wider needle would copy them).  The outputs and the int8
    v are the only arrays as long as the xs.  Empty xs walk nothing; an
    n from 2^32 on, whose 2^v would pass the uint32 outputs, raises
    CapacityError before the walk, and a u past MAX_ARRAY_LIMIT the
    kernel's CapacityError before it builds anything."""
    outs = [np.zeros(len(xs), dtype=_KINDS[k]) for k in kinds]
    if len(xs) == 0:
        return outs
    last = int(xs[-1]) - h
    if last >> 32:
        raise CapacityError(f"n = {last} exceeds the uint32 range")
    v = np.empty(len(xs), dtype=np.int8)
    top = 0
    for ps, vc in zip(_chunks(xs), _chunks(v)):
        w = ps - h
        np.bitwise_count(w ^ (w - 1), out=vc)      # v + 1 set bits
        vc -= 1
        top = max(top, int((w >> vc).max()))
    cap = np.iinfo(xs.dtype).max
    lo = 1
    for segs in prime_power_sieve(top, *kinds):
        hi = lo + 2 * len(segs[0])
        for e in range((last // lo).bit_length()):
            ends = np.minimum(((lo << e) + h, (hi << e) + h), cap)
            a, b = np.searchsorted(xs, ends.astype(xs.dtype))
            k = np.flatnonzero(v[a:b] == e) + a
            at = (((xs[k] - h) >> e) - lo) // 2
            for kind, out, seg in zip(kinds, outs, segs):
                got = seg[at]
                if kind == "omega":
                    got += e > 0
                elif kind == "maxpp":
                    np.maximum(got, 1 << e, out=got)
                out[k] = got
            del k, at, got        # freed before the next pass builds its own
        lo = hi
        del segs                  # freed before the next segment is built
    return outs


def trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 as (prime, exponent) pairs,
    primes increasing (() for 1), by trial division over the cached
    ``prime_array(TRIAL_PRIME_BOUND)``, read through a memoryview: it
    yields each prime as a Python int, so m % p stays exact on big m,
    and only the primes the loop reaches are read.  Division stops once
    p^2 exceeds the cofactor, which is then 1 or prime; a cofactor left
    over after the last prime must pass is_prime, or CapacityError is
    raised."""
    if n == 0:
        raise DomainError("cannot factor 0")
    if n < 0:
        raise DomainError(f"cannot factor negative {n}")
    factors = []
    m = n
    for p in memoryview(prime_array(TRIAL_PRIME_BOUND)):
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
                f"up to {TRIAL_PRIME_BOUND}")
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def li_approx(n: int) -> float:
    """Logarithmic integral li(n), relative error well under 1e-9.

    Evaluated as Ei(log n) from the exponential-integral power series
    around log n, carried in 40-digit decimal arithmetic internally; n
    is read by ``_exact_ints``."""
    (n,) = _exact_ints((n,), "li_approx argument")
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


# the one prime array held, {its limit: the array}, at most one entry
_cache: dict[int, np.ndarray] = {}


def _check_array_limit(kind: str, limit: int) -> None:
    """CapacityError for a whole-range array past MAX_ARRAY_LIMIT."""
    if limit > MAX_ARRAY_LIMIT:
        raise CapacityError(f"{kind} array to {limit} is over the "
                            f"{MAX_ARRAY_LIMIT} limit")


def _prime_bound(n: int) -> int:
    """An upper bound on pi(n) for n >= 2: pi(x) < 1.25506 x / log x for
    x > 1 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962)."""
    return int(1.25506 * n / log(n)) + 1


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int32 array (empty below 2),
    the one reader of ``prime_power_sieve(limit, "prime")``: each
    segment from lo is read as flatnonzero * 2 + lo, its entry for 1
    standing for 2, straight into an int32 ``_prime_bound`` buffer whose
    unwritten tail is never touched (RuntimeError if the primes pass its
    end).  int32 holds every entry, as no array past MAX_ARRAY_LIMIT
    < 2^31 is built (CapacityError before any walk); a negative limit
    raises DomainError.

    One array is held in ``_cache``.  It serves its own limit as it is
    (no search: ``trial_factor`` asks for it on every call) and every
    smaller limit as the read-only slice up to its last prime <= limit,
    found with a needle of its dtype, so nothing is copied.  A larger
    limit drops it before the build starts, so the two are never alive
    together through the cache; whatever the build's own base primes
    left there is dropped when it returns."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    held = next(iter(_cache), -1)
    if held >= limit:
        arr = _cache[held]
        if held == limit:
            return arr
        return arr[:np.searchsorted(arr, arr.dtype.type(limit), "right")]
    _check_array_limit("prime", limit)
    _cache.clear()
    arr = np.empty(_prime_bound(limit) if limit > 1 else 0, np.int32)
    k, lo = 0, 1
    # below 2 nothing is walked: the kernel's entry for 1 stands for 2
    for seg, in prime_power_sieve(limit, "prime") if limit > 1 else ():
        at = np.flatnonzero(seg)
        if k + len(at) > len(arr):
            raise RuntimeError(f"segments to {limit} overflow {len(arr)}")
        got = arr[k:k + len(at)]
        got[:] = at
        got *= 2
        got += lo
        if lo == 1:
            got[0] = 2
        k += len(at)
        lo += 2 * len(seg)
    arr = arr[:k]
    arr.flags.writeable = False
    _cache.clear()
    _cache[limit] = arr
    return arr


def sieve_primes(limit: int):
    """Yield the primes in [2, limit], increasing, as Python ints, one
    ``_chunks`` slice of ``prime_array(limit)`` converted at a time.  A
    limit that ``_exact_ints`` refuses or below 2 raises DomainError."""
    (limit,) = _exact_ints((limit,), "sieve limit")
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    for primes in _chunks(prime_array(limit)):
        yield from primes.tolist()


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


# _products multiplies through the FFT when every operand has at least
# _FFT_MIN_BITS bits and the transform needs at most _FFT_MAX_LEN limbs.
# 15,000 bits is where _sum_merge's products by FFT, at the lengths of
# _fft_length, start to beat * (on a 2-core x86-64 host: 1.08x the time
# of * at 14k bits, 0.96x at 15k, 0.86x at 16k, 0.54x at 32k); the
# longest length is argued in _products' docstring.
_FFT_MIN_BITS = 15_000
_FFT_MAX_LEN = 1 << 22


def _int_products(sums: list) -> list[int]:
    """_products by ``*``."""
    out = []
    for terms in sums:
        total = 0
        for x, y in terms:
            total += x * y
        out.append(total)
    return out


def _fft_length(m: int) -> int:
    """The transform length of a product with m >= 1 limb coefficients:
    the shortest of 2^k, 3 * 2^(k - 2) and 5 * 2^(k - 3) that holds them,
    2^k the least power of two >= m.  A shifted candidate that is no
    such length (n < 8) is at most 2^(k - 1) < m and never chosen."""
    n = 1 << (m - 1).bit_length()
    return next(c for c in (5 * n >> 3, 3 * n >> 2, n) if c >= m)


def _products(sums: list) -> list[int]:
    """[sum(x * y for x, y in terms) for terms in sums], exact; each sum
    holds one or two products.

    When every operand is a nonnegative int of at least _FFT_MIN_BITS
    bits and every product fits a transform of at most _FFT_MAX_LEN
    limbs, the sums come from numpy's real FFT over 8-bit limbs (the
    bytes of ``int.to_bytes``): each distinct operand is transformed
    once, a sum's spectra are multiplied and added in place (a spectrum
    is dropped at its last read, and its buffer takes the product), and
    one inverse transform per sum gives its limb coefficients, which are
    rounded, measured and cast in that transform's buffer and carried by
    ``int.from_bytes`` on their byte columns.  Any other input
    is multiplied by ``*``.  The length N is ``_fft_length`` of the
    longest product's len x + len y - 1 coefficients: 2^k, 3 * 2^(k - 2)
    or 5 * 2^(k - 3), so a transform is at most 4/3 of its product's
    length, where the next power of two alone pads up to twice it.

    Exactness.  The result is exact when every computed coefficient is
    within 1/2 of the exact one.  For a length-2^k transform in double
    precision (eps = 2^-53) whose twiddle factors are within beta of the
    exact roots, Percival (Math. Comp. 72, 2003; Brent and Zimmermann,
    Modern Computer Arithmetic, section 3.3) bounds that error for one
    product by ||x|| ||y|| ((1 + eps)^(3k) (1 + sqrt(5) eps)^(3k + 1)
    (1 + beta)^(3k) - 1): each of the three transforms has k radix-2
    levels, and each level multiplies by twiddle factors (sqrt(5) eps
    and beta) and adds (eps).  Adding two spectra costs one more
    (1 + eps).  Limbs are at most 255 and len x + len y <= N + 1, so
    ||x|| ||y|| <= 255^2 (N + 1) / 2, and a sum of two products is
    bounded with 255^2 (N + 1).

    Per radix.  At N = 3 * 2^(k - 2) and 5 * 2^(k - 3) pocketfft adds
    one radix-3 or radix-5 pass to the radix-2 levels.  That pass
    multiplies by its twiddle factors, as a level does, and then takes
    r-point DFTs by fixed formulas whose constants cos and sin(2 pi j / r)
    are doubles within eps of the exact ones: each output is a sum of r
    terms, each through at most 4 (r = 3) or 6 (r = 5) roundings, the
    constant's included.  An r-point DFT of complex inputs v with such
    per-term errors xi errs by at most sqrt(2) xi r ||v||, sqrt(2r) xi
    times the norm sqrt(r) ||v|| of its exact output: 9.8 eps for radix
    3 (xi = 4 eps) and 19 eps for radix 5 (xi = 6 eps), on top of the
    twiddle's (sqrt(5) + 8) eps.  A radix-2 level costs 11.2 eps, so a
    radix-3 pass costs less than two levels and a radix-5 pass less than
    three.  The bound therefore holds at those N with the k of 2^k, and
    a smaller N: at each k it is largest at 2^k.

    numpy's pocketfft builds each twiddle factor, at every length, as the
    product of two tabulated roots, each a libm cos/sin of an angle
    reduced to the first octant, so they are a few units of eps from the
    exact roots (a test holds the transform of a unit impulse to 8 eps
    of them at 2^16, 3 * 2^14 and 5 * 2^13); the bound takes beta =
    8 eps.  It then reads 3.4e-4 at N = 5 * 2^14 (the longest transform
    of the density reports), 0.014 at 5 * 2^19, 0.017 at 3 * 2^20 and
    0.023 at N = 2^22 = _FFT_MAX_LEN; it stays under 1/2 to 2^26.  The 20-fold margin at _FFT_MAX_LEN covers what the
    theorem does not: pocketfft makes a real transform in radix-4,
    radix-2 and the one radix-3 or radix-5 pass of FFTPACK's real
    algorithm, assumed to lose no more per pass than the complex one
    analysed.  It also caps each spectrum at 32 MB.  As a guard, every
    FFT sum measures its largest distance to the nearest integer and
    raises ArithmeticError from 1/4 on.
    """
    # most products of the merge trees are small: the first small or
    # negative operand decides, before anything is built
    for terms in sums:
        for x, y in terms:
            if (x.bit_length() < _FFT_MIN_BITS
                    or y.bit_length() < _FFT_MIN_BITS or x < 0 or y < 0):
                return _int_products(sums)
    n = _fft_length(max(1, max((x.bit_length() + 7) // 8
                               + (y.bit_length() + 7) // 8 - 1
                               for terms in sums for x, y in terms)))
    if n > _FFT_MAX_LEN:
        return _int_products(sums)
    spectra, reads = {}, {}
    for v in (v for terms in sums for pair in terms for v in pair):
        reads[id(v)] = reads.get(id(v), 0) + 1
        if id(v) not in spectra:
            limbs = v.to_bytes((v.bit_length() + 7) // 8, "little")
            spectra[id(v)] = np.fft.rfft(np.frombuffer(limbs, np.uint8), n)
    out = []
    for terms in sums:
        acc = None
        for x, y in terms:
            # a spectrum is dropped at its last read, and a dropped one
            # of the pair holds the product
            sx, sy, free = spectra[id(x)], spectra[id(y)], None
            for v in (x, y):
                reads[id(v)] -= 1
                if not reads[id(v)]:
                    free = spectra.pop(id(v))
            term = np.multiply(sx, sy, out=free)
            del sx, sy, free
            if acc is None:
                acc = term
            else:
                acc += term
            del term
        z = np.fft.irfft(acc, n)
        del acc
        c = np.rint(z)
        z -= c
        miss = float(np.abs(z, out=z).max())
        if miss >= 0.25:
            raise ArithmeticError(
                f"FFT product {miss} from an integer at length {n}")
        # the coefficients, exact integers below 2^53, as uint64 in z
        coef = z.view("<u8")
        np.copyto(coef, c, casting="unsafe")
        del c
        cols = coef.view(np.uint8).reshape(n, 8)
        value = 0
        for j in range((int(coef.max()).bit_length() + 7) // 8):
            value += int.from_bytes(cols[:, j].tobytes(), "little") << 8 * j
        out.append(value)
    return out


# Fraction(num, den) for a pair already in lowest terms with den > 0,
# without the constructor's gcd: Python 3.12 added _from_coprime_ints
# and dropped the _normalize flag it replaces.
_coprime_fraction = (getattr(Fraction, "_from_coprime_ints", None)
                     or functools.partial(Fraction, _normalize=False))


# leaves per node of _fold: Python runs once per run of _FOLD leaves,
# and only the nodes enter the merge tree
_FOLD = 32


def _sum_merge(x, y):
    """Sum of two reciprocal sums held as a / (s * b), unreduced: s from
    small lcms, b the product of the leaves' r.  The formula holds for
    any b; only ``_exact_sum``'s final cancellation needs the b of x
    and y coprime, as its distinct rough primes make them."""
    (a1, s1, b1), (a2, s2, b2) = x, y
    s = lcm(s1, s2)
    a, b = _products([[(a1 * (s // s1), b2), (a2 * (s // s2), b1)],
                      [(b1, b2)]])
    return a, s, b


def _node(us: list, ss: list, rs: list) -> tuple[int, int, int]:
    """The leaves u / (s * r) of one run summed as one node (a, S, P) of
    a / (S * P): P the product of the r, S the lcm of the s, a the sum
    of u * (S / s) * (P / r)."""
    S, P = lcm(*ss), prod(rs)
    return sum([u * (S // m) * (P // q) for u, m, q in zip(us, ss, rs)]), S, P


def _fold(pieces) -> list:
    """The leaves u / (s * r), given in order as pieces (us, ss, rs) of
    lists, summed in runs of _FOLD that run on across the pieces, each
    run as one ``_node``.  Beside the nodes, only one piece and the part
    run carried into it are held."""
    nodes = []
    us = ss = rs = []
    for pu, ps, pr in pieces:
        us, ss, rs = us + pu, ss + ps, rs + pr
        end = len(ss) - len(ss) % _FOLD
        nodes += [_node(us[i:i + _FOLD], ss[i:i + _FOLD], rs[i:i + _FOLD])
                  for i in range(0, end, _FOLD)]
        us, ss, rs = us[end:], ss[end:], rs[end:]
    if ss:
        nodes.append(_node(us, ss, rs))
    return nodes


def _reciprocal_tree(ds: list) -> tuple[int, int]:
    """The sum of 1/d over a list of ints d >= 1 as an unreduced pair
    (num, den), den the product of the ds: the leaves u = s = 1, r = d
    folded by ``_fold`` and merged by ``_sum_merge``, so no gcd is
    taken; (0, 1) for no terms."""
    ones = [1] * len(ds)
    a, _, b = _pairwise(_fold([(ones, ones, ds)]), _sum_merge, (0, 1, 1))
    return a, b


def _num_text(x) -> str:
    """An int or a Fraction as str writes it, but each integer part past
    MAX_DECIMAL_BITS bits in hex, "0x...": Python converts to base 16 in
    linear time and with no digit limit, where decimal is quadratic and
    refused past 4,300 digits."""
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        return _num_text(num) + (f"/{_num_text(den)}" if den > 1 else "")
    return str(x) if x.bit_length() <= MAX_DECIMAL_BITS else hex(x)


def _exact_ints(values, what: str) -> list[int]:
    """values read with ``operator.index`` (a numpy integer becomes the
    int it holds); the first entry that is no integer (a bool, a float,
    a Fraction, a string) raises DomainError naming it."""
    out = []
    for v in values:
        try:
            if isinstance(v, bool):
                raise TypeError
            out.append(operator.index(v))
        except TypeError:
            raise DomainError(f"{what} {v!r} not an integer") from None
    return out


def _exact_fields(obj, *names: str) -> None:
    """Each named field of the frozen dataclass obj set to the int
    ``_exact_ints`` reads from it, in ``__post_init__``."""
    for name in names:
        (v,) = _exact_ints((getattr(obj, name),), name)
        object.__setattr__(obj, name, v)


def _leaves(vals: np.ndarray, rest: np.ndarray, cancel: list):
    """The leaves of ``_exact_sum`` over its values v = m * r, as pieces
    (us, ss, rs) of lists for ``_fold``, none longer than one ``_chunks``
    slice of the values sorted by r.  First every value that is smooth
    (r = 1) or alone with its r, as 1 / (m * r), a piece per slice; then
    one leaf u_r / (s_r * r) per r > 1 that several values share, s_r the
    lcm of their m and u_r the sum of s_r / m, a piece per slice of the
    shared values holding the groups that end in it.  Each r that divides
    its u_r is appended to cancel.  The sorted int64 arrays live in this
    generator, so they are freed when ``_fold`` has read it."""
    rough = rest.astype(np.int64)
    rough[rough <= isqrt(int(vals.max()))] = 1
    order = np.argsort(rough)
    rough = rough[order]
    smooth = vals[order].astype(np.int64, copy=False)
    del vals, rest, order
    smooth //= rough
    new = np.ones(len(rough), dtype=bool)
    new[1:] = rough[1:] != rough[:-1]
    # smooth, or the only value of its r
    alone = new.copy()
    alone[:-1] &= new[1:]
    alone |= rough == 1
    for s, r, a in zip(_chunks(smooth), _chunks(rough), _chunks(alone)):
        ss = s[a].tolist()
        yield [1] * len(ss), ss, r[a].tolist()
    shared = ~alone
    grouped = smooth[shared]
    group_r = rough[new & shared]
    heads = np.flatnonzero(new[shared])
    ends = np.append(heads[1:], len(grouped))
    del rough, smooth, new, alone, shared
    # a piece holds the groups k..j - 1 that end in the slices read so far
    done = k = 0
    for window in _chunks(grouped):
        done += len(window)
        j = int(np.searchsorted(ends, done, "right"))
        if j == k:
            continue
        ms = grouped[heads[k]:ends[j - 1]].tolist()
        us, ss, i = [], [], 0
        for n in (ends[k:j] - heads[k:j]).tolist():
            group = ms[i:i + n]
            s = lcm(*group)
            us.append(sum([s // m for m in group]))
            ss.append(s)
            i += n
        rs = group_r[k:j].tolist()
        cancel += [r for u, r in zip(us, rs) if u % r == 0]
        yield us, ss, rs
        k = j


def _exact_sum(vals: np.ndarray, rest: np.ndarray) -> Fraction:
    """Exact sum of 1/v over an integer array of v >= 1, given each v's
    rest(v): the kind "rest" at v's odd part, as ``_gather`` reads it at
    the sorted values.  Above B = isqrt(max v) it is the prime of v above
    B, and every odd such prime shows, so r = rest above B, else 1,
    splits v = m * r with no r dividing any m.  Each v with r = 1 and
    each r > 1 that only one v has
    is a leaf u / (s * r) = 1 / (m * r); the v sharing an r > 1 sum to
    u_r / (s_r * r), s_r the lcm of their m.  ``_leaves`` hands these
    leaves over one ``_chunks`` slice of the sorted arrays at a time, and
    ``_fold`` sums runs of _FOLD leaves into one node each, so no list is
    as long as the values.  The nodes merge in one balanced tree into
    a / (s * b), s = lcm of all m, b = product of the distinct r; its
    products go through ``_products``, by FFT near the top of the tree.
    That triple does not depend on how the leaves are bracketed.  The
    sorted arrays are let go before the merge.  One gcd(a, s) costs
    O(len a), s being small; then r divides a exactly when it divides u_r
    (modulo r every other leaf's term vanishes and the rest of r's term
    is a unit), so those r leave a and b once each: [5, 20] gives 1/4.
    The result is in lowest terms by construction."""
    if len(vals) == 0:
        return Fraction(0)
    cancel = []
    nodes = _fold(_leaves(vals, rest, cancel))
    del vals, rest
    a, s, b = _pairwise(nodes, _sum_merge, None)
    g = gcd(a, s)
    c = prod(cancel)
    return _coprime_fraction(a // g // c, s // g * (b // c))


def balanced_product(values) -> int:
    """Product of the integers, multiplied in a balanced tree; a product
    of two operands of _FFT_MIN_BITS bits or more goes through
    ``_products`` (by FFT)."""
    def mul(x, y):
        # most products of the tree are small: * without the helper's lists
        if x.bit_length() < _FFT_MIN_BITS or y.bit_length() < _FFT_MIN_BITS:
            return x * y
        return _products([[(x, y)]])[0]

    return _pairwise([operator.index(v) for v in values], mul, 1)
