import bisect
import collections
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egyptsieve import arith, egypt
from egyptsieve.arith import (
    _PSI_13,
    _strong_lucas_prp,
    balanced_product,
    is_prime,
    li_approx,
    prime_array,
    prime_power_sieve,
    sieve_primes,
    trial_factor,
)
from egyptsieve.egypt import Decomposition, verify
from egyptsieve.errors import CapacityError, DomainError
from egyptsieve.spectrum import (
    ShiftParams,
    friability_density,
    mertens_product,
)

from conftest import (
    factor_product,
    kernel_walks,
    max_prime_power,
    naive_factor,
    naive_is_prime,
)


def _monolithic_flags(limit):
    """Reference: the plain Eratosthenes sieve over one bool array, kept
    apart from the segmented kernel."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def _walk(limit, kind):
    """prime_power_sieve's segments of one kind for the odd n <= limit,
    joined (none for limit 0)."""
    segs = [seg for seg, in prime_power_sieve(limit, kind)]
    return np.concatenate(segs) if segs else np.zeros(0, dtype=np.int64)


def _upto(limit):
    """Every n in 1..limit, as int64."""
    return np.arange(1, limit + 1, dtype=np.int64)


def _at(n, kind):
    """The kind at each n of a sorted integer array, by one gather."""
    return arith._gather(n, 0, kind)[0]


def _gathered_sum(values):
    """The exact sum of 1/v over the values through arith._exact_sum, with
    the rest gathered at them sorted as int64."""
    arr = np.sort(np.array(values, dtype=np.int64))
    return arith._exact_sum(arr, _at(arr, "rest"))


# up to the wheel's second period start, 2 * 2 * 15015 + 1, and past it
_NAIVE_PRIMES = [n for n in range(4 * arith._WHEEL + 3) if naive_is_prime(n)]

# segments shorter than, as long as and longer than the wheel's period of
# 15,015 odd n, and limits around 13^2 (below it a wheel prime may
# exceed sqrt(n)) and the period starts 2 * 15015 k + 1
_WHEEL_SIZES = (64, 65, arith._WHEEL, arith._WHEEL + 1)
_WHEEL_LIMITS = (168, 169, 170, *(2 * arith._WHEEL * k + 1 + e
                                  for k in (1, 2) for e in (-1, 0, 1)))


def _naive_primes_to(limit):
    return _NAIVE_PRIMES[:bisect.bisect_right(_NAIVE_PRIMES, limit)]


class TestSievePrimes:
    def test_limit_10(self):
        assert list(sieve_primes(10)) == [2, 3, 5, 7]

    def test_limit_2(self):
        assert list(sieve_primes(2)) == [2]

    def test_limit_below_2(self):
        with pytest.raises(DomainError):
            list(sieve_primes(1))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(sieve_primes((1 << 28) ** 2))

    def test_past_the_array_limit_refused_before_any_walk(self, monkeypatch):
        # MAX_ARRAY_LIMIT is the one limit: sieve_primes and the kernel
        # refuse one past it before any prime or statistic walk, and
        # before the kernel builds its base primes
        monkeypatch.setattr(arith, "_cache", {})
        kernel = arith.prime_power_sieve
        limit = arith.MAX_ARRAY_LIMIT + 1
        with kernel_walks(prime=True) as primes, kernel_walks() as stats:
            with pytest.raises(CapacityError):
                list(sieve_primes(limit))
            for kinds in (("prime",), ("omega",), ("maxpp", "rest")):
                with pytest.raises(CapacityError):
                    next(kernel(limit, *kinds))
        assert primes == stats == [] and arith._cache == {}

    def test_reads_the_held_array(self, monkeypatch):
        # after prime_array(L), sieve_primes(L) and every smaller limit
        # walk the kernel no more: they read the held array
        monkeypatch.setattr(arith, "_cache", {})
        held = prime_array(10 ** 5)
        with kernel_walks(prime=True) as walks:
            assert list(sieve_primes(10 ** 5)) == held.tolist()
            assert list(sieve_primes(1000)) == _naive_primes_to(1000)
        assert walks == [] and list(arith._cache) == [10 ** 5]

    def test_against_trial_division(self):
        assert list(sieve_primes(10 ** 4)) == \
            [n for n in range(2, 10 ** 4 + 1) if naive_is_prime(n)]

    def test_count_1e6_against_independent_sieve(self):
        count = sum(1 for _ in sieve_primes(10 ** 6))
        assert count == 78498
        assert count == int(_monolithic_flags(10 ** 6).sum())

    def test_segment_boundaries(self, monkeypatch):
        # tiny segments force many boundary crossings, in a cold build
        whole = list(sieve_primes(10 ** 4))
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(arith, "_cache", {})
        assert list(sieve_primes(10 ** 4)) == whole

    def test_python_ints_at_segment_edges(self, monkeypatch):
        # a segment of 64 odd candidates starting at 1 ends at 127; the
        # limits sit on and one past the first and fifth boundaries,
        # each in a cold build
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
        monkeypatch.setattr(arith, "_cache", {})
        for limit in (127, 128, 129, 130, 639, 640, 641, 642):
            arith._cache.clear()
            got = list(sieve_primes(limit))
            assert got == _naive_primes_to(limit)
            assert all(type(p) is int for p in got)

    def test_base_prime_list(self):
        # trial_factor takes m % p on big ints, which np.int64 would overflow
        for limit in [*range(1, 201), 10 ** 3]:
            arith._cache.clear()
            got = prime_array(limit).tolist()
            assert got == _naive_primes_to(limit)
            assert all(type(p) is int for p in got)
        arith._cache.clear()
        assert prime_array(arith.TRIAL_PRIME_BOUND).tolist() == np.flatnonzero(
            _monolithic_flags(arith.TRIAL_PRIME_BOUND)).tolist()


class TestPrimeSegments:
    """Cold prime_array builds, each reading the kernel's "prime" segments
    into its int32 buffer, under small segment sizes."""

    def test_every_limit_to_700(self, monkeypatch):
        monkeypatch.setattr(arith, "_cache", {})
        for limit in range(701):
            for size in (64, 65, 100, *_WHEEL_SIZES[2:], 1 << 20):
                monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
                arith._cache.clear()
                got = prime_array(limit)
                assert got.dtype == np.int32
                assert got.tolist() == _naive_primes_to(limit), (limit, size)

    def test_first_five_segment_boundaries(self, monkeypatch):
        monkeypatch.setattr(arith, "_cache", {})
        for size in (64, 65, 100):
            monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
            # segment k - 1 ends at the odd number 2 size k - 1
            for k in range(1, 6):
                last = 2 * size * k - 1
                for limit in (last - 1, last, last + 1):
                    arith._cache.clear()
                    assert prime_array(limit).tolist() == \
                        _naive_primes_to(limit), (limit, size)

    def test_wheel_period_offsets(self, monkeypatch):
        monkeypatch.setattr(arith, "_cache", {})
        for size in _WHEEL_SIZES:
            monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
            for limit in _WHEEL_LIMITS:
                arith._cache.clear()
                assert prime_array(limit).tolist() == \
                    _naive_primes_to(limit), (limit, size)

    def test_domain(self, monkeypatch):
        # past MAX_ARRAY_LIMIT, the package's one capacity limit, and
        # past the int32 and uint32 ranges; nothing is built or dropped
        monkeypatch.setattr(arith, "_cache", {})
        prime_array(100)
        for limit in (arith.MAX_ARRAY_LIMIT + 1, 1 << 31, 1 << 32,
                      (1 << 28) ** 2):
            with pytest.raises(CapacityError):
                prime_array(limit)
            with pytest.raises(CapacityError):
                list(sieve_primes(limit))
        assert list(arith._cache) == [100]
        with pytest.raises(DomainError):
            prime_array(-1)


class TestPrimeCache:
    def test_slices_of_a_larger_array(self):
        arith._cache.clear()
        big = prime_array(1099)
        before = set(arith._cache)
        for m in range(2, 1100):
            sub = prime_array(m)
            assert sub.tolist() == _naive_primes_to(m), m
            assert np.shares_memory(sub, big)
        assert set(arith._cache) == before

    def test_slice_equals_fresh_build(self):
        arith._cache.clear()
        prime_array(10 ** 6)
        before = set(arith._cache)
        limits = (2, 3, 4, 999983, 999984, 10 ** 5 + 3, 10 ** 5 + 2)
        sliced = {m: prime_array(m) for m in limits}
        assert set(arith._cache) == before
        for m in limits:
            arith._cache.clear()
            assert np.array_equal(sliced[m], prime_array(m)), m

    def test_larger_build_replaces_smaller(self):
        arith._cache.clear()
        prime_array(1000)
        prime_array(3000)
        assert list(arith._cache) == [3000]
        # its own limit is served as the kept array, with no search
        assert prime_array(3000) is arith._cache[3000]

    def test_larger_build_drops_the_held_table_first(self, monkeypatch):
        # the held primes to N are dropped before the build to 4N starts,
        # so the peak of that build stays below its int32 buffer plus
        # half the held array; small segments keep the sieve's scratch
        # out of the count
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 14)
        monkeypatch.setattr(arith, "_cache", {})
        n = 2 * 10 ** 6
        tracemalloc.start()
        try:
            held = prime_array(n).nbytes
            tracemalloc.reset_peak()
            prime_array(4 * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(arith._cache) == [4 * n]
        assert peak < 4 * arith._prime_bound(4 * n) + held // 2, peak

    def test_nested_builds_leave_one_entry(self):
        # the build to 10^6 asks for its base primes to 1000, whose build
        # asks for those to 31, and so on down to 2
        arith._cache.clear()
        arr = prime_array(10 ** 6)
        assert list(arith._cache) == [10 ** 6]
        assert len(arr) == 78498

    def test_negative_limit_refused_when_cached(self):
        prime_array(100)
        with pytest.raises(DomainError):
            prime_array(-5)

    def test_over_cap_refused_before_building(self):
        before = list(arith._cache)
        with kernel_walks(prime=True) as walks:
            with pytest.raises(CapacityError):
                prime_array(arith.MAX_ARRAY_LIMIT + 1)
        assert walks == [] and list(arith._cache) == before

    def test_read_only(self):
        arith._cache.clear()
        for arr in (prime_array(1000), prime_array(500)):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_buffer_bound_covers_pi(self):
        # every limit to 10^4, and limits on and one off the first five
        # edges of the default segments (2 SEGMENT_SIZE odd numbers each)
        primes = prime_array(10 * arith.SEGMENT_SIZE + 2)
        edges = [2 * arith.SEGMENT_SIZE * k + e
                 for k in range(1, 6) for e in (-1, 0, 1)]
        for limit in [*range(2, 10 ** 4 + 1), *edges]:
            # a needle of the array's dtype: a Python int copies the array
            pi = int(np.searchsorted(primes, primes.dtype.type(limit),
                                     "right"))
            assert arith._prime_bound(limit) >= pi, limit

    def test_buffer_overflow_raises(self, monkeypatch):
        # a bound below pi(limit) is a fault to report, never a truncation
        monkeypatch.setattr(arith, "_cache", {})
        bound = arith._prime_bound
        # pi(1000) = 168; the base primes to 31 keep the true bound
        monkeypatch.setattr(arith, "_prime_bound",
                            lambda n: 167 if n == 1000 else bound(n))
        with pytest.raises(RuntimeError, match="segments to 1000 overflow"):
            prime_array(1000)

    def test_int32_holds_every_cached_prime(self):
        # prime_array builds no array past MAX_ARRAY_LIMIT, so every
        # prime, and every p - h a report reads, fits int32
        assert arith.MAX_ARRAY_LIMIT <= np.iinfo(np.int32).max
        for limit in (1, 100, 10 ** 6):
            assert prime_array(limit).dtype == np.int32

    def test_smaller_limit_sliced_without_a_copy(self, monkeypatch):
        # a held 10^7 array serves 10^6 as a slice; its search takes the
        # limit in the array's dtype, where a Python int or an int64
        # needle copies all 664,579 entries to int64 (5.3 MB)
        monkeypatch.setattr(arith, "_cache", {})
        held = prime_array(10 ** 7)
        tracemalloc.start()
        try:
            arr = prime_array(10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(arr) == 78498 and np.shares_memory(arr, held)
        assert peak < 4096, peak

    def test_cold_build_peak_memory(self, monkeypatch):
        # the segments are read into one int32 buffer of
        # _prime_bound(limit) entries, about 1.18 times the final array
        # at 10^8, beside one segment's scratch: its bool flags, the
        # int64 indices of its primes and the kernel's strike lists,
        # 3.52 SEGMENT_SIZE bytes measured.  An int64 buffer, or a list of
        # segments joined by np.concatenate, peaks near twice it.  A
        # fresh cache makes the build cold and is discarded afterwards
        monkeypatch.setattr(arith, "_cache", {})
        tracemalloc.start()
        try:
            arr = prime_array(10 ** 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(arr) == 5761455 and arr.dtype == np.int32
        bound = 4 * arith._prime_bound(10 ** 8) + 4 * arith.SEGMENT_SIZE
        assert peak < bound, (peak, bound)


class TestIsPrime:
    def test_two(self):
        assert is_prime(2)

    def test_one(self):
        assert not is_prime(1)

    def test_reads_numpy_integers(self):
        # primes straight from the array, above the trial divisors to 47
        for p in prime_array(200)[15:].tolist():
            assert is_prime(np.int64(p)) and is_prime(np.uint32(p))
            assert not is_prime(np.int64(p * 53))

    @pytest.mark.parametrize("n", [53.0, Fraction(53), "53", True])
    def test_refuses_non_integers(self, n):
        with pytest.raises(DomainError):
            is_prime(n)

    def test_mersenne_61(self):
        # Lucas-Lehmer is the independent certificate for 2^61 - 1
        m = 2 ** 61 - 1
        s = 4
        for _ in range(61 - 2):
            s = (s * s - 2) % m
        assert s == 0
        assert is_prime(m)

    def test_agrees_with_sieve_to_1e6(self):
        flags = _monolithic_flags(10 ** 6)
        mism = [n for n in range(10 ** 6 + 1) if is_prime(n) != bool(flags[n])]
        assert mism == []

    def test_carmichael_and_square(self):
        assert not is_prime(561)
        assert not is_prime(3215031751)
        assert not is_prime(9 ** 20)

    def test_psi12_strong_pseudoprime(self):
        # psi_12 fools bases 2..37 and falls to base 41
        psi12 = 318665857834031151167461
        assert 399165290221 * 798330580441 == psi12
        assert not is_prime(psi12)
        cert = Decomposition(1, Fraction(1, psi12 - 1), (psi12,))
        assert not verify(cert).valid

    def test_psi13_strong_pseudoprime(self):
        # psi_13 fools bases 2..41; the strong Lucas test rejects it
        psi13 = 3317044064679887385961981
        assert psi13 == _PSI_13
        assert 1287836182261 * 2575672364521 == psi13
        assert not is_prime(psi13)
        cert = Decomposition(1, Fraction(1, psi13 - 1), (psi13,))
        assert not verify(cert).valid

    def test_bpsw_against_sympy_above_psi13(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20260413)
        cases = [_PSI_13, _PSI_13 + 2, 2 ** 100 - 15, 2 ** 89 - 1]
        cases += [rng.randrange(_PSI_13, 2 ** 100) for _ in range(400)]
        cases += [int(sympy.nextprime(rng.randrange(_PSI_13, 2 ** 100)))
                  for _ in range(60)]
        for _ in range(60):
            a = int(sympy.nextprime(rng.randrange(2 ** 40, 2 ** 50)))
            b = int(sympy.nextprime(rng.randrange(2 ** 40, 2 ** 50)))
            cases += [a * b, a * a]
        # Carmichael numbers (6k+1)(12k+1)(18k+1) above psi_13
        k = 14 * 10 ** 6
        found = 0
        while found < 3:
            k += 1
            f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(sympy.isprime(x) for x in f):
                cases.append(f[0] * f[1] * f[2])
                found += 1
        assert all(_PSI_13 <= n < 2 ** 100 for n in cases)
        mism = [n for n in cases if is_prime(n) != sympy.isprime(n)]
        assert mism == []
        assert any(is_prime(n) for n in cases)

    def test_strong_lucas_against_sympy(self):
        # the Lucas step only decides inputs Miller-Rabin passes, so it is
        # also checked alone, strong Lucas pseudoprimes included
        sympy = pytest.importorskip("sympy")
        from sympy.ntheory.primetest import is_strong_lucas_prp
        rng = random.Random(7)
        cases = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
        cases += [rng.randrange(53, 10 ** 12) | 1 for _ in range(3000)]
        cases = [n for n in cases if all(n % p for p in range(3, 50, 2))]
        assert all(_strong_lucas_prp(n) for n in cases[:8])
        mism = [n for n in cases
                if _strong_lucas_prp(n) != is_strong_lucas_prp(n)]
        assert mism == []

    # A014233: psi_k, the least strong pseudoprime to the first k prime
    # bases, for each k that ends a witness tier
    PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
           5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
           9: 3825123056546413051, 12: 318665857834031151167461,
           13: 3317044064679887385961981}
    BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    @staticmethod
    def _strong_probable_prime(n, bases):
        """Miller-Rabin to the given bases, written apart from is_prime."""
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        for a in bases:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = pow(x, 2, n)
                if x == n - 1:
                    break
            else:
                return False
        return True

    def test_tier_table(self):
        # row k holds the first k prime bases and ends at psi_k, which
        # fools all k of them and which is_prime still rejects
        tiers = arith._MR_WITNESSES
        assert [(bound, len(ws)) for bound, ws in tiers] == \
            [(psi, k) for k, psi in self.PSI.items()]
        for bound, ws in tiers:
            assert ws == self.BASES[:len(ws)]
            assert self._strong_probable_prime(bound, ws), bound
            assert not is_prime(bound), bound

    def test_every_tier_needs_its_last_base(self):
        # each tier holds a composite without a prime factor to 47 that
        # fools every base of the tier but its last: the previous bound,
        # or for the (2, 3) tier, where 2047 = 23 * 89 falls to trial
        # division, the least such base-2 pseudoprime (8321 = 53 * 157)
        sympy = pytest.importorskip("sympy")
        tiers = list(self.PSI.items())
        for (_, lo), (k, bound) in zip(tiers, tiers[1:]):
            n = lo
            while not (all(n % p for p in range(2, 48))
                       and self._strong_probable_prime(n, self.BASES[:k - 1])
                       and not sympy.isprime(n)):
                n += 2
            assert n < bound, bound
            assert not is_prime(n), (bound, n)

    def test_tiers_against_sympy(self):
        # the 4,001 integers around each bound, then seeded odd n and
        # primes drawn in every tier
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261019)
        cases = []
        lo = 2
        for bound in self.PSI.values():
            cases += range(bound - 2000, bound + 2001)
            cases += [rng.randrange(lo, bound) | 1 for _ in range(300)]
            cases += [int(sympy.nextprime(rng.randrange(lo, bound - 2000)))
                      for _ in range(30)]
            lo = bound
        mism = [n for n in cases if is_prime(n) != sympy.isprime(n)]
        assert mism == []
        assert sum(map(is_prime, cases)) > 300


class TestFactorize:
    def test_12(self):
        assert trial_factor(12) == ((2, 2), (3, 1))

    def test_prime_input(self):
        assert trial_factor(97) == ((97, 1),)

    def test_720720_multiplies_back(self):
        fz = trial_factor(720720)
        assert fz == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
        assert factor_product(fz) == 720720

    def test_one(self):
        assert trial_factor(1) == ()

    def test_zero(self):
        with pytest.raises(DomainError):
            trial_factor(0)

    def test_round_trip_full_range(self):
        for n in range(2, 10 ** 6 + 1):
            assert factor_product(trial_factor(n)) == n

    def test_segmented_table_agrees(self):
        for n in (2, 97, 720720, 999983, (1 << 24) + 7, (1 << 24) + 2 ** 20):
            assert trial_factor(n) == tuple(naive_factor(n))

    def test_divisors(self):
        # the search's pool builds the divisors of L from trial_factor's
        # pairs; shifts h = 1..6 make d + h prime for every divisor d of 12
        pool = egypt._divisor_pool.__wrapped__
        for L, want in ((12, {1, 2, 3, 4, 6, 12}), (1, {1})):
            got = {L // w for h in range(1, 7) for w, _ in pool(h, L, 100)}
            assert got == want, L


class TestTrialFactor:
    def test_random_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        big = sympy.nextprime(10 ** 6)
        cases = [rng.randrange(1, 10 ** 12) for _ in range(2000)]
        cases += [rng.randrange(1, 10 ** 6) for _ in range(1000)]
        # prime cofactors above the list bound: left when p^2 passes the
        # cofactor, and after the last listed prime (999983^2 < 10^12 + 39)
        cases += [big, 720720 * big, 10 ** 12 + 39, 2 * (10 ** 12 + 39),
                  999983 ** 2, 999979 * 999983]
        for n in cases:
            assert trial_factor(n) == \
                tuple(sorted(sympy.factorint(n).items())), n

    def test_composite_cofactor_raises(self):
        with pytest.raises(CapacityError):
            trial_factor((10 ** 6 + 3) * (10 ** 6 + 33))

    def test_prime_squares_keep_the_root(self):
        # p^2 needs p itself, the largest prime up to isqrt(p^2): a prime
        # list cut below isqrt(n) leaves 49 an unfactored composite, and
        # one that stops short of 999983 leaves 999983^2 one
        sympy = pytest.importorskip("sympy")
        for p in [*sympy.primerange(2, 1001), 999983]:
            assert trial_factor(p * p) == \
                tuple(sorted(sympy.factorint(p * p).items())) == ((p, 2),)

    def test_divides_by_the_cached_prime_array(self, monkeypatch):
        # trial_factor keeps no prime list of its own: it reads the one
        # prime_array holds, here a stand-in that stops at 5
        fake = np.array([2, 3, 5], dtype=np.int64)
        monkeypatch.setattr(arith, "_cache", {arith.TRIAL_PRIME_BOUND: fake})
        assert trial_factor(360) == ((2, 3), (3, 2), (5, 1))
        assert trial_factor(2 * 53) == ((2, 1), (53, 1))
        assert trial_factor(3) == ((3, 1),)
        with pytest.raises(CapacityError, match="cofactor 77 "):
            trial_factor(7 * 11)

    def test_one_and_domain(self):
        assert trial_factor(1) == ()
        for n in (0, -6):
            with pytest.raises(DomainError):
                trial_factor(n)


def _rest(n):
    """The prime of n's odd part u above sqrt(u), or 1 (n >= 1)."""
    u = n >> (n & -n).bit_length() - 1
    return max((p for p, _ in naive_factor(u) if p * p > u), default=1)


# each kind of the kernel and the gather, as a function of n >= 1
_ORACLES = {
    "omega": lambda n: len(naive_factor(n)),
    "maxpp": lambda n: max_prime_power(naive_factor(n)),
    "rest": _rest,
}


def _oracle_arrays(limit):
    """Each kind for 0..limit, from naive_factor (0 reads 0), by kind."""
    return {kind: np.array([of(n) if n else 0 for n in range(limit + 1)])
            for kind, of in _ORACLES.items()}


class TestPrimePowerSieve:
    def test_against_factorize_0_200(self):
        # the kernel at the odd n, the gather at every n
        refs = _oracle_arrays(200)
        for limit in range(201):
            for kind, ref in refs.items():
                assert _walk(limit, kind).tolist() == \
                    ref[1:limit + 1:2].tolist()
                assert _at(_upto(limit), kind).tolist() == \
                    ref[1:limit + 1].tolist()

    def test_segment_boundaries(self, monkeypatch):
        refs = _oracle_arrays(max(_WHEEL_LIMITS))
        for size in _WHEEL_SIZES:
            monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
            limits = set(_WHEEL_LIMITS)
            for k in range(1, 6):
                limits |= {k * size - 1, k * size, k * size + 1}
            # a square or cube just before, on or after a segment start,
            # and limits where sqrt(limit) gains the prime p
            for p in _naive_primes_to(53):
                for q in (p * p, p ** 3):
                    if q <= 2900 and q % size in (size - 1, 0, 1):
                        limits |= {q - 1, q, q + 1}
                limits |= {p * p - 1, p * p, p * p + 1}
            for limit in sorted(x for x in limits | {3000}
                                if x <= max(_WHEEL_LIMITS)):
                # one walk yields every kind asked for, in that order;
                # beside the statistics the prime flags are cleared too,
                # at the strikes of q = p (the entry for 1 stands for 2)
                segs = list(prime_power_sieve(limit, *refs, "prime"))
                assert [len(g[0]) for g in segs[:-1]] == \
                    [size] * (len(segs) - 1)
                want = _monolithic_flags(limit)[1::2]
                want[0] = True
                assert np.concatenate([g[-1] for g in segs]).tolist() == \
                    want.tolist(), limit
                for j, (kind, ref) in enumerate(refs.items()):
                    got = np.concatenate([g[j] for g in segs])
                    assert got.tolist() == ref[1:limit + 1:2].tolist(), \
                        (limit, kind)
                    # the gather at every n against the oracle, which
                    # reads these segments
                    if limit <= 3000:
                        assert _at(_upto(limit), kind).tolist() \
                            == ref[1:limit + 1].tolist(), (limit, kind)

    def test_wheel_primes_above_the_root(self, monkeypatch):
        # below 13^2 the wheel's prime p | n may exceed sqrt(n): it is
        # then rest(n), and omega counts it once
        pins = {"rest": {3: 3, 5: 5, 15: 5, 143: 13, 77: 11, 9: 1, 45: 1},
                "omega": {15: 2, 3: 1, 143: 2, 105: 3, 1: 0},
                "maxpp": {15: 5, 143: 13, 9: 9, 1: 1}}
        for size in _WHEEL_SIZES:
            monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
            for limit in (13, 15, 168, 170):
                for kind, pin in pins.items():
                    got = _walk(limit, kind)
                    for n, want in pin.items():
                        if n <= limit:
                            assert got[n // 2] == want, (kind, n, limit)

    def test_inverse_strike_near_2_32(self):
        # each strike of p multiplies rest by p^-1 mod 2^32 in uint32;
        # no walk reaches 2^32 here, so the identity is checked at the
        # largest odd multiple n <= 2^32 - 1 of each odd p^k with
        # p <= 65535: n * p^-1 is n / p exactly
        top = (1 << 32) - 1
        ns, invs, ps = [], [], []
        for p in prime_array(65535)[1:].tolist():
            q = p
            while q <= top:
                m = top // q
                ns.append((m - (m % 2 == 0)) * q)
                invs.append(pow(p, -1, 1 << 32))
                ps.append(p)
                q *= p
        rest = np.array(ns, dtype=np.uint32)
        rest *= np.array(invs, dtype=np.uint32)
        assert rest.tolist() == [n // p for n, p in zip(ns, ps)]
        # every p^2 is below 2^32, and 3 divides 2^32 - 1 itself
        assert len(ns) > 2 * 6541 and max(ns) == top

    @pytest.mark.parametrize("kinds, itemsize", [
        ("omega", 1), ("maxpp", 4), ("rest", 0), ("maxpp,rest", 4),
        ("prime", 1)])
    def test_one_scratch_array_per_segment(self, kinds, itemsize,
                                           monkeypatch):
        # a segment holds the int8, bool or uint32 kinds asked for and,
        # unless "prime" is the only one, one uint32 copy of its n,
        # handed out itself as "rest".  The margin covers the kernel's
        # list of prime powers, omega's bool compare and the previous
        # segment while the next is allocated: the peak passed
        # (itemsize + 4) bytes per segment entry by up to 2.7 bytes
        # here ("prime" alone, with no rest, peaked at 1.6 bytes), and
        # by 5.3 to 6.7 with a uint32 smooth product and a second copy
        # of n
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 16)
        monkeypatch.setattr(arith, "_cache", dict(arith._cache))
        limit = 32 * arith.SEGMENT_SIZE + 1
        prime_array(math.isqrt(limit))
        tracemalloc.start()
        try:
            # the segments are dropped as they come
            collections.deque(prime_power_sieve(limit, *kinds.split(",")),
                              maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        margin = 4 * arith.SEGMENT_SIZE
        rest = 0 if kinds == "prime" else 4
        assert peak < (itemsize + rest) * arith.SEGMENT_SIZE + margin, \
            peak / arith.SEGMENT_SIZE

    def test_dtypes(self):
        for kind, dtype in arith._KINDS.items():
            assert {g.dtype for g, in prime_power_sieve(1000, kind)} == \
                {np.dtype(dtype)}
            assert _at(_upto(1001), kind).dtype == dtype
            assert arith._gather(np.arange(5), 0, kind)[0].dtype == dtype

    def test_wrappers_build_no_prime_table(self):
        # no table is cached: a read through the gather, plain or
        # shifted, adds only the base primes to sqrt(limit)
        limit = 54321
        for read in (lambda kind: _at(np.array([limit]), kind),
                     lambda kind: arith._gather(np.array([limit + 1]), 1,
                                                kind)):
            for kind in arith._KINDS:
                arith._cache.clear()
                read(kind)
                (n,) = arith._cache
                assert n <= math.isqrt(limit)

    def test_domain(self):
        with pytest.raises(DomainError):
            next(prime_power_sieve(-1, "omega"))
        with pytest.raises(DomainError):
            next(prime_power_sieve(10, "spf"))
        with pytest.raises(DomainError):
            next(prime_power_sieve(10))
        for limit in (arith.MAX_ARRAY_LIMIT + 1, 2 ** 32):
            with pytest.raises(CapacityError):
                next(prime_power_sieve(limit, "omega"))

    @pytest.mark.parametrize("limit", [1000.5, 1000.0, True, "1000"])
    def test_limit_read_exactly(self, limit):
        # a float is no longer left to numpy, and True no longer reads 1
        with pytest.raises(DomainError, match="limit .* not an integer"):
            next(prime_power_sieve(limit, "omega"))

    def test_numpy_limit_reads_as_int(self):
        for kind in arith._KINDS:
            assert _walk(np.int32(1000), kind).tolist() == \
                _walk(1000, kind).tolist()


class TestPrimePowerAt:
    """The gather at sorted n: each n = 2^v u read off its odd part u,
    against naive_factor."""

    def _check(self, n):
        n = sorted(n)
        for kind, of in _ORACLES.items():
            got = _at(np.array(n, dtype=np.int64), kind).tolist()
            assert got == [of(v) for v in n], kind

    def test_default_segment_edges(self, monkeypatch):
        # n on and around the odd segments' bounds 2 SEGMENT_SIZE k + 1,
        # odd and even, on a fresh cache discarded afterwards
        monkeypatch.setattr(arith, "_cache", {})
        step = 2 * arith.SEGMENT_SIZE
        self._check([step * k + d for k in range(1, 6) for d in range(-3, 4)])

    def test_powers_of_two_to_2_28(self):
        # every 2^v to 2^28 and 2^v u for odd u <= 99 up to there: each
        # read walks the kernel only to its largest odd part, 1 and then
        # 99, where a table indexed by odd n to 2^28 would take 512 MB
        with kernel_walks() as walks:
            self._check([1 << v for v in range(29)])
            self._check([u << v for v in range(29) for u in range(3, 100, 2)
                         if u << v <= 1 << 28])
        assert [limit for limit, _ in walks] == [1] * 3 + [99] * 3

    def test_empty_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(arith, "_cache", {})
        with kernel_walks() as walks:
            for kind, dtype in arith._KINDS.items():
                for empty in (np.zeros(0, np.int64), np.zeros(0, np.uint32)):
                    got = _at(empty, kind)
                    assert got.dtype == dtype and len(got) == 0
                (got,) = arith._gather(np.zeros(0, np.int32), 1, kind)
                assert got.dtype == dtype and len(got) == 0
        assert walks == [] and arith._cache == {}

    def test_past_array_limit_refused_before_building(self, monkeypatch):
        # an odd part past MAX_ARRAY_LIMIT, the kernel's one capacity
        # limit, is refused by the kernel before it builds its base
        # primes; 2^32 has odd part 1, within the walk, but its 2^v
        # passes the uint32 outputs, and the gather refuses it before it
        # starts the kernel
        monkeypatch.setattr(arith, "_cache", {})
        odd = arith.MAX_ARRAY_LIMIT + 1
        with kernel_walks() as walks:
            for kind in arith._KINDS:
                for n in (odd, 1 << 32):
                    with pytest.raises(CapacityError):
                        _at(np.array([3, n]), kind)
        assert walks == [(odd, (kind,)) for kind in arith._KINDS]
        assert arith._cache == {}

    def test_cold_read_memory(self, monkeypatch):
        # the largest prime power at every p - 1, p <= 2e6, with nothing
        # held but the primes: the peak is the uint32 output and the int8
        # v (5 bytes an n), the index arrays of one (segment, v) pass and
        # one segment's uint32 statistics and rest, 8 bytes an entry of a
        # segment, whose odd parts stay below 1e6.  Beyond the segment,
        # 6.3 and 5.9 bytes an n measured (4.9 MB in all with the default
        # segments), where the largest-prime-power table this replaced
        # peaked at 12.1 MB
        primes = prime_array(2 * 10 ** 6)[1:]
        for size in (1 << 14, 1 << 20):
            monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
            tracemalloc.start()
            try:
                (got,) = arith._gather(primes, 1, "maxpp")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got[:4].tolist() == [2, 4, 3, 5]
            bound = 8 * len(primes) + 8 * min(size, 10 ** 6 // 2)
            assert peak < bound, (size, peak, bound)

    def test_each_read_walks_to_its_own_odd_parts(self, monkeypatch):
        # no table is held between reads: each walks the kernel once, up
        # to its own largest odd part, and the reads at n <= 1234 match
        # those at n <= 5000; only primes are cached
        monkeypatch.setattr(arith, "_cache", {})
        for kind in arith._KINDS:
            with kernel_walks() as walks:
                big = _at(_upto(5000), kind)
                small = _at(_upto(1234), kind)
            assert walks == [(4999, (kind,)), (1233, (kind,))]
            assert np.array_equal(small, big[:1234])
        # the base primes of the larger walk, the smaller's a slice
        assert list(arith._cache) == [math.isqrt(4999)]


class TestOmegaAt:
    """The kernel kinds, omega first, gathered at n = p - h for a sorted
    array of p in one walk, against trial_factor."""

    LIMIT = 3000

    @staticmethod
    def _oracle(n):
        """Each kind at each n (n = 0 reads 0), by kind."""
        out = {kind: [] for kind in arith._KINDS}
        for v in n.tolist():
            f = trial_factor(v) if v else ()
            u = v >> (v & -v).bit_length() - 1 if v else 0
            least = int(v > 0)
            out["omega"].append(len(f))
            out["maxpp"].append(max((p ** e for p, e in f), default=least))
            out["rest"].append(max((p for p, _ in f if p > 2 and p * p > u),
                                   default=least))
        return out

    def _cases(self, size):
        """Sorted int64 arrays of n, for segments of size odd numbers."""
        primes = prime_array(self.LIMIT)
        return [n.astype(np.int64) for n in (
            np.arange(self.LIMIT + 1),                # every n <= limit
            primes[primes >= 3] - 1,                  # sparse n = p - h
            primes[primes >= 7] - 6,
            np.array([3, 5, 6 * size + 7]),           # skips segments
            np.array([4 * size + 9]),                 # a single n
            np.array([0, 1]),
            np.array([2, size - 1]),                  # last n on an edge
            np.array([size, 3 * size - 1]),
            np.array([3 * size]),
            primes[primes >= 3] - 2,                  # n odd, v = 0 only
            primes + 1,                               # h = -1: n = 3 alone odd
            2 ** np.arange(12),                       # n = 2^k, v up to 11
            # 2^k u with u on an edge of the odd segments (2 size numbers)
            np.unique([u << k for j in range(1, 4)
                       for u in (2 * size * j - 1, 2 * size * j + 1)
                       for k in range(12) if u << k <= self.LIMIT]),
            np.array([0, 0, 2, 4]),
        )]

    def _check(self, size, h):
        for n in self._cases(size):
            got = arith._gather(n + h, h, *arith._KINDS)
            want = self._oracle(n)
            for kind, out in zip(arith._KINDS, got):
                assert out.tolist() == want[kind], (h, kind, n)

    @pytest.mark.parametrize("size", [64, 65])
    def test_against_trial_factor(self, monkeypatch, size):
        # with segments of 64 or 65 odd numbers the v pass reads chunks
        # of 4 entries
        monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
        self._check(size, 0)

    @pytest.mark.parametrize("h", [1, -1, 2, -2, 6])
    @pytest.mark.parametrize("size", [64, 65])
    def test_shifted_against_trial_factor(self, monkeypatch, size, h):
        # the same n, read at p = n + h; at h = 1 and -1 the cases
        # p - 1 and p + 1 hand over the primes themselves
        monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
        self._check(size, h)

    def test_empty(self):
        for h in (0, 1, -1):
            assert [out.tolist() for out in arith._gather(
                np.zeros(0, dtype=np.int64), h, *arith._KINDS)] == [[]] * 3


class TestOmegaAdditivity:
    @given(st.integers(2, 10 ** 3), st.integers(2, 10 ** 3))
    @settings(max_examples=150, deadline=None)
    def test_additive_on_coprime(self, m, n):
        assume(math.gcd(m, n) == 1)
        fm, fn, fmn = (trial_factor(k) for k in (m, n, m * n))
        assert len(fmn) == len(fm) + len(fn)


class TestLiApprox:
    @staticmethod
    def _li_quadrature(n):
        """Composite Simpson on int_2^n dt/log t in u = log t, plus li(2)."""
        li2 = 1.0451637801174927848445888891946131365226155781512
        a, b = math.log(2), math.log(n)
        steps = 20000
        h = (b - a) / steps
        total = 0.0
        for i in range(steps):
            u0 = a + i * h
            u1 = u0 + h
            um = (u0 + u1) / 2
            f0 = math.exp(u0) / u0
            fm = math.exp(um) / um
            f1 = math.exp(u1) / u1
            total += (f0 + 4 * fm + f1) * h / 6
        return total + li2

    def test_1e6_against_quadrature(self):
        val = li_approx(10 ** 6)
        ref = self._li_quadrature(10 ** 6)
        assert abs(val - ref) / ref < 1e-9
        assert val == pytest.approx(78627.549159, abs=1e-3)

    def test_1e8_against_quadrature(self):
        val = li_approx(10 ** 8)
        ref = self._li_quadrature(10 ** 8)
        assert abs(val - ref) / ref < 1e-9
        assert val == pytest.approx(5762209.375448, abs=1e-2)

    def test_monotone(self):
        assert li_approx(2 * 10 ** 4) > li_approx(10 ** 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            li_approx(2)


class TestExactRationals:
    @given(st.integers(1, 1 << 256), st.integers(1, 1 << 256),
           st.integers(1, 1 << 256), st.integers(1, 1 << 256))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_roundtrip(self, a, b, c, d):
        x = Fraction(a, b)
        y = Fraction(c, d)
        assert (x + y) - y == x

    def test_reciprocal_sum_matches_naive(self):
        vals = [12, 10, 10, 7, 360360]
        assert _gathered_sum(vals) == sum(Fraction(1, v) for v in vals)
        assert _gathered_sum([]) == 0

    def test_balanced_product(self):
        assert balanced_product([]) == 1
        assert balanced_product([7]) == 7
        assert balanced_product(range(1, 11)) == math.factorial(10)
        assert balanced_product(range(1, 200)) == math.factorial(199)
        assert balanced_product([-3] * 65) == (-3) ** 65

    def test_balanced_product_reads_exact_ints(self):
        # numpy integers read as the ints they hold; a float is refused,
        # never truncated (2.5 * 3 once gave 6)
        got = balanced_product(np.array([2, 3, 5], dtype=np.int64))
        assert got == 30 and type(got) is int
        assert balanced_product([np.int32(7), 11]) == 77
        for bad in ([2.5, 3], [3, 2.0], [Fraction(5, 2), 2]):
            with pytest.raises(TypeError):
                balanced_product(bad)


def _sequential_sum(values):
    total = Fraction(0)
    for v in values:
        total += Fraction(1, v)
    return total


class TestReciprocalSum:
    """arith._exact_sum, with the rest gathered at the sorted values,
    against the sequential Fraction sum: the same numerator and
    denominator, and the pair in lowest terms."""

    def _check(self, values):
        got = _gathered_sum(values)
        want = _sequential_sum(values)
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
        assert math.gcd(got.numerator, got.denominator) == 1

    @given(st.lists(st.integers(1, 10 ** 5), min_size=1, max_size=80),
           st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_multisets_with_repeats(self, values, repeats):
        self._check(values + values[:repeats])

    @pytest.mark.parametrize("values", [
        [1],
        [1, 1, 1],
        [2 ** k for k in range(31)],
        # 997^2 just below the maximum: 997 <= isqrt(max) is split off
        # twice; 1009 (just above) stays the prime part of 1009 * 2
        [997 ** 2, 997 ** 2 + 1, 997 * 3, 1009 * 2, 2],
        [991 ** 2, 991 ** 2 + 2, 991, 997],
        # several values r * m sharing the big prime r = 10007
        [10007, 2 * 10007, 3 * 10007, 5 * 10007, 6 * 10007, 7, 12],
        [10007 * m for m in range(1, 60)] + [10009 * m for m in (2, 9)],
        # smooth only
        [6, 12, 18, 30, 60, 90, 360360, 720720, 2 ** 20],
        # the big prime cancels: 1/5 + 1/20 = 1/4, 1/3 + 1/6 = 1/2
        [5, 20],
        [3, 6],
        [7, 7, 7, 7, 7, 7, 7],
        [11, 22, 33, 44, 55, 66, 77, 88, 99, 110, 121],
    ])
    def test_explicit_cases(self, values):
        self._check(values)


class TestFold:
    """The leaves of arith._exact_sum sum in runs of arith._FOLD into one
    node each, and only the nodes enter the merge tree."""

    @staticmethod
    def _leaves(values):
        # r = the gathered rest above isqrt(max), else 1, as _leaves reads it
        arr = np.sort(np.array(values, dtype=np.int64))
        rest = _at(arr, "rest")
        rough = np.where(rest > math.isqrt(int(arr[-1])), rest, 1)
        return int((rough == 1).sum()) + len(set(rough[rough > 1].tolist()))

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        merge = arith._sum_merge

        def spy(x, y):
            calls.append(1)
            return merge(x, y)

        monkeypatch.setattr(arith, "_sum_merge", spy)
        return calls

    @pytest.mark.parametrize("count", [31, 32, 33, 64, 65])
    def test_leaf_counts_around_the_fold_width(self, count, merges):
        # count distinct primes above 1000 > B = isqrt(max) <= 67, one
        # value each or shared by two or three: count leaves, none smooth
        qs = prime_array(1500)[-count:].tolist()
        values = qs + [2 * q for q in qs[::3]] + [3 * q for q in qs[::5]]
        assert self._leaves(values) == count
        _assert_exact(values)
        assert len(merges) == -(-count // arith._FOLD) - 1

    def test_cancellation_inside_a_folded_run(self):
        # 1/101 + 1/(101 * 100) = 1/100: r = 101 > B = isqrt(10100) = 100
        # leaves its group, which folds with 40 other rough primes
        others = prime_array(10100)[-40:].tolist()
        values = [101, 101 * 100] + others
        assert self._leaves(values) == 41
        _assert_exact(values)
        _assert_exact([101 * 100, 7, 101, 49] + others + others[:9])

    @given(st.lists(st.integers(1, 4000), min_size=300, max_size=600))
    @settings(max_examples=25, deadline=None)
    def test_dense_multisets_gather_their_rough_parts(self, values):
        # one walk of the kernel, for "rest", to the largest odd part
        values = values + [4000]
        with kernel_walks() as walks:
            _assert_exact(values)
        odd = max(v >> (v & -v).bit_length() - 1 for v in values)
        assert walks == [(odd, ("rest",))]

    def test_merge_tree_runs_over_fold_nodes(self, merges):
        values = list(range(1, 6001)) + list(range(2000, 4000))
        leaves = self._leaves(values)
        assert leaves > 100
        assert _gathered_sum(values) == _sequential_sum(values)
        assert len(merges) <= -(-leaves // 32) - 1

    def test_peak_memory_bounded_by_arrays_and_result(self, monkeypatch):
        # the gather of the rest and the sum: the leaves are folded one
        # _chunks slice at a time, so the peak is the sorted int64 arrays
        # (4 times the input's bytes allowed) and the merge tree's FFT
        # products (16 times the result's bytes allowed), beside one
        # slice's lists of 256 leaves; 3.9 times the input's bytes
        # measured in all.  Leaf lists as long as the values
        # (about 80 bytes a value) peaked at 12.8 times.  A warm call
        # first builds the primes the gather reads
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 12)
        monkeypatch.setattr(arith, "_cache", {})
        vals = prime_array(2 * 10 ** 6)[1:].astype(np.int64) - 1

        def total():
            return arith._exact_sum(vals, _at(vals, "rest"))

        want = total()
        tracemalloc.start()
        try:
            got = total()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        result = (got.numerator.bit_length()
                  + got.denominator.bit_length()) // 8
        bound = 4 * vals.nbytes + 16 * result + 256 * 3 * 100
        assert peak < bound, (peak, bound)


def _operand(kind, bits, seed):
    """A nonnegative int of at most the given bits: random, all ones
    (every limb 0xFF, the largest coefficients) or a power of two."""
    if kind == "ones":
        return (1 << bits) - 1
    if kind == "power":
        return 1 << bits >> 1
    return random.Random(seed).getrandbits(bits)


_T = arith._FFT_MIN_BITS
_OPERANDS = st.one_of(
    st.sampled_from([0, 1]),
    st.builds(_operand, st.sampled_from(["random", "ones", "power"]),
              st.one_of(st.sampled_from([_T - 1, _T, _T + 1]),
                        st.integers(_T // 2, 3 * _T)),
              st.integers(0, 2 ** 32)))


def _ones_product(a, b):
    """(2^a - 1) (2^b - 1) without a multiplication."""
    return (1 << a + b) - (1 << a) - (1 << b) + 1


class TestProducts:
    """arith._products against *: through the FFT when every operand has
    _FFT_MIN_BITS bits and the transform fits _FFT_MAX_LEN, else by *."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def spy(a, n):
            lengths.append(n)
            return rfft(a, n)

        monkeypatch.setattr(np.fft, "rfft", spy)
        return lengths

    @given(_OPERANDS, _OPERANDS, _OPERANDS, _OPERANDS)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_int_products(self, a, b, c, d):
        assert arith._products([[(a, b)]]) == [a * b]
        assert arith._products([[(a, d), (c, b)], [(b, d)]]) == \
            [a * d + c * b, b * d]

    def test_threshold_selects_the_path(self, transforms):
        x, y = _operand("random", 3 * _T, 1), _operand("ones", _T, 0)
        assert arith._products([[(x, y)]]) == [x * y]
        assert len(transforms) == 2
        transforms.clear()
        assert arith._products([[(x, y >> 1)]]) == [x * (y >> 1)]
        assert arith._products([[(-x, y)]]) == [-x * y]
        assert transforms == []

    def test_each_operand_transformed_once(self, transforms):
        a1, b1, a2, b2 = (_operand("random", _T + k, k) | 1 << _T
                          for k in range(4))
        assert arith._products([[(a1, b2), (a2, b1)], [(b1, b2)]]) == \
            [a1 * b2 + a2 * b1, b1 * b2]
        assert len(transforms) == 4

    def test_all_ones_at_the_longest_length(self, transforms):
        # len x + len y - 1 = _FFT_MAX_LEN limbs, all 0xFF
        n = arith._FFT_MAX_LEN
        half = (1 << 4 * n) - 1
        assert arith._products([[(half, half)]]) == \
            [_ones_product(4 * n, 4 * n)]
        assert arith._products([[(half, half), (half, half)]]) == \
            [2 * _ones_product(4 * n, 4 * n)]
        short = 8 * (_T // 8 + 1)
        long_, low = (1 << 8 * n - short) - 1, (1 << short + 8) - 1
        assert arith._products([[(long_, low)]]) == \
            [_ones_product(8 * n - short, short + 8)]
        assert transforms == [n] * 4

    # (needed limbs, chosen length) one limb below, at and one above each
    # candidate of the next power of two 2^13: 5 * 2^10, 3 * 2^11, 2^13
    @pytest.mark.parametrize("m, n", [
        (5119, 5120), (5120, 5120), (5121, 6144),
        (6143, 6144), (6144, 6144), (6145, 8192),
        (8191, 8192), (8192, 8192), (8193, 10240),
    ])
    def test_length_is_the_shortest_candidate(self, transforms, m, n):
        # len x + len y - 1 = m limbs, both operands over _FFT_MIN_BITS
        rng = random.Random(m)
        lx = (m + 1) // 2
        x, y = (rng.getrandbits(8 * k) | 1 << 8 * k - 1
                for k in (lx, m + 1 - lx))
        assert arith._products([[(x, y)]]) == [x * y]
        assert arith._products([[(x, y), (y, x)], [(x, x)]]) == \
            [2 * x * y, x * x]
        assert transforms == [n] * 4

    @pytest.mark.parametrize("n", [5 << 19, 3 << 20])
    def test_all_ones_at_the_longest_mixed_lengths(self, transforms, n):
        # len x + len y - 1 = n limbs, all 0xFF: the radix-5 and radix-3
        # lengths just below _FFT_MAX_LEN
        a, b = 4 * n, 4 * n + 8
        x, y = (1 << a) - 1, (1 << b) - 1
        assert arith._products([[(x, y)]]) == [_ones_product(a, b)]
        assert arith._products([[(x, y), (y, x)]]) == \
            [2 * _ones_product(a, b)]
        assert transforms == [n] * 4

    def test_past_the_longest_length_multiplies_by_star(self, monkeypatch,
                                                         transforms):
        monkeypatch.setattr(arith, "_FFT_MIN_BITS", 8)
        monkeypatch.setattr(arith, "_FFT_MAX_LEN", 1 << 10)
        x = (1 << 8 * 512) - 1
        assert arith._products([[(x, x)]]) == [_ones_product(4096, 4096)]
        assert transforms == [1 << 10]
        transforms.clear()
        # 513 + 513 - 1 limbs need a transform of 2^11
        y = (1 << 8 * 513) - 1
        assert arith._products([[(y, y)]]) == [_ones_product(4104, 4104)]
        assert transforms == []

    def test_two_product_sum_peak(self):
        # four operands of 60,000 limbs, a sum of two products at length
        # n = 2^17: the four spectra of (n/2 + 1) complex values are
        # 2 n * 16 bytes, and the products, their sum and the rounding
        # run in place in them and in the inverse transform's output
        # (2.3 n * 16 measured; a new array per step read 3.5)
        rng = random.Random(17)
        a, b, c, d = (rng.getrandbits(8 * 60000) | 1 << 8 * 60000 - 1
                      for _ in range(4))
        n = 1 << 17
        assert arith._fft_length(2 * 60000 - 1) == n
        tracemalloc.start()
        try:
            got = arith._products([[(a, b), (c, d)]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == [a * b + c * d]
        assert peak < 3 * n * 16, peak

    def test_rounding_guard_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        x = (1 << _T) - 1
        with pytest.raises(ArithmeticError, match="from an integer"):
            arith._products([[(x, x)]])

    def test_twiddle_factors_within_the_assumed_error(self):
        # the error bound of _products takes pocketfft's roots of unity
        # within 8 eps, at a power-of-two, a radix-3 and a radix-5
        # length; the transform of a unit impulse at index 1 is the
        # roots exp(-2 pi i j / n) as every pass computes them
        mpmath = pytest.importorskip("mpmath")
        for n in (1 << 16, 3 << 14, 5 << 13):
            impulse = np.zeros(n)
            impulse[1] = 1
            roots = np.fft.rfft(impulse)
            with mpmath.workdps(30):
                for j in range(0, n // 2 + 1, 31):
                    exact = mpmath.expjpi(mpmath.mpf(-2 * j) / n)
                    got = mpmath.mpc(roots[j].real, roots[j].imag)
                    assert abs(got - exact) <= 8 * 2.0 ** -53, (n, j)


class TestFFTWholePath:
    """Exact sums, Mertens products and verify read the same with every
    merge-tree product through the FFT (_FFT_MIN_BITS = 0) and with
    none (a threshold no operand reaches)."""

    @staticmethod
    def _both(monkeypatch, compute):
        out = []
        for bits in (0, 1 << 62):
            monkeypatch.setattr(arith, "_FFT_MIN_BITS", bits)
            out.append(compute())
        return out

    def test_reciprocal_sum_to_1e6(self, monkeypatch, primes6):
        fft, star = self._both(monkeypatch,
                               lambda: _gathered_sum(primes6 - 1))
        assert (fft.numerator, fft.denominator) == \
            (star.numerator, star.denominator)

    def test_lemma_set_at_2e6(self, monkeypatch):
        fft, star = self._both(monkeypatch, lambda: friability_density(
            2 * 10 ** 6, ShiftParams(2, 1), Fraction(3, 10)))
        assert fft == star
        assert fft.reciprocal_sum.denominator.bit_length() > 600_000

    def test_mertens_product(self, monkeypatch):
        fft, star = self._both(monkeypatch, lambda: mertens_product(300000))
        assert (fft.numerator, fft.denominator) == \
            (star.numerator, star.denominator)

    def test_verify_a_certificate_of_3000_primes(self, monkeypatch):
        primes = tuple(prime_array(30000)[1:3001].tolist())
        total = _gathered_sum([p - 1 for p in primes])
        for target, valid in ((total, True), (total + Fraction(1, 7), False)):
            d = Decomposition(1, target, primes)
            fft, star = self._both(monkeypatch, lambda: verify(d))
            assert fft == star
            assert fft.valid is valid


def _assert_exact(values):
    got = _gathered_sum(values)
    want = _sequential_sum(values)
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1


class TestRoughSplit:
    """The split v = m * r behind arith._exact_sum: r is the kernel's rest
    gathered at the sorted values when it exceeds B = isqrt(max v), else
    1."""

    # 2^11 and 3^7 are each value's largest prime power and lie above
    # isqrt(6144) = 78, but they are not primes above it
    TRAP = [3 * 2 ** 11, 2 * 3 ** 7, 2 * 1031, 4099]

    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=200),
           st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_multisets_cold_and_warm(self, values, copies):
        # through the gather from an empty cache, and again on the primes
        # it left
        values = values * copies
        arith._cache.clear()
        _assert_exact(values)
        _assert_exact(values)

    def test_dense_input_walks_the_kernel_once(self):
        with kernel_walks() as walks:
            _assert_exact(list(range(1, 3001)))
        assert walks == [(2999, ("rest",))]

    def test_dense_input_imports_no_numpy_ma(self):
        # np.isin's sort path on input this dense imports numpy.ma; the
        # split reads its r off the gathered rest with no such search
        code = ("import sys; import numpy as np; "
                "from egyptsieve.arith import _exact_sum, _gather, "
                "prime_array; v = prime_array(10 ** 5)[1:] - 1; "
                "_exact_sum(v, *_gather(v, 0, 'rest')); "
                "print('numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(arith.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False"]

    @pytest.mark.parametrize("copies", [1, 80])
    def test_prime_power_trap(self, copies):
        values = self.TRAP * copies
        with kernel_walks() as walks:
            _assert_exact(values)
        # one walk to the largest odd part, however few the values
        assert walks == [(4099, ("rest",))]
        # sorted: 2 * 1031, 4099, 2 * 3^7, 3 * 2^11; rest(3) = 3 and 1031
        # lie below and above B = 78
        assert _at(np.sort(np.array(self.TRAP)), "rest").tolist() == \
            [1031, 4099, 1, 3]

    @pytest.mark.parametrize("size", [64, 65])
    def test_odd_parts_at_segment_edges(self, size, monkeypatch):
        # p q, q^k r and 2^v times them, whose odd parts lie on both
        # sides of the kernel's odd-segment edges 2 size k + 1, through
        # the gather, against naive_factor
        monkeypatch.setattr(arith, "SEGMENT_SIZE", size)
        monkeypatch.setattr(arith, "_cache", {})
        odd = {"pq": [], "qkr": []}
        for k in range(1, 21):
            for u in range(2 * size * k - 7, 2 * size * k + 10, 2):
                f = naive_factor(u)
                if len(f) == 2:
                    odd["qkr" if max(e for _, e in f) > 1 else "pq"].append(u)
        for us in odd.values():
            # u from the start of a segment and from the end of one
            assert {(u - 1) % (2 * size) < size for u in us} == {True, False}
        values = sorted(u << v for us in odd.values() for u in us
                        for v in range(4))
        b = math.isqrt(values[-1])
        want = [max((p for p, _ in naive_factor(n) if p > b), default=1)
                for n in values]
        with kernel_walks() as walks:
            rest = _at(np.array(values, dtype=np.int64), "rest")
        assert np.where(rest > b, rest, 1).tolist() == want
        odd = max(u for us in odd.values() for u in us)
        assert walks == [(odd, ("rest",))]
        _assert_exact(values)

    # at w = 3 and 4 the largest p - 1 is 2, whose rest is 1: a split at
    # B = isqrt(2) = 1 would lose the 2 of p - 1 = 2
    @pytest.mark.parametrize("w", [2, 3, 4, 10, 1000, 30011])
    def test_mertens_product_against_fraction_product(self, w):
        want = Fraction(1)
        for p in prime_array(w).tolist():
            want *= Fraction(p - 1, p)
        got = mertens_product(w)
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
        assert math.gcd(got.numerator, got.denominator) == 1
