import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egyptsieve import arith
from egyptsieve.arith import (
    _PSI_13,
    Factorization,
    _build_primes,
    _strong_lucas_prp,
    _trial_primes,
    balanced_product,
    is_prime,
    li_approx,
    prime_array,
    prime_flags,
    prime_power_sieve,
    prime_segments,
    prime_reciprocal_sum,
    reciprocal_sum,
    sieve_primes,
    trial_factor,
)
from egyptsieve.egypt import Decomposition, verify
from egyptsieve.errors import CapacityError, DomainError
from egyptsieve.spectrum import max_prime_power_array, omega_array

from conftest import naive_factor, naive_is_prime


def _monolithic_flags(limit):
    """Reference: the plain Eratosthenes sieve over one bool array, kept
    apart from the segmented kernel."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def _drop_cached(kind):
    for key in [key for key in arith._cache if key[0] == kind]:
        del arith._cache[key]


_NAIVE_PRIMES = [n for n in range(1100) if naive_is_prime(n)]


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

    def test_against_trial_division(self):
        assert list(sieve_primes(10 ** 4)) == \
            [n for n in range(2, 10 ** 4 + 1) if naive_is_prime(n)]

    def test_count_1e6_against_independent_sieve(self):
        count = sum(1 for _ in sieve_primes(10 ** 6))
        assert count == 78498
        assert count == int(_monolithic_flags(10 ** 6).sum())

    def test_segment_boundaries(self):
        # tiny segments force many boundary crossings
        assert list(sieve_primes(10 ** 4, segment_size=64)) == \
            list(sieve_primes(10 ** 4))

    def test_python_ints_at_segment_edges(self):
        # a segment of 64 odd candidates starting at 1 ends at 127; the
        # limits sit on and one past the first and fifth boundaries
        for limit in (127, 128, 129, 130, 639, 640, 641, 642):
            got = list(sieve_primes(limit, segment_size=64))
            assert got == prime_array(limit).tolist()
            assert all(type(p) is int for p in got)

    def test_base_prime_list(self):
        # trial_factor takes m % p on big ints, which np.int64 would overflow
        for limit in [*range(1, 201), 10 ** 3]:
            got = _build_primes(limit).tolist()
            assert got == _naive_primes_to(limit)
            assert all(type(p) is int for p in got)
        got = _trial_primes()
        assert got == np.flatnonzero(
            _monolithic_flags(arith.TRIAL_PRIME_BOUND)).tolist()
        assert all(type(p) is int for p in got)


class TestPrimeSegments:
    def test_every_limit_to_700(self):
        for limit in range(701):
            if limit < 2:
                assert prime_array(limit).tolist() == []
                for size in (64, 65, 100):
                    with pytest.raises(DomainError):
                        list(prime_segments(limit, size))
                continue
            _drop_cached("primes")
            assert prime_array(limit).tolist() == _naive_primes_to(limit)
            for size in (64, 65, 100):
                segs = list(prime_segments(limit, size))
                assert all(s.dtype == np.int64 for s in segs)
                # one segment per block of `size` odd numbers up to limit
                assert len(segs) == -(-((limit + 1) // 2) // size)
                got = np.concatenate(segs).tolist()
                assert got == _naive_primes_to(limit), (limit, size)

    def test_first_five_segment_boundaries(self):
        for size in (64, 65, 100):
            # segment k - 1 ends at the odd number 2 size k - 1
            for k in range(1, 6):
                last = 2 * size * k - 1
                for limit in (last - 1, last, last + 1):
                    got = np.concatenate(list(prime_segments(limit, size)))
                    assert got.tolist() == _naive_primes_to(limit), \
                        (limit, size)

    def test_domain(self):
        with pytest.raises(DomainError):
            list(prime_segments(100, segment_size=63))
        with pytest.raises(CapacityError):
            list(prime_segments((1 << 28) ** 2))


class TestPrimeCache:
    def test_slices_of_a_larger_array(self):
        _drop_cached("primes")
        big = prime_array(1099)
        before = set(arith._cache)
        for m in range(2, 1100):
            sub = prime_array(m)
            assert sub.tolist() == _naive_primes_to(m), m
            assert np.shares_memory(sub, big)
        assert set(arith._cache) == before

    def test_slice_equals_fresh_build(self):
        _drop_cached("primes")
        prime_array(10 ** 6)
        before = set(arith._cache)
        limits = (2, 3, 4, 999983, 999984, 10 ** 5 + 3, 10 ** 5 + 2)
        sliced = {m: prime_array(m) for m in limits}
        assert set(arith._cache) == before
        for m in limits:
            _drop_cached("primes")
            assert np.array_equal(sliced[m], prime_array(m)), m

    def test_index_arrays_sliced(self):
        _drop_cached("omega")
        omega_array(5000)
        before = set(arith._cache)
        assert omega_array(1234).tolist() == \
            prime_power_sieve(1234, "omega").tolist()
        assert set(arith._cache) == before

    def test_larger_build_replaces_smaller(self):
        _drop_cached("primes")
        prime_array(1000)
        prime_array(3000)
        assert [k for k in arith._cache if k[0] == "primes"] == \
            [("primes", 3000)]

    def test_negative_limit_refused_when_cached(self):
        for build in (prime_array, prime_flags, omega_array,
                      max_prime_power_array):
            build(100)
            with pytest.raises(DomainError):
                build(-5)

    def test_over_cap_refused_before_building(self):
        def build(n):
            raise AssertionError(f"built to {n}")

        before = set(arith._cache)
        for kind in ("primes", "flags", "omega", "maxpp"):
            with pytest.raises(CapacityError):
                arith._cached(kind, arith.MAX_ARRAY_LIMIT + 1, build)
        assert set(arith._cache) == before

    def test_read_only(self):
        _drop_cached("primes")
        for arr in (prime_array(1000), prime_array(500), prime_flags(1000),
                    omega_array(1000), max_prime_power_array(1000)):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_prime_flags_match_monolithic_1e6(self):
        flags = prime_flags(10 ** 6)
        assert flags.dtype == np.bool_
        assert np.array_equal(flags, _monolithic_flags(10 ** 6))


class TestIsPrime:
    def test_two(self):
        assert is_prime(2)

    def test_one(self):
        assert not is_prime(1)

    def test_mersenne_61(self):
        # Lucas-Lehmer is the independent certificate for 2^61 - 1
        m = 2 ** 61 - 1
        s = 4
        for _ in range(61 - 2):
            s = (s * s - 2) % m
        assert s == 0
        assert is_prime(m)

    def test_agrees_with_sieve_to_1e6(self):
        flags = prime_flags(10 ** 6)
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


class TestFactorize:
    def test_12(self):
        assert trial_factor(12).factors == ((2, 2), (3, 1))

    def test_prime_input(self):
        assert trial_factor(97).factors == ((97, 1),)

    def test_720720_multiplies_back(self):
        fz = trial_factor(720720)
        assert fz.factors == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
        assert fz.value == 720720

    def test_one(self):
        fz = trial_factor(1)
        assert fz.factors == ()
        assert fz.omega == 0
        assert fz.max_prime_power == 1

    def test_zero(self):
        with pytest.raises(DomainError):
            trial_factor(0)

    def test_round_trip_full_range(self):
        for n in range(2, 10 ** 6 + 1):
            assert trial_factor(n).value == n

    def test_segmented_table_agrees(self):
        limit = (1 << 24) + 2 ** 20
        roots = _build_primes(math.isqrt(limit)).tolist()
        for n in (2, 97, 720720, 999983, (1 << 24) + 7, (1 << 24) + 2 ** 20):
            assert trial_factor(n, roots).factors == tuple(naive_factor(n))

    def test_divisors(self):
        assert trial_factor(12).divisors() == [1, 2, 3, 4, 6, 12]
        assert trial_factor(1).divisors() == [1]

    def test_max_prime_power(self):
        assert trial_factor(12).max_prime_power == 4
        assert trial_factor(97).max_prime_power == 97

    def test_totient_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for d in range(1, 2001):
            assert trial_factor(d).totient == sympy.totient(d), d

    def test_malformed_rejected(self):
        with pytest.raises(DomainError):
            Factorization(((3, 1), (2, 1)))
        with pytest.raises(DomainError):
            Factorization(((2, 0),))


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
            assert trial_factor(n).factors == \
                tuple(sorted(sympy.factorint(n).items())), n

    def test_composite_cofactor_raises(self):
        with pytest.raises(CapacityError):
            trial_factor((10 ** 6 + 3) * (10 ** 6 + 33))

    def test_given_list(self):
        assert trial_factor(360, [2, 3, 5]).factors == ((2, 3), (3, 2), (5, 1))
        assert trial_factor(2 * 53, [2, 3, 5]).factors == ((2, 1), (53, 1))
        with pytest.raises(CapacityError):
            trial_factor(7 * 11, [2, 3, 5])
        assert trial_factor(3, []).factors == ((3, 1),)

    def test_one_and_domain(self):
        assert trial_factor(1).factors == ()
        for n in (0, -6):
            with pytest.raises(DomainError):
                trial_factor(n)


def _oracle_arrays(limit):
    """omega and largest prime power for 0..limit from trial_factor."""
    om, mp = [0, 0], [1, 1]
    for n in range(2, limit + 1):
        fz = trial_factor(n)
        om.append(fz.omega)
        mp.append(fz.max_prime_power)
    return np.array(om[:limit + 1]), np.array(mp[:limit + 1])


class TestPrimePowerSieve:
    def test_against_factorize_0_200(self):
        om_ref, mp_ref = _oracle_arrays(200)
        for limit in range(201):
            om = prime_power_sieve(limit, "omega")
            mp = prime_power_sieve(limit, "maxpp")
            assert om.tolist() == om_ref[:limit + 1].tolist()
            assert mp.tolist() == mp_ref[:limit + 1].tolist()

    def test_segment_boundaries(self):
        om_ref, mp_ref = _oracle_arrays(3000)
        for size in (64, 65):
            limits = set()
            for k in range(1, 6):
                limits |= {k * size - 1, k * size, k * size + 1}
            # a square or cube just before, on or after a segment start,
            # and limits where sqrt(limit) gains the prime p
            for p in _naive_primes_to(53):
                for q in (p * p, p ** 3):
                    if q <= 2900 and q % size in (size - 1, 0, 1):
                        limits |= {q - 1, q, q + 1}
                limits |= {p * p - 1, p * p, p * p + 1}
            for limit in sorted(limits):
                om = prime_power_sieve(limit, "omega", segment_size=size)
                mp = prime_power_sieve(limit, "maxpp", segment_size=size)
                assert om.tolist() == om_ref[:limit + 1].tolist(), limit
                assert mp.tolist() == mp_ref[:limit + 1].tolist(), limit

    def test_dtypes(self):
        assert prime_power_sieve(1000, "omega").dtype == np.int8
        assert prime_power_sieve(1000, "maxpp").dtype == np.uint32
        assert omega_array(1001).dtype == np.int8
        assert max_prime_power_array(1001).dtype == np.uint32

    def test_wrappers_build_no_prime_table(self):
        for build, kind in ((omega_array, "omega"),
                            (max_prime_power_array, "maxpp")):
            limit = 54321
            _drop_cached(kind)
            before = set(arith._cache)
            build(limit)
            added = set(arith._cache) - before
            assert added == {(kind, limit)}

    def test_domain(self):
        with pytest.raises(DomainError):
            prime_power_sieve(-1, "omega")
        with pytest.raises(DomainError):
            prime_power_sieve(10, "spf")
        with pytest.raises(DomainError):
            prime_power_sieve(100, "maxpp", segment_size=63)
        with pytest.raises(CapacityError):
            prime_power_sieve(2 ** 32, "omega")


class TestOmegaAdditivity:
    @given(st.integers(2, 10 ** 3), st.integers(2, 10 ** 3))
    @settings(max_examples=150, deadline=None)
    def test_additive_on_coprime(self, m, n):
        assume(math.gcd(m, n) == 1)
        fm, fn, fmn = (trial_factor(k) for k in (m, n, m * n))
        assert fmn.omega == fm.omega + fn.omega


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
        assert reciprocal_sum(vals) == sum(Fraction(1, v) for v in vals)
        assert reciprocal_sum([]) == 0

    def test_prime_reciprocal_sum(self):
        num, den = prime_reciprocal_sum([2, 3, 5, 7])
        assert Fraction(num, den) == Fraction(1, 2) + Fraction(1, 3) \
            + Fraction(1, 5) + Fraction(1, 7)
        assert math.gcd(num, den) == 1

    def test_balanced_product(self):
        assert balanced_product([]) == 1
        assert balanced_product([7]) == 7
        assert balanced_product(range(1, 11)) == math.factorial(10)


def _sequential_sum(values):
    total = Fraction(0)
    for v in values:
        total += Fraction(1, v)
    return total


class TestReciprocalSum:
    """reciprocal_sum against the sequential Fraction sum: the same
    numerator and denominator, and the pair in lowest terms."""

    def _check(self, values):
        got = reciprocal_sum(values)
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

    def test_any_iterable(self):
        assert reciprocal_sum(v for v in (2, 3)) == Fraction(5, 6)
        assert reciprocal_sum(np.array([2, 3, 6])) == 1
        assert reciprocal_sum(iter([])) == 0

    @pytest.mark.parametrize("values", [[0, 3], [-2, 3], [3, -1, 5]])
    def test_values_below_one_raise(self, values):
        with pytest.raises(DomainError):
            reciprocal_sum(values)

    @pytest.mark.parametrize("top", [(arith.MAX_BASE_PRIME + 1) ** 2,
                                     10 ** 40])
    def test_split_past_base_budget_raises(self, top):
        with pytest.raises(CapacityError):
            reciprocal_sum([2, top])
