import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from egyptsieve import arith
from egyptsieve.arith import (
    balanced_product,
    li_approx,
    prime_array,
    sieve_primes,
)
from egyptsieve.errors import CapacityError, DomainError
from egyptsieve.reports import density_report_dict
from egyptsieve import spectrum
from egyptsieve.spectrum import (
    ShiftParams,
    divisor_window_density,
    friability_density,
    halberstam_variance,
    legendre_sieve_count,
    mertens_product,
    omega_deviation_density,
    prime_count_ap,
)
from egyptsieve.spectrum import _exceeds_power

from conftest import (
    fraction_tree_sum,
    kernel_walks,
    naive_factor,
    naive_is_prime,
)


def _max_prime_power(n):
    return max((p ** e for p, e in naive_factor(n)), default=1)


class TestParams:
    def test_shift_validation(self):
        with pytest.raises(DomainError):
            ShiftParams(0, 1)
        with pytest.raises(DomainError):
            ShiftParams(2, 4)
        ShiftParams(-2, 5)

    @pytest.mark.parametrize("h, q, what", [
        (True, 1, "h True"), (1.0, 1, "h 1.0"), (1, 1.0, "q 1.0"),
        (1, False, "q False"), (Fraction(1), 1, "h Fraction(1, 1)"),
    ])
    def test_fields_read_exactly(self, h, q, what):
        with pytest.raises(DomainError, match=re.escape(f"{what} not an")):
            ShiftParams(h, q)

    def test_numpy_fields_stored_as_int(self):
        params = ShiftParams(np.int64(1), np.int32(3))
        assert (type(params.h), type(params.q)) == (int, int)
        got = friability_density(1000, params, Fraction(3, 10))
        want = friability_density(1000, ShiftParams(1, 3), Fraction(3, 10))
        assert json.dumps(density_report_dict(got)) == \
            json.dumps(density_report_dict(want))


HALF = Fraction(1, 2)

# each sieve and density entry point, taking its integer argument x
ENTRY_POINTS = {
    "friability": lambda x: friability_density(x, ShiftParams(1), HALF),
    "omega": lambda x: omega_deviation_density(x, ShiftParams(1), HALF),
    "window": lambda x: divisor_window_density(x, ShiftParams(1), 5, 100),
    "halberstam": lambda x: halberstam_variance(x, ShiftParams(1)),
    "mertens": mertens_product,
    "sieve_primes": lambda x: list(sieve_primes(x)),
    "li_approx": li_approx,
}


class TestExactArguments:
    """N, w, limit and n are read by arith._exact_ints: a float, bool or
    string is a DomainError, and a numpy integer reads as the int."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x", [1000.0, 1000.5, True, "1000"])
    def test_arguments_read_exactly(self, entry, x):
        with pytest.raises(DomainError, match="not an integer"):
            ENTRY_POINTS[entry](x)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_numpy_integers_read_as_int(self, entry):
        got = ENTRY_POINTS[entry](np.int64(1000))
        want = ENTRY_POINTS[entry](1000)
        if hasattr(got, "N"):
            assert type(got.N) is int
            got, want = density_report_dict(got), density_report_dict(want)
        assert got == want


class TestFriability:
    def test_epsilon_zero(self, shift_plus1):
        rep = friability_density(10 ** 4, shift_plus1, 0)
        assert rep.count == 0
        assert rep.relative_density == 0.0
        assert rep.reciprocal_sum == 0

    def test_epsilon_one(self, shift_plus1):
        # every n >= 2 has a prime-power divisor > 1; only n = 1 escapes
        rep = friability_density(10 ** 4, shift_plus1, 1)
        assert rep.count == rep.normalizer - 1

    def test_frozen_1e5(self, shift_plus1):
        # brute-force factor-everything oracle, frozen offline
        rep = friability_density(10 ** 5, shift_plus1, Fraction(3, 10))
        assert rep.normalizer == 9592
        assert rep.count == 2837
        assert rep.baseline == pytest.approx(0.3)

    def test_oracle_1e4(self, shift_plus1):
        rep = friability_density(10 ** 4, shift_plus1, Fraction(3, 10))
        expect = 0
        for p in prime_array(10 ** 4).tolist():
            n = p - 1
            if n >= 2 and _max_prime_power(n) ** 10 > n ** 7:
                expect += 1
        assert rep.count == expect

    def test_monotone_in_epsilon(self, shift_plus1):
        reps = [friability_density(10 ** 4, shift_plus1, e)
                for e in (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10),
                          Fraction(4, 10))]
        dens = [r.relative_density for r in reps]
        assert dens == sorted(dens)
        for r in reps:
            assert 0.0 <= r.relative_density <= 1.0

    def test_oracle_2000(self, shift_plus1):
        # epsilon = 1/4: n counts when its largest prime power exceeds
        # n**(3/4), that is mpp**4 > n**3
        rep = friability_density(2000, shift_plus1, "0.25")
        expect = sum(n >= 2 and _max_prime_power(n) ** 4 > n ** 3
                     for n in (p - 1 for p in prime_array(2000).tolist()))
        assert rep.count == expect

    def test_epsilon_string_exact(self, shift_plus1):
        rep = friability_density(1000, shift_plus1, "0.2")
        assert rep.params["epsilon"] == "1/5"

    def test_progression_against_oracle(self):
        # q = 4 selects p = 1 (mod 4) by p - (p // q) q; the count is
        # frozen and the sum is summed over the oracle's counted n
        rep = friability_density(10 ** 5, ShiftParams(1, 4), Fraction(3, 10))
        ns = [p - 1 for p in prime_array(10 ** 5).tolist()
              if p % 4 == 1 and p - 1 >= 4]
        counted = [n for n in ns if _max_prime_power(n) ** 10 > n ** 7]
        assert (rep.count, rep.normalizer) == (1092, 4783) == \
            (len(counted), len(ns))
        assert rep.reciprocal_sum == fraction_tree_sum(counted)


class TestOmegaDeviation:
    def test_delta_zero(self, shift_plus1):
        rep = omega_deviation_density(10 ** 4, shift_plus1, 0)
        assert rep.relative_density == 1.0

    def test_delta_huge(self, shift_plus1):
        rep = omega_deviation_density(10 ** 6, shift_plus1, 10)
        assert rep.count == 0

    def test_frozen_1e4(self, shift_plus1):
        rep = omega_deviation_density(10 ** 4, shift_plus1, Fraction(1, 2))
        assert (rep.count, rep.normalizer, rep.excluded) == (440, 1223, 6)

    def test_frozen_1e6(self, shift_plus1):
        rep = omega_deviation_density(10 ** 6, shift_plus1, Fraction(1, 2))
        assert (rep.count, rep.normalizer) == (39384, 78492)

    def test_nonincreasing_in_delta(self, shift_plus1):
        dens = [omega_deviation_density(10 ** 4, shift_plus1, d).relative_density
                for d in (Fraction(1, 4), Fraction(1, 2), 1, 2)]
        assert dens == sorted(dens, reverse=True)

    def test_sweep_points_walk_the_kernel_once_each(self, monkeypatch):
        # no table is held between the points of a sweep at one N: each
        # gathers omega and rest at its own n in one walk, up to its
        # largest odd part, and only primes are cached
        monkeypatch.setattr(arith, "_cache", {})
        points = ((-1, Fraction(1, 4)), (-1, Fraction(1, 2)),
                  (1, Fraction(1, 2)), (6, 1))
        with kernel_walks() as walks:
            for h, delta in points:
                omega_deviation_density(10 ** 5, ShiftParams(h), delta)
        primes = prime_array(10 ** 5).tolist()
        tops = [max(n >> (n & -n).bit_length() - 1
                    for n in (p - h for p in primes) if n >= 1)
                for h, _ in points]
        assert walks == [(top, ("omega", "rest")) for top in tops]
        assert list(arith._cache) == [10 ** 5]

    def test_all_small_n_excluded(self):
        # h = 85: the only qualifying primes below 100 give n < 16
        rep = omega_deviation_density(100, ShiftParams(85), Fraction(1, 2))
        assert rep.normalizer == 0
        assert rep.excluded == 2
        assert rep.relative_density == 0.0


class TestHalberstam:
    def test_frozen_1e4(self, shift_plus1):
        assert halberstam_variance(10 ** 4, shift_plus1) == pytest.approx(
            0.5345336983378056, rel=1e-12)

    def test_positive(self, shift_plus1):
        assert halberstam_variance(10 ** 4, ShiftParams(-1)) > 0

    def test_stability_band(self, shift_plus1):
        vals = [halberstam_variance(n, shift_plus1)
                for n in (10 ** 5, 10 ** 6)]
        assert max(vals) / min(vals) < 2

    def test_reads_omega_without_a_table(self, monkeypatch):
        # omega is gathered at the n = p - h; from a fresh cache, only
        # the primes (and base primes, replaced by them) are cached
        monkeypatch.setattr(arith, "_cache", {})
        halberstam_variance(2 * 10 ** 6, ShiftParams(1))
        assert list(arith._cache) == [2 * 10 ** 6]

    @pytest.mark.parametrize("h", [1, -1])
    def test_gather_memory(self, monkeypatch, h):
        # on a warm prime cache, omega is read at p - h on the prime
        # slice, with no array of n = p - h: the traced peak is the int8
        # omega and v arrays, one bool mask over the v and the arrays of
        # one segment, 3.6 len(n) bytes with small segments (3.4 at
        # h = -1).  An int64 array of n would add 8 bytes an entry (11.6
        # in all).  The bound allows 4 len(n) bytes plus 32 bytes per
        # segment entry
        N = 2 * 10 ** 6
        prime_array(N)
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 12)
        tracemalloc.start()
        try:
            halberstam_variance(N, ShiftParams(h))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(prime_array(N)) - (h == 1)      # p - h >= 2
        assert peak < 4 * size + 32 * arith.SEGMENT_SIZE, peak / size

    def test_shifted_primes_sliced_without_a_copy(self):
        # the slice's search takes h + least in the primes' int32; a
        # Python int needle copies the 664,579 primes to int64 (5.3 MB)
        primes = prime_array(10 ** 7)
        for h in (1, -1, 10 ** 6, -10 ** 6):
            tracemalloc.start()
            try:
                ps = spectrum._shifted_primes(primes, h, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.shares_memory(ps, primes) and int(ps[0]) - h >= 2
            assert peak < 4096, (h, peak)

    def test_shift_past_int64(self):
        # no p - h >= 2 above N; below, p - h passes every table's reach,
        # refused before the prime slice is read
        assert halberstam_variance(1000, ShiftParams(10 ** 20)) == 0.0
        with pytest.raises(CapacityError):
            halberstam_variance(1000, ShiftParams(-10 ** 20))


class TestDivisorWindow:
    def test_empty_window(self, shift_plus1):
        # [4, 9/2] holds no prime, so nothing is excluded
        rep = divisor_window_density(10 ** 4, shift_plus1, 4, Fraction(9, 2))
        assert rep.relative_density == 1.0

    def test_frozen_window_5_7(self, shift_plus1):
        # primes with p - 1 coprime to 35
        rep = divisor_window_density(10 ** 4, shift_plus1, 4, 7)
        assert (rep.count, rep.normalizer) == (768, 1229)

    def test_monotone_in_z(self, shift_plus1):
        dens = [divisor_window_density(10 ** 4, shift_plus1, 5, z).relative_density
                for z in (20, 50, 200)]
        assert dens == sorted(dens, reverse=True)

    def test_monotone_in_y(self, shift_plus1):
        dens = [divisor_window_density(10 ** 4, shift_plus1, y, 500).relative_density
                for y in (5, 20, 100)]
        assert dens == sorted(dens)

    def test_validation(self, shift_plus1):
        with pytest.raises(DomainError):
            divisor_window_density(10 ** 4, shift_plus1, 4, 3)


class TestExceedsPower:
    def test_ties_with_large_denominators(self):
        # t^a = (t^b)^(a/b) exactly; denominators above 64 once fell
        # back to floats here
        for t in range(2, 11):
            for b in range(65, 90):
                for a in range(1, b):
                    if math.gcd(a, b) != 1:
                        continue
                    v, base, e = t ** a, t ** b, Fraction(a, b)
                    assert not _exceeds_power(v, base, e), (t, a, b)
                    assert _exceeds_power(v + 1, base, e), (t, a, b)
                    assert not _exceeds_power(v - 1, base, e), (t, a, b)

    def test_random_against_integer_powers(self):
        rng = random.Random(2024)
        for _ in range(3000):
            b = rng.randint(1, 150)
            a = rng.randint(0, b)
            base = rng.randint(2, 10 ** 6)
            root = round(base ** (a / b))
            value = max(1, rng.choice(
                [rng.randint(1, base), root - 1, root, root + 1]))
            e = Fraction(a, b)
            expected = value ** e.denominator > base ** e.numerator
            assert _exceeds_power(value, base, e) == expected, \
                (value, base, e)

    def test_oversized_tie_raises(self):
        a, b = 30011, 30013
        with pytest.raises(CapacityError):
            _exceeds_power(2 ** a, 2 ** b, Fraction(a, b))
        # away from the tie floats decide, whatever the size
        assert _exceeds_power(2 ** a + 2 ** (a - 1), 2 ** b, Fraction(a, b))
        assert not _exceeds_power(2 ** (a - 1), 2 ** b, Fraction(a, b))


class TestLegendreSieve:
    def test_totatives_of_30(self):
        est = legendre_sieve_count((1, 30), [2, 3, 5])
        assert est.exact_count == 8
        assert est.main_term == pytest.approx(8.0)

    def test_empty_window(self):
        est = legendre_sieve_count((1, 30), [])
        assert est.exact_count == 30

    def test_shifted_set(self):
        # only an interval (lo, hi), 1 <= lo <= hi, is counted; a
        # collection such as the shifted primes p - 1 is refused, not read
        # as one, and so is an interval holding 0, which lies in every
        # A_d (the pruning at d > hi would miss it)
        A = [p - 1 for p in prime_array(100).tolist()]
        for bad in (A, A[:2], tuple(A[:3]), (30, 1), 30, (0, 10),
                    (-2 * 10 ** 6, 10)):
            with pytest.raises(DomainError):
                legendre_sieve_count(bad, [3, 5])

    def test_remainder_identity(self):
        est = legendre_sieve_count((1, 100), [2, 3, 7])
        for d, r in est.remainders.items():
            count = 100 // d
            fd = Fraction(1)
            for p in (2, 3, 7):
                if d % p == 0:
                    fd *= Fraction(1, p)
            assert count == fd * 100 + r

    def test_capacity(self):
        with pytest.raises(CapacityError):
            legendre_sieve_count((1, 100), list(prime_array(120).tolist()))

    @pytest.mark.parametrize("A, window, what", [
        ((1, 100), [2.5, 3], "window element 2.5"),
        ((1, 100), [True, 3], "window element True"),
        ((1.0, 100), [2, 3], "interval end 1.0"),
        ((1, 100.5), [2, 3], "interval end 100.5"),
    ], ids=["float prime", "bool prime", "float lo", "float hi"])
    def test_non_integers_refused(self, A, window, what):
        # int(2.5) would count the window {2, 3}; a float end would fail
        # inside the count
        with pytest.raises(DomainError, match=f"{what} not an integer"):
            legendre_sieve_count(A, window)

    def test_numpy_integers_read_as_ints(self):
        est = legendre_sieve_count((np.int64(1), np.int32(30)),
                                   prime_array(5))
        assert est.exact_count == 8

    def test_randomized_against_scan(self):
        rng = np.random.default_rng(7)
        wnd_src = prime_array(200).tolist()
        for _ in range(20):
            lo = int(rng.integers(1, 5000))
            hi = lo + int(rng.integers(10, 20000))
            k = int(rng.integers(0, 8))
            window = sorted(rng.choice(wnd_src, size=k, replace=False).tolist())
            est = legendre_sieve_count((lo, hi), window)
            scan = sum(1 for n in range(lo, hi + 1)
                       if all(n % p for p in window))
            assert est.exact_count == scan

    @pytest.mark.parametrize("lo", [1, 2, 13, 1001, 30030,
                                    10 ** 12 - 10 ** 12 % 13, 10 ** 12,
                                    10 ** 12 + 1])
    def test_scan_offsets(self, lo):
        # the scan clears each prime's multiples from offset -lo mod p:
        # lo itself a multiple of a window prime (offset 0), lo = 1, and
        # lo near 1e12; a wrong offset makes the scan disagree with
        # inclusion-exclusion (RuntimeError) or the count wrong
        window = [2, 3, 5, 7, 11, 13]
        for hi in (lo, lo + 1, lo + 12, lo + 3001):
            est = legendre_sieve_count((lo, hi), window)
            assert est.exact_count == sum(
                1 for n in range(lo, hi + 1) if all(n % p for p in window))

    def test_scan_catches_wrong_count(self, monkeypatch):
        # the direct scan checks inclusion-exclusion independently
        real = spectrum._subset_counts

        def off_by_one(A, window):
            return [(d, mu, cnt + (d == 1)) for d, mu, cnt in real(A, window)]

        monkeypatch.setattr(spectrum, "_subset_counts", off_by_one)
        with pytest.raises(RuntimeError):
            legendre_sieve_count((1, 1000), [3, 5, 7])


class TestPrimeCountAP:
    def test_pi_100_4_1(self):
        count, base = prime_count_ap(100, 4, 1)
        assert count == 11

    def test_pi_100_1_0(self):
        count, _ = prime_count_ap(100, 1, 0)
        assert count == 25

    def test_gcd_violation(self):
        with pytest.raises(DomainError):
            prime_count_ap(100, 2, 2)

    @pytest.mark.parametrize("args", [
        (100, 4.0, 1), (100.0, 4, 1), (100, 4, True), (100, 4, Fraction(1)),
    ])
    def test_arguments_read_exactly(self, args):
        with pytest.raises(DomainError, match="not an integer"):
            prime_count_ap(*args)

    def test_numpy_N_hits_the_int_memo_entry(self):
        spectrum._residue_histogram.cache_clear()
        want = prime_count_ap(1000, 4, 1)
        assert prime_count_ap(np.int64(1000), np.int32(4), np.int64(1)) \
            == want
        info = spectrum._residue_histogram.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("d", [17, 19, 23, 65537, 99991, 1000003])
    def test_moduli_off_the_histogram(self, d):
        # none divides 720720: the residues are p - (p // d) d
        primes = prime_array(10 ** 5).tolist()
        for h in (1, 2, 5, d - 1):
            want = sum(1 for p in primes if p % d == h % d)
            assert prime_count_ap(10 ** 5, d, h)[0] == want, h

    def test_residue_sum_invariant(self):
        N = 10 ** 4
        total = len(prime_array(N))
        for d in (4, 6, 12):
            s = sum(prime_count_ap(N, d, h)[0]
                    for h in range(1, d) if math.gcd(h, d) == 1)
            dividing = sum(1 for p in prime_array(N).tolist() if d % p == 0)
            assert s == total - dividing

    def test_baseline_is_li_over_phi(self):
        _, base = prime_count_ap(10 ** 4, 4, 1)
        assert base == pytest.approx(li_approx(10 ** 4) / 2)

    def test_baseline_against_sympy_totient(self):
        # phi(d) from trial_factor's (prime, exponent) pairs
        sympy = pytest.importorskip("sympy")
        li = li_approx(10 ** 4)
        for d in range(1, 2001):
            _, base = prime_count_ap(10 ** 4, d, 1)
            assert base == li / int(sympy.totient(d)), d

    def test_huge_modulus_returns_at_once(self):
        # phi(d) from the factorization of d, not a loop over 1..d
        start = time.perf_counter()
        count, base = prime_count_ap(10 ** 4, 10 ** 10 + 1, 1)
        assert time.perf_counter() - start < 0.5
        # 10^10 + 1 = 101 * 3541 * 27961
        assert (count, base) == (0, li_approx(10 ** 4) / (100 * 3540 * 27960))

    @pytest.mark.parametrize("N", [100, 10 ** 4, 123457])
    def test_against_primerange_oracle(self, N):
        sympy = pytest.importorskip("sympy")
        primes = list(sympy.primerange(2, N + 1))
        # both paths: 16, 18, 20, 36 divide 720720; 17, 19, 23, 25, 27, 32
        # do not.  Above N only a residue that is a prime up to N counts:
        # 2 does, 1 and the largest prime below 2N + 3 do not; 2^63 + 1
        # overflows int64
        assert all(720720 % d == 0 for d in (16, 18, 20, 36))
        assert all(720720 % d for d in (17, 19, 23, 25, 27, 32))
        for d in (*range(1, 41), N + 1, 2 * N + 3, 2 ** 63 + 1):
            for a in range(d) if d <= 40 else (1, 2, sympy.prevprime(d)):
                if math.gcd(a, d) != 1:
                    continue
                want = (sum(1 for p in primes if p % d == a),
                        li_approx(N) / int(sympy.totient(d)))
                for h in (a, a - d, a + 5 * d):  # negative residues too
                    got = prime_count_ap(N, d, h)
                    # == holds for a numpy integer too; json needs an int
                    assert got == want and type(got[0]) is int, (N, d, h)

    @pytest.mark.parametrize("N", [720720, 720721, 2 * 720720 + 1,
                                   2 * 10 ** 6])
    def test_histogram_blocks(self, N):
        # N on, just past and one past two block edges [k M, (k + 1) M)
        spectrum._residue_histogram.cache_clear()
        M = spectrum._HIST_MODULUS
        want = np.bincount(prime_array(N) % M, minlength=M)
        got = spectrum._residue_histogram(N)
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want)

    def test_every_small_modulus_at_2e6(self):
        # both paths over three histogram blocks, against the primes
        # reduced in one pass
        N = 2 * 10 ** 6
        primes = prime_array(N)
        for d in range(1, 41):
            want = np.bincount(primes % d, minlength=d)
            for a in range(d):
                if math.gcd(a, d) == 1:
                    assert prime_count_ap(N, d, a)[0] == want[a], (d, a)

    @pytest.mark.parametrize("d", [16, 17])
    def test_memory(self, d):
        # on a warm prime cache the histogram path (16) holds the int32
        # histogram and the temporaries of one block, the first and
        # fullest, measured at 12 bytes per prime; the chunked path (17)
        # an int64 residue and a bool per prime of one chunk, 9 bytes.
        # Reducing the whole prime list at once would read 9 bytes per
        # prime, 1.3 MB at 2e6, and an int64 bincount of the histogram
        # 5.8 MB
        N = 2 * 10 ** 6
        prime_array(N)
        spectrum._residue_histogram.cache_clear()
        M = spectrum._HIST_MODULUS
        bound = (4 * M + 16 * len(prime_array(M)) if M % d == 0
                 else 16 * (arith.SEGMENT_SIZE >> 4))
        tracemalloc.start()
        try:
            prime_count_ap(N, d, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_residues_read_in_slices(self, monkeypatch):
        # segments of 64: the chunked path adds counts across the edges
        # of slices of 4 primes
        N = 10 ** 4
        primes = prime_array(N)
        spectrum._residue_histogram.cache_clear()
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 64)
        for d in (16, 17):
            for a in range(d):
                if math.gcd(a, d) == 1:
                    assert prime_count_ap(N, d, a)[0] == \
                        int((primes % d == a).sum()), (d, a)

    def test_memo_serves_each_N_its_own_counts(self):
        # large N, small N, large N again: a memo keyed on anything but N
        # would hand the small N the large N's histogram, or back
        want = {N: [int((prime_array(N) % d == 1).sum()) for d in (4, 17)]
                for N in (10 ** 5, 1000)}
        for N in (10 ** 5, 1000, 10 ** 5):
            assert [prime_count_ap(N, d, 1)[0] for d in (4, 17)] == want[N]


class TestMertens:
    def test_w10(self):
        assert mertens_product(10) == Fraction(8, 35)

    def test_w2(self):
        assert mertens_product(2) == Fraction(1, 2)

    def test_desk_envelope(self):
        for w in (100, 1000, 31623, 10 ** 5, 10 ** 6):
            v = float(mertens_product(w)) * math.log(w)
            assert 0.3 <= v <= 0.8, (w, v)

    def test_matches_fraction_oracle(self):
        ws = [*range(2, 400), 1000, 4096, 7919, 7920, 12345, 2 * 10 ** 4]
        for w in ws:
            ps = prime_array(w).tolist()
            want = Fraction(balanced_product(p - 1 for p in ps),
                            balanced_product(ps))
            got = mertens_product(w)
            assert (got.numerator, got.denominator) == (
                want.numerator, want.denominator), w


class TestReportReciprocalSums:
    """Lemma reports carry the reciprocal sum the Fraction tree gives on
    the same selected set."""

    LEMMAS = {
        1: lambda N, sh: friability_density(N, sh, Fraction(3, 10)),
        2: lambda N, sh: omega_deviation_density(N, sh, Fraction(1, 2)),
        3: lambda N, sh: divisor_window_density(N, sh, Fraction(5),
                                                Fraction(100)),
    }

    @pytest.mark.parametrize("lemma", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, -1, 2, -2])
    def test_against_fraction_tree(self, monkeypatch, lemma, h):
        report = self.LEMMAS[lemma]
        got = report(10 ** 5, ShiftParams(h)).reciprocal_sum
        monkeypatch.setattr(spectrum, "_exact_sum",
                            lambda n, rest: fraction_tree_sum(n))
        want = report(10 ** 5, ShiftParams(h)).reciprocal_sum
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)

    @pytest.mark.parametrize("lemma, kinds", [
        (1, ("maxpp", "rest")), (2, ("omega", "rest")), (3, ("rest",))])
    def test_one_kernel_walk_per_report(self, monkeypatch, lemma, kinds):
        # from an empty cache, the lemma's statistic and the rough parts
        # of its exact sum come from one walk of the kernel
        monkeypatch.setattr(arith, "_cache", {})
        with kernel_walks() as walks:
            self.LEMMAS[lemma](10 ** 5, ShiftParams(1))
        assert [k for _, k in walks] == [kinds]


def _smallest_prime_factors(limit):
    """spf[n] for 0 <= n <= limit (spf[0] = 0, spf[1] = 1), by a plain
    numpy sieve kept apart from arith's kernels."""
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            block = spf[p * p::p]
            np.minimum(block, p, out=block)
    return spf


def _prime_power_stats(n, spf, y, z):
    """omega(n), the largest prime power exactly dividing n, and whether
    a prime factor of n lies in [y, z], for an int64 array of n >= 1,
    by dividing out spf one prime at a time."""
    m = n.copy()
    omega = np.zeros(len(n), dtype=np.int64)
    maxpp = np.ones(len(n), dtype=np.int64)
    window = np.zeros(len(n), dtype=bool)
    while (live := np.flatnonzero(m > 1)).size:
        p = spf[m[live]]
        pk = np.ones_like(p)
        while (div := np.flatnonzero(m[live] % p == 0)).size:
            m[live[div]] //= p[div]
            pk[div] *= p[div]
        omega[live] += 1
        maxpp[live] = np.maximum(maxpp[live], pk)
        window[live] |= (y <= p) & (p <= z)
    return omega, maxpp, window


def _inverse_sum(n, q):
    """sum of n^(q - 2) mod q over the int64 array n, a prime q < 2^31:
    the sum of 1/n in the field of q when q divides no n, by
    square-and-multiply in int64 (every product stays below 2^62)."""
    base = n % q
    acc = np.ones_like(base)
    e = q - 2
    while e:
        if e & 1:
            acc = acc * base % q
        base = base * base % q
        e >>= 1
    return int(acc.sum()) % q


class TestResidueOracle:
    """Each lemma report's exact sum a/b at N = 1e6, checked modulo
    primes q in (N + 1, 2^31): every counted n is a unit mod q, so a/b is
    right only if a = S_q b (mod q), S_q = sum 1/n mod q.  An error that
    has nothing to do with q passes with chance about 1/q per prime
    (fingerprinting: Karp and Rabin, IBM J. Res. Dev. 31, 1987).  The
    counted n come from the test's own smallest-prime-factor sieve."""

    N = 10 ** 6
    QS = (1_000_003, 1_500_007, 2_147_483_647)
    EPS, DELTA, Y, Z = Fraction(3, 10), Fraction(1, 2), 5, 100

    @pytest.fixture(scope="class")
    def spf(self):
        return _smallest_prime_factors(self.N + 1)

    def _counted(self, lemma, n, spf):
        omega, maxpp, window = _prime_power_stats(n, spf, self.Y, self.Z)
        if lemma == 1:
            a, b = self.EPS.numerator, self.EPS.denominator
            # maxpp > n^(1 - a/b), in integers
            return np.array([v >= 2 and m ** b > v ** (b - a) for v, m in
                             zip(n.tolist(), maxpp.tolist())], dtype=bool)
        if lemma == 2:
            keep = n >= spectrum.MIN_OMEGA_N
            ll = np.log(np.log(np.maximum(n, 2).astype(np.float64)))
            return keep & (np.abs(omega - ll) >= float(self.DELTA) * ll)
        return ~window

    def _report(self, lemma, h):
        shift = ShiftParams(h)
        if lemma == 1:
            return friability_density(self.N, shift, self.EPS)
        if lemma == 2:
            return omega_deviation_density(self.N, shift, self.DELTA)
        return divisor_window_density(self.N, shift, self.Y, self.Z)

    def test_moduli_are_primes_past_every_n(self):
        assert all(naive_is_prime(q) and self.N + 1 < q < 2 ** 31
                   for q in self.QS)

    @pytest.mark.parametrize("lemma", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, -1])
    def test_sum_agrees_modulo_three_primes(self, spf, lemma, h):
        ps = np.flatnonzero(spf[2:self.N + 1] == np.arange(2, self.N + 1)) + 2
        n = ps - h
        n = n[n >= 1]
        counted = n[self._counted(lemma, n, spf)]
        report = self._report(lemma, h)
        assert report.count == len(counted)
        num = report.reciprocal_sum.numerator
        den = report.reciprocal_sum.denominator
        last = counted[-1:]
        for q in self.QS:
            s = _inverse_sum(counted, q)
            assert num % q == s * (den % q) % q, q
            # one dropped term fails the check at every q
            dropped = (s - _inverse_sum(last, q)) % q
            assert num % q != dropped * (den % q) % q, q
