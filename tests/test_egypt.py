import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from egyptsieve import egypt
from egyptsieve.arith import is_prime, trial_factor
from egyptsieve.egypt import (
    Decomposition,
    PartialSolution,
    SearchBudget,
    _assembly_items,
    _bitset_subset_sum,
    decompose,
    feasibility_check,
    greedy_decompose,
    merge_by_pigeonhole,
    r_fold_disjoint,
    smooth_dp_decompose,
    smooth_pool,
    verify,
)
from egyptsieve.errors import (
    CapacityError,
    DomainError,
    MergeInsufficient,
    ObstructionError,
    SearchExhausted,
)

from conftest import naive_is_prime

ONE = Fraction(1)


class TestFeasibility:
    def test_eighth_shift_minus2(self):
        res = feasibility_check(Fraction(1, 8), -2)
        assert not res.feasible
        assert res.witness == 2
        assert res.valuation_floor == -2    # v_2(2 - (-2)) = v_2(4) = 2
        assert res.target_valuation == -3
        assert res.provably_impossible

    def test_unit_targets_shift1(self):
        for q in range(1, 30):
            assert feasibility_check(Fraction(1, q), 1).feasible

    def test_three_tenths_shift_minus5(self):
        res = feasibility_check(Fraction(3, 10), -5)
        assert not res.feasible
        assert res.witness == 5
        assert res.valuation_floor == -1    # v_5(5 + 5) = 1
        assert res.target_valuation == -1
        assert not res.provably_impossible

    def test_domain(self):
        with pytest.raises(DomainError):
            feasibility_check(Fraction(-1, 2), 1)
        with pytest.raises(DomainError):
            feasibility_check(Fraction(0), 1)
        with pytest.raises(DomainError):
            feasibility_check(Fraction(1, 2), 0)

    def test_huge_shift_bounded(self):
        # gcd(|h|, den) = P^2 with P ~ 1e30 is beyond trial division and
        # not prime; a prime cofactor of that size is accepted
        P = 10 ** 30 + 57
        assert is_prime(P)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            feasibility_check(Fraction(1, P * P), P * P)
        res = feasibility_check(Fraction(1, P), P)
        assert time.perf_counter() - start < 1.0
        assert res.witness == P
        assert res.provably_impossible

    def test_quarter_shift_minus2_obstructed_but_not_proven(self):
        # 1/4 = 1/(2+2) is representable, yet the gcd gate still flags it
        res = feasibility_check(Fraction(1, 4), -2)
        assert not res.feasible
        assert not res.provably_impossible


class TestOneFactorizer:
    def test_divisors_of_scaled_moduli_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        moduli = set()
        for L in egypt._DP_MODULI + (egypt._ASSEMBLY_MODULUS,):
            for k in range(1, 121):
                moduli |= {L // math.gcd(L, k) * k, L * k}
        for M in sorted(moduli):
            assert trial_factor(M).divisors() == sympy.divisors(M), M

    def test_unfactorable_modulus_is_capacity(self):
        x = Fraction(1, (10 ** 6 + 3) * (10 ** 6 + 33))
        with pytest.raises(CapacityError):
            decompose(x, 1)


class TestGreedy:
    def test_unit(self):
        dec = greedy_decompose(ONE, 1)
        assert dec.primes == (2,)
        assert verify(dec).valid

    def test_unit_excluding_2(self):
        dec = greedy_decompose(ONE, 1, exclude=frozenset({2}))
        assert dec.primes == (3, 5, 7, 13)
        assert dec.denominators == (2, 4, 6, 12)

    def test_half(self):
        dec = greedy_decompose(Fraction(1, 2), 1)
        assert dec.primes == (3,)

    def test_term_budget(self):
        tight = SearchBudget(max_terms=2)
        with pytest.raises(SearchExhausted):
            greedy_decompose(ONE, 1, tight, exclude=frozenset({2, 3}))

    def test_term_budget_boundary(self):
        # (3, 5, 7, 13) takes exactly four steps
        four = greedy_decompose(ONE, 1, SearchBudget(max_terms=4),
                                exclude=frozenset({2}))
        assert four.primes == (3, 5, 7, 13)
        with pytest.raises(SearchExhausted, match="greedy used 3 terms"):
            greedy_decompose(ONE, 1, SearchBudget(max_terms=3),
                             exclude=frozenset({2}))
        with pytest.raises(SearchExhausted, match="past max_prime 12"):
            greedy_decompose(ONE, 1, SearchBudget(max_prime=12),
                             exclude=frozenset({2}))

    def test_prime_budget(self):
        tiny = SearchBudget(max_prime=4)
        with pytest.raises(SearchExhausted):
            greedy_decompose(Fraction(1, 50), 1, tiny)

    def test_obstructed_gate(self):
        with pytest.raises(ObstructionError):
            greedy_decompose(Fraction(1, 8), -2)


class TestSmoothDP:
    def test_third_L12(self):
        dec = smooth_dp_decompose(Fraction(1, 3), 1, 12)
        assert dec.primes == (5, 13)    # 1/4 + 1/12

    def test_unit_L12(self):
        assert smooth_dp_decompose(ONE, 1, 12).primes == (2,)
        dec = smooth_dp_decompose(ONE, 1, 12, exclude=frozenset({2}))
        assert dec.primes == (3, 5, 7, 13)

    def test_five_thirds_L12(self):
        dec = smooth_dp_decompose(Fraction(5, 3), 1, 12)
        assert dec.primes == (2, 3, 7)    # weights 12 + 6 + 2 = 20
        assert verify(dec).valid

    def test_denominator_must_divide(self):
        with pytest.raises(DomainError):
            smooth_dp_decompose(Fraction(1, 7), 1, 12)

    def test_exhausted_reports_pool(self):
        with pytest.raises(SearchExhausted) as exc:
            smooth_dp_decompose(ONE, 1, 12, exclude=frozenset({2, 3}))
        assert exc.value.proven_absent_in_pool
        assert exc.value.pool_size == 3    # {5, 7, 13}
        assert exc.value.weight_total == 6

    def test_exhausted_counts_only_choosable_weight(self):
        # target 6: p = 2 carries weight 12 and can never be chosen
        with pytest.raises(SearchExhausted) as exc:
            smooth_dp_decompose(Fraction(1, 2), 1, 12,
                                exclude=frozenset({3, 13}))
        assert exc.value.weight_total == 5    # {5, 7}; 2 is not counted
        assert exc.value.target == 6

    def test_pool_contents(self):
        pool = smooth_pool(1, 12)
        assert pool == [(12, 2), (6, 3), (3, 5), (2, 7), (1, 13)]


def _oracle_pool(h, L, sympy):
    """(L/d, d + h) for the divisors d of L with d + h prime, by sympy."""
    pool = [(L // d, d + h) for d in sympy.divisors(L)
            if d + h >= 2 and sympy.isprime(d + h)]
    return sorted(pool, key=lambda t: (-t[0], t[1]))


class TestPoolMemo:
    SHIFTS = (1, -1, 2, -2, 3, 5, 6, -6, -1001)

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        for m in egypt._DP_MODULI:
            for k in range(1, 13):
                L = m * k
                for h in self.SHIFTS:
                    want = _oracle_pool(h, L, sympy)
                    assert smooth_pool(h, L) == want, (h, L)
                    if k not in (1, 7, 12) or not want:
                        continue
                    primes = sorted(p for _, p in want)
                    for bound in (primes[len(primes) // 2],
                                  primes[len(primes) // 2] - 1):
                        assert smooth_pool(
                            h, L, SearchBudget(max_prime=bound)) == \
                            [t for t in want if t[1] <= bound], (h, L, bound)
                    exclude = frozenset(primes[::3])
                    assert smooth_pool(h, L, exclude=exclude) == \
                        [t for t in want if t[1] not in exclude], (h, L)

    def test_returned_list_is_private(self):
        want = [(12, 2), (6, 3), (3, 5), (2, 7), (1, 13)]
        hits = egypt._divisor_pool.cache_info().hits
        pool = smooth_pool(1, 12)
        pool.append((0, 0))
        pool[0] = (1, 1)
        del pool[1]
        assert smooth_pool(1, 12) == want
        assert smooth_pool(1, 12, exclude=frozenset({3})) == \
            [t for t in want if t[1] != 3]
        assert egypt._divisor_pool.cache_info().hits > hits


class TestDPModuli:
    def test_integer_bound_matches_fraction_expression(self):
        def reference(t):
            k = t.denominator
            out = []
            for L in egypt._DP_MODULI:
                for M in (L // math.gcd(L, k) * k, L * k):
                    if M not in out and (t * M).denominator == 1 \
                            and t * M <= egypt._MAX_DP_TARGET:
                        out.append(M)
            return out

        for b in range(1, 241):
            for a in range(1, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                t = Fraction(a, b)
                assert egypt._dp_moduli(t) == reference(t), t


class TestDPvsBruteForce:
    def _oracle_reachable(self, weights, target):
        for r in range(len(weights) + 1):
            for combo in itertools.combinations(weights, r):
                if sum(combo) == target:
                    return True
        return False

    def _cases(self):
        rng = random.Random(20260808)
        moduli = [60, 120, 360, 2520, 5040]
        for _ in range(25):
            L = rng.choice(moduli)
            pool = smooth_pool(1, L)
            if len(pool) > 14:
                pool = pool[:14]
            weights = [w for w, _ in pool]
            yield L, pool, weights, rng.randrange(1, sum(weights) + 2)

    def test_agreement_on_random_pools(self):
        agree = 0
        for L, pool, weights, target in self._cases():
            x = Fraction(target, L)
            found = None
            try:
                dec = smooth_dp_decompose(x, 1, L,
                                          SearchBudget(max_prime=max(
                                              p for _, p in pool)))
                found = True
                assert verify(dec).valid
            except SearchExhausted:
                found = False
            except DomainError:
                continue
            assert found == self._oracle_reachable(weights, target)
            agree += 1
        assert agree >= 20


def _reference_subset_sum(weights, target, max_snapshots=24):
    """The per-item backtrack: every item rebuilds the prefix DP from the
    nearest snapshot below it, with masks capped at the residual."""
    n = len(weights)
    if target == 0:
        return []
    if n == 0:
        return None
    stride = max(8, -(-n // max_snapshots))
    cap = (1 << (target + 1)) - 1
    dp = 1
    snaps = {0: 1}
    hit_at = None
    for i, w in enumerate(weights):
        dp = (dp | (dp << w)) & cap
        if (i + 1) % stride == 0:
            snaps[i + 1] = dp
        if dp.bit_length() == target + 1:
            hit_at = i
            break
    if hit_at is None:
        return None

    def prefix_bit(i, t):
        base = (i // stride) * stride
        while base not in snaps:
            base -= stride
        mask = snaps[base] & ((1 << (t + 1)) - 1)
        for j in range(base, i):
            mask = (mask | (mask << weights[j])) & ((1 << (t + 1)) - 1)
        return bool((mask >> t) & 1)

    chosen = []
    t = target
    for i in range(hit_at, -1, -1):
        if t == 0:
            break
        w = weights[i]
        if w > t:
            continue
        if prefix_bit(i, t):
            continue
        chosen.append(i)
        t -= w
    if t != 0:
        raise RuntimeError("subset-sum backtrack lost the target")
    return chosen


class TestSubsetSumBacktrack:
    """The block-cached backtrack returns the per-item reference's exact
    index list, not merely some valid subset."""

    SIZES = (1, 7, 8, 9, 16, 17, 191, 192, 193, 215, 216, 217, 239, 240, 241)

    def _check(self, weights, target, max_snapshots=24):
        got = _bitset_subset_sum(weights, target, max_snapshots)
        assert got == _reference_subset_sum(weights, target, max_snapshots)
        if got is not None:
            assert len(set(got)) == len(got)
            assert sum(weights[i] for i in got) == target
        return got

    def _pools(self, rng, n):
        base = [rng.randrange(1, 400) for _ in range(n)]
        yield base
        yield sorted(base)
        yield sorted(base, reverse=True)
        yield [rng.choice((3, 5, 5, 12, 60)) for _ in range(n)]

    def test_random_pools_match_reference(self):
        rng = random.Random(20261018)
        found = absent = 0
        for n in self.SIZES:
            for weights in self._pools(rng, n):
                total = sum(weights)
                # targets near the total slide the window up from the
                # first items, unreachable ones empty it mid-pass, and one
                # snapshot leaves a single block for the whole backtrack
                for target in (rng.randrange(1, total + 1),
                               rng.randrange(1, total // 3 + 2),
                               total, total - weights[0], total - 1,
                               total - min(weights),
                               max(0, total - rng.randrange(1, 20))):
                    for snaps in (24, 3, 1):
                        got = self._check(weights, target, snaps)
                        found += got is not None
                        absent += got is None
        assert found > 300 and absent > 0

    def test_hit_on_stride_boundary(self):
        # unit weights first reach target k at item k - 1; stride is 8
        ones = [1] * 40
        for k in (7, 8, 9, 16, 17, 24):
            assert self._check(ones, k) == list(range(k - 1, -1, -1))
        # the item that completes the target is the last of its block, or
        # the only item of a fresh block
        rng = random.Random(7)
        for hit in (7, 8, 15, 16):
            weights = [rng.randrange(5, 50) for _ in range(40)]
            weights[hit] = 10 ** 4
            target = sum(weights[:hit + 1])
            got = self._check(weights, target)
            assert got[0] == hit

    def test_unreachable_targets(self):
        assert self._check([2, 4, 6, 8] * 5, 41) is None       # odd
        assert self._check([3, 5, 7], 16) is None              # > total
        assert self._check([10] * 30, 15) is None

    def test_zero_target_and_empty_pool(self):
        assert self._check([], 0) == []
        assert self._check([4, 5], 0) == []
        assert self._check([], 3) is None

    def test_weights_above_target_match_reference(self):
        # weights equal to the target stay in the DP; one past it and far
        # above it are dropped, in front (smooth_pool's decreasing order),
        # interleaved with the light items, or as the whole pool
        rng = random.Random(20261019)
        for n in (1, 7, 9, 17, 193, 241):
            light = [rng.randrange(1, 60) for _ in range(n)]
            for target in (rng.randrange(1, sum(light) + 1), sum(light),
                           light[-1], 59):
                heavy = [target, target + 1, target + 1, 7 * target + 3,
                         10 ** 5][:max(1, n // 2)]
                rng.shuffle(heavy)
                front = sorted(heavy, reverse=True) + sorted(light,
                                                             reverse=True)
                mixed = list(light)
                for w in heavy:
                    mixed.insert(rng.randrange(len(mixed) + 1), w)
                for weights in (front, mixed, heavy,
                                [w for w in heavy if w > target]):
                    for snaps in (24, 3):
                        self._check(weights, target, snaps)

    def _peak(self, weights, target):
        tracemalloc.start()
        try:
            got = _bitset_subset_sum(weights, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return got, peak

    def test_oversized_weights_never_shifted(self):
        # shifting by 2**40 bits would need 128 GiB; dropped items cost
        # nothing
        got, peak = self._peak([2 ** 40, 2 ** 40 + 1, 3, 5], 8)
        assert got == [3, 2]
        assert peak < 1 << 20

    def test_unreachable_huge_targets_build_no_bitset(self):
        # a full-width bitset at target 10**9 is 125 MB: a pool lighter
        # than the target returns before any shift, and a window that
        # empties returns at once
        for weights in ([10 ** 8] * 5 + [3] * 4, [10 ** 9 - 1, 5, 2]):
            got, peak = self._peak(weights, 10 ** 9)
            assert got is None, weights
            assert peak < 1 << 20, weights

    def test_huge_target_near_total_keeps_a_small_window(self):
        # total - target = 0: every live sum is the prefix sum itself
        got, peak = self._peak([6 * 10 ** 8, 4 * 10 ** 8 - 7, 3, 4], 10 ** 9)
        assert got == [3, 2, 1, 0]
        assert peak < 1 << 20


class TestDecompose:
    def test_two_is_two_disjoint_units(self):
        dec = decompose(Fraction(2), 1)
        assert verify(dec).valid
        assert dec.target == 2
        # 1 + (1/2 + 1/4 + 1/6 + 1/12), found by one DP over the divisors
        # of 27720 on the whole target
        assert dec.primes == (2, 3, 5, 7, 13)

    def test_unit_fractions_both_shifts(self):
        for h in (1, -1):
            for q in range(1, 13):
                dec = decompose(Fraction(1, q), h)
                assert verify(dec).valid, (h, q)

    def test_regression_witnesses(self):
        # engine outputs re-verified by exact arithmetic, frozen
        frozen = {
            (1, 1): (2,), (1, 2): (3,), (1, 3): (5, 13), (1, 4): (5,),
            (1, 5): (7, 31), (1, 6): (7,), (1, 7): (13, 29, 43),
            (1, 8): (11, 41), (1, 9): (13, 37), (1, 10): (11,),
            (1, 11): (23, 67, 73, 89, 199), (1, 12): (13,),
            (-1, 1): (2, 3, 5, 7, 11, 23), (-1, 2): (2, 5), (-1, 3): (2,),
        }
        for (h, q), primes in frozen.items():
            assert decompose(Fraction(1, q), h).primes == primes, (h, q)

    # 64 pairs (a, b, h) of the benchmark's targets universe (a <= 4,
    # b <= 120), eight per shift; all but five hand _bitset_subset_sum
    # pools with weights above the DP target
    PINNED_TARGETS = (
        (1, 2, 1), (3, 19, 1), (1, 36, 1), (2, 53, 1), (1, 70, 1),
        (1, 87, 1), (4, 103, 1), (1, 120, 1),
        (1, 4, -1), (3, 20, -1), (2, 37, -1), (4, 53, -1), (3, 70, -1),
        (2, 87, -1), (4, 103, -1), (1, 3, -1),
        (1, 3, 2), (2, 19, 2), (1, 35, 2), (1, 51, 2), (2, 67, 2),
        (3, 85, 2), (3, 101, 2), (4, 119, 2),
        (1, 5, -2), (2, 19, -2), (1, 35, -2), (4, 49, -2), (3, 65, -2),
        (2, 85, -2), (1, 103, -2), (2, 3, -2),
        (1, 4, 3), (1, 20, 3), (2, 37, 3), (3, 53, 3), (3, 70, 3),
        (1, 86, 3), (3, 103, 3), (1, 2, 3),
        (1, 3, 5), (4, 19, 5), (3, 37, 5), (2, 53, 5), (1, 71, 5),
        (2, 87, 5), (3, 103, 5), (1, 2, 5),
        (1, 5, 6), (1, 19, 6), (2, 31, 6), (1, 47, 6), (2, 65, 6),
        (1, 85, 6), (1, 101, 6), (2, 119, 6),
        (1, 11, -6), (1, 25, -6), (1, 37, -6), (2, 53, -6), (1, 73, -6),
        (1, 89, -6), (2, 107, -6), (1, 7, -6),
    )
    PINNED_SHA256 = \
        "a9660c147f3b1fda2535a49b0c8d667519a1344149c33d444a5068c3820d488d"
    # the 31 lines with a = 1 on their own: for them the split is the
    # unit split 1/k = 1/(k+1) + 1/(k(k+1))
    PINNED_UNIT_SHA256 = \
        "c5f74ac3cd7132dafe371869c34b07b130af80d67d49fb1d8f03c2e2a63e08dc"

    def test_pinned_certificates(self):
        # a speedup must leave every certificate byte-identical
        sympy = pytest.importorskip("sympy")
        lines = []
        for a, b, h in self.PINNED_TARGETS:
            dec = decompose(Fraction(a, b), h)
            assert all(map(sympy.isprime, dec.primes)), (a, b, h)
            assert sum(Fraction(1, p - h) for p in dec.primes) == \
                Fraction(a, b), (a, b, h)
            lines.append(f"{a}/{b} {h} " + ",".join(map(str, dec.primes)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PINNED_SHA256
        units = [ln for ln in lines if ln.startswith("1/")]
        assert len(units) == 31
        assert hashlib.sha256("\n".join(units).encode()).hexdigest() == \
            self.PINNED_UNIT_SHA256

    def test_whole_target_solved_at_once(self):
        # one DP over the first modulus hits 33/40 at both shifts
        for h, primes in ((1, (3, 7, 11, 31, 41)), (-1, (2, 3, 7, 11, 29))):
            dec = decompose(Fraction(33, 40), h)
            assert verify(dec).valid, h
            assert dec.primes == primes, h

    # sha256 of the comma-joined primes, computed before the fractional
    # part was solved whole and equal after
    UNITS_CUT_OFF = (
        (Fraction(3), 6001,
         "ac38266b45c29270275a4459f69fe4d7bfb6ac7eb49f8344ea22738624b70a9c"),
        (Fraction(5, 2), 24,
         "b4c8de87613d470b3b5582f07fcf3fdfff9576763e4bab0f3af1a845b95bbc32"),
    )

    def test_integer_part_solved_unit_by_unit(self):
        # assembly takes only targets below about 2.3, so 3 at h = 1 is
        # three disjoint 1s, the third found by assembly (5 s); solved
        # whole, 3 exhausts every strategy
        sympy = pytest.importorskip("sympy")
        for x, n, digest in self.UNITS_CUT_OFF:
            dec = decompose(x, 1)
            assert verify(dec).valid, x
            assert len(dec.primes) == n, x
            assert all(map(sympy.isprime, dec.primes)), x
            assert sum(Fraction(1, p - 1) for p in dec.primes) == x, x
            assert hashlib.sha256(",".join(map(str, dec.primes)).encode()) \
                .hexdigest() == digest, x

    def test_whole_target_needs_no_unit_part(self):
        # whole targets whose unit parts 1/5 (h = 3) and 1/360 (h = 2)
        # fail the gate
        assert decompose(Fraction(4, 5), 3).primes == (5, 7, 23)
        assert verify(decompose(Fraction(4, 359), 2)).valid

    def test_obstructed(self):
        with pytest.raises(ObstructionError):
            decompose(Fraction(1, 8), -2)

    def test_deterministic(self):
        a = decompose(Fraction(5, 3), 1)
        b = decompose(Fraction(5, 3), 1)
        assert a == b

    def test_exclusions_respected(self):
        dec = decompose(ONE, 1, exclude=frozenset({2, 3}))
        assert verify(dec).valid
        assert not {2, 3} & set(dec.primes)

    def test_mixed_target(self):
        dec = decompose(Fraction(7, 4), -1)
        assert verify(dec).valid


def _targets_universe():
    """Every reduced a/b < 1 with a <= 4 and b <= 120, under eight shifts."""
    return [(Fraction(a, b), h)
            for b in range(2, 121) for a in range(1, min(b, 5))
            if math.gcd(a, b) == 1
            for h in (1, -1, 2, -2, 3, 5, 6, -6)]


def _outcome(x, h):
    try:
        return ("ok", decompose(x, h).primes)
    except ObstructionError as exc:
        return ("obstructed", exc.result.witness, exc.result.valuation_floor)
    except SearchExhausted as exc:
        return ("exhausted", str(exc))


class TestTargetsUniverse:
    def test_every_ungated_target(self):
        # ungated targets that still raise fail the gate on a part of
        # the split a/k = a/(k+1) + a/(k(k+1)), all at h = +-6
        sympy = pytest.importorskip("sympy")
        solved, obstructed = 0, []
        for x, h in _targets_universe():
            if not feasibility_check(x, h).feasible:
                continue
            try:
                dec = decompose(x, h)
            except ObstructionError:
                obstructed.append((x, h))
                continue
            assert all(map(sympy.isprime, dec.primes)), (x, h)
            assert len(set(dec.primes)) == len(dec.primes), (x, h)
            assert sum(Fraction(1, p - h) for p in dec.primes) == x, (x, h)
            solved += 1
        assert solved >= 1789
        assert len(obstructed) <= 66
        assert {h for _, h in obstructed} <= {6, -6}


class TestMemoOrder:
    def test_results_do_not_depend_on_call_order(self, monkeypatch):
        rng = random.Random(20261021)
        sample = rng.sample(_targets_universe(), 200)
        with monkeypatch.context() as m:
            m.setattr(egypt, "_divisor_pool", egypt._divisor_pool.__wrapped__)
            want = {t: _outcome(*t) for t in sample}
        assert {o[0] for o in want.values()} >= {"ok", "obstructed"}
        egypt._divisor_pool.cache_clear()
        shuffled = list(sample)
        rng.shuffle(shuffled)
        for order in (sample, shuffled):
            assert {t: _outcome(*t) for t in order} == want
        assert egypt._divisor_pool.cache_info().hits > 0


class TestVerify:
    def test_valid_witness(self):
        dec = Decomposition(h=1, target=ONE, primes=(3, 5, 7, 13))
        assert verify(dec).valid

    def test_duplicate(self):
        dec = Decomposition(h=1, target=ONE, primes=(3, 3))
        res = verify(dec)
        assert not res.valid
        assert "increasing" in res.reason

    def test_not_prime(self):
        dec = Decomposition(h=1, target=ONE, primes=(4, 5))
        res = verify(dec)
        assert not res.valid
        assert "not prime" in res.reason

    def test_wrong_sum(self):
        dec = Decomposition(h=1, target=ONE, primes=(3, 5))
        assert not verify(dec).valid

    def test_negative_denominator(self):
        dec = Decomposition(h=7, target=ONE, primes=(3, 11))
        res = verify(dec)
        assert not res.valid
        assert "denominator" in res.reason

    def test_long_certificates(self):
        # the exact sum of 8,000 reciprocals is past int-to-decimal's
        # 4,300-digit limit; the reason for a wrong one quotes no digits
        from egyptsieve.arith import prime_array
        odd = [int(p) for p in prime_array(100000)[1:8002]]
        primes = tuple(odd[:8000])
        total = Fraction(0)
        for p in primes:
            total += Fraction(1, p - 1)
        assert total.denominator.bit_length() > 4300 * 3.33
        assert verify(Decomposition(h=1, target=total, primes=primes)).valid
        for wrong in (primes[:-1] + (odd[8000],), primes[:-1]):
            res = verify(Decomposition(h=1, target=total, primes=wrong))
            assert not res.valid
            assert res.reason == \
                f"sum of the {len(wrong)} reciprocals is below the target"
        res = verify(Decomposition(h=1, target=total - Fraction(1, 10 ** 9),
                                   primes=primes))
        assert res.reason == "sum of the 8000 reciprocals is above the target"


class TestRFold:
    def test_r1_half(self):
        decs = r_fold_disjoint(Fraction(1, 2), 1, 1)
        assert len(decs) == 1
        assert decs[0].primes == (3,)

    def test_r2_unit(self):
        decs = r_fold_disjoint(ONE, 1, 2)
        assert len(decs) == 2
        assert not set(decs[0].primes) & set(decs[1].primes)
        for d in decs:
            assert verify(d).valid

    def test_r0(self):
        with pytest.raises(DomainError):
            r_fold_disjoint(ONE, 1, 0)

    # the third certificate runs the unit split (exhausted at every
    # depth), the greedy DP retries and the assembly stage, none of which
    # test_pinned_certificates reaches
    CERTIFY_PATH_SHA256 = \
        "9b4a19d5c2256a45bc005f7c19b60f75637591bdc1a85c08187284dbfd410ff9"

    def test_pinned_certify_path(self):
        decs = r_fold_disjoint(ONE, 1, 3, SearchBudget(max_prime=10 ** 6))
        lines = [",".join(map(str, d.primes)) for d in decs]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CERTIFY_PATH_SHA256

    # the certify workload's second instance; most of its subset-sum
    # pools are lighter than their target
    CERTIFY_HALF_SHA256 = \
        "6d28517d4067738bb02e8f77e241c5a1f007b2b9200eafc7aaac334795cb2421"

    def test_pinned_certify_half(self):
        decs = r_fold_disjoint(Fraction(1, 2), 1, 4,
                               SearchBudget(max_prime=10 ** 6))
        lines = [",".join(map(str, d.primes)) for d in decs]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CERTIFY_HALF_SHA256


class TestAssemblyItems:
    def test_against_naive_primes(self):
        # for h < 0 the 13-rough part q of p - h reaches limit - h
        M, limit = egypt._ASSEMBLY_MODULUS, 1000
        for h in (-10, -1001, 1):
            direct, pair_q = set(), {}
            for p in filter(naive_is_prime, range(limit + 1)):
                e, q = 1, p - h
                for f in (2, 3, 5, 7, 11, 13):
                    while q > 0 and q % f == 0:
                        e, q = e * f, q // f
                if q < 1 or M % e:
                    continue
                if q == 1:
                    direct.add(p)
                elif q > 13 and naive_is_prime(q):
                    pair_q[p] = (e, q)
            items = _assembly_items(h, M, frozenset(), limit)
            assert {ps[0] for _, ps in items if len(ps) == 1} == direct, h
            used = [p for _, ps in items for p in ps]
            assert len(used) == len(set(used)), h
            for w, ps in items:
                assert isinstance(w, int), (h, ps)
                assert Fraction(w, M) == sum(Fraction(1, p - h) for p in ps), \
                    (h, ps)
                if len(ps) == 2:
                    (e1, q1), (e2, q2) = pair_q[ps[0]], pair_q[ps[1]]
                    assert q1 == q2 and (e1 + e2) % q1 == 0, (h, ps)
            assert h == -1001 or len(items) > len(direct), h

    def test_exhausted_reports_pool(self):
        # x = 1/97 at primes <= 200: every weight M/e and every pair's
        # weight is a multiple of 97 (no p - 1 <= 199 has the factor 97),
        # the target M/97 is not, so the DP misses although the weights
        # <= target add up to more than it
        x, limit = Fraction(1, 97), 200
        M = egypt._ASSEMBLY_MODULUS * 97
        with pytest.raises(SearchExhausted) as exc:
            egypt._assembly_decompose(x, 1, frozenset(),
                                      SearchBudget(max_prime=limit))
        items = _assembly_items(1, M, frozenset(), limit)
        target = egypt._ASSEMBLY_MODULUS
        assert exc.value.proven_absent_in_pool
        assert exc.value.target == target
        assert exc.value.pool_size == len(items)
        assert any(w > target for w, _ in items)
        assert exc.value.weight_total == \
            sum(w for w, _ in items if w <= target) > target


def _dp_parts(value, h, count, exclude=frozenset()):
    """Build ``count`` disjoint verified parts of the given value."""
    used = set(exclude)
    parts = []
    for _ in range(count):
        dec = None
        for L in (12, 27720, 360360, 720720, 4324320):
            if L % Fraction(value).denominator:
                continue
            try:
                dec = smooth_dp_decompose(Fraction(value), h, L,
                                          exclude=frozenset(used))
                break
            except (SearchExhausted, DomainError):
                continue
        assert dec is not None, f"could not build a part of value {value}"
        used.update(dec.primes)
        parts.append((Fraction(value), dec.primes))
    return parts


class TestMerge:
    def test_two_halves(self):
        parts = PartialSolution(h=1, parts=tuple(_dp_parts(Fraction(1, 2), 1, 2)))
        dec = merge_by_pigeonhole(parts)
        assert dec.target == 1
        assert verify(dec).valid

    def test_three_thirds_with_noise(self):
        items = _dp_parts(Fraction(1, 3), 1, 3)
        used = set().union(*(set(m) for _, m in items))
        noise = _dp_parts(Fraction(1, 2), 1, 1, exclude=used)
        parts = PartialSolution(h=1, parts=tuple(noise + items))
        dec = merge_by_pigeonhole(parts)
        assert dec.target == 1
        assert verify(dec).valid
        # the three 1/3 parts merged, not the lone 1/2
        assert set(dec.primes) == set().union(*(set(m) for _, m in items))

    def test_insufficient(self):
        half = _dp_parts(Fraction(1, 2), 1, 1)
        thirds = _dp_parts(Fraction(1, 3), 1, 2,
                           exclude=set(half[0][1]))
        parts = PartialSolution(h=1, parts=tuple(half + thirds))
        with pytest.raises(MergeInsufficient) as exc:
            merge_by_pigeonhole(parts)
        assert exc.value.value_counts == {2: 1, 3: 2}

    def test_overlap_rejected(self):
        parts = PartialSolution(h=1, parts=(
            (Fraction(1, 2), (3,)),
            (Fraction(1, 2), (3,)),
        ))
        with pytest.raises(DomainError):
            merge_by_pigeonhole(parts)

    def test_bad_identity_rejected(self):
        parts = PartialSolution(h=1, parts=((Fraction(1, 2), (5,)),))
        with pytest.raises(DomainError):
            merge_by_pigeonhole(parts)

    def test_non_unit_value_rejected(self):
        parts = PartialSolution(h=1, parts=((Fraction(2, 3), (3, 7)),))
        with pytest.raises(DomainError):
            merge_by_pigeonhole(parts)


class TestObstructionSoundness:
    def test_valuation_floor_sampled(self):
        # h = -2: denominators p + 2; only p = 2 gives an even one (4),
        # so v_2 of any subset sum stays >= -2
        rng = random.Random(99)
        from egyptsieve.arith import prime_array
        primes = [int(p) for p in prime_array(10 ** 3)]
        for _ in range(500):
            k = rng.randrange(1, 12)
            subset = rng.sample(primes, k)
            s = sum(Fraction(1, p + 2) for p in subset)
            v2 = 0
            num, den = s.numerator, s.denominator
            while den % 2 == 0:
                den //= 2
                v2 -= 1
            while num % 2 == 0 and num:
                num //= 2
                v2 += 1
            assert v2 >= -2
