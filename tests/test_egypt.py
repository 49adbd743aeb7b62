import hashlib
import itertools
import json
import math
import operator
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyptsieve import arith, egypt
from egyptsieve.arith import (
    _PSI_13,
    _pairwise,
    is_prime,
    prime_array,
)
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
from egyptsieve.reports import certificate_dict

from conftest import kernel_walks, naive_is_prime

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


    @pytest.mark.parametrize("h", [True, 1.0, Fraction(-2), "1"])
    def test_shift_read_exactly(self, h):
        with pytest.raises(DomainError,
                           match=re.escape(f"shift {h!r} not an integer")):
            feasibility_check(Fraction(1, 2), h)

    def test_numpy_shift_reads_as_its_int(self):
        for x in (Fraction(1, 8), Fraction(1, 3)):
            assert feasibility_check(x, np.int64(-2)) == \
                feasibility_check(x, -2)


class TestSearchBudgetFields:
    @pytest.mark.parametrize("field, value", [
        ("max_prime", 1e6), ("max_prime", True), ("max_terms", 2.0),
        ("max_terms", Fraction(4)),
    ])
    def test_fields_read_exactly(self, field, value):
        with pytest.raises(DomainError,
                           match=re.escape(f"{field} {value!r} not an")):
            SearchBudget(**{field: value})

    def test_numpy_fields_stored_as_int(self):
        budget = SearchBudget(np.int64(1000), np.int32(5))
        assert budget == SearchBudget(1000, 5)
        assert (type(budget.max_prime), type(budget.max_terms)) == (int, int)


class TestOneFactorizer:
    def test_divisors_of_scaled_moduli_against_sympy(self):
        # the pool's divisors come from trial_factor's (prime, exponent)
        # pairs, less the primes of h; the reference pool lists sympy's
        # divisors of each modulus.  The shifts sharing a prime q with the
        # modulus take p = q through d = q - h alone: d = 8 and 9 at
        # h = -6, 4 at -2, 12 and 15 at -10
        sympy = pytest.importorskip("sympy")
        build = egypt._divisor_pool.__wrapped__
        forced = {-6: (8, 9), -2: (4,), -10: (12, 15)}
        for h, ds in forced.items():
            assert all((27720 // d, d + h) in build(h, 27720, 10 ** 8)
                       for d in ds)
        for h in (1, -1, 6, -5, -6, -2, 2, 3, -10, 30):
            for L in (1, 12, 27720, 360360, 720720, 4324320,
                      egypt._ASSEMBLY_MODULUS):
                for M, max_prime in ((L, 10 ** 8), (L * 113, 10 ** 8),
                                     (L * 120, 1000)):
                    want = sorted(((M // d, d + h) for d in sympy.divisors(M)
                                   if 2 <= d + h <= max_prime
                                   and sympy.isprime(d + h)),
                                  key=lambda t: (-t[0], t[1]))
                    assert build(h, M, max_prime) == tuple(want), \
                        (h, M, max_prime)

    def test_unfactorable_modulus_is_a_refusal(self):
        # every scaled modulus of 101/k has k's composite cofactor past
        # trial division: each gets a record with no pool, and the search
        # goes on through the split to assembly and greedy.  Primes to
        # 1e10 keep 101/k above 1/(max_prime - 1), where the DP runs
        k = (10 ** 6 + 3) * (10 ** 6 + 33)
        with pytest.raises(SearchExhausted) as exc:
            decompose(Fraction(101, k), 1, SearchBudget(max_prime=10 ** 10))
        recs = exc.value.attempts
        refused = [a for a in recs if a.stage == "dp" and a.pool_size is None
                   and a.modulus is not None]
        assert refused and all(a.modulus % k == 0 for a in refused)
        assert {"assembly", "greedy"} <= {a.stage for a in recs}
        with pytest.raises(SearchExhausted, match="no pool") as exc:
            smooth_dp_decompose(Fraction(1, k), 1, 27720 * k)
        assert exc.value.attempts == (
            egypt._Attempt("dp", Fraction(1, k), 27720 * k),)


class TestGreedy:
    def test_unit(self):
        dec = greedy_decompose(ONE, 1)
        assert dec.primes == (2,)
        assert verify(dec).valid

    def test_unit_excluding_2(self):
        dec = greedy_decompose(ONE, 1, exclude=frozenset({2}))
        assert dec.primes == (3, 5, 7, 13)
        assert tuple(p - dec.h for p in dec.primes) == (2, 4, 6, 12)

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

    def test_numbers_past_the_decimal_limit_in_messages(self):
        # the remainder, and smooth_dp_decompose's modulus, are written in
        # hex past MAX_DECIMAL_BITS bits; str() of them once raised the
        # int-to-str ValueError in place of the search's own error
        big = 10 ** 5000
        with pytest.raises(SearchExhausted, match=hex(big)):
            greedy_decompose(Fraction(1, 3) + Fraction(1, big), 1,
                             SearchBudget(1000, 3))
        with pytest.raises(DomainError, match=hex(big + 1)):
            smooth_dp_decompose(Fraction(1, 3), 1, big + 1)

    def test_prime_budget(self):
        tiny = SearchBudget(max_prime=4)
        with pytest.raises(SearchExhausted):
            greedy_decompose(Fraction(1, 50), 1, tiny)

    def test_obstructed_gate(self):
        with pytest.raises(ObstructionError):
            greedy_decompose(Fraction(1, 8), -2)

    def test_walk_tests_no_even_integer(self, monkeypatch):
        seen = []
        monkeypatch.setattr(egypt, "is_prime",
                            lambda n: seen.append(n) or is_prime(n))
        budget = SearchBudget()
        # walks from 1001, 999 and 2, with the primes a walk over every
        # integer finds
        for rem, h, used, want in [(Fraction(1, 1000), 1, set(), 1009),
                                   (Fraction(1, 1000), -1, {1009}, 1013),
                                   (ONE, 1, set(), 2), (ONE, 1, {2}, 3),
                                   (ONE, -1, set(), 2)]:
            assert egypt._greedy_prime(rem, h, used, budget) == want
        assert seen and all(n % 2 for n in seen)
        assert egypt._greedy_prime(ONE, 1, {2, 3}, SearchBudget(
            max_prime=4)) is None


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
        (miss,) = exc.value.attempts
        assert miss.primes is None    # a miss proven for this pool
        assert miss.pool_size == 3    # {5, 7, 13}
        assert miss.weight_total == 6

    def test_exhausted_counts_only_choosable_weight(self):
        # target 6: p = 2 carries weight 12 and can never be chosen
        with pytest.raises(SearchExhausted) as exc:
            smooth_dp_decompose(Fraction(1, 2), 1, 12,
                                exclude=frozenset({3, 13}))
        (miss,) = exc.value.attempts
        assert miss.weight_total == 5    # {5, 7}; 2 is not counted
        assert miss.dp_target == 6
        assert exc.value.target == "1/2"

    def test_pool_contents(self):
        pool = smooth_pool(1, 12)
        assert pool == [(12, 2), (6, 3), (3, 5), (2, 7), (1, 13)]


def _oracle_pool(h, L, sympy, max_prime=SearchBudget().max_prime):
    """(L/d, d + h) for the divisors d of L with d + h a prime <=
    max_prime, by sympy."""
    pool = [(L // d, d + h) for d in sympy.divisors(L)
            if 2 <= d + h <= max_prime and sympy.isprime(d + h)]
    return sorted(pool, key=lambda t: (-t[0], t[1]))


class TestPoolMemo:
    SHIFTS = (1, -1, 2, -2, 3, 5, 6, -6, -1001, 10 ** 8 + 1)

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        for m in (27720, 360360, 720720, 4324320):
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
        # most divisors of these L pass max_prime - h, which the shifts
        # near and above max_prime bring down to 1 and below
        for L, bound in ((30030 ** 3, 1000), (30030 ** 3 << 20, 30030)):
            for h in self.SHIFTS + (bound - 2, bound - 1, bound + 1):
                assert smooth_pool(h, L, SearchBudget(max_prime=bound)) == \
                    _oracle_pool(h, L, sympy, bound), (h, L, bound)

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


def _flipped_reference(weights, target, max_snapshots=24):
    """The reference asked each question the flips ask: while the items
    of weight <= t weigh S with t < S < 2t, the surplus S - t over those
    items in reverse order, answered by complement, highest index
    first."""
    if target == 0:
        return []
    keep = [i for i, w in enumerate(weights) if w <= target]
    total = sum(weights[i] for i in keep)
    if not target < total < 2 * target:
        return _reference_subset_sum(weights, target, max_snapshots)
    inner = _flipped_reference([weights[i] for i in reversed(keep)],
                               total - target, max_snapshots)
    if inner is None:
        return None
    taken = {keep[-1 - j] for j in inner}
    return [i for i in reversed(keep) if i not in taken]


class TestSubsetSumBacktrack:
    """The block-cached backtrack returns the per-item reference's exact
    index list, asked each question the flips to the surplus ask, not
    merely some valid subset."""

    SIZES = (1, 7, 8, 9, 16, 17, 191, 192, 193, 215, 216, 217, 239, 240, 241)

    def _check(self, weights, target, max_snapshots=24):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(egypt, "_MAX_SNAPSHOTS", max_snapshots)
            got = _bitset_subset_sum(weights, target)
        assert got == _flipped_reference(weights, target, max_snapshots)
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

    def test_common_factor_runs_scaled_with_the_same_answer(self):
        # the DP runs on w / g and target / g for the gcd g of the kept
        # weights: k-fold pools give the unscaled reference's index list,
        # and a target off the multiples of k gives None
        rng = random.Random(20261020)
        for n in self.SIZES:
            for weights in self._pools(rng, n):
                total = sum(weights)
                for target in (rng.randrange(1, total + 1),
                               total - min(weights)):
                    want = _flipped_reference(weights, target)
                    for k in (2, 8, 72, 864, 1009):
                        scaled = [k * w for w in weights]
                        assert _bitset_subset_sum(scaled, k * target) == want
                        off = k * target + rng.randrange(1, k)
                        assert _bitset_subset_sum(scaled, off) is None

    def test_divisor_pools_sharing_a_factor_match_reference(self):
        # pools at shifts with a prime of the modulus: their kept weights
        # keep that prime's whole part of M, except through p = 2 or 3
        rng = random.Random(35)
        shared = found = 0
        for h in (2, -2, 3, 5, 6, -6):
            for b in rng.sample(range(2, 121), 12):
                t = Fraction(rng.randrange(1, 5), b)
                M = egypt._dp_moduli(t)[0]
                weights = [w for w, _ in smooth_pool(h, M)]
                target = t.numerator * (M // t.denominator)
                got = _bitset_subset_sum(weights, target)
                assert got == _flipped_reference(weights, target), (h, t)
                shared += math.gcd(*(w for w in weights if w <= target)) > 1
                found += got is not None
        assert shared > 60 and 20 < found < 52

    def test_scaled_dp_builds_narrow_integers(self, monkeypatch):
        # 4/107 at h = 6 over 462702240 = 2^5 3^3 5 7 11 13 107: the 15
        # pool weights at most the target 17297280 share 864 = 2^5 3^3, so
        # no integer the DP builds is wider than window / 864 + 1 bits
        M = 462702240
        weights = [w for w, _ in smooth_pool(6, M)]
        target = 4 * (M // 107)
        kept = [w for w in weights if w <= target]
        assert len(kept) == 15 and math.gcd(*kept) == 864
        window = min(target, sum(kept) - target)
        widths = []
        real = egypt._slide

        def spy(dp, off, w, t, rest):
            out = real(dp, off, w, t, rest)
            widths.append(max(dp.bit_length(), out[0].bit_length()))
            return out

        monkeypatch.setattr(egypt, "_slide", spy)
        miss = egypt._divisor_dp(Fraction(4, 107), 6, M,
                                 egypt.DEFAULT_BUDGET, frozenset())
        assert miss.primes is None and miss.dp_target == target
        assert widths and max(widths) <= window // 864 + 1

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

    def _wide_pools(self, rng):
        # few items, wide windows: the totals sit near twice the target
        for _ in range(30):
            n = rng.randrange(2, 41)
            target = int(2 ** rng.uniform(20, math.log2(10 ** 8)))
            weights = [rng.randrange(1, 4 * target // n + 2)
                       for _ in range(n)]
            if rng.random() < 0.3:
                weights[rng.randrange(n)] = target + rng.randrange(1, 99)
            picked = [w for w in weights if w <= target and rng.random() < .5]
            hit = sum(picked)
            evens = [2 * (w // 2) + 2 for w in weights]
            yield weights, [target, hit, hit + 1, hit - 1]
            yield evens, [target | 1, hit | 1]

    def test_few_items_in_wide_windows(self):
        # targets >= 2^20: every answer is exhaustive search's for
        # n <= 16, and every index list sums to the target
        rng = random.Random(20261019)
        verdicts = []
        for weights, targets in self._wide_pools(rng):
            for target in targets:
                if target < 1 << 20:
                    continue
                got = _bitset_subset_sum(weights, target)
                if got is not None:
                    assert sum(weights[i] for i in got) == target
                if len(weights) <= 16:
                    reachable = any(
                        sum(c) == target for r in range(len(weights) + 1)
                        for c in itertools.combinations(weights, r))
                    assert (got is not None) == reachable
                    verdicts.append(reachable)
        assert 0 < verdicts.count(True) < len(verdicts)

    def test_small_surplus_slides_few_items(self, monkeypatch):
        # 1,000 items weighing 2 % more than the target: the surplus is
        # hit after a few dozen items, where the target itself was hit
        # only near the end (1,942 slides before the flip)
        rng = random.Random(20261022)
        weights = [rng.randrange(1, 10 ** 4) for _ in range(1000)]
        target = sum(weights) - sum(weights) // 50
        slides = []
        real = egypt._slide

        def spy(*args):
            slides.append(args[2])
            return real(*args)

        monkeypatch.setattr(egypt, "_slide", spy)
        got = _bitset_subset_sum(weights, target)
        assert sum(weights[i] for i in got) == target
        assert len(slides) < len(weights) // 10

    def test_powers_of_two_flip_once_per_item(self, monkeypatch):
        # every round's surplus is below its target, so the pool
        # 2^0..2^1199 flips 1,199 times: a loop, no RecursionError.  The
        # last round slides one 1-bit window; a DP on a wider one is
        # stopped before it builds integers of 2^k bits
        real = egypt._slide

        def spy(dp, off, w, t, rest):
            assert dp.bit_length() < 64 and w < 1 << 64
            return real(dp, off, w, t, rest)

        monkeypatch.setattr(egypt, "_slide", spy)
        weights = [1 << k for k in range(1200)]
        target = int("10" * 600, 2)
        got = _bitset_subset_sum(weights, target)
        assert got == [k for k in range(1199, -1, -1) if target >> k & 1]

    @given(st.lists(st.integers(1, 300), max_size=40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_target_and_surplus_agree(self, weights, data):
        # a subset hits t exactly when its complement hits S - t
        total = sum(weights)
        target = data.draw(st.integers(0, total))
        got = _bitset_subset_sum(weights, target)
        other = _bitset_subset_sum(weights, total - target)
        assert (got is None) == (other is None)
        for want, idx in ((target, got), (total - target, other)):
            if idx is not None:
                assert len(set(idx)) == len(idx)
                assert sum(weights[i] for i in idx) == want

    # 45/193 at h = -6 over 69549480 = 2^3 3^2 5 7 11 13 193: all 14 pool
    # weights are at most the target 16216200, p = 2 and p = 3 (d = 8 and
    # 9) keep their gcd at 1, and no subset of them hits the target
    WIDE_MISS_MODULUS = 69549480

    def test_wide_unreachable_pool_misses(self):
        M = self.WIDE_MISS_MODULUS
        miss = egypt._divisor_dp(Fraction(45, 193), -6, M,
                                 egypt.DEFAULT_BUDGET, frozenset())
        assert miss.primes is None and miss.pool_size == 14
        target = 45 * (M // 193)
        kept = [w for w, _ in smooth_pool(-6, M) if w <= target]
        assert len(kept) == 14 and math.gcd(*kept) == 1

    def test_wide_unreachable_pool_stays_near_its_window(self):
        # the forward pass slides a 2 MB window once per item to learn
        # that the pool misses, and its peak stays under three windows
        M = self.WIDE_MISS_MODULUS
        weights = [w for w, _ in smooth_pool(-6, M)]
        target = 45 * (M // 193)
        kept = [w for w in weights if w <= target]
        window_bytes = min(target, sum(kept) - target) // 8
        got, peak = self._peak(weights, target)
        assert got is None and peak < 3 * window_bytes

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
        "fd8908dda4259afd736e6c92a1b7e286c33a6e95ad3524f83924497be05661c3"
    # the 31 lines with a = 1 on their own: for them the split is the
    # unit split 1/k = 1/(k+1) + 1/(k(k+1))
    PINNED_UNIT_SHA256 = \
        "c5f74ac3cd7132dafe371869c34b07b130af80d67d49fb1d8f03c2e2a63e08dc"

    def test_pinned_certificates(self):
        # every certificate is checked by sympy and an exact sum, then
        # pinned: a change that picks other subsets must say so
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
        sympy = pytest.importorskip("sympy")
        for h, primes in ((1, (3, 5, 19, 61, 421, 2521)),
                          (-1, (2, 3, 5, 13, 307, 3079))):
            got = egypt._solve_single(Fraction(33, 40), h, set(),
                                      egypt.DEFAULT_BUDGET)
            assert [(a.stage, a.modulus) for a in got] == [("dp", 27720)]
            dec = decompose(Fraction(33, 40), h)
            assert dec.primes == got[0].primes == primes, h
            assert all(map(sympy.isprime, primes)), h
            assert sum(Fraction(1, p - h) for p in primes) == \
                Fraction(33, 40), h

    # sha256 of the comma-joined primes
    UNITS_CUT_OFF = (
        (Fraction(3), 499,
         "c916d2c1ac95ff4400decc240f85b4028a8a6ba2ff583376db14e18fe515f5a9"),
        (Fraction(5, 2), 23,
         "b06029c2f5c5d2a49208b785fe70d508c62beaf91a21df203888251ef94e36e8"),
    )

    def test_integer_part_solved_unit_by_unit(self):
        # assembly takes only targets below about 2.3, so 3 at h = 1 is
        # three disjoint 1s, the third found by assembly; solved
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


# The ungated universe targets whose search stops at a split part or a
# greedy residual that shares a factor with h = +-6.  Such a part says
# nothing about x itself (the paper's theorem covers every ungated
# target), so the search is exhausted, not obstructed.
_PART_GATED = """
    2/5:-6 3/5:-6 4/5:6 4/5:-6 2/7:-6 3/7:-6 4/7:-6 2/11:-6 3/11:-6
    4/11:-6 4/13:-6 3/19:6 3/29:6 2/31:-6 1/41:-6 2/41:-6 3/41:-6 2/53:6
    3/53:6 4/53:6 1/59:6 3/59:6 4/59:6 1/61:-6 2/61:6 2/61:-6 4/61:-6
    2/67:-6 1/71:-6 2/71:-6 3/71:-6 4/71:6 4/71:-6 3/73:6 3/73:-6 1/79:6
    2/79:6 3/79:6 3/79:-6 4/79:6 4/79:-6 1/83:-6 2/83:-6 1/89:6 2/89:6
    3/89:6 4/89:6 1/101:-6 2/101:-6 3/101:-6 4/101:-6 2/103:6 2/103:-6
    3/103:6 3/103:-6 4/103:6 4/103:-6 3/107:6 4/107:6 1/109:6 2/109:6
    3/109:6 4/109:6 2/113:-6 3/113:-6 4/113:-6
"""


class TestTargetsUniverse:
    def test_every_ungated_target(self):
        # no ungated target is obstructed; those that raise stop at a
        # part of the split a/k = a/(k+1) + a/(k(k+1)), all at h = +-6
        sympy = pytest.importorskip("sympy")
        solved, exhausted = 0, []
        for x, h in _targets_universe():
            if not feasibility_check(x, h).feasible:
                continue
            try:
                dec = decompose(x, h)
            except SearchExhausted:
                exhausted.append((x, h))
                continue
            assert all(map(sympy.isprime, dec.primes)), (x, h)
            assert len(set(dec.primes)) == len(dec.primes), (x, h)
            assert sum(Fraction(1, p - h) for p in dec.primes) == x, (x, h)
            solved += 1
        assert solved >= 1789
        assert len(exhausted) <= 66
        assert {h for _, h in exhausted} <= {6, -6}

    def test_gated_part_is_no_proof_about_x(self):
        pairs = [pair.split(":") for pair in _PART_GATED.split()]
        assert len(pairs) == 66 and ["4/5", "6"] in pairs
        for x, h in ((Fraction(x), int(h)) for x, h in pairs):
            assert feasibility_check(x, h).feasible, (x, h)
            with pytest.raises(SearchExhausted) as exc:
                decompose(x, h)
            # the exhaustion names the part, never x
            part = Fraction(exc.value.target)
            assert part != x and math.gcd(abs(h), part.denominator) > 1
            assert "provably" not in str(exc.value)


def _digest(attempts):
    return hashlib.sha256(
        repr([tuple(a) for a in attempts]).encode()).hexdigest()[:16]


class TestAttemptRecords:
    """Each cascade stage returns records; decompose raises SearchExhausted
    once, at its end, with every record so far as its attempts."""

    def test_gated_split_part(self):
        # every pool of 4/5 misses; the split's first part 2/3 shares the
        # factor 3 with h = 6, and its lone record stops the search
        with pytest.raises(SearchExhausted) as exc:
            decompose(Fraction(4, 5), 6)
        assert str(exc.value) == (
            "part 2/3 of the search has a denominator sharing a factor "
            "with |h| = 6; the search stops there")
        assert exc.value.target == "2/3"
        x = Fraction(4, 5)
        assert [tuple(a) for a in exc.value.attempts] == [
            ("dp", x, 27720, 7, 13680, 22176, None),
            ("dp", x, 138600, 11, 75312, 110880, None),
            ("dp", x, 360360, 13, 218448, 288288, None),
            ("dp", x, 1801800, 21, 1189008, 1441440, None),
            ("gate", Fraction(2, 3), None, None, None, None, None),
        ]

    def test_split_chain_then_assembly_then_greedy(self):
        # primes <= 100: every pool weight of 1/97 and of its split chain
        # 1/98, 1/99 (each the first part of the one before) exceeds the
        # DP target, so no weight counts; the chain's next part 1/100 is
        # below 1/(100 - 1) and refused before any pool; every assembly
        # item outweighs 1/97 too, and greedy finds no prime at all
        # (1/(p - 1) <= 1/97 needs p > 97, and 98..100 are not prime)
        with pytest.raises(SearchExhausted) as exc:
            decompose(Fraction(1, 97), 1, SearchBudget(max_prime=100))
        assert str(exc.value) == "all strategies exhausted for target 1/97"
        assert exc.value.target == "1/97"
        got = exc.value.attempts
        x = Fraction(1, 97)
        split_chain = [Fraction(1, k) for k in (97, 98, 99)]
        assert [a.part for a in got[:-3]] == [split_chain[0]] * 2 + \
            [t for t in split_chain[1:] for _ in range(4)]
        assert all(a.stage == "dp" and a.pool_size and a.weight_total == 0
                   and a.primes is None for a in got[:-3])
        assert [tuple(a) for a in got[-3:]] == [
            ("dp", Fraction(1, 100), None, None, None, None, None),
            ("assembly", x, 4194590400, 22, 0, 43243200, None),
            ("greedy", x, None, None, None, None, None),
        ]
        assert _digest(got) == "c175043a1ac763fe"

    def test_part_below_the_smallest_unit_builds_no_pool(self):
        # 1/30030^12 < 1/(max_prime - 1): every unit fraction outweighs
        # it, so the split refuses it before any pool, as assembly does
        x = Fraction(1, 30030 ** 12)
        with pytest.raises(SearchExhausted) as exc:
            decompose(x, 1)
        M = x.denominator * egypt._ASSEMBLY_MODULUS \
            // math.gcd(x.denominator, egypt._ASSEMBLY_MODULUS)
        assert [tuple(a) for a in exc.value.attempts] == [
            ("dp", x, None, None, None, None, None),
            ("assembly", x, M, None, None, M // x.denominator, None),
            ("greedy", x, None, None, None, None, None),
        ]

    def test_units_then_exhaustion(self):
        # the first two units of 4 are solved by the first pool; the
        # third one runs out at primes <= 1000
        with pytest.raises(SearchExhausted) as exc:
            decompose(4, 1, SearchBudget(max_prime=1000))
        assert str(exc.value) == "all strategies exhausted for target 1"
        got = exc.value.attempts
        assert [tuple(a) for a in got[:3]] == [
            ("dp", ONE, 27720, 31, None, 27720, (2,)),
            ("dp", ONE, 27720, 30, None, 27720, (3, 5, 7, 13)),
            ("dp", ONE, 27720, 26, 12771, 27720, None),
        ]
        assert tuple(got[-1]) == ("greedy", ONE, None, None, None, None,
                                  None)
        kinds = [(a.stage, a.pool_size is not None, a.primes is not None)
                 for a in got]
        # 152 residuals that no modulus keeps within the DP budget
        assert {k: kinds.count(k) for k in set(kinds)} == {
            ("dp", True, True): 3, ("dp", True, False): 41,
            ("dp", False, False): 152, ("assembly", True, False): 1,
            ("greedy", False, False): 1}
        sympy = pytest.importorskip("sympy")
        for a in got:
            if a.primes is not None:
                assert all(map(sympy.isprime, a.primes)), a
                assert sum(Fraction(1, p - 1) for p in a.primes) == a.part
        assert _digest(got) == "f990e0b919321d21"

    def test_split_certificate(self):
        # the pools of 2/73 at h = 6 miss; its split parts 1/37 and
        # 1/2701 are hit at once, and the "split" record holds both
        got = egypt._solve_single(Fraction(2, 73), 6, set(),
                                  egypt.DEFAULT_BUDGET)
        x = Fraction(2, 73)
        assert [tuple(a) for a in got] == [
            ("dp", x, 2023560, 11, 93888, 55440, None),
            ("dp", x, 26306280, 20, 2167776, 720720, None),
            ("dp", Fraction(1, 37), 1025640, 11, None, 27720, (43,)),
            ("dp", Fraction(1, 2701), 74871720, 19, None, 27720, (2707,)),
            ("split", x, None, None, None, None, (43, 2707)),
        ]
        assert decompose(x, 6).primes == (43, 2707)

    def test_assembly_prime_limit_refusal(self):
        # at h = -7 with primes <= 3 a pair may need primes up to
        # isqrt(2 * (3 + 7)) = 4, past the limit: assembly refuses, and
        # the cascade goes on to greedy
        M = egypt._ASSEMBLY_MODULUS
        assert _assembly_items(-7, M, frozenset(), 3) is None
        with pytest.raises(SearchExhausted) as exc:
            decompose(Fraction(1, 3), -7, SearchBudget(max_prime=3))
        assert str(exc.value) == "all strategies exhausted for target 1/3"
        third = Fraction(1, 3)
        (refusal,) = [a for a in exc.value.attempts if a.stage == "assembly"]
        assert tuple(refusal) == ("assembly", third, M, None, None, M // 3,
                                  None)
        assert tuple(exc.value.attempts[-1]) == (
            "greedy", third, None, None, None, None, None)

    def test_assembly_over_the_dp_budget_is_refused(self):
        # 8/97: DP target 8 * 43243200 > 1e8, so assembly builds no items
        got = egypt._assembly_decompose(Fraction(8, 97), 6, frozenset(),
                                        egypt.DEFAULT_BUDGET)
        assert tuple(got) == ("assembly", Fraction(8, 97),
                              egypt._ASSEMBLY_MODULUS * 97, None, None,
                              8 * egypt._ASSEMBLY_MODULUS, None)


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


def _reference_verify(d):
    """The verifier's former sum: Fraction(1, p - h) added in a balanced
    tree, each addition reducing by a gcd, compared as fractions.  The
    checks before the sum are the same."""
    target = Fraction(d.target)
    if target <= 0:
        return False, f"target {target} not positive"
    last = 0
    for p in d.primes:
        if p <= last:
            return False, f"primes not strictly increasing at {p}"
        last = p
        if not is_prime(p):
            return False, f"{p} not prime"
        if p - d.h < 1:
            return False, f"denominator {p - d.h} < 1"
    total = _pairwise([Fraction(1, p - d.h) for p in d.primes],
                      operator.add, Fraction(0))
    if total != target:
        side = "above" if total > target else "below"
        return False, (f"sum of the {len(d.primes)} reciprocals is {side} "
                       "the target")
    return True, None


class TestVerify:
    def test_against_fraction_sum(self):
        # the 64 pinned certificates, each as found, with one prime
        # dropped, with one prime added and with the target moved by
        # +-1/den
        rng = random.Random(20261019)
        small = [int(p) for p in prime_array(2000)]
        cases = []
        for a, b, h in TestDecompose.PINNED_TARGETS:
            dec = decompose(Fraction(a, b), h)
            ps = list(dec.primes)
            x = dec.target
            dropped = ps[:]
            del dropped[rng.randrange(len(ps))]
            added = sorted(ps + [rng.choice([q for q in small
                                             if q not in ps])])
            nudge = Fraction(1, x.denominator)
            cases += [dec,
                      Decomposition(h, x, tuple(dropped)),
                      Decomposition(h, x, tuple(added)),
                      Decomposition(h, x + nudge, dec.primes),
                      Decomposition(h, x - nudge, dec.primes)]
        outcomes = set()
        for d in cases:
            res = verify(d)
            assert (res.valid, res.reason) == _reference_verify(d), d
            assert res.probable_primes == 0
            outcomes.add(res.reason and res.reason.split()[-3])
        assert outcomes >= {None, "above", "below"}

    def test_probable_prime_counted(self):
        # a 30-digit prime is above psi_13: is_prime says BPSW, no proof
        p = 100000000000000000000000000319
        assert p > _PSI_13
        for h in (1, -2):
            res = verify(Decomposition(h, Fraction(1, p - h), (p,)))
            assert res.valid and res.probable_primes == 1
        res = verify(Decomposition(1, Fraction(1, 2) + Fraction(1, p - 1),
                                   (3, p)))
        assert res.valid and res.probable_primes == 1

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


class TestVerifyFold:
    """verify's sum is arith's fold and merge: lengths at the edges of
    _FOLD's runs and one of 2,000 primes, read against the Fraction
    reference with the real FFT threshold, with one of 20,000 bits and
    with every merge product through the FFT."""

    @pytest.mark.parametrize("fft_min_bits",
                             [arith._FFT_MIN_BITS, 20_000, 0])
    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 64, 65, 2000])
    def test_against_reference(self, monkeypatch, n, fft_min_bits):
        monkeypatch.setattr(arith, "_FFT_MIN_BITS", fft_min_bits)
        primes = tuple(prime_array(20000)[:n].tolist())
        for h in (1, -2):
            total = _pairwise([Fraction(1, p - h) for p in primes],
                              operator.add, Fraction(0))
            nudge = Fraction(1, total.denominator)
            for x in (total, total + nudge, total - nudge):
                d = Decomposition(h, x, primes)
                res = verify(d)
                assert (res.valid, res.reason) == _reference_verify(d), \
                    (n, h, x - total)
                assert res.valid is (n > 0 and x == total)


class TestVerifyReadsExactly:
    """verify reads h and every prime as an exact integer, numpy
    integers included, and refuses anything else by name."""

    def test_half_shift_refused_at_both_targets(self):
        # 1/1.5 + 1/2.5 is 16/15; floor-dividing floats would read 4/5
        for target in (Fraction(4, 5), Fraction(16, 15)):
            res = verify(Decomposition(0.5, target, (2, 3)))
            assert (res.valid, res.reason) == \
                (False, "shift 0.5 not an integer")

    @pytest.mark.parametrize("h, primes, reason", [
        (Fraction(1), (3, 5, 7, 13), "shift Fraction(1, 1) not an integer"),
        ("1", (3, 5, 7, 13), "shift '1' not an integer"),
        (1, (3, 5.0, 7, 13), "prime 5.0 not an integer"),
        (1, (3, 5, Fraction(7), 13), "prime Fraction(7, 1) not an integer"),
        (1, (3, 5, 7, "13"), "prime '13' not an integer"),
    ])
    def test_non_integers_refused(self, h, primes, reason):
        res = verify(Decomposition(h, ONE, primes))
        assert (res.valid, res.reason) == (False, reason)

    def test_bools_refused(self):
        # operator.index(True) is 1, so 1/(3 - True) would read 1/2
        res = verify(Decomposition(True, Fraction(1, 2), (3,)))
        assert (res.valid, res.reason) == (False, "shift True not an integer")
        res = verify(Decomposition(1, Fraction(1, 2), (True, 3)))
        assert (res.valid, res.reason) == (False, "prime True not an integer")
        res = verify(Decomposition(np.int64(1), Fraction(1, 2), (3,)))
        assert res.valid

    @pytest.mark.parametrize("target", ["1/0", float("nan"), float("inf")])
    def test_target_not_rational(self, target):
        res = verify(Decomposition(1, target, (3, 5, 7, 13)))
        assert (res.valid, res.reason) == \
            (False, f"target {target!r} not rational")

    def test_numpy_primes(self):
        # numpy primes from the int32 array, as they are and widened to
        # int64, above 47 too
        for dtype in (np.int32, np.int64):
            primes = tuple(prime_array(1000)[10:80].astype(dtype))
            assert type(primes[0]) is dtype and primes[-1] > 47
            for h in (1, np.int64(1), np.int32(-2)):
                total = _pairwise([Fraction(1, int(p - h)) for p in primes],
                                  operator.add, Fraction(0))
                res = verify(Decomposition(h, total, primes))
                assert res.valid
                assert type(res.probable_primes) is int


class TestShiftReadExactly:
    """The gate reads h through arith._exact_ints, and each public search
    builds its certificate with the int it returns."""

    @pytest.mark.parametrize("search", [
        lambda h: decompose(Fraction(1, 2), h),
        lambda h: greedy_decompose(Fraction(1, 2), h),
        lambda h: smooth_dp_decompose(Fraction(1, 2), h, 12),
    ], ids=["cascade", "greedy", "pool DP"])
    def test_bool_and_float_shifts_refused(self, search):
        assert search(1).primes == (3,)
        for h in (True, 1.0, Fraction(1)):
            with pytest.raises(DomainError,
                               match=re.escape(f"shift {h!r} not an")):
                search(h)

    def test_numpy_shift_gives_an_int_certificate(self):
        for search in (decompose, greedy_decompose):
            dec = search(Fraction(1, 2), np.int64(1))
            assert type(dec.h) is int and dec.primes == (3,)
            json.dumps(certificate_dict(dec))
        dec = smooth_dp_decompose(Fraction(1, 2), np.int32(1), 12)
        assert type(dec.h) is int
        decs = r_fold_disjoint(Fraction(1, 2), np.int64(1), np.int64(2))
        assert len(decs) == 2 and all(type(d.h) is int for d in decs)

    @pytest.mark.parametrize("r", [True, 2.0, Fraction(2)])
    def test_fold_count_read_exactly(self, r):
        with pytest.raises(DomainError, match="fold count"):
            r_fold_disjoint(Fraction(1, 2), 1, r)

    @pytest.mark.parametrize("L", [True, 12.0, Fraction(12), "12"])
    def test_pool_modulus_read_exactly(self, L):
        # 12.0 once raised a bare TypeError and True read as 1
        with pytest.raises(DomainError,
                           match=re.escape(f"modulus {L!r} not an")):
            smooth_dp_decompose(Fraction(1, 2), 1, L)

    def test_numpy_pool_modulus(self):
        # np.int64(12) once reached the bitset DP and had no bit_length
        for L in (np.int64(12), np.int32(12)):
            dec = smooth_dp_decompose(Fraction(1, 2), 1, L)
            assert dec == smooth_dp_decompose(Fraction(1, 2), 1, 12)

    @pytest.mark.parametrize("L", [0, -12])
    def test_pool_modulus_below_one_refused(self, L):
        with pytest.raises(DomainError, match="modulus must be >= 1"):
            smooth_dp_decompose(Fraction(1, 2), 1, L)


class TestPublicExitsCheck:
    # a verify that rejects the whole target: each public exit must turn
    # the rejection into an internal error naming its own stage, after
    # its inner stages, which check nothing, ran
    @pytest.mark.parametrize("stage, x, run", [
        ("cascade", Fraction(3, 2), lambda: decompose(Fraction(3, 2), 1)),
        ("pool DP", ONE, lambda: smooth_dp_decompose(ONE, 1, 12)),
        ("greedy", Fraction(1, 2), lambda: greedy_decompose(Fraction(1, 2), 1)),
        ("merge", ONE, lambda: merge_by_pigeonhole(PartialSolution(
            h=1, parts=((Fraction(1, 2), (3,)),
                        (Fraction(1, 2), (5, 7, 13)))))),
    ])
    def test_invalid_result_is_internal_error(self, monkeypatch, stage, x,
                                              run):
        real = egypt.verify

        def forced(d):
            if d.target == x:
                return egypt.VerificationResult(False, "forced")
            return real(d)

        monkeypatch.setattr(egypt, "verify", forced)
        with pytest.raises(RuntimeError) as exc:
            run()
        assert str(exc.value) == \
            f"internal: {stage} produced invalid result: forced"


class TestVerifiedOnce:
    # the cascade's stages hand back primes: verify runs once per
    # returned certificate, at the public exit that returns it
    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        real = egypt.verify

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(egypt, "verify", counting)
        return calls

    def test_split_solution(self, checked):
        # the first divisor-pool DP misses 2/73 at h = 6; the split's
        # two parts are solved by divisor-pool DPs
        assert checked == [decompose(Fraction(2, 73), 6)]

    def test_r_fold(self, checked):
        decs = r_fold_disjoint(ONE, 1, 3, SearchBudget(max_prime=10 ** 6))
        assert checked == decs

    def test_universe_sample(self, checked):
        solved, exhausted = [], []
        for x, h in random.Random(20261019).sample(_targets_universe(), 300):
            try:
                solved.append(decompose(x, h))
            except ObstructionError:
                assert not feasibility_check(x, h).feasible, (x, h)
            except SearchExhausted:
                exhausted.append(h)
        assert len(solved) > 150
        assert set(exhausted) <= {6, -6}
        assert checked == solved


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
    # depth) and the assembly stage, which test_pinned_certificates
    # does not reach
    CERTIFY_PATH_SHA256 = \
        "ba5976066c55b73e4289bd3b6aa7113b40602a07f598820fd5ae4a34d4664046"

    def _check_disjoint(self, decs, x):
        sympy = pytest.importorskip("sympy")
        primes = [p for d in decs for p in d.primes]
        assert len(set(primes)) == len(primes)
        assert all(map(sympy.isprime, primes))
        for d in decs:
            assert sum(Fraction(1, p - 1) for p in d.primes) == x

    def test_pinned_certify_path(self):
        decs = r_fold_disjoint(ONE, 1, 3, SearchBudget(max_prime=10 ** 6))
        self._check_disjoint(decs, ONE)
        assert [len(d.primes) for d in decs] == [1, 4, 734]
        lines = [",".join(map(str, d.primes)) for d in decs]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CERTIFY_PATH_SHA256

    # the certify workload's second instance; most of its subset-sum
    # pools are lighter than their target
    CERTIFY_HALF_SHA256 = \
        "da4e242232d94d95d7c2be3421915d3781e8b91f5df08c779e8fa26eaa0820b4"

    def test_pinned_certify_half(self):
        decs = r_fold_disjoint(Fraction(1, 2), 1, 4,
                               SearchBudget(max_prime=10 ** 6))
        self._check_disjoint(decs, Fraction(1, 2))
        assert [len(d.primes) for d in decs] == [1, 3, 18, 715]
        lines = [",".join(map(str, d.primes)) for d in decs]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CERTIFY_HALF_SHA256

    def test_certify_path_sieves_once(self, monkeypatch):
        # the trial-division primes and assembly's primes are one cached
        # array: from a cold cache the kernel's prime walk runs to 10^6
        # once
        monkeypatch.setattr(arith, "_cache", {})
        egypt._divisor_pool.cache_clear()
        with kernel_walks(prime=True) as walks:
            r_fold_disjoint(ONE, 1, 3, SearchBudget(max_prime=10 ** 6))
        assert [limit for limit, _ in walks].count(10 ** 6) == 1

    @pytest.fixture
    def walks(self, monkeypatch):
        """The targets each greedy walk starts at, in call order."""
        starts = []
        walk = egypt._greedy_steps

        def spy(x, *args):
            starts.append(x)
            return walk(x, *args)

        monkeypatch.setattr(egypt, "_greedy_steps", spy)
        return starts

    @pytest.mark.parametrize("x, r", [(ONE, 3), (Fraction(1, 2), 4)])
    def test_certify_path_runs_no_greedy_walk(self, walks, x, r):
        # the split's parts get only the DP and the split; assembly
        # finds the last certificate before any walk
        r_fold_disjoint(x, 1, r, SearchBudget(max_prime=10 ** 6))
        assert walks == []

    def test_greedy_walk_runs_once_at_the_top(self, walks):
        # the DP and the split miss 8/97 at h = 6, and assembly refuses
        # it (DP target 8 * 43243200 > 1e8): one walk on 8/97 itself
        dec = decompose(Fraction(8, 97), 6)
        assert walks == [Fraction(8, 97)]
        assert verify(dec).valid


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
        miss = egypt._assembly_decompose(x, 1, frozenset(),
                                         SearchBudget(max_prime=limit))
        items = _assembly_items(1, M, frozenset(), limit)
        target = egypt._ASSEMBLY_MODULUS
        assert miss.primes is None    # a miss proven for this pool
        assert (miss.stage, miss.part, miss.modulus) == ("assembly", x, M)
        assert miss.dp_target == target
        assert miss.pool_size == len(items)
        assert any(w > target for w, _ in items)
        assert miss.weight_total == \
            sum(w for w, _ in items if w <= target) > target

    @staticmethod
    def _reference_items(h, M, exclude, limit):
        """The per-q dict pairing the array passes replaced, on a pure
        Python split of each p - h: the oracle for pair order."""
        q_max = math.isqrt(2 * (limit - min(h, 0)))
        flags = set(prime_array(q_max).tolist())
        items, rows = [], []
        for p in prime_array(limit).tolist():
            if p in exclude or p - h < 1:
                continue
            e, q = 1, p - h
            for f in (2, 3, 5, 7, 11, 13):
                while q % f == 0:
                    e, q = e * f, q // f
            if M % e:
                continue
            if q == 1:
                items.append((M // e, (p,)))
            elif 13 < q <= q_max and q in flags:
                rows.append((q, e, p))
        by_q = {}
        for q, e, p in sorted(rows):
            by_q.setdefault(q, {}).setdefault(e % q, []).append((e, p))
        for q, by_res in by_q.items():
            for r in sorted(by_res):
                comp = q - r
                if r == 0 or comp < r or comp not in by_res:
                    continue
                for (e1, p1), (e2, p2) in zip(by_res[r], by_res[comp]):
                    w, frac = divmod(M * (e1 + e2), q * e1 * e2)
                    if not frac:
                        items.append((w, (p1, p2)))
        return sorted(items)

    @pytest.mark.parametrize("h", [1, -1, 6, -6, -10])
    @pytest.mark.parametrize("scale", [1, 2, 7, 97])
    def test_matches_dict_pairing(self, h, scale):
        M, limit = egypt._ASSEMBLY_MODULUS * scale, 10 ** 5
        got = sorted(_assembly_items(h, M, frozenset(), limit))
        assert got == self._reference_items(h, M, frozenset(), limit)
        assert any(len(ps) == 2 for _, ps in got)

    def test_exclude_before_pairing(self):
        # 52361 sits in a pair; barring it moves a later partner of its
        # class, so the items differ from the unbarred ones minus its pair
        M, limit = egypt._ASSEMBLY_MODULUS, 10 ** 5
        full = sorted(_assembly_items(1, M, frozenset(), limit))
        exclude = frozenset({52361})
        assert any(len(ps) == 2 and 52361 in ps for _, ps in full)
        got = sorted(_assembly_items(1, M, exclude, limit))
        assert got == self._reference_items(1, M, exclude, limit)
        assert got != [it for it in full if not exclude & set(it[1])]

    def test_excluded_prime_past_int64(self):
        # a barred prime above the prime limit is in no chunk, however
        # wide: the items and the certificate are those of no exclusion
        x, budget = Fraction(1, 3), SearchBudget(max_prime=1000)
        got = egypt._assembly_decompose(x, 1, frozenset({2 ** 64 + 13}),
                                        budget)
        assert got == egypt._assembly_decompose(x, 1, frozenset(), budget)
        # 1/4 + 1/12
        assert got.primes == (5, 13)
        assert sum(Fraction(1, p - 1) for p in got.primes) == x

    def test_wide_denominators(self):
        # q_max = 94,869 <= limit, and d = p - h passes 2^32
        h, M, limit = -4_500_000_000, egypt._ASSEMBLY_MODULUS, 10 ** 5
        got = sorted(_assembly_items(h, M, frozenset(), limit))
        assert got == self._reference_items(h, M, frozenset(), limit)
        assert 2 - h > 2 ** 32

    @pytest.mark.parametrize("h", [1, -1])
    def test_chunks_do_not_change_the_items(self, h, monkeypatch):
        # 9,592 primes to 1e5: one chunk against ten chunks and a ragged
        # last one, with an excluded prime in the middle of a chunk; the
        # chunks are arith._chunks slices of SEGMENT_SIZE / 16 primes
        M, limit = egypt._ASSEMBLY_MODULUS, 10 ** 5
        exclude = frozenset({52361, 99991})
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 1 << 24)
        whole = _assembly_items(h, M, exclude, limit)
        monkeypatch.setattr(arith, "SEGMENT_SIZE", 16000)
        assert _assembly_items(h, M, exclude, limit) == whole
        assert any(len(ps) == 2 for _, ps in whole)


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

    @pytest.mark.parametrize("h, parts", [
        (1.0, ((Fraction(1, 2), (3,)), (Fraction(1, 2), (5, 7, 13)))),
        (1.5, ((Fraction(1, 2), (3,)),)),
        (1, ((Fraction(1, 2), (3.0,)), (Fraction(1, 2), (5, 7, 13)))),
        (1, ((Fraction(1, 2), (3,)), (Fraction(1, 2), (5, Fraction(7), 13)))),
        (1, (("1/0", (3,)),)),
    ])
    def test_non_integers_rejected(self, h, parts):
        with pytest.raises(DomainError):
            merge_by_pigeonhole(PartialSolution(h=h, parts=parts))

    def test_bool_shift_rejected(self):
        # with h = True read as 1 the two halves would merge into 1
        halves = ((Fraction(1, 2), (3,)), (Fraction(1, 2), (5, 7, 13)))
        assert merge_by_pigeonhole(PartialSolution(1, halves)).primes == \
            (3, 5, 7, 13)
        with pytest.raises(DomainError, match="shift True not an integer"):
            merge_by_pigeonhole(PartialSolution(h=True, parts=halves))

    def test_numpy_members(self):
        parts = _dp_parts(Fraction(1, 2), 1, 2)
        as_numpy = tuple((v, tuple(np.int64(p) for p in m)) for v, m in parts)
        dec = merge_by_pigeonhole(PartialSolution(h=np.int64(1),
                                                  parts=as_numpy))
        assert dec == merge_by_pigeonhole(PartialSolution(1, tuple(parts)))
        assert all(type(p) is int for p in dec.primes) and type(dec.h) is int

    def test_non_unit_value_rejected(self):
        parts = PartialSolution(h=1, parts=((Fraction(2, 3), (3, 7)),))
        with pytest.raises(DomainError):
            merge_by_pigeonhole(parts)

    def test_composite_member_rejected(self):
        # 1/3 + 1/6 is 1/2, but 4 is no prime: verify refuses the part
        # before the union is built, unsorted members included
        for members in ((4, 7), (7, 4)):
            parts = PartialSolution(1, ((Fraction(1, 2), (3,)),
                                        (Fraction(1, 2), members)))
            with pytest.raises(DomainError, match="part .4, 7.: 4 not prime"):
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
