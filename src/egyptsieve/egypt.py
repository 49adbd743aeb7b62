"""Egyptian-fraction decompositions over shifted primes.

Finds finite prime sets S with sum of 1/(p - h) over S equal to a
target rational, exactly.  ``decompose`` runs the congruence gate, then
one cascade on each whole unit of x and one on its fractional part
a/k, with disjoint prime sets:

1. subset-sum DP over divisor pools of smooth moduli (weights L/(p-h)
   for (p-h) | L, solved on a big-integer bitset),
2. recursive splitting a/k = a/(k+1) + a/(k(k+1)) feeding 1. and 2.,
3. pair-cancellation assembly: denominators p - h = e * q with one
   large prime q are combined in pairs with q | e1 + e2, so each pair
   contributes a q-free value; direct smooth denominators and pairs
   then feed one subset-sum DP over a high-exponent assembly modulus,
4. greedy largest-fraction steps with DP retries on the residual.
   Stages 3 and 4 run once, on the cascade's own target.

Stages 1 and 3 end in one subset-sum tail over (integer weight,
primes) items, heavy first; its DP answers the target or, when that is
smaller, the surplus of the pool over it.  Each stage returns
``_Attempt`` records (part, pool, DP target, primes or None), never
SearchExhausted.  Each public search
(``decompose``, ``smooth_dp_decompose``, ``greedy_decompose``) is the
gate, which reads h as an int, a private stage, then the independent
verifier or SearchExhausted with the records; ``merge_by_pigeonhole``
checks each given part with the verifier and its union the same way.
No private function calls a public search, so the verifier runs once
per decomposition that leaves this module, and ObstructionError is
only ever about the caller's own target.  SearchExhausted never claims
nonexistence beyond a record's pool; a split part or greedy residual
whose denominator shares a factor with h ends the cascade that way.

Stage 1's divisor pools are memoized per process (LRU, at most 1,024
unfiltered pools keyed on (h, L, max_prime); ``exclude`` is applied to
a copy), so no result depends on the order of earlier calls.  Subset-
sum answers are not: 19 of the 2,216 DPs on one pass over the
benchmark's targets universe repeat a question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import (
    _PSI_13,
    _chunks,
    _exact_fields,
    _exact_ints,
    _num_text,
    _reciprocal_tree,
    is_prime,
    prime_array,
    trial_factor,
)
from .errors import (
    CapacityError,
    DomainError,
    MergeInsufficient,
    ObstructionError,
    SearchExhausted,
)

_SMOOTH_BASIS = (2, 3, 5, 7, 11, 13)
# (f, f^-1 mod 2^64, (2^64 - 1) // f) per odd basis prime: the exact
# divisibility test of _smooth_split
_ODD_INVERSES = tuple((f, np.uint64(pow(f, -1, 1 << 64)),
                       np.uint64(((1 << 64) - 1) // f))
                      for f in _SMOOTH_BASIS[1:])

# cascade settings: base moduli of the divisor-pool DP (scaled to
# multiples of the target denominator), the bitset length cap, the
# assembly modulus and prime bound, and the unit-split depth
_DP_MODULI = (27720, 360360)
_MAX_DP_TARGET = 10 ** 8
_ASSEMBLY_MODULUS = 43243200                # 2^6 3^3 5^2 7 11 13
_ASSEMBLY_PRIME_LIMIT = 10 ** 8
_SPLIT_DEPTH = 3
_MAX_SNAPSHOTS = 24     # bitsets a subset-sum pass keeps for its backtrack

# memo bound: the benchmark's targets universe (2,512 targets) builds
# 348 distinct divisor pools
_POOL_MEMO_SIZE = 1024


@dataclass(frozen=True)
class SearchBudget:
    """Resource bounds for the decomposition search: the largest prime
    a certificate may use (at least 2) and the number of greedy steps
    per run (at least 0), as the ints ``arith._exact_ints`` reads."""

    max_prime: int = 10 ** 8
    max_terms: int = 256

    def __post_init__(self):
        _exact_fields(self, "max_prime", "max_terms")
        if self.max_prime < 2 or self.max_terms < 0:
            raise DomainError("malformed budget")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Decomposition:
    """Target = sum of 1/(p - h) over the strictly increasing primes."""

    h: int
    target: Fraction
    primes: tuple[int, ...]


@dataclass(frozen=True)
class PartialSolution:
    """Disjoint parts, each an exact identity sum 1/(p-h) = value."""

    h: int
    parts: tuple[tuple[Fraction, tuple[int, ...]], ...]


class _Attempt(NamedTuple):
    """A cascade stage's outcome on part: the primes summing to it, or
    None, which with a pool_size is a miss proven for that pool, and
    without one a refusal before any DP, a greedy walk run out, or, as
    stage "gate", the search's stop."""

    stage: str
    part: Fraction
    modulus: int | None = None
    pool_size: int | None = None
    weight_total: int | None = None
    dp_target: int | None = None
    primes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class VerificationResult:
    """``probable_primes`` counts the primes of a valid certificate at or
    above psi_13, where ``is_prime`` is the BPSW probable-prime test and
    not a proof."""

    valid: bool
    reason: str | None = None
    probable_primes: int = 0


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the congruence gate gcd(|h|, den(x)) = 1.

    When obstructed, ``witness`` is a prime dividing both |h| and the
    target denominator; at most one pool denominator (p = witness) is
    divisible by it, so every achievable sum has witness-adic valuation
    at least ``valuation_floor``.  Targets below the floor are provably
    unrepresentable; other obstructed targets are merely uncertified.
    """

    feasible: bool
    witness: int | None = None
    valuation_floor: int | None = None
    target_valuation: int | None = None
    provably_impossible: bool = False
    explanation: str = "feasible"


def verify(d: Decomposition) -> VerificationResult:
    """Independent certificate check: exact integers, primality, strict
    increase, positive denominators, exact rational sum.  h and each
    prime are read by ``arith._exact_ints``, so a numpy integer counts
    as its int and a bool, float, Fraction or string makes the
    certificate invalid; a target that is not a finite rational does
    too.  The sum is ``arith._reciprocal_tree``'s unreduced (num, den),
    cross-multiplied against the target, so no gcd is taken."""
    try:
        target = Fraction(d.target)
    except (TypeError, ValueError, ArithmeticError):    # "1/0", inf
        return VerificationResult(False, f"target {d.target!r} not rational")
    if target <= 0:
        return VerificationResult(False, f"target {target} not positive")
    try:
        (h,) = _exact_ints((d.h,), "shift")
        primes = _exact_ints(d.primes, "prime")
    except DomainError as exc:
        return VerificationResult(False, str(exc))
    last = 0
    for p in primes:
        if p <= last:
            return VerificationResult(
                False, f"primes not strictly increasing at {p}")
        last = p
        if not is_prime(p):
            return VerificationResult(False, f"{p} not prime")
        if p - h < 1:
            return VerificationResult(False, f"denominator {p - h} < 1")
    num, den = _reciprocal_tree([p - h for p in primes])
    # den > 0 and target.denominator > 0, so the cross products compare
    # like the fractions
    lhs, rhs = num * target.denominator, target.numerator * den
    if lhs != rhs:
        # no digits: the sum may be far past int-to-decimal's limit
        side = "above" if lhs > rhs else "below"
        return VerificationResult(
            False, f"sum of the {len(primes)} reciprocals is {side} "
                   "the target")
    return VerificationResult(
        True, probable_primes=sum(p >= _PSI_13 for p in primes))


def _valuation(n: int, f: int) -> int:
    """The exponent of the prime f in the positive integer n."""
    k = 0
    while n % f == 0:
        n //= f
        k += 1
    return k


def feasibility_check(x, h: int) -> FeasibilityResult:
    """Congruence gate: feasible iff gcd(|h|, den(x)) = 1; otherwise an
    obstruction certificate with a witness prime and valuation floor.
    Raises CapacityError when ``trial_factor`` cannot factor that gcd
    (a composite cofactor without prime factors up to 1e6), DomainError
    for a shift that ``arith._exact_ints`` refuses (a bool, a float)."""
    x = Fraction(x)
    (h,) = _exact_ints((h,), "shift")
    if x <= 0:
        raise DomainError(f"target must be positive, got {_num_text(x)}")
    if h == 0:
        raise DomainError("shift h must be nonzero")
    g = gcd(abs(h), x.denominator)
    if g == 1:
        return FeasibilityResult(feasible=True)
    # the first prime of g that proves x unrepresentable, else the least
    cands = [(ell, -_valuation(ell - h, ell) if ell - h >= 1 else 0,
              -_valuation(x.denominator, ell)) for ell, _ in trial_factor(g)]
    ell, floor, v = next((c for c in cands if c[2] < c[1]), cands[0])
    provable = v < floor
    expl = (
        f"gcd(|h|={abs(h)}, den={_num_text(x.denominator)}) = {g} > 1: "
        f"only p = {ell} can give a denominator divisible by {ell}, so "
        f"every achievable sum has {ell}-adic valuation >= {floor}; "
        f"target has {v}"
        + (" (provably unrepresentable)" if provable else ""))
    return FeasibilityResult(
        feasible=False, witness=ell, valuation_floor=floor,
        target_valuation=v, provably_impossible=provable, explanation=expl)


def _gate(x, h: int) -> tuple[Fraction, int]:
    """x as a Fraction and h as the int ``arith._exact_ints`` reads, as
    ``feasibility_check`` does, once x passes that gate; ObstructionError
    otherwise."""
    res = feasibility_check(x, h)
    if not res.feasible:
        raise ObstructionError(res)
    return Fraction(x), _exact_ints((h,), "shift")[0]


@lru_cache(maxsize=_POOL_MEMO_SIZE)
def _divisor_pool(h: int, L: int,
                  max_prime: int) -> tuple[tuple[int, int], ...]:
    """Every (weight L/(p-h), p) for primes p <= max_prime with
    (p-h) | L and p - h >= 1, sorted by decreasing weight; memoized.
    A prime q of L dividing h is not expanded: q | d gives q | d + h, so
    only d = q - h (p = q; d = 8 and 9 at h = -6) is tested for it."""
    top = max_prime - h         # a divisor only grows: drop it past top
    divisors, forced = [1], []
    for q, e in trial_factor(L):
        if h % q:
            qk = [q ** k for k in range(min(e, top.bit_length()) + 1)]
            divisors = [d * m for d in divisors for m in qk if d * m <= top]
        elif q - h >= 1 and L % (q - h) == 0:
            forced.append(q - h)
    pool = [(L // d, d + h) for d in divisors + forced
            if 2 <= d + h <= max_prime and is_prime(d + h)]
    return tuple(sorted(pool, key=lambda t: (-t[0], t[1])))


def smooth_pool(h: int, L: int, budget: SearchBudget = DEFAULT_BUDGET,
                exclude=frozenset()) -> list[tuple[int, int]]:
    """(weight L/(p-h), p) for primes p <= max_prime with (p-h) | L,
    p - h >= 1, p unused; sorted by decreasing weight."""
    return [t for t in _divisor_pool(h, L, budget.max_prime)
            if t[1] not in exclude]


def _slide(dp: int, off: int, w: int, target: int,
           rest: int) -> tuple[int, int]:
    """One item of weight w added to a windowed subset-sum bitset (bit j
    of dp is the sum off + j; rest is the weight still to come after w).
    A sum that rest cannot lift to target is dead (the suffix-sum bound,
    cf. Pisinger, J. Algorithms 1999), so the window rises to
    max(off, target - rest), by at most w, and only the bits that stay
    at or below target are shifted up.  Returns the new (dp, off)."""
    low = target - off - w + 1          # bits still <= target after << w
    up = dp if dp.bit_length() <= low else dp & ((1 << max(0, low)) - 1)
    step = target - rest - off          # the window's rise, at most w
    if step > 0:
        return (up << (w - step)) | (dp >> step), off + step
    return dp | (up << w), off


def _bitset_subset_sum(weights: list[int], target: int) -> list[int] | None:
    """Indices of a subset of the positive weights summing exactly to
    target, or None.

    Items heavier than target can never be chosen and change no prefix's
    reachability, so they are dropped first and the DP below runs on the
    rest; the chosen positions are mapped back to the caller's indices.
    A subset hits t exactly when its complement among the kept items
    hits the surplus S - t, S being the kept weight.  So while 0 < S - t
    < t the question flips: the surplus is asked over the kept items in
    reverse order, and the answer is the complement, which leans to the
    front of the caller's order.  Each flip lowers the target and drops
    again.  The kept lists wait on a stack and are unwound by
    complement, highest index first; a pool of powers of two flips once
    per item, so this is a loop, not a recursion.
    The last round's kept weights have a gcd g that divides every subset
    sum: a target g does not divide returns None, and all below runs on
    weights and target over g, which keeps every index list (at h = 6
    each divisor-pool weight L/(p - 6) keeps L's 2- and 3-parts, since
    p - 6 is prime to 6 for p > 3).

    Forward pass: a big-integer bitset DP over the items in order,
    stopping at the first item that reaches target, with a snapshot
    every ``stride`` items so that about _MAX_SNAPSHOTS bitsets are
    kept.  After a prefix whose remaining items weigh ``suffix`` the
    bitset holds only the live sums ``off..target``, ``off = max(0,
    target - suffix)``, as bits ``0..target - off``, and each item
    slides that window up (``_slide``).  A pool lighter than target
    returns None before any shift, and a window that empties returns
    None at once.  After the flips, target is at most the surplus, so
    every integer either pass builds is at most ``min(t, S - t) / g + 1``
    bits wide for the caller's t and S: however large t is, a pool whose
    total barely clears it, or falls short of it, costs a few words.

    Backtrack: from that item down to item 0, item i is taken only when
    the residual is unreachable from items 0..i-1, so solutions made of
    early items are preferred.  The items are walked one stride block at
    a time, top block first.  A block pops its snapshot and runs
    ``_slide`` over its items once, with the residual t on entering the
    block as target and lo = t minus the block's weight sum as the first
    offset; the mask cached for each item holds only the bits of its
    prefix DP that it and the block's later items can still ask for.
    The residual only falls, the chosen items all lie above the block,
    and lo is never below the snapshot's offset, so every window is
    exact.
    """
    if target == 0:
        return []
    flips = []
    keep = range(len(weights))
    while True:
        keep = [i for i in keep if weights[i] <= target]
        kept = [weights[i] for i in keep]
        suffix = sum(kept)
        if not target < suffix < 2 * target:
            break
        flips.append(keep)
        keep, target = keep[::-1], suffix - target
    weights = kept
    n = len(weights)
    if suffix < target:
        return None
    g = gcd(*weights)
    if target % g:
        return None
    weights = [w // g for w in weights]
    target, suffix = target // g, suffix // g
    stride = max(8, -(-n // _MAX_SNAPSHOTS))
    # dp bit j is the sum off + j
    dp, off = 1, 0
    snaps = {0: (0, 1)}
    for top, w in enumerate(weights):
        suffix -= w
        dp, off = _slide(dp, off, w, target, suffix)
        if not dp:
            return None
        if (top + 1) % stride == 0:
            snaps[top + 1] = (off, dp)
        if dp.bit_length() == target - off + 1:
            break
    else:
        return None
    del dp

    chosen = []
    t = target
    while t and top >= 0:
        base = top - top % stride
        rest = sum(weights[base:top + 1])
        lo = max(0, t - rest)
        off, m = snaps.pop(base)
        m >>= lo - off
        if m.bit_length() > t - lo + 1:
            m &= (1 << (t - lo + 1)) - 1
        # masks[j] = (f, bits f..t of the DP over weights[0:base + j]) with
        # f = max(lo, t - sum(weights[base + j:top + 1])): what item
        # base + j and the items after it ask for rests on bits >= f only
        masks = []
        f = lo
        for i in range(base, top + 1):
            masks.append((f, m))
            if i < top:
                rest -= weights[i]
                m, f = _slide(m, f, weights[i], t, rest)
        del m
        for i in range(top, base - 1, -1):
            f, mask = masks.pop()
            if t == 0:
                break
            w = weights[i]
            if w > t or (mask >> (t - f)) & 1:
                continue
            chosen.append(i)
            t -= w
        top = base - 1
    if t != 0:
        raise RuntimeError("subset-sum backtrack lost the target")
    chosen = [keep[i] for i in chosen]
    while flips:
        taken = set(chosen)
        chosen = [i for i in reversed(flips.pop()) if i not in taken]
    return chosen


def _certified(x: Fraction, h: int, primes, stage: str) -> Decomposition:
    """The decomposition of x over primes, checked by ``verify``; the one
    check each public search makes before its result leaves this module.
    A failed check is a fault of the named stage (RuntimeError)."""
    dec = Decomposition(h=h, target=x, primes=tuple(sorted(primes)))
    check = verify(dec)
    if not check.valid:
        raise RuntimeError(
            f"internal: {stage} produced invalid result: {check.reason}")
    return dec


def _pool_dp(stage: str, t: Fraction, M: int,
             pool: list[tuple[int, tuple[int, ...]]]) -> _Attempt:
    """The subset-sum tail of both pool stages on t over M, a multiple of
    den(t): pool holds (integer weight, primes) items, and the record's
    primes are the union of those of a subset whose weights sum to the
    DP target t * M, sorted.  A miss is proven for this pool only; its
    weight_total, summed on a miss alone, counts the weights <= target."""
    target = t.numerator * (M // t.denominator)
    idx = _bitset_subset_sum([w for w, _ in pool], target)
    if idx is None:
        return _Attempt(stage, t, M, len(pool),
                        sum(w for w, _ in pool if w <= target), target)
    return _Attempt(stage, t, M, len(pool), None, target,
                    tuple(sorted(p for i in idx for p in pool[i][1])))


def _divisor_dp(t: Fraction, h: int, M: int, budget: SearchBudget,
                exclude) -> _Attempt:
    """The divisor-pool DP on t over the pool of M, a multiple of den(t),
    with the primes in exclude barred.  An M that ``trial_factor``
    cannot split (a composite cofactor without prime factors up to
    TRIAL_PRIME_BOUND, as a split part's k(k + 1) can have) gets a
    refusal record with no pool, as a DP target past _dp_moduli' cap
    does: it covers no pool and proves no miss, and the cascade goes on
    to its next modulus, the split, assembly and greedy."""
    try:
        pool = smooth_pool(h, M, budget, exclude)
    except CapacityError:
        return _Attempt("dp", t, M)
    return _pool_dp("dp", t, M, [(w, (p,)) for w, p in pool])


def smooth_dp_decompose(x, h: int, L: int,
                        budget: SearchBudget = DEFAULT_BUDGET,
                        exclude=frozenset()) -> Decomposition:
    """Exact subset-sum over the divisor pool of L: finds primes with
    (p - h) | L whose reciprocals sum to x.

    Raises SearchExhausted when no subset of this pool works (proven for
    the pool, never a global claim), or with a refusal record when trial
    division cannot split L; L >= 1 is read by ``_exact_ints``.
    """
    x, h = _gate(x, h)
    (L,) = _exact_ints((L,), "modulus")
    if L < 1:
        raise DomainError(f"modulus must be >= 1, got {_num_text(L)}")
    if L % x.denominator != 0:
        raise DomainError(f"den({_num_text(x)}) does not divide modulus "
                          f"{_num_text(L)}")
    target = x.numerator * (L // x.denominator)
    if target > _MAX_DP_TARGET:
        raise DomainError(
            f"DP target {_num_text(target)} exceeds budget {_MAX_DP_TARGET}")
    got = _divisor_dp(x, h, L, budget, exclude)
    if got.primes is None:
        raise SearchExhausted(
            f"no subset of the {got.pool_size}-element pool hits {target}"
            if got.pool_size is not None else
            "no pool: trial division cannot split the modulus",
            target=_num_text(x), attempts=(got,))
    return _certified(x, h, got.primes, "pool DP")


def _greedy_prime(rem: Fraction, h: int, used,
                  budget: SearchBudget) -> int | None:
    """One greedy step: the smallest prime p <= max_prime not in used
    whose 1/(p - h) is the largest unit fraction <= rem, i.e. with
    p - h >= ceil(1/rem); None when there is no such prime.  After 2
    only odd p are tested."""
    d0 = max(1, -(-rem.denominator // rem.numerator))    # ceil(1/rem)
    start = max(d0 + h, 2)
    if start == 2 and 2 not in used:
        return 2
    for p in range(max(start, 3) | 1, budget.max_prime + 1, 2):
        if p not in used and is_prime(p):
            return p
    return None


def _greedy_steps(x: Fraction, h: int, used, budget: SearchBudget):
    """Greedy steps on x with the primes in used barred: yields (p, the
    remainder after subtracting 1/(p - h)) per step, and stops at
    remainder 0, after max_terms steps, or when no prime fits."""
    rem = x
    local = set(used)
    for _ in range(budget.max_terms):
        if rem <= 0:
            return
        p = _greedy_prime(rem, h, local, budget)
        if p is None:
            return
        local.add(p)
        rem -= Fraction(1, p - h)
        yield p, rem


def greedy_decompose(x, h: int, budget: SearchBudget = DEFAULT_BUDGET,
                     exclude=frozenset()) -> Decomposition:
    """Repeatedly subtract the largest available 1/(p - h) <= remainder
    (smallest admissible p); succeeds only when the remainder reaches
    exactly zero within max_terms."""
    x, h = _gate(x, h)
    rem = x
    chosen: list[int] = []
    for p, rem in _greedy_steps(x, h, exclude, budget):
        chosen.append(p)
    if rem:
        stop = (f"used {budget.max_terms} terms"
                if len(chosen) >= budget.max_terms else
                f"ran past max_prime {budget.max_prime}")
        raise SearchExhausted(f"greedy {stop}, remainder {_num_text(rem)}")
    return _certified(x, h, chosen, "greedy")


def _smooth_split(d: np.ndarray, modulus: int):
    """Split each entry of d (uint64, all >= 1) as e * rest with e the
    13-smooth part: returns rest and whether e divides modulus.

    The 2-part comes off the lowest set bit.  Each odd basis prime f
    takes one full-array test, then only the entries still divisible
    are divided again.  The test is exact: for odd f, v * f^-1 mod 2^64
    is v / f when f | v and exceeds (2^64 - 1) // f otherwise.
    e | modulus is v_f(e) <= v_f(modulus) for every basis prime f,
    counted while dividing, so modulus may have any size.
    """
    twos = np.bitwise_count((d & -d) - 1)
    rest = d >> twos
    ok = twos <= _valuation(modulus, 2)
    for f, inv, top in _ODD_INVERSES:
        quo = rest * inv
        hit = np.flatnonzero(quo <= top)
        quo = quo[hit]
        room = _valuation(modulus, f)
        while hit.size:
            if not room:
                ok[hit] = False
                break
            room -= 1
            rest[hit] = quo
            quo = quo * inv
            again = quo <= top
            hit, quo = hit[again], quo[again]
    return rest, ok


def _assembly_items(h: int, modulus: int, exclude, prime_limit: int):
    """Item list for the assembly DP: (integer weight, primes) with the
    weight modulus * sum of 1/(p - h) over the primes.

    Every prime p <= prime_limit outside exclude is classified by
    d = p - h = e * q with e the 13-smooth part.  q = 1 and e | modulus
    gives a direct item of weight modulus / e.  Prime q > 13 with
    e | modulus gives a pairing candidate of residue r = e mod q.  Per
    q, the candidates of each residue class are listed in (e, p) order,
    and the i-th of class r < q/2 pairs with the i-th of class q - r:
    q | e1 + e2, so the pair's value (e1 + e2) / (q e1 e2) is q-free.
    The pair is kept when its weight modulus (e1 + e2) / (q e1 e2) is
    an integer.  exclude is removed before the pairing, so it can move
    later pairs.

    A pair needs q <= e1 + e2 with e1 q and e2 q at most D =
    prime_limit - h, so q^2 <= 2D: larger q are never looked up.  A
    negative shift that puts this bound past prime_limit gets None, a
    refusal, so the primality flags to q_max are marked from the primes
    already listed.
    """
    q_max = isqrt(2 * (prime_limit - min(h, 0)))
    if q_max > prime_limit:
        return None
    if h >= prime_limit:
        return []       # no p - h >= 1, and h may not fit an int64
    primes = prime_array(prime_limit)
    flags = np.zeros(q_max + 1, dtype=bool)
    flags[prime_array(q_max)] = True
    # an excluded prime above prime_limit is in no chunk (nor int64)
    excl = np.array(sorted(p for p in exclude if p <= prime_limit),
                    dtype=np.int64)
    items: list[tuple[int, tuple[int, ...]]] = []
    qs, es, ps = [], [], []
    for chunk in _chunks(primes):
        if excl.size:
            chunk = chunk[~np.isin(chunk, excl)]
        chunk = chunk[chunk > h]
        # h may pass the primes' int32
        d = np.subtract(chunk, h, dtype=np.int64).astype(np.uint64)
        rest, ok = _smooth_split(d, modulus)
        dmask = ok & (rest == 1)
        for ev, pv in zip(d[dmask].tolist(), chunk[dmask].tolist()):
            items.append((modulus // ev, (pv,)))
        pmask = ok & (rest > _SMOOTH_BASIS[-1]) & (rest <= q_max) \
            & flags[np.minimum(rest, q_max)]
        q = rest[pmask]
        qs.append(q.astype(np.int64))
        es.append((d[pmask] // q).astype(np.int64))
        ps.append(chunk[pmask])
    q, e, p = (np.concatenate(a) for a in (qs, es, ps))
    r = e % q
    keep = r != 0
    q, e, p, r = q[keep], e[keep], p[keep], r[keep]
    # q is an odd prime and r != 0, so r != q - r: side 0 holds the
    # class's residue below q/2, side 1 its complement
    cls = np.minimum(r, q - r)
    side = r > q - r
    order = np.lexsort((p, e, side, cls, q))
    q, e, p, cls, side = (a[order] for a in (q, e, p, cls, side))
    # runs of equal (q, class, side), each in (e, p) order; a run pairs
    # rank by rank with the next one when that has the same (q, class),
    # so it is side 0 and the next one side 1
    new = np.ones(len(q), dtype=bool)
    new[1:] = (q[1:] != q[:-1]) | (cls[1:] != cls[:-1]) \
        | (side[1:] != side[:-1])
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(q))
    a, b = starts[:-1], starts[1:]
    lower = np.flatnonzero((q[a] == q[b]) & (cls[a] == cls[b]))
    n = np.minimum(sizes[lower], sizes[lower + 1])
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    i = np.repeat(a[lower], n) + rank
    j = np.repeat(b[lower], n) + rank
    for qv, e1, e2, p1, p2 in zip(q[i].tolist(), e[i].tolist(),
                                  e[j].tolist(), p[i].tolist(),
                                  p[j].tolist()):
        w, frac = divmod(modulus * (e1 + e2), qv * e1 * e2)
        if not frac:
            items.append((w, (p1, p2)))
    return items


def _assembly_decompose(x: Fraction, h: int, exclude,
                        budget: SearchBudget) -> _Attempt:
    """Pair-cancellation assembly: one subset-sum DP over direct smooth
    items plus q-cancelling pairs at a high-exponent modulus, refused
    (no pool) over _MAX_DP_TARGET, when ``_assembly_items`` refuses, or
    when x < 1/(limit - h): every item then weighs more than the target,
    at least M/(limit - h), and no prime is listed."""
    k = x.denominator
    M = _ASSEMBLY_MODULUS // gcd(_ASSEMBLY_MODULUS, k) * k
    target = x.numerator * (M // k)
    limit = min(budget.max_prime, _ASSEMBLY_PRIME_LIMIT)
    items = (_assembly_items(h, M, exclude, limit)
             if target <= _MAX_DP_TARGET and x * (limit - h) >= 1 else None)
    if items is None:
        return _Attempt("assembly", x, M, dp_target=target)
    # heavy first, as _divisor_pool orders them: the pool outweighs the
    # target by a few percent, so the DP answers that surplus from the
    # light end, and the certificate is the heavy rest
    items.sort(key=lambda t: (-t[0], t[1]))
    return _pool_dp("assembly", x, M, items)


def _dp_moduli(t: Fraction) -> list[int]:
    """Scaled moduli M for t = a/k, in trial order: both candidates are
    multiples of k, so t * M = a * (M // k) is an integer; M is kept
    while that DP target is within _MAX_DP_TARGET."""
    k = t.denominator
    out = []
    for L in _DP_MODULI:
        for M in (L // gcd(L, k) * k, L * k):
            if M not in out and t.numerator * (M // k) <= _MAX_DP_TARGET:
                out.append(M)
    return out


def _split_solve(t: Fraction, h: int, used: set, budget: SearchBudget,
                 depth: int = 0) -> list[_Attempt]:
    """With the primes in used barred, the divisor-pool DP on t = a/k over
    each modulus of _dp_moduli(t) up to the first hit, then the split t
    = a/(k+1) + a/(k(k+1)), both parts solved disjointly the same way,
    to depth _SPLIT_DEPTH (where only the DP runs): a record per pool (a
    refusal if no modulus fits), the parts' and "split" when they solve
    t.  A lone "gate" record stops the search when t, a split part or
    greedy residual, has a modulus to try and gcd(|h|, den t) > 1: that
    gcd proves nothing about the cascade's own target.  Past the gate, a
    t < 1/(max_prime - h) gets one refusal with no pool: every prime's
    unit fraction outweighs it, and its split parts are smaller still."""
    moduli = _dp_moduli(t)
    if moduli and gcd(abs(h), t.denominator) != 1:
        return [_Attempt("gate", t)]
    if t.numerator * (budget.max_prime - h) < t.denominator:
        return [_Attempt("dp", t)]
    recs = [] if moduli else [_Attempt("dp", t)]
    for M in moduli:
        recs.append(_divisor_dp(t, h, M, budget, used))
        if recs[-1].primes is not None:
            return recs
    if depth == _SPLIT_DEPTH:
        return recs
    a, k = t.numerator, t.denominator
    found: tuple[int, ...] = ()
    for part in (Fraction(a, k + 1), Fraction(a, k * (k + 1))):
        recs += _split_solve(part, h, used | set(found), budget, depth + 1)
        if recs[-1].primes is None:
            return recs
        found += recs[-1].primes
    return recs + [_Attempt("split", t, primes=found)]


def _solve_single(t: Fraction, h: int, used: set,
                  budget: SearchBudget) -> list[_Attempt]:
    """The cascade on t with the primes in used barred: _split_solve,
    then on t itself assembly, then greedy steps with a DP retry on each
    residual.  The last record is a "gate" or one on t: its primes or None."""
    recs = _split_solve(t, h, used, budget)
    if recs[-1].primes is None and recs[-1].stage != "gate":
        recs.append(_assembly_decompose(t, h, frozenset(used), budget))
    if recs[-1].primes is not None or recs[-1].stage == "gate":
        return recs
    # greedy steps on the residual, retrying the divisor-pool DP after each
    extra: list[int] = []
    for p, rem in _greedy_steps(t, h, used, budget):
        extra.append(p)
        if rem:
            recs += _split_solve(rem, h, used | set(extra), budget,
                                 _SPLIT_DEPTH)
        if rem == 0 or recs[-1].primes is not None:
            rest = recs[-1].primes if rem else ()
            return recs + [_Attempt("greedy", t, primes=(*extra, *rest))]
        if recs[-1].stage == "gate":
            return recs
    return recs + [_Attempt("greedy", t)]


def decompose(x, h: int, budget: SearchBudget = DEFAULT_BUDGET,
              exclude=frozenset()) -> Decomposition:
    """Full cascade: the feasibility gate, then _solve_single on each
    whole unit of x and on its fractional part a/k (solved whole, never
    as a copies of 1/k), with disjoint prime sets and the primes in
    exclude barred, then the independent verifier.  Units are cut off
    because assembly, run once per cascade and never on a split part,
    only takes targets below about 2.3.

    Raises ObstructionError at the feasibility gate on x only, and
    SearchExhausted when every strategy runs out of budget or a split
    part or greedy residual fails the gate (never a nonexistence claim).
    """
    x, h = _gate(x, h)
    used = set(exclude)
    attempts: list[_Attempt] = []
    # range, unlike repeat, takes a count past the C ssize_t
    for t in chain((Fraction(1) for _ in range(int(x))),
                   [x % 1] if x % 1 else ()):
        attempts += _solve_single(t, h, used, budget)
        last = attempts[-1]
        if last.primes is None:
            part = _num_text(last.part)
            raise SearchExhausted(
                f"part {part} of the search has a denominator sharing "
                f"a factor with |h| = {abs(h)}; the search stops there"
                if last.stage == "gate" else
                f"all strategies exhausted for target {part}",
                target=part, attempts=tuple(attempts))
        used.update(last.primes)
    return _certified(x, h, used.difference(exclude), "cascade")


def r_fold_disjoint(x, h: int, r: int,
                    budget: SearchBudget = DEFAULT_BUDGET
                    ) -> list[Decomposition]:
    """r decompositions of x with pairwise disjoint prime sets; each
    search excludes all previously used primes."""
    (r,) = _exact_ints((r,), "fold count")
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    used: set[int] = set()
    out = []
    for _ in range(r):
        dec = decompose(x, h, budget, exclude=frozenset(used))
        used.update(dec.primes)
        out.append(dec)
    return out


def merge_by_pigeonhole(parts: PartialSolution) -> Decomposition:
    """Union d disjoint parts of value 1/d into a decomposition of 1.

    h and every member are read by ``arith._exact_ints``, and each part,
    its members sorted, is checked by ``verify``; a shift or member that
    is no integer (a bool included), a value not of shape 1/d, a prime
    in two parts or a part that ``verify`` refuses (a composite member,
    a denominator below 1, a sum that misses its value) raises
    DomainError with the reason.  Picks the smallest d whose value
    occurs at least d times; raises MergeInsufficient (with the value
    multiset) when none does.
    """
    (h,) = _exact_ints((parts.h,), "shift")
    seen: set[int] = set()
    by_d: dict[int, list[tuple[int, ...]]] = {}
    for value, members in parts.parts:
        try:
            value = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            raise DomainError(f"part value {value!r} not rational") from None
        if value.numerator != 1:
            raise DomainError(f"part value {value} is not of shape 1/d")
        members = tuple(sorted(_exact_ints(members, "prime")))
        for p in members:
            if p in seen:
                raise DomainError(f"prime {p} appears in two parts")
            seen.add(p)
        check = verify(Decomposition(h, value, members))
        if not check.valid:
            raise DomainError(f"part {members}: {check.reason}")
        by_d.setdefault(value.denominator, []).append(members)
    for d in sorted(by_d):
        if len(by_d[d]) >= d:
            primes = [p for members in by_d[d][:d] for p in members]
            return _certified(Fraction(1), h, primes, "merge")
    raise MergeInsufficient({d: len(v) for d, v in by_d.items()})
