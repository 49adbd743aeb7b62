"""Egyptian-fraction decompositions over shifted primes.

Finds finite prime sets S with sum of 1/(p - h) over S equal to a
target rational, exactly.  ``decompose`` runs the congruence gate, then
one cascade on each whole unit of x and one on its fractional part
a/k, with disjoint prime sets:

1. subset-sum DP over divisor pools of smooth moduli (weights L/(p-h)
   for (p-h) | L, solved on a big-integer bitset),
2. recursive splitting a/k = a/(k+1) + a/(k(k+1)) feeding 1.,
3. pair-cancellation assembly: denominators p - h = e * q with one
   large prime q are combined in pairs with q | e1 + e2, so each pair
   contributes a q-free value; direct smooth denominators and pairs
   then feed one subset-sum DP over a high-exponent assembly modulus,
4. greedy largest-fraction steps with DP retries on the residual.

Stages 1 and 3 end in one subset-sum tail over (integer weight,
primes) items.  Every returned decomposition is re-checked by the
independent verifier before it leaves this module.  A failed search
raises SearchExhausted and never claims nonexistence beyond its
explicit pool.

Stage 1's divisor pools are memoized per process (LRU, at most 1,024
unfiltered pools keyed on (h, L, max_prime); ``exclude`` is applied to
a copy), so no result depends on the order of earlier calls.  Subset-
sum answers are not: about 1 % of the DPs on the benchmark's targets
universe repeat a question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import add

import numpy as np

from .arith import _pairwise, is_prime, prime_array, prime_flags, trial_factor
from .errors import (
    DomainError,
    MergeInsufficient,
    ObstructionError,
    SearchExhausted,
)

_SMOOTH_BASIS = (2, 3, 5, 7, 11, 13)

# cascade settings: base moduli of the divisor-pool DP (scaled to
# multiples of the target denominator), the bitset length cap, the
# assembly modulus and prime bound, and the unit-split depth
_DP_MODULI = (27720, 360360, 720720, 4324320)
_MAX_DP_TARGET = 10 ** 8
_ASSEMBLY_MODULUS = 43243200                # 2^6 3^3 5^2 7 11 13
_ASSEMBLY_PRIME_LIMIT = 10 ** 8
_SPLIT_DEPTH = 3

# memo bound: the benchmark's targets universe (2,512 targets) builds
# 416 distinct divisor pools
_POOL_MEMO_SIZE = 1024


@dataclass(frozen=True)
class SearchBudget:
    """Resource bounds for the decomposition search: the largest prime
    a certificate may use and the number of greedy steps per run."""

    max_prime: int = 10 ** 8
    max_terms: int = 256

    def __post_init__(self):
        if self.max_prime < 2:
            raise DomainError("malformed budget")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Decomposition:
    """Target = sum of 1/(p - h) over the strictly increasing primes."""

    h: int
    target: Fraction
    primes: tuple[int, ...]

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(p - self.h for p in self.primes)


@dataclass(frozen=True)
class PartialSolution:
    """Disjoint parts, each an exact identity sum 1/(p-h) = value."""

    h: int
    parts: tuple[tuple[Fraction, tuple[int, ...]], ...]


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str | None = None


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
    """Independent certificate check: primality, strict increase,
    positive denominators, exact rational sum (added in a balanced
    tree)."""
    try:
        target = Fraction(d.target)
    except (TypeError, ValueError):
        return VerificationResult(False, f"target {d.target!r} not rational")
    if target <= 0:
        return VerificationResult(False, f"target {target} not positive")
    last = 0
    for p in d.primes:
        if p <= last:
            return VerificationResult(
                False, f"primes not strictly increasing at {p}")
        last = p
        if not is_prime(p):
            return VerificationResult(False, f"{p} not prime")
        if p - d.h < 1:
            return VerificationResult(False, f"denominator {p - d.h} < 1")
    total = _pairwise([Fraction(1, p - d.h) for p in d.primes], add,
                      Fraction(0))
    if total != target:
        # no digits: the sum may be far past int-to-decimal's limit
        side = "above" if total > target else "below"
        return VerificationResult(
            False, f"sum of the {len(d.primes)} reciprocals is {side} "
                   "the target")
    return VerificationResult(True)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0 and n:
        n //= p
        v += 1
    return v


def feasibility_check(x, h: int) -> FeasibilityResult:
    """Congruence gate: feasible iff gcd(|h|, den(x)) = 1; otherwise an
    obstruction certificate with a witness prime and valuation floor.
    Raises CapacityError when ``trial_factor`` cannot factor that gcd
    (a composite cofactor without prime factors up to 1e6)."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"target must be positive, got {x}")
    if h == 0:
        raise DomainError("shift h must be nonzero")
    g = gcd(abs(h), x.denominator)
    if g == 1:
        return FeasibilityResult(feasible=True)
    chosen = None
    for ell, _ in trial_factor(g).factors:
        floor = -_valuation(ell - h, ell) if ell - h >= 1 else 0
        v = -_valuation(x.denominator, ell)
        if chosen is None:
            chosen = (ell, floor, v, v < floor)
        if v < floor:
            chosen = (ell, floor, v, True)
            break
    ell, floor, v, provable = chosen
    expl = (
        f"gcd(|h|={abs(h)}, den={x.denominator}) = {g} > 1: only p = {ell} "
        f"can give a denominator divisible by {ell}, so every achievable "
        f"sum has {ell}-adic valuation >= {floor}; target has {v}"
        + (" (provably unrepresentable)" if provable else ""))
    return FeasibilityResult(
        feasible=False, witness=ell, valuation_floor=floor,
        target_valuation=v, provably_impossible=provable, explanation=expl)


def _gate(x, h: int) -> Fraction:
    x = Fraction(x)
    res = feasibility_check(x, h)
    if not res.feasible:
        raise ObstructionError(res)
    return x


@lru_cache(maxsize=_POOL_MEMO_SIZE)
def _divisor_pool(h: int, L: int,
                  max_prime: int) -> tuple[tuple[int, int], ...]:
    """Every (weight L/(p-h), p) for primes p <= max_prime with
    (p-h) | L and p - h >= 1, sorted by decreasing weight; memoized."""
    pool = []
    for d in trial_factor(L).divisors():
        p = d + h
        if p < 2 or p > max_prime:
            continue
        if is_prime(p):
            pool.append((L // d, p))
    pool.sort(key=lambda t: (-t[0], t[1]))
    return tuple(pool)


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


def _bitset_subset_sum(weights: list[int], target: int,
                       max_snapshots: int = 24) -> list[int] | None:
    """Indices of a subset of the positive weights summing exactly to
    target, or None.

    Items heavier than target can never be chosen and change no prefix's
    reachability, so they are dropped first and the DP below runs on the
    rest; the chosen positions are mapped back to the caller's indices.

    Forward pass: a big-integer bitset DP over the items in order,
    stopping at the first item that reaches target, with a snapshot
    every ``stride`` items so that about ``max_snapshots`` bitsets are
    kept.  After a prefix whose remaining items weigh ``suffix`` the
    bitset holds only the live sums ``off..target``, ``off = max(0,
    target - suffix)``, as bits ``0..target - off``, and each item
    slides that window up (``_slide``).  A pool lighter than target
    returns None before any shift, and a window that empties returns
    None at once.  Every integer either pass
    builds is at most ``min(target, total - target) + 1`` bits wide,
    total being the kept weight: however large target is, a pool whose
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
    keep = [i for i, w in enumerate(weights) if w <= target]
    weights = [weights[i] for i in keep]
    n = len(weights)
    suffix = sum(weights)
    if suffix < target:
        return None
    stride = max(8, -(-n // max_snapshots))
    # dp bit j is the sum off + j
    dp, off = 1, 0
    snaps = {0: (0, 1)}
    hit_at = None
    for i, w in enumerate(weights):
        suffix -= w
        dp, off = _slide(dp, off, w, target, suffix)
        if not dp:
            return None
        if (i + 1) % stride == 0:
            snaps[i + 1] = (off, dp)
        if dp.bit_length() == target - off + 1:
            hit_at = i
            break
    del dp
    if hit_at is None:
        return None

    chosen = []
    t = target
    top = hit_at
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
    return [keep[i] for i in chosen]


def _pool_dp(x: Fraction, h: int, target: int,
             pool: list[tuple[int, tuple[int, ...]]]) -> Decomposition:
    """The subset-sum tail of both pool stages: pool holds (integer
    weight, primes) items, and the union of the primes of a subset whose
    weights sum to target is returned as a verified decomposition of x.

    Raises SearchExhausted, proven for this pool only, when no subset
    hits target; its weight_total counts only the weights <= target.
    """
    idx = _bitset_subset_sum([w for w, _ in pool], target)
    if idx is None:
        raise SearchExhausted(
            f"no subset of the {len(pool)}-element pool hits {target}",
            pool_size=len(pool),
            weight_total=sum(w for w, _ in pool if w <= target),
            target=target, proven_absent_in_pool=True)
    primes = tuple(sorted(p for i in idx for p in pool[i][1]))
    dec = Decomposition(h=h, target=x, primes=primes)
    check = verify(dec)
    if not check.valid:
        raise RuntimeError(
            f"internal: pool DP produced invalid result: {check.reason}")
    return dec


def smooth_dp_decompose(x, h: int, L: int,
                        budget: SearchBudget = DEFAULT_BUDGET,
                        exclude=frozenset()) -> Decomposition:
    """Exact subset-sum over the divisor pool of L: finds primes with
    (p - h) | L whose reciprocals sum to x.

    Raises SearchExhausted when no subset of this pool works (that
    outcome is proven for the pool, never a global claim).
    """
    x = _gate(x, h)
    if L % x.denominator != 0:
        raise DomainError(f"den({x}) does not divide modulus {L}")
    target = x.numerator * (L // x.denominator)
    if target > _MAX_DP_TARGET:
        raise DomainError(
            f"DP target {target} exceeds budget {_MAX_DP_TARGET}")
    return _pool_dp(x, h, target,
                    [(w, (p,)) for w, p in smooth_pool(h, L, budget, exclude)])


def _greedy_prime(rem: Fraction, h: int, used,
                  budget: SearchBudget) -> int | None:
    """One greedy step: the smallest prime p <= max_prime not in used
    whose 1/(p - h) is the largest unit fraction <= rem, i.e. with
    p - h >= ceil(1/rem); None when there is no such prime."""
    d0 = max(1, -(-rem.denominator // rem.numerator))    # ceil(1/rem)
    for p in range(max(d0 + h, 2), budget.max_prime + 1):
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
    x = _gate(x, h)
    rem = x
    chosen: list[int] = []
    for p, rem in _greedy_steps(x, h, exclude, budget):
        chosen.append(p)
    if rem:
        if len(chosen) >= budget.max_terms:
            raise SearchExhausted(
                f"greedy used {budget.max_terms} terms, remainder {rem}")
        raise SearchExhausted(
            f"greedy ran past max_prime {budget.max_prime}, remainder {rem}")
    dec = Decomposition(h=h, target=x, primes=tuple(sorted(chosen)))
    check = verify(dec)
    if not check.valid:
        raise RuntimeError(f"internal: greedy produced invalid result: {check.reason}")
    return dec


def _assembly_items(h: int, modulus: int, exclude, prime_limit: int):
    """Item list for the assembly DP: (integer weight, primes) with the
    weight modulus * sum of 1/(p - h) over the primes.

    Every prime p <= prime_limit is classified by d = p - h = e * q with
    e the 13-smooth part.  q = 1 and e | modulus gives a direct item of
    weight modulus / e.  Prime q > 13 gives a pairing candidate; two
    candidates with q | e1 + e2 combine into one item of q-free value
    (e1 + e2) / (q e1 e2), kept when its weight modulus (e1 + e2) /
    (q e1 e2) is an integer.

    A pair needs q <= e1 + e2 with e1 q and e2 q at most D =
    prime_limit - h, so q^2 <= 2D: larger q are never looked up.  A
    negative shift that puts this bound past prime_limit raises
    SearchExhausted, so the primality flags never outgrow the primes.
    """
    q_max = isqrt(2 * (prime_limit - min(h, 0)))
    if q_max > prime_limit:
        raise SearchExhausted(
            f"assembly pairs at shift {h} need primes up to {q_max}, past "
            f"the prime limit {prime_limit}")
    flags = prime_flags(q_max)
    primes = prime_array(prime_limit)
    div_arr = np.array(trial_factor(modulus).divisors(), dtype=np.int64)
    direct: list[tuple[int, tuple[int, ...]]] = []
    q_rows = []
    excl_arr = np.array(sorted(exclude), dtype=np.int64) if exclude else None
    for lo in range(0, len(primes), 1 << 20):
        chunk = primes[lo:lo + (1 << 20)]
        if excl_arr is not None:
            chunk = chunk[~np.isin(chunk, excl_arr)]
        d = chunk - h
        ok = d >= 1
        chunk, d = chunk[ok], d[ok]
        rest = d.copy()
        for f in _SMOOTH_BASIS:
            while True:
                m = rest % f == 0
                if not m.any():
                    break
                rest[m] //= f
        e = d // rest
        smooth_e = np.isin(e, div_arr)
        dmask = smooth_e & (rest == 1)
        for ev, pv in zip(e[dmask].tolist(), chunk[dmask].tolist()):
            direct.append((modulus // ev, (pv,)))
        pmask = smooth_e & (rest > _SMOOTH_BASIS[-1]) & (rest <= q_max) \
            & flags[np.minimum(rest, q_max)]
        q_rows.append(np.stack(
            [rest[pmask], e[pmask], chunk[pmask]], axis=1))
    items = direct
    rows = np.concatenate(q_rows) if q_rows else np.empty((0, 3), np.int64)
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    rows = rows[order]
    bounds = np.flatnonzero(np.diff(rows[:, 0], prepend=-1, append=-1))
    for bi in range(len(bounds) - 1):
        grp = rows[bounds[bi]:bounds[bi + 1]]
        if len(grp) < 2:
            continue
        q = int(grp[0, 0])
        by_res: dict[int, list[tuple[int, int]]] = {}
        for _, ev, pv in grp.tolist():
            by_res.setdefault(ev % q, []).append((ev, pv))
        for r in sorted(by_res):
            if r == 0:
                continue
            comp = (q - r) % q
            if comp < r or comp not in by_res:
                continue
            # rows are lexsorted by (q, e, p), so each list is in order
            if comp == r:
                cl = by_res[r]
                matched = zip(cl[::2], cl[1::2])
            else:
                matched = zip(by_res[r], by_res[comp])
            for (e1, p1), (e2, p2) in matched:
                w, frac = divmod(modulus * (e1 + e2), q * e1 * e2)
                if not frac:
                    items.append((w, (p1, p2)))
    return items


def _assembly_decompose(x: Fraction, h: int, exclude,
                        budget: SearchBudget) -> Decomposition:
    """Pair-cancellation assembly: one subset-sum DP over direct smooth
    items plus q-cancelling pairs, at a high-exponent modulus."""
    k = x.denominator
    M = _ASSEMBLY_MODULUS // gcd(_ASSEMBLY_MODULUS, k) * k
    target = x.numerator * (M // k)
    if target > _MAX_DP_TARGET:
        raise SearchExhausted(
            f"assembly target for {x} exceeds DP budget", target=str(x))
    limit = min(budget.max_prime, _ASSEMBLY_PRIME_LIMIT)
    # light items first: the backtrack prefers early items
    return _pool_dp(x, h, target,
                    sorted(_assembly_items(h, M, exclude, limit)))


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


def _dp_solve(t: Fraction, h: int, exclude,
              budget: SearchBudget) -> list[int] | None:
    """The divisor-pool DP on t over each modulus of _dp_moduli(t) in
    order, with the primes in exclude barred: the primes of the first
    pool that hits t, or None."""
    for M in _dp_moduli(t):
        try:
            return list(smooth_dp_decompose(t, h, M, budget,
                                            exclude=frozenset(exclude)).primes)
        except SearchExhausted:
            continue
    return None


def _solve_single(t: Fraction, h: int, used: set, budget: SearchBudget,
                  depth: int = 0) -> list[int]:
    """The cascade on t = a/k with the primes in used barred; returns
    the primes used.  In order: the divisor-pool DP; the split
    t = a/(k+1) + a/(k(k+1)), both parts solved disjointly by this
    cascade to depth _SPLIT_DEPTH; assembly, at the top level only;
    greedy steps with a DP retry on each residual."""
    got = _dp_solve(t, h, used, budget)
    if got is not None:
        return got
    if depth < _SPLIT_DEPTH:
        a, k = t.numerator, t.denominator
        try:
            first = _solve_single(Fraction(a, k + 1), h, used, budget,
                                  depth + 1)
            rest = _solve_single(Fraction(a, k * (k + 1)), h,
                                 used | set(first), budget, depth + 1)
            return first + rest
        except SearchExhausted:
            pass
    if depth == 0:
        try:
            return list(_assembly_decompose(t, h, frozenset(used),
                                            budget).primes)
        except SearchExhausted:
            pass
    # greedy steps on the residual, retrying the divisor-pool DP after each
    extra: list[int] = []
    for p, rem in _greedy_steps(t, h, used, budget):
        extra.append(p)
        if rem == 0:
            return extra
        got = _dp_solve(rem, h, used | set(extra), budget)
        if got is not None:
            return extra + got
    raise SearchExhausted(f"all strategies exhausted for target {t}",
                          target=str(t))


def decompose(x, h: int, budget: SearchBudget = DEFAULT_BUDGET,
              exclude=frozenset()) -> Decomposition:
    """Full cascade: the feasibility gate, then _solve_single on each
    whole unit of x and on its fractional part a/k (solved whole, never
    as a copies of 1/k), with disjoint prime sets and the primes in
    exclude barred, then the independent verifier.  Units are cut off
    because assembly only takes targets below about 2.3.

    Raises ObstructionError at the feasibility gate and SearchExhausted
    when every strategy runs out of budget (never a nonexistence claim).
    """
    x = _gate(x, h)
    used = set(exclude)
    for _ in range(int(x)):
        used.update(_solve_single(Fraction(1), h, used, budget))
    if x % 1:
        used.update(_solve_single(x % 1, h, used, budget))
    dec = Decomposition(h=h, target=x,
                        primes=tuple(sorted(used.difference(exclude))))
    check = verify(dec)
    if not check.valid:
        raise RuntimeError(f"internal: cascade produced invalid result: {check.reason}")
    return dec


def r_fold_disjoint(x, h: int, r: int,
                    budget: SearchBudget = DEFAULT_BUDGET,
                    exclude=frozenset()) -> list[Decomposition]:
    """r decompositions of x with pairwise disjoint prime sets; each
    search excludes all previously used primes."""
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    used = set(exclude)
    out = []
    for _ in range(r):
        dec = decompose(x, h, budget, exclude=frozenset(used))
        used.update(dec.primes)
        out.append(dec)
    return out


def merge_by_pigeonhole(parts: PartialSolution) -> Decomposition:
    """Union d disjoint parts of value 1/d into a decomposition of 1.

    Picks the smallest d whose value occurs at least d times; raises
    MergeInsufficient (with the value multiset) when none does.
    """
    seen: set[int] = set()
    by_d: dict[int, list[tuple[int, ...]]] = {}
    for value, members in parts.parts:
        value = Fraction(value)
        if value.numerator != 1 or value.denominator < 1:
            raise DomainError(f"part value {value} is not of shape 1/d")
        got = Fraction(0)
        for p in members:
            if p in seen:
                raise DomainError(f"prime {p} appears in two parts")
            seen.add(p)
            if p - parts.h < 1:
                raise DomainError(f"denominator {p - parts.h} < 1")
            got += Fraction(1, p - parts.h)
        if got != value:
            raise DomainError(
                f"part {members} sums to {got}, not {value}")
        by_d.setdefault(value.denominator, []).append(tuple(members))
    counts = {d: len(v) for d, v in by_d.items()}
    for d in sorted(by_d):
        if counts[d] >= d:
            primes: list[int] = []
            for members in by_d[d][:d]:
                primes.extend(members)
            dec = Decomposition(h=parts.h, target=Fraction(1),
                                primes=tuple(sorted(primes)))
            check = verify(dec)
            if not check.valid:
                raise RuntimeError(f"internal: merge produced invalid result: {check.reason}")
            return dec
    raise MergeInsufficient(counts)
