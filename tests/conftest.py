import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import settings

from egyptsieve import arith
from egyptsieve.arith import prime_array
from egyptsieve.spectrum import ShiftParams

# every property test draws the same examples on every run: Tier-1 is
# deterministic, and no example database is read or written
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def primes6():
    return prime_array(10 ** 6)


@pytest.fixture(scope="session")
def shift_plus1():
    return ShiftParams(h=1, q=1)


@contextlib.contextmanager
def kernel_walks(prime=False):
    """The (limit, kinds) of each arith.prime_power_sieve walk of the
    statistic kinds (``arith._KINDS``, the walks ``_gather`` starts)
    inside the block, in order; with prime=True, those of the prime
    builds (kind "prime", the walks ``prime_array`` starts) instead."""
    walks = []
    kernel = arith.prime_power_sieve

    def spy(limit, *kinds):
        if ("prime" in kinds) == prime:
            walks.append((limit, kinds))
        return kernel(limit, *kinds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "prime_power_sieve", spy)
        yield walks


def strip_timestamp(text: str) -> str:
    """A report's text without its timestamp line, JSON or CSV."""
    return "\n".join(ln for ln in text.splitlines()
                     if '"timestamp"' not in ln
                     and not ln.startswith("# timestamp"))


def naive_factor(n):
    """Independent trial-division factorization used as the test oracle."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def factor_product(factors):
    """The integer whose ((prime, exponent), ...) factorization is given."""
    return math.prod(p ** e for p, e in factors)


def max_prime_power(factors):
    """Largest p^e of a factorization; 1 for the empty one."""
    return max((p ** e for p, e in factors), default=1)


def naive_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def fraction_tree_sum(values):
    """Sum of 1/v by Fraction additions over a balanced tree, the way
    reciprocal sums were formed before the prime split; kept as the
    oracle for them."""
    items = [Fraction(1, int(v)) for v in values]
    if not items:
        return Fraction(0)
    while len(items) > 1:
        nxt = [x + y for x, y in zip(items[::2], items[1::2])]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
