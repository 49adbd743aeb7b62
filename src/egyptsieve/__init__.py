"""Egyptian fractions over shifted primes, with a sieve workbench.

Exact decompositions x = sum 1/(p - h) over distinct primes, congruence
obstruction certificates, and desk-scale density measurements of the
arithmetic of shifted primes (friability, omega statistics, divisor
windows, Legendre sieve counts, progression prime counts).
"""

from .arith import (
    is_prime,
    li_approx,
    sieve_primes,
)
from .egypt import (
    DEFAULT_BUDGET,
    Decomposition,
    PartialSolution,
    SearchBudget,
    decompose,
    feasibility_check,
    greedy_decompose,
    merge_by_pigeonhole,
    r_fold_disjoint,
    smooth_dp_decompose,
    verify,
)
from .errors import (
    CapacityError,
    DomainError,
    MergeInsufficient,
    ObstructionError,
    SearchExhausted,
)
from .spectrum import (
    DensityReport,
    ShiftParams,
    SieveEstimate,
    divisor_window_density,
    friability_density,
    halberstam_variance,
    legendre_sieve_count,
    mertens_product,
    omega_deviation_density,
    prime_count_ap,
)

__version__ = "0.1.0"
