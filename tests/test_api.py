import inspect
import types

import egyptsieve

# Adding or removing a public name changes this list in the same diff.
PUBLIC = [
    "CapacityError", "DEFAULT_BUDGET", "Decomposition", "DensityReport",
    "DomainError", "MergeInsufficient", "ObstructionError",
    "PartialSolution", "SearchBudget", "SearchExhausted", "ShiftParams",
    "SieveEstimate", "__version__", "decompose", "divisor_window_density",
    "feasibility_check", "friability_density", "greedy_decompose",
    "halberstam_variance", "is_prime", "legendre_sieve_count", "li_approx",
    "merge_by_pigeonhole", "mertens_product", "omega_deviation_density",
    "prime_count_ap", "r_fold_disjoint", "sieve_primes",
    "smooth_dp_decompose", "verify",
]

# Adding or dropping a parameter of a public callable changes its line
# here in the same diff.  CapacityError and DomainError keep the
# built-in exceptions' signature, which inspect cannot read.
SIGNATURES = {
    "Decomposition": ["h", "target", "primes"],
    "DensityReport": ["N", "params", "count", "normalizer",
                      "relative_density", "baseline", "reciprocal_sum",
                      "excluded"],
    "MergeInsufficient": ["value_counts"],
    "ObstructionError": ["result"],
    "PartialSolution": ["h", "parts"],
    "SearchBudget": ["max_prime", "max_terms"],
    "SearchExhausted": ["reason", "target", "attempts"],
    "ShiftParams": ["h", "q"],
    "SieveEstimate": ["remainders", "main_term", "exact_count"],
    "decompose": ["x", "h", "budget", "exclude"],
    "divisor_window_density": ["N", "shift", "y", "z"],
    "feasibility_check": ["x", "h"],
    "friability_density": ["N", "shift", "epsilon"],
    "greedy_decompose": ["x", "h", "budget", "exclude"],
    "halberstam_variance": ["N", "shift"],
    "is_prime": ["n"],
    "legendre_sieve_count": ["A", "window_primes"],
    "li_approx": ["n"],
    "merge_by_pigeonhole": ["parts"],
    "mertens_product": ["w"],
    "omega_deviation_density": ["N", "shift", "delta"],
    "prime_count_ap": ["N", "d", "h"],
    "r_fold_disjoint": ["x", "h", "r", "budget"],
    "sieve_primes": ["limit"],
    "smooth_dp_decompose": ["x", "h", "L", "budget", "exclude"],
    "verify": ["d"],
}


def test_public_names():
    names = sorted(
        name for name, value in vars(egyptsieve).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def _parameters(value):
    """The parameter names of a callable, or None where inspect finds no
    signature (a constant, or a class with a built-in constructor)."""
    if not callable(value):
        return None
    try:
        return list(inspect.signature(value).parameters)
    except ValueError:
        return None


def test_public_signatures():
    got = {name: params for name in PUBLIC
           if (params := _parameters(getattr(egyptsieve, name))) is not None}
    assert got == SIGNATURES
