import types

import egyptsieve

# Adding or removing a public name changes this list in the same diff.
PUBLIC = [
    "CapacityError", "DEFAULT_BUDGET", "Decomposition", "DensityReport",
    "DomainError", "Factorization", "MergeInsufficient", "ObstructionError",
    "PartialSolution", "SearchBudget", "SearchExhausted", "ShiftParams",
    "SieveEstimate", "__version__", "decompose", "divisor_window_density",
    "feasibility_check", "friability_density", "greedy_decompose",
    "halberstam_variance", "is_prime", "legendre_sieve_count", "li_approx",
    "merge_by_pigeonhole", "mertens_product", "omega_deviation_density",
    "prime_count_ap", "r_fold_disjoint", "sieve_primes",
    "smooth_dp_decompose", "verify",
]


def test_public_names():
    names = sorted(
        name for name, value in vars(egyptsieve).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
