import argparse
import dataclasses
import inspect
import types
from fractions import Fraction

import numpy as np
import pytest

import egyptsieve
from egyptsieve import arith, cli
from egyptsieve import (
    DomainError,
    PartialSolution,
    SearchBudget,
    ShiftParams,
    decompose,
    divisor_window_density,
    feasibility_check,
    friability_density,
    greedy_decompose,
    halberstam_variance,
    is_prime,
    legendre_sieve_count,
    li_approx,
    merge_by_pigeonhole,
    mertens_product,
    omega_deviation_density,
    prime_count_ap,
    r_fold_disjoint,
    sieve_primes,
    smooth_dp_decompose,
)

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


# The functions and integer constants arith defines without a leading
# underscore: a public door into arith is a one-line diff here, so one
# that only tests reach is a reviewed addition.  prime_array is the one
# reader of the kernel's primes (sieve_primes reads it, and no segment
# stream is public), and MAX_ARRAY_LIMIT is the one capacity limit of
# the arrays, the kernel and the gather.
ARITH_PUBLIC = [
    "MAX_ARRAY_LIMIT", "MAX_DECIMAL_BITS", "SEGMENT_SIZE",
    "TRIAL_PRIME_BOUND", "balanced_product", "is_prime", "li_approx",
    "prime_array", "prime_power_sieve", "sieve_primes", "trial_factor",
]


def test_arith_public_names():
    names = sorted(
        name for name, value in vars(arith).items()
        if not name.startswith("_")
        and (type(value) is int
             or getattr(value, "__module__", None) == arith.__name__))
    assert names == ARITH_PUBLIC


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


# Adding or dropping a command-line flag or a config field changes its
# line here in the same diff.
CLI_OPTIONS = {
    "sieve": ["config", "limit", "out", "primes_out"],
    "analyze": ["N", "config", "delta", "epsilon", "format", "lemma",
                "modulus", "out", "shift", "y", "z"],
    "decompose": ["config", "max_prime", "max_terms", "out", "r_fold",
                  "shift", "target"],
    "verify": ["cert", "config", "out"],
    "sweep": ["config", "format", "grid", "out"],
}
RUN_CONFIG_FIELDS = [
    "command", "limit", "N", "shift", "modulus", "epsilon", "delta", "y",
    "z", "target", "r_fold", "max_prime", "max_terms", "out", "primes_out",
    "format", "cert", "grid",
]


def test_cli_options():
    commands, = (a.choices for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(a.dest for a in sub._actions if a.dest != "help")
           for name, sub in commands.items()}
    assert got == CLI_OPTIONS
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == \
        RUN_CONFIG_FIELDS


_HALF = Fraction(1, 2)

# Every integer parameter of a callable in SIGNATURES, with one valid
# call at the smallest sizes: (callable, parameter, the call made with
# value v in that parameter's place, a valid v).  An integer sequence is
# probed through one entry, and PartialSolution's shift through the
# merge that reads it.
INTEGER_ARGUMENTS = [
    ("SearchBudget", "max_prime", lambda v: SearchBudget(v, 8), 1000),
    ("SearchBudget", "max_terms", lambda v: SearchBudget(1000, v), 8),
    ("ShiftParams", "h", lambda v: ShiftParams(v, 4), 1),
    ("ShiftParams", "q", lambda v: ShiftParams(1, v), 4),
    ("decompose", "h", lambda v: decompose(_HALF, v), 1),
    ("divisor_window_density", "N",
     lambda v: divisor_window_density(v, ShiftParams(1), 5, 20), 1000),
    ("feasibility_check", "h", lambda v: feasibility_check(_HALF, v), 1),
    ("friability_density", "N",
     lambda v: friability_density(v, ShiftParams(1), Fraction(3, 10)), 1000),
    ("greedy_decompose", "h", lambda v: greedy_decompose(_HALF, v), 1),
    ("halberstam_variance", "N",
     lambda v: halberstam_variance(v, ShiftParams(1)), 1000),
    ("is_prime", "n", is_prime, 53),
    ("legendre_sieve_count", "A",
     lambda v: legendre_sieve_count((v, 100), [2, 3]), 1),
    ("legendre_sieve_count", "window_primes",
     lambda v: legendre_sieve_count((1, 100), [v, 3]), 2),
    ("li_approx", "n", li_approx, 10),
    ("merge_by_pigeonhole", "parts", lambda v: merge_by_pigeonhole(
        PartialSolution(v, ((Fraction(1), (2,)),))), 1),
    ("mertens_product", "w", mertens_product, 10),
    ("omega_deviation_density", "N",
     lambda v: omega_deviation_density(v, ShiftParams(1), _HALF), 1000),
    ("prime_count_ap", "N", lambda v: prime_count_ap(v, 4, 1), 100),
    ("prime_count_ap", "d", lambda v: prime_count_ap(100, v, 1), 4),
    ("prime_count_ap", "h", lambda v: prime_count_ap(100, 4, v), 1),
    ("r_fold_disjoint", "h", lambda v: r_fold_disjoint(_HALF, v, 2), 1),
    ("r_fold_disjoint", "r", lambda v: r_fold_disjoint(_HALF, 1, v), 2),
    ("sieve_primes", "limit", lambda v: list(sieve_primes(v)), 100),
    ("smooth_dp_decompose", "h",
     lambda v: smooth_dp_decompose(_HALF, v, 12), 1),
    ("smooth_dp_decompose", "L",
     lambda v: smooth_dp_decompose(_HALF, 1, v), 12),
]

# The callables of SIGNATURES with no integer parameter to probe: the
# records a search or a report returns, the exceptions, and verify,
# which answers "invalid" for a shift that is no integer instead of
# raising (test_egypt.py pins those answers).
NO_INTEGER_ARGUMENTS = {
    "Decomposition", "DensityReport", "MergeInsufficient",
    "ObstructionError", "PartialSolution", "SearchExhausted",
    "SieveEstimate", "verify",
}


def test_integer_table_covers_the_signatures():
    probed = {name for name, *_ in INTEGER_ARGUMENTS}
    assert probed | NO_INTEGER_ARGUMENTS == set(SIGNATURES)
    assert not probed & NO_INTEGER_ARGUMENTS
    for name, param, *_ in INTEGER_ARGUMENTS:
        assert param in SIGNATURES[name]


def _ids(entry):
    return f"{entry[0]}-{entry[1]}"


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS, ids=_ids)
@pytest.mark.parametrize("bad", [True, 1.0, 1.5, Fraction(2), "2"],
                         ids=repr)
def test_non_integers_refused(entry, bad):
    _, _, call, _ = entry
    with pytest.raises(DomainError):
        call(bad)


def _typed(value):
    """value with every leaf paired with its exact type, through
    dataclasses, sequences and dicts."""
    if dataclasses.is_dataclass(value):
        return type(value), _typed(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {_typed(k): _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS, ids=_ids)
def test_numpy_integer_reads_as_the_int(entry):
    # the same result, Python ints wherever it holds the argument
    _, _, call, valid = entry
    assert _typed(call(np.int64(valid))) == _typed(call(valid))
