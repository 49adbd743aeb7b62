"""Workload inputs: constants, and the per-round plan derived from the seed.

Imports nothing from egyptsieve, so the parent process can plan rounds
before any program code is loaded.  Every round runs in its own fresh
worker process; ``rounds`` returns one JSON-able spec per round.

Seeds choose orders, residues and intervals, never problem sizes: a
seeded choice among inputs of different cost (say, the shift of a
density report) would make the run-to-run spread measure the seed rather
than the program.  ``--seconds`` sets how many rounds a run makes; one round
of each workload takes 8 to 16 s on a 2-core host.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("certify", "targets", "density", "sieve")

# certify: the paper's r-fold instances that reach the assembly stage.
# Assembly with the default prime limit (1e8) takes 40-47 s per
# instance, which does not fit a run; --max-prime 1e6 keeps every stage.
CERTIFY_INSTANCES = (("1", 1, 3), ("1/2", 1, 4))
CERTIFY_MAX_PRIME = 10 ** 6

# targets: every reduced a/b < 1 with a <= 4, b <= TARGETS_MAX_DEN, under
# each shift.  b is capped because most targets take milliseconds but
# 4/241 with h = 3 did not finish within 5 s.
TARGETS_SHIFTS = (1, -1, 2, -2, 3, 5, 6, -6)
TARGETS_MAX_DEN = 120

# density: lemma reports at each N for one shift per round, every shift
# in every run.  Reports for different shifts differ in cost by up to a
# half, so a seeded choice of shift would show up as spread.
DENSITY_SHIFTS = (1, -1, 2, -2)
DENSITY_N = (10 ** 4, 10 ** 5, 10 ** 6, 2 * 10 ** 6)
MERTENS_W = (300000,)

# sieve: the seed picks residues and the Legendre interval; both shifts
# of the variance run in every run, since their peak memory differs by 9 %.
SIEVE_LIMIT = 10 ** 8
AP_MODULI = tuple(range(1, 21))
HALBERSTAM_N = 2 * 10 ** 7
HALBERSTAM_SHIFTS = (1, -1)
LEGENDRE_WINDOW = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
LEGENDRE_SPAN = 10 ** 6

# scaled seconds of op time in one repetition of the round set
NOMINAL_SECONDS = {"certify": 19, "targets": 14, "density": 18, "sieve": 14}


def rounds(workload: str, seed: int, seconds: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    reps = max(1, round(seconds / NOMINAL_SECONDS[workload]))
    specs: list[dict] = []
    for _ in range(reps):
        if workload == "certify":
            group = [{"target": x, "h": h, "r": r,
                      "max_prime": CERTIFY_MAX_PRIME}
                     for x, h, r in CERTIFY_INSTANCES]
        elif workload == "targets":
            group = [{"order_seed": rng.randrange(2 ** 32)}]
        elif workload == "density":
            group = [{"h": h} for h in DENSITY_SHIFTS]
        elif workload == "sieve":
            group = [sieve_spec(rng, h) for h in HALBERSTAM_SHIFTS]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rng.shuffle(group)
        specs.extend(group)
    return specs


def sieve_spec(rng: random.Random, h: int) -> dict:
    residues = {}
    for d in AP_MODULI:
        residues[str(d)] = rng.choice(
            [a for a in range(d) if gcd(a, d) == 1])
    return {"residues": residues, "h": h,
            "legendre_lo": rng.randrange(1, 10 ** 7)}
