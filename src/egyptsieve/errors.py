"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a configured memory or size budget."""


class SearchExhausted(Exception):
    """A search ran out of budget without finding a result.

    ``target`` names the part searched, and ``attempts`` holds the
    search's stage records in order.  Never a nonexistence claim, except
    within the explicit pool of a record: one with a pool size and no
    primes is a miss proven for that pool.
    """

    def __init__(self, reason, *, target=None, attempts=()):
        super().__init__(reason)
        self.reason = reason
        self.target = target
        self.attempts = tuple(attempts)


class MergeInsufficient(SearchExhausted):
    """Pigeonhole merge found no value 1/d occurring at least d times."""

    def __init__(self, value_counts):
        counts = {int(d): int(c) for d, c in sorted(value_counts.items())}
        super().__init__(f"no reciprocal value 1/d occurs d times: {counts}")
        self.value_counts = counts


class ObstructionError(DomainError):
    """A decomposition target fails the congruence feasibility gate."""

    def __init__(self, result):
        super().__init__(result.explanation)
        self.result = result
