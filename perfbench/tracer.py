"""Spans and counters at the boundaries of egyptsieve's modules.

The program is not edited: each traced function is replaced, in every
module namespace that binds it, by a wrapper that records a span (layer,
start, end, parent, op) and updates counters.  Modules import functions
by name (``from .arith import is_prime``), so a function is wrapped in
each module where it is looked up, not only where it is defined.

A layer's busy time ``s`` counts only its outermost spans (nested calls
of the same layer are not counted twice); its ``self_s`` is its span
time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

from egyptsieve import arith, cli, egypt, reports, spectrum
from egyptsieve.errors import SearchExhausted

MODULES = {"arith": arith, "spectrum": spectrum, "egypt": egypt,
           "reports": reports, "cli": cli}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("i")
        self.outer = array("b")
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.outer.append(self.depth[lid] == 0)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def _wrap_function(self, fn, name: str, pre, post):
        lid = self._layer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            idx = self._open(lid)
            self.stack.append(idx)
            self.depth[lid] += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.depth[lid] -= 1
                self.stack.pop()
                self.counts[name + ".calls"] += 1
                if post is not None:
                    post(self, args, kwargs, result, exc,
                         bool(self.outer[idx]))

        return wrapper

    def _wrap_generator(self, fn, name: str, post):
        """Span from the first resume to exhaustion; the consumer's time
        between items is inside it, and the span has no children."""
        lid = self._layer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = None
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    if idx is None:
                        idx = self._open(lid)
                    n += 1
                    yield item
            finally:
                if idx is not None:
                    self.end[idx] = time.perf_counter_ns()
                self.counts[name + ".calls"] += 1
                if post is not None:
                    post(self, args, kwargs, n, None, True)

        return wrapper

    def _wrap_counting(self, fn, pre):
        """No span: the callee's time stays with its caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs = pre(self, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _layer(self, name: str) -> int:
        if name not in self.layer_id:
            self.layer_id[name] = len(self.names)
            self.names.append(name)
        return self.layer_id[name]

    # -- installing ------------------------------------------------------
    def install(self, spec) -> None:
        """spec: (layer, [(module, attribute), ...], pre, post) rows; a
        row without a layer only counts, through its pre hook.  A binding
        missing from the program is skipped, so the benchmark keeps
        running after a refactor moves a function."""
        wrappers: dict[tuple[int, str | None], object] = {}
        for name, bindings, pre, post in spec:
            for mod_name, attr in bindings:
                mod = MODULES[mod_name]
                fn = mod.__dict__.get(attr)
                if not callable(fn):
                    continue
                key = (id(fn), name)
                if key not in wrappers:
                    if name is None:
                        wrappers[key] = self._wrap_counting(fn, pre)
                    elif inspect.isgeneratorfunction(fn):
                        wrappers[key] = self._wrap_generator(fn, name, post)
                    else:
                        wrappers[key] = self._wrap_function(fn, name, pre,
                                                            post)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """{layer: {"s", "self_s", "spans"}} plus the counters."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        layer = np.frombuffer(self.layer, dtype=np.int32, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        dur = (end - start).astype(np.float64) / 1e9
        child = np.zeros(n, dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        busy = np.bincount(layer[outer], weights=dur[outer],
                           minlength=len(self.names))
        self_s = np.bincount(layer, weights=dur - child,
                             minlength=len(self.names))
        spans = np.bincount(layer, minlength=len(self.names))
        out = {name: {"s": float(busy[i]), "self_s": float(self_s[i]),
                      "spans": int(spans[i])}
               for i, name in enumerate(self.names)}
        return {"layers": out, "counts": dict(self.counts),
                "spans": n}

    def write(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            start_ns=np.frombuffer(self.start, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.end, dtype=np.int64, count=n),
            op=np.frombuffer(self.op, dtype=np.int32, count=n))


# -- what is traced ------------------------------------------------------

def _count(tracer, key, k=1):
    tracer.counts[key] += k


def _subset_sum_post(t, args, kwargs, result, exc, outer):
    weights, target = args[0], args[1]
    _count(t, "egypt.subset_sum.found", result is not None)
    _count(t, "egypt.subset_sum.fwd_bytes", len(weights) * (target + 1) // 8)


def _assembly_items_post(t, args, kwargs, result, exc, outer):
    if result is not None:
        _count(t, "egypt.assembly_items.items", len(result))


def _smooth_dp_post(t, args, kwargs, result, exc, outer):
    _count(t, "egypt.smooth_dp.attempts")
    _count(t, "egypt.smooth_dp.exhausted", isinstance(exc, SearchExhausted))


def _feasibility_post(t, args, kwargs, result, exc, outer):
    if result is not None:
        _count(t, "egypt.feasibility_check.obstructed", not result.feasible)


def _verify_post(t, args, kwargs, result, exc, outer):
    _count(t, "egypt.verify.terms", len(args[0].primes))


def _materialize_values(t, args, kwargs):
    """reciprocal_sum takes any iterable; count it without consuming it."""
    vals = list(args[0])
    _count(t, "arith.reciprocal_sum.terms", len(vals))
    return (vals,) + tuple(args[1:]), kwargs


def _reciprocal_sum_post(t, args, kwargs, result, exc, outer):
    if result is not None:
        _count(t, "arith.reciprocal_sum.den_bits",
               result.denominator.bit_length())


def _sieve_primes_post(t, args, kwargs, n, exc, outer):
    _count(t, "arith.sieve_primes.count", n)


def _build_flags_post(t, args, kwargs, result, exc, outer):
    _count(t, "arith.prime_flags.builds")


def _cached_pre(t, args, kwargs):
    """Count lookups, and misses as calls of the build function passed in."""
    if len(args) != 3 or kwargs:
        return args, kwargs
    kind, limit, build = args

    def counting_build(n):
        _count(t, "arith.cache.misses")
        return build(n)

    _count(t, "arith.cache.lookups")
    return (kind, limit, counting_build), kwargs


def _serialize_post(t, args, kwargs, result, exc, outer):
    if not outer:
        return
    if exc is not None:
        _count(t, "reports.serialize.failed")
    elif isinstance(result, str):
        _count(t, "reports.serialize.bytes", len(result.encode()))


def _all(name):
    return [(m, name) for m in MODULES]


SPEC = [
    ("cli.main", [("cli", "main")], None, None),
    ("egypt.decompose", _all("decompose"), None, None),
    ("egypt.smooth_dp", _all("smooth_dp_decompose"), None, _smooth_dp_post),
    ("egypt.smooth_pool", _all("smooth_pool"), None, None),
    ("egypt.subset_sum", _all("_bitset_subset_sum"), None, _subset_sum_post),
    ("egypt.assembly_items", _all("_assembly_items"), None,
     _assembly_items_post),
    ("egypt.feasibility_check", _all("feasibility_check"), None,
     _feasibility_post),
    ("egypt.verify", _all("verify"), None, _verify_post),
    ("arith.is_prime", _all("is_prime"), None, None),
    ("arith.reciprocal_sum", _all("reciprocal_sum"), _materialize_values,
     _reciprocal_sum_post),
    ("arith.prime_reciprocal_sum", _all("prime_reciprocal_sum"), None, None),
    ("arith.balanced_product", _all("balanced_product"), None, None),
    ("arith.sieve_primes", _all("sieve_primes"), None, _sieve_primes_post),
    ("arith.prime_flags", _all("prime_flags"), None, None),
    ("arith.build_flags", [("arith", "_build_flags")], None,
     _build_flags_post),
    ("arith.prime_array", _all("prime_array"), None, None),
    (None, _all("_cached"), _cached_pre, None),
    ("spectrum.friability_density", _all("friability_density"), None, None),
    ("spectrum.omega_deviation_density", _all("omega_deviation_density"),
     None, None),
    ("spectrum.divisor_window_density", _all("divisor_window_density"),
     None, None),
    ("spectrum.mertens_product", _all("mertens_product"), None, None),
    ("spectrum.prime_count_ap", _all("prime_count_ap"), None, None),
    ("spectrum.halberstam_variance", _all("halberstam_variance"), None, None),
    ("spectrum.legendre_sieve_count", _all("legendre_sieve_count"),
     None, None),
    ("spectrum.omega_array", _all("omega_array"), None, None),
    ("spectrum.max_prime_power_array", _all("max_prime_power_array"),
     None, None),
    ("spectrum.progression", _all("_progression"), None, None),
    ("reports.serialize",
     [("reports", a) for a in ("fraction_dict", "density_report_dict",
                               "sieve_estimate_dict", "certificate_dict",
                               "render_report", "density_rows",
                               "render_csv")],
     None, _serialize_post),
    ("reports.parse",
     [("reports", a) for a in ("fraction_from_dict",
                               "certificate_from_dict")],
     None, None),
]
