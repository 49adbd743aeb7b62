#!/usr/bin/env python3
"""egyptsieve benchmark.

    python3 perfbench/run.py --workload certify|targets|density|sieve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each round of the workload runs in a fresh single-threaded
worker process under an address-space cap, as a closed loop with one
client.  The run prints every metric with its unit and sample count, the
failure causes, the correctness verdict and an output digest, then, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

Times are scaled to a nominal host speed by a probe (see probe.py); the
unscaled wall time is printed beside them.  A traced run makes the
untraced rounds first and then the same rounds with the module
boundaries traced (see tracer.py); the two digests must agree, and the
difference in wall time is reported as the tracing overhead.  Per-layer
times are not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = Path(".perfbench")           # relative to ROOT, git-ignored
RUN_LIMIT_S = 170                      # every run ends within 180 s
SETUP_LAUNCHES = 5
MEMORY_CAP = 3 << 30                   # RLIMIT_AS of each worker, bytes

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB",
}

# Read from the traced rounds by name: "<layer>.s" is the layer's busy
# time, "<layer>.self_s" its self time ("<module>.self_s" sums a module's
# layers), and other names are counters kept by tracer.py.
PER_LAYER = {
    "egypt.subset_sum.s": "s", "egypt.subset_sum.calls": "count",
    "egypt.subset_sum.found_ratio": "ratio",
    "egypt.subset_sum.fwd_bytes": "count",
    "egypt.assembly_items.s": "s", "egypt.assembly_items.items": "count",
    "egypt.smooth_pool.s": "s", "egypt.smooth_pool.calls": "count",
    "arith.is_prime.s": "s", "arith.is_prime.calls": "count",
    "egypt.smooth_dp.attempts": "count", "egypt.smooth_dp.exhausted": "count",
    "egypt.decompose.self_s": "s",
    "egypt.feasibility_check.s": "s",
    "egypt.feasibility_check.obstructed": "count",
    "egypt.verify.s": "s", "egypt.verify.terms": "count",
    "arith.reciprocal_sum.s": "s", "arith.reciprocal_sum.terms": "count",
    "arith.reciprocal_sum.den_bits": "count",
    "arith.prime_reciprocal_sum.s": "s", "arith.balanced_product.s": "s",
    "spectrum.friability_density.self_s": "s",
    "spectrum.omega_deviation_density.self_s": "s",
    "spectrum.divisor_window_density.self_s": "s",
    "spectrum.mertens_product.self_s": "s",
    "arith.sieve_primes.s": "s", "arith.sieve_primes.count": "count",
    "arith.prime_flags.s": "s", "arith.prime_flags.builds": "count",
    "arith.prime_array.s": "s", "arith.cache.hit_ratio": "ratio",
    "spectrum.omega_array.s": "s", "spectrum.max_prime_power_array.s": "s",
    "spectrum.progression.s": "s",
    "spectrum.prime_count_ap.self_s": "s",
    "spectrum.halberstam_variance.self_s": "s",
    "spectrum.legendre_sieve_count.self_s": "s",
    "reports.serialize.s": "s", "reports.serialize.bytes": "count",
    "reports.serialize.failed": "count", "reports.parse.s": "s",
    "cli.main.self_s": "s",
    "arith.self_s": "s", "spectrum.self_s": "s", "egypt.self_s": "s",
    "reports.self_s": "s", "cli.self_s": "s",
    # whole-run figures, kept here because they are 0 on some workloads
    "trace.overhead_s": "s", "trace.spans": "count",
    "cert_terms": "count", "fail_ratio": "ratio",
}
RUN_LEVEL = {"trace.overhead_s": "overhead_s", "trace.spans": "spans",
             "cert_terms": "cert_terms", "fail_ratio": "fail_ratio"}
MODULES = ("arith", "spectrum", "egypt", "reports", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # the program's own defaults: no prime cache, CPython's digit limit
    env.pop("EGYPTSIEVE_CACHE_DIR", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Seconds from launching an interpreter to ``import egyptsieve``
    done, scaled like op times; the first launch, which may compile
    bytecode, is discarded."""
    code = "import time, egyptsieve; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        mark = probe.sample()
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=remaining(deadline))
        t1 = float(done.stdout.split()[-1])
        if i:
            samples.append((t1 - t0) * probe.scale(mark[1],
                                                   probe.sample()[1]))
    return samples


def run_round(workload: str, spec: dict, env: dict, deadline: float,
              trace_path: Path | None) -> dict:
    work = SCRATCH / "work" / workload
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           json.dumps(spec, sort_keys=True), str(work)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining(deadline),
                              preexec_fn=cap_memory)
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} worker exited {done.returncode}:\n"
                           + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def combine(rounds: list[dict]) -> dict:
    lat = sorted(x for r in rounds for x in r["latencies_s"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = sum(r["wall_s"] for r in rounds)
    causes: dict[str, int] = {}
    for r in rounds:
        for cause, n in r["causes"].items():
            causes[cause] = causes.get(cause, 0) + n
    records = sorted(x for r in rounds for x in r["records"])
    return {
        "wall_s": wall,
        "raw_wall_s": sum(r["raw_wall_s"] for r in rounds),
        "cpu_s": sum(r["cpu_s"] for r in rounds),
        "ops_per_s": (attempted - failed) / wall,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p99_ms": 1000 * percentile(lat, 0.99),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
        "ops": len(lat),
        "attempted": attempted,
        "failed": failed,
        "causes": causes,
        "wrong": [w for r in rounds for w in r["wrong"]],
        "errors": [e for r in rounds for e in r["errors"]],
        "cert_terms": sum(r["cert_terms"] for r in rounds),
        "digest": hashlib.sha256("\n".join(records).encode()).hexdigest(),
    }


def layer_metrics(traced: list[dict], run: dict) -> tuple[dict, list]:
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for r in traced:
        for name, vals in r["trace"]["layers"].items():
            acc = layers.setdefault(name, {"s": 0.0, "self_s": 0.0})
            acc["s"] += vals["s"]
            acc["self_s"] += vals["self_s"]
        for name, n in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {}
    for metric, unit in PER_LAYER.items():
        head, _, quantity = metric.rpartition(".")
        if metric in RUN_LEVEL:
            value = run[RUN_LEVEL[metric]]
        elif head in MODULES and quantity == "self_s":
            value = sum(v["self_s"] for k, v in layers.items()
                        if k.split(".")[0] == head)
        elif quantity in ("s", "self_s"):
            value = layers.get(head, {}).get(quantity, 0.0)
        elif quantity == "found_ratio":
            value = ratio(head + ".found", head + ".calls")
        elif quantity == "hit_ratio":
            value = 1 - ratio(head + ".misses", head + ".lookups") \
                if counts.get(head + ".lookups") else 0.0
        else:
            value = counts.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    return out, top


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "egyptsieve" / "__init__.py").is_file():
        print(f"error: no egyptsieve sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = child_env()
    specs = plan.rounds(args.workload, args.seed, args.seconds)
    try:
        setup = measure_setup(env, deadline)
        untraced = [run_round(args.workload, s, env, deadline, None)
                    for s in specs]
        traced = []
        if args.trace:
            trace_dir = SCRATCH / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced = [run_round(args.workload, s, env, deadline,
                                trace_dir / f"{args.workload}-{k}.npz")
                      for k, s in enumerate(specs)]
    except (subprocess.SubprocessError, RuntimeError, TimeoutError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run = combine(untraced)
    run["setup_s"] = statistics.median(setup)
    run["fail_ratio"] = run["failed"] / run["attempted"]
    correct = not run["wrong"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  rounds {len(specs)}  ops {run['ops']}")
    samples = {"setup_s": len(setup), "op_p50_ms": run["ops"],
               "op_p99_ms": run["ops"], "peak_rss_mb": len(untraced),
               "wall_s": len(untraced), "cpu_s": len(untraced),
               "ops_per_s": len(untraced)}
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {run[name]:>14.6f} {unit:<4} "
              f"(n={samples[name]})")
    print(f"  fail_ratio   {run['fail_ratio']:>14.6f}      "
          f"({run['failed']}/{run['attempted']}) causes {run['causes']}")
    print(f"  cert_terms   {run['cert_terms']:>14d} count")
    print(f"  raw wall_s   {run['raw_wall_s']:>14.6f} s    (unscaled; "
          f"probe scale {run['wall_s'] / run['raw_wall_s']:.4f})")
    print(f"  digest       sha256:{run['digest']}")
    for err in run["errors"]:
        print("  unexpected error:\n" + err)
    for wrong in run["wrong"][:20]:
        print(f"  WRONG OUTPUT: {wrong}")

    if args.trace:
        traced_run = combine(traced)
        same = traced_run["digest"] == run["digest"]
        correct = correct and same and not traced_run["wrong"]
        run["overhead_s"] = traced_run["wall_s"] - run["wall_s"]
        run["spans"] = sum(r["trace"]["spans"] for r in traced)
        metrics, top = layer_metrics(traced, run)
        print(f"  traced wall_s {traced_run['wall_s']:.6f} s, overhead "
              f"{run['overhead_s']:.6f} s, {run['spans']} spans, digest "
              + ("agrees" if same else
                 "DIFFERS: sha256:" + traced_run["digest"]))
        print("  largest self time: " + ", ".join(
            f"{k} {v['self_s']:.3f} s" for k, v in top))
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    else:
        metrics = {name: {"value": run[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"  correct      {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
