"""Run one round of a workload in this fresh process and print its result.

Usage: worker.py WORKLOAD SPEC_JSON WORK_DIR [TRACE_PATH]

The round's ops run back to back (a closed loop with one client); only
the program calls are timed, and each time is scaled to the nominal host
speed by the probe samples taken around and during it (see probe.py).
Outputs are judged after the loop, and the result is printed as one JSON
line.  With TRACE_PATH the module boundaries are traced and the spans
are written there.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import probe
import workloads


def main(argv: list[str]) -> int:
    workload, spec, work = argv[0], json.loads(argv[1]), Path(argv[2])
    trace_path = argv[3] if len(argv) > 3 else None
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.ROUND_OPS[workload](spec, work)

    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.SPEC)

    outcomes = []
    timed = []                    # (seconds, first mark, last mark) per op
    cpu = 0.0
    with probe.Sampler() as sampler:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = i
            mark, stolen = len(sampler.marks) - 1, sampler.stolen
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                outcomes.append((op.call(), None))
            except Exception as exc:
                outcomes.append((None, exc))
            t1 = time.perf_counter()
            stolen = sampler.stolen - stolen
            cpu += time.process_time() - cpu0 - stolen
            timed.append((t1 - t0 - stolen, mark, len(sampler.marks)))
    raw = [d for d, _, _ in timed]
    latencies = [d * sampler.scale(a, b) for d, a, b in timed]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        tracer.write(trace_path)

    causes: Counter = Counter()
    errors = []
    wrong = []
    records = []
    terms = 0
    for op, (out, exc) in zip(ops, outcomes):
        try:
            verdict = op.judge(out, exc)
        except MemoryError:      # the cap leaves no room to check the output
            verdict = workloads.Verdict(cause="memory", record=op.key)
        if verdict.cause:
            causes[verdict.cause] += 1
        if verdict.cause and verdict.cause.startswith("error:"):
            errors.append("".join(traceback.format_exception(exc))[-2000:])
        if verdict.wrong:
            wrong.append(verdict.wrong)
        terms += verdict.terms
        records.append(
            f"{op.key} {hashlib.sha256(verdict.record.encode()).hexdigest()}")

    print(json.dumps({
        "latencies_s": latencies, "raw_wall_s": sum(raw),
        "wall_s": sum(latencies), "cpu_s": cpu * sum(latencies) / sum(raw),
        "attempted": len(ops), "failed": sum(causes.values()),
        "causes": dict(causes), "wrong": wrong, "errors": errors[:5],
        "cert_terms": terms,
        "records": records, "peak_rss_kb": rss_kb, "trace": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
