"""One repetition of a workload in a fresh interpreter.

Usage (started by run.py, never by hand):
    child.py WORKLOAD SEED MODE SPAWN_TIME WORKDIR
MODE is ``setup`` (set up, then stop), ``plain`` or ``traced``.  SPAWN_TIME
is the parent's ``time.perf_counter()`` just before it started this process;
on Linux that clock is CLOCK_MONOTONIC and so comparable across processes.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time


def digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list) -> dict:
    workload, seed, mode, spawn_time, workdir = argv
    import speed

    first = speed.sample()
    import fischerdec  # noqa: F401  (import cost belongs to set-up)
    import tracing
    import workloads

    op_specs, probe_specs = workloads.specs(workload, int(seed))
    ops = [workloads.materialize(spec, workdir) for spec in op_specs]
    probes = [workloads.materialize(spec, workdir) for spec in probe_specs]
    setup_wall = time.perf_counter() - float(spawn_time) - first
    # Scaled like op times, from one speed sample on each side of set-up.
    setup_s = setup_wall * speed.REFERENCE_SAMPLE_S / statistics.fmean([first, speed.sample()])
    setup_rss_mb = peak_rss_mb()
    if mode == "setup":
        return {"setup_s": setup_s, "setup_rss_mb": setup_rss_mb}

    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    meter = speed.Meter()
    results, latencies, scaled = [], [], []
    for op in ops:
        result, latency, scaled_latency = meter.time(op.run)
        results.append(result)
        latencies.append(latency)
        scaled.append(scaled_latency)
    if tracer is not None:
        tracer.uninstall()
    peak_rss = peak_rss_mb()

    failures, records, reference_records = [], [], []
    for op, result in zip(ops, results):
        try:
            if isinstance(result, Exception):
                raise result
            record = {"id": op.op_id, **op.check(result)}
        except Exception as exc:
            failures.append(f"{op.op_id}: {type(exc).__name__}: {exc}")
            record = {"id": op.op_id, "failed": True}
        records.append(record)
        if op.reference:
            reference_records.append(record)
    records.sort(key=lambda r: r["id"])
    reference_records.sort(key=lambda r: r["id"])

    violations = []
    for probe in probes:
        try:
            probe.check(probe.run())
        except Exception as exc:
            violations.append(f"{probe.op_id}: {type(exc).__name__}: {exc}")

    out = {
        "setup_s": setup_s,
        "timed_s": sum(latencies),
        "latencies": latencies,
        "scaled_timed_s": sum(scaled),
        "scaled_latencies": scaled,
        "failures": failures,
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": peak_rss,
        "digest": digest(records),
        "reference_digest": digest(reference_records),
        "envelope_bytes": sum(op.out_bytes for op in ops),
        "invalid_requests": len(probes),
        "contract_violations": violations,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
        # Span self times include the in-op speed samples; so does this total.
        out["op_wall_s"] = out["timed_s"] + meter.sampled_s
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
