"""Run one fischerdec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition of the workload runs
in a fresh interpreter (``child.py``), because every ``fischerdec`` CLI
invocation pays for graded-system builds and cache fills from scratch.  One
client, one process at a time, no threads; BLAS is pinned to one thread.
Repetitions replay the same seeded inputs until their timed regions add up to
``--seconds``.  Op times are scaled to a reference machine speed
(``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced repetitions (at least one of each), prints the per-layer metrics
from the traced ones and the tracing overhead, and requires the two kinds to
produce the same output digest.  The last stdout line is the JSON result;
progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

MIN_SETUPS = 5          # set-up samples per run; extra set-up-only children fill up
CHILD_TIMEOUT_S = 150   # one repetition; a run must end within 180 s
RUN_BUDGET_S = 150      # stop starting repetitions past this wall time

LAYER_NAMES = [f"{module}.{function}" for module, function in tracing.LAYERS]
COUNT_METRICS = [f"{name}.calls" for name in LAYER_NAMES] + [
    "rationals.fraction_ops", "rationals.complex_ops",
    "exactla.solve_linear.unknowns_max", "exactla.solve_linear.unknowns_sum",
    "exactla.solve_linear.nonzeros_sum", "dirichlet.boundary_residual.points",
    "fischer.system_builds", "fischer.system_hits",
]


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SOURCE, HERE])
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, workdir: str) -> dict:
    os.makedirs(workdir)
    try:
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode,
             repr(spawn), workdir],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} repetition of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> list:
    """Repetitions until their timed regions add up to ``seconds``."""
    reps: list = []
    started = time.perf_counter()
    timed = 0.0
    while timed < seconds or (trace and len(reps) < 2):
        if len(reps) >= 2 and time.perf_counter() - started > RUN_BUDGET_S:
            break
        mode = "traced" if trace and len(reps) % 2 else "plain"
        rep = run_child(workload, seed, mode, os.path.join(workdir, f"rep{len(reps)}"))
        rep["mode"] = mode
        reps.append(rep)
        timed += rep["timed_s"]
        print(f"{workload} seed={seed} {mode} rep {len(reps)}: timed {rep['timed_s']:.3f} s "
              f"(scaled {rep['scaled_timed_s']:.3f} s), setup {rep['setup_s']:.3f} s, "
              f"rss {rep['setup_rss_mb']:.1f} MB after set-up, {rep['peak_rss_mb']:.1f} MB peak, "
              f"failures {len(rep['failures'])}", file=sys.stderr)
    return reps


def end_to_end(reps: list, setups: list) -> dict:
    """Op times are wall times scaled to the reference machine speed (speed.py)."""
    latencies = [t for rep in reps for t in rep["scaled_latencies"]]
    verified = sum(len(rep["latencies"]) - len(rep["failures"]) for rep in reps)
    return {
        "ops_per_s": verified / sum(rep["scaled_timed_s"] for rep in reps),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(reps: list) -> tuple:
    """(metrics, problems) from a traced run.

    A layer's self time is reported as its share of the traced repetition's
    op wall time, the median over traced repetitions: a share is not moved by
    the machine's speed swings, and it is 0 exactly where the workload never
    reaches the layer.
    """
    traced = [rep for rep in reps if rep["mode"] == "traced"]
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    problems = []
    metrics: dict = {}
    layers = [rep["layers"] for rep in traced]
    for name in COUNT_METRICS:
        values = [layer[name] for layer in layers]
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced repetitions: {values}")
        metrics[name] = values[0]
    for name in LAYER_NAMES:
        metrics[f"{name}.self_share"] = statistics.median(
            rep["layers"][f"{name}.self_s"] / rep["op_wall_s"] for rep in traced)
    metrics["cli.envelope_bytes"] = traced[0]["envelope_bytes"]
    metrics["cli.invalid_requests"] = traced[0]["invalid_requests"]
    metrics["cli.invalid_contract_violations"] = len(traced[0]["contract_violations"])
    metrics["trace.overhead_frac"] = (
        statistics.median(rep["scaled_timed_s"] for rep in traced)
        / statistics.median(rep["scaled_timed_s"] for rep in plain) - 1.0
    )
    for name, reason in traced[0]["missing"].items():
        print(f"not measured, reported as 0: {name}: {reason}", file=sys.stderr)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "fischerdec", "__init__.py")):
        print(f"no fischerdec source under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    contract = load_contract()
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        setups = [rep["setup_s"] for rep in reps]
        while len(setups) < MIN_SETUPS:
            extra = run_child(args.workload, args.seed, "setup",
                              os.path.join(workdir, f"setup{len(setups)}"))
            setups.append(extra["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f for rep in reps for f in rep["failures"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"output digests differ between repetitions: {sorted(digests)}")
    pinned = workloads.load_reference()["digests"].get(args.workload)
    for rep in reps:
        if rep["reference_digest"] != pinned:
            problems.append(f"reference-block digest {rep['reference_digest']} != pinned {pinned}")
            break
    for violation in reps[0]["contract_violations"]:
        print(f"known CLI contract violation: {violation}", file=sys.stderr)

    if args.trace:
        values, trace_problems = per_layer(reps)
        problems += trace_problems
        wanted = contract["per_layer"]
    else:
        values = end_to_end(reps, setups)
        wanted = contract["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in wanted}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"digest {reps[0]['digest']} reference {reps[0]['reference_digest']} "
          f"repetitions {len(reps)}", file=sys.stderr)
    attempted = sum(len(rep["latencies"]) for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
