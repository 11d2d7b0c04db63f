"""Self-tests of the benchmark (not part of the package's tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench", "selftest")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_of_nested_spans():
    spans = [
        span("outer", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("leaf", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_of_recursive_spans():
    # q -> q -> q, each level doing 1 s of its own work around the inner call.
    spans = [span("q", 0.0, 5.0, -1), span("q", 1.0, 4.0, 0), span("q", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0]


def test_tracer_sees_recursive_calls_through_the_module_name():
    from fischerdec import entire, fischer
    from fischerdec.polynomials import polynomial_from_json_dict

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert entire.quotient_polynomial is fischer.quotient_polynomial
        assert hasattr(fischer.quotient_polynomial, "__wrapped__")
        problem = fischer.FischerProblem.from_json_dict(workloads._problem(
            {(0, 2): Fraction(1)}, {1: {(1, 0): Fraction(1)}}, 2))
        data = polynomial_from_json_dict(oracle.encode({(6, 0): Fraction(1)}, 2))
        fischer.decompose_recursive(problem, data)
    finally:
        tracer.uninstall()
    assert not hasattr(fischer.quotient_polynomial, "__wrapped__")
    names = [s[tracing.NAME] for s in tracer.spans]
    quotient_spans = [s for s in tracer.spans if s[tracing.NAME] == "fischer.quotient_polynomial"]
    assert any(tracer.spans[s[tracing.PARENT]][tracing.NAME] == "fischer.quotient_polynomial"
               for s in quotient_spans)
    metrics = tracer.layer_metrics()
    assert metrics["fischer.quotient_polynomial.calls"] == names.count("fischer.quotient_polynomial")
    assert metrics["rationals.fraction_ops"] > 0 and metrics["rationals.complex_ops"] > 0
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] < 0))


def _decomposition_spec():
    ops, _ = workloads.specs("decompose-random", 0)
    return next(spec for spec in ops if spec["kind"] == "decompose")


def test_oracle_accepts_the_library_result_and_rejects_a_perturbed_remainder():
    spec = _decomposition_spec()
    op = workloads.materialize(spec, HERE)
    result = op.run()
    assert op.check(result)["h"]
    f = oracle.decode(spec["data"])
    p, k = workloads._lowered(spec["problem"])
    q = _as_dict(result.quotient)
    h = _as_dict(result.remainder)
    oracle.check_decomposition(f, p, q, h, k)
    alpha = sorted(h)[0]
    h[alpha] += Fraction(1, 10**6)
    with pytest.raises(oracle.OracleError):
        oracle.check_decomposition(f, p, q, h, k)


def _as_dict(poly) -> dict:
    from fischerdec.polynomials import polynomial_to_json_dict

    return oracle.decode(polynomial_to_json_dict(poly))


def test_oracle_rejects_a_perturbed_gauss_component():
    f = {(2, 0, 0): Fraction(1)}
    radial = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    harmonic = oracle.sub(f, oracle.scale(radial, Fraction(1, 3)))
    oracle.check_gauss(f, 2, 3, [{(0, 0, 0): Fraction(1, 3)}, harmonic])
    with pytest.raises(oracle.OracleError):
        oracle.check_gauss(f, 2, 3, [{(0, 0, 0): Fraction(1, 2)}, harmonic])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def encoded(seed):
        return json.dumps(workloads.specs(workload, seed), sort_keys=True).encode()

    assert encoded(7) == encoded(7)
    assert encoded(7) != encoded(8)


def test_invalid_request_is_counted_as_failed_not_crashed(workdir, monkeypatch):
    _, probes = workloads.specs("dirichlet-cli", 3)
    invalid = [p for p in probes if p["id"] != "run-invalid-complex"]
    valid = {"id": "ref-parabola-4", "kind": "dirichlet",
             "request": {"domain": workloads.PARABOLA, "data": workloads._exp_axis(2, 0, 4),
                         "truncation": 4}}
    timed = [valid] + [dict(p, kind="dirichlet") for p in invalid]
    monkeypatch.setattr(workloads, "specs", lambda workload, seed: (timed, invalid))
    out = child.main(["dirichlet-cli", "3", "plain", "0", workdir])
    assert len(out["latencies"]) == 3
    assert len(out["failures"]) == len(invalid) == 2
    assert all("invalid" in failure for failure in out["failures"])
    assert len(out["contract_violations"]) == 2


def test_speed_meter_subtracts_its_in_op_samples(monkeypatch):
    import signal
    import time

    import speed

    def slow_sample():
        time.sleep(0.2)
        return 0.2

    monkeypatch.setattr(speed, "sample", slow_sample)
    monkeypatch.setattr(speed, "INTERVAL_S", 60.0)
    meter = speed.Meter()

    def op():
        signal.raise_signal(signal.SIGALRM)  # one in-op sample, as the timer takes them
        return "done"

    result, latency, scaled = meter.time(op)
    assert result == "done"
    assert latency < 0.05  # the 0.2 s sample is not charged to the op
    assert scaled == pytest.approx(latency * speed.REFERENCE_SAMPLE_S / 0.2)
    error, _, _ = meter.time(lambda: 1 / 0)
    assert isinstance(error, ZeroDivisionError)


def test_speed_sample_holds_off_the_garbage_collector():
    import gc

    import speed

    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info)

    gc.collect()
    # Live containers just short of the gen-0 threshold: the sample's own
    # dict keys would trigger a collection if the collector were on.
    alive = [[] for _ in range(gc.get_threshold()[0] - 5)]
    gc.callbacks.append(record)
    try:
        speed.sample()
    finally:
        gc.callbacks.remove(record)
    del alive
    assert collections == []
    assert gc.isenabled()


def test_tracer_counts_a_rebuilt_system_as_a_build(monkeypatch):
    from fischerdec import fischer
    from fischerdec.polynomials import polynomial_from_json_dict

    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    problem = fischer.FischerProblem.from_json_dict(
        workloads._problem({(0, 2): Fraction(1)}, {}, 2))
    data = polynomial_from_json_dict(oracle.encode({(6, 0): Fraction(1)}, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fischer.decompose_recursive(problem, data)
        fischer.decompose_recursive(problem, data)     # cached system: a hit
        fischer._SYSTEM_CACHE.clear()                  # as an evicting cache would
        fischer.decompose_recursive(problem, data)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["exactla.solve_linear.calls"] == 3
    assert (metrics["fischer.system_builds"], metrics["fischer.system_hits"]) == (2, 1)


def test_every_per_layer_metric_is_a_number_where_no_layer_is_reached():
    import run

    traced = {"mode": "traced", "layers": tracing.Tracer().layer_metrics(), "missing": {},
              "op_wall_s": 1.5, "scaled_timed_s": 1.0, "envelope_bytes": 0,
              "invalid_requests": 0, "contract_violations": []}
    metrics, problems = run.per_layer([{"mode": "plain", "scaled_timed_s": 1.0}, traced])
    assert problems == []
    for entry in run.load_contract()["per_layer"]:
        value = metrics[entry["name"]]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), entry["name"]
