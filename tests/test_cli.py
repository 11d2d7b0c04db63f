"""The command-line surface: file formats, envelopes, exit codes, determinism."""

import csv
import json
from fractions import Fraction

import pytest

from fischerdec import fischer
from fischerdec.cli import main
from fischerdec.entire import strip_harmonic_series
from fischerdec.polynomials import Polynomial, polynomial_to_json_dict


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def parabola_file(tmp_path):
    return write_json(tmp_path / "parabola.json", {"kind": "parabola", "a": "1"})


@pytest.fixture
def x1sq_file(tmp_path):
    poly = Polynomial.from_terms(2, {(2, 0): 1})
    return write_json(tmp_path / "f.json", polynomial_to_json_dict(poly))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    envelope = json.loads(captured.out.strip().splitlines()[-1])
    return code, envelope


def test_decompose_polynomial(capsys, tmp_path, parabola_file, x1sq_file):
    out = tmp_path / "result.json"
    code, envelope = run(capsys, [
        "decompose", "--problem", parabola_file, "--data", x1sq_file,
        "--output", str(out),
    ])
    assert code == 0
    assert envelope["ok"] is True
    result = json.loads(out.read_text())
    assert result["result"]["certificate"]["exact"] is True
    terms = result["result"]["remainder"]["terms"]
    assert {tuple(t["exponents"]): t["re"] for t in terms} == {
        (1, 0): "1", (0, 2): "-1", (2, 0): "1",
    }


def test_decompose_series_data(capsys, tmp_path):
    problem = write_json(tmp_path / "strip.json", {"kind": "strip", "a": "1"})
    series = write_json(tmp_path / "series.json", strip_harmonic_series(8).to_json_dict())
    tail = tmp_path / "tail.csv"
    code, envelope = run(capsys, [
        "decompose", "--problem", problem, "--data", series, "--tail-csv", str(tail),
    ])
    assert code == 0 and envelope["ok"]
    with open(tail) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["M", "norm_GM", "bound_shape"]
    assert len(rows) == 10  # header + degrees 0..8


def test_decompose_tail_csv_with_tiny_estimated_order(capsys, tmp_path, parabola_file):
    """Alternating coefficient sizes give an order estimate near 0.009."""
    terms = {(m, 0): 1 if m % 2 == 0 else Fraction(1, 1000) for m in range(11)}
    data = write_json(tmp_path / "f.json",
                      polynomial_to_json_dict(Polynomial.from_terms(2, terms)))
    tail = tmp_path / "tail.csv"
    code = main(["decompose", "--problem", parabola_file, "--data", data,
                 "--tail-csv", str(tail)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(lines) == 1
    assert json.loads(lines[0])["ok"] is True
    with open(tail) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 12  # header + degrees 0..10


def test_decompose_explicit_problem_file(capsys, tmp_path, x1sq_file):
    problem = {
        "dimension": 2,
        "k": 1,
        "leading": {"dimension": 2, "terms": [{"exponents": [0, 2], "re": "1", "im": "0"}]},
        "lower": [],
    }
    path = write_json(tmp_path / "problem.json", problem)
    code, envelope = run(capsys, ["decompose", "--problem", path, "--data", x1sq_file])
    assert code == 0 and envelope["ok"]


def test_dirichlet_request(capsys, tmp_path, x1sq_file):
    request = {
        "domain": {"kind": "ellipsoid", "dimension": 2, "semi_axes": ["1", "1"]},
        "data": json.loads(open(x1sq_file).read()),
        "truncation": 6,
    }
    request_path = write_json(tmp_path / "request.json", request)
    csv_path = tmp_path / "boundary.csv"
    code, envelope = run(capsys, [
        "dirichlet", "--request", request_path, "--csv", str(csv_path),
    ])
    assert code == 0
    assert envelope["result"]["boundary_residual"]["max_residual"] <= 1e-10
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["parameter", "f", "h", "residual"]
    assert len(rows) > 1
    # the CSV and the envelope come from one evaluation
    assert max(float(r[3]) for r in rows[1:]) == envelope["result"]["boundary_residual"]["max_residual"]


def _exp_x1_series(dimension, truncation, imaginary_degree=None):
    from fischerdec.entire import exp_axis_series

    series = exp_axis_series(dimension, 0, truncation).to_json_dict()
    if imaginary_degree is not None:
        series["parts"][imaginary_degree]["terms"][0]["im"] = "1/3"
    return series


@pytest.mark.parametrize("data, truncation", [
    (_exp_x1_series(2, 8, imaginary_degree=5), 8),     # complex coefficients
    (_exp_x1_series(2, 8), -2),                        # negative truncation
    (_exp_x1_series(2, 8), 6),                         # truncation below the data's
    (_exp_x1_series(2, 8), "8"),                       # truncation not an integer
    ({"dimension": 2, "terms": [{"exponents": [6, 0], "re": "1", "im": "0"}]},
     4),                                               # polynomial above the truncation
    (_exp_x1_series(3, 8), 8),                         # data dimension differs
], ids=["complex", "negative-truncation", "series-shrink", "string-truncation",
        "polynomial-above", "dimension"])
def test_invalid_dirichlet_request_exit_code(capsys, tmp_path, data, truncation):
    request = {"domain": {"kind": "parabola", "a": "1"}, "data": data,
               "truncation": truncation}
    code = main(["dirichlet", "--request", write_json(tmp_path / "request.json", request)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(lines) == 1
    envelope = json.loads(lines[0])
    assert envelope["command"] == "dirichlet" and envelope["ok"] is False
    assert envelope["error"].startswith("invalid request")


def _x1_power_file(tmp_path, dimension, degree):
    poly = Polynomial.from_terms(dimension, {(degree,) + (0,) * (dimension - 1): 1})
    return write_json(tmp_path / "f.json", polynomial_to_json_dict(poly))


def _series_file(tmp_path, truncation):
    return write_json(tmp_path / "series.json", _exp_x1_series(2, truncation))


@pytest.mark.parametrize("command, make_argv", [
    ("order", lambda tmp: ["order", "--data", _series_file(tmp, 6)]),
    ("order", lambda tmp: ["order", "--data", _x1_power_file(tmp, 2, 4),
                           "--min-truncation", "3"]),
    ("order", lambda tmp: ["order", "--data", _series_file(tmp, 12), "--samples", "0"]),
    ("order", lambda tmp: ["order", "--data", _series_file(tmp, 12), "--samples", "-5"]),
    ("decompose", lambda tmp: [
        "decompose", "--problem", write_json(tmp / "p.json", {"kind": "parabola", "a": "1"}),
        "--data", _x1_power_file(tmp, 3, 2)]),
    ("bound-scan", lambda tmp: ["bound-scan", "--m-max", "-1"]),
], ids=["order-series-truncation", "order-min-truncation", "order-zero-samples",
        "order-negative-samples", "decompose-dimension", "bound-scan-negative-m-max"])
def test_invalid_input_exit_code(capsys, tmp_path, command, make_argv):
    code = main(make_argv(tmp_path))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(lines) == 1
    envelope = json.loads(lines[0])
    assert envelope["command"] == command and envelope["ok"] is False
    assert envelope["error"]


def test_decompose_wrong_quotient_fails_the_certificate(capsys, monkeypatch, parabola_file,
                                                        x1sq_file):
    """A wrong quotient leaves Lap h nonzero: the envelope says so and exits 1."""
    true_quotient = fischer.quotient_polynomial
    monkeypatch.setattr(fischer, "quotient_polynomial",
                        lambda problem, f_m, memo=None:
                        true_quotient(problem, f_m, memo) + Polynomial.constant(2, 1))
    code, envelope = run(capsys, ["decompose", "--problem", parabola_file, "--data", x1sq_file])
    assert code == 1
    assert envelope["ok"] is False
    assert envelope["result"]["certificate"]["exact"] is False
    assert envelope["result"]["certificate"]["polyharmonic_residual"]["terms"]


def test_verify_battery(capsys):
    code = main(["verify", "--count", "20", "--equivalence-count", "10", "--m-max", "50"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 1
    envelope = json.loads(lines[0])
    assert envelope["command"] == "verify" and envelope["ok"] is True
    assert len(envelope["checks"]) == 10
    assert all(check["passed"] for check in envelope["checks"])


def test_bound_scan_csv(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, envelope = run(capsys, ["bound-scan", "--m-max", "50", "--output", str(out)])
    assert code == 0
    assert envelope["rows"] == 51
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 52
    assert all(float(row[3]) >= 0 for row in rows[1:])


def test_order_subcommand(capsys, tmp_path):
    from fischerdec.entire import exp_axis_series

    series = write_json(tmp_path / "exp.json", exp_axis_series(2, 0, 40).to_json_dict())
    code, envelope = run(capsys, ["order", "--data", series])
    assert code == 0
    assert abs(envelope["order"] - 1.0) <= 0.05


def test_order_subcommand_never_negative(capsys, tmp_path):
    data = Polynomial.from_terms(2, {
        (0, 0): Fraction(-7, 9), (2, 3): Fraction(7, 4), (3, 1): Fraction(1, 4),
        (3, 5): Fraction(-9, 8), (4, 2): -6, (5, 2): -3,
    })
    path = write_json(tmp_path / "f.json", polynomial_to_json_dict(data))
    code, envelope = run(capsys, ["order", "--data", path])
    assert code == 0
    assert envelope["order"] == 0.0 and envelope["type"] is None


def test_chebyshev_check(capsys):
    code, envelope = run(capsys, ["chebyshev-check", "--n", "12"])
    assert code == 0 and envelope["ok"]


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, envelope = run(capsys, ["decompose", "--problem", str(bad), "--data", str(bad)])
    assert code == 2
    assert envelope["ok"] is False


def test_invalid_domain_exit_code(capsys, tmp_path, x1sq_file):
    bad = write_json(tmp_path / "bad_domain.json", {"kind": "parabola", "a": "0"})
    code, envelope = run(capsys, ["decompose", "--problem", bad, "--data", x1sq_file])
    assert code == 2


def test_singular_problem_exit_code(capsys, tmp_path):
    problem = {
        "dimension": 2,
        "k": 1,
        "leading": {"dimension": 2, "terms": [
            {"exponents": [2, 0], "re": "1", "im": "0"},
            {"exponents": [0, 2], "re": "-1", "im": "0"},
        ]},
        "lower": [],
    }
    data = {"dimension": 2, "terms": [{"exponents": [4, 0], "re": "1", "im": "0"}]}
    code, envelope = run(capsys, [
        "decompose",
        "--problem", write_json(tmp_path / "p.json", problem),
        "--data", write_json(tmp_path / "d.json", data),
    ])
    assert code == 3
    assert "singular" in envelope["error"]


def test_round_trip_determinism(capsys, tmp_path, parabola_file, x1sq_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run(capsys, ["decompose", "--problem", parabola_file, "--data", x1sq_file,
                 "--output", str(out1)])
    run(capsys, ["decompose", "--problem", parabola_file, "--data", x1sq_file,
                 "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
