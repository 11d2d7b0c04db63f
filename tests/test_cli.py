"""The command-line surface: file formats, envelopes, exit codes, determinism."""

import csv
import json

import pytest

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
