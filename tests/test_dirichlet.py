"""Domain catalogue, harmonic extensions, boundary residuals, the strip witness."""

import csv
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fischerdec.dirichlet import (
    DomainSpec,
    boundary_points,
    boundary_samples_csv,
    nonuniqueness_witness,
    solve,
    to_fischer_problem,
    witness_to_json_dict,
)
from fischerdec.entire import OrderGateWarning, exp_axis_series, order_of_decomposition
from fischerdec.polynomials import Polynomial, evaluate_on_points, laplacian


X1SQ = Polynomial.from_terms(2, {(2, 0): 1})


# ---------------------------------------------------------------------------
# Domain specs and their decomposition problems
# ---------------------------------------------------------------------------

def test_gate_values():
    assert to_fischer_problem(DomainSpec.ellipsoid(1, 1)).order_gate == math.inf
    assert to_fischer_problem(DomainSpec.parabola(1)).order_gate == 0.5
    assert to_fischer_problem(DomainSpec.strip(1)).order_gate == 1.0
    assert to_fischer_problem(DomainSpec.cylinder([1, 1], 3)).order_gate == 1.0


def test_defining_polynomials():
    parabola = to_fischer_problem(DomainSpec.parabola(2))
    assert parabola.assembled() == Polynomial.from_terms(2, {(0, 2): 1, (1, 0): -2})
    strip = to_fischer_problem(DomainSpec.strip(Fraction(3, 2)))
    assert strip.assembled() == Polynomial.from_terms(2, {(2, 0): 1, (0, 0): Fraction(-9, 4)})
    ellipse = to_fischer_problem(DomainSpec.ellipsoid(1, 2))
    assert ellipse.assembled() == Polynomial.from_terms(
        2, {(2, 0): 1, (0, 2): Fraction(1, 4), (0, 0): -1}
    )
    cylinder = to_fischer_problem(DomainSpec.cylinder([1, 1], 3))
    assert cylinder.assembled() == Polynomial.from_terms(
        3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 0): -1}
    )


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec.parabola(0)
    with pytest.raises(ValueError):
        DomainSpec.ellipsoid(1, -1)
    with pytest.raises(ValueError):
        DomainSpec("strip", 3, (), Fraction(1))
    with pytest.raises(ValueError):
        DomainSpec.from_json_dict({"kind": "octagon"})


def test_domain_json_round_trip():
    for spec in (
        DomainSpec.ellipsoid(1, Fraction(3, 2)),
        DomainSpec.parabola(Fraction(1, 2)),
        DomainSpec.strip(2),
        DomainSpec.cylinder([1, 2], 3),
    ):
        assert DomainSpec.from_json_dict(spec.to_json_dict()) == spec


def test_boundary_points_lie_on_zero_set():
    for spec in (
        DomainSpec.ellipsoid(1, 2),
        DomainSpec.parabola(Fraction(3, 2)),
        DomainSpec.strip(Fraction(5, 4)),
        DomainSpec.cylinder([1, 2], 3),
    ):
        defining = to_fischer_problem(spec).assembled()
        points, _, _ = boundary_points(spec)
        worst = np.max(np.abs(evaluate_on_points(defining, points)))
        assert worst <= 1e-10


def test_cylinder_boundary_points_order():
    """Heights outer, angles inner; the parameter is the angle."""
    points, params, _ = boundary_points(DomainSpec.cylinder([1, 2], 3))
    angles = [2.0 * math.pi * j / 64 for j in range(64)]
    heights = [-4.0 + 8.0 * i / 15 for i in range(16)]
    expected = [[math.cos(t), 2.0 * math.sin(t), z] for z in heights for t in angles]
    assert points.shape == (1024, 3)
    assert np.allclose(points, expected, rtol=0, atol=1e-14)
    assert np.allclose(params, angles * 16, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Closed-form solves
# ---------------------------------------------------------------------------

def test_unit_disk_classical_solution():
    solution = solve(DomainSpec.ellipsoid(1, 1), X1SQ)
    expected = Polynomial.from_terms(
        2, {(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}
    )
    assert solution.harmonic_extension.to_polynomial() == expected
    assert solution.residual_report.max_residual <= 1e-10
    assert laplacian(solution.harmonic_extension.to_polynomial()).is_zero


def test_parabola_hand_checked_solution():
    solution = solve(DomainSpec.parabola(1), X1SQ)
    expected = Polynomial.from_terms(2, {(2, 0): 1, (0, 2): -1, (1, 0): 1})
    assert solution.harmonic_extension.to_polynomial() == expected
    assert solution.residual_report.max_residual <= 1e-10
    # on the locus x1 = t^2: h(t^2, t) = t^4 - t^2 + t^2 = t^4 = f(t^2, t)
    h = solution.harmonic_extension.to_polynomial()
    t = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    assert np.allclose(evaluate_on_points(h, np.stack([t * t, t], axis=1)), t**4,
                       rtol=0, atol=1e-9)


def test_polynomial_data_residual_noise_only():
    data = Polynomial.from_terms(2, {(3, 0): 1, (1, 2): -2, (0, 1): Fraction(1, 3)})
    for spec in (DomainSpec.ellipsoid(2, 1), DomainSpec.parabola(2), DomainSpec.strip(1)):
        solution = solve(spec, data)
        assert solution.decomposition.exact
        assert solution.residual_report.max_residual <= 1e-10


def test_cylinder_solve_dimension_three():
    data = Polynomial.from_terms(3, {(2, 0, 0): 1, (0, 0, 1): 2})
    solution = solve(DomainSpec.cylinder([1, 1], 3), data)
    assert solution.decomposition.exact
    assert solution.residual_report.max_residual <= 1e-10
    assert laplacian(solution.harmonic_extension.to_polynomial()).is_zero


def test_strip_entire_data_boundary_residual_zero():
    """h = f on the boundary holds identically: f - h = P q and P vanishes there."""
    from fischerdec.entire import strip_harmonic_series

    with warnings.catch_warnings():
        # order-1 data sits exactly on the strip threshold; the advisory gate
        # fires by design on this boundary case
        warnings.simplefilter("ignore", OrderGateWarning)
        solution = solve(DomainSpec.strip(1), strip_harmonic_series(16))
    assert solution.decomposition.exact
    assert solution.residual_report.max_residual <= 1e-10


def test_ellipsoid_exp_data_growth_comparison():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderGateWarning)
        solution = solve(DomainSpec.ellipsoid(1, 2), exp_axis_series(2, 0, 24))
    assert solution.decomposition.exact
    comparison = order_of_decomposition(
        solution.decomposition.data, solution.quotient, solution.harmonic_extension
    )
    assert comparison.remainder.order <= comparison.data.order + 0.1
    assert comparison.quotient.order <= comparison.data.order + 0.1


def test_boundary_csv(tmp_path):
    solution = solve(DomainSpec.parabola(1), X1SQ)
    path = tmp_path / "samples.csv"
    boundary_samples_csv(solution, str(path))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["parameter", "f", "h", "residual"]
    assert len(rows) == 513
    assert max(float(r[3]) for r in rows[1:]) <= 1e-10


# ---------------------------------------------------------------------------
# The strip witness
# ---------------------------------------------------------------------------

def test_witness_two_certified_decompositions():
    witness = nonuniqueness_witness(truncation=16)
    assert witness.both_certified
    assert witness.decompositions_differ
    # first split: quotient 0, remainder the data itself, exactly harmonic
    assert witness.first.quotient.to_polynomial().is_zero
    assert witness.first.harmonicity_ok
    assert witness.first.full_residual.is_zero
    # second split: remainder 0, quotient nonzero from degree 1 on
    assert witness.second.remainder.to_polynomial().is_zero
    degrees = witness.second.quotient.nonzero_degrees()
    assert degrees and degrees[0] == 1
    assert witness.second.graded_residual_ok


def test_witness_overflow_confined_above_truncation():
    """The division split's full-polynomial residual lives in the escaping tail."""
    witness = nonuniqueness_witness(truncation=16)
    overflow_degrees = sorted(witness.second.full_residual.graded_parts())
    assert overflow_degrees == [17, 18]


def test_witness_pipeline_reproduces_zero_quotient():
    """The graded pipeline maps harmonic data to the trivial split: at any
    finite truncation the polynomial decomposition is unique, so the second
    split must come from the formal division, not from the quotient operator."""
    witness = nonuniqueness_witness(truncation=12)
    assert witness.pipeline_matches_first


def test_witness_scale_free():
    witness = nonuniqueness_witness(truncation=10, scale=Fraction(3))
    assert witness.both_certified and witness.decompositions_differ


def test_witness_json():
    data = witness_to_json_dict(nonuniqueness_witness(truncation=8))
    assert data["both_certified"] and data["decompositions_differ"]
    assert data["first"]["label"] == "zero-quotient"
    assert data["second"]["label"] == "formal-division"
