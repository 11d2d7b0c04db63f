"""Truncated expansions: generators, order/type estimation, series decomposition."""

import math
import warnings
from fractions import Fraction

import pytest

from fischerdec.dirichlet import DomainSpec, to_fischer_problem
from fischerdec.entire import (
    EntireSeries,
    OrderGateWarning,
    decay_series,
    decompose_entire,
    exp_axis_series,
    formal_quotient_constant_term,
    order_estimate,
    order_of_decomposition,
    small_type_criterion,
    strip_harmonic_series,
    tail_report,
)
from fischerdec.fischer import decompose_recursive, quotient_polynomial
from fischerdec.polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    laplacian,
    laplacian_power,
)
from fischerdec.sphere import sup_norm_estimate


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_exp_series_parts():
    series = exp_axis_series(2, 0, 10)
    assert series.parts[3] == HomogeneousPolynomial.monomial(2, (3, 0), Fraction(1, 6))
    assert series.parts[0] == HomogeneousPolynomial.monomial(2, (0, 0), 1)


def test_strip_series_is_harmonic_degreewise():
    series = strip_harmonic_series(20)
    for part in series.parts:
        assert part.is_zero or part.laplacian().is_zero
    # the expansion starts with c * x1
    c = Fraction(355, 113)
    assert series.parts[1] == HomogeneousPolynomial.monomial(2, (1, 0), c)


def test_strip_series_harmonic_for_any_scale():
    series = strip_harmonic_series(12, scale=Fraction(3))
    assert laplacian(series.to_polynomial()).is_zero


def test_decay_series_sup_norms_exact():
    series = decay_series(Fraction(2), 20)
    degrees = series.nonzero_degrees()
    assert degrees == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]  # even only for rho = 2
    part = series.parts[4]
    assert part == HomogeneousPolynomial.monomial(2, (4, 0), Fraction(1, 16))


def test_series_json_round_trip():
    series = strip_harmonic_series(8)
    data = series.to_json_dict()
    again = EntireSeries.from_json_dict(data)
    assert again.to_json_dict() == data
    assert again.to_polynomial() == series.to_polynomial()


def test_series_validation():
    with pytest.raises(ValueError):
        EntireSeries(2, 1, (HomogeneousPolynomial.zero(2, 0),))  # wrong length
    with pytest.raises(ValueError):
        EntireSeries(2, 0, (HomogeneousPolynomial.monomial(2, (1, 0), 1),))  # bad degree


# ---------------------------------------------------------------------------
# Order and type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_order_recovery_synthetic(rho):
    estimate = order_estimate(decay_series(rho, 60))
    assert abs(estimate.order - float(rho)) <= 0.02 * float(rho)


def test_exp_order_and_type():
    estimate = order_estimate(exp_axis_series(2, 0, 40))
    assert abs(estimate.order - 1.0) <= 0.05
    assert estimate.type is not None and abs(estimate.type - 1.0) <= 0.10


def test_polynomial_series_has_zero_order():
    series = EntireSeries.from_polynomial(Polynomial.from_terms(2, {(2, 0): 1}), 16)
    estimate = order_estimate(series)
    assert estimate.order == 0.0
    assert estimate.type is None
    assert estimate.all_zero_tail


# A degree-8 polynomial whose linear fit in 1/m lands at -0.71 before clamping.
NEGATIVE_FIT_DATA = Polynomial.from_terms(2, {
    (0, 0): Fraction(-7, 9), (2, 3): Fraction(7, 4), (3, 1): Fraction(1, 4),
    (3, 5): Fraction(-9, 8), (4, 2): -6, (5, 2): -3,
})


def test_order_estimate_never_negative():
    estimate = order_estimate(EntireSeries.from_polynomial(NEGATIVE_FIT_DATA, 8))
    assert estimate.order == 0.0
    assert estimate.type is None


def test_order_estimate_requires_depth():
    with pytest.raises(ValueError):
        order_estimate(EntireSeries.from_polynomial(Polynomial.constant(2, 1), 4))


def test_ratio_sequence_exact_for_synthetic():
    # for sup norm m^(-m/rho) the classical sequence is identically rho
    series = decay_series(Fraction(1), 30)
    estimate = order_estimate(series)
    for m, value in estimate.ratio_sequence.items():
        assert math.isclose(value, 1.0, rel_tol=1e-9)


def test_certified_bound_fallback_runs():
    estimate = order_estimate(exp_axis_series(2, 0, 24), use_certified_bound=True)
    assert estimate.order > 0.5  # bound inflates norms by sqrt(1+m); order survives


# ---------------------------------------------------------------------------
# Series decomposition
# ---------------------------------------------------------------------------

def _parabola_problem():
    return to_fischer_problem(DomainSpec.parabola(1))


def test_polynomial_data_reduces_to_recursion():
    problem = _parabola_problem()
    data = Polynomial.from_terms(2, {(2, 0): 1, (0, 1): 3})
    series = EntireSeries.from_polynomial(data, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderGateWarning)
        result = decompose_entire(problem, series)
    direct = decompose_recursive(problem, data)
    assert result.quotient.to_polynomial() == direct.quotient
    assert result.remainder.to_polynomial() == direct.remainder
    assert result.exact


def test_monotone_stability_in_truncation():
    problem = _parabola_problem()
    data = Polynomial.from_terms(2, {(4, 0): 1, (2, 0): -2, (0, 0): 1})
    first = decompose_entire(problem, EntireSeries.from_polynomial(data, 8), estimate_order=False)
    second = decompose_entire(problem, EntireSeries.from_polynomial(data, 14), estimate_order=False)
    assert first.quotient.to_polynomial() == second.quotient.to_polynomial()
    assert first.remainder.to_polynomial() == second.remainder.to_polynomial()


def test_strip_stress_input_exact_at_every_truncation():
    problem = to_fischer_problem(DomainSpec.strip(1))
    for truncation in (8, 16, 24, 40):
        series = strip_harmonic_series(truncation)
        result = decompose_entire(problem, series, estimate_order=False)
        assert result.exact
        assert laplacian_power(result.remainder.to_polynomial(), 1).is_zero


def test_order_gate_warning_on_parabola_exp():
    problem = _parabola_problem()
    series = exp_axis_series(2, 0, 24)
    with pytest.warns(OrderGateWarning):
        result = decompose_entire(problem, series)
    assert result.warnings
    assert result.exact  # certificates hold regardless of the gate


def test_no_gate_warning_inside_threshold():
    problem = to_fischer_problem(DomainSpec.ellipsoid(1, 1))  # infinite threshold
    series = exp_axis_series(2, 0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", OrderGateWarning)
        result = decompose_entire(problem, series)
    assert result.exact


def test_regrading_consistency():
    """Collecting by degree reproduces the sum of per-degree quotients."""
    problem = _parabola_problem()
    series = exp_axis_series(2, 0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderGateWarning)
        result = decompose_entire(problem, series)
    memo: dict = {}
    total = Polynomial.zero(2)
    for part in series.parts:
        if not part.is_zero:
            total = total + quotient_polynomial(problem, part, memo)
    assert result.quotient.to_polynomial() == total


def test_tail_report_shape():
    problem = to_fischer_problem(DomainSpec.ellipsoid(1, 1))
    series = exp_axis_series(2, 0, 16)
    result = decompose_entire(problem, series)
    rows = tail_report(result.quotient, problem, result.order)
    assert len(rows) == 17
    norms = [row.quotient_norm for row in rows]
    assert max(norms) > 0.0
    assert all(row.bound_shape is None or row.bound_shape >= 0 for row in rows)


def test_tail_report_survives_a_tiny_order():
    """(M+2k)^((M+2k)/rho) overflows a float for tiny rho; the shape is then 0.0."""
    problem = to_fischer_problem(DomainSpec.parabola(1))
    data = Polynomial.from_terms(2, {(10, 0): 1, (0, 1): 1})
    result = decompose_entire(problem, EntireSeries.from_polynomial(data, 10), estimate_order=False)
    rows = tail_report(result.quotient, problem, 0.01)
    assert len(rows) == 11
    assert result.exact
    shapes = [row.bound_shape for row in rows if row.bound_shape is not None]
    assert shapes and shapes[-1] == 0.0


# ---------------------------------------------------------------------------
# Order of the decomposition pieces
# ---------------------------------------------------------------------------

def test_orders_of_polynomial_decomposition_are_zero():
    problem = to_fischer_problem(DomainSpec.ellipsoid(1, 1))
    data = Polynomial.from_terms(2, {(2, 0): 1})
    series = EntireSeries.from_polynomial(data, 12)
    result = decompose_entire(problem, series)
    comparison = order_of_decomposition(series, result.quotient, result.remainder)
    assert comparison.data.order == 0.0
    assert comparison.quotient.order == 0.0
    assert comparison.remainder.order == 0.0


def test_ellipsoid_exp_orders_bounded_by_data():
    problem = to_fischer_problem(DomainSpec.ellipsoid(1, 1))
    series = exp_axis_series(2, 0, 24)
    result = decompose_entire(problem, series)
    comparison = order_of_decomposition(series, result.quotient, result.remainder)
    assert comparison.quotient.order <= comparison.data.order + 0.1
    assert comparison.remainder.order <= comparison.data.order + 0.1
    assert comparison.quotient_order_ok and comparison.remainder_order_ok


def test_small_type_criterion_reports():
    problem = to_fischer_problem(DomainSpec.parabola(1))
    report = small_type_criterion(problem, 0.5, 0.01)
    assert report is not None and "value" in report
    tiny = small_type_criterion(problem, 0.5, 1e-9)
    assert tiny is not None and tiny["satisfied"]


def test_small_type_criterion_never_rests_on_a_sampled_sup_norm():
    # With D_s sampled, the product can read below 1 where the certified
    # bound on D_s does not: such a "satisfied" would be a false positive.
    for spec in (DomainSpec.parabola(1), DomainSpec.strip(1)):
        problem = to_fischer_problem(spec)
        rho = 0.5
        exponent = (2 * problem.k - problem.beta) / rho
        sampled_total = sum(sup_norm_estimate(part) for part in problem.lower.values())

        def sampled_value(tau):
            return ((2 * problem.k) ** exponent / (2 * problem.k - problem.beta) ** exponent
                    * problem.growth.scale * sampled_total * (math.e * rho * tau) ** exponent)

        tau = (0.9 / sampled_value(1.0)) ** (1 / exponent)  # sampled value 0.9
        for t in (0.01, 0.5 * tau, tau, 1.0):
            assert small_type_criterion(problem, rho, t)["value"] >= sampled_value(t)
        report = small_type_criterion(problem, rho, tau)
        assert sampled_value(tau) < 1.0 and not report["satisfied"]


# ---------------------------------------------------------------------------
# Formal division (the strip's second decomposition)
# ---------------------------------------------------------------------------

def test_formal_division_reproduces_data_degreewise():
    problem = to_fischer_problem(DomainSpec.strip(1))
    series = strip_harmonic_series(16)
    quotient = formal_quotient_constant_term(problem, series)
    product = problem.assembled() * quotient.to_polynomial()
    for m in range(series.truncation + 1):
        assert product.part(m) == series.parts[m]
    assert not quotient.to_polynomial().is_zero


def test_formal_division_requires_constant_part():
    problem = to_fischer_problem(DomainSpec.parabola(1))  # no constant lower part
    with pytest.raises(ValueError):
        formal_quotient_constant_term(problem, strip_harmonic_series(8))
