"""The coefficient rule: a coefficient is a Fraction unless it is complex."""

from fractions import Fraction

import pytest

from fischerdec.dirichlet import DomainSpec, solve, to_fischer_problem
from fischerdec.entire import exp_axis_series
from fischerdec.fischer import decompose_recursive
from fischerdec.polynomials import HomogeneousPolynomial, Polynomial
from fischerdec.rationals import RationalComplex, exact
from fischerdec.spectral import gram_and_form_matrices
from fischerdec.sphere import gauss_decompose


def coefficients(poly):
    if isinstance(poly, HomogeneousPolynomial):
        return list(poly.terms.values())
    return list(poly.terms().values())


def series_coefficients(series):
    return [c for part in series.parts for c in part.terms.values()]


def test_exact_is_fraction_unless_complex():
    assert type(exact(3)) is Fraction and exact(3) == 3
    assert type(exact(RationalComplex(Fraction(1, 2), 0))) is Fraction
    value = RationalComplex(1, 2)
    assert exact(value) is value
    with pytest.raises(TypeError):
        exact(0.5)


def test_complex_arithmetic_returns_fraction_when_imaginary_part_vanishes():
    product = RationalComplex(1, 1) * RationalComplex(1, -1)
    assert type(product) is Fraction and product == 2
    assert type(RationalComplex(1, 1) - RationalComplex(0, 1)) is Fraction
    assert type(RationalComplex(2, 2) / RationalComplex(1, 1)) is Fraction
    assert type(1 / RationalComplex(0, 1)) is RationalComplex


def test_complex_value_protocol():
    value = RationalComplex(Fraction(3, 2), -1)
    assert (value.real, value.imag) == (Fraction(3, 2), -1)
    assert value.conjugate() == RationalComplex(Fraction(3, 2), 1)
    assert hash(RationalComplex(5, 0)) == hash(Fraction(5))
    assert RationalComplex(5, 0) == Fraction(5)
    assert float(RationalComplex(Fraction(1, 4))) == 0.25
    with pytest.raises(ValueError):
        float(value)


def test_cancelling_imaginary_parts_store_fractions():
    p = Polynomial.from_terms(2, {(1, 0): RationalComplex(1, 1), (0, 2): RationalComplex(0, 3)})
    product = p * p.conjugate()
    assert product.terms()
    assert all(type(c) is Fraction for c in coefficients(product))
    total = p + p.conjugate()
    assert coefficients(total) == [2] and type(coefficients(total)[0]) is Fraction


def test_real_decomposition_has_only_fraction_coefficients():
    problem = to_fischer_problem(DomainSpec.parabola(1))
    data = Polynomial.from_terms(2, {(6, 0): Fraction(1, 3), (2, 3): -2, (0, 1): 1})
    result = decompose_recursive(problem, data)
    assert not result.quotient.is_zero and not result.remainder.is_zero
    for poly in (result.quotient, result.remainder):
        assert all(type(c) is Fraction for c in coefficients(poly))


def test_real_gauss_split_has_only_fraction_coefficients():
    f = HomogeneousPolynomial(3, 4, {(4, 0, 0): 1, (1, 2, 1): Fraction(-2, 5), (0, 0, 4): 3})
    split = gauss_decompose(f)
    assert split.verify(f)
    for harmonic in split.harmonics:
        assert all(type(c) is Fraction for c in coefficients(harmonic))


def test_real_dirichlet_solution_has_only_fraction_coefficients():
    solution = solve(DomainSpec.parabola(1), exp_axis_series(2, 0, 12))
    decomposition = solution.decomposition
    values = (series_coefficients(decomposition.quotient)
              + series_coefficients(decomposition.remainder))
    assert values
    assert all(type(c) is Fraction for c in values)


def test_spectral_gram_route_rejects_a_complex_multiplier():
    multiplier = HomogeneousPolynomial(2, 2, {(0, 2): RationalComplex(1, 1)})
    with pytest.raises(ValueError):
        gram_and_form_matrices(multiplier, 2, 2)
