"""Exact polynomial algebra: grading, operators, and the Fischer pairing."""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fischerdec.polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    apply_operator,
    evaluate_on_points,
    fischer_inner_product,
    laplacian,
    laplacian_power,
    monomials_of_degree,
    multi_index_factorial,
    polynomial_from_json,
    polynomial_to_json,
    squared_norm_polynomial,
)
from fischerdec.rationals import RationalComplex

SEED = 20250810


def poly(terms, dimension=2):
    return Polynomial.from_terms(dimension, terms)


# ---------------------------------------------------------------------------
# Graded structure
# ---------------------------------------------------------------------------

def test_graded_parts_splits_by_degree():
    f = poly({(2, 0): 1, (0, 1): 3})
    parts = f.graded_parts()
    assert sorted(parts) == [1, 2]
    assert parts[2] == HomogeneousPolynomial.monomial(2, (2, 0), 1)
    assert parts[1] == HomogeneousPolynomial.monomial(2, (0, 1), 3)


def test_graded_parts_of_zero():
    assert Polynomial.zero(2).graded_parts() == {}


def test_square_expands():
    f = poly({(1, 0): 1, (0, 1): 1})
    assert (f * f).graded_parts() == {
        2: HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    }


@given(st.integers(0, 4), st.integers(0, 4))
def test_product_degrees_add(da, db):
    rng = random.Random(SEED + 10 * da + db)
    fa = _random_poly(rng, da)
    fb = _random_poly(rng, db)
    product = fa * fb
    sums = {x + y for x in fa.graded_parts() for y in fb.graded_parts()}
    assert set(product.graded_parts()) <= sums


def _random_poly(rng, max_degree, dimension=2):
    terms = {}
    for degree in range(max_degree + 1):
        for alpha in monomials_of_degree(dimension, degree):
            if rng.random() < 0.5:
                terms[alpha] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if not terms:
        terms[(0,) * dimension] = 1
    return Polynomial.from_terms(dimension, terms)


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------

def test_apply_operator_second_derivative():
    q = poly({(2, 0): 1})
    f = poly({(2, 0): 1})
    assert apply_operator(q, f) == Polynomial.constant(2, 2)


def test_laplacian_kills_harmonic_quadratic():
    f = poly({(2, 0): 1, (0, 2): -1})
    assert laplacian(f).is_zero


def test_mixed_operator():
    q = poly({(1, 1): 1})
    f = poly({(2, 3): 1})
    assert apply_operator(q, f) == poly({(1, 2): 6})


def test_laplacian_power_examples():
    assert laplacian_power(poly({(4, 0): 1}), 2) == Polynomial.constant(2, 24)
    assert laplacian_power(poly({(2, 0): 1, (0, 2): -1}), 1).is_zero
    r2 = squared_norm_polynomial(2)
    assert laplacian(r2 * r2) == r2.scaled(16)


def test_operator_composition():
    rng = random.Random(SEED)
    f = _random_poly(rng, 6)
    q1 = _random_poly(rng, 2)
    q2 = _random_poly(rng, 2)
    assert apply_operator(q1 * q2, f) == apply_operator(q1, apply_operator(q2, f))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        apply_operator(poly({(1, 0): 1}), Polynomial.from_terms(3, {(1, 0, 0): 1}))


@pytest.mark.parametrize("exponents", [(3, 2), (1, 4), (5, 0)])
def test_derivative_against_sympy(exponents):
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    a, b = exponents
    expr = x1**a * x2**b
    expected = sympy.expand(sympy.diff(expr, x1, 1, x2, 2))
    ours = apply_operator(poly({(1, 2): 1}), poly({exponents: 1}))
    rebuilt = sum(
        sympy.Rational(c.numerator, c.denominator) * x1 ** e[0] * x2 ** e[1]
        for e, c in ours.terms().items()
    )
    assert sympy.simplify(rebuilt - expected) == 0


# ---------------------------------------------------------------------------
# Fischer inner product
# ---------------------------------------------------------------------------

def test_fischer_inner_product_examples():
    assert fischer_inner_product(poly({(2, 0): 1}), poly({(2, 0): 1})) == 2
    assert fischer_inner_product(poly({(1, 0): 1}), poly({(0, 1): 1})) == 0
    assert fischer_inner_product(poly({(1, 1): 1}), poly({(1, 1): 1})) == 1


@given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_monomial_orthogonality(alpha, gamma):
    fa = poly({alpha: 1})
    fg = poly({gamma: 1})
    value = fischer_inner_product(fa, fg)
    if alpha == gamma:
        assert value == multi_index_factorial(alpha)
    else:
        assert value == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_multiplication_differentiation_duality(seed):
    """[P f, g]_F equals [f, conj(P)(D) g]_F, the pairing's adjoint identity."""
    rng = random.Random(seed)

    def random_complex_poly(max_degree):
        terms = {}
        for degree in range(max_degree + 1):
            for alpha in monomials_of_degree(2, degree):
                if rng.random() < 0.4:
                    terms[alpha] = RationalComplex(
                        Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
                    )
        if not terms:
            terms[(0, 0)] = 1
        return Polynomial.from_terms(2, terms)

    p = random_complex_poly(2)
    f = random_complex_poly(3)
    g = random_complex_poly(5)
    lhs = fischer_inner_product(p * f, g)
    rhs = fischer_inner_product(f, apply_operator(p.conjugate(), g))
    assert lhs == rhs


def test_positive_definite_on_nonzero():
    rng = random.Random(SEED + 1)
    f = _random_poly(rng, 5)
    value = fischer_inner_product(f, f)
    assert value.imag == 0 and value.real > 0


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def test_json_round_trip_is_byte_identical():
    f = poly({(2, 0): Fraction(3, 2), (0, 1): Fraction(-7, 3), (1, 1): 1})
    text = polynomial_to_json(f)
    again = polynomial_to_json(polynomial_from_json(text))
    assert text == again
    assert polynomial_from_json(text) == f


_RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * d),
    st.tuples(_RATIONALS, _RATIONALS | st.just(Fraction(0))),
    max_size=8,
)))
def test_json_round_trip_complex_rational_property(raw_terms):
    dimension = len(next(iter(raw_terms), (0,)))
    f = Polynomial.from_terms(
        dimension, {alpha: RationalComplex(re, im) for alpha, (re, im) in raw_terms.items()})
    text = polynomial_to_json(f)
    again = polynomial_from_json(text)
    assert polynomial_to_json(again) == text
    assert again == f
    for coeff in again.terms().values():
        assert isinstance(coeff, RationalComplex) == (coeff.imag != 0)


def test_json_terms_graded_lex_sorted():
    f = poly({(0, 2): 1, (2, 0): 1, (0, 0): 1, (1, 1): 1})
    rows = json.loads(polynomial_to_json(f))["terms"]
    exponents = [tuple(r["exponents"]) for r in rows]
    assert exponents == sorted(exponents, key=lambda e: (sum(e), e))


def test_duplicate_monomial_rejected():
    from fischerdec.polynomials import polynomial_from_json_dict

    with pytest.raises(ValueError):
        polynomial_from_json_dict({
            "dimension": 2,
            "terms": [
                {"exponents": [1, 0], "re": "1", "im": "0"},
                {"exponents": [1, 0], "re": "2", "im": "0"},
            ],
        })


def test_evaluate_float_matches_exact():
    """evaluate_on_points against exact evaluation at dyadic (float-exact) points."""
    plane = [(Fraction(1, 2), Fraction(3, 4)), (Fraction(-5, 4), Fraction(3, 8)),
             (Fraction(7, 16), Fraction(-9, 8))]
    space = [(Fraction(1, 2), Fraction(3, 4), Fraction(-1, 4)),
             (Fraction(-5, 4), Fraction(3, 8), Fraction(13, 16))]
    real_2d = poly({(3, 1): Fraction(1, 3), (0, 2): -2, (0, 0): 5})
    real_3d = poly({(2, 1, 1): Fraction(-2, 7), (0, 0, 3): 4, (1, 0, 0): Fraction(5, 3),
                    (0, 0, 0): 3}, dimension=3)
    complex_2d = poly({(2, 0): RationalComplex(Fraction(1, 2), Fraction(-3)),
                       (1, 1): Fraction(2, 5), (0, 0): RationalComplex(1, 1)})
    for f, points, dtype in ((real_2d, plane, np.float64), (real_3d, space, np.float64),
                             (complex_2d, plane, np.complex128)):
        values = evaluate_on_points(f, np.array(points, dtype=float))
        assert values.dtype == dtype
        for value, point in zip(values, points):
            assert cmath.isclose(value, complex(f.evaluate(point)), rel_tol=1e-14)
