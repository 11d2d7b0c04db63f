"""Sphere inner products, circle harmonics, Gauss decomposition, sup norms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fischerdec import exactla, fischer
from fischerdec.polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    monomials_of_degree,
    squared_norm_polynomial,
)
from fischerdec.sphere import (
    certified_sup_norm_bound,
    circle_harmonic_basis,
    circle_polynomial,
    gauss_decompose,
    monomial_sphere_integral,
    normalized_circle_inner,
    shift_identities_hold,
    sin_sq_shift_identity_residual,
    sphere_inner_product,
    sphere_norm_sq_ratio,
    sup_norm_estimate,
    surface_area,
)

SEED = 20250810


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def wallis_circle_moment(a: int, b: int) -> Fraction:
    """Independent oracle: integral of cos^a sin^b over [0, 2pi), over 2pi."""
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(_double_factorial(a - 1) * _double_factorial(b - 1),
                    _double_factorial(a + b))


# ---------------------------------------------------------------------------
# Monomial moments
# ---------------------------------------------------------------------------

def test_moment_examples():
    assert monomial_sphere_integral((0, 0), 2) == 1
    assert monomial_sphere_integral((2, 0), 2) == Fraction(1, 2)
    assert monomial_sphere_integral((1, 1), 2) == 0


@pytest.mark.parametrize("a", range(0, 9))
@pytest.mark.parametrize("b", range(0, 9))
def test_circle_moments_match_wallis_oracle(a, b):
    assert monomial_sphere_integral((a, b), 2) == wallis_circle_moment(a, b)


@pytest.mark.parametrize("alpha", [(0, 0, 0), (2, 0, 0), (2, 2, 0), (4, 0, 2), (1, 1, 2)])
def test_sphere_moments_match_quadrature(alpha):
    nodes, weights = np.polynomial.legendre.leggauss(60)
    theta = 0.5 * np.pi * (nodes + 1.0)
    theta_w = 0.5 * np.pi * weights
    phi = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    x = np.sin(theta)[:, None] * np.cos(phi)[None, :]
    y = np.sin(theta)[:, None] * np.sin(phi)[None, :]
    z = np.cos(theta)[:, None] * np.ones_like(phi)[None, :]
    integrand = x ** alpha[0] * y ** alpha[1] * z ** alpha[2] * np.sin(theta)[:, None]
    numeric = float((integrand.sum(axis=1) * (2 * np.pi / 256) * theta_w).sum())
    exact = float(monomial_sphere_integral(alpha, 3)) * surface_area(3)
    assert math.isclose(numeric, exact, rel_tol=1e-10, abs_tol=1e-10)


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def test_inner_product_examples():
    x1sq = Polynomial.from_terms(2, {(2, 0): 1})
    assert sphere_inner_product(x1sq, x1sq).ratio == Fraction(3, 8)
    x1 = Polynomial.from_terms(2, {(1, 0): 1})
    x2 = Polynomial.from_terms(2, {(0, 1): 1})
    assert sphere_inner_product(x1, x2).ratio == 0
    one = Polynomial.constant(3, 1)
    assert sphere_inner_product(one, one).ratio == 1


def test_inner_product_float_rendering():
    one = Polynomial.constant(2, 1)
    assert math.isclose(sphere_inner_product(one, one).as_float(), 2 * math.pi)


# ---------------------------------------------------------------------------
# Circle harmonics
# ---------------------------------------------------------------------------

def test_basis_k0():
    cos0, sin0 = circle_harmonic_basis(0)
    assert cos0.weight == Fraction(1, 2)
    assert cos0.poly == HomogeneousPolynomial.monomial(2, (0, 0), 1)
    assert sin0.weight == 0 and sin0.poly.is_zero


def test_basis_k1():
    cos1, sin1 = circle_harmonic_basis(1)
    assert cos1.poly == HomogeneousPolynomial.monomial(2, (1, 0), 1)
    assert sin1.poly == HomogeneousPolynomial.monomial(2, (0, 1), 1)
    assert cos1.weight == sin1.weight == 1


def test_orthonormality_up_to_12():
    basis = []
    for kappa in range(13):
        cos_k, sin_k = circle_harmonic_basis(kappa)
        basis.append(cos_k)
        if kappa:
            basis.append(sin_k)
    for i, left in enumerate(basis):
        for j, right in enumerate(basis):
            coeff, power = normalized_circle_inner(left, right)
            assert power == 0
            assert coeff == (1 if i == j else 0)


def test_harmonicity_of_circle_polynomials():
    for kappa in range(13):
        assert circle_polynomial(kappa, "cos").laplacian().is_zero
        assert circle_polynomial(kappa, "sin").laplacian().is_zero


# ---------------------------------------------------------------------------
# Gauss decomposition
# ---------------------------------------------------------------------------

def test_gauss_x1_squared():
    f = HomogeneousPolynomial.monomial(2, (2, 0), 1)
    decomposition = gauss_decompose(f)
    h0, h2 = decomposition.harmonics
    assert h0 == HomogeneousPolynomial.monomial(2, (0, 0), Fraction(1, 2))
    assert h2 == HomogeneousPolynomial(2, 2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})
    assert decomposition.verify(f)


def test_gauss_harmonic_input_is_fixed():
    f = circle_polynomial(4, "cos")
    decomposition = gauss_decompose(f)
    assert decomposition.harmonics[-1] == f
    assert all(h.is_zero for h in decomposition.harmonics[:-1])


def test_gauss_radial_square():
    r2 = squared_norm_polynomial(2).part(2)
    decomposition = gauss_decompose(r2)
    assert decomposition.harmonics[0] == HomogeneousPolynomial.monomial(2, (0, 0), 1)
    assert decomposition.harmonics[1].is_zero


def _random_homogeneous(rng, dimension, degree):
    terms = {}
    for alpha in monomials_of_degree(dimension, degree):
        if rng.random() < 0.7:
            terms[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if not terms:
        terms[monomials_of_degree(dimension, degree)[0]] = 1
    return HomogeneousPolynomial(dimension, degree, terms)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_gauss_parseval_exact(dimension, degree):
    rng = random.Random(SEED + dimension * 100 + degree)
    f = _random_homogeneous(rng, dimension, degree)
    decomposition = gauss_decompose(f)
    assert decomposition.verify(f)
    total = sum(
        (sphere_norm_sq_ratio(h) for h in decomposition.harmonics if not h.is_zero),
        Fraction(0),
    )
    assert total == sphere_norm_sq_ratio(f)


def test_gauss_reuses_the_cached_fischer_systems(monkeypatch):
    # A Gauss split is the Fischer split with P = |x|^2, k = 1: once
    # decompose_recursive has built and factored those graded systems, the
    # split solves with the cached matrices and factors and builds none.
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    rng = random.Random(SEED)
    radial = squared_norm_polynomial(3).part(2)
    data = Polynomial(3, {m: _random_homogeneous(rng, 3, m) for m in range(9)})
    fischer.decompose_recursive(fischer.FischerProblem(3, 1, radial), data)
    entries = len(fischer._SYSTEM_CACHE)
    cached = {id(matrix) for matrix, _, _, _ in fischer._SYSTEM_CACHE.values()}
    factors_of = {id(matrix): factors for matrix, _, _, factors in fischer._SYSTEM_CACHE.values()}

    solved = []
    solve_linear = exactla.solve_linear

    def recording_solve(matrix, rhs, factors):
        solved.append(id(matrix))
        assert factors is factors_of[id(matrix)]
        return solve_linear(matrix, rhs, factors)

    def refused_factor(matrix):
        raise AssertionError("a Gauss split refactored a cached system")

    monkeypatch.setattr(exactla, "solve_linear", recording_solve)
    monkeypatch.setattr(exactla, "lu_factor", refused_factor)
    f = data.part(8)
    decomposition = gauss_decompose(f)
    assert decomposition.verify(f)
    assert len(fischer._SYSTEM_CACHE) == entries
    assert len(solved) == 4 and set(solved) <= cached


# ---------------------------------------------------------------------------
# Multiplication identities behind the tridiagonal matrices
# ---------------------------------------------------------------------------

def test_shift_identities_exact():
    assert shift_identities_hold(12)


def test_shift_identity_residual_nonzero_when_broken():
    residual = sin_sq_shift_identity_residual(3, "cos")
    assert residual.is_zero
    # perturbing the frequency destroys the identity
    base = circle_polynomial(3, "cos").to_polynomial()
    x2sq = Polynomial.from_terms(2, {(0, 2): 1})
    wrong = x2sq * base.scaled(-4) - base * squared_norm_polynomial(2)
    assert not wrong.is_zero


def test_normalized_sqrt2_entries():
    """The constant-to-second-harmonic coupling carries the sqrt(2) weight."""
    cos0, _ = circle_harmonic_basis(0)
    cos2, _ = circle_harmonic_basis(2)
    multiplier = Polynomial.from_terms(2, {(0, 2): -4})
    coeff, power = normalized_circle_inner(cos0, cos2, multiplier)
    assert (coeff, power) == (Fraction(1), 1)  # value sqrt(2)
    coeff, power = normalized_circle_inner(cos0, cos0, multiplier)
    assert (coeff, power) == (Fraction(-2), 0)
    coeff, power = normalized_circle_inner(cos2, cos2, multiplier)
    assert (coeff, power) == (Fraction(-2), 0)


# ---------------------------------------------------------------------------
# Sup norms
# ---------------------------------------------------------------------------

def test_sup_norm_rotational_harmonic():
    for m in (1, 3, 6):
        f = circle_polynomial(m, "cos")
        assert math.isclose(sup_norm_estimate(f), 1.0, rel_tol=1e-12)
        assert math.isclose(certified_sup_norm_bound(f), math.sqrt(1 + m), rel_tol=1e-12)


def test_sup_norm_constant():
    f = HomogeneousPolynomial.monomial(2, (0, 0), 1)
    assert math.isclose(sup_norm_estimate(f), 1.0)
    assert math.isclose(certified_sup_norm_bound(f), math.sqrt(2.0))


def test_sup_norm_zero():
    zero = HomogeneousPolynomial.zero(2, 3)
    assert sup_norm_estimate(zero) == 0.0 and certified_sup_norm_bound(zero) == 0.0


@pytest.mark.parametrize("dimension", [2, 3])
def test_estimate_never_exceeds_bound(dimension):
    rng = random.Random(SEED + dimension)
    for degree in (0, 1, 2, 4, 7):
        f = _random_homogeneous(rng, dimension, degree)
        assert sup_norm_estimate(f) <= certified_sup_norm_bound(f) * (1 + 1e-9)
