"""Tridiagonal spectra, the Chebyshev identity, and the multiplication bounds."""

import csv
import math

import numpy as np
import pytest

from fischerdec.fischer import BoundViolated
from fischerdec.polynomials import HomogeneousPolynomial
from fischerdec.spectral import (
    characteristic_polynomial_a,
    chebyshev_identity_check,
    chebyshev_polynomial,
    even_sharp_bound,
    gram_and_form_matrices,
    max_eigenvalue_a_closed,
    max_eigenvalue_a_numeric,
    min_quadratic_form_eigenvalue,
    reports_to_csv,
    sine_bound_check,
    spectral_lower_bound,
    tridiagonal_a,
    verify_main_inequality,
    x2sq_form_blocks,
    x2sq_min_eigenvalue,
    x2sq_min_eigenvalue_closed,
)

X2SQ = HomogeneousPolynomial.monomial(2, (0, 2), 1)


# ---------------------------------------------------------------------------
# Characteristic polynomial and the Chebyshev identity
# ---------------------------------------------------------------------------

def test_char_poly_small_cases():
    assert characteristic_polynomial_a(1) == [0, -1]          # -t
    assert characteristic_polynomial_a(2) == [-2, 0, 1]        # t^2 - 2


def test_char_poly_n5_equals_chebyshev_substitution():
    char = characteristic_polynomial_a(5)
    cheb = chebyshev_polynomial(5)
    from fractions import Fraction

    substituted = [2 * Fraction(c) * Fraction(-1, 2) ** j for j, c in enumerate(cheb)]
    assert [Fraction(c) for c in char] == substituted


@pytest.mark.parametrize("n", range(1, 17))
def test_chebyshev_identity(n):
    assert chebyshev_identity_check(n)


def test_chebyshev_recurrence_matches_trig():
    # T_n(cos t) = cos(n t) pointwise
    for n in (3, 7, 12):
        coeffs = chebyshev_polynomial(n)
        for t in np.linspace(0.1, 3.0, 7):
            value = sum(c * math.cos(t) ** j for j, c in enumerate(coeffs))
            assert math.isclose(value, math.cos(n * t), abs_tol=1e-10)


# ---------------------------------------------------------------------------
# Extreme eigenvalues
# ---------------------------------------------------------------------------

def test_max_eigenvalue_small_cases():
    assert abs(max_eigenvalue_a_closed(1)) <= 1e-15  # cos(pi/2) in floats
    assert math.isclose(max_eigenvalue_a_closed(2), math.sqrt(2), rel_tol=1e-15)
    assert math.isclose(max_eigenvalue_a_closed(6), -2 * math.cos(11 * math.pi / 12), rel_tol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
def test_closed_form_matches_dense_solver(n):
    assert abs(max_eigenvalue_a_closed(n) - max_eigenvalue_a_numeric(n)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 5, 13, 33, 64])
def test_submatrix_domination(m):
    # dropping the first row/column of A_{m+1} leaves the plain 0/1 tridiagonal
    b = tridiagonal_a(m + 1)[1:, 1:]
    assert np.linalg.eigvalsh(b)[-1] <= max_eigenvalue_a_numeric(m + 1) + 1e-12


# ---------------------------------------------------------------------------
# The multiplication form for x2^2
# ---------------------------------------------------------------------------

def test_min_eigenvalue_examples():
    assert math.isclose(x2sq_min_eigenvalue(0), 0.5, abs_tol=1e-14)
    assert math.isclose(x2sq_min_eigenvalue(1), 0.25, abs_tol=1e-14)
    assert math.isclose(x2sq_min_eigenvalue(2), math.sin(math.pi / 8) ** 2, abs_tol=1e-14)


def test_degree_one_form_entries():
    """At degree one the two frequencies decouple: eigenvalues 1/4 and 3/4."""
    blocks = x2sq_form_blocks(1)
    values = sorted(float(b[0, 0]) for b in blocks)
    assert values == [0.25, 0.75]


@pytest.mark.parametrize("degree", range(0, 13))
def test_blocks_match_exact_gram_oracle(degree):
    report = min_quadratic_form_eigenvalue(X2SQ, degree, 2)
    assert abs(report.min_eigenvalue - x2sq_min_eigenvalue(degree)) <= 1e-11
    assert abs(report.min_eigenvalue - x2sq_min_eigenvalue_closed(degree)) <= 1e-11


def test_radial_multiplier_has_unit_form():
    r2 = HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): 1})
    for degree in (0, 1, 3, 6):
        report = min_quadratic_form_eigenvalue(r2, degree, 2)
        assert abs(report.min_eigenvalue - 1.0) <= 1e-12


def test_exploratory_dimension_three():
    x3sq = HomogeneousPolynomial.monomial(3, (0, 0, 2), 1)
    report = min_quadratic_form_eigenvalue(x3sq, 3, 3)
    assert report.min_eigenvalue > 0.0
    assert report.closed_form is None


def test_gram_matrices_symmetric_rational():
    form, gram = gram_and_form_matrices(X2SQ, 4, 2)
    for i in range(len(gram)):
        for j in range(len(gram)):
            assert gram[i][j] == gram[j][i]
            assert form[i][j] == form[j][i]


# ---------------------------------------------------------------------------
# The scan and its guarantees
# ---------------------------------------------------------------------------

def test_scan_margins_nonnegative():
    reports = verify_main_inequality(120)
    assert len(reports) == 121
    assert min(report.margin for report in reports) >= -1e-12
    for report in reports:
        if report.degree % 2 == 0:
            assert report.even_sharp_bound is not None
            assert report.min_eigenvalue >= report.even_sharp_bound - 1e-12


def test_even_degree_closed_form_tracks_numeric():
    for half in range(0, 61):
        numeric = x2sq_min_eigenvalue(2 * half)
        closed = math.sin(math.pi / (4 * half + 4)) ** 2
        assert abs(numeric - closed) <= 1e-9


def test_odd_degree_lemma_transfer():
    """Odd minimal eigenvalues dominate the even constant two degrees up."""
    for m in range(1, 80, 2):
        direct = x2sq_min_eigenvalue_closed(m)
        transfer = even_sharp_bound((m + 1) // 2)
        assert direct >= transfer - 1e-13


def test_bound_violated_raised_for_impossible_tolerance():
    # margins are ~1e-6 at m = 200, so demanding a positive margin of 1e-3 fails
    with pytest.raises(BoundViolated):
        verify_main_inequality(200, tolerance=-1e-3)


def test_sine_bound_small_and_large():
    record = sine_bound_check(1000)
    assert record.ok
    assert math.sin(math.pi / 2) >= math.pi / 4
    assert math.sin(math.pi / 3) >= math.pi / 5


def test_reports_csv_shape(tmp_path):
    path = tmp_path / "scan.csv"
    reports = verify_main_inequality(50)
    reports_to_csv(reports, str(path))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["m", "min_eigenvalue", "bound", "margin", "exact_closed_form"]
    assert len(rows) == 52  # header + 51 degrees
    # floats are emitted in shortest round-trip form
    assert float(rows[1][1]) == 0.5


def test_lower_bound_values():
    assert math.isclose(spectral_lower_bound(0), math.pi**2 / 64)
    assert math.isclose(spectral_lower_bound(1), math.pi**2 / 100)
    assert math.isclose(even_sharp_bound(1), math.pi**2 / 100)
