"""Quotient operator, decomposition recursion, the iterated series, norm bounds."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from fischerdec import fischer
from fischerdec.fischer import (
    BoundViolated,
    FischerProblem,
    decompose_recursive,
    decompose_series_formula,
    fischer_operator_homogeneous,
    quotient_polynomial,
    SingularFischerOperator,
    verify_quotient_norm_bound,
)
from fischerdec.polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    laplacian_power,
)
from fischerdec.verification import (
    random_homogeneous,
    random_leading_term,
    random_polynomial,
    random_problem,
)

SEED = 20250810

X2SQ = HomogeneousPolynomial.monomial(2, (0, 2), 1)
R2 = HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): 1})


def x2sq_problem(lower=None):
    return FischerProblem(2, 1, X2SQ, lower or {})


# ---------------------------------------------------------------------------
# The leading-term quotient operator
# ---------------------------------------------------------------------------

def test_identity_case():
    problem = x2sq_problem()
    q = fischer_operator_homogeneous(problem, X2SQ)
    assert q == HomogeneousPolynomial.monomial(2, (0, 0), 1)


def test_radial_leading_term():
    problem = FischerProblem(2, 1, R2)
    q = fischer_operator_homogeneous(problem, HomogeneousPolynomial.monomial(2, (2, 0), 1))
    assert q == HomogeneousPolynomial.monomial(2, (0, 0), Fraction(1, 2))


def test_two_by_two_solve():
    problem = x2sq_problem()
    q = fischer_operator_homogeneous(problem, HomogeneousPolynomial.monomial(2, (1, 2), 1))
    assert q == HomogeneousPolynomial.monomial(2, (1, 0), 1)


def test_low_degree_maps_to_zero():
    problem = x2sq_problem()
    for degree in (0, 1):
        f = HomogeneousPolynomial.monomial(2, (degree, 0), 1)
        assert fischer_operator_homogeneous(problem, f).is_zero


def test_singular_leading_term_detected():
    indefinite = HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): -1})
    problem = FischerProblem(2, 1, indefinite)
    message = "leading term is not a Fischer pair with Lap^1 on degree 4: exact rank deficiency at column 1"
    with pytest.raises(SingularFischerOperator, match=f"^{re.escape(message)}$"):
        fischer_operator_homogeneous(problem, HomogeneousPolynomial.monomial(2, (4, 0), 1))


def test_quartic_leading_term():
    r4 = (R2.to_polynomial() * R2.to_polynomial()).part(4)
    problem = FischerProblem(2, 2, r4)
    q = fischer_operator_homogeneous(problem, HomogeneousPolynomial.monomial(2, (4, 0), 1))
    assert q == HomogeneousPolynomial.monomial(2, (0, 0), Fraction(3, 8))
    remainder = Polynomial.from_terms(2, {(4, 0): 1}) - r4.to_polynomial().scaled(Fraction(3, 8))
    assert laplacian_power(remainder, 2).is_zero


# ---------------------------------------------------------------------------
# The graded-system cache: a bounded LRU of factored systems
# ---------------------------------------------------------------------------

def _x2sq_data(degree):
    return HomogeneousPolynomial.monomial(2, (1, degree - 1), 1)


def test_system_cache_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    for scale in range(1, fischer._SYSTEM_CACHE_SIZE + 40):
        leading = HomogeneousPolynomial(2, 2, {(2, 0): scale, (0, 2): 1})
        q = fischer_operator_homogeneous(FischerProblem(2, 1, leading), R2)
        assert q == HomogeneousPolynomial.monomial(2, (0, 0), Fraction(2, scale + 1))
        assert len(fischer._SYSTEM_CACHE) == min(scale, fischer._SYSTEM_CACHE_SIZE)


def test_system_cache_hit_refreshes_recency(monkeypatch):
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE_SIZE", 3)
    problem = x2sq_problem()

    def key(degree):
        return (X2SQ.key(), 1, degree - 2)

    for degree in (2, 3, 4):
        fischer_operator_homogeneous(problem, _x2sq_data(degree))
    fischer_operator_homogeneous(problem, _x2sq_data(2))  # a hit: now most recent
    fischer_operator_homogeneous(problem, _x2sq_data(5))  # evicts degree 3, not 2
    assert list(fischer._SYSTEM_CACHE) == [key(4), key(2), key(5)]


def test_system_rebuilt_after_eviction_gives_the_identical_quotient(monkeypatch):
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE_SIZE", 1)
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), 1)})
    f = random_homogeneous(random.Random(SEED), 2, 9)
    first = fischer_operator_homogeneous(problem, f)
    (matrix, *_), = fischer._SYSTEM_CACHE.values()
    fischer_operator_homogeneous(problem, _x2sq_data(4))  # evicts the degree-9 system
    again = fischer_operator_homogeneous(problem, f)
    (rebuilt, *_), = fischer._SYSTEM_CACHE.values()
    assert rebuilt is not matrix and rebuilt == matrix
    assert again == first
    # The whole recursion, evicting at every degree change, agrees with a roomy cache.
    data = random_polynomial(random.Random(SEED + 3), 2, 10)
    evicting = decompose_recursive(problem, data)
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE_SIZE", 256)
    assert decompose_recursive(problem, data).quotient == evicting.quotient


def test_system_cache_works_as_a_plain_dict(monkeypatch):
    plain = {}
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", plain)
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), 1)})
    data = random_polynomial(random.Random(SEED + 4), 2, 8)
    first = decompose_recursive(problem, data)
    assert plain
    assert decompose_recursive(problem, data).quotient == first.quotient
    plain.clear()
    assert decompose_recursive(problem, data).quotient == first.quotient
    assert plain


def test_singular_system_is_not_cached(monkeypatch):
    monkeypatch.setattr(fischer, "_SYSTEM_CACHE", {})
    indefinite = HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): -1})
    problem = FischerProblem(2, 1, indefinite)
    for _ in range(2):
        with pytest.raises(SingularFischerOperator):
            fischer_operator_homogeneous(problem, HomogeneousPolynomial.monomial(2, (4, 0), 1))
    assert fischer._SYSTEM_CACHE == {}


# ---------------------------------------------------------------------------
# Full decomposition via the recursion
# ---------------------------------------------------------------------------

def test_parabola_example():
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), 1)})
    result = decompose_recursive(problem, Polynomial.from_terms(2, {(2, 0): 1}))
    assert result.quotient == Polynomial.constant(2, 1)
    assert result.remainder == Polynomial.from_terms(2, {(2, 0): 1, (0, 2): -1, (1, 0): 1})
    assert result.exact


def test_strip_harmonic_data_untouched():
    problem = FischerProblem(
        2, 1,
        HomogeneousPolynomial.monomial(2, (2, 0), 1),
        {0: HomogeneousPolynomial.monomial(2, (0, 0), 1)},
    )
    harmonic = Polynomial.from_terms(2, {(1, 0): 2, (0, 1): -3, (0, 0): 5})
    result = decompose_recursive(problem, harmonic)
    assert result.quotient.is_zero
    assert result.remainder == harmonic
    assert result.exact


def test_circle_example():
    problem = FischerProblem(2, 1, R2, {0: HomogeneousPolynomial.monomial(2, (0, 0), 1)})
    result = decompose_recursive(problem, Polynomial.from_terms(2, {(2, 0): 1}))
    expected = Polynomial.from_terms(
        2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2), (0, 0): Fraction(1, 2)}
    )
    assert result.quotient == Polynomial.constant(2, Fraction(1, 2))
    assert result.remainder == expected


def test_reconstruction_property_randomized():
    rng = random.Random(SEED)
    for _ in range(60):
        problem = random_problem(rng)
        data = random_polynomial(rng, 2, 10)
        result = decompose_recursive(problem, data)
        assert result.exact
        assert data == problem.assembled() * result.quotient + result.remainder
        assert laplacian_power(result.remainder, problem.k).is_zero or result.remainder.is_zero


def test_quotient_recovered_from_multiples():
    rng = random.Random(SEED + 1)
    for _ in range(25):
        leading = random_leading_term(rng)
        problem = FischerProblem(2, 1, leading)
        g = random_homogeneous(rng, 2, rng.randint(0, 6))
        data = (leading.to_polynomial() * g.to_polynomial())
        result = decompose_recursive(problem, data)
        assert result.quotient == g.to_polynomial()
        assert result.remainder.is_zero


def test_linearity_of_quotient_and_remainder():
    rng = random.Random(SEED + 2)
    problem = random_problem(rng)
    f = random_polynomial(rng, 2, 8)
    g = random_polynomial(rng, 2, 8)
    a, b = Fraction(3, 2), Fraction(-5, 7)
    combined = decompose_recursive(problem, f.scaled(a) + g.scaled(b))
    rf = decompose_recursive(problem, f)
    rg = decompose_recursive(problem, g)
    assert combined.quotient == rf.quotient.scaled(a) + rg.quotient.scaled(b)
    assert combined.remainder == rf.remainder.scaled(a) + rg.remainder.scaled(b)


# ---------------------------------------------------------------------------
# The iterated series versus the recursion
# ---------------------------------------------------------------------------

def _naive_series(problem, f_m):
    """Literal tuple-by-tuple evaluation of the iterated quotient series."""
    total = Polynomial.zero(problem.dimension)
    base = fischer_operator_homogeneous(problem, f_m)
    total = total + base.to_polynomial()
    two_k = 2 * problem.k
    lower_degrees = list(range(two_k))
    for j in range(0, f_m.degree + 1):
        for tup in product(lower_degrees, repeat=j + 1):
            term = base
            expected_degree = f_m.degree - two_k
            dead = term.is_zero
            for s in tup:
                if dead:
                    break
                part = problem.lower.get(s)
                if part is None:
                    dead = True
                    break
                multiplied = (part * term)
                term = fischer_operator_homogeneous(problem, multiplied)
                expected_degree = expected_degree + s - two_k
                dead = term.is_zero
            if not dead:
                # degree bookkeeping: every surviving composite has the
                # predicted degree m + sum(s_i - 2k) (after the final T).
                assert term.degree == expected_degree >= 0
                total = total + term.to_polynomial()
    return total


@pytest.mark.parametrize("degree", [0, 2, 3, 4, 5])
def test_series_matches_naive_enumeration(degree):
    rng = random.Random(SEED + degree)
    problem = x2sq_problem({
        0: HomogeneousPolynomial.monomial(2, (0, 0), Fraction(1, 3)),
        1: HomogeneousPolynomial(2, 1, {(1, 0): 1, (0, 1): Fraction(-1, 2)}),
    })
    f_m = random_homogeneous(rng, 2, degree)
    assert decompose_series_formula(problem, f_m) == _naive_series(problem, f_m)


def test_series_equals_recursion_randomized():
    rng = random.Random(SEED + 3)
    for _ in range(40):
        problem = random_problem(rng)
        f_m = random_homogeneous(rng, 2, rng.randint(0, 10))
        assert decompose_series_formula(problem, f_m) == quotient_polynomial(problem, f_m)


def test_series_constant_lowering_special_case():
    """With only a constant lower part the series collapses to powers of T M_c."""
    problem = FischerProblem(2, 1, R2, {0: HomogeneousPolynomial.monomial(2, (0, 0), 1)})
    f = HomogeneousPolynomial.monomial(2, (2, 0), 1)
    series = decompose_series_formula(problem, f)
    # hand evaluation: T f = 1/2, then T(1 * 1/2) = 0
    assert series == Polynomial.constant(2, Fraction(1, 2))


def test_series_zero_below_leading_degree():
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), 1)})
    assert decompose_series_formula(problem, HomogeneousPolynomial.monomial(2, (1, 0), 1)).is_zero


def test_parabola_series_hand_value():
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), 1)})
    f = HomogeneousPolynomial.monomial(2, (2, 0), 1)
    assert decompose_series_formula(problem, f) == Polynomial.constant(2, 1)


# ---------------------------------------------------------------------------
# Quotient norm bounds
# ---------------------------------------------------------------------------

def test_norm_bound_certified_for_x2sq():
    rng = random.Random(SEED + 4)
    problem = x2sq_problem()
    degree = 6
    samples = [random_homogeneous(rng, 2, degree) for _ in range(20)]
    inv_c_sq = (Fraction(16 * (degree + 2) ** 4), -4)
    record = verify_quotient_norm_bound(problem, degree, inv_c_sq, samples)
    assert record.worst_ratio <= record.bound


def test_norm_bound_violated_for_false_constant():
    rng = random.Random(SEED + 5)
    problem = x2sq_problem()
    degree = 6
    samples = [
        (X2SQ * random_homogeneous(rng, 2, degree - 2))
        for _ in range(10)
    ]
    # An absurdly strong claimed constant must be caught exactly.
    with pytest.raises(BoundViolated):
        verify_quotient_norm_bound(problem, degree, (Fraction(1, 10**12), 0), samples)


def test_norm_bound_harmonic_input_trivial():
    problem = x2sq_problem()
    harmonic = HomogeneousPolynomial(2, 4, {(4, 0): 1, (2, 2): -6, (0, 4): 1})
    record = verify_quotient_norm_bound(problem, 4, (Fraction(16 * 6**4), -4), [harmonic])
    assert record.worst_ratio == 0.0


def test_problem_json_round_trip():
    problem = x2sq_problem({1: HomogeneousPolynomial.monomial(2, (1, 0), Fraction(2, 3))})
    data = problem.to_json_dict()
    again = FischerProblem.from_json_dict(data)
    assert again.key() == problem.key()


def test_problem_validation():
    with pytest.raises(ValueError):
        FischerProblem(2, 1, HomogeneousPolynomial.zero(2, 2))
    with pytest.raises(ValueError):
        FischerProblem(2, 1, HomogeneousPolynomial.monomial(2, (1, 0), 1))
    with pytest.raises(ValueError):
        FischerProblem(2, 1, X2SQ, {2: X2SQ})
