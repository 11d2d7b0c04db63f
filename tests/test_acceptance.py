"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; any assertion failure marks the corresponding criterion FAIL.
"""

import math
import random
import time
from fractions import Fraction

from fischerdec import dirichlet, entire, fischer, spectral
from fischerdec.polynomials import HomogeneousPolynomial, Polynomial
from fischerdec.verification import (
    DEFAULT_SEED,
    random_homogeneous,
    random_polynomial,
    random_problem,
)


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_spectral_inequality_up_to_200():
    start = time.perf_counter()
    reports = spectral.verify_main_inequality(200, tolerance=1e-12)
    elapsed = time.perf_counter() - start
    worst = min(r.margin for r in reports)
    assert len(reports) == 201
    assert worst >= -1e-12
    assert elapsed < 30.0
    report(f"criterion-01 spectral-bound m<=200: PASS (worst margin {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_02_even_degree_sharp_constant():
    worst = 0.0
    for half in range(61):
        numeric = spectral.x2sq_min_eigenvalue(2 * half)
        closed = math.sin(math.pi / (4 * half + 4)) ** 2
        worst = max(worst, abs(numeric - closed))
    assert worst <= 1e-9
    report(f"criterion-02 even-degree sin^2(pi/(4m+4)) m<=60: PASS (max dev {worst:.3e})")


def test_criterion_03_chebyshev_identity():
    assert all(spectral.chebyshev_identity_check(n) for n in range(1, 17))
    report("criterion-03 det(A_n - tI) = 2T_n(-t/2) n<=16: PASS (exact integer equality)")


def test_criterion_04_randomized_exactness_500():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    for index in range(500):
        problem = random_problem(rng)
        data = random_polynomial(rng, 2, 10)
        result = fischer.decompose_recursive(problem, data)
        assert problem.assembled() * result.quotient + result.remainder == data, \
            f"reconstruction failed at instance {index}"
        assert result.laplacian_residual.is_zero, f"harmonicity failed at instance {index}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"criterion-04 fischer exactness 500 instances: PASS ({elapsed:.2f}s, zero tolerance)")


def test_criterion_05_series_equals_recursion_100():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED + 1)
    for index in range(100):
        problem = random_problem(rng)
        f_m = random_homogeneous(rng, 2, rng.randint(0, 10))
        series_q = fischer.decompose_series_formula(problem, f_m)
        recursive_q = fischer.quotient_polynomial(problem, f_m)
        assert series_q == recursive_q, f"quotients differ at instance {index}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"criterion-05 series vs recursion 100 instances: PASS ({elapsed:.2f}s, exact)")


def test_criterion_06_dirichlet_closed_forms():
    x1sq = Polynomial.from_terms(2, {(2, 0): 1})

    disk = dirichlet.solve(dirichlet.DomainSpec.ellipsoid(1, 1), x1sq)
    expected = Polynomial.from_terms(
        2, {(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}
    )
    assert disk.harmonic_extension.to_polynomial() == expected
    assert disk.residual_report.max_residual <= 1e-10

    parabola = dirichlet.solve(dirichlet.DomainSpec.parabola(1), x1sq)
    expected = Polynomial.from_terms(2, {(2, 0): 1, (0, 2): -1, (1, 0): 1})
    assert parabola.harmonic_extension.to_polynomial() == expected
    assert parabola.residual_report.max_residual <= 1e-10
    report(
        "criterion-06 dirichlet disk and parabola: PASS "
        f"(exact h; residuals {disk.residual_report.max_residual:.2e}, "
        f"{parabola.residual_report.max_residual:.2e})"
    )


def test_criterion_07_strip_witness():
    # Certificates are evaluated degreewise through the truncation order, the
    # only sense in which a finite section of the boundary-vanishing harmonic
    # series admits two splittings (the polynomial-level splitting is unique
    # because the leading term x1^2 is nonnegative); see the witness module.
    start = time.perf_counter()
    witness = dirichlet.nonuniqueness_witness(truncation=16)
    elapsed = time.perf_counter() - start
    assert witness.both_certified
    assert witness.decompositions_differ
    assert not witness.second.quotient.to_polynomial().is_zero
    assert witness.first.full_residual.is_zero
    assert elapsed < 10.0
    report(
        f"criterion-07 strip non-uniqueness witness N=16: PASS ({elapsed:.2f}s; "
        "two certified splittings differ)"
    )


def test_criterion_08_norm_bound_transfer_100():
    rng = random.Random(DEFAULT_SEED + 2)
    problem = fischer.FischerProblem(2, 1, HomogeneousPolynomial.monomial(2, (0, 2), 1))
    violations = 0
    for _ in range(100):
        degree = rng.randint(0, 20)
        sample = random_homogeneous(rng, 2, degree)
        inv_c_sq = (Fraction(16 * (degree + 2) ** 4), -4)
        try:
            fischer.verify_quotient_norm_bound(problem, degree, inv_c_sq, [sample])
        except fischer.BoundViolated:
            violations += 1
    assert violations == 0
    report("criterion-08 quotient norm bound 100 samples m<=20: PASS (zero violations)")


def test_criterion_09_order_estimator():
    details = []
    for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
        estimate = entire.order_estimate(entire.decay_series(rho, 60))
        relative = abs(estimate.order - float(rho)) / float(rho)
        assert relative <= 0.02, f"rho={rho}: estimated {estimate.order}"
        details.append(f"rho={rho}:{relative:.2%}")
    exp_estimate = entire.order_estimate(entire.exp_axis_series(2, 0, 40))
    assert abs(exp_estimate.order - 1.0) <= 0.05
    assert exp_estimate.type is not None and abs(exp_estimate.type - 1.0) <= 0.10
    details.append(f"exp order err {abs(exp_estimate.order - 1):.2%}, "
                   f"type err {abs(exp_estimate.type - 1):.2%}")
    report(f"criterion-09 order estimator: PASS ({'; '.join(details)})")


def test_criterion_10_sine_bound_to_1e6():
    record = spectral.sine_bound_check(10**6)
    assert record.ok
    report(
        f"criterion-10 sin(pi/n) >= pi/(n+2) n<=1e6: PASS "
        f"(worst margin {record.worst_margin:.3e} at n={record.worst_n})"
    )
