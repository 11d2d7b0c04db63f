"""The full invariant battery behind the `verify` subcommand.

Every check is deterministic given the seed; randomized suites draw from
``random.Random(seed)`` so reruns are byte-reproducible.  Checks return a
CheckResult instead of raising, so one failing certificate still lets the
rest of the table print.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from . import dirichlet, entire, fischer, spectral
from .polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    monomials_of_degree,
)

DEFAULT_SEED = 314159
SPECTRAL_M_MAX = 200
SHARP_EIGENVALUE_LIMIT = 60
CHEBYSHEV_N_MAX = 16
EXACTNESS_COUNT = 500
EQUIVALENCE_COUNT = 100
NORM_TRANSFER_COUNT = 100
SINE_N_MAX = 10**6
WITNESS_TRUNCATION = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, body: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = body()
    except Exception as exc:  # surface the failure in the table, keep going
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Random inputs for the property suites.
# ---------------------------------------------------------------------------

def random_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    numerator = rng.randint(-bound, bound)
    denominator = rng.randint(1, bound)
    return Fraction(numerator, denominator)


def random_homogeneous(
    rng: random.Random,
    dimension: int,
    degree: int,
    density: float = 0.7,
) -> HomogeneousPolynomial:
    terms = {}
    for alpha in monomials_of_degree(dimension, degree):
        if rng.random() < density:
            value = random_fraction(rng)
            if value:
                terms[alpha] = value
    if not terms:
        basis = monomials_of_degree(dimension, degree)
        terms[rng.choice(basis)] = Fraction(rng.randint(1, 9))
    return HomogeneousPolynomial(dimension, degree, terms)


def random_polynomial(rng: random.Random, dimension: int, max_degree: int) -> Polynomial:
    parts = {}
    for degree in range(max_degree + 1):
        if rng.random() < 0.8:
            part = random_homogeneous(rng, dimension, degree)
            if not part.is_zero:
                parts[degree] = part
    if not parts:
        parts[0] = HomogeneousPolynomial.monomial(dimension, (0,) * dimension, 1)
    return Polynomial(dimension, parts)


def random_elliptic_quadratic(rng: random.Random) -> HomogeneousPolynomial:
    """A strictly positive-definite quadratic a x1^2 + b x1 x2 + c x2^2."""
    while True:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = random_fraction(rng, 4)
        if b * b < 4 * a * c:
            return HomogeneousPolynomial(2, 2, {(2, 0): a, (1, 1): b, (0, 2): c})


def random_leading_term(rng: random.Random) -> HomogeneousPolynomial:
    choice = rng.randrange(3)
    if choice == 0:
        return HomogeneousPolynomial.monomial(2, (0, 2), 1)
    if choice == 1:
        return HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): 1})
    return random_elliptic_quadratic(rng)


def random_problem(rng: random.Random) -> fischer.FischerProblem:
    leading = random_leading_term(rng)
    lower = {}
    if rng.random() < 0.5:
        value = random_fraction(rng)
        if value:
            lower[0] = HomogeneousPolynomial.monomial(2, (0, 0), value)
    if rng.random() < 0.5:
        part = random_homogeneous(rng, 2, 1, density=0.8)
        if not part.is_zero:
            lower[1] = part
    return fischer.FischerProblem(2, 1, leading, lower)


# ---------------------------------------------------------------------------
# The checks, one per acceptance criterion.
# ---------------------------------------------------------------------------

def check_spectral_bound(m_max: int = SPECTRAL_M_MAX) -> CheckResult:
    def body():
        reports = spectral.verify_main_inequality(m_max)
        worst = min(report.margin for report in reports)
        return True, f"min margin {worst:.3e} over m <= {m_max}"
    return _timed(f"x2sq-spectral-bound m<={m_max}", body)


def check_even_sharp_eigenvalue(limit: int = SHARP_EIGENVALUE_LIMIT) -> CheckResult:
    def body():
        worst = 0.0
        for half in range(limit + 1):
            degree = 2 * half
            numeric = spectral.x2sq_min_eigenvalue(degree)
            closed = spectral.x2sq_min_eigenvalue_closed(degree)
            worst = max(worst, abs(numeric - closed))
        ok = worst <= 1e-9
        return ok, f"max |numeric - sin^2(pi/(4m+4))| = {worst:.3e}"
    return _timed(f"even-degree-exact-eigenvalue m<={limit}", body)


def check_chebyshev_identity(n_max: int = CHEBYSHEV_N_MAX) -> CheckResult:
    def body():
        bad = [n for n in range(1, n_max + 1) if not spectral.chebyshev_identity_check(n)]
        return not bad, ("exact equality for all n" if not bad else f"failed at n={bad}")
    return _timed(f"chebyshev-identity n<={n_max}", body)


def check_fischer_exactness(count: int = EXACTNESS_COUNT, seed: int = DEFAULT_SEED) -> CheckResult:
    def body():
        rng = random.Random(seed)
        for index in range(count):
            problem = random_problem(rng)
            data = random_polynomial(rng, 2, 10)
            result = fischer.decompose_recursive(problem, data)
            if not result.exact:
                return False, f"certificate failed at instance {index}"
        return True, f"{count} randomized decompositions exact"
    return _timed(f"fischer-exactness n={count}", body)


def check_series_recursion_equivalence(
    count: int = EQUIVALENCE_COUNT, seed: int = DEFAULT_SEED
) -> CheckResult:
    def body():
        rng = random.Random(seed + 1)
        for index in range(count):
            problem = random_problem(rng)
            degree = rng.randint(0, 10)
            f_m = random_homogeneous(rng, 2, degree)
            series_q = fischer.decompose_series_formula(problem, f_m)
            recursive_q = fischer.quotient_polynomial(problem, f_m)
            if series_q != recursive_q:
                return False, f"quotients differ at instance {index}"
        return True, f"{count} instances agree exactly"
    return _timed(f"series-vs-recursion n={count}", body)


def check_dirichlet_solutions() -> CheckResult:
    def body():
        x1sq = Polynomial.from_terms(2, {(2, 0): 1})

        disk = dirichlet.solve(dirichlet.DomainSpec.ellipsoid(1, 1), x1sq)
        expected_disk = Polynomial.from_terms(
            2, {(0, 0): Fraction(1, 2), (2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)}
        )
        if disk.harmonic_extension.to_polynomial() != expected_disk:
            return False, "unit disk harmonic extension mismatch"
        if disk.residual_report.max_residual > 1e-10:
            return False, f"disk residual {disk.residual_report.max_residual}"

        parabola = dirichlet.solve(dirichlet.DomainSpec.parabola(1), x1sq)
        expected_parabola = Polynomial.from_terms(
            2, {(2, 0): 1, (0, 2): -1, (1, 0): 1}
        )
        if parabola.harmonic_extension.to_polynomial() != expected_parabola:
            return False, "parabola harmonic extension mismatch"
        if parabola.residual_report.max_residual > 1e-10:
            return False, f"parabola residual {parabola.residual_report.max_residual}"
        return True, "disk and parabola solutions exact; residuals < 1e-10"
    return _timed("dirichlet-closed-forms", body)


def check_strip_witness(truncation: int = WITNESS_TRUNCATION) -> CheckResult:
    def body():
        witness = dirichlet.nonuniqueness_witness(truncation=truncation)
        if not witness.both_certified:
            return False, "a witness certificate failed"
        if not witness.decompositions_differ:
            return False, "witness decompositions coincide"
        if not witness.pipeline_matches_first:
            return False, "graded pipeline did not reproduce the zero-quotient split"
        quotient_degrees = witness.second.quotient.nonzero_degrees()
        return True, (
            f"two certified splits differ; division quotient supported on "
            f"degrees {quotient_degrees[0]}..{quotient_degrees[-1]}"
        )
    return _timed(f"strip-nonuniqueness N={truncation}", body)


def check_quotient_norm_transfer(
    count: int = NORM_TRANSFER_COUNT, seed: int = DEFAULT_SEED, degree_max: int = 20
) -> CheckResult:
    def body():
        rng = random.Random(seed + 2)
        problem = fischer.FischerProblem(
            2, 1, HomogeneousPolynomial.monomial(2, (0, 2), 1)
        )
        worst = 0.0
        checked = 0
        for _ in range(count):
            degree = rng.randint(0, degree_max)
            sample = random_homogeneous(rng, 2, degree)
            inv_c_sq = (Fraction(16 * (degree + 2) ** 4), -4)
            record = fischer.verify_quotient_norm_bound(problem, degree, inv_c_sq, [sample])
            worst = max(worst, record.worst_ratio / record.bound if record.bound else 0.0)
            checked += 1
        return True, f"{checked} certified bounds, worst ratio/bound = {worst:.4f}"
    return _timed(f"quotient-norm-transfer n={count}", body)


def check_order_estimator() -> CheckResult:
    def body():
        details = []
        for rho in (Fraction(1, 2), Fraction(1), Fraction(2)):
            series = entire.decay_series(rho, 60)
            estimate = entire.order_estimate(series)
            relative = abs(estimate.order - float(rho)) / float(rho)
            details.append(f"rho={rho}: {estimate.order:.4f}")
            if relative > 0.02:
                return False, f"decay series rho={rho} estimated {estimate.order}"
        exp_series = entire.exp_axis_series(2, 0, 40)
        estimate = entire.order_estimate(exp_series)
        if abs(estimate.order - 1.0) > 0.05:
            return False, f"exp order estimate {estimate.order}"
        if estimate.type is None or abs(estimate.type - 1.0) > 0.10:
            return False, f"exp type estimate {estimate.type}"
        details.append(f"exp: rho={estimate.order:.4f}, tau={estimate.type:.4f}")
        return True, "; ".join(details)
    return _timed("order-estimator", body)


def check_sine_bound(n_max: int = SINE_N_MAX) -> CheckResult:
    def body():
        record = spectral.sine_bound_check(n_max)
        return record.ok, (
            f"worst margin {record.worst_margin:.3e} at n={record.worst_n}"
        )
    return _timed(f"sine-bound n<={n_max}", body)


def run_all(
    seed: int = DEFAULT_SEED,
    m_max: int = SPECTRAL_M_MAX,
    exactness_count: int = EXACTNESS_COUNT,
    equivalence_count: int = EQUIVALENCE_COUNT,
) -> List[CheckResult]:
    return [
        check_spectral_bound(m_max),
        check_even_sharp_eigenvalue(),
        check_chebyshev_identity(),
        check_fischer_exactness(exactness_count, seed),
        check_series_recursion_equivalence(equivalence_count, seed),
        check_dirichlet_solutions(),
        check_strip_witness(),
        check_quotient_norm_transfer(NORM_TRANSFER_COUNT, seed),
        check_order_estimator(),
        check_sine_bound(),
    ]


def format_table(results: List[CheckResult]) -> str:
    width = max(len(result.name) for result in results)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{result.name:<{width}}  {status}  {result.seconds:7.2f}s  {result.detail}"
        )
    return "\n".join(lines)
