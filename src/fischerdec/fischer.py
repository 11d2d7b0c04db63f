"""Fischer decompositions f = P*q + h with polyharmonic remainders.

P has the lowered form P = P_{2k} - P_beta - ... - P_0 (lower parts stored
positively and subtracted on assembly).  The quotient operator for the
leading term alone solves, per graded piece, the exact linear system

    Lap^k (P_{2k} * q) = Lap^k f_m      (q homogeneous of degree m - 2k),

whose unique solvability on every graded piece is what makes (P_{2k}, Lap^k)
a Fischer pair; exact rank deficiency raises SingularFischerOperator.  The
full quotient is computed two independent ways: a degree recursion

    T_P(f_m) = T f_m + sum_s T_P(P_s * T f_m),

and the iterated-series evaluation that sums T P_{s_j} ... T P_{s_0} T f_m
over all index tuples, using linearity to aggregate each layer.  The two
routes must agree exactly; tests enforce that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import exactla
from .polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    laplacian_power,
    monomials_of_degree,
    polynomial_from_json_dict,
    polynomial_to_json_dict,
)
from .rationals import RationalComplex, certified_leq_with_pi
from .sphere import sphere_norm_sq_ratio


class SingularFischerOperator(ValueError):
    """The graded quotient system is exactly singular: not a Fischer pair here."""


class BoundViolated(AssertionError):
    """A certified norm inequality failed; wrong constant or implementation bug."""


@dataclass(frozen=True)
class GrowthConstants:
    """Constants (C, D, alpha) of a coercivity bound <P f_m, f_m> >= <f_m, f_m> / (C (m+D)^alpha)."""

    scale: float
    offset: float
    exponent: float


@dataclass(frozen=True)
class FischerProblem:
    """A lowered decomposition problem P = leading - sum of lower parts, with Q(D) = Lap^k."""

    dimension: int
    k: int
    leading: HomogeneousPolynomial
    lower: Dict[int, HomogeneousPolynomial] = field(default_factory=dict)
    growth: Optional[GrowthConstants] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.leading.is_zero:
            raise ValueError("leading term must be nonzero")
        if self.leading.degree != 2 * self.k:
            raise ValueError("leading term must have degree 2k")
        if self.leading.dimension != self.dimension:
            raise ValueError("dimension mismatch in leading term")
        clean = {}
        for degree, part in self.lower.items():
            if part.is_zero:
                continue
            if part.dimension != self.dimension:
                raise ValueError("dimension mismatch in lower part")
            if part.degree != degree or degree >= 2 * self.k:
                raise ValueError(f"lower part of degree {part.degree} is invalid")
            clean[degree] = part
        object.__setattr__(self, "lower", clean)

    @property
    def beta(self) -> int:
        """Largest degree carrying a nonzero lower part (0 if there is none)."""
        return max(self.lower) if self.lower else 0

    @property
    def order_gate(self) -> Optional[float]:
        """The sufficient order threshold (2k - beta) / alpha; None when unknown."""
        if self.growth is None:
            return None
        if self.growth.exponent == 0:
            return math.inf
        return (2 * self.k - self.beta) / self.growth.exponent

    def assembled(self) -> Polynomial:
        poly = self.leading.to_polynomial()
        for part in self.lower.values():
            poly = poly - part.to_polynomial()
        return poly

    def key(self) -> tuple:
        return (
            self.dimension,
            self.k,
            self.leading.key(),
            tuple(sorted((d, p.key()) for d, p in self.lower.items())),
        )

    def to_json_dict(self) -> dict:
        data = {
            "dimension": self.dimension,
            "k": self.k,
            "leading": polynomial_to_json_dict(self.leading.to_polynomial()),
            "lower": [
                {"degree": d, "part": polynomial_to_json_dict(p.to_polynomial())}
                for d, p in sorted(self.lower.items())
            ],
        }
        if self.growth is not None:
            data["growth"] = {
                "scale": self.growth.scale,
                "offset": self.growth.offset,
                "exponent": self.growth.exponent,
            }
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "FischerProblem":
        dimension = int(data["dimension"])
        k = int(data["k"])
        leading_poly = polynomial_from_json_dict(data["leading"])
        leading = leading_poly.part(2 * k)
        if leading_poly != leading.to_polynomial():
            raise ValueError("leading term JSON is not homogeneous of degree 2k")
        lower = {}
        for row in data.get("lower", []):
            degree = int(row["degree"])
            part_poly = polynomial_from_json_dict(row["part"])
            part = part_poly.part(degree)
            if part_poly != part.to_polynomial():
                raise ValueError("lower part JSON is not homogeneous of its degree")
            lower[degree] = part
        growth = None
        if data.get("growth"):
            g = data["growth"]
            growth = GrowthConstants(float(g["scale"]), float(g["offset"]), float(g["exponent"]))
        return cls(dimension, k, leading, lower, growth)


# Cached graded systems: (leading key, k, quotient degree) -> (matrix, basis, index).
_SYSTEM_CACHE: dict = {}


def _graded_system(problem: FischerProblem, quotient_degree: int):
    cache_key = (problem.leading.key(), problem.k, quotient_degree)
    hit = _SYSTEM_CACHE.get(cache_key)
    if hit is not None:
        return hit
    basis = monomials_of_degree(problem.dimension, quotient_degree)
    index = {alpha: i for i, alpha in enumerate(basis)}
    leading_poly = problem.leading.to_polynomial()
    columns = []
    for alpha in basis:
        product = leading_poly * Polynomial.from_terms(problem.dimension, {alpha: 1})
        image = laplacian_power(product, problem.k).part(quotient_degree)
        column = [RationalComplex() for _ in basis]
        for beta_idx, coeff in image.terms.items():
            column[index[beta_idx]] = coeff
        columns.append(column)
    matrix = [[columns[j][i] for j in range(len(basis))] for i in range(len(basis))]
    entry = (matrix, basis, index)
    _SYSTEM_CACHE[cache_key] = entry
    return entry


def fischer_operator_homogeneous(
    problem: FischerProblem, f_m: HomogeneousPolynomial
) -> HomogeneousPolynomial:
    """T_{P_{2k}} f_m: the unique homogeneous q with Lap^k(P_{2k} q) = Lap^k f_m."""
    if f_m.dimension != problem.dimension:
        raise ValueError("dimension mismatch")
    two_k = 2 * problem.k
    if f_m.degree < two_k or f_m.is_zero:
        return HomogeneousPolynomial.zero(problem.dimension, max(f_m.degree - two_k, 0))
    quotient_degree = f_m.degree - two_k
    matrix, basis, index = _graded_system(problem, quotient_degree)
    rhs = [RationalComplex() for _ in basis]
    for beta_idx, coeff in laplacian_power(f_m.to_polynomial(), problem.k).part(quotient_degree).terms.items():
        rhs[index[beta_idx]] = coeff
    try:
        solution = exactla.solve_linear(matrix, rhs)
    except exactla.SingularMatrixError as exc:
        raise SingularFischerOperator(
            f"leading term is not a Fischer pair with Lap^{problem.k} "
            f"on degree {f_m.degree}: {exc}"
        ) from exc
    return HomogeneousPolynomial(
        problem.dimension, quotient_degree,
        {alpha: value for alpha, value in zip(basis, solution)},
    )


def quotient_polynomial(
    problem: FischerProblem,
    f_m: HomogeneousPolynomial,
    _memo: dict | None = None,
) -> Polynomial:
    """T_P(f_m) for homogeneous f_m, by the degree recursion.

    T_P(f_m) = T f_m + sum over lower degrees s of T_P(P_s * T f_m); each
    recursive operand drops total degree by at least 2k - beta, so the
    recursion terminates.
    """
    if _memo is None:
        _memo = {}
    key = f_m.key()
    cached = _memo.get(key)
    if cached is not None:
        return cached
    two_k = 2 * problem.k
    if f_m.degree < two_k or f_m.is_zero:
        result = Polynomial.zero(problem.dimension)
    else:
        top = fischer_operator_homogeneous(problem, f_m)
        result = top.to_polynomial()
        if not top.is_zero:
            for part in problem.lower.values():
                feed = part * top
                if not feed.is_zero:
                    result = result + quotient_polynomial(problem, feed, _memo)
    _memo[key] = result
    return result


@dataclass(frozen=True)
class DecompositionResult:
    """An exact decomposition f = P*q + h with Lap^k h = 0, plus its certificate."""

    problem: FischerProblem
    data: Polynomial
    quotient: Polynomial
    remainder: Polynomial
    residual: Polynomial
    laplacian_residual: Polynomial

    @property
    def exact(self) -> bool:
        return self.residual.is_zero and self.laplacian_residual.is_zero

    def certificate_json_dict(self) -> dict:
        return {
            "residual": polynomial_to_json_dict(self.residual),
            "polyharmonic_residual": polynomial_to_json_dict(self.laplacian_residual),
            "exact": self.exact,
        }

    def to_json_dict(self) -> dict:
        return {
            "quotient": polynomial_to_json_dict(self.quotient),
            "remainder": polynomial_to_json_dict(self.remainder),
            "certificate": self.certificate_json_dict(),
        }


def decompose_recursive(problem: FischerProblem, data: Polynomial) -> DecompositionResult:
    """Decompose a polynomial degree-by-degree via the quotient recursion."""
    if data.dimension != problem.dimension:
        raise ValueError("dimension mismatch")
    memo: dict = {}
    quotient = Polynomial.zero(problem.dimension)
    for degree in sorted(data.parts, reverse=True):
        quotient = quotient + quotient_polynomial(problem, data.parts[degree], memo)
    product = problem.assembled() * quotient
    remainder = data - product
    residual = data - product - remainder
    lap_residual = laplacian_power(remainder, problem.k) if not remainder.is_zero else Polynomial.zero(problem.dimension)
    return DecompositionResult(problem, data, quotient, remainder, residual, lap_residual)


def decompose_series_formula(
    problem: FischerProblem, f_m: HomogeneousPolynomial
) -> Polynomial:
    """T_P(f_m) via the iterated series sum T P_{s_j} ... T P_{s_0} T f_m.

    Layers are aggregated by linearity: layer_{j+1} = sum_s T(P_s * layer_j),
    starting from layer_{-1} = T f_m.  A nonzero layer j must satisfy
    (j + 1) * (2k - beta) <= m, the degree bookkeeping that forces
    termination; violating it means the implementation is wrong.
    """
    if f_m.dimension != problem.dimension:
        raise ValueError("dimension mismatch")
    memo: dict = {}

    def apply_t(poly: Polynomial) -> Polynomial:
        pieces = Polynomial.zero(problem.dimension)
        for part in poly.parts.values():
            key = part.key()
            hit = memo.get(key)
            if hit is None:
                hit = fischer_operator_homogeneous(problem, part).to_polynomial()
                memo[key] = hit
            pieces = pieces + hit
        return pieces

    total = Polynomial.zero(problem.dimension)
    layer = apply_t(f_m.to_polynomial())  # the j = -1 summand
    total = total + layer
    width = 2 * problem.k - problem.beta
    j = 0
    while not layer.is_zero:
        next_layer = Polynomial.zero(problem.dimension)
        for part in problem.lower.values():
            next_layer = next_layer + apply_t(part.to_polynomial() * layer)
        layer = next_layer
        if not layer.is_zero and (j + 1) * width > f_m.degree:
            raise AssertionError(
                f"series layer {j} nonzero beyond the degree window "
                f"{f_m.degree}/{width}"
            )
        total = total + layer
        j += 1
    return total


@dataclass(frozen=True)
class NormBoundRecord:
    """Outcome of a certified quotient-norm check at one degree."""

    degree: int
    samples: int
    worst_ratio: float
    bound: float
    certified: bool


def verify_quotient_norm_bound(
    problem: FischerProblem,
    degree: int,
    inv_constant_sq: Tuple[Fraction, int],
    samples: list[HomogeneousPolynomial],
) -> NormBoundRecord:
    """Certify ||T f_m|| <= (1/C_{m-2k}) ||f_m|| on the supplied sample set.

    ``inv_constant_sq`` encodes (1/C)^2 as (coefficient, pi exponent); the
    squared inequality is decided exactly through the pi enclosure.  Raises
    BoundViolated on any exact failure.
    """
    if problem.lower:
        raise ValueError("norm bound check applies to homogeneous leading terms only")
    coeff, pi_exp = inv_constant_sq
    worst = 0.0
    for f_m in samples:
        if f_m.degree != degree:
            raise ValueError("sample degree mismatch")
        if f_m.is_zero:
            continue
        quotient = fischer_operator_homogeneous(problem, f_m)
        norm_sq_q = sphere_norm_sq_ratio(quotient) if not quotient.is_zero else Fraction(0)
        norm_sq_f = sphere_norm_sq_ratio(f_m)
        if not certified_leq_with_pi(norm_sq_q, 0, coeff * norm_sq_f, pi_exp):
            raise BoundViolated(
                f"quotient norm bound failed at degree {degree}: "
                f"ratio^2 = {norm_sq_q / norm_sq_f}"
            )
        if norm_sq_f:
            worst = max(worst, math.sqrt(float(norm_sq_q / norm_sq_f)))
    bound = math.sqrt(float(coeff) * math.pi**pi_exp)
    return NormBoundRecord(degree, len(samples), worst, bound, True)
