"""Exact L^2 inner products of polynomials on the unit sphere S^{d-1}.

Every inner product is stored as an exact rational multiple of the surface
area omega_{d-1}; omega itself is only evaluated when a float is requested.
The closed form behind everything: for a monomial theta^alpha with all
exponents even,

    integral of theta^alpha over S^{d-1}
        = omega_{d-1} * prod_i (alpha_i - 1)!!  /  prod_{j=0}^{s-1} (d + 2j),

where s = |alpha| / 2, and the integral vanishes whenever any exponent is
odd.  This keeps orthogonality, Parseval identities, and Gram matrices exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .polynomials import (
    HomogeneousPolynomial,
    MultiIndex,
    Polynomial,
    evaluate_on_points,
    squared_norm_polynomial,
)
from .rationals import Scalar, fraction_sqrt

# Deterministic sampling densities for sup-norm estimates.
CIRCLE_SAMPLES = 4096
SPHERE_SAMPLES = 65536
SAMPLE_SEED = 314159


def surface_area(dimension: int) -> float:
    """omega_{d-1} = 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def monomial_sphere_integral(alpha: MultiIndex, dimension: int) -> Fraction:
    """Integral of theta^alpha over S^{d-1}, as a rational multiple of omega."""
    if len(alpha) != dimension:
        raise ValueError("exponent tuple length does not match dimension")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    half_total = sum(alpha) // 2
    numerator = 1
    for a in alpha:
        numerator *= _double_factorial(a - 1)
    denominator = 1
    for j in range(half_total):
        denominator *= dimension + 2 * j
    return Fraction(numerator, denominator)


@dataclass(frozen=True)
class SphereValue:
    """An exact sphere inner product: value = ratio * omega_{d-1}."""

    ratio: Scalar
    dimension: int

    def as_float(self) -> complex | float:
        omega = surface_area(self.dimension)
        if not self.ratio.imag:
            return float(self.ratio) * omega
        return complex(self.ratio) * omega


def sphere_inner_product(f: Polynomial, g: Polynomial) -> SphereValue:
    """<f, g> over S^{d-1}, expanded sesquilinearly over monomial pairs."""
    if f.dimension != g.dimension:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    g_terms = g.terms()
    for alpha, ca in f.terms().items():
        for beta, cb in g_terms.items():
            moment = monomial_sphere_integral(
                tuple(a + b for a, b in zip(alpha, beta)), f.dimension
            )
            if moment:
                total = total + ca * cb.conjugate() * moment
    return SphereValue(total, f.dimension)


def _as_polynomial(f) -> Polynomial:
    return f if isinstance(f, Polynomial) else f.to_polynomial()


def sphere_norm_sq_ratio(f) -> Fraction:
    """<f, f> / omega_{d-1}, an exact nonnegative rational."""
    poly = _as_polynomial(f)
    return sphere_inner_product(poly, poly).ratio


# ---------------------------------------------------------------------------
# Circle harmonics: the orthonormal basis cos(kt)/sqrt(pi), sin(kt)/sqrt(pi)
# (constant 1/sqrt(2 pi)), realised as harmonic homogeneous polynomials
# Re (x1 + i x2)^k and Im (x1 + i x2)^k with the squared normalisation kept
# as a rational ("weight"): normalisation^2 = weight / pi.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleHarmonic:
    poly: HomogeneousPolynomial
    weight: Fraction  # squared normalisation times pi; 0 marks the absent sin at k = 0


def circle_polynomial(kappa: int, component: str) -> HomogeneousPolynomial:
    """Re or Im of (x1 + i x2)^kappa as an exact homogeneous polynomial."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    terms = {}
    want_odd = component == "sin"
    if component not in ("cos", "sin"):
        raise ValueError("component must be 'cos' or 'sin'")
    for j in range(kappa + 1):
        if j % 2 != want_odd:
            continue
        sign = -1 if j % 4 >= 2 else 1
        terms[(kappa - j, j)] = sign * math.comb(kappa, j)
    return HomogeneousPolynomial(2, kappa, terms)


def circle_harmonic_basis(kappa: int) -> Tuple[CircleHarmonic, CircleHarmonic]:
    """The (cos, sin) pair of orthonormal circle harmonics at frequency kappa."""
    if kappa == 0:
        one = HomogeneousPolynomial.monomial(2, (0, 0), 1)
        return (
            CircleHarmonic(one, Fraction(1, 2)),
            CircleHarmonic(HomogeneousPolynomial.zero(2, 0), Fraction(0)),
        )
    return (
        CircleHarmonic(circle_polynomial(kappa, "cos"), Fraction(1)),
        CircleHarmonic(circle_polynomial(kappa, "sin"), Fraction(1)),
    )


def normalized_circle_inner(
    left: CircleHarmonic,
    right: CircleHarmonic,
    multiplier: Polynomial | None = None,
) -> Tuple[Fraction, int]:
    """<multiplier * Y_left, Y_right> on the circle, as coeff * sqrt(2)^power.

    The only irrationality that can appear comes from pairing the constant
    harmonic (weight 1/2) with a nonconstant one, which contributes a single
    factor sqrt(2); power is 0 or 1.
    """
    if left.weight == 0 or right.weight == 0:
        return Fraction(0), 0
    lp = _as_polynomial(left.poly)
    if multiplier is not None:
        lp = multiplier * lp
    ratio = sphere_inner_product(lp, _as_polynomial(right.poly)).ratio
    if ratio == 0:
        return Fraction(0), 0
    # value = ratio * 2 * sqrt(w_l * w_r); weights are 1 or 1/2.
    product = left.weight * right.weight
    try:
        root = fraction_sqrt(product)
        return 2 * ratio * root, 0
    except ValueError:
        root = fraction_sqrt(product * 2)
        return ratio * root, 1  # 2 * sqrt(p) = sqrt(2) * sqrt(2 p)


# ---------------------------------------------------------------------------
# Gauss decomposition f = sum_l h_l |x|^{deg f - deg h_l} with harmonic h_l,
# computed by iterated harmonic projection: each step is the Fischer split
# with P = |x|^2 and k = 1, so q = T f solves Lap(|x|^2 q) = Lap(f) through
# fischer's graded operator (and its cached systems); peel h = f - |x|^2 q,
# recurse on q.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlmansiDecomposition:
    """Harmonic components of a homogeneous polynomial, ascending degree."""

    dimension: int
    degree: int
    harmonics: Tuple[HomogeneousPolynomial, ...]

    def reassemble(self) -> HomogeneousPolynomial:
        radial = squared_norm_polynomial(self.dimension)
        total = Polynomial.zero(self.dimension)
        for h in self.harmonics:
            piece = h.to_polynomial()
            for _ in range((self.degree - h.degree) // 2):
                piece = piece * radial
            total = total + piece
        return total.part(self.degree)

    def verify(self, original: HomogeneousPolynomial) -> bool:
        if any(not h.laplacian().is_zero for h in self.harmonics):
            return False
        return self.reassemble() == original


def gauss_decompose(f: HomogeneousPolynomial) -> AlmansiDecomposition:
    """Exact harmonic decomposition of a homogeneous polynomial."""
    # fischer imports this module at load time, so import it here.
    from .fischer import FischerProblem, fischer_operator_homogeneous

    radial = squared_norm_polynomial(f.dimension)
    problem = FischerProblem(f.dimension, 1, radial.part(2))
    pieces: List[HomogeneousPolynomial] = []
    current = f
    while current.degree >= 2 and not current.is_zero:
        quotient = fischer_operator_homogeneous(problem, current)
        radial_part = (radial * quotient.to_polynomial()).part(current.degree)
        pieces.append(current - radial_part)
        current = quotient
    pieces.append(current)
    pieces = [p for p in reversed(pieces)]
    return AlmansiDecomposition(f.dimension, f.degree, tuple(pieces))


# ---------------------------------------------------------------------------
# Sup norms on the sphere: a sampled estimate plus the certified bound
#   max |f_m| <= sqrt(2 / omega) * (1 + m)^{(d-1)/2} * ||f_m||_{L^2},
# whose square is the exact rational 2 * (1+m)^{d-1} * <f,f>/omega.
# ---------------------------------------------------------------------------

def _sphere_sample_points(dimension: int, count: int) -> np.ndarray:
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dimension == 3:
        # Fibonacci lattice: deterministic, near-uniform coverage.
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        return np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(SAMPLE_SEED)
    points = rng.standard_normal((count, dimension))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def sup_norm_estimate(f: HomogeneousPolynomial, samples: int | None = None) -> float:
    """Sampled estimate of max |f_m| over the deterministic sphere sample points."""
    if f.is_zero:
        return 0.0
    if samples is None:
        samples = CIRCLE_SAMPLES if f.dimension == 2 else SPHERE_SAMPLES
    points = _sphere_sample_points(f.dimension, samples)
    return float(np.max(np.abs(evaluate_on_points(f.to_polynomial(), points))))


def certified_sup_norm_bound(f: HomogeneousPolynomial) -> float:
    if f.is_zero:
        return 0.0
    bound_sq = 2 * (1 + f.degree) ** (f.dimension - 1) * sphere_norm_sq_ratio(f)
    return math.sqrt(float(bound_sq))


# ---------------------------------------------------------------------------
# The multiplication identities behind the tridiagonal spectral matrices:
#   -4 sin^2 t cos(kt) = cos((k+2)t) - 2 cos(kt) + cos((k-2)t)
# and the sine counterpart, verified exactly after pulling trigonometric
# functions back to homogeneous polynomials (negative frequencies reflect,
# with a sign for sine, and lower-degree sides are padded by |x|^2 powers).
# ---------------------------------------------------------------------------

def sin_sq_shift_identity_residual(kappa: int, component: str) -> Polynomial:
    """LHS - RHS of the shift identity for cos/sin at frequency kappa."""
    base = circle_polynomial(kappa, component).to_polynomial()
    x2sq = Polynomial.from_terms(2, {(0, 2): 1})
    lhs = x2sq * base.scaled(-4)

    radial = squared_norm_polynomial(2)
    upper = circle_polynomial(kappa + 2, component).to_polynomial()
    reflected = abs(kappa - 2)
    sign = -1 if (component == "sin" and kappa < 2) else 1
    lower = circle_polynomial(reflected, component).to_polynomial().scaled(sign)
    pad_power = (kappa + 2 - reflected) // 2
    for _ in range(pad_power):
        lower = lower * radial
    rhs = upper - radial * base.scaled(2) + lower
    return lhs - rhs


def shift_identities_hold(kappa_max: int = 12) -> bool:
    return all(
        sin_sq_shift_identity_residual(kappa, component).is_zero
        for kappa in range(kappa_max + 1)
        for component in ("cos", "sin")
    )
