"""Truncated entire functions as homogeneous expansions, with order and type.

An EntireSeries is the finite section f_0 + ... + f_N of a homogeneous
expansion; everything downstream is computed degree-exactly up to N and
certificates never extrapolate past the truncation.  The growth order rho is
estimated from per-degree sup norms s_m on the sphere through the model

    -log s_m  ~  (m / rho) * (log m - log(e rho tau)),

whose second derivative in m is 1/(rho m): second divided differences of
-log s_m over consecutive nonzero degrees give pointwise estimates
r = 1 / (m * curvature) that converge to rho like rho + O(1/m), and a linear
fit in 1/m removes the leading bias.  The type then comes from the largest
value of m * s_m^{rho/m} / (e rho) over the tail window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

# quotient_polynomial is re-exported: perfbench's tracer test reaches the
# recursion as entire.quotient_polynomial.
from .fischer import (  # noqa: F401
    DecompositionResult,
    FischerProblem,
    decompose_recursive,
    quotient_polynomial,
)
from .polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    polynomial_from_json_dict,
    polynomial_to_json_dict,
)
from .sphere import (
    certified_sup_norm_bound,
    sphere_norm_sq_ratio,
    sup_norm_estimate,
    surface_area,
)

# The smallest truncation order_estimate accepts.
ORDER_MIN_TRUNCATION = 8


class OrderGateWarning(UserWarning):
    """Estimated order reaches the sufficient threshold; decomposition proceeds."""


@dataclass(frozen=True)
class EntireSeries:
    """A truncated homogeneous expansion f_0 + ... + f_N."""

    dimension: int
    truncation: int
    parts: Tuple[HomogeneousPolynomial, ...]
    generator: Optional[dict] = None

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if len(self.parts) != self.truncation + 1:
            raise ValueError("parts must list every degree 0..N")
        for degree, part in enumerate(self.parts):
            if part.dimension != self.dimension:
                raise ValueError("dimension mismatch in series part")
            if not part.is_zero and part.degree != degree:
                raise ValueError(f"part at index {degree} has degree {part.degree}")

    @classmethod
    def from_parts(cls, dimension: int, truncation: int,
                   parts: Dict[int, HomogeneousPolynomial],
                   generator: Optional[dict] = None) -> "EntireSeries":
        filled = tuple(
            parts.get(m, HomogeneousPolynomial.zero(dimension, m))
            for m in range(truncation + 1)
        )
        return cls(dimension, truncation, filled, generator)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, truncation: Optional[int] = None) -> "EntireSeries":
        top = poly.degree if poly.degree is not None else 0
        if truncation is None:
            truncation = top
        if truncation < top:
            raise ValueError("truncation below polynomial degree")
        return cls.from_parts(poly.dimension, truncation, poly.graded_parts())

    def part(self, degree: int) -> HomogeneousPolynomial:
        if degree > self.truncation:
            return HomogeneousPolynomial.zero(self.dimension, degree)
        return self.parts[degree]

    def nonzero_degrees(self) -> List[int]:
        return [m for m, p in enumerate(self.parts) if not p.is_zero]

    def to_polynomial(self) -> Polynomial:
        return Polynomial(self.dimension, {m: p for m, p in enumerate(self.parts) if not p.is_zero})

    def to_json_dict(self) -> dict:
        data = {
            "dimension": self.dimension,
            "truncation": self.truncation,
            "parts": [polynomial_to_json_dict(p.to_polynomial()) for p in self.parts],
        }
        if self.generator is not None:
            data["generator"] = self.generator
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "EntireSeries":
        dimension = int(data["dimension"])
        truncation = int(data["truncation"])
        parts = {}
        for degree, row in enumerate(data["parts"]):
            poly = polynomial_from_json_dict(row)
            part = poly.part(degree)
            if poly != part.to_polynomial():
                raise ValueError(f"series part {degree} is not homogeneous of degree {degree}")
            parts[degree] = part
        return cls.from_parts(dimension, truncation, parts, data.get("generator"))


# ---------------------------------------------------------------------------
# Series generators used as test fixtures and demo data.  Each records its
# provenance in the generator descriptor.
# ---------------------------------------------------------------------------

def exp_axis_series(dimension: int, axis: int, truncation: int,
                    scale: Fraction = Fraction(1)) -> EntireSeries:
    """Truncation of exp(scale * x_axis): parts scale^m x_axis^m / m!."""
    parts = {}
    for m in range(truncation + 1):
        alpha = [0] * dimension
        alpha[axis] = m
        coeff = Fraction(scale) ** m / math.factorial(m)
        parts[m] = HomogeneousPolynomial(dimension, m, {tuple(alpha): coeff})
    return EntireSeries.from_parts(
        dimension, truncation, parts,
        {"name": "exp_axis", "axis": axis, "scale": str(Fraction(scale)), "order": 1.0},
    )


def strip_harmonic_series(truncation: int, scale: Fraction = Fraction(355, 113)) -> EntireSeries:
    """Truncation of sin(c x1) * exp(c x2), harmonic degree-by-degree for every c.

    The rational default for c approximates the value that makes the function
    vanish on the strip boundary x1 = +-1; exactness of the per-degree
    harmonicity does not depend on the choice.
    """
    c = Fraction(scale)
    parts = {}
    for m in range(truncation + 1):
        terms = {}
        for j in range(1, m + 1, 2):
            i = m - j
            sign = -1 if (j // 2) % 2 else 1
            terms[(j, i)] = c**m * Fraction(sign, math.factorial(j) * math.factorial(i))
        parts[m] = HomogeneousPolynomial(2, m, terms)
    return EntireSeries.from_parts(
        2, truncation, parts,
        {"name": "strip_harmonic", "scale": str(c), "order": 1.0},
    )


def decay_series(rho: Fraction, truncation: int) -> EntireSeries:
    """A series with sup norm exactly m^(-m/rho) at every representable degree.

    Parts are the single monomials m^(-m/rho) * x1^m, whose sup norm on the
    circle is the plain coefficient (attained at the grid point t = 0, so the
    sampled estimate is exact and free of cancellation).  Degrees where
    m/rho is not an integer are left zero so the coefficient stays rational;
    for rho = 2 this keeps even degrees only.
    """
    rho = Fraction(rho)
    parts = {}
    for m in range(2, truncation + 1):
        exponent = Fraction(m, 1) / rho
        if exponent.denominator != 1:
            continue
        coeff = Fraction(1, m ** int(exponent))
        parts[m] = HomogeneousPolynomial(2, m, {(m, 0): coeff})
    return EntireSeries.from_parts(
        2, truncation, parts,
        {"name": "decay", "rho": str(rho)},
    )


# ---------------------------------------------------------------------------
# Order and type estimation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderTypeEstimate:
    """Estimated growth order and type of a truncated expansion."""

    order: float
    type: Optional[float]
    sup_norms: Dict[int, float]
    ratio_sequence: Dict[int, float]  # the classical log m / log(s_m^{-1/m}) values
    curvature_points: Tuple[Tuple[int, float], ...]
    window: Tuple[int, int]
    all_zero_tail: bool = False


def _sup_norm_map(series: EntireSeries, use_certified_bound: bool,
                  samples: Optional[int]) -> Dict[int, float]:
    norms = {}
    for m in series.nonzero_degrees():
        part = series.parts[m]
        if use_certified_bound:
            norms[m] = certified_sup_norm_bound(part)
        else:
            norms[m] = sup_norm_estimate(part, samples)
    return norms


def order_estimate(series: EntireSeries, *, use_certified_bound: bool = False,
                   samples: Optional[int] = None) -> OrderTypeEstimate:
    """Estimate order and (when meaningful) type from per-degree sup norms."""
    if series.truncation < ORDER_MIN_TRUNCATION:
        raise ValueError(f"order estimation needs truncation at least {ORDER_MIN_TRUNCATION}")
    norms = _sup_norm_map(series, use_certified_bound, samples)
    window = (series.truncation // 2, series.truncation)

    usable = sorted(m for m, s in norms.items() if m >= 2 and s > 0.0)
    tail = [m for m in usable if window[0] <= m <= window[1]]
    if not tail:
        return OrderTypeEstimate(0.0, None, norms, {}, (), window, all_zero_tail=True)

    ratio_sequence = {}
    for m in usable:
        log_inv = -math.log(norms[m]) / m
        if log_inv > 0:
            ratio_sequence[m] = math.log(m) / log_inv

    # Pointwise order estimates from second divided differences of -log s_m.
    log_values = {m: -math.log(norms[m]) for m in usable}
    points: List[Tuple[int, float]] = []
    for left, mid, right in zip(usable, usable[1:], usable[2:]):
        d1 = (log_values[mid] - log_values[left]) / (mid - left)
        d2 = (log_values[right] - log_values[mid]) / (right - mid)
        curvature = 2.0 * (d2 - d1) / (right - left)
        if curvature > 0:
            points.append((mid, 1.0 / (mid * curvature)))
    tail_points = [(m, r) for m, r in points if m >= window[0]]

    if not tail_points:
        # No usable curvature: fall back to the raw limsup sequence.
        fallback = [ratio_sequence[m] for m in tail if m in ratio_sequence]
        order = max(fallback) if fallback else math.inf
        return OrderTypeEstimate(order, None, norms, ratio_sequence, tuple(points), window)

    # Trim outliers (the top degrees of series derived from a truncation carry
    # boundary noise) before removing the O(1/m) bias by a linear fit in 1/m.
    values = sorted(r for _, r in tail_points)
    med = values[len(values) // 2]
    mad = sorted(abs(r - med) for r in values)[len(values) // 2]
    threshold = max(5.0 * mad, 0.02 * abs(med), 1e-9)
    clean = [(m, r) for m, r in tail_points if abs(r - med) <= threshold]
    if not clean:
        clean = tail_points

    if len(clean) >= 3:
        s00 = float(len(clean))
        s01 = sum(1.0 / m for m, _ in clean)
        s11 = sum(1.0 / (m * m) for m, _ in clean)
        t0 = sum(r for _, r in clean)
        t1 = sum(r / m for m, r in clean)
        det = s00 * s11 - s01 * s01
        order = (t0 * s11 - t1 * s01) / det if det else clean[-1][1]
    else:
        order = clean[-1][1]
    order = max(0.0, order)  # the fit can dip below 0; an order of growth cannot

    type_estimate = None
    if 0.0 < order < math.inf:
        candidates = [
            m * norms[m] ** (order / m) / (math.e * order)
            for m in tail
        ]
        if candidates:
            type_estimate = max(candidates)
    return OrderTypeEstimate(order, type_estimate, norms, ratio_sequence,
                             tuple(points), window)


# ---------------------------------------------------------------------------
# Decomposition of truncated series.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRow:
    degree: int
    quotient_norm: float
    bound_shape: Optional[float]


@dataclass(frozen=True)
class EntireDecomposition:
    """q and h with data = P*q + h, exact degree-by-degree up to the truncation.

    ``polynomial`` is the same split of the truncated data as polynomials,
    and carries the certificate.  ``order`` is the estimated growth order the
    gate used (None when it was not estimated).
    """

    problem: FischerProblem
    data: EntireSeries
    quotient: EntireSeries
    remainder: EntireSeries
    polynomial: DecompositionResult
    order: Optional[float]
    warnings: Tuple[str, ...]

    @property
    def exact(self) -> bool:
        return self.polynomial.exact

    def to_json_dict(self) -> dict:
        return {
            "quotient": self.quotient.to_json_dict(),
            "remainder": self.remainder.to_json_dict(),
            "certificate": self.polynomial.certificate_json_dict(),
            "warnings": list(self.warnings),
        }


def decompose_entire(
    problem: FischerProblem,
    series: EntireSeries,
    *,
    estimate_order: bool = True,
) -> EntireDecomposition:
    """Decompose a truncated expansion: q = sum of T_P(f_m), h = f - P q.

    Every per-degree quotient is exact, so the remainder is annihilated by
    Lap^k exactly at every truncation.  When the estimated order of the data
    reaches the problem's sufficient threshold (2k - beta)/alpha the result
    carries an OrderGateWarning; the gate is advisory because the threshold
    is sufficient, not necessary, and the estimate is finite-section.
    """
    if series.dimension != problem.dimension:
        raise ValueError("dimension mismatch")
    notes: List[str] = []
    rho = None
    if estimate_order and series.truncation >= ORDER_MIN_TRUNCATION and series.nonzero_degrees():
        rho = order_estimate(series).order
    gate = problem.order_gate
    if gate is not None and math.isfinite(gate):
        if rho is not None and rho >= gate:
            message = (
                f"estimated order {rho:.4g} reaches the sufficient threshold "
                f"{gate:.4g}; series convergence is not guaranteed"
            )
            warnings.warn(message, OrderGateWarning, stacklevel=2)
            notes.append(message)

    result = decompose_recursive(problem, series.to_polynomial())
    return EntireDecomposition(
        problem, series,
        EntireSeries.from_polynomial(result.quotient, series.truncation),
        EntireSeries.from_polynomial(result.remainder, series.truncation),
        result, rho, tuple(notes),
    )


def tail_report(quotient: EntireSeries, problem: FischerProblem,
                order: Optional[float]) -> Tuple[TailRow, ...]:
    """Per-degree quotient norms against the expected decay shape.

    The shape (M+1)^{(d-1)/2} / (M+2k)^{(M+2k)/rho} mirrors the bound that
    drives the convergence estimate; it is normalised to the first nonzero
    quotient norm and is diagnostic only, and None unless 0 < order < inf.
    """
    rows: List[TailRow] = []
    omega = surface_area(quotient.dimension)
    norms = {}
    for m in quotient.nonzero_degrees():
        norms[m] = math.sqrt(float(sphere_norm_sq_ratio(quotient.parts[m])) * omega)
    rho = order if order is not None and 0.0 < order < math.inf else None
    scale = None
    for m in range(quotient.truncation + 1):
        norm = norms.get(m, 0.0)
        shape = None
        if rho is not None:
            try:
                decay = (m + 2 * problem.k) ** ((m + 2 * problem.k) / rho)
            except OverflowError:  # a tiny order: the shape rounds to 0.0
                decay = math.inf
            raw = (m + 1) ** ((quotient.dimension - 1) / 2.0) / decay
            if scale is None and norm > 0.0 and raw > 0.0:
                scale = norm / raw
            shape = raw * scale if scale is not None else None
        rows.append(TailRow(m, norm, shape))
    return tuple(rows)


def tail_report_csv(decomposition: EntireDecomposition, path: str) -> None:
    """CSV columns: M, norm_GM, bound_shape (blank when no order is known)."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["M", "norm_GM", "bound_shape"])
        for row in tail_report(decomposition.quotient, decomposition.problem, decomposition.order):
            writer.writerow([
                row.degree,
                repr(row.quotient_norm),
                "" if row.bound_shape is None else repr(row.bound_shape),
            ])


@dataclass(frozen=True)
class DecompositionOrderComparison:
    """Order/type estimates of data, quotient, and remainder, with slack flags."""

    data: OrderTypeEstimate
    quotient: OrderTypeEstimate
    remainder: OrderTypeEstimate
    tolerance: float

    @property
    def quotient_order_ok(self) -> bool:
        return self.quotient.order <= self.data.order + self.tolerance

    @property
    def remainder_order_ok(self) -> bool:
        return self.remainder.order <= self.data.order + self.tolerance


def order_of_decomposition(
    data: EntireSeries,
    quotient: EntireSeries,
    remainder: EntireSeries,
    tolerance: float = 0.1,
) -> DecompositionOrderComparison:
    """Compare growth estimates of q and h against the data (diagnostic)."""
    def safe_estimate(series: EntireSeries) -> OrderTypeEstimate:
        if series.truncation < ORDER_MIN_TRUNCATION or not series.nonzero_degrees():
            return OrderTypeEstimate(0.0, None, {}, {}, (), (0, series.truncation), True)
        return order_estimate(series)

    return DecompositionOrderComparison(
        safe_estimate(data), safe_estimate(quotient), safe_estimate(remainder), tolerance
    )


def small_type_criterion(problem: FischerProblem, rho: float, tau: float) -> Optional[dict]:
    """Evaluate the boundary-order smallness product; reported, never enforced.

    At order exactly (2k - beta)/alpha the series decomposition still works
    when (2k)^e / (2k-beta)^e * C * (D_0 + ... + D_beta) * (e rho tau)^e < 1
    with e = (2k - beta)/rho; D_s are sup norms of the lower parts.  Each D_s
    is taken as ``certified_sup_norm_bound``, an upper bound on the sup norm,
    so ``satisfied`` is never claimed from an underestimate (a sampled sup
    norm can miss the maximum).
    """
    if problem.growth is None or rho <= 0:
        return None
    exponent = (2 * problem.k - problem.beta) / rho
    d_total = 0.0
    for part in problem.lower.values():
        d_total += certified_sup_norm_bound(part)
    value = (
        (2 * problem.k) ** exponent
        / (2 * problem.k - problem.beta) ** exponent
        * problem.growth.scale
        * d_total
        * (math.e * rho * tau) ** exponent
    )
    return {"value": value, "satisfied": value < 1.0}


def formal_quotient_constant_term(problem: FischerProblem, series: EntireSeries) -> EntireSeries:
    """The formal-division quotient q with (P * q)_m = f_m for every m <= N.

    Requires a nonzero constant lower part P_0, which makes the degree-m
    coefficient of P*q solvable for q_m from below:

        q_m = (P_{2k} q_{m-2k} - sum_{s>=1} P_s q_{m-s} - f_m) / P_0.

    This is the exact finite section of dividing by P as a formal power
    series; the identity f = P*q holds degreewise through the truncation.
    """
    constant = problem.lower.get(0)
    if constant is None or constant.is_zero:
        raise ValueError("formal division needs a nonzero constant lower part")
    p0 = constant.terms[(0,) * problem.dimension]
    leading = problem.leading.to_polynomial()
    quotient_parts: Dict[int, HomogeneousPolynomial] = {}

    def q_part(degree: int) -> Polynomial:
        part = quotient_parts.get(degree)
        return part.to_polynomial() if part is not None else Polynomial.zero(problem.dimension)

    for m in range(series.truncation + 1):
        acc = Polynomial.zero(problem.dimension)
        feed = m - 2 * problem.k
        if feed >= 0:
            acc = acc + leading * q_part(feed)
        for s, part in problem.lower.items():
            if s >= 1 and m - s >= 0:
                acc = acc - part.to_polynomial() * q_part(m - s)
        acc = acc - series.parts[m].to_polynomial()
        q_m = acc.part(m).scaled(1 / p0)
        if not q_m.is_zero:
            quotient_parts[m] = q_m
    return EntireSeries.from_parts(problem.dimension, series.truncation, quotient_parts)
