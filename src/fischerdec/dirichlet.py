"""Dirichlet problems on quadric domains solved by harmonic series extension.

Each catalogued domain (ellipsoid, parabola, strip, ellipsoidal cylinder) is
the zero set of a polynomial P with quadratic leading term, so decomposing
boundary data as f = P*q + h with harmonic h produces a candidate solution:
h agrees with f on the boundary identically, because P vanishes there.  For
truncated data the identity is exact and the sampled boundary residual only
measures float evaluation noise.

Sufficient order thresholds for the series decomposition of genuinely entire
data: infinity for ellipsoids, 1/2 for parabolas, 1 for strips and cylinders.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .entire import (
    EntireDecomposition,
    EntireSeries,
    decompose_entire,
    formal_quotient_constant_term,
    strip_harmonic_series,
)
from .fischer import FischerProblem, GrowthConstants
from .polynomials import (
    HomogeneousPolynomial,
    Polynomial,
    laplacian_power,
    polynomial_to_json_dict,
)
from .rationals import parse_fraction

# Degree-m coercivity of x2^2 on the circle: <x2^2 f, f> >= (m+4)^{-2} pi^2/4 <f,f>,
# i.e. scale 4/pi^2, offset 4, exponent 2 in the 1/(C (m+D)^alpha) convention.
X2SQ_GROWTH = GrowthConstants(scale=4.0 / math.pi**2, offset=4.0, exponent=2.0)

BOUNDARY_WINDOW = 4.0
PARABOLA_SAMPLES = 512
STRIP_SAMPLES_PER_LINE = 256
ELLIPSE_SAMPLES = 512
CYLINDER_ANGLES = 64
CYLINDER_HEIGHTS = 16


@dataclass(frozen=True)
class DomainSpec:
    """A catalogued domain with strictly positive shape parameters."""

    kind: str  # "ellipsoid" | "parabola" | "strip" | "cylinder"
    dimension: int
    semi_axes: Tuple[Fraction, ...] = ()
    parameter: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind in ("parabola", "strip"):
            if self.dimension != 2:
                raise ValueError(f"{self.kind} requires dimension 2")
            if self.parameter <= 0:
                raise ValueError(f"{self.kind} parameter must be positive")
        elif self.kind == "ellipsoid":
            if len(self.semi_axes) != self.dimension or self.dimension < 2:
                raise ValueError("ellipsoid needs one semi-axis per coordinate")
            if any(a <= 0 for a in self.semi_axes):
                raise ValueError("semi-axes must be positive")
        elif self.kind == "cylinder":
            if self.dimension < 2 or len(self.semi_axes) != self.dimension - 1:
                raise ValueError("cylinder needs semi-axes for all but the last coordinate")
            if any(a <= 0 for a in self.semi_axes):
                raise ValueError("semi-axes must be positive")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @classmethod
    def ellipsoid(cls, *semi_axes) -> "DomainSpec":
        axes = tuple(Fraction(a) for a in semi_axes)
        return cls("ellipsoid", len(axes), axes)

    @classmethod
    def parabola(cls, parameter) -> "DomainSpec":
        return cls("parabola", 2, (), Fraction(parameter))

    @classmethod
    def strip(cls, parameter) -> "DomainSpec":
        return cls("strip", 2, (), Fraction(parameter))

    @classmethod
    def cylinder(cls, semi_axes: Sequence, dimension: int) -> "DomainSpec":
        return cls("cylinder", dimension, tuple(Fraction(a) for a in semi_axes))

    def to_json_dict(self) -> dict:
        data: dict = {"kind": self.kind, "dimension": self.dimension}
        if self.semi_axes:
            data["semi_axes"] = [str(a) for a in self.semi_axes]
        if self.kind in ("parabola", "strip"):
            data["a"] = str(self.parameter)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "DomainSpec":
        kind = data["kind"]
        if kind == "ellipsoid":
            return cls.ellipsoid(*[parse_fraction(a) for a in data["semi_axes"]])
        if kind == "parabola":
            return cls.parabola(parse_fraction(data["a"]))
        if kind == "strip":
            return cls.strip(parse_fraction(data["a"]))
        if kind == "cylinder":
            return cls.cylinder(
                [parse_fraction(a) for a in data["semi_axes"]], int(data["dimension"])
            )
        raise ValueError(f"unknown domain kind {kind!r}")


def to_fischer_problem(spec: DomainSpec) -> FischerProblem:
    """The defining polynomial of the domain as a lowered decomposition problem.

    Sign conventions follow P = leading - lower parts:
      ellipsoid  sum x_i^2/a_i^2 - 1      (threshold infinity)
      parabola   x_2^2 - a x_1            (threshold 1/2)
      strip      x_1^2 - a^2              (threshold 1)
      cylinder   sum_{i<d} x_i^2/a_i^2 - 1 (threshold 1)
    """
    d = spec.dimension
    if spec.kind in ("ellipsoid", "cylinder"):
        terms = {}
        for i, axis in enumerate(spec.semi_axes):
            alpha = [0] * d
            alpha[i] = 2
            terms[tuple(alpha)] = 1 / (Fraction(axis) ** 2)
        leading = HomogeneousPolynomial(d, 2, terms)
        lower = {0: HomogeneousPolynomial.monomial(d, (0,) * d, 1)}
        if spec.kind == "cylinder":
            # Transverse coercivity behaves like the planar x2^2 instance.
            return FischerProblem(d, 1, leading, lower, X2SQ_GROWTH)
        scale = float(max(Fraction(a) ** 2 for a in spec.semi_axes))
        growth = GrowthConstants(scale=scale, offset=1.0, exponent=0.0)
        return FischerProblem(d, 1, leading, lower, growth)
    if spec.kind == "parabola":
        leading = HomogeneousPolynomial.monomial(2, (0, 2), 1)
        lower = {1: HomogeneousPolynomial.monomial(2, (1, 0), spec.parameter)}
        return FischerProblem(2, 1, leading, lower, X2SQ_GROWTH)
    if spec.kind == "strip":
        leading = HomogeneousPolynomial.monomial(2, (2, 0), 1)
        lower = {0: HomogeneousPolynomial.monomial(2, (0, 0), spec.parameter**2)}
        return FischerProblem(2, 1, leading, lower, X2SQ_GROWTH)
    raise ValueError(f"unknown domain kind {spec.kind!r}")


def boundary_points(spec: DomainSpec, window: float = BOUNDARY_WINDOW) -> Tuple[np.ndarray, np.ndarray, str]:
    """Sampled boundary points and their parameters, with a description."""
    if spec.kind == "parabola":
        t = np.linspace(-window, window, PARABOLA_SAMPLES)
        a = float(spec.parameter)
        points = np.stack([t * t / a, t], axis=1)
        return points, t, f"parabola arc x1 = t^2/a, |t| <= {window}, {PARABOLA_SAMPLES} samples"
    if spec.kind == "strip":
        t = np.linspace(-window, window, STRIP_SAMPLES_PER_LINE)
        a = float(spec.parameter)
        left = np.stack([np.full_like(t, -a), t], axis=1)
        right = np.stack([np.full_like(t, a), t], axis=1)
        return (
            np.concatenate([left, right]),
            np.concatenate([t, t]),
            f"strip lines x1 = +-a, |x2| <= {window}, {2 * STRIP_SAMPLES_PER_LINE} samples",
        )
    if spec.kind == "ellipsoid":
        if spec.dimension == 2:
            t = np.linspace(0.0, 2.0 * math.pi, ELLIPSE_SAMPLES, endpoint=False)
            points = np.stack(
                [float(spec.semi_axes[0]) * np.cos(t), float(spec.semi_axes[1]) * np.sin(t)],
                axis=1,
            )
            return points, t, f"ellipse angle sweep, {ELLIPSE_SAMPLES} samples"
        from .sphere import _sphere_sample_points

        sphere = _sphere_sample_points(spec.dimension, 4096)
        scale = np.array([float(a) for a in spec.semi_axes])
        return sphere * scale, np.arange(len(sphere), dtype=float), "scaled sphere lattice, 4096 samples"
    if spec.kind == "cylinder":
        if spec.dimension != 3:
            raise ValueError("cylinder boundary sampling is implemented for dimension 3")
        angles = np.linspace(0.0, 2.0 * math.pi, CYLINDER_ANGLES, endpoint=False)
        heights = np.linspace(-window, window, CYLINDER_HEIGHTS)
        rows = []
        params = []
        for z in heights:
            for t in angles:
                rows.append([
                    float(spec.semi_axes[0]) * math.cos(t),
                    float(spec.semi_axes[1]) * math.sin(t),
                    z,
                ])
                params.append(t)
        return (
            np.array(rows),
            np.array(params),
            f"cylinder boundary, {CYLINDER_ANGLES} angles x {CYLINDER_HEIGHTS} heights",
        )
    raise ValueError(f"unknown domain kind {spec.kind!r}")


@dataclass(frozen=True)
class BoundaryResidualReport:
    """Sampled max |f - h| on the domain boundary (float evaluation only)."""

    description: str
    max_residual: float
    samples: int
    truncation: int


@dataclass(frozen=True)
class DirichletSolution:
    domain: DomainSpec
    problem: FischerProblem
    decomposition: EntireDecomposition
    residual_report: BoundaryResidualReport

    @property
    def harmonic_extension(self) -> EntireSeries:
        return self.decomposition.remainder

    @property
    def quotient(self) -> EntireSeries:
        return self.decomposition.quotient

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json_dict(),
            "harmonic_extension": self.harmonic_extension.to_json_dict(),
            "quotient": self.quotient.to_json_dict(),
            "certificate": self.decomposition.to_json_dict()["certificate"],
            "boundary_residual": {
                "description": self.residual_report.description,
                "max_residual": self.residual_report.max_residual,
                "samples": self.residual_report.samples,
                "truncation": self.residual_report.truncation,
            },
            "warnings": list(self.decomposition.warnings),
        }


def boundary_series(spec: DomainSpec, data, truncation: Optional[int] = None) -> EntireSeries:
    """Boundary data as a series at the requested truncation, checked against the domain.

    Raises ValueError, before any decomposition work, for a truncation below
    the data's, data of another dimension, or complex coefficients (the
    boundary residual is evaluated in real floats).
    """
    if isinstance(data, EntireSeries):
        series = data
        if truncation is not None and truncation != data.truncation:
            if truncation < data.truncation:
                raise ValueError("cannot shrink a series truncation")
            series = EntireSeries.from_parts(
                data.dimension, truncation,
                {m: p for m, p in enumerate(data.parts) if not p.is_zero},
                data.generator,
            )
    elif isinstance(data, Polynomial):
        series = EntireSeries.from_polynomial(data, truncation)
    else:
        raise TypeError("data must be a Polynomial or an EntireSeries")
    if series.dimension != spec.dimension:
        raise ValueError("data dimension does not match the domain")
    if not all(coeff.is_real for part in series.parts for coeff in part.terms.values()):
        raise ValueError("boundary data must have real coefficients")
    return series


def boundary_residual(
    spec: DomainSpec,
    data_poly: Polynomial,
    harmonic_poly: Polynomial,
    truncation: int,
    window: float = BOUNDARY_WINDOW,
) -> BoundaryResidualReport:
    points, _, description = boundary_points(spec, window)
    worst = 0.0
    for row in points:
        value = abs(data_poly.evaluate_float(row) - harmonic_poly.evaluate_float(row))
        if value > worst:
            worst = value
    return BoundaryResidualReport(description, worst, len(points), truncation)


def solve(
    spec: DomainSpec,
    data,
    truncation: Optional[int] = None,
    window: float = BOUNDARY_WINDOW,
) -> DirichletSolution:
    """Harmonic extension of boundary data by exact series decomposition."""
    problem = to_fischer_problem(spec)
    series = boundary_series(spec, data, truncation)
    decomposition = decompose_entire(problem, series)
    report = boundary_residual(
        spec,
        series.to_polynomial(),
        decomposition.remainder.to_polynomial(),
        series.truncation,
        window,
    )
    return DirichletSolution(spec, problem, decomposition, report)


def boundary_samples_csv(solution: DirichletSolution, path: str, window: float = BOUNDARY_WINDOW) -> None:
    """CSV of (parameter, f value, h value, |f - h|) over boundary samples."""
    points, params, _ = boundary_points(solution.domain, window)
    data_poly = solution.decomposition.data.to_polynomial()
    harmonic_poly = solution.harmonic_extension.to_polynomial()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "f", "h", "residual"])
        for row, parameter in zip(points, params):
            f_value = data_poly.evaluate_float(row)
            h_value = harmonic_poly.evaluate_float(row)
            writer.writerow([repr(float(parameter)), repr(f_value), repr(h_value),
                             repr(abs(f_value - h_value))])


# ---------------------------------------------------------------------------
# The strip witness: one data series, two certified decompositions.
#
# The data is harmonic degree by degree, so (q, h) = (0, f) is a decomposition
# whose certificate holds as a full polynomial identity.  A second, genuinely
# different decomposition takes h = 0 and q = f / (x1^2 - a^2) computed by
# exact formal division (the constant term of P is invertible); its identity
# f = P*q holds exactly at every degree up to the truncation, which is all a
# finite section can assert.  No polynomial pair can differ with full-degree
# certificates: the leading term x1^2 is nonnegative, so the pair with the
# Laplacian decomposes polynomials uniquely, and loss of uniqueness is purely
# a phenomenon of the infinite expansion.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessDecomposition:
    label: str
    quotient: EntireSeries
    remainder: EntireSeries
    graded_residual_ok: bool       # (f - P q - h)_m = 0 for all m <= N, exactly
    full_residual: Polynomial      # f - P q - h as polynomials (tail may survive)
    harmonicity_ok: bool           # Lap h = 0 exactly


@dataclass(frozen=True)
class NonUniquenessWitness:
    data: EntireSeries
    first: WitnessDecomposition
    second: WitnessDecomposition
    decompositions_differ: bool
    pipeline_matches_first: bool

    @property
    def both_certified(self) -> bool:
        return (
            self.first.graded_residual_ok and self.first.harmonicity_ok
            and self.second.graded_residual_ok and self.second.harmonicity_ok
        )


def _graded_residual(problem: FischerProblem, data: EntireSeries,
                     quotient: EntireSeries, remainder: EntireSeries) -> Tuple[bool, Polynomial]:
    residual = (
        data.to_polynomial()
        - problem.assembled() * quotient.to_polynomial()
        - remainder.to_polynomial()
    )
    graded_ok = all(
        residual.part(m).is_zero for m in range(data.truncation + 1)
    )
    return graded_ok, residual


def nonuniqueness_witness(
    parameter=Fraction(1),
    truncation: int = 16,
    scale: Fraction = Fraction(355, 113),
) -> NonUniquenessWitness:
    """Two certified decompositions of one harmonic series on the strip."""
    spec = DomainSpec.strip(parameter)
    problem = to_fischer_problem(spec)
    data = strip_harmonic_series(truncation, scale)

    zero_series = EntireSeries.from_parts(2, truncation, {})

    # First: q = 0, h = f.  Harmonicity of every graded part is checked exactly.
    lap = laplacian_power(data.to_polynomial(), 1)
    first_ok, first_residual = _graded_residual(problem, data, zero_series, data)
    first = WitnessDecomposition("zero-quotient", zero_series, data, first_ok,
                                 first_residual, lap.is_zero)

    # Second: h = 0, q = f / P by exact formal division.
    division_quotient = formal_quotient_constant_term(problem, data)
    second_ok, second_residual = _graded_residual(problem, data, division_quotient, zero_series)
    second = WitnessDecomposition("formal-division", division_quotient, zero_series,
                                  second_ok, second_residual, True)

    pipeline = decompose_entire(problem, data, estimate_order=False)
    pipeline_matches_first = (
        pipeline.quotient.to_polynomial().is_zero
        and pipeline.remainder.to_polynomial() == data.to_polynomial()
    )

    differ = (
        first.quotient.to_polynomial() != second.quotient.to_polynomial()
        or first.remainder.to_polynomial() != second.remainder.to_polynomial()
    )
    return NonUniquenessWitness(data, first, second, differ, pipeline_matches_first)


def witness_to_json_dict(witness: NonUniquenessWitness) -> dict:
    def encode(part: WitnessDecomposition) -> dict:
        return {
            "label": part.label,
            "quotient": part.quotient.to_json_dict(),
            "remainder": part.remainder.to_json_dict(),
            "graded_residual_ok": part.graded_residual_ok,
            "harmonicity_ok": part.harmonicity_ok,
            "overflow_residual": polynomial_to_json_dict(part.full_residual),
        }

    return {
        "data": witness.data.to_json_dict(),
        "first": encode(witness.first),
        "second": encode(witness.second),
        "decompositions_differ": witness.decompositions_differ,
        "pipeline_matches_first": witness.pipeline_matches_first,
        "both_certified": witness.both_certified,
    }
