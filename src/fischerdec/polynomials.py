"""Exact sparse multivariate polynomial algebra, graded by degree.

Monomials are exponent tuples (one entry per variable); a homogeneous
polynomial stores a dict mapping exponent tuples of a fixed total degree to
coefficients in the form ``rationals.exact`` gives (a ``Fraction`` unless
complex), with zero coefficients never stored.  A general polynomial is a
dict of homogeneous parts keyed by degree, so the graded structure that
every algorithm here relies on is the representation itself.

Differential operators act exactly: for a polynomial Q, ``apply_operator``
realises Q(D) by replacing each variable with the matching partial
derivative.  No conjugation ever happens implicitly; callers that need the
adjoint pass ``conjugate(Q)`` themselves.

Float evaluation has one path, ``evaluate_on_points``, vectorised over an
array of real points.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .rationals import RationalComplex, Scalar, exact, format_fraction, parse_fraction

# Exponent tuple: entry i is the degree of variable x_i.
MultiIndex = Tuple[int, ...]

CoefficientLike = object  # int | Scalar


def multi_index_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def multi_index_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _validate_multi_index(alpha: MultiIndex, dimension: int) -> None:
    if len(alpha) != dimension:
        raise ValueError(f"exponent tuple {alpha} does not have length {dimension}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")


class HomogeneousPolynomial:
    """A homogeneous polynomial of fixed degree with sparse exact coefficients."""

    __slots__ = ("dimension", "degree", "terms")

    def __init__(self, dimension: int, degree: int, terms: Mapping[MultiIndex, CoefficientLike]):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: Dict[MultiIndex, Scalar] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(alpha)
            _validate_multi_index(alpha, dimension)
            if multi_index_degree(alpha) != degree:
                raise ValueError(f"monomial {alpha} is not of degree {degree}")
            value = exact(coeff)
            if value:
                clean[alpha] = value
        self.dimension = dimension
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, dimension: int, degree: int = 0) -> "HomogeneousPolynomial":
        return cls(dimension, degree, {})

    @classmethod
    def monomial(cls, dimension: int, alpha: MultiIndex, coeff=1) -> "HomogeneousPolynomial":
        alpha = tuple(alpha)
        return cls(dimension, multi_index_degree(alpha), {alpha: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "HomogeneousPolynomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._check_compatible(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous parts of different degrees")
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            out[alpha] = out.get(alpha, 0) + coeff
        return HomogeneousPolynomial(self.dimension, self.degree, out)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def __neg__(self) -> "HomogeneousPolynomial":
        return self.scaled(-1)

    def scaled(self, factor) -> "HomogeneousPolynomial":
        factor = exact(factor)
        if not factor:
            return HomogeneousPolynomial.zero(self.dimension, self.degree)
        return HomogeneousPolynomial(
            self.dimension, self.degree,
            {alpha: coeff * factor for alpha, coeff in self.terms.items()},
        )

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return HomogeneousPolynomial.zero(self.dimension, self.degree + other.degree)
        out: Dict[MultiIndex, Scalar] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a, b))
                prod = ca * cb
                if alpha in out:
                    out[alpha] = out[alpha] + prod
                else:
                    out[alpha] = prod
        return HomogeneousPolynomial(self.dimension, self.degree + other.degree, out)

    def conjugate(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(
            self.dimension, self.degree,
            {alpha: coeff.conjugate() for alpha, coeff in self.terms.items()},
        )

    def differentiate(self, gamma: MultiIndex) -> "HomogeneousPolynomial":
        """Apply the monomial operator d^gamma exactly."""
        _validate_multi_index(tuple(gamma), self.dimension)
        drop = multi_index_degree(gamma)
        new_degree = max(self.degree - drop, 0)
        out: Dict[MultiIndex, Scalar] = {}
        for alpha, coeff in self.terms.items():
            if any(a < g for a, g in zip(alpha, gamma)):
                continue
            factor = 1
            for a, g in zip(alpha, gamma):
                for step in range(g):
                    factor *= a - step
            beta = tuple(a - g for a, g in zip(alpha, gamma))
            value = coeff * factor
            if beta in out:
                out[beta] = out[beta] + value
            else:
                out[beta] = value
        return HomogeneousPolynomial(self.dimension, new_degree, out)

    def laplacian(self) -> "HomogeneousPolynomial":
        out: Dict[MultiIndex, Scalar] = {}
        for alpha, coeff in self.terms.items():
            for i, a in enumerate(alpha):
                if a >= 2:
                    beta = alpha[:i] + (a - 2,) + alpha[i + 1:]
                    value = coeff * (a * (a - 1))
                    if beta in out:
                        out[beta] = out[beta] + value
                    else:
                        out[beta] = value
        return HomogeneousPolynomial(self.dimension, max(self.degree - 2, 0), out)

    def evaluate(self, point: Iterable) -> Scalar:
        """Exact evaluation at a rational (or rational-complex) point."""
        values = [exact(v) for v in point]
        total = Fraction(0)
        for alpha, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, alpha):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def key(self) -> tuple:
        """Canonical hashable form (used for memo tables and equality)."""
        return (self.dimension, self.degree, tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return self.dimension == other.dimension
        return (self.dimension == other.dimension
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key())

    def to_polynomial(self) -> "Polynomial":
        return Polynomial(self.dimension, {self.degree: self} if not self.is_zero else {})

    def __repr__(self):
        return f"HomogeneousPolynomial(d={self.dimension}, m={self.degree}, {len(self.terms)} terms)"


class Polynomial:
    """A polynomial stored as its graded homogeneous parts."""

    __slots__ = ("dimension", "parts")

    def __init__(self, dimension: int, parts: Mapping[int, HomogeneousPolynomial] | None = None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        clean: Dict[int, HomogeneousPolynomial] = {}
        for degree, part in (parts or {}).items():
            if part.dimension != dimension:
                raise ValueError("dimension mismatch in graded part")
            if part.degree != degree:
                raise ValueError(f"part of degree {part.degree} stored under key {degree}")
            if not part.is_zero:
                clean[degree] = part
        self.dimension = dimension
        self.parts = clean

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def from_terms(cls, dimension: int, terms: Mapping[MultiIndex, CoefficientLike]) -> "Polynomial":
        buckets: Dict[int, Dict[MultiIndex, CoefficientLike]] = {}
        for alpha, coeff in terms.items():
            alpha = tuple(alpha)
            buckets.setdefault(multi_index_degree(alpha), {})[alpha] = coeff
        parts = {
            degree: HomogeneousPolynomial(dimension, degree, bucket)
            for degree, bucket in buckets.items()
        }
        return cls(dimension, parts)

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls.from_terms(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        alpha = [0] * dimension
        alpha[index] = 1
        return cls.from_terms(dimension, {tuple(alpha): 1})

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def degree(self) -> int | None:
        return max(self.parts) if self.parts else None

    def graded_parts(self) -> Dict[int, HomogeneousPolynomial]:
        """The map degree -> homogeneous part (nonzero parts only)."""
        return dict(self.parts)

    def part(self, degree: int) -> HomogeneousPolynomial:
        return self.parts.get(degree, HomogeneousPolynomial.zero(self.dimension, degree))

    def terms(self) -> Dict[MultiIndex, Scalar]:
        flat: Dict[MultiIndex, Scalar] = {}
        for part in self.parts.values():
            flat.update(part.terms)
        return flat

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.parts)
        for degree, part in other.parts.items():
            if degree in out:
                combined = out[degree] + part
                if combined.is_zero:
                    del out[degree]
                else:
                    out[degree] = combined
            else:
                out[degree] = part
        return Polynomial(self.dimension, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dimension, {d: -p for d, p in self.parts.items()})

    def scaled(self, factor) -> "Polynomial":
        factor = exact(factor)
        if not factor:
            return Polynomial.zero(self.dimension)
        return Polynomial(self.dimension, {d: p.scaled(factor) for d, p in self.parts.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        buckets: Dict[int, HomogeneousPolynomial] = {}
        for da, pa in self.parts.items():
            for db, pb in other.parts.items():
                prod = pa * pb
                if prod.is_zero:
                    continue
                degree = da + db
                buckets[degree] = buckets.get(degree, HomogeneousPolynomial.zero(self.dimension, degree)) + prod
        return Polynomial(self.dimension, {d: p for d, p in buckets.items() if not p.is_zero})

    def conjugate(self) -> "Polynomial":
        return Polynomial(self.dimension, {d: p.conjugate() for d, p in self.parts.items()})

    def evaluate(self, point: Iterable) -> Scalar:
        total = Fraction(0)
        for part in self.parts.values():
            total = total + part.evaluate(point)
        return total

    def key(self) -> tuple:
        return (self.dimension, tuple(self.parts[d].key() for d in sorted(self.parts)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.parts == other.parts

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        degrees = sorted(self.parts)
        return f"Polynomial(d={self.dimension}, degrees={degrees})"


def monomials_of_degree(dimension: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of the given total degree, lexicographically sorted."""
    if dimension == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(dimension - 1, degree - first):
            out.append((first,) + rest)
    return out


def squared_norm_polynomial(dimension: int) -> Polynomial:
    """|x|^2 = x_1^2 + ... + x_d^2."""
    terms = {}
    for i in range(dimension):
        alpha = [0] * dimension
        alpha[i] = 2
        terms[tuple(alpha)] = 1
    return Polynomial.from_terms(dimension, terms)


def graded_parts(poly: Polynomial) -> Dict[int, HomogeneousPolynomial]:
    return poly.graded_parts()


def apply_operator(operator: Polynomial, target: Polynomial) -> Polynomial:
    """Apply Q(D) to a polynomial: each variable of Q becomes a derivative.

    The operator's coefficients are used as given; pass ``operator.conjugate()``
    when the adjoint convention calls for Q*(D).
    """
    if operator.dimension != target.dimension:
        raise ValueError("dimension mismatch")
    result = Polynomial.zero(target.dimension)
    for gamma, coeff in operator.terms().items():
        buckets: Dict[int, HomogeneousPolynomial] = {}
        for part in target.parts.values():
            derived = part.differentiate(gamma).scaled(coeff)
            if not derived.is_zero:
                d = derived.degree
                buckets[d] = buckets.get(d, HomogeneousPolynomial.zero(target.dimension, d)) + derived
        result = result + Polynomial(target.dimension, {d: p for d, p in buckets.items() if not p.is_zero})
    return result


def laplacian(poly: Polynomial) -> Polynomial:
    buckets: Dict[int, HomogeneousPolynomial] = {}
    for part in poly.parts.values():
        lap = part.laplacian()
        if not lap.is_zero:
            d = lap.degree
            buckets[d] = buckets.get(d, HomogeneousPolynomial.zero(poly.dimension, d)) + lap
    return Polynomial(poly.dimension, {d: p for d, p in buckets.items() if not p.is_zero})


def laplacian_power(poly: Polynomial, power: int) -> Polynomial:
    if power < 1:
        raise ValueError("power must be at least 1")
    out = poly
    for _ in range(power):
        out = laplacian(out)
    return out


def fischer_inner_product(left: Polynomial, right: Polynomial) -> Scalar:
    """[P, Q]_F = sum over monomials of alpha! * c_alpha * conj(d_alpha)."""
    if left.dimension != right.dimension:
        raise ValueError("dimension mismatch")
    left_terms = left.terms()
    right_terms = right.terms()
    if len(right_terms) < len(left_terms):
        small, large, conj_small = right_terms, left_terms, True
    else:
        small, large, conj_small = left_terms, right_terms, False
    total = Fraction(0)
    for alpha, coeff in small.items():
        other = large.get(alpha)
        if other is None:
            continue
        if conj_small:
            prod = other * coeff.conjugate()
        else:
            prod = coeff * other.conjugate()
        total = total + prod * multi_index_factorial(alpha)
    return total


def evaluate_on_points(poly: Polynomial, points: np.ndarray) -> np.ndarray:
    """Float values of poly at each row of an (n, d) array of real points.

    The result has float dtype unless a coefficient has a nonzero imaginary
    part; only then is it complex.
    """
    terms = poly.terms()
    dtype = complex if any(coeff.imag for coeff in terms.values()) else float
    total = np.zeros(len(points), dtype=dtype)
    for alpha, coeff in terms.items():
        mono = np.ones(len(points))
        for axis, exponent in enumerate(alpha):
            if exponent:
                mono = mono * points[:, axis] ** exponent
        total = total + dtype(coeff) * mono
    return total


# ---------------------------------------------------------------------------
# JSON serialisation
#
# { "dimension": d, "terms": [ {"exponents": [...], "re": "p/q", "im": "p/q"} ] }
# Terms are emitted in graded-lexicographic order so output is reproducible.
# ---------------------------------------------------------------------------

def polynomial_to_json_dict(poly: Polynomial) -> dict:
    rows = []
    terms = poly.terms()
    for alpha in sorted(terms, key=lambda a: (multi_index_degree(a), a)):
        coeff = terms[alpha]
        rows.append({
            "exponents": list(alpha),
            "re": format_fraction(coeff.real),
            "im": format_fraction(coeff.imag),
        })
    return {"dimension": poly.dimension, "terms": rows}


def polynomial_from_json_dict(data: Mapping) -> Polynomial:
    dimension = int(data["dimension"])
    terms: Dict[MultiIndex, Scalar] = {}
    for row in data.get("terms", []):
        alpha = tuple(int(e) for e in row["exponents"])
        coeff = RationalComplex(parse_fraction(row.get("re", "0")), parse_fraction(row.get("im", "0")))
        if alpha in terms:
            raise ValueError(f"duplicate monomial {alpha} in polynomial JSON")
        terms[alpha] = coeff
    return Polynomial.from_terms(dimension, terms)


def polynomial_to_json(poly: Polynomial) -> str:
    return json.dumps(polynomial_to_json_dict(poly), sort_keys=True, separators=(",", ":"))


def polynomial_from_json(text: str) -> Polynomial:
    return polynomial_from_json_dict(json.loads(text))
