"""Spectral lower bounds for multiplication operators on graded sphere spaces.

The center of the module is the quadratic form f -> <x2^2 f, f> on the space
of degree-m homogeneous polynomials restricted to the unit circle.  In the
orthonormal trigonometric basis the form is block tridiagonal; the cosine
block at even degree is (2 I - A_n)/4 where A_n is the n x n matrix with
zero diagonal and off-diagonal entries (sqrt2, 1, 1, ...).  Its
characteristic polynomial satisfies det(A_n - t I) = 2 T_n(-t/2) with T_n
the degree-n Chebyshev polynomial, which yields closed-form extreme
eigenvalues and hence closed-form minimal eigenvalues of the multiplication
form:

    even degree 2M:  sin^2(pi / (4M + 4))
    odd degree m:    sin^2(pi / (2m + 4))

Both exceed pi^2 / (4 (m+4)^2), the guaranteed lower bound that feeds the
series decomposition estimates.  A generic exact-Gram route (monomial basis,
exact rational LDL^T congruence, then a float symmetric eigensolve) serves as
the independent oracle and handles arbitrary leading terms and dimensions at
desk scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import exactla
from .fischer import BoundViolated
from .polynomials import HomogeneousPolynomial, monomials_of_degree
from .sphere import monomial_sphere_integral

DEFAULT_EXACT_GRAM_LIMIT = 64


class IllConditionedGram(ValueError):
    """The exact Gram matrix failed positive definiteness (should not happen)."""


# ---------------------------------------------------------------------------
# Characteristic polynomial of A_n and the Chebyshev identity.
# Coefficients are exact integers: sqrt2 only ever enters squared through the
# recurrence P_{n+1} = -t P_n - P_{n-1} with P_0 = 2, P_1 = -t.
# ---------------------------------------------------------------------------

def characteristic_polynomial_a(n: int) -> List[int]:
    """Coefficients (ascending powers of t) of det(A_n - t I)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    prev = [2]        # P_0
    current = [0, -1]  # P_1 = -t
    for _ in range(n - 1):
        shifted = [0] + current            # t * P_n
        bumped = [-c for c in shifted]      # -t * P_n
        width = max(len(bumped), len(prev))
        nxt = [
            (bumped[i] if i < len(bumped) else 0) - (prev[i] if i < len(prev) else 0)
            for i in range(width)
        ]
        prev, current = current, nxt
    return current


def chebyshev_polynomial(n: int) -> List[int]:
    """Coefficients (ascending powers) of the Chebyshev polynomial T_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = [1]
    if n == 0:
        return prev
    current = [0, 1]
    for _ in range(n - 1):
        doubled = [0] + [2 * c for c in current]
        width = max(len(doubled), len(prev))
        nxt = [
            (doubled[i] if i < len(doubled) else 0) - (prev[i] if i < len(prev) else 0)
            for i in range(width)
        ]
        prev, current = current, nxt
    return current


def chebyshev_identity_check(n: int) -> bool:
    """Exact integer-coefficient equality det(A_n - t I) = 2 T_n(-t/2)."""
    char = characteristic_polynomial_a(n)
    cheb = chebyshev_polynomial(n)
    # 2 T_n(-t/2): coefficient of t^j becomes 2 * c_j * (-1/2)^j.
    substituted = [2 * Fraction(c) * Fraction(-1, 2) ** j for j, c in enumerate(cheb)]
    width = max(len(char), len(substituted))
    for j in range(width):
        lhs = Fraction(char[j]) if j < len(char) else Fraction(0)
        rhs = substituted[j] if j < len(substituted) else Fraction(0)
        if lhs != rhs:
            return False
    return True


def tridiagonal_a(n: int) -> np.ndarray:
    """A_n as a dense float matrix (first off-diagonal entry sqrt 2, rest 1)."""
    matrix = np.zeros((n, n))
    for i in range(n - 1):
        value = math.sqrt(2.0) if i == 0 else 1.0
        matrix[i, i + 1] = matrix[i + 1, i] = value
    return matrix


def max_eigenvalue_a_closed(n: int) -> float:
    """Largest eigenvalue of A_n: -2 cos((2n - 1) pi / (2n))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return -2.0 * math.cos((2 * n - 1) * math.pi / (2 * n))


def max_eigenvalue_a_numeric(n: int) -> float:
    return float(np.linalg.eigvalsh(tridiagonal_a(n))[-1])


# ---------------------------------------------------------------------------
# The multiplication form for x2^2 on the circle, in the orthonormal basis.
# ---------------------------------------------------------------------------

def x2sq_form_blocks(degree: int) -> List[np.ndarray]:
    """Blocks of the quadratic form f -> <x2^2 f, f> on degree-m restrictions.

    Even degree 2M: frequencies 0, 2, ..., 2M; the cosine block couples the
    constant to the first harmonic with weight sqrt2, giving (2I - A_{M+1})/4,
    and the sine block is (2I - B_M)/4 with plain unit couplings.  Odd degree:
    frequencies 1, 3, ...; the reflection cos(-t) = cos t (sin(-t) = -sin t)
    perturbs the first diagonal entry by -1 (by +1).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    blocks: List[np.ndarray] = []
    if degree % 2 == 0:
        half = degree // 2
        cos_block = 0.5 * np.eye(half + 1) - 0.25 * tridiagonal_a(half + 1)
        blocks.append(cos_block)
        if half >= 1:
            sin_block = 0.5 * np.eye(half)
            for i in range(half - 1):
                sin_block[i, i + 1] = sin_block[i + 1, i] = -0.25
            blocks.append(sin_block)
    else:
        count = (degree + 1) // 2
        for corner in (+1.0, -1.0):
            block = 0.5 * np.eye(count)
            block[0, 0] -= 0.25 * corner
            for i in range(count - 1):
                block[i, i + 1] = block[i + 1, i] = -0.25
            blocks.append(block)
    return blocks


def x2sq_min_eigenvalue(degree: int) -> float:
    return min(float(np.linalg.eigvalsh(block)[0]) for block in x2sq_form_blocks(degree))


def x2sq_min_eigenvalue_closed(degree: int) -> float:
    """Closed-form minimal eigenvalue of the x2^2 form: sin^2(pi / (2m + 4)).

    At even degree 2M this is sin^2(pi/(4M+4)), read off the extreme root of
    the Chebyshev factorisation of A_{M+1}; the odd case comes from the
    corner-perturbed cosine block, whose extreme eigenvalue has the same
    closed form shifted by the reflection at frequency one.
    """
    return math.sin(math.pi / (2 * degree + 4)) ** 2


def spectral_lower_bound(degree: int) -> float:
    """The guaranteed constant pi^2 / (4 (m + 4)^2)."""
    return math.pi**2 / (4.0 * (degree + 4) ** 2)


def even_sharp_bound(half_degree: int) -> float:
    """The sharper even-degree constant pi^2 / (4 (2m + 3)^2) at degree 2m."""
    return math.pi**2 / (4.0 * (2 * half_degree + 3) ** 2)


@dataclass(frozen=True)
class SpectralReport:
    """Minimal form eigenvalue at one degree versus the guaranteed bound."""

    degree: int
    min_eigenvalue: float
    lower_bound: float
    margin: float
    closed_form: Optional[float] = None
    even_sharp_bound: Optional[float] = None


def verify_main_inequality(m_max: int, tolerance: float = 1e-12) -> List[SpectralReport]:
    """Reports for every degree m <= m_max; raises BoundViolated on failure."""
    reports = []
    for m in range(m_max + 1):
        min_eig = x2sq_min_eigenvalue(m)
        bound = spectral_lower_bound(m)
        margin = min_eig - bound
        closed = x2sq_min_eigenvalue_closed(m)
        sharp = even_sharp_bound(m // 2) if m % 2 == 0 else None
        if margin < -tolerance:
            raise BoundViolated(f"spectral bound failed at degree {m}: margin {margin}")
        if sharp is not None and min_eig - sharp < -tolerance:
            raise BoundViolated(f"even sharp bound failed at degree {m}")
        reports.append(SpectralReport(m, min_eig, bound, margin, closed, sharp))
    return reports


# ---------------------------------------------------------------------------
# Generic route: exact Gram and form matrices over the monomial basis, exact
# LDL^T congruence, then a float symmetric eigensolve of a matrix whose
# entries are already the orthonormal-basis form coefficients (norm <= sup of
# the multiplier on the sphere, so conversion to float is benign).
# ---------------------------------------------------------------------------

def gram_and_form_matrices(multiplier: HomogeneousPolynomial, degree: int, dimension: int):
    """Exact matrices B_ij = <b_i, b_j> and A_ij = <P b_i, b_j> over monomials."""
    basis = monomials_of_degree(dimension, degree)
    mult_terms = multiplier.terms
    if any(coeff.imag for coeff in mult_terms.values()):
        raise ValueError("the multiplier must have real coefficients")
    size = len(basis)
    gram = [[Fraction(0)] * size for _ in range(size)]
    form = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            paired = tuple(a + b for a, b in zip(basis[i], basis[j]))
            gram_value = monomial_sphere_integral(paired, dimension)
            gram[i][j] = gram[j][i] = gram_value
            acc = Fraction(0)
            for gamma, coeff in mult_terms.items():
                acc += coeff * monomial_sphere_integral(
                    tuple(p + g for p, g in zip(paired, gamma)), dimension
                )
            form[i][j] = form[j][i] = acc
    return form, gram


def min_quadratic_form_eigenvalue(
    multiplier: HomogeneousPolynomial, degree: int, dimension: int
) -> SpectralReport:
    """Minimal generalized eigenvalue of (<P b_i, b_j>, <b_i, b_j>), exactly reduced.

    The Gram matrix is factored as L D L^T over the rationals (an exact
    positive-definiteness certificate), the form is congruence-reduced with
    the same L, and only the final symmetric eigensolve runs in floats.
    """
    basis_size = len(monomials_of_degree(dimension, degree))
    if basis_size > DEFAULT_EXACT_GRAM_LIMIT:
        raise ValueError(
            f"basis size {basis_size} exceeds the exact reduction limit {DEFAULT_EXACT_GRAM_LIMIT}"
        )
    form, gram = gram_and_form_matrices(multiplier, degree, dimension)
    try:
        lower, diag = exactla.ldl_decompose(gram)
    except exactla.SingularMatrixError as exc:
        raise IllConditionedGram(str(exc)) from exc
    reduced = exactla.congruence_reduce(form, lower)
    size = len(reduced)
    scaled = np.empty((size, size))
    roots = [math.sqrt(float(d)) for d in diag]
    for i in range(size):
        for j in range(size):
            scaled[i, j] = float(reduced[i][j]) / (roots[i] * roots[j])
    scaled = 0.5 * (scaled + scaled.T)
    min_eig = float(np.linalg.eigvalsh(scaled)[0])
    bound = spectral_lower_bound(degree)
    closed = None
    x2sq = HomogeneousPolynomial.monomial(2, (0, 2), 1)
    if dimension == 2 and multiplier == x2sq:
        closed = x2sq_min_eigenvalue_closed(degree)
    sharp = even_sharp_bound(degree // 2) if (degree % 2 == 0 and closed is not None) else None
    return SpectralReport(degree, min_eig, bound, min_eig - bound, closed, sharp)


# ---------------------------------------------------------------------------
# The elementary sine bound sin(pi/n) >= pi/(n+2) used to move from the
# closed-form eigenvalues to the rational-in-m guaranteed constants.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SineBoundRecord:
    n_max: int
    ok: bool
    worst_margin: float
    worst_n: int


def sine_bound_check(n_max: int) -> SineBoundRecord:
    """Verify sin(pi/n) >= pi/(n+2) for all 2 <= n <= n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    worst_margin = math.inf
    worst_n = 2
    chunk = 1_000_000
    start = 2
    while start <= n_max:
        stop = min(start + chunk, n_max + 1)
        n = np.arange(start, stop, dtype=np.float64)
        margins = np.sin(np.pi / n) - np.pi / (n + 2)
        idx = int(np.argmin(margins))
        if margins[idx] < worst_margin:
            worst_margin = float(margins[idx])
            worst_n = int(n[idx])
        start = stop
    return SineBoundRecord(n_max, worst_margin >= 0.0, worst_margin, worst_n)


def reports_to_csv(reports: Sequence[SpectralReport], path: str) -> None:
    """CSV columns: m, min_eigenvalue, bound, margin, exact_closed_form."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "min_eigenvalue", "bound", "margin", "exact_closed_form"])
        for report in reports:
            writer.writerow([
                report.degree,
                repr(report.min_eigenvalue),
                repr(report.lower_bound),
                repr(report.margin),
                "" if report.closed_form is None else repr(report.closed_form),
            ])
