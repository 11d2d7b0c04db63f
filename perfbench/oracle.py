"""Exact result oracle in plain ``Fraction`` dict arithmetic.

A polynomial here is a dict mapping exponent tuples to nonzero ``Fraction``
coefficients.  Nothing in this module imports ``fischerdec``: results are
decoded from the package's documented JSON format and checked with this
file's own arithmetic, so a defect in the package's polynomial layer cannot
also hide in its check.  The package's ``certificate.residual`` field is
``data - P*q - (data - P*q)``, zero by construction, and is not used.
"""

from __future__ import annotations

import math
from fractions import Fraction


class OracleError(AssertionError):
    """A result failed an exact or reference check."""


# ---------------------------------------------------------------------------
# JSON codec for the package's polynomial format:
#   {"dimension": d, "terms": [{"exponents": [...], "re": "p/q", "im": "p/q"}]}
# ---------------------------------------------------------------------------

def encode(poly: dict, dimension: int) -> dict:
    """The polynomial JSON of ``poly`` in graded-lexicographic term order."""
    rows = [
        {"exponents": list(alpha), "re": str(coeff), "im": "0"}
        for alpha, coeff in sorted(poly.items(), key=lambda item: (sum(item[0]), item[0]))
    ]
    return {"dimension": dimension, "terms": rows}


def decode(data: dict) -> dict:
    """Real polynomial from its JSON; a nonzero imaginary part is an error."""
    dimension = int(data["dimension"])
    out: dict = {}
    for row in data.get("terms", []):
        alpha = tuple(int(e) for e in row["exponents"])
        if len(alpha) != dimension:
            raise OracleError(f"exponent tuple {alpha} is not of length {dimension}")
        if Fraction(row.get("im", "0")) != 0:
            raise OracleError(f"non-real coefficient at {alpha} for real input")
        value = Fraction(row.get("re", "0"))
        if alpha in out:
            raise OracleError(f"duplicate monomial {alpha}")
        if value:
            out[alpha] = value
    return out


def decode_series(data: dict) -> dict:
    """Sum of the parts of a series JSON, checking each part's degree."""
    total: dict = {}
    for degree, part in enumerate(data["parts"]):
        poly = decode(part)
        if any(sum(alpha) != degree for alpha in poly):
            raise OracleError(f"series part {degree} is not homogeneous of degree {degree}")
        total = add(total, poly)
    return total


def canonical(poly: dict) -> list:
    """Order-independent, JSON-ready form used for output digests."""
    return [[list(alpha), str(coeff)] for alpha, coeff in sorted(poly.items())]


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------

def add(left: dict, right: dict) -> dict:
    out = dict(left)
    for alpha, coeff in right.items():
        value = out.get(alpha, 0) + coeff
        if value:
            out[alpha] = value
        else:
            out.pop(alpha, None)
    return out


def scale(poly: dict, factor) -> dict:
    factor = Fraction(factor)
    if not factor:
        return {}
    return {alpha: coeff * factor for alpha, coeff in poly.items()}


def sub(left: dict, right: dict) -> dict:
    return add(left, scale(right, -1))


def mul(left: dict, right: dict) -> dict:
    out: dict = {}
    for a, ca in left.items():
        for b, cb in right.items():
            alpha = tuple(x + y for x, y in zip(a, b))
            out[alpha] = out.get(alpha, 0) + ca * cb
    return {alpha: c for alpha, c in out.items() if c}


def laplacian(poly: dict) -> dict:
    out: dict = {}
    for alpha, coeff in poly.items():
        for i, a in enumerate(alpha):
            if a >= 2:
                beta = alpha[:i] + (a - 2,) + alpha[i + 1:]
                out[beta] = out.get(beta, 0) + coeff * a * (a - 1)
    return {alpha: c for alpha, c in out.items() if c}


def laplacian_power(poly: dict, power: int) -> dict:
    for _ in range(power):
        poly = laplacian(poly)
    return poly


def radial_power(dimension: int, power: int) -> dict:
    """|x|^(2 * power)."""
    radial = {tuple(2 if j == i else 0 for j in range(dimension)): Fraction(1) for i in range(dimension)}
    out = {(0,) * dimension: Fraction(1)}
    for _ in range(power):
        out = mul(out, radial)
    return out


# ---------------------------------------------------------------------------
# Checks.  Each raises OracleError with the reason; callers count failures.
# ---------------------------------------------------------------------------

def check_decomposition(f: dict, p: dict, q: dict, h: dict, k: int) -> None:
    """f = P*q + h and Lap^k h = 0, exactly."""
    residual = sub(sub(f, mul(p, q)), h)
    if residual:
        raise OracleError(f"f - P*q - h has {len(residual)} nonzero terms")
    if laplacian_power(h, k):
        raise OracleError("Lap^k h is not zero")


def check_quotient(f: dict, p: dict, q: dict, k: int) -> None:
    """q is the Fischer quotient of f: Lap^k (f - P*q) = 0."""
    if laplacian_power(sub(f, mul(p, q)), k):
        raise OracleError("Lap^k (f - P*q) is not zero")


def check_gauss(f: dict, degree: int, dimension: int, harmonics: list) -> None:
    """f = sum_l h_l |x|^(deg f - deg h_l), each h_l harmonic and homogeneous."""
    total: dict = {}
    for h in harmonics:
        degrees = {sum(alpha) for alpha in h}
        if len(degrees) > 1:
            raise OracleError("Gauss component is not homogeneous")
        if not h:
            continue
        (d,) = degrees
        if d > degree or (degree - d) % 2:
            raise OracleError(f"Gauss component of degree {d} cannot pad to {degree}")
        if laplacian(h):
            raise OracleError(f"Gauss component of degree {d} is not harmonic")
        total = add(total, mul(h, radial_power(dimension, (degree - d) // 2)))
    if sub(total, f):
        raise OracleError("Gauss components do not reassemble f")


def x2sq_min_eigenvalue(degree: int) -> float:
    """Closed form sin^2(pi / (2m + 4)) of the x2^2 form's minimum on the circle.

    The x1^2 form has the same spectrum: a quarter turn swaps the two.
    """
    return math.sin(math.pi / (2 * degree + 4)) ** 2


def check_close(value: float, reference: float, tolerance: float, label: str) -> None:
    if not (isinstance(value, float) and math.isfinite(value)):
        raise OracleError(f"{label}: {value!r} is not a finite float")
    if abs(value - reference) > tolerance:
        raise OracleError(f"{label}: {value!r} differs from {reference!r} by more than {tolerance}")


def domain_polynomial(domain: dict) -> dict:
    """The defining polynomial P of a catalogued Dirichlet domain."""
    kind = domain["kind"]
    if kind in ("parabola", "strip"):
        a = Fraction(domain["a"])
        if kind == "parabola":
            return {(0, 2): Fraction(1), (1, 0): -a}
        return {(2, 0): Fraction(1), (0, 0): -a * a}
    axes = [Fraction(a) for a in domain["semi_axes"]]
    dimension = len(axes) if kind == "ellipsoid" else int(domain["dimension"])
    poly = {(0,) * dimension: Fraction(-1)}
    for i, axis in enumerate(axes):
        poly[tuple(2 if j == i else 0 for j in range(dimension))] = 1 / axis**2
    return poly
