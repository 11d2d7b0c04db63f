"""Exact dense linear algebra over ``rationals.exact`` coefficients (real or complex).

Pivoting is by exact nonzero test: singularity is a certain verdict, never a
tolerance call.  Matrices are lists of lists; sizes here are desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, TypeVar

Scalar = TypeVar("Scalar")


class SingularMatrixError(ValueError):
    """The linear system has no unique solution (exact rank deficiency)."""


def solve_linear(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> List[Scalar]:
    """Solve A x = b exactly by Gaussian elimination with nonzero pivoting."""
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]

    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"exact rank deficiency at column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        for r in range(col + 1, n):
            if aug[r][col]:
                factor = aug[r][col] / inv
                row_r, row_c = aug[r], aug[col]
                for c in range(col, n + 1):
                    row_r[c] = row_r[c] - factor * row_c[c]

    solution = [None] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for c in range(row + 1, n):
            acc = acc - aug[row][c] * solution[c]
        solution[row] = acc / aug[row][row]
    return solution


def ldl_decompose(matrix: Sequence[Sequence[Fraction]]) -> tuple[List[List[Fraction]], List[Fraction]]:
    """Exact LDL^T factorisation of a symmetric positive-definite matrix.

    Returns (L, D) with unit lower-triangular L and positive diagonal D;
    raises SingularMatrixError when a pivot fails to be strictly positive,
    which is an exact certificate that the input is not positive definite.
    """
    n = len(matrix)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag: List[Fraction] = [Fraction(0)] * n
    for j in range(n):
        acc = Fraction(matrix[j][j])
        for k in range(j):
            acc -= lower[j][k] * lower[j][k] * diag[k]
        if acc <= 0:
            raise SingularMatrixError(f"pivot {j} is {acc}; matrix not positive definite")
        diag[j] = acc
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            acc = Fraction(matrix[i][j])
            for k in range(j):
                acc -= lower[i][k] * lower[j][k] * diag[k]
            lower[i][j] = acc / diag[j]
    return lower, diag


def forward_substitute(lower: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve L y = b for unit lower-triangular L."""
    n = len(lower)
    out: List[Fraction] = [Fraction(0)] * n
    for i in range(n):
        acc = Fraction(rhs[i])
        for k in range(i):
            acc -= lower[i][k] * out[k]
        out[i] = acc
    return out


def congruence_reduce(
    form: Sequence[Sequence[Fraction]],
    lower: Sequence[Sequence[Fraction]],
) -> List[List[Fraction]]:
    """Return M = L^{-1} A L^{-T} exactly (A symmetric, L unit lower-triangular)."""
    n = len(form)
    # columns of Y = L^{-1} A
    y_cols = [forward_substitute(lower, [form[i][j] for i in range(n)]) for j in range(n)]
    # rows of M = Y L^{-T}: M[i] solves L m = y_row_i
    reduced = []
    for i in range(n):
        reduced.append(forward_substitute(lower, [y_cols[j][i] for j in range(n)]))
    return reduced
