"""Exact linear algebra over ``rationals.exact`` coefficients (real or complex).

Square systems are solved through one sparse LU: ``lu_factor`` eliminates
once and records the row swaps, the multipliers and the sparse rows of U,
and ``solve_linear`` replays them on each right-hand side, so a matrix
solved many times is factored once.  Pivoting is by exact nonzero test:
singularity is a certain verdict, never a tolerance call.  Matrices are
lists of lists; sizes here are desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, TypeVar

Scalar = TypeVar("Scalar")


class SingularMatrixError(ValueError):
    """The linear system has no unique solution (exact rank deficiency)."""


class LUFactors(NamedTuple):
    """P A = L U for a square A, kept sparse and immutable.

    Elimination step ``col`` swaps rows ``col`` and ``pivots[col]``, then
    subtracts ``multiplier`` times row ``col`` from each ``(row, multiplier)``
    in ``lower[col]``.  ``upper[row]`` is U's pivot on that row and its
    nonzero ``(col, entry)`` pairs to the right of the diagonal.
    """

    pivots: Tuple[int, ...]
    lower: Tuple[Tuple[Tuple[int, Scalar], ...], ...]
    upper: Tuple[Tuple[Scalar, Tuple[Tuple[int, Scalar], ...]], ...]


def lu_factor(matrix: Sequence[Sequence[Scalar]]) -> LUFactors:
    """Factor a square matrix by sparse Gaussian elimination.

    Each pivot is the first row at or below the column with a nonzero entry
    there; raises SingularMatrixError at the first column that has none.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("lu_factor expects a square matrix")
    rows = [{c: entry for c, entry in enumerate(row) if entry} for row in matrix]
    pivots, lower = [], []
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in rows[r]), None)
        if pivot is None:
            raise SingularMatrixError(f"exact rank deficiency at column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pivot_row = rows[col]
        inv = pivot_row[col]
        step = []
        for r in range(col + 1, n):
            row = rows[r]
            lead = row.pop(col, None)
            if lead is None:
                continue
            factor = lead / inv
            step.append((r, factor))
            for c, entry in pivot_row.items():
                if c != col:
                    value = row.get(c, 0) - factor * entry
                    if value:
                        row[c] = value
                    else:
                        row.pop(c, None)
        pivots.append(pivot)
        lower.append(tuple(step))
    upper = tuple(
        (row[i], tuple((c, entry) for c, entry in row.items() if c != i))
        for i, row in enumerate(rows)
    )
    return LUFactors(tuple(pivots), tuple(lower), upper)


def solve_linear(
    matrix: Sequence[Sequence[Scalar]],
    rhs: Sequence[Scalar],
    factors: Optional[LUFactors] = None,
) -> List[Scalar]:
    """Solve A x = b exactly, replaying ``factors`` of A (factored here if None)."""
    if factors is None:
        factors = lu_factor(matrix)
    n = len(factors.pivots)
    if len(rhs) != n:
        raise ValueError("solve_linear expects one right-hand side entry per row")
    b = list(rhs)
    for col, (pivot, step) in enumerate(zip(factors.pivots, factors.lower)):
        b[col], b[pivot] = b[pivot], b[col]
        lead = b[col]
        if lead:
            for r, factor in step:
                b[r] = b[r] - factor * lead
    solution = [None] * n
    for row in range(n - 1, -1, -1):
        diagonal, entries = factors.upper[row]
        acc = b[row]
        for c, entry in entries:
            acc = acc - entry * solution[c]
        solution[row] = acc / diagonal
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
