"""The sparse exact LU against a dense Gaussian-elimination reference."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fischerdec.exactla import SingularMatrixError, lu_factor, solve_linear
from fischerdec.rationals import RationalComplex, exact


def dense_reference(matrix, rhs):
    """Dense elimination on the augmented matrix, first nonzero pivot at or below."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"exact rank deficiency at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            if aug[r][col]:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    solution = [None] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n]
        for c in range(row + 1, n):
            acc = acc - aug[row][c] * solution[c]
        solution[row] = acc / aug[row][row]
    return solution


def outcome(solve, matrix, rhs):
    """The solution with each entry's type, or the singular verdict's text."""
    try:
        solution = solve(matrix, rhs)
    except SingularMatrixError as exc:
        return ("singular", str(exc))
    return [(type(x), x) for x in solution]


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
complexes = st.builds(lambda re, im: exact(RationalComplex(re, im)), fractions, fractions)


def entries(density, scalars):
    """Zero (the int 0, as graded systems store it) with probability 1 - density."""
    return st.floats(0, 1).flatmap(
        lambda u: scalars if u < density else st.just(0))


@st.composite
def systems(draw, scalars=fractions, n_max=6):
    n = draw(st.integers(0, n_max))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    matrix = [[draw(entries(density, scalars)) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entries(0.7, scalars)) for _ in range(n)]
    return matrix, rhs


@st.composite
def swapped_systems(draw, scalars=fractions, n_max=6):
    """Nonsingular rows of L U in shuffled order, so leading zeros force swaps."""
    n = draw(st.integers(2, n_max))
    lower = [[draw(entries(0.3, scalars)) if c < r else int(c == r) for c in range(n)]
             for r in range(n)]
    upper = [[draw(scalars.filter(bool)) if c == r else draw(entries(0.5, scalars))
              if c > r else 0 for c in range(n)] for r in range(n)]
    product = [[sum((lower[r][i] * upper[i][c] for i in range(n)), Fraction(0))
                for c in range(n)] for r in range(n)]
    order = draw(st.permutations(range(n)))
    rhs = [draw(scalars) for _ in range(n)]
    return [product[r] for r in order], rhs


@st.composite
def singular_systems(draw, scalars=fractions, n_max=6):
    """A square matrix whose last row repeats a multiple of another row."""
    matrix, rhs = draw(systems(scalars, n_max).filter(lambda s: len(s[0]) >= 2))
    source = draw(st.integers(0, len(matrix) - 2))
    scale = draw(scalars)
    matrix[-1] = [scale * entry for entry in matrix[source]]
    order = draw(st.permutations(range(len(matrix))))
    return [matrix[r] for r in order], rhs


@settings(max_examples=150, deadline=None)
@given(st.one_of(systems(), systems(complexes), swapped_systems(), swapped_systems(complexes)))
def test_solve_matches_dense_reference_in_value_and_type(system):
    matrix, rhs = system
    snapshot = copy.deepcopy(matrix)
    assert outcome(solve_linear, matrix, rhs) == outcome(dense_reference, matrix, rhs)
    assert matrix == snapshot


@settings(max_examples=60, deadline=None)
@given(st.one_of(singular_systems(), singular_systems(complexes)))
def test_singular_matrix_fails_at_the_dense_reference_column(system):
    matrix, rhs = system
    expected = outcome(dense_reference, matrix, rhs)
    assert expected[0] == "singular"
    with pytest.raises(SingularMatrixError) as caught:
        lu_factor(matrix)
    assert str(caught.value) == expected[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(swapped_systems(), swapped_systems(complexes)),
       st.lists(st.lists(st.one_of(st.just(0), fractions, complexes), min_size=6, max_size=6),
                min_size=1, max_size=5))
def test_one_factorization_serves_many_right_hand_sides(system, right_hand_sides):
    matrix, _ = system
    factors = lu_factor(matrix)
    snapshot = copy.deepcopy(factors)
    for rhs in right_hand_sides:
        rhs = rhs[:len(matrix)]
        reused = outcome(lambda a, b: solve_linear(a, b, factors), matrix, rhs)
        assert reused == outcome(solve_linear, matrix, rhs)
        assert reused == outcome(dense_reference, matrix, rhs)
    assert factors == snapshot


def test_leading_zero_swaps_rows():
    matrix = [[0, Fraction(1), Fraction(2)],
              [Fraction(1), Fraction(1), 0],
              [Fraction(2), Fraction(2), Fraction(1)]]
    factors = lu_factor(matrix)
    # Column 0 swaps in row 1; eliminating it zeroes the new row 2's column 1,
    # so column 1 keeps row 1 (the old row 0) and column 2 has nothing to swap.
    assert factors.pivots == (1, 1, 2)
    rhs = [Fraction(3), Fraction(2), Fraction(5)]
    assert solve_linear(matrix, rhs, factors) == dense_reference(matrix, rhs) == [1, 1, 1]


def test_shape_is_checked():
    with pytest.raises(ValueError):
        lu_factor([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError):
        solve_linear([[Fraction(1)]], [Fraction(1), Fraction(2)])
    assert solve_linear([], []) == []
