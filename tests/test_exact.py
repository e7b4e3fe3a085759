"""The elimination kernel and Smith normal form against independent oracles.

The oracle here is a plain Fraction-based Gauss-Jordan elimination written
for the tests only; the library kernel never shares code with it.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homnet import _kernel, exact


# -- independent oracle -------------------------------------------------------

def rref_oracle(matrix):
    """Reduced row echelon over Fractions; returns (rref, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def det_oracle(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def primitive_oracle(vec):
    """Coprime integer multiple of a nonzero rational vector with a positive
    leading entry."""
    ints = [int(v * math.lcm(*(w.denominator for w in vec))) for v in vec]
    g = math.gcd(*ints)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return [sign * (v // g) for v in ints]


def solve_oracle(matrix, rhs):
    """The solution with free variables zero (None when inconsistent) and the
    primitive nullspace basis by free column, read off the reduced echelon of
    [matrix | rhs]."""
    n = len(matrix[0])
    rref, pivots = rref_oracle([list(row) + [b] for row, b in zip(matrix, rhs)])
    x = None
    if pivots and pivots[-1] == n:
        pivots = pivots[:-1]
    else:
        x = [Fraction(0)] * n
        for k, p in enumerate(pivots):
            x[p] = rref[k][n]
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [Fraction(int(c == f)) for c in range(n)]
        for k, p in enumerate(pivots):
            vec[p] = -rref[k][f]
        basis.append(primitive_oracle(vec))
    return x, basis


def random_matrix(rng, max_dim=8, span=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]


# -- kernel vs oracle ---------------------------------------------------------

def test_rank_matches_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        mat = random_matrix(rng)
        _, pivots = rref_oracle(mat)
        assert exact.rank(mat) == len(pivots)


def test_solve_produces_solutions_and_detects_inconsistency():
    rng = random.Random(99)
    hits = misses = 0
    for _ in range(300):
        mat = random_matrix(rng)
        n = len(mat[0])
        x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        rhs = [sum(row[j] * x_true[j] for j in range(n)) for row in mat]
        x = exact.solve(mat, rhs)[0]
        assert x is not None
        assert all(
            sum(Fraction(row[j]) * x[j] for j in range(n)) == b
            for row, b in zip(mat, rhs)
        )
        hits += 1
        # perturb the rhs outside the column space when the matrix is rank
        # deficient in rows: detect by oracle solve failing
        rhs_bad = list(rhs)
        rhs_bad[rng.randrange(len(rhs_bad))] += 1
        x_bad = exact.solve(mat, rhs_bad)[0]
        if x_bad is None:
            misses += 1
        else:
            assert all(
                sum(Fraction(row[j]) * x_bad[j] for j in range(n)) == b
                for row, b in zip(mat, rhs_bad)
            )
    assert hits == 300 and misses > 0


def test_nullspace_members_and_dimension():
    rng = random.Random(123)
    for _ in range(200):
        mat = random_matrix(rng)
        n = len(mat[0])
        basis = exact.nullspace(mat)
        _, pivots = rref_oracle(mat)
        assert len(basis) == n - len(pivots)
        for vec in basis:
            assert any(vec)
            assert all(
                sum(row[j] * vec[j] for j in range(n)) == 0 for row in mat
            )
            # primitive: integer entries with gcd 1 and positive leading sign
            from math import gcd
            g = 0
            for v in vec:
                g = gcd(g, abs(v))
            assert g == 1
            assert next(v for v in vec if v) > 0


@st.composite
def linear_systems(draw):
    """(matrix, rhs) with integer or rational entries up to 2**62 in size,
    some rows zero or combinations of earlier rows, and a consistent or a
    random right-hand side."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ints = st.one_of(st.integers(-3, 3), st.integers(-(2**62), 2**62))
    if draw(st.booleans()):
        entry = ints
    else:
        entry = st.builds(Fraction, ints, st.integers(1, 7))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["entries", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([x + k * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs


@settings(deadline=None)
@given(linear_systems())
def test_solve_matches_oracle(system):
    mat, rhs = system
    x, basis = exact.solve(mat, rhs)
    assert (x, basis) == solve_oracle(mat, rhs)
    assert exact.nullspace(mat) == basis
    assert exact.pivot_columns(mat) == rref_oracle(mat)[1]
    if x is not None:
        assert all(isinstance(v, Fraction) for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(mat, rhs))
    for vec in basis:
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in mat)


def scaled_rows_reference(matrix):
    """Each row times the lcm of its denominators, every entry through
    Fraction or int, floats as their dyadic rationals."""
    out = []
    for row in matrix:
        row = [Fraction(x) if isinstance(x, float) else x for x in row]
        m = math.lcm(*[x.denominator for x in row if isinstance(x, Fraction)])
        out.append([
            int(x * m) if isinstance(x, Fraction) else int(x) * m for x in row
        ])
    return out


mixed_entries = st.one_of(
    st.integers(-2**63, 2**63),
    st.booleans(),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.fractions(-9, 9, max_denominator=12),
)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.one_of(
        st.lists(mixed_entries, min_size=n, max_size=n),
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    ),
    min_size=1, max_size=5,
)))
def test_echelon_scales_mixed_rows_as_the_reference(matrix):
    rows, pivots = exact.echelon(matrix)
    n = len(matrix[0])
    assert (rows, pivots) == _kernel.echelon(scaled_rows_reference(matrix), n)
    assert all(type(x) is int for row in rows for x in row)


def test_float_entries_are_exact_dyadic_rationals():
    assert exact.rank([[0.5, 1.0], [1.0, 2.0]]) == 1
    assert exact.rank([[0.5, 0.25]]) == 1
    assert exact.solve([[0.5]], [1])[0] == [Fraction(2)]


def test_nullspace_of_rationals():
    mat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    basis = exact.nullspace(mat)
    assert basis == [[2, -3]]


# -- Smith normal form --------------------------------------------------------

def check_snf_postconditions(mat):
    m, n = len(mat), len(mat[0])
    result = exact.smith_normal_form(mat)
    # unimodular transforms
    assert abs(det_oracle(result.U)) == 1
    assert abs(det_oracle(result.V)) == 1
    # U*M*V equals the padded diagonal
    prod = [
        [
            sum(
                result.U[i][k] * mat[k][l] * result.V[l][j]
                for k in range(m)
                for l in range(n)
            )
            for j in range(n)
        ]
        for i in range(m)
    ]
    assert prod == result.diagonal_matrix(m, n)
    # divisibility chain and rank agreement
    for a, b in zip(result.d, result.d[1:]):
        assert b % a == 0
    assert all(d > 0 for d in result.d)
    _, pivots = rref_oracle(mat)
    assert len(result.d) == len(pivots)
    return result


def test_snf_singleton():
    assert exact.smith_normal_form([[2]]).d == [2]


def test_snf_identity():
    assert exact.smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).d == [1, 1, 1]


def test_snf_circle_incidence():
    mat = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    result = check_snf_postconditions(mat)
    assert result.d == [1, 1]


def test_snf_known_torsion():
    # diag(2,6) has invariant factors 2 | 6; a mixed matrix reduces to them
    result = check_snf_postconditions([[2, 0], [0, 6]])
    assert result.d == [2, 6]
    result = check_snf_postconditions([[2, 4], [4, 2]])
    assert result.d == [2, 6]


def test_snf_random_matrices():
    rng = random.Random(777)
    for _ in range(120):
        mat = random_matrix(rng, max_dim=6, span=6)
        result = check_snf_postconditions(mat)
        # the last Bareiss pivot is +-1 times a minor of full rank, and the
        # product of the invariant factors is the gcd of all such minors
        rows, pivots = exact.echelon(mat)
        if pivots:
            assert rows[len(pivots) - 1][pivots[-1]] % math.prod(result.d) == 0


def test_normalize_primitive():
    vec = [Fraction(2, 3), Fraction(-4, 3), Fraction(0)]
    assert exact.normalize_primitive(vec) == [1, -2, 0]
    assert exact.normalize_primitive([Fraction(-1, 2)]) == [1]
    ints = [0, -6, 4, 0]
    assert exact.normalize_primitive(ints) == [0, 3, -2, 0]
    assert ints == [0, -6, 4, 0]
    assert exact.normalize_primitive([0, 0]) == [0, 0]
