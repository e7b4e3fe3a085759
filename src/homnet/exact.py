"""Exact linear algebra over the rationals and integers.

Rank, linear solves and nullspaces are reduced to one primitive: the
fraction-free integer row echelon of the elimination kernel (``_kernel``,
pure Python over unbounded integers, sparse rows).  Rational input rows are
scaled to integers first, and floats are taken as the exact dyadic
rationals they are; neither changes ranks, nullspaces or solution sets.
Rows of plain ints (incidence and integer-position statics) pass to the
kernel as they are.

The kernel picks its pivot rows by sparsity, so its echelon rows depend
on the order of the input rows, but nothing read here does.  Column c is a
pivot column iff it lies outside the span of the columns before it, a
property of the columns alone; the rank counts the pivots; the solution
with the free variables zero is unique, and the nullspace vector of a free
column is the unique one that is 1 there and 0 at the other free columns,
made primitive.

Each linear system is eliminated once: ``solve`` reads the solution and the
nullspace of [A | b] off one echelon by one integer back-substitution,
``back_substitute``.  It reads only the columns below a bound n: the left
block of an echelon is the echelon of that block, so one echelon of [A | B]
serves every question about A.  With pivot columns p_k < n and d the last
of those pivots (plus or minus the pivot minor's determinant), d times the
pivot block's inverse is integral by Cramer's rule, so in
X[k] = (d * U[k][cols] - sum_{j>k} U[k][p_j] * X[j]) // U[k][p_k] every
division is exact.  Then x[p_k] = X[k][b] / d, and the nullspace vector of
free column f is d at f and -X[k][f] at each p_k, made primitive.  The
substitution walks only nonzeros: those of the pivot rows, and those of X,
where free column f lives on the pivots left of f.

The Smith normal form is computed here directly; torsion reporting runs it
only when the face echelon does not already certify H1 torsion-free, so it
is not a hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from . import _kernel

_INT = frozenset({int})  # the type set of a row of plain ints


def scaled_to_integers(row):
    """The row times the common denominator of its entries, as plain ints,
    and that denominator; a float counts as the exact dyadic rational it
    is.  A row of plain ints is returned as it is, over 1."""
    if _INT.issuperset(map(type, row)):
        return row, 1
    row = [x if type(x) in (int, Fraction) else Fraction(x) for x in row]
    m = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (m // x.denominator) for x in row], m


def echelon(matrix, extra=None):
    """Echelon ``(rows, pivots)`` of [matrix | extra] after per-row integer
    scaling."""
    rows = []
    for i, row in enumerate(matrix):
        full = list(row) + ([extra[i]] if extra is not None else [])
        rows.append(scaled_to_integers(full)[0])
    ncols = len(rows[0]) if rows else 0
    return _kernel.echelon(rows, ncols)


def pivot_columns(matrix):
    """Pivot columns of the echelon: each is the first column outside the
    span of the columns before it."""
    return echelon(matrix)[1] if matrix and matrix[0] else []


def rank(matrix):
    return len(pivot_columns(matrix))


def back_substitute(rows, pivots, n, extra=()):
    """Nullspace and solutions of the first n columns of an echelon.

    The left block of an echelon is the echelon of that block, so only the
    pivots below column n count.  Returns ``(basis, solutions)``: the
    nullspace basis of the first n columns (see ``nullspace``), and for each
    column e in ``extra`` the exact solution, free variables zero, of that
    block times x = column e.
    """
    pivots = [p for p in pivots if p < n]
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    free = sorted(set(range(n)).difference(pivots))
    solved = set(free).union(extra)
    row_of = {p: k for k, p in enumerate(pivots)}
    span = range(len(rows[0]) if pivots else 0)
    X = [None] * len(pivots)  # X[k]: solved column -> its nonzero entry
    for k in reversed(range(len(pivots))):
        row = rows[k]
        acc = {}
        for c in compress(span, row):
            j = row_of.get(c)
            if j is None:
                if c in solved:
                    acc[c] = acc.get(c, 0) + d * row[c]
            elif j > k:
                u = row[c]
                for f, v in X[j].items():
                    acc[f] = acc.get(f, 0) - u * v
        piv = row[pivots[k]]
        X[k] = {f: a // piv for f, a in acc.items() if a}
    basis = {fc: [0] * n for fc in free}
    for fc, vec in basis.items():
        vec[fc] = d
    solutions = [[Fraction(0)] * n for _ in extra]
    by_column = dict(zip(extra, solutions))
    for k, p in enumerate(pivots):
        for c, v in X[k].items():
            vec = basis.get(c)
            if vec is not None:
                vec[p] = -v
            else:
                by_column[c][p] = Fraction(v, d)
    return [normalize_primitive(v) for v in basis.values()], solutions


def solve(matrix, rhs):
    """Solve matrix * x = rhs by one elimination of [matrix | rhs].

    Returns ``(x, basis)``: ``x`` is one exact solution with the free
    variables set to zero, or None when the system is inconsistent;
    ``basis`` is the nullspace basis of the matrix (see ``nullspace``).
    """
    if not matrix:
        return [], []
    n = len(matrix[0])
    rows, pivots = echelon(matrix, extra=rhs)
    basis, (x,) = back_substitute(rows, pivots, n, [n])
    consistent = not pivots or pivots[-1] != n
    return (x if consistent else None), basis


def nullspace(matrix):
    """Basis of the rational nullspace as primitive integer vectors.

    Each vector is cleared of denominators, divided by the gcd of its
    entries, and sign-fixed so its first nonzero entry is positive; basis
    vectors are ordered by their free column.
    """
    return solve(matrix, [0] * len(matrix))[1]


def normalize_primitive(vec):
    """Scale a rational vector to coprime integers with positive leading sign."""
    if _INT.issuperset(map(type, vec)):
        ints = list(vec)
    else:
        denoms = [v.denominator for v in vec if isinstance(v, Fraction)]
        m = math.lcm(*denoms) if denoms else 1
        ints = [int(v * m) for v in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass
class SNFResult:
    """U * M * V = diag(d) with U, V unimodular and d_1 | d_2 | ...

    d holds the nonzero invariant factors only; the diagonal is padded with
    zeros to the shape of M.
    """

    d: list
    U: list
    V: list

    def diagonal_matrix(self, nrows, ncols):
        out = [[0] * ncols for _ in range(nrows)]
        for k, v in enumerate(self.d):
            out[k][k] = v
        return out


def _swap_rows(mat, i, j):
    mat[i], mat[j] = mat[j], mat[i]


def _swap_cols(mat, i, j):
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_row(mat, dst, src, k):
    mat[dst] = [a + k * b for a, b in zip(mat[dst], mat[src])]


def _add_col(mat, dst, src, k):
    for row in mat:
        row[dst] += k * row[src]


def _negate_row(mat, i):
    mat[i] = [-a for a in mat[i]]


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix with transform tracking.

    The pivot is re-selected as the submatrix's smallest nonzero entry after
    every Euclidean step, which keeps the working entries from blowing up
    (reducing entries pairwise against a stale pivot is the classic way to
    explode the coefficients).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    A = [list(map(int, row)) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def move_smallest_to_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            return False
        _, pi, pj = best
        if pi != t:
            _swap_rows(A, pi, t)
            _swap_rows(U, pi, t)
        if pj != t:
            _swap_cols(A, pj, t)
            _swap_cols(V, pj, t)
        return True

    t = 0
    while t < min(m, n):
        if not move_smallest_to_pivot(t):
            break
        piv = A[t][t]

        # one Euclidean step against any neighbor the pivot does not divide;
        # the remainder strictly shrinks the submatrix minimum, so re-pivot
        stepped = False
        for i in range(t + 1, m):
            if A[i][t] % piv:
                q = A[i][t] // piv
                _add_row(A, i, t, -q)
                _add_row(U, i, t, -q)
                stepped = True
                break
        if stepped:
            continue
        for j in range(t + 1, n):
            if A[t][j] % piv:
                q = A[t][j] // piv
                _add_col(A, j, t, -q)
                _add_col(V, j, t, -q)
                stepped = True
                break
        if stepped:
            continue

        # the pivot divides its row and column: clear both exactly
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // piv
                _add_row(A, i, t, -q)
                _add_row(U, i, t, -q)
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // piv
                _add_col(A, j, t, -q)
                _add_col(V, j, t, -q)

        # divisibility chain: fold a column holding a non-multiple into
        # column t, then redo this stage with a shrinking pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % piv:
                    offender = j
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_col(A, t, offender, 1)
            _add_col(V, t, offender, 1)
            continue
        if A[t][t] < 0:
            _negate_row(A, t)
            _negate_row(U, t)
        t += 1

    d = [A[k][k] for k in range(min(m, n)) if A[k][k]]
    return SNFResult(d=d, U=U, V=V)
