"""Exact linear algebra over the rationals and integers.

Rank, linear solves and nullspaces are reduced to one primitive: the
fraction-free integer row echelon of the elimination kernel (``_kernel``,
pure Python over unbounded integers, sparse rows).  Each input row is
copied once; a row with a nonzero that is not a plain int is scaled to
integers, floats taken as the exact dyadic rationals they are, which
changes no rank, nullspace or solution set.  The types of the nonzeros
alone are checked, so rows of plain ints (incidence, and statics, over
scaled integer branch vectors) pass to the kernel as they are.

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
serves every question about A.  The kernel's rows are primitive, not
Bareiss rows, so no one denominator makes the pivot block's inverse integral in
advance.  Instead each solved column f (a free column, or a right-hand
side) keeps a running denominator t_f, and with pivot columns p_k < n the
substitution computes X[k][f] = (t_f * U[k][f] - sum_{j>k} U[k][p_j] *
X[j][f]) / U[k][p_k] from the last pivot row up.  When the pivot u does
not divide the numerator a, column f is scaled by |u| / gcd(a, u): t_f and
every X[j][f] already computed are multiplied, the stored entries lazily,
when next read.  Then x[p_k] = X[k][b] / t_b, and the nullspace vector of
free column f is t_f at f and -X[k][f] at each p_k, made primitive.  The
denominators grow with the answer, not with the pivot minor.  The
substitution walks only nonzeros: those of the pivot rows, and those of X,
where free column f lives on the pivots left of f.

Results are sparse where the answer is: a nullspace vector is a
column-sorted ``{column: int}`` of its nonzeros, primitive (gcd 1, its
lowest column positive), built from those nonzeros alone; a solution is a
dense list of n Fractions.

The Smith normal form is computed here directly.  Torsion reporting runs
it only on the Morse boundary of a complex's critical faces, a matrix with
one column per critical face, so it is not a hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from . import _kernel
from .coeffs import rationals

_INT = frozenset({int})  # the type set of a row of plain ints


def scaled_to_integers(row):
    """The row times the common denominator of its entries, as plain ints,
    and that denominator; a float counts as the exact dyadic rational it
    is.  A row of plain ints is returned as it is, over 1."""
    if _INT.issuperset(map(type, row)):
        return row, 1
    row = rationals(row)
    m = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (m // x.denominator) for x in row], m


def echelon(matrix, extra=None):
    """The kernel's ``(rows, pivots)`` of [matrix | extra]: each row as it
    is, or scaled to integers when a nonzero of it is not a plain int (the
    kernel reads only the nonzeros, so a zero of any type is left as it
    is).  The kernel only reads its rows, so none is copied."""
    rows = []
    for i, row in enumerate(matrix):
        if extra is not None:
            row = [*row, extra[i]]
        if not _INT.issuperset(map(type, filter(None, row))):
            row = scaled_to_integers(row)[0]
        rows.append(row)
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
    free = sorted(set(range(n)).difference(pivots))
    scale = dict.fromkeys([*free, *extra], 1)  # solved column -> denominator
    row_of = {p: k for k, p in enumerate(pivots)}
    span = range(len(rows[0]) if pivots else 0)
    # X[k]: solved column f -> (entry, the scale of f it was computed at)
    X = [None] * len(pivots)
    for k in reversed(range(len(pivots))):
        row = rows[k]
        acc = {}
        for c in compress(span, row):
            j = row_of.get(c)
            if j is None:
                t = scale.get(c)
                if t is not None:
                    acc[c] = acc.get(c, 0) + t * row[c]
            elif j > k:
                u = row[c]
                later = X[j]
                for f, (v, s) in later.items():
                    t = scale[f]
                    if s != t:  # column f was scaled since: catch up once
                        v *= t // s
                        later[f] = v, t
                    acc[f] = acc.get(f, 0) - u * v
        piv = row[pivots[k]]
        out = {}
        for f, a in acc.items():
            if a:
                q, r = divmod(a, piv)
                if r:  # scale column f until the pivot divides it
                    m = abs(piv) // math.gcd(a, piv)
                    scale[f] *= m
                    q = a * m // piv
                out[f] = q, scale[f]
        X[k] = out
    # free column f lives on the pivots left of f, so inserting the pivots
    # in order and f last keeps each vector column-sorted
    basis = {fc: {} for fc in free}
    solutions = [[Fraction(0)] * n for _ in extra]
    by_column = dict(zip(extra, solutions))
    for k, p in enumerate(pivots):
        for c, (v, s) in X[k].items():
            t = scale[c]
            v *= t // s
            vec = basis.get(c)
            if vec is not None:
                vec[p] = -v
            else:
                by_column[c][p] = Fraction(v, t)
    for fc, vec in basis.items():
        vec[fc] = scale[fc]
    return [_primitive(vec) for vec in basis.values()], solutions


def _primitive(vec):
    """A nonempty ``{column: int}`` of nonzeros divided by the gcd of its
    values, signed so that its first (lowest) column is positive."""
    g = math.gcd(*vec.values())
    if next(iter(vec.values())) < 0:
        g = -g
    return vec if g == 1 else {c: v // g for c, v in vec.items()}


def solve(matrix, rhs):
    """Solve matrix * x = rhs by one elimination of [matrix | rhs].

    Returns ``(x, basis)``: ``x`` is one exact solution with the free
    variables set to zero, a list of Fractions, or None when the system is
    inconsistent; ``basis`` is the nullspace basis of the matrix (see
    ``nullspace``).
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

    Each vector is a column-sorted ``{column: int}`` of its nonzeros,
    cleared of denominators, divided by the gcd of its entries, and
    sign-fixed so its lowest column is positive; basis vectors are ordered
    by their free column.
    """
    return solve(matrix, [0] * len(matrix))[1]


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
