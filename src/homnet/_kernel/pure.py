"""Pure-Python fraction-free row echelon (Bareiss) over arbitrary integers.

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
order: the nullspace and the solutions of a system are the matrix's own,
and the last pivot of a prefix of r pivot rows is plus or minus an r x r
minor of the input.

Bareiss step t with pivot p_t updates each row below the pivot row to
(p_t * x - lead * y) / p_{t-1}.  A row whose lead is zero is only scaled by
p_t / p_{t-1}, and consecutive scalings telescope: a row last updated by
step s and untouched since equals its stored values times p_t / p_s after
step t.  So such rows are left as stored, with the step s they are current
to, and scaled once, when they become the pivot row or meet a nonzero lead.
That one division is exact because the scaled entries are the very minors
the step-by-step scaling produces, and scaling never turns a nonzero into
a zero, so the stored nonzeros are the row's.  A row that is still deferred
when the loop ends lies below the last pivot row, so it is all zeros and
needs no finishing either.  The output equals the step-by-step
elimination's under the same row rule, entry for entry.
"""

from itertools import compress

BACKEND = "pure"


def echelon(rows, ncols):
    """Fraction-free row echelon of an integer matrix.

    ``rows`` is a list of row lists which is consumed (copy before calling if
    the input matters).  Returns ``(rows, pivot_cols)`` as dense row lists,
    where the first ``len(pivot_cols)`` rows hold the echelon form and the
    rest are zero; entries are exact minors of the input, so they stay
    integral throughout.
    """
    nrows = len(rows)
    span = range(ncols)
    sparse = []  # row -> {column: entry} of its nonzeros, its pivot popped
    leading = {}  # column -> the rows whose first nonzero it is
    for i, row in enumerate(rows):
        entries = {c: row[c] for c in compress(span, row)}
        sparse.append(entries)
        if entries:
            leading.setdefault(next(iter(entries)), []).append(i)
    order = list(range(nrows))  # position -> row
    where = order[:]  # row -> position
    pivots = [1]  # p_0 = 1, then the pivot of each step
    current = [0] * nrows  # the step each stored row is current to
    pivot_cols = []
    for c in span:
        candidates = leading.pop(c, None)
        if candidates is None:
            continue
        step = len(pivots) - 1
        prev = pivots[step]
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
        s = pivots[current[best]]
        if s != prev:  # deferred: the row is its stored values times prev / s
            tail = sparse[best] = {j: x * prev // s for j, x in tail.items()}
        piv = tail.pop(c)
        for i in candidates:
            if i == best:
                continue
            row = sparse[i]
            lead = row.pop(c)
            s = pivots[current[i]]
            if s != prev:
                lead = lead * prev // s
                out = {
                    j: v for j, y in tail.items()
                    if (v := (piv * (row.pop(j, 0) * prev // s) - lead * y) // prev)
                }
            else:
                out = {
                    j: v for j, y in tail.items()
                    if (v := (piv * row.pop(j, 0) - lead * y) // prev)
                }
            if row:
                # the entries only this row holds: scaled by piv / s at once
                out.update({j: piv * x // s for j, x in row.items()})
            sparse[i] = out
            current[i] = step + 1
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
    for row, c, piv in zip(dense, pivot_cols, pivots[1:]):
        row[c] = piv
    return dense, pivot_cols
