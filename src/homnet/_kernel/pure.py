"""Pure-Python fraction-free row echelon (Bareiss) over arbitrary integers.

This is the package's one elimination kernel.  Pivoting is deterministic:
the first row at or below the pivot row with a nonzero entry in the pivot
column is chosen.

Bareiss step t with pivot p_t updates each row below the pivot row to
(p_t * x - lead * y) / p_{t-1}.  A row whose lead is zero is only scaled by
p_t / p_{t-1}, and consecutive scalings telescope: a row last updated by
step s and untouched since equals its stored values times p_t / p_s after
step t.  So such rows are left as stored, with the step s they are current
to, and scaled once, when they become the pivot row or meet a nonzero lead.
That one division is exact because the scaled entries are the very minors
the step-by-step scaling produces.  Zero tests need no scaling, and a row
that is still deferred when the loop ends lies below the last pivot row,
so it is all zeros and needs no finishing either.  The output equals the
step-by-step elimination's entry for entry.
"""

BACKEND = "pure"


def echelon(rows, ncols):
    """Fraction-free row echelon of an integer matrix.

    ``rows`` is a list of row lists which is consumed (copy before calling if
    the input matters).  Returns ``(rows, pivot_cols)`` where the first
    ``len(pivot_cols)`` rows hold the echelon form; entries are exact minors
    of the input, so they stay integral throughout.
    """
    nrows = len(rows)
    pivots = [1]  # p_0 = 1, then the pivot of each step
    current = [0] * nrows  # the step each stored row is current to
    r = 0
    pivot_cols = []
    for c in range(ncols):
        p = r
        while p < nrows and rows[p][c] == 0:
            p += 1
        if p == nrows:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            current[p], current[r] = current[r], current[p]
        step = len(pivots) - 1
        prev = pivots[step]
        # every row at or below r is zero left of column c
        row_r = rows[r]
        if current[r] != step:
            s = pivots[current[r]]
            row_r[c:] = [x * prev // s for x in row_r[c:]]
        piv = row_r[c]
        tail_r = row_r[c + 1:]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            lead = row_i[c]
            if lead == 0:
                continue
            if current[i] == step:
                row_i[c + 1:] = [
                    (piv * x - lead * y) // prev
                    for x, y in zip(row_i[c + 1:], tail_r)
                ]
            else:
                s = pivots[current[i]]
                lead = lead * prev // s
                row_i[c + 1:] = [
                    (piv * (x * prev // s) - lead * y) // prev
                    for x, y in zip(row_i[c + 1:], tail_r)
                ]
            row_i[c] = 0
            current[i] = step + 1
        pivots.append(piv)
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols
