"""The elimination kernel against the step-by-step Bareiss loop it defers."""

from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, statics
from homnet._kernel import pure
from conftest import complexes, frameworks

GUARD = 2**62  # entries around a machine word's bound


def eager_echelon(rows, ncols):
    """The step-by-step Bareiss loop: at every step each row below the pivot
    row is updated, a row with a zero lead by the scaling p_t / p_{t-1}."""
    nrows = len(rows)
    prev = 1
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
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            row_r = rows[r]
            lead = row_i[c]
            if lead == 0:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j]) // prev
            else:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - lead * row_r[j]) // prev
                row_i[c] = 0
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([GUARD, -GUARD, GUARD + 1, -GUARD - 1]),
    st.integers(-GUARD - 2, GUARD + 2),
)


@st.composite
def integer_matrices(draw, max_side=8):
    """Tall, wide and square integer matrices with zero rows and columns;
    a row that starts late keeps a zero lead under the early pivots."""
    nrows = draw(st.integers(0, max_side))
    ncols = draw(st.integers(1, max_side))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    cell = st.one_of(st.just(0), entries)
    rows = []
    for _ in range(nrows):
        start = draw(st.integers(0, ncols))  # ncols: a zero row
        rows.append([
            0 if c < start or c in zero_cols else draw(cell) for c in range(ncols)
        ])
    return rows


coordinates = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([GUARD, -GUARD, GUARD + 1]),
    st.integers(-2**40, 2**40),
)

# the 2r0 x r1 equilibrium matrices that statics hands the kernel
equilibrium_matrices = frameworks(coordinates).map(statics.equilibrium_matrix)

kernel_inputs = st.one_of(integer_matrices(), equilibrium_matrices)

DEFERRED = [  # the last row keeps a zero lead under three pivots
    [2, 0, 0, 5],
    [0, 3, 0, 1],
    [0, 0, 7, 2],
    [0, 0, 0, 11],
]


@settings(deadline=None, max_examples=300)
@given(kernel_inputs)
@example(DEFERRED)
@example([[2, 0, 1], [0, 3, 1], [0, 5, 7]])  # a deferred row meets a lead
@example([[0, 0, 0], [0, 0, 0]])
@example([[GUARD + 1, 0, 1, 0], [0, 0, 0, 0], [0, 0, GUARD, -GUARD - 1]])
@example([[1, 2], [0, 0], [0, 0], [0, 5], [3, 4], [0, 0], [0, 1], [0, 0]])
def test_pure_kernel_matches_eager_bareiss(rows):
    ncols = len(rows[0]) if rows else 0
    got = pure.echelon([list(r) for r in rows], ncols)
    assert got == eager_echelon([list(r) for r in rows], ncols)
    assert all(type(x) is int for row in got[0] for x in row)


@settings(deadline=None)
@given(complexes())
def test_pure_kernel_matches_eager_bareiss_on_boundary_maps(cx):
    """The boundary map on branches, and [boundary on faces | fundamental
    cycles] as ``Complex.face_echelon`` hands it to the package's kernel."""
    assert _kernel.echelon is pure.echelon and hn.KERNEL_BACKEND == "pure"
    boundary_1 = [[row[i] for row in cx.incidence_1] for i in range(cx.r[0])]
    assert pure.echelon([list(r) for r in boundary_1], cx.r[1]) == eager_echelon(
        boundary_1, cx.r[1]
    )
    forest = cx.forest
    ncols = cx.r[2] + len(forest.chords)
    faces = [[0] * ncols for _ in range(cx.r[1])]
    for f, edges in enumerate(cx.faces):
        for b, s in edges:
            faces[b][f] += s
    for i, a in enumerate(forest.chords, cx.r[2]):
        for b, v in forest.cycle(a).items():
            faces[b][i] = v
    assert cx.face_echelon == eager_echelon(faces, ncols)
