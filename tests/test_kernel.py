"""The elimination kernel against the step-by-step Bareiss loop it defers,
and the answers read from it against the row order and the row rule."""

import pytest
from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, exact, geometry, statics
from homnet._kernel import pure
from conftest import (
    complexes,
    disjoint_union,
    face_answers,
    fresh_copy,
    frameworks,
    real_projective_plane,
    tetrahedron_surface,
    triangulated_disc,
    triangulated_grid,
)

GUARD = 2**62  # entries around a machine word's bound


def sparsest(rows, candidates):
    """The kernel's row rule: the candidate with the fewest nonzeros, ties
    going to the first."""
    return min(candidates, key=lambda p: (sum(1 for x in rows[p] if x), p))


def first_nonzero(rows, candidates):
    """The kernel's earlier row rule: the first candidate."""
    return candidates[0]


def eager_echelon(rows, ncols, pick=sparsest):
    """The step-by-step Bareiss loop: at every step each row below the pivot
    row is updated, a row with a zero lead by the scaling p_t / p_{t-1}.
    ``pick`` chooses the pivot row among the rows at or below the pivot
    position with a nonzero in the pivot column."""
    nrows = len(rows)
    prev = 1
    r = 0
    pivot_cols = []
    for c in range(ncols):
        candidates = [p for p in range(r, nrows) if rows[p][c] != 0]
        if not candidates:
            continue
        p = pick(rows, candidates)
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
@example([[1, 1, 1], [1, 0, 0], [0, 1, 0]])  # the sparser row is second
def test_pure_kernel_matches_eager_bareiss(rows):
    ncols = len(rows[0]) if rows else 0
    got = pure.echelon([list(r) for r in rows], ncols)
    assert got == eager_echelon([list(r) for r in rows], ncols)
    assert all(type(x) is int for row in got[0] for x in row)
    # the pivot columns are those of the first-nonzero rule
    assert got[1] == eager_echelon([list(r) for r in rows], ncols, first_nonzero)[1]


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


@settings(deadline=None, max_examples=200)
@given(kernel_inputs, st.data())
@example([[1, 1, 1], [1, 0, 0], [0, 1, 0]], None)
def test_answers_do_not_depend_on_row_order(rows, data):
    nrows = len(rows)
    if data is None:  # the explicit example: the rows reversed
        order, rhs = list(reversed(range(nrows))), [1] * nrows
    else:
        order = data.draw(st.permutations(range(nrows)))
        rhs = data.draw(st.lists(st.integers(-5, 5), min_size=nrows, max_size=nrows))
    shuffled = [list(rows[i]) for i in order]
    moved = [rhs[i] for i in order]
    assert exact.pivot_columns(shuffled) == exact.pivot_columns(rows)
    assert exact.nullspace(shuffled) == exact.nullspace(rows)
    assert exact.solve(shuffled, moved) == exact.solve(rows, rhs)


def jittered_grid_truss(k):
    """The triangulated k x k grid at integer positions jittered by up to 3
    from a lattice of pitch 10, with no triangle degenerate."""
    cx = triangulated_grid(k)
    positions = {
        f"n{i}_{j}": (10 * i + (i * i + 3 * j) % 7 - 3, 10 * j + (5 * i + j * j) % 7 - 3)
        for i in range(k)
        for j in range(k)
    }
    g = geometry.realize(cx, 2, positions)
    for edges in cx.faces:
        p, q, r = (g.positions[v] for v in {v for b, _ in edges for v in cx.branches[b]})
        assert (q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0])
    return g


def test_grid_truss_echelon_keeps_its_fill_small():
    """The sparsest-row rule stores 1,802 nonzeros in the pivot rows of
    [A | b] for the k = 12 grid truss; the first nonzero row stores 5,897.
    The bound leaves room for a rule between the two, not for the fill."""
    g = jittered_grid_truss(12)
    A = statics.equilibrium_matrix(g)
    q = [a % 11 - 5 for a in range(g.complex.r[1])]
    b = [sum(x * y for x, y in zip(row, q)) for row in A]
    rows, pivots = exact.echelon(A, extra=b)
    assert len(pivots) == 2 * g.complex.r[0] - 3  # rigid: three rigid motions
    assert sum(1 for row in rows[: len(pivots)] for x in row if x) <= 2500


def chains_to_test(cx):
    """Coefficients of rational 1-cycles: the boundary of each face plus
    twice the next, and each chord's fundamental cycle."""
    chains = [
        hn.boundary(hn.Chain(cx, 2, {f: 1, (f + 1) % cx.r[2]: 2}, hn.RATIONAL)).coeffs
        for f in range(cx.r[2])
    ]
    return chains + [z.coeffs for z in hn.cycle_basis(cx, 1)]


@pytest.mark.parametrize("cx, torsion", [
    (real_projective_plane(), [[], [2], []]),
    (tetrahedron_surface(), [[], [], []]),
    (disjoint_union(triangulated_disc(), real_projective_plane()), [[], [2], []]),
], ids=["projective-plane", "tetrahedron-surface", "disc+projective-plane"])
def test_face_echelon_answers_do_not_depend_on_the_row_rule(cx, torsion, monkeypatch):
    assert cx.collapse is None  # the face echelon's path
    chains = chains_to_test(cx)
    got = face_answers(fresh_copy(cx), chains)
    assert got[1] == torsion
    assert None not in got[-1][: cx.r[2]]  # the face boundaries bound
    monkeypatch.setattr(
        _kernel, "echelon", lambda rows, ncols: eager_echelon(rows, ncols, first_nonzero)
    )
    assert face_answers(fresh_copy(cx), chains) == got
