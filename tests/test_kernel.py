"""The elimination kernel against the step-by-step Bareiss loop, whose rows
it keeps primitive, and the answers read from it against the row order and
the row rule."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, cli, documents, exact, reports, statics
from homnet._kernel import pure
from conftest import (
    closed_surface,
    complexes,
    dense,
    disjoint_union,
    face_answers,
    float_grid_truss,
    fresh_copy,
    frameworks,
    jittered_grid_truss,
    load_perfbench,
    random_complex,
    real_projective_plane,
    tetrahedron_surface,
    triangulated_disc,
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
    position with a nonzero in the pivot column.  Returns the kernel's
    ``(rows, pivot_cols)`` and the pivots, which are the leading minors."""
    nrows = len(rows)
    prev = 1
    r = 0
    pivot_cols = []
    pivots = []
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
        pivots.append(piv)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols, pivots


def primitive(row):
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g else row


def matches_bareiss(got, want):
    """The kernel's echelon against the eager Bareiss one: the same pivot
    columns, and each row in the same place and plus or minus the
    primitive part of the Bareiss row."""
    rows, pivot_cols = got
    bareiss_rows, bareiss_cols, _ = want
    return (
        pivot_cols == bareiss_cols
        and len(rows) == len(bareiss_rows)
        and all(
            row in (p, [-x for x in p])
            for row, p in zip(rows, map(primitive, bareiss_rows))
        )
    )


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
    assert matches_bareiss(got, eager_echelon([list(r) for r in rows], ncols))
    assert all(type(x) is int for row in got[0] for x in row)
    # the pivot columns are those of the first-nonzero rule
    assert got[1] == eager_echelon([list(r) for r in rows], ncols, first_nonzero)[1]


def face_matrix(cx):
    """[boundary on faces | fundamental cycles] and its column count, a
    dense kernel input whose pivots give the face rank and the H1 chords."""
    forest = cx.forest
    ncols = cx.r[2] + len(forest.chords)
    faces = [[0] * ncols for _ in range(cx.r[1])]
    for f, edges in enumerate(cx.faces):
        for b, s in edges:
            faces[b][f] += s
    for i, a in enumerate(forest.chords, cx.r[2]):
        for b, v in forest.cycle(a).items():
            faces[b][i] = v
    return faces, ncols


@settings(deadline=None)
@given(complexes())
def test_pure_kernel_matches_eager_bareiss_on_boundary_maps(cx):
    """The boundary map on branches, [boundary on faces | fundamental
    cycles], and the Morse matrix that the face answers hand the package's
    kernel."""
    assert _kernel.echelon is pure.echelon and hn.KERNEL_BACKEND == "pure"
    boundary_1 = [[row[i] for row in cx.incidence_1] for i in range(cx.r[0])]
    assert matches_bareiss(
        pure.echelon([list(r) for r in boundary_1], cx.r[1]),
        eager_echelon(boundary_1, cx.r[1]),
    )
    faces, ncols = face_matrix(cx)
    assert matches_bareiss(
        pure.echelon([list(r) for r in faces], ncols), eager_echelon(faces, ncols)
    )
    for rows, ncols in morse_matrices(cx):
        assert matches_bareiss(
            pure.echelon([list(r) for r in rows], ncols), eager_echelon(rows, ncols)
        )


def morse_matrices(cx):
    """Every matrix the face answers of a fresh copy of the complex hand the
    kernel, as it was handed."""
    seen = []

    def capture(rows, ncols):
        seen.append(([list(r) for r in rows], ncols))
        return echelon(rows, ncols)

    echelon = _kernel.echelon
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "echelon", capture)
        face_answers(fresh_copy(cx), chains_to_test(cx))
    return seen


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
    n = len(rows[0]) if rows else 0
    assert [dense(v, n) for v in exact.nullspace(shuffled)] == [
        dense(v, n) for v in exact.nullspace(rows)
    ]
    assert exact.solve(shuffled, moved) == exact.solve(rows, rhs)


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


def test_grid_truss_echelon_keeps_its_entries_small():
    """Primitive rows keep every entry of the k = 12 grid truss's echelon
    within 43 bits; the Bareiss entries, minors over every earlier pivot,
    reach 917.  The bound is a machine word, not the measured size."""
    A = statics.equilibrium_matrix(jittered_grid_truss(12))
    rows, _ = exact.echelon(A)
    assert max(abs(x).bit_length() for row in rows for x in row) <= 64


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
    (closed_surface(4), [[], [], []]),
    (closed_surface(4, twist=True), [[], [2], []]),
], ids=["projective-plane", "tetrahedron-surface", "disc+projective-plane", "torus",
        "klein-bottle"])
def test_face_echelon_answers_do_not_depend_on_the_row_rule(cx, torsion, monkeypatch):
    assert cx.collapse[1]  # a critical face: the Morse boundary is read
    chains = chains_to_test(cx)
    got = face_answers(fresh_copy(cx), chains)
    assert got[1] == torsion
    assert None not in got[-1][: cx.r[2]]  # the face boundaries bound
    monkeypatch.setattr(
        _kernel, "echelon", lambda rows, ncols: eager_echelon(rows, ncols, first_nonzero)[:2]
    )
    assert face_answers(fresh_copy(cx), chains) == got


def test_smith_form_sees_only_the_morse_boundary(monkeypatch):
    """Torsion runs the Smith form on the Morse boundary of the critical
    faces, one column each, never on the boundary on faces: not at all on
    the torus, whose Morse boundary is zero, and on one column on the Klein
    bottle and the projective plane."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    smith_normal_form = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", counted)
    named = {
        "projective-plane": real_projective_plane(),
        "tetrahedron-surface": tetrahedron_surface(),
        "disc+projective-plane": disjoint_union(triangulated_disc(), real_projective_plane()),
        "torus": closed_surface(8),
        "klein-bottle": closed_surface(8, twist=True),
    }
    rng = random.Random(0)
    draws = [
        cx for cx in (random_complex(rng) for _ in range(20000))
        if cx.dim == 2 and cx.collapse[1]
    ]
    columns = {}
    for name, cx in [*named.items(), *enumerate(draws)]:
        calls.clear()
        hn.torsion_coefficients(cx)
        assert all(m != cx.incidence_2 for m in calls)
        assert all(len(row) == len(cx.collapse[1]) for m in calls for row in m)
        columns[name] = [len(m[0]) for m in calls]
    assert {name: columns[name] for name in named} == {
        "projective-plane": [1], "tetrahedron-surface": [],
        "disc+projective-plane": [1], "torus": [], "klein-bottle": [1],
    }


def test_traced_benchmark_replays_the_kernel_inputs():
    """The traced benchmark copies each kernel input row with list() and
    replays the copies through the pure kernel: that needs the kernel's
    dense (rows, ncols) contract, checked here on one k = 5 grid-statics
    document run the way report-all runs it."""
    spans, replay, workloads = map(load_perfbench, ("spans", "replay", "workloads"))
    case = workloads.grid_statics_case(random.Random(5), 5)
    tracer = spans.Tracer()
    tracer.capture = []
    tracer.install()
    try:
        doc = documents.parse(case.text)
        out = [cli.run(doc, r.command, dict(r.options)) for r in doc.analyses]
        reports.emit(out)
    finally:
        tracer.uninstall()
    captured = tracer.capture
    assert captured
    for rows, ncols in captured:
        assert all(type(row) is list and len(row) == ncols for row in rows)
    result = replay.replay(captured, pure, pure)
    assert result["kernel.replay_matrices"] == len(captured)
    assert result["kernel.replay_mismatches"] == 0


@pytest.mark.parametrize("truss", [jittered_grid_truss, float_grid_truss])
def test_statics_eliminates_one_plain_int_system(truss, monkeypatch):
    """The traced benchmark times statics by the names equilibrium_matrix,
    exact.solve and _kernel.echelon: on a k = 5 grid truss, at integer or
    float positions, solve_statics assembles once and takes the rigid
    motions once, finds their pivot columns in one kernel call, and makes
    one more, inside exact.solve, on the r0 * n - 3 dense list rows of
    plain ints of width r1 + 1 that the motions leave free."""
    g = truss(5)
    r0, r1, _ = g.complex.r
    entered, assembled, motions, kernel_inputs = [], [], [], []

    def wrap(module, name, record):
        fn = getattr(module, name)

        def wrapped(*args):
            record(args)
            entered.append(name)
            try:
                return fn(*args)
            finally:
                entered.pop()

        monkeypatch.setattr(module, name, wrapped)

    q = {a: a % 7 - 3 for a in range(r1)}
    f_ext = -hn.boundary(statics.tension_force_chain(g, q))
    wrap(statics, "equilibrium_matrix", assembled.append)
    expected = statics.rigid_motions(g)
    wrap(statics, "rigid_motions", motions.append)
    wrap(exact, "solve", lambda args: None)
    wrap(_kernel, "echelon", lambda args: kernel_inputs.append(
        (list(entered), [list(row) for row in args[0]], args[1])
    ))
    sol = statics.solve_statics(g, f_ext)
    assert sol.self_stress_dim == 9
    assert len(assembled) == len(motions) == 1
    [(first, motion_rows, width), (callers, rows, ncols)] = kernel_inputs
    assert first == [] and callers == ["solve"]
    assert motion_rows == expected and width == r0 * g.n
    assert exact.rank(motion_rows) == 3
    assert ncols == r1 + 1 and len(rows) == r0 * g.n - 3
    assert all(type(row) is list and len(row) == ncols for row in rows)
    assert all(type(x) is int for row in rows for x in row)
