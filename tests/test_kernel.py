"""The elimination kernels: the pure one against the step-by-step Bareiss
loop it defers, and the compiled twin against the pure one.

The compiled twin is built from the shipped ``_speedups.c`` with the local
``gcc`` into a temporary directory, once per test session, and loaded under
its own name; the package's own backend choice is left alone.  Without
``gcc`` or the Python headers the compiled tests are skipped; the pure
kernel's oracle needs neither.
"""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, statics
from homnet._kernel import pure
from conftest import complexes, frameworks

SOURCE = Path(_kernel.__file__).with_name("_speedups.c")
GUARD = 2**62


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    include = sysconfig.get_paths()["include"]
    if shutil.which("gcc") is None or not Path(include, "Python.h").exists():
        pytest.skip("building the compiled kernel needs gcc and Python.h")
    out = tmp_path_factory.mktemp("kernel")
    target = out / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        ["gcc", "-O3", "-shared", "-fPIC", "-fno-strict-aliasing", "-DNDEBUG",
         "-I" + include, str(SOURCE), "-o", str(target)],
        check=True, env=dict(os.environ, TMPDIR=str(out)), timeout=600,
    )
    loader = importlib.machinery.ExtensionFileLoader(
        "homnet._kernel._speedups", str(target)
    )
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader)
    )
    loader.exec_module(module)
    return module


def assert_parity(compiled, rows, ncols):
    """The compiled echelon equals the pure one, or the compiled kernel
    overflows and the backend's pure retry equals it."""
    want = pure.echelon([list(r) for r in rows], ncols)
    try:
        got = compiled.echelon([list(r) for r in rows], ncols)
    except OverflowError:
        with mock.patch.object(_kernel, "_speedups", compiled):
            got = _kernel.echelon([list(r) for r in rows], ncols)
    assert (list(map(list, got[0])), list(got[1])) == want


def incidence_matrices(cx):
    """The boundary map on branches, and on faces stacked with the
    fundamental cycles, as the elimination sees them."""
    cycles = hn.cycle_basis(cx, 1)
    boundary_1 = [[row[i] for row in cx.incidence_1] for i in range(cx.r[0])]
    faces = [[0] * cx.r[2] + [z[a] for z in cycles] for a in range(cx.r[1])]
    for f, edges in enumerate(cx.faces):
        for b, s in edges:
            faces[b][f] += s
    return [boundary_1, faces]


@settings(deadline=None)
@given(complexes())
def test_compiled_kernel_matches_pure_on_incidence(compiled, cx):
    for rows in incidence_matrices(cx):
        assert_parity(compiled, rows, len(rows[0]) if rows else 0)


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
@given(kernel_inputs)
@example(DEFERRED)
def test_compiled_kernel_matches_pure_on_kernel_inputs(compiled, rows):
    assert_parity(compiled, rows, len(rows[0]) if rows else 0)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5)
))
@example([[GUARD, 1], [1, GUARD]])
@example([[GUARD + 1, 0], [0, 1]])
@example([[2**40, 3], [5, 2**40]])
def test_compiled_kernel_matches_pure_on_large_entries(compiled, rows):
    assert_parity(compiled, rows, len(rows[0]) if rows else 0)


def test_compiled_kernel_overflows_beyond_the_guard(compiled):
    with pytest.raises(OverflowError):
        compiled.echelon([[GUARD + 1]], 1)
    with pytest.raises(OverflowError):
        compiled.echelon([[GUARD, 1], [1, GUARD]], 2)
    assert compiled.echelon([[GUARD], [-GUARD]], 1) == ([[GUARD], [0]], [0])
