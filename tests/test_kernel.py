"""Parity of the compiled elimination kernel with its pure-Python twin.

The compiled twin is built from the shipped ``_speedups.c`` with the local
``gcc`` into a temporary directory, once per test session, and loaded under
its own name; the package's own backend choice is left alone.  Without
``gcc`` or the Python headers the tests are skipped.
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
from homnet import _kernel
from homnet._kernel import pure
from conftest import complexes

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


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([GUARD, -GUARD, GUARD + 1, -GUARD - 1]),
    st.integers(-GUARD - 2, GUARD + 2),
)


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
