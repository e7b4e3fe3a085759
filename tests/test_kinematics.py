import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homnet as hn
from homnet import dynamics as dyn
from homnet import errors
from homnet import geometry as geo
from homnet import kinematics as kin
from conftest import EXACT_COORDINATES, motions


def snapshots_of(complex, *position_lists):
    return [
        geo.GeometricComplex(complex=complex, n=len(p[0]), positions=[tuple(q) for q in p])
        for p in position_lists
    ]


@pytest.fixture
def triangle():
    return hn.build_complex(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])


def test_translation_motion_links(triangle):
    base = [(0, 0), (1, 0), (0, 1)]
    moved = [(2, 3), (3, 3), (2, 4)]
    k = kin.build_kinematical_complex(snapshots_of(triangle, base, moved))
    assert k.steps == 1
    for i in range(3):
        assert k.displacement(i, 0) == (2, 3)
        a = k.motion_link(i, 0)
        assert k.complex.branches[a] == (k.node_at(i, 0), k.node_at(i, 1))
    u = k.u
    assert u[k.motion_link(1, 0)] == (2, 3)


def test_identical_snapshots_give_zero_displacements(triangle):
    base = [(0, 0), (1, 0), (0, 1)]
    k = kin.build_kinematical_complex(snapshots_of(triangle, base, base, base))
    assert k.steps == 2
    assert all(
        k.displacement(i, a) == (0, 0) for i in range(3) for a in range(2)
    )
    trace = kin.spatial_trace(k)
    assert trace.complex.r == (3, 0, 0)  # degenerate: every node sits still


def test_snapshot_mismatch_rejected(triangle):
    other = hn.build_complex(["A", "B"], [("A", "B")])
    g0 = geo.GeometricComplex(complex=triangle, n=2, positions=[(0, 0), (1, 0), (0, 1)])
    g1 = geo.GeometricComplex(complex=other, n=2, positions=[(0, 0), (1, 0)])
    with pytest.raises(errors.SnapshotMismatch):
        kin.build_kinematical_complex([g0, g1])
    with pytest.raises(errors.SnapshotMismatch):
        kin.build_kinematical_complex([g0])


def test_structural_cycles_stay_homologous(triangle):
    base = [(0, 0), (4, 0), (2, 3)]
    squashed = [(0, 0), (5, 1), (1, 2)]
    k = kin.build_kinematical_complex(snapshots_of(triangle, base, squashed))
    loop = hn.Chain(triangle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert kin.verify_deformation_homology(k, loop, 0)


def test_motion_face_boundaries_are_cycles(triangle):
    base = [(0, 0), (4, 0), (2, 3)]
    squashed = [(0, 0), (5, 1), (1, 2)]
    k = kin.build_kinematical_complex(snapshots_of(triangle, base, squashed))
    for b in range(3):
        assert hn.is_cycle(k.motion_face_boundary(b, 0))


def test_cyclic_motion_closes_in_spatial_trace(triangle):
    # quarter turns returning to the start: the trace of each node is a loop
    base = np.array([(2, 0), (0, 2), (-2, 0)], dtype=float)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    frames = [base]
    for _ in range(4):
        frames.append(frames[-1] @ quarter.T)
    snaps = snapshots_of(triangle, *[[tuple(r) for r in f] for f in frames])
    k = kin.build_kinematical_complex(snaps)
    trace = kin.spatial_trace(k)
    assert hn.betti_numbers(trace.complex)[1] == 3  # one loop per node
    for i in range(3):
        assert trace.node_vertices[i][0] == trace.node_vertices[i][-1]


@pytest.mark.parametrize("unit", [1, Fraction(1, 3)], ids=["int", "fraction"])
def test_exact_snapshots_stay_exact(triangle, unit):
    frames = [
        [(0, 0), (3, 0), (0, 3)],
        [(2, 1), (3, 0), (0, 3)],
        [(0, 0), (3, 0), (0, 3)],
    ]
    # far from the origin, where rounding before differencing loses the steps
    far = 10**17
    scaled = [[(unit * (far + x), unit * (far + y)) for x, y in f] for f in frames]
    k = kin.build_kinematical_complex(snapshots_of(triangle, *scaled))
    assert k.positions.dtype == object
    assert k.displacement(0, 0) == (2 * unit, unit)
    assert k.displacement(0, 1) == (-2 * unit, -unit)
    u = k.u
    for i, a in itertools.product(range(3), range(2)):
        assert all(type(c) is type(unit) for c in k.displacement(i, a))
        assert all(type(c) is type(unit) for c in u[k.motion_link(i, a)])
    # node 0 returns to its start; nodes 1 and 2 sit still
    trace = kin.spatial_trace(k)
    assert trace.node_vertices == [[0, 1, 0], [2, 2, 2], [3, 3, 3]]
    assert trace.step_edges == {(0, 0): 0, (0, 1): 1}
    work = dyn.work_values(k, {i: np.ones((2, 2)) for i in range(3)})
    assert work[0].tolist() == [float(3 * unit), float(-3 * unit)]


def test_float_snapshots_give_a_float_array(triangle):
    frames = [[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0.5, 0.0), (1.0, 0.0), (0.0, 1.5)]]
    k = kin.build_kinematical_complex(snapshots_of(triangle, *frames))
    assert k.positions.dtype == float
    assert k.positions.shape == (2, 3, 2)
    assert k.displacement(2, 0) == (0.0, 0.5)


@settings(deadline=None)
@given(motions())
def test_spatial_trace_identifies_revisited_positions(k):
    trace = kin.spatial_trace(k)
    seen = set()
    for i, vertices in enumerate(trace.node_vertices):
        spots = [tuple(x) for x in k.positions[:, i]]
        for a, b in itertools.combinations(range(k.steps + 1), 2):
            assert (vertices[a] == vertices[b]) == (spots[a] == spots[b])
        for a in range(k.steps):
            edge = trace.step_edges.get((i, a))
            assert (edge is None) == (spots[a] == spots[a + 1])
            if edge is not None:
                assert trace.complex.branches[edge] == (vertices[a], vertices[a + 1])
        assert seen.isdisjoint(vertices)
        seen.update(vertices)
    assert trace.complex.r[0] == len(seen)


def dict_numbered_trace(k):
    """The per-sample numbering ``spatial_trace`` replaced, kept as its
    oracle: each coordinate tuple looked up in a dict per node.  Returns
    (vertex numbers per node, chord count)."""
    vertex_of, chords, top = [], 0, 0
    for i in range(k.base.r[0]):
        seen = {}
        per_time = [
            seen.setdefault(pos, top + len(seen))
            for pos in map(tuple, k.positions[:, i].tolist())
        ]
        top += len(seen)
        steps = sum(map(int.__ne__, per_time, per_time[1:]))
        chords += steps - (len(seen) - 1)
        vertex_of.append(per_time)
    return vertex_of, chords


SIGNED_ZEROS = st.sampled_from((0.0, -0.0))


@settings(deadline=None)
@given(st.one_of(
    motions(),
    motions(coordinates=st.one_of(SIGNED_ZEROS, st.floats(-2, 2, allow_nan=False))),
    motions(coordinates=EXACT_COORDINATES),
))
def test_spatial_trace_matches_the_dict_numbering(k):
    # float and exact positions, revisits, zero steps, and 0.0 == -0.0
    trace = kin.spatial_trace(k)
    assert (trace.node_vertices, trace.chords) == dict_numbered_trace(k)
    assert trace.vertices.tolist() == trace.node_vertices


@pytest.mark.parametrize(
    "path",
    [
        [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0]],
        [[math.nan, 0.0], [math.nan, 0.0], [0.0, 0.0], [math.nan, 0.0]],
        [[0.0, math.nan], [1.0, 1.0], [0.0, math.nan], [1.0, 1.0]],
        [[Fraction(1, 2), 0], [0.5, 0], [Fraction(1, 2), Fraction(0)], [1, 2]],
    ],
    ids=["signed-zeros", "nan-rows", "nan-second-coordinate", "exact"],
)
def test_spatial_trace_matches_the_dict_numbering_on_examples(path):
    # a position holding a NaN equals none, not even itself
    floats = all(type(c) is float for p in path for c in p)
    positions = np.empty((len(path), 2, 2), dtype=float if floats else object)
    positions[:, 0] = path
    positions[:, 1] = path[::-1]
    k = kin.KinematicalComplex(base=hn.build_complex(["P", "Q"], []), positions=positions)
    trace = kin.spatial_trace(k)
    assert (trace.node_vertices, trace.chords) == dict_numbered_trace(k)
