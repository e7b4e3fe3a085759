import importlib.util
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import homnet as hn
from homnet import exact
from homnet import geometry as geo
from homnet import kinematics as kin


@pytest.fixture
def circle():
    """Three nodes on a loop: branches AB, AC, BC."""
    return hn.build_complex(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])


def triangulated_disc():
    """Triangulated disc: rim ABC with interior node D and three faces."""
    return hn.build_complex(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")],
        faces=[("A", "B", "D"), ("B", "C", "D"), ("A", "D", "C")],
    )


@pytest.fixture
def disc():
    return triangulated_disc()


@pytest.fixture
def circle_geo(circle):
    return geo.realize(circle, 2, {"A": (0, 0), "B": (1, 0), "C": (0, 1)})


@pytest.fixture
def triangle_geo():
    cx = hn.build_complex(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])
    return geo.realize(cx, 2, {"A": (0, 0), "B": (4, 0), "C": (2, 3)})


@pytest.fixture
def rectangle_geo():
    cx = hn.build_complex(
        ["A", "B", "C", "D"],
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")],
    )
    return geo.realize(cx, 2, {"A": (0, 0), "B": (1, 0), "C": (1, 1), "D": (0, 1)})


@pytest.fixture
def tetra_geo():
    """Projection of the tetrahedron 1-skeleton: triangle plus its centroid,
    at integer coordinates so everything downstream stays exact."""
    cx = hn.build_complex(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")],
    )
    return geo.realize(cx, 2, {"A": (0, 0), "B": (4, 0), "C": (2, 3), "D": (2, 1)})


def real_projective_plane():
    """Minimal 6-vertex triangulation of the projective plane (the antipodal
    quotient of the icosahedron); its first homology has 2-torsion."""
    faces = [
        (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
    ]
    verts = [f"v{i}" for i in range(6)]
    edges = sorted({tuple(sorted(e)) for f in faces for e in itertools.combinations(f, 2)})
    return hn.build_complex(
        verts,
        [(verts[a], verts[b]) for a, b in edges],
        faces=[tuple(verts[i] for i in f) for f in faces],
    )


@pytest.fixture
def projective_plane():
    return real_projective_plane()


def tetrahedron_surface():
    """Boundary of the tetrahedron, a closed sphere: one 2-cycle, no H1."""
    verts = ["A", "B", "C", "D"]
    return hn.build_complex(
        verts,
        list(itertools.combinations(verts, 2)),
        faces=list(itertools.combinations(verts, 3)),
    )


def dense(vec, n):
    """A sparse vector ``{column: value}`` as the list of its n entries."""
    return [vec.get(c, 0) for c in range(n)]


def boundary_test(cx, coeffs):
    test = hn.is_boundary(hn.Chain(cx, 1, coeffs, hn.RATIONAL))
    if not test.bounds:
        return None
    return test.witness.module, {f: (type(v), v) for f, v in test.witness.coeffs.items()}


def face_answers(cx, chains):
    """Every answer homology reads from the boundary on faces, and the
    boundary tests of the chains given by their coefficients."""
    return (
        hn.betti_numbers(cx),
        hn.torsion_coefficients(cx),
        [z.coeffs for z in hn.homology_generators(cx, 1)] if cx.dim >= 1 else [],
        [z.coeffs for z in hn.cycle_basis(cx, 2)],
        [boundary_test(cx, coeffs) for coeffs in chains],
    )


def greedy_generators(cx, cycles):
    """The cycles the greedy selection keeps: each one that raises the rank
    of the face boundaries stacked with the cycles kept before it."""
    stack = list(cx.incidence_2)
    current = exact.rank(stack) if stack else 0
    kept = []
    for z in cycles:
        candidate = stack + [[z.get(a, 0) for a in range(cx.r[1])]]
        if exact.rank(candidate) > current:
            kept.append(z)
            stack, current = candidate, current + 1
    return kept


def dense_face_answers(cx, chains):
    """``face_answers`` read from dense eliminations of the incidence
    matrices: ranks, nullspaces and solves by ``exact``, torsion by the
    Smith form of the whole boundary on faces, and the H1 generators by the
    greedy rank selection over the nullspace basis of the boundary on
    branches."""
    r0, r1, r2 = cx.r
    rank_1 = exact.rank(cx.incidence_1) if r1 else 0
    rank_2 = exact.rank(cx.incidence_2) if r2 else 0
    betti = [r0 - rank_1, r1 - rank_1 - rank_2, r2 - rank_2][: cx.dim + 1]
    torsion = [[] for _ in range(cx.dim + 1)]
    boundary_2 = [list(col) for col in zip(*cx.incidence_2)]
    if r2:
        torsion[1] = [d for d in exact.smith_normal_form(cx.incidence_2).d if d > 1]
    generators = []
    if cx.dim >= 1:
        boundary_1 = [list(col) for col in zip(*cx.incidence_1)]
        cycles = exact.nullspace(boundary_1)
        generators = greedy_generators(cx, cycles)
    two_cycles = exact.nullspace(boundary_2) if r2 else []
    tests = []
    for coeffs in chains:
        if not r2:
            tests.append(None if any(coeffs.values()) else (hn.RATIONAL, {}))
            continue
        x = exact.solve(boundary_2, [coeffs.get(a, 0) for a in range(r1)])[0]
        tests.append(
            None if x is None
            else (hn.RATIONAL, {f: (Fraction, v) for f, v in enumerate(x) if v})
        )
    return betti, torsion, generators, two_cycles, tests


def fresh_copy(cx):
    """The same complex with nothing cached."""
    return hn.Complex(cx.node_labels, cx.branches, cx.faces,
                      branch_labels=cx.branch_labels, face_labels=cx.face_labels)


def disjoint_union(first, second):
    """The two complexes side by side, the second's labels primed."""
    r0, r1 = first.r[0], first.r[1]
    return hn.Complex(
        first.node_labels + [f"{lab}'" for lab in second.node_labels],
        first.branches + [(t + r0, h + r0) for t, h in second.branches],
        first.faces + [tuple((b + r1, s) for b, s in f) for f in second.faces],
        branch_labels=first.branch_labels + [f"{lab}'" for lab in second.branch_labels],
        face_labels=first.face_labels + [f"{lab}'" for lab in second.face_labels],
    )


def triangulated_grid(k, holes=()):
    """The k x k node grid with every cell split by its rising diagonal into
    two triangles, numbered cell by cell, lower one first.  The triangles
    whose numbers are in ``holes`` are left out but all branches stay, so
    each is a hole of its own and b1 = len(holes)."""
    node = "n{}_{}".format
    nodes = [node(i, j) for i in range(k) for j in range(k)]
    branches = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                branches.append((node(i, j), node(i + 1, j)))
            if j + 1 < k:
                branches.append((node(i, j), node(i, j + 1)))
            if i + 1 < k and j + 1 < k:
                branches.append((node(i, j), node(i + 1, j + 1)))
    faces = []
    for i in range(k - 1):
        for j in range(k - 1):
            faces.append((node(i, j), node(i + 1, j), node(i + 1, j + 1)))
            faces.append((node(i, j), node(i + 1, j + 1), node(i, j + 1)))
    holes = set(holes)
    faces = [f for t, f in enumerate(faces) if t not in holes]
    return hn.build_complex(nodes, branches, faces=faces)


def jittered_grid_truss(k):
    """The triangulated k x k grid at integer positions jittered by up to 3
    from a lattice of pitch 10, with no triangle degenerate."""
    cx = triangulated_grid(k)
    positions = {
        f"n{i}_{j}": (10 * i + (i * i + 3 * j) % 7 - 3, 10 * j + (5 * i + j * j) % 7 - 3)
        for i in range(k)
        for j in range(k)
    }
    g = geo.realize(cx, 2, positions)
    for edges in cx.faces:
        p, q, r = (g.positions[v] for v in {v for b, _ in edges for v in cx.branches[b]})
        assert (q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0])
    return g


def float_grid_truss(k):
    """The triangulated k x k grid of pitch 10, every coordinate jittered by
    a float in [-0.4, 0.4]: positions whose differences floats round."""
    rng = random.Random(k)
    positions = {
        f"n{i}_{j}": (10 * i + rng.uniform(-0.4, 0.4), 10 * j + rng.uniform(-0.4, 0.4))
        for i in range(k)
        for j in range(k)
    }
    return geo.realize(triangulated_grid(k), 2, positions)


def closed_surface(k, twist=False):
    """The k x k node grid of ``triangulated_grid`` closed up into a torus,
    or, with ``twist``, into a Klein bottle: column k is column 0, and row k
    is row 0, turned upside down when twisted."""
    def node(i, j):
        i, j = i % (2 * k), j % k
        if i >= k:
            i -= k
            if twist:
                j = k - 1 - j
        return f"n{i}_{j}"

    nodes = [node(i, j) for i in range(k) for j in range(k)]
    index = {lab: t for t, lab in enumerate(nodes)}
    faces = []
    for i in range(k):
        for j in range(k):
            faces.append((node(i, j), node(i + 1, j), node(i + 1, j + 1)))
            faces.append((node(i, j), node(i + 1, j + 1), node(i, j + 1)))
    sides = {tuple(sorted(e, key=index.get)) for f in faces for e in itertools.combinations(f, 2)}
    return hn.build_complex(nodes, sorted(sides, key=lambda e: (index[e[0]], index[e[1]])),
                            faces=faces)


def random_complex(rng, max_nodes=7, with_faces=True):
    """Random small complex; faces (when requested) are triangles whose three
    edges exist, so the boundary-of-boundary identity holds by construction."""
    r0 = rng.randint(1, max_nodes)
    labels = [f"n{i}" for i in range(r0)]
    branches = []
    if r0 >= 2:
        for _ in range(rng.randint(0, 2 * r0)):
            tail = rng.randrange(r0)
            head = rng.randrange(r0)
            if tail != head:
                branches.append((labels[tail], labels[head]))
    faces = []
    if with_faces and r0 >= 3 and branches:
        present = {}
        for a, (t, h) in enumerate(branches):
            present.setdefault(frozenset((t, h)), (t, h))
        for combo in itertools.combinations(range(r0), 3):
            t1, t2, t3 = (labels[i] for i in combo)
            if (
                frozenset((t1, t2)) in present
                and frozenset((t2, t3)) in present
                and frozenset((t1, t3)) in present
                and rng.random() < 0.4
            ):
                faces.append((t1, t2, t3))
    names = [f"b{k}" for k in range(len(branches))]
    return hn.build_complex(labels, branches, faces=faces, branch_labels=names)


@st.composite
def complexes(draw, max_nodes=7, with_faces=True):
    """Hypothesis strategy for the complexes random_complex draws: directed
    multigraphs (parallel and antiparallel branches allowed) with, when
    requested, some of the triangles whose three sides exist as faces."""
    r0 = draw(st.integers(1, max_nodes))
    labels = [f"n{i}" for i in range(r0)]
    ends = st.tuples(st.integers(0, r0 - 1), st.integers(0, r0 - 1))
    pairs = draw(st.lists(ends.filter(lambda p: p[0] != p[1]), max_size=2 * r0))
    branches = [(labels[t], labels[h]) for t, h in pairs]
    sides = {frozenset(p) for p in pairs}
    faces = []
    if with_faces:
        for combo in itertools.combinations(range(r0), 3):
            closed = all(frozenset(e) in sides for e in itertools.combinations(combo, 2))
            if closed and draw(st.booleans()):
                faces.append(tuple(labels[i] for i in combo))
    names = [f"b{k}" for k in range(len(branches))]
    return hn.build_complex(labels, branches, faces=faces, branch_labels=names)


@st.composite
def frameworks(draw, coordinates, max_nodes=6, dims=(1, 2, 3)):
    """Hypothesis strategy: a face-free complexes() draw realized in one of
    ``dims`` dimensions at pairwise-distinct positions, each coordinate
    drawn from ``coordinates``."""
    cx = draw(complexes(max_nodes=max_nodes, with_faces=False))
    n = draw(st.sampled_from(dims))
    points = st.tuples(*[coordinates] * n)
    spots = draw(st.lists(points, min_size=cx.r[0], max_size=cx.r[0], unique=True))
    return geo.realize(cx, n, spots)


FLOAT_COORDINATES = st.floats(-1e6, 1e6, allow_nan=False)
# small ints and Fractions, with both float zeros mixed in, so that equal
# positions recur and 0 == 0.0 == -0.0 == Fraction(0) is exercised
EXACT_COORDINATES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.sampled_from((0.0, -0.0)),
)


@st.composite
def motions(draw, max_nodes=3, max_steps=8, coordinates=FLOAT_COORDINATES):
    """Hypothesis strategy: a motion of a face-free complexes() draw in
    n = 1, 2 or 3 dimensions.  Each node moves among a few positions of its
    own, so positions are revisited and some steps are zero.  Coordinates
    are finite floats by default; when ``coordinates`` draws anything else
    (ints, Fractions) the positions are an object array, as exact documents
    give."""
    cx = draw(complexes(max_nodes=max_nodes, with_faces=False))
    n = draw(st.sampled_from((1, 2, 3)))
    samples = draw(st.integers(2, max_steps + 1))
    walks = []
    for _ in range(cx.r[0]):
        spots = draw(st.lists(st.tuples(*[coordinates] * n), min_size=1, max_size=3))
        walks.append(draw(st.lists(st.sampled_from(spots), min_size=samples,
                                   max_size=samples)))
    rows = [[walk[a] for walk in walks] for a in range(samples)]
    floats = all(type(c) is float for walk in walks for p in walk for c in p)
    positions = np.empty((samples, cx.r[0], n), dtype=float if floats else object)
    positions[...] = rows
    return kin.KinematicalComplex(base=cx, positions=positions)


# the tolerance of each sampled analysis that trajectory_document() asks
# for: free fall is quadratic in time, which the sampled derivatives
# reproduce exactly; on a circle the one-sided end stencils of the momentum
# rate err by about m R w^3 dt, so the balances that read the end samples
# get 5e-2
SAMPLED_COMMANDS = ("momentum", "angular", "dalembert", "energy", "mass")
TRAJECTORY_TOLERANCES = {
    "freefall": dict.fromkeys(SAMPLED_COMMANDS, 1e-6),
    "circular": {**dict.fromkeys(SAMPLED_COMMANDS, 1e-6),
                 "momentum": 5e-2, "dalembert": 5e-2},
}


def trajectory_document(rng, kind, particles, samples, dt=1e-3, gravity=9.81):
    """The JSON text of unconnected particles of constant mass sampled every
    ``dt``, requesting every sampled analysis: a free fall under gravity
    from near the origin (kind "freefall"), or uniform circular motion
    under its centripetal force (kind "circular")."""
    times = [a * dt for a in range(samples)]
    nodes = []
    for p in range(particles):
        m = float(rng.randint(1, 2))
        if kind == "freefall":
            x0, y0 = rng.uniform(-2, 2), rng.uniform(1, 5)
            vx, vy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            pos = [[x0 + vx * t, y0 + vy * t - 0.5 * gravity * t**2] for t in times]
            force = [0.0, -m * gravity]
        else:
            radius, omega = rng.uniform(1, 1.5), rng.uniform(0.6, 0.9)
            phase = rng.uniform(0, 2 * math.pi)
            pos = [[radius * math.cos(omega * t + phase),
                    radius * math.sin(omega * t + phase)] for t in times]
            force = [[-m * omega**2 * x, -m * omega**2 * y] for x, y in pos]
        nodes.append({"id": f"P{p}", "pos": pos, "mass": m, "force": force})
    return json.dumps({
        "dimension": 2,
        "signal": {"dt": dt, "samples": samples},
        "nodes": nodes,
        "branches": [],
        "analyses": [
            {"command": c, "tolerance": TRAJECTORY_TOLERANCES[kind][c]}
            for c in SAMPLED_COMMANDS
        ],
    })


def random_chain(rng, cx, dim, module=None, span=9):
    module = module or hn.INTEGER
    values = {}
    for i in range(cx.r[dim]):
        if rng.random() < 0.6:
            values[i] = rng.randint(-span, span)
    if module is hn.RATIONAL:
        values = {
            i: Fraction(v, rng.randint(1, 7)) for i, v in values.items()
        }
    return hn.Chain(cx, dim, values, module)


def random_cochain(rng, cx, dim, module=None, span=9):
    module = module or hn.INTEGER
    values = {}
    for i in range(cx.r[dim]):
        if rng.random() < 0.6:
            values[i] = rng.randint(-span, span)
    if module is hn.RATIONAL:
        values = {
            i: Fraction(v, rng.randint(1, 7)) for i, v in values.items()
        }
    return hn.Cochain(cx, dim, values, module)


@pytest.fixture
def rng():
    return random.Random(180451)


def load_perfbench(name):
    """A module of the benchmark harness, loaded from its file under a name
    of its own, so the harness is exercised exactly as committed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
