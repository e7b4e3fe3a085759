"""Deformation sequences of a structural complex.

A motion is one array of node positions per snapshot.  The kinematical
complex, built only when asked for, joins every node of each snapshot to its
successor by a motion link carrying the step displacement.  The spatial trace
projects a node's motion links onto space: each node's motion becomes a walk
over its distinct positions, where revisits close loops.  Work and
conservativity checks live on that projection; they read the walks directly
and build the trace as a complex only when some walk closes a loop.  The
walks are handled as whole arrays: one stable sort of every (node, position)
row numbers all distinct positions at once, for float and exact (object)
positions alike, with no lookup per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .chains import Chain, Cochain, coboundary
from .coeffs import INTEGER, series_derivative, vector
from .complexes import Complex
from .errors import RangeError, SnapshotMismatch, TooFewSamples


@dataclass
class KinematicalComplex:
    """A motion of a base complex: ``positions[a, i]`` is node i at snapshot a.

    The array has shape (steps + 1, r0, n).  It is a float array for float
    coordinates and an object array otherwise, so int and ``Fraction``
    displacements stay exact, types included.  ``complex`` (every snapshot's
    nodes and branches plus one motion link per node per step) is built on
    first use; ``u`` is the displacement cochain on its motion links.
    """

    base: Complex
    positions: object  # numpy array of shape (steps + 1, r0, n)

    def __post_init__(self):
        if len(self.positions) < 2:
            raise SnapshotMismatch("need at least two snapshots")

    @property
    def steps(self):
        return len(self.positions) - 1

    @property
    def n(self):
        return self.positions.shape[2]

    def node_at(self, i, a):
        return a * self.base.r[0] + i

    def structural_branch(self, b, a):
        return a * self.base.r[1] + b

    def motion_link(self, i, a):
        return (self.steps + 1) * self.base.r[1] + a * self.base.r[0] + i

    @cached_property
    def complex(self):
        """Copies ``lab@a`` of the base, then motion links ``lab@a->a+1``,
        indexed by ``node_at``, ``structural_branch`` and ``motion_link``."""
        base, r0, times = self.base, self.base.r[0], range(self.steps + 1)
        nodes = [f"{lab}@{a}" for a in times for lab in base.node_labels]
        ends = [(a * r0 + t, a * r0 + h) for a in times for t, h in base.branches]
        labels = [f"{lab}@{a}" for a in times for lab in base.branch_labels]
        for a in range(self.steps):
            ends += [(a * r0 + i, (a + 1) * r0 + i) for i in range(r0)]
            labels += [f"{lab}@{a}->{a + 1}" for lab in base.node_labels]
        return Complex(nodes, ends, branch_labels=labels)

    def displacement(self, i, a):
        """Step displacement u(i)(a) = x_{a+1}(i) - x_a(i)."""
        return tuple((self.positions[a + 1, i] - self.positions[a, i]).tolist())

    @property
    def u(self):
        values = {
            self.motion_link(i, a): self.displacement(i, a)
            for a in range(self.steps)
            for i in range(self.base.r[0])
        }
        return Cochain(self.complex, 1, values, vector(self.n))

    def snapshot_cycle(self, chain, a):
        """Copy a 1-chain of the base structural complex into snapshot a."""
        values = {
            self.structural_branch(b, a): v for b, v in chain.coeffs.items()
        }
        return Chain(self.complex, 1, values, chain.module)

    def motion_face_boundary(self, b, a):
        """Boundary 1-chain of the (materialized on demand) quadrilateral face
        swept by structural branch b during step a.

        The four sides are the branch copy at a+1, minus the copy at a, plus
        the tail's motion link, minus the head's motion link; the result is
        always a 1-cycle.
        """
        tail, head = self.base.branches[b]
        values = {
            self.structural_branch(b, a + 1): 1,
            self.structural_branch(b, a): -1,
            self.motion_link(tail, a): 1,
            self.motion_link(head, a): -1,
        }
        return Chain(self.complex, 1, values, INTEGER)


def build_kinematical_complex(snapshots):
    """Join two or more equally shaped snapshots into a kinematical complex."""
    import numpy as np

    snapshots = list(snapshots)
    base = snapshots[0].complex if snapshots else None
    for g in snapshots[1:]:
        if g.complex.r[:2] != base.r[:2] or g.complex.branches != base.branches:
            raise SnapshotMismatch("snapshots must share node and branch structure")
        if g.n != snapshots[0].n:
            raise SnapshotMismatch("snapshots must share the ambient dimension")
    coords = [g.positions for g in snapshots]
    floats = all(isinstance(c, float) for p in coords for x in p for c in x)
    return KinematicalComplex(base, np.array(coords, dtype=float if floats else object))


def verify_deformation_homology(k, loop_chain, a):
    """Check the vector-homology relation: the structural loop's copy at
    step a+1 minus its copy at a equals the boundary of the swept faces."""
    swept = None
    for b, coef in loop_chain.coeffs.items():
        term = k.motion_face_boundary(b, a).scaled(coef)
        swept = term if swept is None else swept + term
    target = k.snapshot_cycle(loop_chain, a + 1) - k.snapshot_cycle(loop_chain, a)
    return swept == target


# ---------------------------------------------------------------------------
# spatial trace
# ---------------------------------------------------------------------------

@dataclass
class SpatialTrace:
    """Projection of the motion onto space, one walk per node; revisited
    positions are identified, so closed trajectories become loops.

    ``vertices[i, a]`` is the trace vertex of node i at time a, an int
    array of shape (r0, steps + 1); ``node_vertices`` is the same as nested
    lists.  Each node's vertices are numbered in the order the walk first
    visits them, after those of the nodes before it, so the walks share no
    vertex.  A nonzero step is a trace branch, numbered in (node, time)
    order by ``step_edges``; a step whose head is first visited at that
    step is a branch of the spanning forest, and any other nonzero step is
    a chord that closes a loop.  ``chords`` is their number, the first
    Betti number of the trace.  ``complex`` is built on first use; a trace
    without chords is a forest, and the work checks never ask for it.
    """

    base_labels: list
    vertices: object  # int array of shape (r0, steps + 1)
    chords: int

    @cached_property
    def node_vertices(self):
        return self.vertices.tolist()

    @cached_property
    def step_edges(self):
        """(i, a) -> trace branch index of each nonzero step."""
        edges = {}
        for i, per_time in enumerate(self.node_vertices):
            for a in range(len(per_time) - 1):
                if per_time[a] != per_time[a + 1]:
                    edges[(i, a)] = len(edges)
        return edges

    @cached_property
    def complex(self):
        """Vertices ``lab@pj`` (node lab's j-th distinct position), then one
        branch ``lab@a->a+1`` per nonzero step, indexed by ``step_edges``."""
        labels = [
            f"{lab}@p{j}"
            for lab, per_time in zip(self.base_labels, self.node_vertices)
            for j in range(max(per_time) - per_time[0] + 1)
        ]
        endpoints = []
        branch_labels = []
        for i, a in self.step_edges:
            per_time = self.node_vertices[i]
            endpoints.append((per_time[a], per_time[a + 1]))
            branch_labels.append(f"{self.base_labels[i]}@{a}->{a + 1}")
        return Complex(labels, endpoints, branch_labels=branch_labels)


def spatial_trace(k):
    """Read each node's column of ``k.positions`` as a walk.  Two positions
    are one vertex when every coordinate compares equal, as coordinate
    tuples do: -0.0 is 0.0, and a position with a NaN equals none, not
    even itself.

    All walks are numbered at once, float and exact positions alike.  The
    rows (node, position) in (node, time) order are sorted by one stable
    ``np.lexsort``, which brings equal rows together with the earliest
    first; that row of each run is a first visit, and a cumsum over the
    first visits, in (node, time) order, numbers the vertices."""
    import numpy as np

    times, r0, n = k.positions.shape
    walks = k.positions.transpose(1, 0, 2).reshape(r0 * times, n)
    rows = np.concatenate((np.arange(r0).repeat(times)[:, None], walks), axis=1)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.empty(len(rows), dtype=bool)  # the first row of each run
    starts[:1] = True
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first_visits = order[starts]
    visited = np.zeros(len(rows), dtype=bool)
    visited[first_visits] = True
    number = visited.cumsum() - 1  # the vertex first visited at each row
    vertices = np.empty(len(rows), dtype=int)
    vertices[order] = number[first_visits][starts.cumsum() - 1]
    vertices = vertices.reshape(r0, times)
    steps = int(np.count_nonzero(vertices[:, 1:] != vertices[:, :-1]))
    # every vertex after a walk's first is reached by exactly one forest step
    chords = steps - (len(first_visits) - r0)
    return SpatialTrace(list(k.base.node_labels), vertices, chords)


# ---------------------------------------------------------------------------
# sampled kinematical states
# ---------------------------------------------------------------------------

@dataclass
class KinematicalState:
    """Absolute state (positions, velocities, accelerations per node) and its
    relative counterpart (their coboundaries per branch) at one sample."""

    t: float
    x: Cochain
    v: Cochain
    a: Cochain
    s: Cochain
    s_dot: Cochain
    s_ddot: Cochain


def kinematical_state(complex, trajectories, dt, t_index):
    """Differentiate sampled node trajectories and assemble the state.

    ``trajectories`` maps node index -> array of shape (samples, n).  The
    relative state is the coboundary (``chains.coboundary``) of the
    absolute one, so differentiation and coboundary commute by
    construction; a complex without branches has none, and raises
    ``DimensionMismatch``.  A sample index outside the series raises
    ``RangeError``.
    """
    import numpy as np

    r0 = complex.r[0]
    arrays = [np.asarray(trajectories[i], dtype=float) for i in range(r0)]
    samples = arrays[0].shape[0]
    if samples < 3:
        raise TooFewSamples("second derivatives need at least 3 samples")
    n = arrays[0].shape[1]
    for arr in arrays:
        if arr.shape != (samples, n):
            raise SnapshotMismatch("trajectories must share shape")
    if not (0 <= t_index < samples):
        raise RangeError(f"sample index {t_index} outside 0..{samples - 1}")

    vel = [series_derivative(arr, dt) for arr in arrays]
    acc = [series_derivative(v, dt) for v in vel]
    mod = vector(n)

    def cochain0(source):
        values = {i: tuple(source[i][t_index].tolist()) for i in range(r0)}
        return Cochain(complex, 0, values, mod)

    x = cochain0(arrays)
    v = cochain0(vel)
    a = cochain0(acc)
    return KinematicalState(
        t=t_index * dt, x=x, v=v, a=a,
        s=coboundary(x), s_dot=coboundary(v), s_ddot=coboundary(a),
    )
