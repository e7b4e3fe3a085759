"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a list of ``Case``:
the document text the program receives, plus the generator's own truth
(``expect``) that the checkers in ``checks.py`` compare the reports with.
The same seed always yields the same texts.

Size schedules are fixed per workload and only the values inside a
document (coordinates, loads, voltages, holes, motion parameters) are
seeded, so runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# k of each document in one corpus pass, smallest first
GRID_STATICS_K = (4,) * 5 + (5,) * 6 + (6,) * 2 + (7,) * 3
GRID_HOMOLOGY_K = (3,) * 6 + (4,) * 12 + (5,) * 1 + (6,) * 5
# (motion, particles, samples) of each trajectory document in one corpus pass
TRAJECTORY_DOCS = (
    (("freefall", 2, 400),) * 3
    + (("circular", 3, 500),) * 5
    + (("freefall", 4, 700),) * 2
)
TRAJECTORY_DT = 0.001
GRAVITY = 9.81


@dataclass
class Case:
    name: str
    text: str
    expect: dict = field(default_factory=dict)


def _dumps(doc):
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def fixture_cases(root, rng, goldens):
    """The committed fixtures in a seeded order; each expects its golden
    ``report-all`` text bytes."""
    paths = sorted(Path(root, "fixtures").glob("*.json"))
    rng.shuffle(paths)
    return [
        Case(p.stem, p.read_text(), {"golden": goldens[p.stem]}) for p in paths
    ]


# ---------------------------------------------------------------------------
# triangulated grids
# ---------------------------------------------------------------------------

def _node(i, j):
    return f"n{i}_{j}"


def grid_triangles(k):
    """The node ids of each triangle of the k x k grid."""
    for i in range(k - 1):
        for j in range(k - 1):
            yield _node(i, j), _node(i + 1, j), _node(i + 1, j + 1)
            yield _node(i, j), _node(i + 1, j + 1), _node(i, j + 1)


def twice_area(p, q, r):
    """Twice the signed area of triangle pqr; 0 when the points are collinear."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def grid_complex(rng, k, spacing=10, jitter=3):
    """A k x k node grid, every cell split by one diagonal.

    Coordinates are integers perturbed by at most ``jitter`` from a lattice
    of pitch ``spacing``.  The perturbation can make three corners of a
    triangle collinear, so positions are drawn again until no triangle
    degenerates; only then is the truss infinitesimally rigid, as the
    statics check assumes.  Each branch gets a random orientation.  Returns
    positions (id -> (x, y)), branches (id, tail, head) and faces (id,
    [signed branch ids]), faces oriented counter-clockwise.
    """
    while True:
        pos = {
            _node(i, j): (
                spacing * i + rng.randint(-jitter, jitter),
                spacing * j + rng.randint(-jitter, jitter),
            )
            for i in range(k)
            for j in range(k)
        }
        if all(twice_area(*(pos[n] for n in t)) != 0 for t in grid_triangles(k)):
            break
    branches = []
    flipped = {}

    def add(bid, a, b):
        flip = rng.random() < 0.5
        flipped[bid] = flip
        branches.append((bid, b, a) if flip else (bid, a, b))

    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                add(f"h{i}_{j}", _node(i, j), _node(i + 1, j))
            if j + 1 < k:
                add(f"v{i}_{j}", _node(i, j), _node(i, j + 1))
            if i + 1 < k and j + 1 < k:
                add(f"d{i}_{j}", _node(i, j), _node(i + 1, j + 1))

    def signed(bid, sign):
        s = -sign if flipped[bid] else sign
        return ("-" if s < 0 else "") + bid

    faces = []
    for i in range(k - 1):
        for j in range(k - 1):
            # (i,j) -> (i+1,j) -> (i+1,j+1) -> (i,j)
            faces.append((f"lo{i}_{j}", [
                signed(f"h{i}_{j}", 1), signed(f"v{i + 1}_{j}", 1),
                signed(f"d{i}_{j}", -1),
            ]))
            # (i,j) -> (i+1,j+1) -> (i,j+1) -> (i,j)
            faces.append((f"up{i}_{j}", [
                signed(f"d{i}_{j}", 1), signed(f"h{i}_{j + 1}", -1),
                signed(f"v{i}_{j}", -1),
            ]))
    return pos, branches, faces


def face_boundary(face_edges):
    """Branch -> coefficient of a face's boundary 1-chain."""
    out = {}
    for ref in face_edges:
        sign, bid = (-1, ref[1:]) if ref.startswith("-") else (1, ref)
        out[bid] = out.get(bid, 0) + sign
    return out


def grid_statics_case(rng, k):
    """Truss with equilibrated integer loads, integer voltages and a current
    cycle.  Loads are f = -A q for random integer tension coefficients q,
    so statics is feasible; the current is an integer sum of triangle
    boundaries, so KCL holds; drops come from voltages, so KVL holds."""
    pos, branches, faces = grid_complex(rng, k)
    force = {n: [0, 0] for n in pos}
    for bid, t, h in branches:
        q = rng.randint(-5, 5)
        s = (pos[h][0] - pos[t][0], pos[h][1] - pos[t][1])
        for c in range(2):
            force[h][c] -= q * s[c]
            force[t][c] += q * s[c]
    current = {bid: 0 for bid, _, _ in branches}
    for _, edges in faces:
        weight = rng.randint(-3, 3)
        for bid, coef in face_boundary(edges).items():
            current[bid] += weight * coef
    doc = {
        "dimension": 2,
        "nodes": [
            {"id": n, "pos": list(p), "voltage": rng.randint(-50, 50),
             "force": force[n]}
            for n, p in pos.items()
        ],
        "branches": [
            {"id": bid, "tail": t, "head": h, "current": current[bid]}
            for bid, t, h in branches
        ],
        "analyses": [
            {"command": c} for c in ("kcl", "kvl", "statics", "rigidity")
        ],
    }
    return Case(f"statics-k{k}", _dumps(doc), {"k": k})


def grid_homology_case(rng, k):
    """Triangulated grid with some triangles removed.  All branches stay, so
    every removed triangle is its own hole and b1 equals their count."""
    pos, branches, faces = grid_complex(rng, k)
    holes = rng.randint(1, k)
    removed = set(rng.sample(range(len(faces)), holes))
    doc = {
        "dimension": 2,
        "nodes": [{"id": n, "pos": list(p)} for n, p in pos.items()],
        "branches": [{"id": b, "tail": t, "head": h} for b, t, h in branches],
        "faces": [
            {"id": fid, "edges": edges}
            for f, (fid, edges) in enumerate(faces) if f not in removed
        ],
        "analyses": ["homology"],
    }
    return Case(f"homology-k{k}", _dumps(doc), {"k": k, "holes": holes})


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

TRAJECTORY_COMMANDS = ("momentum", "angular", "dalembert", "energy", "mass")

# what each motion is built to show; mass is conserved in both, so its
# correct verdict is pass
TRAJECTORY_VERDICTS = {
    "freefall": dict.fromkeys(TRAJECTORY_COMMANDS, "pass"),
    # the centripetal force does work along the sampled chords, so the
    # work-energy gap (about m w^4 R^2 dt^2 N / 2 >= 3e-5) exceeds tolerance
    "circular": {**dict.fromkeys(TRAJECTORY_COMMANDS, "pass"), "energy": "fail"},
}

# Free fall is quadratic in time, which the sampled derivatives reproduce
# exactly, so every check runs at 1e-6.  On a circle the one-sided end
# stencils of the momentum rate err by about m R w^3 dt per particle
# (<= 3e-3), so the balances that include the end samples get 5e-2.
TRAJECTORY_TOLERANCES = {
    "freefall": dict.fromkeys(TRAJECTORY_COMMANDS, 1e-6),
    "circular": {**dict.fromkeys(TRAJECTORY_COMMANDS, 1e-6),
                 "momentum": 5e-2, "dalembert": 5e-2},
}


def trajectory_case(rng, kind, particles, samples):
    """Unconnected particles with constant masses, sampled at TRAJECTORY_DT.

    Free fall starts near the origin (|x| <= 5, |v| <= 1) so rounding in the
    twice-differenced positions stays far below tolerance.  Circular motion
    has radius 1..1.5 and angular rate 0.6..0.9.
    """
    dt = TRAJECTORY_DT
    nodes = []
    for p in range(particles):
        m = float(rng.randint(1, 2))
        if kind == "freefall":
            x0, y0 = rng.uniform(-2, 2), rng.uniform(1, 5)
            vx, vy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            pos = [
                [x0 + vx * a * dt, y0 + vy * a * dt - 0.5 * GRAVITY * (a * dt) ** 2]
                for a in range(samples)
            ]
            force = [0.0, -m * GRAVITY]
        else:
            radius, omega = rng.uniform(1, 1.5), rng.uniform(0.6, 0.9)
            phase = rng.uniform(0, 2 * math.pi)
            pos = []
            force = []
            for a in range(samples):
                x = radius * math.cos(omega * a * dt + phase)
                y = radius * math.sin(omega * a * dt + phase)
                pos.append([x, y])
                force.append([-m * omega * omega * x, -m * omega * omega * y])
        nodes.append({"id": f"P{p}", "pos": pos, "mass": m, "force": force})
    doc = {
        "dimension": 2,
        "signal": {"dt": dt, "samples": samples},
        "nodes": nodes,
        "branches": [],
        "analyses": [
            {"command": c, "tolerance": TRAJECTORY_TOLERANCES[kind][c]}
            for c in TRAJECTORY_COMMANDS
        ],
    }
    return Case(
        f"{kind}-p{particles}-n{samples}",
        _dumps(doc),
        {"verdicts": TRAJECTORY_VERDICTS[kind]},
    )


# ---------------------------------------------------------------------------
# corpus selection
# ---------------------------------------------------------------------------

WORKLOADS = ("fixtures", "grid-statics", "grid-homology", "trajectory")

# The percentile doc_tail_s reports, fixed per workload so that neither a
# short run nor a faster program switches it.  The worker times at least
# tail_passes() corpus passes, which puts TAIL_BEYOND documents beyond it.
# p99.9 is left out: on the fixtures it would be set by scheduler jitter.
TAIL_PERCENTILE = {
    "fixtures": 99.0,
    "grid-statics": 90.0,
    "grid-homology": 90.0,
    "trajectory": 90.0,
}
TAIL_BEYOND = 10


def tail_rank(percentile, n):
    """The nearest rank (1-based) of PERCENTILE among N sorted samples."""
    return math.ceil(percentile * n / 100)


def tail_passes(workload, per_pass):
    """The fewest passes of PER_PASS documents that leave at least
    TAIL_BEYOND documents beyond the workload's tail percentile."""
    percentile = TAIL_PERCENTILE[workload]
    passes = 1
    while passes * per_pass - tail_rank(percentile, passes * per_pass) < TAIL_BEYOND:
        passes += 1
    return passes


def corpus(workload, rng, root=None, goldens=None):
    """The documents of one corpus pass of a workload."""
    if workload == "fixtures":
        return fixture_cases(root, rng, goldens)
    if workload == "grid-statics":
        return [grid_statics_case(rng, k) for k in GRID_STATICS_K]
    if workload == "grid-homology":
        return [grid_homology_case(rng, k) for k in GRID_HOMOLOGY_K]
    if workload == "trajectory":
        return [trajectory_case(rng, *spec) for spec in TRAJECTORY_DOCS]
    raise ValueError(f"unknown workload {workload!r}")
