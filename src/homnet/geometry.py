"""Geometric realization of complexes in n-dimensional affine space.

Positions are a vector-valued 0-cochain; the displacement 1-cochain is its
coboundary, so it vanishes on every 1-cycle (the polygon rule).  Bivectors
carry moments and rotation generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .chains import Cochain
from .coeffs import Bivector, vector, vnorm, vsub, wedge_components
from .errors import (
    CoincidentNodes,
    DimensionMismatch,
    NodeCountMismatch,
    NotAntisymmetric,
    UnsupportedDimension,
)


@dataclass
class GeometricComplex:
    """A complex together with node positions in affine n-space."""

    complex: object
    n: int
    positions: list  # one coordinate tuple per node; None marks a point at infinity

    def branch_vector(self, a):
        """Displacement along branch a: head position minus tail position."""
        tail, head = self.complex.branches[a]
        return vsub(self.positions[head], self.positions[tail])


def realize(complex, n, positions):
    """Attach pairwise-distinct positions (one per node, by label or index)
    to a complex."""
    r0 = complex.r[0]
    if isinstance(positions, dict):
        ordered = []
        for lab in complex.node_labels:
            if lab not in positions:
                raise DimensionMismatch(f"no position for node {lab!r}")
            ordered.append(positions[lab])
        positions = ordered
    positions = [tuple(p) for p in positions]
    if len(positions) != r0:
        raise DimensionMismatch(f"{len(positions)} positions for {r0} nodes")
    for p in positions:
        if len(p) != n:
            raise DimensionMismatch(f"position {p} is not {n}-dimensional")
    seen = {}
    for i, p in enumerate(positions):
        if p in seen:
            raise CoincidentNodes(
                f"nodes {complex.node_labels[seen[p]]!r} and "
                f"{complex.node_labels[i]!r} share position {p}"
            )
        seen[p] = i
    return GeometricComplex(complex=complex, n=n, positions=positions)


def displacement_cochain(g):
    """Branch-wise position differences; evaluating on a path gives the
    displacement from its start to its end."""
    values = {a: g.branch_vector(a) for a in range(g.complex.r[1])}
    return Cochain(g.complex, 1, values, vector(g.n))


def shift_origin(g, a):
    """Move the reference origin by a: positions drop by a, displacements
    are untouched."""
    moved = [vsub(p, a) if p is not None else None for p in g.positions]
    return replace(g, positions=moved)


# ---------------------------------------------------------------------------
# bivectors, wedges, moments
# ---------------------------------------------------------------------------

def wedge(a, b):
    """Exterior product of two vectors (or two covectors) of equal
    dimension.  The moment of a force covector f applied at offset r is
    r wedge f, to which the radial part of f contributes nothing."""
    if len(a) != len(b):
        raise DimensionMismatch("wedge needs equal dimensions")
    return Bivector(len(a), wedge_components(a, b))


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

def maxwell_dof(g):
    """Maxwell count of non-rigid degrees of freedom of a pin-jointed
    framework: n*r0 - r1 - n(n+1)/2."""
    if g.n not in (2, 3):
        raise UnsupportedDimension("Maxwell counting is defined here for n in {2, 3}")
    r0, r1, _ = g.complex.r
    return g.n * r0 - r1 - g.n * (g.n + 1) // 2


def _pair_distances(g, pairs):
    return [vnorm(vsub(g.positions[i], g.positions[j])) for i, j in pairs]


def is_rigid_motion(g0, g1, tol=1e-9, link_lengths_only=False):
    """True when every unordered node-pair distance is preserved.

    The strict notion compares all pairs, linked or not; passing
    link_lengths_only compares only branch lengths, which admits shearing
    mechanisms and is the weaker notion.
    """
    if g0.complex.r[0] != g1.complex.r[0]:
        raise NodeCountMismatch("snapshots have different node counts")
    if link_lengths_only:
        pairs = list(g0.complex.branches)
    else:
        pairs = list(itertools.combinations(range(g0.complex.r[0]), 2))
    d0 = _pair_distances(g0, pairs)
    d1 = _pair_distances(g1, pairs)
    return all(abs(a - b) <= tol for a, b in zip(d0, d1))


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def _check_antisymmetric(omega, tol=1e-12):
    import numpy as np

    w = np.asarray(omega, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NotAntisymmetric("rotation generator must be a square matrix")
    if np.max(np.abs(w + w.T)) > tol:
        raise NotAntisymmetric("rotation generator is not antisymmetric")
    return w


def rotation_matrix(omega, t=1.0, tol=1e-14):
    """exp(omega * t) by scaling-and-squaring of the truncated power series."""
    import numpy as np

    w = _check_antisymmetric(omega) * float(t)
    scale = max(1.0, float(np.max(np.abs(w))))
    squarings = max(0, int(math.ceil(math.log2(scale))) + 1)
    w = w / (2.0 ** squarings)
    result = np.eye(w.shape[0])
    term = np.eye(w.shape[0])
    k = 1
    while True:
        term = term @ w / k
        result = result + term
        if np.max(np.abs(term)) < tol:
            break
        k += 1
    for _ in range(squarings):
        result = result @ result
    return result


def rotation_velocity_field(omega, g, center=None):
    """Velocity 0-cochain of the rigid rotation generated by omega about
    center: v(i) = omega @ (x(i) - center)."""
    import numpy as np

    w = _check_antisymmetric(omega)
    if w.shape[0] != g.n:
        raise DimensionMismatch("generator dimension differs from the ambient space")
    c = np.zeros(g.n) if center is None else np.asarray(center, dtype=float)
    values = {}
    for i in range(g.complex.r[0]):
        x = np.asarray(g.positions[i], dtype=float)
        values[i] = tuple((w @ (x - c)).tolist())
    return Cochain(g.complex, 0, values, vector(g.n))


def best_fit_orthogonal_map(g0, g1):
    """Least-squares orthogonal map between centered position clouds; the
    sign of its determinant distinguishes proper from improper motions."""
    import numpy as np

    a = np.asarray(g0.positions, dtype=float)
    b = np.asarray(g1.positions, dtype=float)
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    q = (u @ vt).T
    return q, float(np.linalg.det(q))
