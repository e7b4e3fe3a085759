"""Geometric realization of complexes in n-dimensional affine space.

Positions are a vector-valued 0-cochain; its coboundary, the displacement
1-cochain of exact branch vectors that statics reads too, vanishes on every
1-cycle (the polygon rule).  Bivectors carry moments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub

from . import exact
from .chains import Cochain
from .coeffs import Bivector, vector, vnorm, vsub, wedge_components
from .errors import (
    CoincidentNodes,
    DegenerateBranch,
    DimensionMismatch,
    NodeCountMismatch,
    UnsupportedDimension,
)


@dataclass
class GeometricComplex:
    """A complex together with node positions in affine n-space."""

    complex: object
    n: int
    positions: list  # one coordinate tuple per node; None marks a point at infinity

    @cached_property
    def scaled_points(self):
        """``(points, P)``: P the common denominator of all coordinates and
        ``points[v]`` the plain-int tuple P p(v), the positions scaled in
        one pass; the point at infinity holds the place of the origin."""
        n = self.n
        origin = (0,) * n
        flat, P = exact.scaled_to_integers(
            [x for p in self.positions for x in (origin if p is None else p)]
        )
        return list(zip(*[iter(flat)] * n)), P

    @cached_property
    def scaled_branch_vectors(self):
        """``(vectors, P)``: ``vectors[a]`` the plain-int tuple P s(a), exact,
        as the positions are scaled (``scaled_points``) before they are
        subtracted.  A branch to the point at infinity or of zero length
        raises ``DegenerateBranch``."""
        positions = self.positions
        points, P = self.scaled_points
        vectors = []
        for a, (tail, head) in enumerate(self.complex.branches):
            if positions[tail] is None or positions[head] is None:
                raise DegenerateBranch("branch to the point at infinity has no direction")
            s = tuple(map(sub, points[head], points[tail]))
            if not any(s):
                raise DegenerateBranch(f"branch {a} has zero length")
            vectors.append(s)
        return vectors, P

    def branch_vector(self, a):
        """Head position minus tail position of branch a, exact."""
        vectors, P = self.scaled_branch_vectors
        return vectors[a] if P == 1 else tuple(Fraction(x, P) for x in vectors[a])


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
    """Branch-wise exact position differences; evaluating on a path gives
    the displacement from its start to its end."""
    values = {a: g.branch_vector(a) for a in range(g.complex.r[1])}
    return Cochain(g.complex, 1, values, vector(g.n))


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
