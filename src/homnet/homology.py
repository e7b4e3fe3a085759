"""Cycle/boundary tests with witnesses, Betti numbers, generators, torsion,
Euler characteristic and the cocycle/coboundary machinery.

Everything structural is computed exactly over the rationals; float-valued
chains get tolerance-based versions of the same tests.

In dimension one every question goes through the complex's spanning forest
(``Complex.forest``), Kirchhoff's tree-and-chords construction: the rank of
the boundary map on branches is the number of tree branches, the cycle
basis is the chords' fundamental cycles, and a 1-cochain is a coboundary
exactly when it sums to zero around each of them, that is, when each
chord's value is the difference of the potential integrated along the
trees.  A 0-chain bounds exactly when it sums to zero on each tree.

In dimension two every question about the boundary map on faces is
answered in one place, ``_faces``.  When the collapse (``Complex.collapse``)
matches every face to a free branch, the pairs are a unit lower-triangular
minor of full rank: the map is injective, so there are no 2-cycles, its
rank is the face count, and H1 is torsion-free, the gcd of its minors of
full rank being 1.  The unmatched branches span a graph whose
spanning-forest chords index H1; a reverse sweep over the pairs extends the
unit cochains on those chords to an integer cocycle that vanishes on every
face boundary, and the H1 generators are the fundamental cycles whose
pairings with it are pivots of one small echelon.  The boundary test of an
exact 1-chain is a forward sweep over the pairs.  A complex with a face the
collapse leaves unmatched reads one cached echelon of the boundary map on
faces stacked with the fundamental cycles (``Complex.face_echelon``)
instead: its pivots below the face count give the rank, its face block
back-substitutes to the 2-cycle basis and to boundary witnesses, and the
cycle columns that are pivots are the H1 generators.  Both select the same
generators, the greedy choice modulo the face boundaries.  The kernel
reports, beside the echelon, the minor of full rank of the boundary on
faces on its face pivot rows and columns, which the product of the
invariant factors divides, so a unit minor proves H1 torsion-free; only
when it is not +-1 does the Smith form behind the torsion coefficients run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel, exact
from .chains import Chain, Cochain, boundary, evaluate
from .complexes import path_components, spanning_chords
from .coeffs import DEFAULT_TOL, INTEGER, RATIONAL
from .errors import InternalMismatch, KindMismatch, NotACycle


def _rank_boundary(complex, k):
    if k <= 0 or k > complex.dim:
        return 0
    if k == 1:
        # one echelon pivot per tree branch
        return complex.r[1] - len(complex.forest.chords)
    return _faces(complex).rank


def is_cycle(chain, tol=DEFAULT_TOL):
    """True when the boundary is zero within ``tol``; an exact boundary must
    vanish exactly."""
    if chain.dim == 0:
        return True
    return boundary(chain).is_zero(tol)


@dataclass
class BoundaryTest:
    bounds: bool
    witness: Chain | None = None


def is_boundary(chain, tol=DEFAULT_TOL):
    """Decide whether a cycle bounds, producing a witness chain when it does.

    A 0-chain bounds when its coefficients sum to zero on every path
    component; the witness is the tree flow of the spanning forest (see
    ``_tree_flow``).  A 1-chain of an exact kind is solved exactly over
    the faces (``_faces``), its witness the one ``exact.solve`` returns;
    real64 1-chains use a least-squares solve with a residual tolerance.
    Every float test is at ``tol``.
    """
    if not is_cycle(chain, tol):
        raise NotACycle("only cycles can bound")
    cx, k, mod = chain.complex, chain.dim, chain.module
    if k >= cx.dim or cx.r[k + 1] == 0:
        if chain.is_zero(tol):
            module = RATIONAL if mod.exact else mod
            return BoundaryTest(True, Chain.zero(cx, min(k + 1, 2), module))
        return BoundaryTest(False)

    if not mod.exact and mod.kind != "real64":
        raise KindMismatch(f"boundary test is not defined for {mod.kind} chains")
    if k == 0:
        return _tree_flow(chain, tol)
    if mod.exact:
        return _faces(cx).solve(chain)
    import numpy as np

    mat = [list(col) for col in zip(*cx.incidence_2)]
    a = np.array(mat, dtype=float)
    rhs = np.array([chain[j] for j in range(cx.r[k])], dtype=float)
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    if np.max(np.abs(a @ x - rhs), initial=0.0) > tol:
        return BoundaryTest(False)
    witness = Chain(cx, k + 1, dict(enumerate(x.tolist())), chain.module)
    return BoundaryTest(True, witness)


def _tree_flow(chain, tol):
    """Boundary test of a 0-chain on the spanning forest.

    Each tree branch carries the sum of the chain over the subtree below it,
    pushed towards the root, so the flow's boundary matches the chain at
    every node but the roots, where the component's sum is left over.  Exact
    chains are summed as rationals; the flow is then the exact solution that
    is zero on every chord.
    """
    if chain.module.exact:
        chain = chain.as_module(RATIONAL)
    forest = chain.complex.forest
    total = [chain[v] for v in range(chain.complex.r[0])]
    flow = {}
    for v in reversed(forest.order):
        a = forest.branch[v]
        if a is not None:
            flow[a] = forest.sign[v] * total[v]
            total[forest.parent[v]] += total[v]
    roots = set(forest.component)
    if not all(chain.module.is_zero(total[root], tol) for root in roots):
        return BoundaryTest(False)
    return BoundaryTest(True, Chain(chain.complex, 1, flow, chain.module))


def betti_numbers(complex):
    """Betti numbers b_0..b_dim over the rationals."""
    ranks = [_rank_boundary(complex, k) for k in range(complex.dim + 2)]
    return [complex.r[k] - ranks[k] - ranks[k + 1] for k in range(complex.dim + 1)]


def cycle_basis(complex, k=1):
    """Integer basis of the k-cycles (the kernel of the boundary map).

    In dimension one this is the fundamental-cycle basis of the spanning
    forest, one cycle per chord in chord order with coefficients all +-1;
    it equals the exact nullspace basis vector for vector.  In dimension two
    it is the exact nullspace of the boundary map on faces: empty when the
    collapse matches every face, else back-substituted from the face block
    of ``Complex.face_echelon``.
    """
    if k == 0:
        return [Chain(complex, 0, {i: 1}, INTEGER) for i in range(complex.r[0])]
    if k == 1:
        forest = complex.forest
        return [Chain(complex, 1, forest.cycle(a), INTEGER) for a in forest.chords]
    if k > complex.dim:
        return []
    return [
        Chain(complex, k, {i: v for i, v in enumerate(vec) if v}, INTEGER)
        for vec in _faces(complex).cycles()
    ]


def homology_generators(complex, k):
    """Integer cycles whose classes form a basis of the k-th homology."""
    if k == 0:
        return [
            Chain(complex, 0, {comp[0]: 1}, INTEGER)
            for comp in path_components(complex)
        ]
    if k != 1 or complex.dim < 2:
        return cycle_basis(complex, k)
    forest = complex.forest
    return [
        Chain(complex, 1, forest.cycle(a), INTEGER)
        for a in _faces(complex).h1_chords()
    ]


def torsion_coefficients(complex):
    """Invariant factors > 1 of each boundary matrix; torsion of H_k comes
    from the boundary map out of dimension k+1.  Integer coefficients only.

    H_0 never has torsion: the boundary map on branches of a loop-free
    directed multigraph is totally unimodular.  H_1 is certified
    torsion-free by a unit minor of full rank of the boundary on faces,
    which the product of the invariant factors divides: the collapse's, or
    else the face echelon's minor on its face pivots; only without one does
    the Smith form run.
    """
    out = [[] for _ in range(complex.dim + 1)]
    if complex.dim == 2:
        out[1] = _faces(complex).torsion()
    return out


def euler_characteristic(complex):
    """Alternating sum of simplex counts, cross-checked against the
    alternating sum of Betti numbers."""
    by_rank = sum((-1) ** k * complex.r[k] for k in range(complex.dim + 1))
    by_betti = sum((-1) ** k * b for k, b in enumerate(betti_numbers(complex)))
    if by_rank != by_betti:
        raise InternalMismatch(
            f"Euler characteristic disagrees: {by_rank} by ranks, {by_betti} by Betti"
        )
    return by_rank


@dataclass
class HomologySummary:
    betti: list
    torsion: list
    euler: int
    generators: list


def summary(complex):
    gens = [homology_generators(complex, k) for k in range(complex.dim + 1)]
    return HomologySummary(
        betti=betti_numbers(complex),
        torsion=torsion_coefficients(complex),
        euler=euler_characteristic(complex),
        generators=gens,
    )


# ---------------------------------------------------------------------------
# questions about the boundary on faces
# ---------------------------------------------------------------------------

def _faces(complex):
    """The answers to every question about the boundary on faces: read from
    the collapse when it matches every face, else from the face echelon."""
    pairs = complex.collapse
    return _FaceEchelon(complex) if pairs is None else _Collapse(complex, pairs)


def _split(edges, b):
    """The sign of branch b in a face, and the face's other two signed
    branches."""
    first, second, third = edges
    if first[0] == b:
        return first[1], second, third
    if second[0] == b:
        return second[1], first, third
    return third[1], first, second


class _Collapse:
    """Face answers from ``Complex.collapse``, a matching of every face.

    The matched branches and faces form a unit lower-triangular minor of
    full rank, so the boundary on faces is injective: no 2-cycles, rank r2,
    and no H1 torsion, the gcd of the r2 x r2 minors being 1.
    """

    def __init__(self, complex, pairs):
        self.complex, self.pairs = complex, pairs

    @property
    def rank(self):
        return self.complex.r[2]

    def cycles(self):
        return []

    def torsion(self):
        return []

    def h1_chords(self):
        """The chords whose fundamental cycles the greedy rank selection
        keeps modulo the face boundaries, found through a cocycle.

        The unmatched branches span a graph with the complex's homology;
        its spanning-forest chords index H1.  The unit cochains on them,
        zero on its tree, extend by a reverse sweep over the pairs to an
        integer cocycle phi, each matched branch taking the value that makes
        phi vanish on its face's boundary.  phi maps H1 isomorphically onto
        the rationals^b1, so a fundamental cycle is independent of the face
        boundaries and the cycles before it iff its pairing with phi is
        independent of theirs: the pivot columns of the b1 x m pairing
        matrix.  The pairing of chord a's cycle is phi(a) + P(tail) -
        P(head), P the potential of phi integrated along the forest.
        """
        cx, pairs = self.complex, self.pairs
        forest, branches = cx.forest, cx.branches
        matched = {b for _, b in pairs}
        basis = spanning_chords(
            cx.r[0], ((a, ends) for a, ends in enumerate(branches) if a not in matched)
        )
        b1 = len(basis)
        if b1 != len(forest.chords) - cx.r[2]:
            raise InternalMismatch(
                f"collapse leaves {b1} cycles, ranks give {len(forest.chords) - cx.r[2]}"
            )
        if not b1:
            return []
        zero = (0,) * b1  # shared by every branch phi vanishes on, so immutable
        phi = [zero] * len(branches)
        for j, a in enumerate(basis):
            phi[a] = zero[:j] + (1,) + zero[j + 1:]
        for f, b in reversed(pairs):
            sign, (c, s), (d, t) = _split(cx.faces[f], b)
            x, y = phi[c], phi[d]
            if x is not zero or y is not zero:
                s, t = -sign * s, -sign * t
                phi[b] = [s * u + t * v for u, v in zip(x, y)]
        potential = [zero] * cx.r[0]
        for v in forest.order:
            a = forest.branch[v]
            if a is not None:
                up, drop = potential[forest.parent[v]], phi[a]
                if forest.sign[v] == 1:
                    potential[v] = [u + w for u, w in zip(up, drop)]
                else:
                    potential[v] = [u - w for u, w in zip(up, drop)]
        columns = []
        for a in forest.chords:
            tail, head = branches[a]
            columns.append(
                [u + p - q for u, p, q in zip(phi[a], potential[tail], potential[head])]
            )
        _, pivots, _ = _kernel.echelon(
            [list(row) for row in zip(*columns)], len(columns)
        )
        if len(pivots) != b1:
            raise InternalMismatch(
                f"cocycle pairing has rank {len(pivots)}, expected b1 = {b1}"
            )
        return [forest.chords[i] for i in pivots]

    def solve(self, chain):
        """Boundary test of an exact 1-cycle by a forward sweep in collapse
        order: the i-th matched branch lies in no later face, so the
        coefficient left on it fixes the i-th face's.  The cycle bounds iff
        nothing is left, and the witness is the unique one."""
        cx = self.complex
        scale = math.lcm(*(Fraction(v).denominator for v in chain.coeffs.values()))
        rest = {a: int(v * scale) for a, v in chain.coeffs.items()}
        witness = {}
        for f, b in self.pairs:
            v = rest.get(b)
            if v:
                edges = cx.faces[f]
                x = v * _split(edges, b)[0]
                witness[f] = Fraction(x, scale)
                for c, s in edges:
                    rest[c] = rest.get(c, 0) - x * s
        if any(rest.values()):
            return BoundaryTest(False)
        return BoundaryTest(True, Chain(cx, 2, witness, RATIONAL))


class _FaceEchelon:
    """Face answers from ``Complex.face_echelon``, the echelon of
    [boundary on faces | fundamental cycles], for complexes with a face the
    collapse leaves unmatched."""

    def __init__(self, complex):
        self.complex = complex

    @property
    def rank(self):
        return sum(1 for p in self.complex.face_echelon[1] if p < self.complex.r[2])

    def cycles(self):
        rows, pivots, _ = self.complex.face_echelon
        return exact.back_substitute(rows, pivots, self.complex.r[2])[0]

    def torsion(self):
        """The echelon reports, up to sign, the r x r minor of the boundary
        on faces on its first r pivot rows and columns, r its rank, and the
        product of the invariant factors is the gcd of all such minors, so
        a unit minor proves H1 torsion-free; only otherwise does the Smith
        form run."""
        r = self.rank
        if r and abs(self.complex.face_echelon[2][r - 1]) != 1:
            snf = exact.smith_normal_form(self.complex.incidence_2)
            return [d for d in snf.d if d > 1]
        return []

    def h1_chords(self):
        # keep a chord's cycle iff its column of [boundary on faces | cycles]
        # is a pivot
        forest, r2 = self.complex.forest, self.complex.r[2]
        return [forest.chords[c - r2] for c in self.complex.face_echelon[1] if c >= r2]

    def solve(self, chain):
        """Boundary test of an exact 1-cycle c on the echelon
        E [boundary on faces | cycles] for some invertible E.

        c is sum_i c[chord_i] * s_i * z_i, s_i = +-1 the chord's coefficient
        in its fundamental cycle z_i, so E c is that combination of the cycle
        columns.  c bounds iff E c is zero past the face pivots; the face
        rows then back-substitute to the witness ``exact.solve`` would
        return.
        """
        cx = self.complex
        forest, r2 = cx.forest, cx.r[2]
        scale = math.lcm(*(Fraction(v).denominator for v in chain.coeffs.values()))
        weights = [
            (r2 + i, int(chain[a] * scale) * forest.cycle(a)[a])
            for i, a in enumerate(forest.chords)
            if chain[a]
        ]
        rows, pivots, _ = cx.face_echelon
        ec = [sum(w * row[col] for col, w in weights) for row in rows[: len(pivots)]]
        faces = self.rank
        if any(ec[faces:]):
            return BoundaryTest(False)
        augmented = [row + [v] for row, v in zip(rows, ec[:faces])]
        _, (x,) = exact.back_substitute(augmented, pivots, r2, [len(rows[0])])
        witness = {f: v / scale for f, v in enumerate(x)}
        return BoundaryTest(True, Chain(cx, 2, witness, RATIONAL))


# ---------------------------------------------------------------------------
# cochain side
# ---------------------------------------------------------------------------

@dataclass
class CoboundaryTest:
    is_coboundary: bool
    potential: Cochain | None = None
    witness: Chain | None = None
    pairing: object = None


def integrate(cochain):
    """The 0-cochain that is zero at every forest root and whose coboundary
    equals the 1-cochain on every tree branch: the node potential of a drop
    cochain, integrated outward from each component's lowest node."""
    cx, mod = cochain.complex, cochain.module
    forest = cx.forest
    values = {}
    for v in forest.order:
        a = forest.branch[v]
        if a is None:
            values[v] = mod.zero()
        else:
            drop = cochain[a] if forest.sign[v] == 1 else mod.neg(cochain[a])
            values[v] = mod.add(values[forest.parent[v]], drop)
    return Cochain(cx, 0, values, mod, prune=False)


def is_coboundary(cochain, tol=DEFAULT_TOL):
    """Decide whether a 1-cochain is the coboundary of a 0-cochain.

    It is one exactly when it sums to zero around the fundamental cycle of
    every chord of the spanning forest.  An exact chord whose value is the
    difference of the potential integrated along the forest passes without
    its cycle; other chords are summed around it, keeping float rounding
    per cycle.
    On failure the result carries the first chord's cycle, in index order,
    with a nonzero sum, and that sum.  On success the potential is shifted
    to be zero at each component's highest-index node; it is unique up to a
    constant per path component.
    """
    if cochain.dim != 1:
        raise KindMismatch("coboundary test is for 1-cochains")
    cx, mod = cochain.complex, cochain.module
    forest, potential = cx.forest, integrate(cochain)
    for a in forest.chords:
        tail, head = cx.branches[a]
        if mod.exact and cochain[a] == potential[head] - potential[tail]:
            continue
        z = Chain(cx, 1, forest.cycle(a), INTEGER)
        val = evaluate(cochain, z)
        if not mod.is_zero(val, tol):
            return CoboundaryTest(False, witness=z, pairing=val)

    values = {}
    for comp in path_components(cx):
        top = mod.neg(potential[comp[-1]])
        for v in comp:
            values[v] = mod.add(potential[v], top)
    return CoboundaryTest(True, potential=Cochain(cx, 0, values, mod, prune=False))
