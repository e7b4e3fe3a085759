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
answered in one place, ``_faces``, from the collapse (``Complex.collapse``)
and the Morse boundary of its critical faces (see ``_Faces``): one small
echelon gives the rank, the H1 generators, the 2-cycles and the boundary
test of an exact 1-chain, and the Smith form behind the torsion
coefficients runs on the Morse boundary, one column per critical face.
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
    faces = _faces(complex)
    return len(faces.pairs) + faces.morse_rank


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
        witness = _faces(cx).solve(chain.coeffs)
        if witness is None:
            return BoundaryTest(False)
        return BoundaryTest(True, Chain(cx, 2, witness, RATIONAL))
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
    collapse leaves no critical face, else the kernel of their Morse
    boundary, lifted and made canonical (see ``_Faces._cycles``), each a
    copy of a face-sorted primitive ``{face: int}``.
    """
    if k == 0:
        return [Chain(complex, 0, {i: 1}, INTEGER) for i in range(complex.r[0])]
    if k == 1:
        forest = complex.forest
        return [Chain.of_integers(complex, 1, forest.cycle(a)) for a in forest.chords]
    if k > complex.dim:
        return []
    return [Chain.of_integers(complex, k, dict(z)) for z in _faces(complex).cycles]


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
        Chain.of_integers(complex, 1, forest.cycle(a))
        for a in _faces(complex).h1_chords()
    ]


def torsion_coefficients(complex):
    """Invariant factors > 1 of each boundary matrix; torsion of H_k comes
    from the boundary map out of dimension k+1.  Integer coefficients only.

    H_0 never has torsion: the boundary map on branches of a loop-free
    directed multigraph is totally unimodular.  H_1 is the cokernel of the
    Morse boundary of the collapse's critical faces, so its torsion is read
    from the Smith form of that matrix, one column per critical face; with
    no critical face H_1 is free.
    """
    out = [[] for _ in range(complex.dim + 1)]
    if complex.dim == 2:
        out[1] = _faces(complex).torsion()
    return out


def euler_characteristic(complex):
    """Alternating sum of simplex counts, cross-checked against the
    alternating sum of Betti numbers."""
    return _euler(complex, betti_numbers(complex))


def _euler(complex, betti):
    """The Euler characteristic, cross-checked against the Betti numbers
    ``betti`` of the complex."""
    by_rank = sum((-1) ** k * complex.r[k] for k in range(complex.dim + 1))
    by_betti = sum((-1) ** k * b for k, b in enumerate(betti))
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
    betti = betti_numbers(complex)
    return HomologySummary(
        betti=betti,
        torsion=torsion_coefficients(complex),
        euler=_euler(complex, betti),
        generators=gens,
    )


# ---------------------------------------------------------------------------
# questions about the boundary on faces
# ---------------------------------------------------------------------------

def _faces(complex):
    """The answers to every question about the boundary on faces, built on
    the first question and kept on the complex."""
    faces = vars(complex).get("_faces")
    if faces is None:
        faces = vars(complex)["_faces"] = _Faces(complex)
    return faces


def _split(edges, b):
    """The sign of branch b in a face, and the face's other two signed
    branches."""
    first, second, third = edges
    if first[0] == b:
        return first[1], second, third
    if second[0] == b:
        return second[1], first, third
    return third[1], first, second


class _Faces:
    """Face answers from ``Complex.collapse``: its pairs, and the Morse
    boundary of its critical faces C.

    Without C the complex collapses onto the graph G of the unmatched
    branches, whose b spanning-forest chords index its first homology.  The
    unit cochains on those chords, zero on G's tree, extend by a reverse
    sweep over the pairs to an integer cocycle phi, each matched branch
    taking the value that makes phi vanish on its face's boundary; phi maps
    that homology isomorphically onto the integers^b.  The Morse boundary
    of a critical face is phi of its boundary, so H1 is the cokernel of the
    b x |C| Morse matrix D, the rank of the boundary on faces is the pair
    count plus the rank of D, and each 2-cycle is a vector of the kernel of
    D lifted to the matched faces.  With C empty there are no 2-cycles and
    no H1 torsion.  ``cycles`` holds the 2-cycles as face-sorted
    ``{face: int}`` of their nonzeros, primitive with the lowest face
    positive.
    """

    def __init__(self, complex):
        # no reference to the complex, which keeps this object
        self.faces, self.chords = complex.faces, complex.forest.chords
        self.pairs, self.critical = complex.collapse
        phi = self._cocycle(complex)
        self.morse = []  # the columns of D
        for f in self.critical:
            (x, s), (y, t), (z, u) = ((phi[b], s) for b, s in self.faces[f])
            self.morse.append([s * p + t * q + u * r for p, q, r in zip(x, y, z)])
        self.rows, self.pivots = self._echelon(complex, phi)
        n = len(self.critical)
        self.morse_rank = sum(1 for c in self.pivots if c < n)
        self.cycles = self._cycles() if self.morse_rank < n else []

    def _cocycle(self, cx):
        """phi, a vector of length b per branch."""
        pairs = self.pairs
        matched = {b for _, b in pairs}
        basis = spanning_chords(
            cx.r[0], ((a, ends) for a, ends in enumerate(cx.branches) if a not in matched)
        )
        b1 = len(basis)
        if b1 != len(cx.forest.chords) - len(pairs):
            raise InternalMismatch(
                f"collapse leaves {b1} cycles, ranks give {len(cx.forest.chords) - len(pairs)}"
            )
        zero = (0,) * b1  # shared by every branch phi vanishes on, so immutable
        phi = [zero] * cx.r[1]
        for j, a in enumerate(basis):
            phi[a] = zero[:j] + (1,) + zero[j + 1:]
        for f, b in reversed(pairs):
            sign, (c, s), (d, t) = _split(cx.faces[f], b)
            x, y = phi[c], phi[d]
            if x is not zero or y is not zero:
                s, t = -sign * s, -sign * t
                phi[b] = [s * u + t * v for u, v in zip(x, y)]
        return phi

    def _echelon(self, cx, phi):
        """Echelon ``(rows, pivots)`` of [D | P], P the pairings of phi with
        the fundamental cycles of the m chords of the forest, each oriented
        along its chord: phi(a) + P(tail) - P(head), P the potential of phi
        along the forest.  Column |C| + i is a pivot iff the i-th cycle is
        independent of the face boundaries and of the cycles before it.

        A node whose tree branch phi vanishes on shares its parent's
        potential object, and a chord whose ends share one has phi(a) as its
        column; none of them is written to."""
        forest, branches = cx.forest, cx.branches
        b1 = len(phi[0])
        if not b1:
            return [], []
        potential = [(0,) * b1] * cx.r[0]
        for v in forest.order:
            a = forest.branch[v]
            if a is not None:
                up, drop = potential[forest.parent[v]], phi[a]
                if not any(drop):
                    potential[v] = up
                elif forest.sign[v] == 1:
                    potential[v] = [u + w for u, w in zip(up, drop)]
                else:
                    potential[v] = [u - w for u, w in zip(up, drop)]
        columns = list(self.morse)
        for a in forest.chords:
            tail, head = branches[a]
            p, q = potential[tail], potential[head]
            if p is q:
                columns.append(phi[a])
            else:
                columns.append([u + x - y for u, x, y in zip(phi[a], p, q)])
        rows, pivots = _kernel.echelon([list(row) for row in zip(*columns)], len(columns))
        if len(pivots) != b1:
            raise InternalMismatch(
                f"cocycle pairing has rank {len(pivots)}, expected b1 = {b1}"
            )
        return rows, pivots

    def h1_chords(self):
        """The chords whose fundamental cycles the greedy rank selection
        keeps modulo the face boundaries: the pivots past D."""
        n = len(self.critical)
        return [self.chords[c - n] for c in self.pivots if c >= n]

    def torsion(self):
        if not self.morse_rank:
            return []
        rows = [list(row) for row in zip(*self.morse)]
        return [d for d in exact.smith_normal_form(rows).d if d > 1]

    def _sweep(self, rest):
        """The chain on the matched faces whose boundary is ``rest``, found by
        a forward sweep in collapse order: the i-th matched branch lies in no
        face removed after the i-th face, so the coefficient left on it
        fixes that face's.  ``rest`` keeps what the matched faces do not
        bound."""
        faces = self.faces
        witness = {}
        for f, b in self.pairs:
            v = rest.get(b)
            if v:
                edges = faces[f]
                x = v * _split(edges, b)[0]
                witness[f] = x
                for c, s in edges:
                    rest[c] = rest.get(c, 0) - x * s
        return witness

    def _cycles(self):
        """The basis ``exact.nullspace`` gives the boundary on faces: the
        kernel of D lifted by the sweep, in reduced echelon form read from
        the highest face down, so each vector is 1 at its free face (its
        pivot) and 0 at the others; one solve by the pivot block gives it,
        and each is scaled to a primitive ``{face: int}``."""
        n, r2 = len(self.critical), len(self.faces)
        lifted = []
        for vec in exact.back_substitute(self.rows, self.pivots, n)[0]:
            z = {self.critical[c]: v for c, v in vec.items()}
            rest = self._take_boundary({}, z)
            z.update((f, x) for f, x in self._sweep(rest).items())
            if any(rest.values()):
                raise InternalMismatch("a kernel vector of the Morse boundary does not lift")
            lifted.append([z.get(f, 0) for f in reversed(range(r2))])
        rows, pivots = exact.echelon(lifted)
        k = len(pivots)
        block = [[row[p] for p in pivots] + row for row in rows]
        _, columns = exact.back_substitute(block, range(k), k, range(k, k + r2))
        cycles = []
        for i in reversed(range(k)):
            z = {f: x for f in range(r2) if (x := columns[r2 - 1 - f][i])}
            ints, _ = exact.scaled_to_integers(list(z.values()))
            cycles.append(exact._primitive(dict(zip(z, ints))))
        return cycles

    def _take_boundary(self, rest, chain):
        """``rest`` less the boundary of a 2-chain {face: coefficient}."""
        for f, x in chain.items():
            for c, s in self.faces[f]:
                rest[c] = rest.get(c, 0) - x * s
        return rest

    def solve(self, coeffs):
        """Boundary test of an exact 1-cycle c, given by its coefficients:
        the witness ``exact.solve`` returns, zero at every free face, or
        None when c does not bound.

        c is sum_i c[a_i] * z_i, z_i the cycle of the i-th chord a_i
        oriented along it, so the echelon E [D | P] takes phi(c) to that
        combination of its pairing columns.  c bounds iff that is zero past
        the pivots of D, which give the critical part of a witness; the
        sweep gives the rest, and the 2-cycles clear it at the free faces."""
        scale = math.lcm(*(Fraction(v).denominator for v in coeffs.values()))
        rest = {a: int(v * scale) for a, v in coeffs.items()}
        rows, pivots = self.rows, self.pivots
        n, r = len(self.critical), self.morse_rank
        weights = [(n + i, rest[a]) for i, a in enumerate(self.chords) if rest.get(a)]
        ec = [sum(w * row[col] for col, w in weights) for row in rows]
        if any(ec[r:]):
            return None
        witness = {}
        if r:
            augmented = [row + [v] for row, v in zip(rows, ec[:r])]
            _, (x,) = exact.back_substitute(augmented, pivots, n, [len(rows[0])])
            witness = {f: v for f, v in zip(self.critical, x) if v}
            self._take_boundary(rest, witness)
        witness.update(self._sweep(rest))
        if any(rest.values()):
            raise InternalMismatch("the sweep leaves part of a cycle the echelon bounds")
        for z in self.cycles:
            free = max(z)
            q = Fraction(witness.get(free, 0), z[free])
            if q:
                for f, v in z.items():
                    witness[f] = witness.get(f, 0) - q * v
        return {f: Fraction(v) / scale for f, v in witness.items()}


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
    return Cochain(cx, 0, values, mod)


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
    return CoboundaryTest(True, potential=Cochain(cx, 0, values, mod))
