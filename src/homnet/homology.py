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

In dimension two every question reads one cached echelon of the boundary
map on faces stacked with the fundamental cycles (``Complex.face_echelon``):
its pivots below the face count give the rank, its face block
back-substitutes to the 2-cycle basis, and the cycle columns that are
pivots are the H1 generators; the boundary test of an exact 1-chain
back-substitutes it too.  The last face pivot is, up to sign, a minor of
full rank, which the product of the invariant factors divides, so a unit
pivot proves H1 torsion-free.  The only elimination left here is the Smith
form behind the torsion coefficients, and it runs only when that pivot is
not +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .chains import Chain, Cochain, boundary, evaluate
from .complexes import path_components
from .coeffs import DEFAULT_TOL, INTEGER, RATIONAL
from .errors import InternalMismatch, KindMismatch, NotACycle


def _rank_boundary(complex, k):
    if k <= 0 or k > complex.dim:
        return 0
    if k == 1:
        # one echelon pivot per tree branch
        return complex.r[1] - len(complex.forest.chords)
    return sum(1 for p in complex.face_echelon[1] if p < complex.r[2])


def is_cycle(chain, tol=None):
    """True when the boundary is zero.  A float tolerance below the pruning
    floor raises ``ToleranceBelowPruneFloor``."""
    if chain.dim == 0:
        return True
    tol = DEFAULT_TOL if tol is None else tol
    chain.module.check_tol(tol)
    return boundary(chain).is_zero(tol)


@dataclass
class BoundaryTest:
    bounds: bool
    witness: Chain | None = None


def is_boundary(chain, tol=None):
    """Decide whether a cycle bounds, producing a witness chain when it does.

    A 0-chain bounds when its coefficients sum to zero on every path
    component; the witness is the tree flow of the spanning forest (see
    ``_tree_flow``).  A 1-chain of an exact kind is solved exactly on the
    face echelon (``_face_solve``); real64 1-chains use a least-squares
    solve with a residual tolerance.
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
        return _face_solve(chain)
    import numpy as np

    mat = [list(col) for col in zip(*cx.incidence_2)]
    tol = DEFAULT_TOL if tol is None else tol
    a = np.array(mat, dtype=float)
    rhs = np.array([chain[j] for j in range(cx.r[k])], dtype=float)
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    if np.max(np.abs(a @ x - rhs), initial=0.0) > tol:
        return BoundaryTest(False)
    witness = Chain(cx, k + 1, dict(enumerate(x.tolist())), chain.module)
    return BoundaryTest(True, witness)


def _face_solve(chain):
    """Boundary test of an exact 1-cycle c on ``Complex.face_echelon``, the
    echelon E [boundary on faces | cycles] for some invertible E.

    c is sum_i c[chord_i] * s_i * z_i, s_i = +-1 the chord's coefficient in
    its fundamental cycle z_i, so E c is that combination of the cycle
    columns.  c bounds iff E c is zero past the face pivots; the face rows
    then back-substitute to the witness ``exact.solve`` would return.
    """
    cx = chain.complex
    forest, r2 = cx.forest, cx.r[2]
    scale = math.lcm(*(Fraction(v).denominator for v in chain.coeffs.values()))
    weights = [
        (r2 + i, int(chain[a] * scale) * forest.cycle(a)[a])
        for i, a in enumerate(forest.chords)
        if chain[a]
    ]
    rows, pivots = cx.face_echelon
    ec = [sum(w * row[col] for col, w in weights) for row in rows[: len(pivots)]]
    faces = _rank_boundary(cx, 2)
    if any(ec[faces:]):
        return BoundaryTest(False)
    augmented = [row + [v] for row, v in zip(rows, ec[:faces])]
    _, (x,) = exact.back_substitute(augmented, pivots, r2, [len(rows[0])])
    witness = {f: v / scale for f, v in enumerate(x)}
    return BoundaryTest(True, Chain(cx, 2, witness, RATIONAL))


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
    tol = DEFAULT_TOL if tol is None else tol
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
    it is the exact nullspace of the boundary map on faces, back-substituted
    from the face block of ``Complex.face_echelon``.
    """
    if k == 0:
        return [Chain(complex, 0, {i: 1}, INTEGER) for i in range(complex.r[0])]
    if k == 1:
        forest = complex.forest
        return [Chain(complex, 1, forest.cycle(a), INTEGER) for a in forest.chords]
    if k > complex.dim:
        return []
    rows, pivots = complex.face_echelon
    vecs, _ = exact.back_substitute(rows, pivots, complex.r[2])
    return [
        Chain(complex, k, {i: v for i, v in enumerate(vec) if v}, INTEGER)
        for vec in vecs
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
    # keep a chord's cycle iff its column of [boundary on faces | cycles]
    # is a pivot
    forest, r2 = complex.forest, complex.r[2]
    return [
        Chain(complex, 1, forest.cycle(forest.chords[c - r2]), INTEGER)
        for c in complex.face_echelon[1]
        if c >= r2
    ]


def torsion_coefficients(complex):
    """Invariant factors > 1 of each boundary matrix; torsion of H_k comes
    from the boundary map out of dimension k+1.  Integer coefficients only.

    H_0 never has torsion: the boundary map on branches of a loop-free
    directed multigraph is totally unimodular.  H_1 is certified
    torsion-free from ``Complex.face_echelon``: with r the rank of the
    boundary on faces, the Bareiss pivot in row r-1 is +-1 times an r x r
    minor, and the product of the invariant factors is the gcd of all such
    minors, so it divides that pivot.  Only when the pivot is not +-1 does
    the Smith form run.
    """
    out = [[] for _ in range(complex.dim + 1)]
    if complex.dim == 2:
        r = _rank_boundary(complex, 2)
        rows, pivots = complex.face_echelon
        if r and abs(rows[r - 1][pivots[r - 1]]) != 1:
            snf = exact.smith_normal_form(complex.incidence_2)
            out[1] = [d for d in snf.d if d > 1]
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


def is_coboundary(cochain, tol=None):
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
        if not _value_is_zero(mod, val, tol):
            return CoboundaryTest(False, witness=z, pairing=val)

    values = {}
    for comp in path_components(cx):
        top = mod.neg(potential[comp[-1]])
        for v in comp:
            values[v] = mod.add(potential[v], top)
    return CoboundaryTest(True, potential=Cochain(cx, 0, values, mod, prune=False))


def _value_is_zero(mod, val, tol):
    """``Module.is_zero`` at the tolerance of the cochain tests."""
    return mod.is_zero(val, DEFAULT_TOL if tol is None else tol)
