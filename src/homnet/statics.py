"""Force complexes on a realized network: equilibrium, self-stress and the
statics solver.

External forces are a covector-valued 0-chain, internal forces a 1-chain;
equilibrium says the external chain is minus the boundary of the internal
one and the resultant vanishes.  Joining every node to a point at infinity
carrying its external force turns both conditions into a single 1-cycle
test, read from the residual and the resultant (the augmented boundary of
the external forces) without building the extension.  Internal forces act
along their branches, so the solver's unknowns are per-branch tension
coefficients q(a) with F(a) = q(a) * s(a); working with q instead of
force-per-unit-length keeps every quantity rational.

The solver, axial directions and force chains all read the realization's
exact branch vectors P s(a), P the coordinates' common denominator.  The
loads are scaled once by their denominator L, the kernel eliminates the
integer system (P A) y = -L F_ext, and q = y P / L.  The infinitesimal
rigid motions lie in the left kernel of every equilibrium matrix, so the
rows at their pivot columns (3 in the plane, 6 in space) are left out of
the elimination: those rows hold iff the loads' resultant force and
resultant moment vanish, decided in plain integers.  A solution is
certified in plain integers too, over every row of the equilibrium matrix
and the same vectors: the loads plus the boundary of the tension chain
must vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import exact
from .chains import Chain, Cochain, augmented_boundary, boundary, cone_chain, evaluate
from .coeffs import (
    DEFAULT_TOL, REAL64, Bivector, bivector, covector, rationals, to_float,
    vector, vnorm, vscale, vsub,
)
from .complexes import Complex
from .errors import DimensionMismatch, InvalidPartition
from .geometry import GeometricComplex, wedge


@dataclass
class ForceComplex:
    """External node forces and internal branch forces on a realized network."""

    g: GeometricComplex
    f_ext: Chain  # 0-chain, covector values
    f_int: Chain  # 1-chain, covector values
    axial: dict | None = None  # branch -> magnitude, when forces are declared axial

    def __post_init__(self):
        if self.f_ext.dim != 0 or self.f_int.dim != 1:
            raise DimensionMismatch("external forces are a 0-chain, internal a 1-chain")
        if self.f_ext.module.n != self.f_int.module.n:
            raise DimensionMismatch("force dimensions differ")
        if self.axial is not None:
            for a, magnitude in self.axial.items():
                expected = vscale(magnitude, unit_covector(self.g, a))
                if vnorm(vsub(self.f_int[a], expected)) > DEFAULT_TOL:
                    raise DimensionMismatch(
                        f"declared axial force on branch {a} is not collinear "
                        f"with the branch"
                    )

    @property
    def n(self):
        return self.f_ext.module.n


def _float_length(s):
    """(k, L): L the float length of 2^k s, for exact s.  k is 0 unless the
    float length of s is 0 while s is nonzero, which happens only when every
    component's float is 0 (``vnorm`` scales tiny floats itself); then
    2^k s has its largest component near 1."""
    length = vnorm(s)
    if length or not any(s):
        return 0, length
    x = [Fraction(c) for c in s if c]
    k = min(c.denominator.bit_length() - c.numerator.bit_length() for c in x)
    return k, vnorm([c * 2**k for c in x])


def unit_covector(g, a):
    """Unit covector along branch a (Euclidean transpose of the direction),
    read from the exact vector scaled by a power of two where its float
    length underflows."""
    s = g.branch_vector(a)
    k, length = _float_length(s)
    return tuple(to_float(c * 2**k) / length for c in s)


def force_complex(g, external=None, internal=None, axial=None):
    """Assemble a ForceComplex from per-label force mappings.

    ``external`` maps node labels to covectors; internal branch forces come
    either from ``internal`` (label -> covector) or from ``axial``
    (label -> magnitude along the unit branch direction, positive = tension).
    """
    cx = g.complex
    mod = covector(g.n)
    ext = {cx.node_index(lab): tuple(vec) for lab, vec in (external or {}).items()}
    axial_by_index = None if axial is None else {
        cx.branch_index(lab): magnitude for lab, magnitude in axial.items()
    }
    internal_values = {
        a: vscale(magnitude, unit_covector(g, a))
        for a, magnitude in (axial_by_index or {}).items()
    }
    for lab, vec in (internal or {}).items():
        internal_values[cx.branch_index(lab)] = tuple(vec)
    return ForceComplex(
        g=g,
        f_ext=Chain(cx, 0, ext, mod),
        f_int=Chain(cx, 1, internal_values, mod),
        axial=axial_by_index,
    )


def tension_force_chain(g, coefficients):
    """Covector-valued internal force chain F(a) = q(a) * s(a) from tension
    coefficients; exact whenever they are, as the branch vectors are."""
    values = {a: vscale(q, g.branch_vector(a)) for a, q in coefficients.items() if q}
    return Chain(g.complex, 1, values, covector(g.n))


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

@dataclass
class EquilibriumReport:
    resultant: tuple
    nodal_residual: Chain
    in_equilibrium: bool
    max_residual: float


def nodal_residual(fc):
    """The 0-chain F_ext + boundary(F_int); zero at every node in equilibrium."""
    return fc.f_ext + boundary(fc.f_int)


def extended_force_chain(fc):
    """Internal force chain on the one-point extension
    (``chains.cone_chain``): every node is joined to a fresh infinity
    vertex whose link, run node -> infinity, carries minus the node's
    external force, the same chain as +F_ext(i) on the reversed link.  Its
    boundary is the nodal residual at the original nodes and minus the
    resultant at infinity, so it is a 1-cycle exactly in equilibrium."""
    neg = fc.f_int.module.neg
    loads = {i: neg(v) for i, v in fc.f_ext.coeffs.items()}
    return cone_chain(fc.f_int, loads, "@infinity")


def equilibrium_check(fc, tol=DEFAULT_TOL):
    """Zero resultant and zero nodal residual, both judged as computed at
    ``tol``: exact forces must cancel exactly, and at ``tol=0`` so must
    float ones."""
    residual = nodal_residual(fc)
    mod = fc.f_ext.module
    resultant = augmented_boundary(fc.f_ext)
    return EquilibriumReport(
        resultant=resultant,
        nodal_residual=residual,
        in_equilibrium=mod.is_zero(resultant, tol) and residual.is_zero(tol),
        max_residual=max(
            (mod.norm(v) for v in residual.coeffs.values()), default=0.0
        ),
    )


# ---------------------------------------------------------------------------
# statics solver
# ---------------------------------------------------------------------------

@dataclass
class StaticsSolution:
    classification: str  # "determinate" | "indeterminate" | "infeasible"
    self_stress_dim: int
    tension_coefficients: list | None  # q(a) per branch, exact
    axial_forces: list | None  # f(a) = q(a)*|s(a)|, floats for reporting
    self_stress_basis: list  # list of integer-coefficient axial 1-chains
    g: GeometricComplex

    def internal_force_chain(self):
        if self.tension_coefficients is None:
            return None
        return tension_force_chain(
            self.g, dict(enumerate(self.tension_coefficients))
        )

    def basis_force_chain(self, k):
        return tension_force_chain(self.g, dict(self.self_stress_basis[k].coeffs))

    def reconstruction_exact(self, f_ext):
        """Whether the tensions balance the loads exactly, F_ext +
        boundary(F_int) = 0, decided in plain integers; None when there
        are no tensions (infeasible loads).

        With L the common denominator of the tensions and the loads, branch
        a adds +-(L q(a)) (P s(a)) at its head's and tail's rows, the
        nonzeros of ``equilibrium_matrix``, and L P F_ext must cancel every
        row: O(r1 n) integer operations over the realization's integer
        branch vectors.  Floats count as the exact dyadic rationals the
        solver eliminated, so this certifies the system that was solved."""
        q = self.tension_coefficients
        if q is None:
            return None
        n, cx = self.g.n, self.g.complex
        vectors, P = self.g.scaled_branch_vectors
        loads = f_ext.coeffs
        scaled, _ = exact.scaled_to_integers(
            [*q, *(x for v in loads.values() for x in v)]
        )
        rows = [0] * (cx.r[0] * n)
        load = iter(scaled[len(q):])
        for i in loads:
            for c in range(n):
                rows[i * n + c] = P * next(load)
        for (tail, head), qa, s in zip(cx.branches, scaled, vectors):
            if qa:
                for c, x in enumerate(s):
                    t = qa * x
                    rows[head * n + c] += t
                    rows[tail * n + c] -= t
        return not any(rows)


def equilibrium_matrix(g):
    """P times the matrix of the axial equilibrium system, in plain ints:
    one row per node component, one column per branch, entries incidence
    * P s(a) component.  Each branch has 2n nonzeros, minus the vector at
    its tail's rows and plus the vector at its head's."""
    vectors, _ = g.scaled_branch_vectors
    n, (r0, r1, _) = g.n, g.complex.r
    rows = [[0] * r1 for _ in range(r0 * n)]
    for a, (tail, head) in enumerate(g.complex.branches):
        for c, x in enumerate(vectors[a]):
            rows[tail * n + c][a] = -x
            rows[head * n + c][a] = x
    return rows


def rigid_motions(g):
    """The infinitesimal rigid motions as plain-int rows over the r0 * n
    equilibrium rows, at the scaled positions X = P p: translation c is 1
    at each row (v, c), and rotation (c1, c2) is -X_v[c2] at (v, c1) and
    X_v[c1] at (v, c2).  Each is orthogonal to every column of
    ``equilibrium_matrix``, which holds -P s at its tail's rows and P s at
    its head's, as s wedge s = 0.  Paired with the loads, the translations
    give the resultant and the rotations the resultant moment."""
    points, _ = g.scaled_points
    n, size = g.n, len(points) * g.n
    motions = []
    for c in range(n):
        u = [0] * size
        u[c::n] = [1] * len(points)
        motions.append(u)
    for c1, c2 in combinations(range(n), 2):
        u = [0] * size
        u[c1::n] = [-x[c2] for x in points]
        u[c2::n] = [x[c1] for x in points]
        motions.append(u)
    return motions


def solve_statics(g, f_ext):
    """Solve F_ext = -boundary(F_int) for axial internal forces.

    Feasibility and the self-stress space are decided exactly over the
    rationals, in one integer system: with P the coordinates' and L the
    loads' common denominator, the kernel eliminates P A y = -L F_ext, and
    the tensions are q = y P / L.  The rigid motions U (``rigid_motions``)
    have U A = 0, so U_D A_D = -U_R A_R at their pivot columns D, where
    U_D has full column rank: the rows at D are combinations of the
    others.  Those rows (3 in the plane, 6 in space, fewer for degenerate
    positions) are left out of the elimination, which
    keeps the rank, the nullspace and the solution with the free variables
    zero, and they hold iff every motion annihilates the loads: the loads'
    resultant force and moment vanish, checked in plain ints.  The
    self-stress basis vectors are primitive integer axial chains whose
    vector-valued chains have exactly zero boundary.  The matrix, the
    lengths and the solution's certificate (``reconstruction_exact``, over
    every row) read the realization's branch vectors.
    """
    cx, n = g.complex, g.n
    P = g.scaled_branch_vectors[1]
    rhs = [0] * (cx.r[0] * n)
    for i, v in f_ext.coeffs.items():
        for c, x in enumerate(v):
            rhs[i * n + c] = -x
    rhs, L = exact.scaled_to_integers(rhs)
    matrix = equilibrium_matrix(g)
    motions = rigid_motions(g)
    kept = list(rhs)
    for i in reversed(exact.pivot_columns(motions)):
        del matrix[i], kept[i]
    solution, null_vecs = exact.solve(matrix, kept)
    if solution is not None and any(sum(map(mul, u, rhs)) for u in motions):
        solution = None
    forces = None
    if solution is not None:
        if P != L:
            scale = Fraction(P, L)
            solution = [y * scale for y in solution]
        forces = [_axial_force(q, g.branch_vector(a)) for a, q in enumerate(solution)]
    return StaticsSolution(
        classification="infeasible" if solution is None
        else "indeterminate" if null_vecs else "determinate",
        self_stress_dim=len(null_vecs),
        tension_coefficients=solution,
        axial_forces=forces,
        self_stress_basis=[Chain.of_integers(cx, 1, vec) for vec in null_vecs],
        g=g,
    )


def _axial_force(q, s):
    """q |s| as a float for exact q, s: float(q) times the float length, 0
    for q = 0, and the exact q |s| rounded once where float(q) overflows or
    the float length underflows: r = isqrt(q^2 |s|^2 4^k) has 55 bits or
    more, so no rounding boundary of r / 2^k lies in (r, r + 1), where an
    inexact root is."""
    if not q:
        return 0.0
    scale, length = _float_length(s)
    if not scale:
        try:
            return float(q) * length
        except OverflowError:
            pass
    t = q * q * sum(Fraction(x) ** 2 for x in s)
    k = max(0, (110 - t.numerator.bit_length() + t.denominator.bit_length()) // 2)
    m, rem = divmod(t.numerator << 2 * k, t.denominator)
    r = math.isqrt(m)
    if rem or r * r != m:
        r, k = 2 * r + 1, k + 1
    return to_float(Fraction(r if q > 0 else -r, 1 << k))


# ---------------------------------------------------------------------------
# moment equilibrium
# ---------------------------------------------------------------------------

@dataclass
class MomentReport:
    passed: bool
    residual: object  # Bivector
    origin: tuple


def moment_equilibrium_check(fc, origin, applied_moments=None, tol=DEFAULT_TOL):
    """Balance of force moments about a common reference point.

    ``origin`` is a node label or a point; applied node moments (couples,
    which are reference-independent) are added to the moments of the
    external forces about the origin.  All moments share the one origin;
    mixing reference points is not supported.

    An exact load's arm is the exact difference of the positions, each
    float read as the dyadic rational it is, so exact loads get an exact
    verdict.  A float load's arm is the float difference.  The exact
    moments are summed apart from the float ones (float loads and float
    applied moments); where there are float ones, a nonzero exact sum is
    rounded once, to +-inf past the float range, and the float moments are
    added to it in order.
    """
    cx = fc.g.complex
    if isinstance(origin, (tuple, list)):
        x0 = tuple(origin)
    else:
        x0 = fc.g.positions[cx.node_index(origin)]
    exact_x0 = rationals(x0)
    module = bivector(fc.n)
    total = module.zero()  # the sum of the exact moments
    floats = []
    for i, f in fc.f_ext.coeffs.items():
        xi = fc.g.positions[i]
        if xi is None:
            continue  # forces absorbed at infinity have no moment arm here
        if fc.f_ext.module.holds_exact(f):
            total = total + wedge(vsub(rationals(xi), exact_x0), f)
        else:
            floats.append(wedge(vsub(xi, x0), f))
    for m in (applied_moments or {}).values():
        if module.holds_exact(m):
            total = total + m
        else:
            floats.append(m)
    if floats:
        if any(total.comps):
            total = Bivector(fc.n, tuple(map(to_float, total.comps)))
        for m in floats:
            total = total + m
    passed = module.is_zero(total, tol)
    return MomentReport(passed=passed, residual=total, origin=x0)


# ---------------------------------------------------------------------------
# virtual work
# ---------------------------------------------------------------------------

def equilibrium_via_virtual_work(fc, tol=DEFAULT_TOL):
    """Equilibrium verdict obtained by sweeping the full basis of unit
    virtual displacements (n per node) and requiring all works to vanish."""
    cx = fc.g.complex
    residual = nodal_residual(fc)
    for i in range(cx.r[0]):
        for c in range(fc.n):
            unit = tuple(1 if k == c else 0 for k in range(fc.n))
            dx = Cochain(cx, 0, {i: unit}, vector(fc.n))
            w = evaluate(dx, residual)
            if not REAL64.is_zero(w, tol):
                return False
    return True


# ---------------------------------------------------------------------------
# open systems and the point at infinity
# ---------------------------------------------------------------------------

def close_open_system(fc, external_nodes):
    """One-point compactification of an open system: every isolated external
    vertex is identified with a single infinity vertex that absorbs the sum
    of their external forces.  Branches to infinity keep their internal
    forces but carry no displacement."""
    cx = fc.g.complex
    external = {cx.node_index(lab) for lab in external_nodes}
    degree = [0] * cx.r[0]
    for tail, head in cx.branches:
        if tail in external and head in external:
            raise InvalidPartition(
                "a branch with two external endpoints is not supported"
            )
        degree[tail] += 1
        degree[head] += 1
    isolated = {i for i in external if degree[i] == 1}
    if not isolated:
        return fc

    label = "@infinity"
    kept = [i for i in range(cx.r[0]) if i not in isolated]
    new_index = {i: k for k, i in enumerate(kept)}
    inf_index = len(kept)
    node_labels = [cx.node_labels[i] for i in kept] + [label]

    def image(i):
        return inf_index if i in isolated else new_index[i]

    endpoints = [(image(t), image(h)) for t, h in cx.branches]
    closed = Complex(node_labels, endpoints, branch_labels=cx.branch_labels)

    mod = fc.f_ext.module
    ext_values = {}
    inf_total = mod.zero()
    for i, v in fc.f_ext.coeffs.items():
        if i in isolated:
            inf_total = mod.add(inf_total, v)
        else:
            ext_values[new_index[i]] = v
    ext_values[inf_index] = inf_total
    positions = [fc.g.positions[i] for i in kept] + [None]
    g = GeometricComplex(complex=closed, n=fc.g.n, positions=positions)
    return ForceComplex(
        g=g,
        f_ext=Chain(closed, 0, ext_values, mod),
        f_int=Chain(closed, 1, dict(fc.f_int.coeffs), mod),
        axial=None,
    )
