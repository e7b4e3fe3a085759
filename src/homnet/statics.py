"""Force complexes on a realized network: equilibrium, self-stress and the
statics solver.

External forces are a covector-valued 0-chain, internal forces a 1-chain;
equilibrium says the external chain is minus the boundary of the internal
one and the resultant vanishes.  Joining every node to a point at infinity
carrying its external force turns both conditions into a single 1-cycle
test.  Internal forces act along their branches, so the solver's unknowns
are per-branch tension coefficients q(a) with F(a) = q(a) * s(a); working
with q instead of force-per-unit-length keeps every quantity rational.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact
from .chains import Chain, Cochain, boundary, evaluate
from .coeffs import (
    DEFAULT_TOL, INTEGER, Bivector, covector, vector, vnorm, vscale,
)
from .complexes import Complex, cone, fresh_label
from .errors import (
    DegenerateBranch,
    DimensionMismatch,
    InvalidPartition,
)
from .geometry import GeometricComplex, moment


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
                direction = unit_covector(self.g, a)
                expected = vscale(magnitude, direction)
                diff = vnorm(tuple(x - y for x, y in zip(self.f_int[a], expected)))
                if diff > 1e-9:
                    raise DimensionMismatch(
                        f"declared axial force on branch {a} is not collinear "
                        f"with the branch"
                    )

    @property
    def n(self):
        return self.f_ext.module.n


def unit_covector(g, a):
    """Unit covector along branch a (Euclidean transpose of the direction)."""
    s = g.branch_vector(a)
    length = vnorm(s)
    if length == 0:
        raise DegenerateBranch(f"branch {a} has zero length")
    return tuple(float(c) / length for c in s)


def force_complex(g, external=None, internal=None, axial=None):
    """Assemble a ForceComplex from per-label force mappings.

    ``external`` maps node labels to covectors; internal branch forces come
    either from ``internal`` (label -> covector) or from ``axial``
    (label -> magnitude along the unit branch direction, positive = tension).
    """
    cx = g.complex
    mod = covector(g.n)
    ext = {}
    for lab, vec in (external or {}).items():
        ext[cx.node_index(lab)] = tuple(vec)
    internal_values = {}
    axial_by_index = None
    if axial is not None:
        axial_by_index = {}
        for lab, magnitude in axial.items():
            a = cx.branch_index(lab)
            axial_by_index[a] = magnitude
            internal_values[a] = vscale(magnitude, unit_covector(g, a))
    for lab, vec in (internal or {}).items():
        internal_values[cx.branch_index(lab)] = tuple(vec)
    return ForceComplex(
        g=g,
        f_ext=Chain(cx, 0, ext, mod),
        f_int=Chain(cx, 1, internal_values, mod),
        axial=axial_by_index,
    )


def tension_force_chain(g, coefficients, module=None):
    """Covector-valued internal force chain F(a) = q(a) * s(a) from tension
    coefficients; exact whenever the positions and coefficients are exact."""
    mod = module or covector(g.n)
    values = {}
    for a, q in coefficients.items():
        if not q:
            continue
        values[a] = vscale(q, g.branch_vector(a))
    return Chain(g.complex, 1, values, mod)


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

@dataclass
class EquilibriumReport:
    resultant: tuple
    nodal_residual: Chain
    in_equilibrium: bool
    extended_cycle: bool
    max_residual: float


def nodal_residual(fc):
    """The 0-chain F_ext + boundary(F_int); zero at every node in equilibrium."""
    return fc.f_ext + boundary(fc.f_int)


def extended_force_chain(fc):
    """Internal force chain on the one-point extension: every node is joined
    to a fresh infinity vertex whose link carries that node's external force.

    Oriented so that the boundary of the extension reproduces the nodal
    residual at the original nodes and minus the resultant at infinity;
    the chain is a 1-cycle exactly when the system is in equilibrium.
    """
    ext = cone(fc.g.complex, fresh_label(fc.g.complex, "@infinity"))
    mod = fc.f_int.module
    values = {ext.branch_map[a]: v for a, v in fc.f_int.coeffs.items()}
    for i, v in fc.f_ext.coeffs.items():
        # the star branch runs node -> infinity; carrying -F_ext(i) is the
        # same chain as +F_ext(i) on the reversed orientation
        values[ext.star[i]] = mod.neg(v)
    return ext, Chain(ext.complex, 1, values, mod)


def equilibrium_check(fc, tol=DEFAULT_TOL):
    residual = nodal_residual(fc)
    mod = fc.f_ext.module
    resultant = mod.zero()
    for v in fc.f_ext.coeffs.values():
        resultant = mod.add(resultant, v)
    exact_input = _forces_exact(fc)
    eff_tol = 0 if exact_input else tol
    resultant_zero = mod.is_zero(resultant, eff_tol)
    residual_zero = residual.is_zero(eff_tol)
    _, extended = extended_force_chain(fc)
    extended_cycle = boundary(extended).is_zero(eff_tol)
    return EquilibriumReport(
        resultant=resultant,
        nodal_residual=residual,
        in_equilibrium=resultant_zero and residual_zero,
        extended_cycle=extended_cycle,
        max_residual=max(
            (mod.norm(v) for v in residual.coeffs.values()), default=0.0
        ),
    )


def _forces_exact(fc):
    chains = (fc.f_ext, fc.f_int)
    return all(c.module.holds_exact(v) for c in chains for v in c.coeffs.values())


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


def equilibrium_matrix(g):
    """Matrix of the axial equilibrium system: one row per node component,
    one column per branch, entries incidence * branch vector component.
    Each branch has 2n nonzeros, minus the vector at its tail's rows and
    plus the vector at its head's."""
    cx = g.complex
    r0, r1, _ = cx.r
    for a in range(r1):
        if any(p is None for p in (g.positions[cx.tail(a)], g.positions[cx.head(a)])):
            raise DegenerateBranch("branch to the point at infinity has no direction")
        if all(c == 0 for c in g.branch_vector(a)):
            raise DegenerateBranch(f"branch {a} has zero length")
    n = g.n
    rows = [[0] * r1 for _ in range(r0 * n)]
    for a, (tail, head) in enumerate(cx.branches):
        for c, x in enumerate(g.branch_vector(a)):
            rows[tail * n + c][a] = -x
            rows[head * n + c][a] = x
    return rows


def solve_statics(g, f_ext):
    """Solve F_ext = -boundary(F_int) for axial internal forces.

    Feasibility and the self-stress space are decided exactly over the
    rationals; the self-stress basis vectors are primitive integer axial
    chains whose vector-valued chains have exactly zero boundary.
    """
    cx = g.complex
    mat = equilibrium_matrix(g)
    rhs = [-f_ext[i][c] for i in range(cx.r[0]) for c in range(g.n)]
    solution, null_vecs = exact.solve(mat, rhs)
    basis = [
        Chain(cx, 1, {a: v for a, v in enumerate(vec) if v}, INTEGER)
        for vec in null_vecs
    ]
    if solution is None:
        return StaticsSolution(
            classification="infeasible",
            self_stress_dim=len(null_vecs),
            tension_coefficients=None,
            axial_forces=None,
            self_stress_basis=basis,
            g=g,
        )
    lengths = [g.branch_length(a) for a in range(cx.r[1])]
    return StaticsSolution(
        classification="indeterminate" if null_vecs else "determinate",
        self_stress_dim=len(null_vecs),
        tension_coefficients=solution,
        axial_forces=[float(q) * L for q, L in zip(solution, lengths)],
        self_stress_basis=basis,
        g=g,
    )


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
    """
    cx = fc.g.complex
    if isinstance(origin, (tuple, list)):
        x0 = tuple(origin)
    else:
        x0 = fc.g.positions[cx.node_index(origin)]
    total = Bivector.zero(fc.n)
    for i, f in fc.f_ext.coeffs.items():
        xi = fc.g.positions[i]
        if xi is None:
            continue  # forces absorbed at infinity have no moment arm here
        r = tuple(p - q for p, q in zip(xi, x0))
        total = total + moment(r, f)
    for m in (applied_moments or {}).values():
        total = total + m
    passed = total.norm() <= tol
    return MomentReport(passed=passed, residual=total, origin=x0)


# ---------------------------------------------------------------------------
# virtual work
# ---------------------------------------------------------------------------

def virtual_work(fc, delta_x):
    """Virtual work of the force distribution under a virtual displacement:
    the pairing of the boundary of the extended force chain with delta_x,
    which reduces to the nodal residual paired node by node."""
    if isinstance(delta_x, dict):
        values = {fc.g.complex.node_index(k): tuple(v) for k, v in delta_x.items()}
        delta_x = Cochain(fc.g.complex, 0, values, vector(fc.n))
    if delta_x.module.n != fc.n:
        raise DimensionMismatch("virtual displacement dimension differs")
    return evaluate(delta_x, nodal_residual(fc))


def equilibrium_via_virtual_work(fc, tol=None):
    """Equilibrium verdict obtained by sweeping the full basis of unit
    virtual displacements (n per node) and requiring all works to vanish."""
    cx = fc.g.complex
    if tol is None:
        tol = 0 if _forces_exact(fc) else DEFAULT_TOL
    for i in range(cx.r[0]):
        for c in range(fc.n):
            unit = tuple(1 if k == c else 0 for k in range(fc.n))
            dx = Cochain(cx, 0, {i: unit}, vector(fc.n))
            w = virtual_work(fc, dx)
            if (w != 0) if tol == 0 else (abs(float(w)) > tol):
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
    if not mod.is_zero(inf_total, 0 if _forces_exact(fc) else None):
        ext_values[inf_index] = inf_total
    positions = [fc.g.positions[i] for i in kept] + [None]
    g = GeometricComplex(complex=closed, n=fc.g.n, positions=positions)
    return ForceComplex(
        g=g,
        f_ext=Chain(closed, 0, ext_values, mod),
        f_int=Chain(closed, 1, dict(fc.f_int.coeffs), mod),
        axial=None,
    )
