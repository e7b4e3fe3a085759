"""Balance laws along sampled trajectories of a mass network.

Masses live on nodes, mass flows on branches, momenta on nodes; each balance
law states that a time derivative equals a boundary (or a resultant), and
each conservation corollary states that the relevant chain is a cycle.
Trajectory data is stacked over the nodes: one (samples, nodes, n) array per
vector quantity and one (samples, nodes) array of masses, so each law is one
whole-array expression over every node and sample, with the stacked helpers
of ``chains`` that sampled circuits share.  Derivatives use the
central/one-sided rule of ``coeffs.series_derivative``, which is exact on
quadratic samples.  A ``DynamicsState`` differentiates each
quantity once per document, every node in one call; ``homnet.cli`` keeps one
state per document, so the momentum, angular, d'Alembert and energy checks
share one velocity and one momentum rate.  A sum over the nodes adds them in
node order (``chains.node_sum``), as a loop over the nodes would, so every printed
float is the one a per-node loop gives.  The potential of a walk that
revisits no position is one running sum over the whole array, bit-identical
to integrating it step by step.  Each function imports numpy itself:
``homnet.cli`` loads this module, and an exact document must not pay for
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .chains import Cochain, evaluate, max_abs, node_sum, stacked, stacked_boundary
from .coeffs import DEFAULT_TOL, REAL64, series_derivative, wedge_components
from .errors import (
    HypothesesUnmet,
    KindMismatch,
    NonConvectiveMomentum,
    RangeError,
)
from .homology import cycle_basis
from .kinematics import spatial_trace

# How far momentum may be from m*v, and a node's mass samples from one
# another, for a balance law that assumes them equal
_HYPOTHESIS_TOL = 1e-6


def _frozen(a):
    a.setflags(write=False)
    return a


@dataclass
class DynamicsState:
    """Sampled dynamical data of a network: trajectories, masses, flows and
    (optionally) an explicit momentum history.

    The stacked arrays ``positions``, ``mass``, ``velocity``, ``momentum``
    and ``momentum_rate`` hold every node, in node order; each is built
    once, on first use, and shared read-only, so each derivative is one
    ``series_derivative`` call per quantity per document.  The data fields
    are not meant to change after that."""

    complex: object
    n: int
    dt: float | None = None
    trajectories: dict = field(default_factory=dict)  # node -> (N, n) array
    masses: dict = field(default_factory=dict)  # node -> scalar or (N,) array
    flows: dict = field(default_factory=dict)  # branch -> (N,) array
    momenta: dict | None = None  # node -> (N, n) array, convective if omitted

    @cached_property
    def samples(self):
        import numpy as np

        for arr in self.trajectories.values():
            return np.asarray(arr).shape[0]
        for arr in self.flows.values():
            return np.asarray(arr).shape[0]
        for m in self.masses.values():
            m = np.asarray(m)
            if m.ndim:
                return m.shape[0]
        return 1

    @cached_property
    def moving(self):
        """The index of the nodes with a trajectory along the node axis, in
        node order: a slice of them all when every node moves, so indexing
        by it copies nothing.  Every other node is stationary, and the
        angular and kinetic sums leave it out."""
        moving = [i for i in range(self.complex.r[0]) if i in self.trajectories]
        return slice(None) if len(moving) == self.complex.r[0] else moving

    @cached_property
    def positions(self):
        """(N, nodes, n): each node's trajectory; a stationary node reads
        zero."""
        import numpy as np

        zero = np.zeros((self.samples, self.n))
        rows = [self.trajectories.get(i, zero) for i in range(self.complex.r[0])]
        return _frozen(np.stack(rows, axis=1).astype(float, copy=False))

    @cached_property
    def mass(self):
        """(N, nodes): each node's mass samples; a scalar mass is constant
        and a node without one has mass zero.  It is the transpose of a
        (nodes, N) array, so the spread of each node's samples
        (``check_constant_masses``) reads one contiguous row per node."""
        import numpy as np

        m = np.empty((self.complex.r[0], self.samples))
        for i in range(self.complex.r[0]):
            m[i] = self.masses.get(i, 0.0)
        return _frozen(m.T)

    @cached_property
    def velocity(self):
        """(N, nodes, n): the sampled derivative of ``positions``."""
        if self.dt is None:
            raise KindMismatch("velocities need a sampling interval dt")
        return _frozen(series_derivative(self.positions, self.dt))

    @cached_property
    def momentum(self):
        """(N, nodes, n): the explicit momentum where one is given, m v at
        every other moving node, and zero at a stationary one."""
        import numpy as np

        moving = self.moving
        p = np.zeros((self.samples, self.complex.r[0], self.n))
        if moving:
            p[:, moving] = self.mass[:, moving, None] * self.velocity[:, moving]
        for i, given in (self.momenta or {}).items():
            p[:, i] = given
        return _frozen(p)

    @cached_property
    def momentum_rate(self):
        """(N, nodes, n): dp/dt, by the same sampling rule as the velocity."""
        return _frozen(series_derivative(self.momentum, self.dt))

    def check_convective(self):
        """Momentum must be mass times velocity, within ``_HYPOTHESIS_TOL``,
        wherever it was given explicitly; angular-momentum balance assumes
        that form.  The error names the first such node in ``momenta``."""
        import numpy as np

        if not self.momenta:
            return
        given = list(self.momenta)
        expected = self.mass[:, given, None] * self.velocity[:, given]
        errs = np.max(np.abs(self.momentum[:, given] - expected), axis=(0, 2),
                      initial=0.0)
        for i, err in zip(given, errs.tolist()):
            if err > _HYPOTHESIS_TOL:
                raise NonConvectiveMomentum(
                    f"momentum at node {i} deviates from m*v by {err:.3e}"
                )

    def check_constant_masses(self, law):
        """Every node's mass samples must spread by at most
        ``_HYPOTHESIS_TOL``; the error names the balance LAW that assumes it."""
        m = self.mass
        if (m.max(axis=0) - m.min(axis=0) > _HYPOTHESIS_TOL).any():
            raise HypothesesUnmet(f"{law} needs constant masses")


def _central(d):
    """The samples whose difference stencils are fully central, once there
    are more than five; every sample otherwise."""
    return slice(2, -2) if d.samples > 5 else slice(None)


def _node_array(d, values):
    """Node vectors as one (N, nodes, n) array: a static (n,) vector
    broadcasts over the samples and a missing one reads zero."""
    return stacked((d.samples, d.complex.r[0], d.n), values or {})


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

@dataclass
class MassBalanceReport:
    max_residual: float  # over nodes and samples of dm/dt minus incident flows
    total_mass: object  # (N,) array of the total mass per sample
    flow_is_cycle: bool
    total_mass_constant: bool
    passed: bool  # max_residual within tol


def mass_balance_check(d, tol=DEFAULT_TOL):
    """Per node and sample: the mass rate must equal the signed sum of the
    incident flow rates, and passes when every residual is within tol; total
    mass is constant exactly when the flow chain is a 1-cycle."""
    import numpy as np

    if d.flows and d.dt is None:
        raise KindMismatch("mass flows need a sampling interval dt")
    incident = stacked_boundary(d.complex, d.samples, d.flows)
    m = d.mass
    mdot = series_derivative(m, d.dt) if d.dt is not None else np.zeros_like(m)
    worst = max_abs(mdot - incident)
    total = node_sum(m)
    return MassBalanceReport(
        max_residual=worst,
        total_mass=total,
        flow_is_cycle=max_abs(incident) <= tol,
        total_mass_constant=float(np.max(total) - np.min(total)) <= tol,
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# momentum balance
# ---------------------------------------------------------------------------

@dataclass
class MomentumBalanceReport:
    # the residual per node is dp/dt - F_ext - boundary(F_int)
    max_residual: float  # over samples with full central stencils
    max_residual_full: float  # over every sample, end stencils included
    max_collective: float  # of sum_i dp/dt - sum_i F_ext over samples
    passed: bool  # max_residual and max_collective within tol


def momentum_balance_check(d, f_ext=None, f_int=None, tol=DEFAULT_TOL):
    """Newton balance per node: dp/dt = F_ext + boundary(F_int) at every
    sample, plus the collective law: the internal forces cancel out of the
    total, so d(total p)/dt tracks the external resultant alone.

    As with the angular balance, the residual verdict is taken over the
    samples whose difference stencils are fully central; the endpoint
    samples are reported separately."""
    if d.dt is None:
        raise KindMismatch("momentum balance needs a sampling interval dt")
    pdot = d.momentum_rate
    ext = _node_array(d, f_ext)
    res = pdot - ext
    res -= stacked_boundary(d.complex, d.samples, f_int or {}, (d.n,))
    worst = max_abs(res[_central(d)])
    max_collective = max_abs(node_sum(pdot) - node_sum(ext))
    return MomentumBalanceReport(
        max_residual=worst,
        max_residual_full=max_abs(res),
        max_collective=max_collective,
        passed=worst <= tol and max_collective <= tol,
    )


# ---------------------------------------------------------------------------
# impulse
# ---------------------------------------------------------------------------

def impulse(forces, dt, t0, t1):
    """Integral of each node force over the sample window [t0, t1]: the
    trapezoid rule on a series of shape (N, n), exact on piecewise-linear
    force data, which must hold the window; a static force of shape (n,)
    is constant, so its integral is F (t1 - t0) dt."""
    import numpy as np

    out = {}
    for i, force in forces.items():
        force = np.asarray(force, dtype=float)
        if force.ndim == 1:
            _check_window(t0, t1)
            out[i] = force * ((t1 - t0) * dt)
        else:
            _check_window(t0, t1, force.shape[0])
            out[i] = np.trapezoid(force[t0 : t1 + 1], dx=dt, axis=0)
    return out


def _check_window(t0, t1, samples=None):
    """Raise RangeError unless 0 <= t0 < t1, and t1 < samples when a
    sample count is given."""
    if samples is not None and not (0 <= t0 < t1 < samples):
        raise RangeError(f"window [{t0}, {t1}] outside 0..{samples - 1}")
    if not (0 <= t0 < t1):
        raise RangeError(f"window [{t0}, {t1}] is not 0 <= t0 < t1")


def impulse_momentum_gap(d, forces, t0, t1):
    """Max norm over the nodes of trapezoid-impulse minus momentum change
    over the window [t0, t1].  A node without a force has zero impulse, so
    its gap is its momentum change."""
    import numpy as np

    _check_window(t0, t1, d.samples)
    zero = np.zeros(d.n)
    every = {i: forces.get(i, zero) for i in range(d.complex.r[0])}
    impulses = impulse(every, d.dt, t0, t1)
    return max_abs(np.array(list(impulses.values())) - (d.momentum[t1] - d.momentum[t0]))


# ---------------------------------------------------------------------------
# angular momentum
# ---------------------------------------------------------------------------

@dataclass
class AngularMomentumReport:
    # the residual per node is dL/dt - r wedge F, L = r wedge p
    max_residual: float  # over samples with full central stencils
    max_residual_full: float  # over every sample, end stencils included
    max_drift: float  # max |L(t) - L(0)| over nodes and samples
    passed: bool  # max_residual within tol


def _wedge_series(r, f):
    """r wedge f for two arrays of vectors along their last axis, an array
    of n(n-1)/2 components per pair: ``wedge_components`` of their
    coordinates."""
    import numpy as np

    n = r.shape[-1]
    cols = wedge_components([r[..., c] for c in range(n)], [f[..., c] for c in range(n)])
    return np.stack(cols, axis=-1) if cols else np.zeros(r.shape[:-1] + (0,))


def angular_momentum_balance(d, forces=None, origin=None, tol=DEFAULT_TOL):
    """Orbital angular momentum L(i) = r(i) wedge p(i) about the origin and
    its balance dL/dt = r wedge F against the supplied resultant forces.

    Requires convective momentum and constant masses (the balance fails
    meaninglessly otherwise, so that is checked first).  The verdict's
    residual maximum is taken over the samples whose stencils are fully
    central; the first and last two samples inherit the one-sided endpoint
    estimators and are reported separately."""
    import numpy as np

    d.check_convective()
    d.check_constant_masses("angular-momentum balance")
    moving = d.moving
    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    r = d.positions[:, moving] - x0
    L = _wedge_series(r, d.momentum[:, moving])
    ldot = series_derivative(L, d.dt)
    res = ldot - _wedge_series(r, _node_array(d, forces)[:, moving])
    worst = max_abs(res[_central(d)])
    return AngularMomentumReport(
        max_residual=worst,
        max_residual_full=max_abs(res),
        max_drift=max_abs(L - L[0]),
        passed=worst <= tol,
    )


def moment_impulse_gap(d, forces, origin, t0, t1):
    """Max norm over the moving nodes of the integrated force moment
    (``impulse`` of the moment series) minus the angular-momentum change
    over the window [t0, t1], the moment-impulse theorem.  A node without
    a force has zero moment, so its gap is its angular-momentum change."""
    import numpy as np

    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    moving = d.moving
    r = d.positions[:, moving] - x0
    moments = _wedge_series(r, _node_array(d, forces)[:, moving])
    integrals = impulse(dict(enumerate(moments.swapaxes(0, 1))), d.dt, t0, t1)
    L = _wedge_series(r, d.momentum[:, moving])
    change = L[t1] - L[t0]
    # the shape holds when no node moves and there is no integral
    return max_abs(np.reshape(list(integrals.values()), change.shape) - change)


# ---------------------------------------------------------------------------
# kinetic energy
# ---------------------------------------------------------------------------

def kinetic_energy(d):
    """The kinetic energy of each moving node and their total: an (N, k)
    array with one column per moving node, in node order, and an (N,)
    array."""
    import numpy as np

    moving = d.moving
    ke = 0.5 * np.sum(d.momentum[:, moving] * d.velocity[:, moving], axis=2)
    return ke, node_sum(ke)


# ---------------------------------------------------------------------------
# work, potentials, conservative force fields
# ---------------------------------------------------------------------------

def work_values(k, forces):
    """Work of per-step node forces along their motion links:
    w(i)(A) = <F(i)(A), x_{A+1}(i) - x_A(i)>, one (nodes, steps) array whose
    row i is node i.  Forces are per node arrays of shape (steps, n) and
    must be constant along each link."""
    import numpy as np

    f = [np.asarray(forces[i], dtype=float) for i in range(k.base.r[0])]
    for fi in f:
        if fi.shape[0] != k.steps:
            raise KindMismatch(
                f"need one force per step ({k.steps}), got {fi.shape[0]}"
            )
    # exact positions are differenced exactly, then rounded once
    disp = np.diff(k.positions, axis=0).astype(float)
    return np.vecdot(np.stack(f), disp.swapaxes(0, 1))


def constant_field_potential(k, field):
    """Potential U(i)(A) = -<F(i), x(i)(A)> of a constant force field,
    satisfying W = -coboundary(U) along every motion link."""
    import numpy as np

    out = {}
    for i in range(k.base.r[0]):
        f = np.asarray(field[i], dtype=float)
        out[i] = -np.vecdot(k.positions[:, i].astype(float), f)
    return out


@dataclass
class ConservativeReport:
    conservative: bool
    potential: object = None  # (nodes, steps+1) array, row i node i
    witness_cycle: object = None  # trace 1-chain with nonzero work
    cycle_work: float | None = None
    work: object = None  # (nodes, steps) array of work per motion link


def conservative_check(k, forces, tol=DEFAULT_TOL):
    """A force system is conservative when its work vanishes on every cycle
    of the spatial trace of the motion.

    Each traversal of a segment is its own trace branch, so revisits in
    either direction close cycles and a time-varying or direction-dependent
    force is caught.  When the trace has chords, the trace work cochain is
    paired with the integer basis of its cycles (one per chord).  On success
    a potential is recovered by integrating the work over the spanning
    forest of the trace, which is read off each node's walk: the forest
    branch into a newly visited vertex starts at the walk's previous
    vertex, so that vertex's potential is already known.  On a walk without
    chords that is one cumsum; only a walk that revisits a position takes
    the step-by-step loop.  A trace without chords is a forest, and its
    complex is never built."""
    import numpy as np

    trace = spatial_trace(k)
    w = work_values(k, forces)
    if trace.chords:
        values = {
            edge: float(w[i][a]) for (i, a), edge in trace.step_edges.items()
        }
        work = Cochain(trace.complex, 1, values, REAL64)
        for z in cycle_basis(trace.complex, 1):
            total = evaluate(work, z)
            if abs(float(total)) > tol:
                return ConservativeReport(
                    conservative=False, witness_cycle=z,
                    cycle_work=float(total), work=w,
                )

    # U = -integrate(W) has U(root) = 0 and U(head) = U(tail) - w(step)
    # along the forest; negating a float sum is exact.  On a walk without
    # chords every moving step enters a new vertex, so U is minus the
    # running sum of its moving steps: one cumsum over all walks, adding in
    # the order the forest loop does.  A zero step adds -0.0, which leaves
    # every sum as it is, bit for bit.
    vertices = trace.vertices
    r0, times = vertices.shape
    moved = vertices[:, 1:] != vertices[:, :-1]
    steps = np.zeros((r0, times))
    steps[:, 1:] = np.where(moved, w, -0.0)
    potential = -steps.cumsum(axis=1)
    # a walk has no chord when each move reaches a vertex of its own
    chord_free = moved.sum(axis=1) == vertices.max(axis=1) - vertices[:, 0]
    for i in range(r0):
        if chord_free[i]:
            continue
        per_time = trace.node_vertices[i]
        integrated = {per_time[0]: 0.0}
        for tail, head, step in zip(per_time, per_time[1:], w[i].tolist()):
            if head not in integrated:
                integrated[head] = integrated[tail] + step
        potential[i] = [-integrated[v] for v in per_time]
    return ConservativeReport(conservative=True, potential=potential, work=w)


# ---------------------------------------------------------------------------
# work-kinetic energy and total energy
# ---------------------------------------------------------------------------

@dataclass
class WorkEnergyReport:
    passed: bool
    max_work_energy_gap: float
    max_energy_drift: float
    potential: object  # (nodes, samples) array, row i node i


def work_energy_check(d, k, forces, tol=1e-6):
    """Work along each node's path must equal its kinetic-energy change, and
    total energy (kinetic plus potential) must stay constant per node.

    Hypotheses (conservative forces, convective momentum, constant masses)
    are checked and violations raise rather than producing a meaningless
    verdict."""
    import numpy as np

    report = conservative_check(k, forces, tol)
    if not report.conservative:
        raise HypothesesUnmet(
            f"force system does non-vanishing work {report.cycle_work!r} on a cycle"
        )
    d.check_convective()
    d.check_constant_masses("work-energy theorem")
    if d.samples != k.steps + 1:
        raise HypothesesUnmet(
            "trajectory samples must coincide with the kinematical snapshots"
        )

    moving = d.moving
    ke, _ = kinetic_energy(d)
    delta_ke = ke[-1] - ke[0]
    worst_gap = max_abs(np.sum(report.work[moving], axis=1) - delta_ke)
    scale = max_abs(delta_ke, floor=1.0)
    # one contiguous row per node, so each node's spread reads one row
    e_tot = report.potential[moving] + ke.T
    worst_drift = max_abs(np.max(e_tot, axis=1) - np.min(e_tot, axis=1))
    passed = worst_gap <= tol * scale and worst_drift <= tol * scale
    return WorkEnergyReport(
        passed=passed,
        max_work_energy_gap=worst_gap,
        max_energy_drift=worst_drift,
        potential=report.potential,
    )


# ---------------------------------------------------------------------------
# d'Alembert
# ---------------------------------------------------------------------------

def _applied_minus_inertial(d, f_ext, f_int):
    """F_ext + boundary(F_int) - dp/dt at every node, an (N, nodes, n)
    array; a static or missing external force broadcasts over the
    samples."""
    net = _node_array(d, f_ext)
    net += stacked_boundary(d.complex, d.samples, f_int or {}, (d.n,))
    net -= d.momentum_rate
    return net


def dalembert_residual(d, delta_x, f_ext=None, f_int=None):
    """Largest virtual work of applied-minus-inertial forces over the samples:
    max_t |sum_i <F_res(i)(t) - dp(i)/dt, delta_x(i)>|; zero along a natural
    motion for every virtual displacement."""
    import numpy as np

    net = _applied_minus_inertial(d, f_ext, f_int)
    total = np.zeros(d.samples)
    for i in range(d.complex.r[0]):
        dx = np.asarray(delta_x.get(i, np.zeros(d.n)), dtype=float)
        if dx.any():
            total += net[:, i] @ dx
    return max_abs(total)


@dataclass
class DalembertReport:
    max_residual: float  # over nodes, coordinates and samples
    passed: bool  # max_residual within tol


def dalembert_check(d, f_ext=None, f_int=None, tol=1e-6):
    """d'Alembert's principle for every unit virtual displacement of one
    node along one coordinate: the largest ``dalembert_residual`` over them
    all must be within tol.  The applied-minus-inertial force of every node
    is formed once and paired with each unit vector, so an infinite
    component makes the other pairings NaN, as it does there.  Each
    pairing is one matrix-vector product over all nodes and samples: one
    product with the identity matrix gives the same numbers, but loads the
    BLAS matrix-matrix kernels, which raised peak memory by about 0.3 MB
    (OpenBLAS on x86-64)."""
    import numpy as np

    net = _applied_minus_inertial(d, f_ext, f_int).reshape(-1, d.n)
    worst = max_abs([net @ unit for unit in np.eye(d.n)])
    return DalembertReport(max_residual=worst, passed=worst <= tol)
