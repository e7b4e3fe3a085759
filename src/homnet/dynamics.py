"""Balance laws along sampled trajectories of a mass network.

Masses live on nodes, mass flows on branches, momenta on nodes; each balance
law states that a time derivative equals a boundary (or a resultant), and
each conservation corollary states that the relevant chain is a cycle.
Trajectory data is handled as numpy arrays keyed by node or branch index;
derivatives use the central/one-sided sampling rule shared with time-series
chains, which is exact on quadratic samples.  A ``DynamicsState`` computes
each node's velocity, momentum and momentum rate once; ``homnet.cli`` keeps
one state per document, so the momentum, angular, d'Alembert and energy
checks differentiate each trajectory once between them.  The potential of a
walk that revisits no position is one running sum over the whole array,
bit-identical to integrating it step by step.  Each function imports numpy
itself: ``homnet.cli`` loads this module, and an exact document must not
pay for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import Cochain, evaluate
from .coeffs import DEFAULT_TOL, REAL64, series_derivative, wedge_components
from .errors import (
    HypothesesUnmet,
    KindMismatch,
    NonConvectiveMomentum,
    RangeError,
    ZeroTotalMass,
)
from .homology import cycle_basis
from .kinematics import spatial_trace

# How far momentum may be from m*v, and a node's mass samples from one
# another, for a balance law that assumes them equal
_HYPOTHESIS_TOL = 1e-6


@dataclass
class DynamicsState:
    """Sampled dynamical data of a network: trajectories, masses, flows and
    (optionally) an explicit momentum history.

    Each node's velocity, convective momentum and momentum rate are
    computed once, on first use, and shared as read-only arrays; the data
    fields are not meant to change after that."""

    complex: object
    n: int
    dt: float | None = None
    trajectories: dict = field(default_factory=dict)  # node -> (N, n) array
    masses: dict = field(default_factory=dict)  # node -> scalar or (N,) array
    flows: dict = field(default_factory=dict)  # branch -> (N,) array
    momenta: dict | None = None  # node -> (N, n) array, convective if omitted
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # (quantity, node) -> array

    def _cached(self, quantity, i, compute):
        key = (quantity, i)
        if key not in self._derived:
            value = compute()
            value.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]

    @property
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

    def trajectory(self, i):
        import numpy as np

        return np.asarray(self.trajectories[i], dtype=float)

    def mass_series(self, i):
        import numpy as np

        m = np.asarray(self.masses.get(i, 0.0), dtype=float)
        if m.ndim == 0:
            return np.full(self.samples, float(m))
        return m

    def velocity(self, i):
        if self.dt is None:
            raise KindMismatch("velocities need a sampling interval dt")
        return self._cached(
            "velocity", i, lambda: series_derivative(self.trajectory(i), self.dt)
        )

    def momentum(self, i):
        import numpy as np

        if self.momenta is not None and i in self.momenta:
            return np.asarray(self.momenta[i], dtype=float)
        if i not in self.trajectories:
            # a node with no trajectory data is stationary
            return np.zeros((self.samples, self.n))
        return self._cached(
            "momentum", i, lambda: self.mass_series(i)[:, None] * self.velocity(i)
        )

    def momentum_rate(self, i):
        """dp/dt at node i, by the same sampling rule as the velocity."""
        return self._cached(
            "momentum_rate", i, lambda: series_derivative(self.momentum(i), self.dt)
        )

    def check_convective(self):
        """Momentum must be mass times velocity, within ``_HYPOTHESIS_TOL``,
        wherever it was given explicitly; angular-momentum balance assumes
        that form."""
        import numpy as np

        if self.momenta is None:
            return
        for i in self.momenta:
            expected = self.mass_series(i)[:, None] * self.velocity(i)
            err = float(np.max(np.abs(self.momentum(i) - expected), initial=0.0))
            if err > _HYPOTHESIS_TOL:
                raise NonConvectiveMomentum(
                    f"momentum at node {i} deviates from m*v by {err:.3e}"
                )

    def check_constant_masses(self, law):
        """Every node's mass samples must spread by at most
        ``_HYPOTHESIS_TOL``; the error names the balance LAW that assumes it."""
        import numpy as np

        for i in range(self.complex.r[0]):
            m = self.mass_series(i)
            if float(np.max(m) - np.min(m)) > _HYPOTHESIS_TOL:
                raise HypothesesUnmet(f"{law} needs constant masses")


def nan_max(a, b):
    """The larger of two floats, NaN when either is NaN; the builtin ``max``
    drops a NaN second argument, so a NaN residual would pass its check."""
    import numpy as np

    return float(np.maximum(a, b))


def _node_boundary(complex, values, shape):
    """The boundary of branch values at every node, as arrays of ``shape``:
    each value, a series or a static one, enters its head and leaves its tail."""
    import numpy as np

    out = {i: np.zeros(shape) for i in range(complex.r[0])}
    for a, series in (values or {}).items():
        series = np.asarray(series, dtype=float)
        tail, head = complex.branches[a]
        out[head] += series
        out[tail] -= series
    return out


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

    cx = d.complex
    N = d.samples
    if d.flows and d.dt is None:
        raise KindMismatch("mass flows need a sampling interval dt")
    incident = _node_boundary(cx, d.flows, N)

    worst = 0.0
    for i in range(cx.r[0]):
        m = d.mass_series(i)
        mdot = series_derivative(m, d.dt) if d.dt is not None else np.zeros(N)
        res = mdot - incident[i]
        worst = nan_max(worst, np.max(np.abs(res), initial=0.0))

    total = sum(d.mass_series(i) for i in range(cx.r[0]))
    total = np.asarray(total, dtype=float)
    flow_cycle = all(
        float(np.max(np.abs(sum_incident), initial=0.0)) <= tol
        for sum_incident in incident.values()
    )
    return MassBalanceReport(
        max_residual=worst,
        total_mass=total,
        flow_is_cycle=flow_cycle,
        total_mass_constant=float(np.max(total) - np.min(total)) <= tol,
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# mass moment and center of mass
# ---------------------------------------------------------------------------

def mass_moment(masses, g, origin):
    """Sum of mass-weighted offsets from the origin (a covector by the
    Euclidean transpose)."""
    x0 = tuple(origin)
    total = tuple(0.0 for _ in range(g.n))
    for i in range(g.complex.r[0]):
        m = float(masses.get(i, 0.0))
        if not m:
            continue
        r = tuple(float(p) - float(q) for p, q in zip(g.positions[i], x0))
        total = tuple(t + m * c for t, c in zip(total, r))
    return total


def center_of_mass(masses, g):
    """Mass-weighted mean position; the mass moment about it vanishes."""
    total_mass = sum(float(m) for m in masses.values())
    if total_mass <= 0:
        raise ZeroTotalMass("total mass must be positive")
    acc = tuple(0.0 for _ in range(g.n))
    for i, m in masses.items():
        acc = tuple(
            t + float(m) * float(c) for t, c in zip(acc, g.positions[i])
        )
    return tuple(t / total_mass for t in acc)


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
    import numpy as np

    if d.dt is None:
        raise KindMismatch("momentum balance needs a sampling interval dt")
    cx = d.complex
    N = d.samples
    boundary_forces = _node_boundary(cx, f_int, (N, d.n))
    worst = 0.0
    worst_full = 0.0
    trim = slice(2, -2) if N > 5 else slice(None)
    total_pdot = np.zeros((N, d.n))
    total_fext = np.zeros((N, d.n))
    for i in range(cx.r[0]):
        pdot = d.momentum_rate(i)
        # a static force (n,) or a missing one (0.0) broadcasts over samples
        ext = np.asarray((f_ext or {}).get(i, 0.0), dtype=float)
        res = pdot - ext - boundary_forces[i]
        worst = nan_max(worst, np.max(np.abs(res[trim]), initial=0.0))
        worst_full = nan_max(worst_full, np.max(np.abs(res), initial=0.0))
        total_pdot += pdot
        total_fext += ext
    collective = total_pdot - total_fext
    max_collective = float(np.max(np.abs(collective), initial=0.0))
    return MomentumBalanceReport(
        max_residual=worst,
        max_residual_full=worst_full,
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
    worst = 0.0
    for i, j in impulse(every, d.dt, t0, t1).items():
        p = d.momentum(i)
        worst = nan_max(worst, np.max(np.abs(j - (p[t1] - p[t0])), initial=0.0))
    return worst


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
    """r wedge f at every sample of two (N, n) arrays, an (N, n(n-1)/2)
    array: ``wedge_components`` of their coordinate columns."""
    import numpy as np

    cols = wedge_components(r.T, f.T)
    return np.stack(cols, axis=1) if cols else np.zeros((len(r), 0))


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
    N = d.samples
    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    worst = 0.0
    worst_full = 0.0
    drift = 0.0
    trim = slice(2, -2) if N > 5 else slice(None)
    for i in range(d.complex.r[0]):
        if i not in d.trajectories:
            continue
        r = d.trajectory(i) - x0
        p = d.momentum(i)
        L = _wedge_series(r, p)
        drift = nan_max(drift, np.max(np.abs(L - L[0]), initial=0.0))
        ldot = series_derivative(L, d.dt)
        f = np.asarray((forces or {}).get(i, np.zeros((N, d.n))), dtype=float)
        res = ldot - _wedge_series(r, f)
        worst = nan_max(worst, np.max(np.abs(res[trim]), initial=0.0))
        worst_full = nan_max(worst_full, np.max(np.abs(res), initial=0.0))
    return AngularMomentumReport(
        max_residual=worst,
        max_residual_full=worst_full,
        max_drift=drift,
        passed=worst <= tol,
    )


def moment_impulse_gap(d, forces, origin, t0, t1):
    """Max norm over the moving nodes of the integrated force moment
    (``impulse`` of the moment series) minus the angular-momentum change
    over the window [t0, t1], the moment-impulse theorem.  A node without
    a force has zero moment, so its gap is its angular-momentum change."""
    import numpy as np

    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    zero = np.zeros((d.samples, d.n))
    arms, moments = {}, {}
    for i in range(d.complex.r[0]):
        if i in d.trajectories:
            arms[i] = r = d.trajectory(i) - x0
            moments[i] = _wedge_series(r, np.asarray(forces.get(i, zero), dtype=float))
    worst = 0.0
    for i, integral in impulse(moments, d.dt, t0, t1).items():
        L = _wedge_series(arms[i], d.momentum(i))
        worst = nan_max(worst, np.max(np.abs(integral - (L[t1] - L[t0])), initial=0.0))
    return worst


# ---------------------------------------------------------------------------
# kinetic energy
# ---------------------------------------------------------------------------

def kinetic_energy(d):
    """Per-node kinetic energy and the total (their augmented sum): a dict
    of (N,) arrays over the nodes with a trajectory, and an (N,) array."""
    import numpy as np

    per_node = {}
    total = None
    for i in range(d.complex.r[0]):
        if i not in d.trajectories:
            continue
        v = d.velocity(i)
        p = d.momentum(i)
        ke = 0.5 * np.sum(p * v, axis=1)
        per_node[i] = ke
        total = ke.copy() if total is None else total + ke
    if total is None:
        total = np.zeros(d.samples)
    return per_node, total


# ---------------------------------------------------------------------------
# work, potentials, conservative force fields
# ---------------------------------------------------------------------------

def work_values(k, forces):
    """Work of per-step node forces along their motion links:
    w(i)(A) = <F(i)(A), x_{A+1}(i) - x_A(i)>.  Forces are per node arrays of
    shape (steps, n) and must be constant along each link."""
    import numpy as np

    out = {}
    for i in range(k.base.r[0]):
        f = np.asarray(forces[i], dtype=float)
        if f.shape[0] != k.steps:
            raise KindMismatch(
                f"need one force per step ({k.steps}), got {f.shape[0]}"
            )
        # exact positions are differenced exactly, then rounded once
        disp = np.diff(k.positions[:, i], axis=0).astype(float)
        out[i] = np.vecdot(f, disp)
    return out


def work_cochain(k, forces):
    """The work 1-cochain on the kinematical complex's motion links."""
    values = {}
    for i, w in work_values(k, forces).items():
        for a in range(k.steps):
            values[k.motion_link(i, a)] = float(w[a])
    return Cochain(k.complex, 1, values, REAL64)


def path_work(k, forces, i):
    """Total work along node i's motion path."""
    import numpy as np

    return float(np.sum(work_values(k, forces)[i]))


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
    potential: dict | None = None  # node -> (steps+1,) potential samples
    witness_cycle: object = None  # trace 1-chain with nonzero work
    cycle_work: float | None = None
    work: dict | None = None  # node -> (steps,) work per motion link


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
    work = np.array([w[i] for i in range(r0)]).reshape(moved.shape)
    steps = np.zeros((r0, times))
    steps[:, 1:] = np.where(moved, work, -0.0)
    running = -steps.cumsum(axis=1)
    # a walk has no chord when each move reaches a vertex of its own
    chord_free = moved.sum(axis=1) == vertices.max(axis=1) - vertices[:, 0]
    potential = {}
    for i in range(r0):
        if chord_free[i]:
            potential[i] = running[i]
            continue
        per_time = trace.node_vertices[i]
        integrated = {per_time[0]: 0.0}
        for tail, head, step in zip(per_time, per_time[1:], w[i].tolist()):
            if head not in integrated:
                integrated[head] = integrated[tail] + step
        potential[i] = -np.array([integrated[v] for v in per_time])
    return ConservativeReport(conservative=True, potential=potential, work=w)


# ---------------------------------------------------------------------------
# work-kinetic energy and total energy
# ---------------------------------------------------------------------------

@dataclass
class WorkEnergyReport:
    passed: bool
    max_work_energy_gap: float
    max_energy_drift: float
    potential: dict


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

    ke, _ = kinetic_energy(d)
    works = report.work
    worst_gap = 0.0
    worst_drift = 0.0
    scale = 1.0
    for i in range(d.complex.r[0]):
        if i not in d.trajectories:
            continue
        w_path = float(np.sum(works[i]))
        delta_ke = float(ke[i][-1] - ke[i][0])
        worst_gap = nan_max(worst_gap, abs(w_path - delta_ke))
        scale = nan_max(scale, abs(delta_ke))
        e_tot = ke[i] + report.potential[i]
        worst_drift = nan_max(worst_drift, np.max(e_tot) - np.min(e_tot))
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

def _applied_minus_inertial(d, i, f_ext, boundary_forces):
    """F_ext(i) + boundary(F_int)(i) - dp(i)/dt, an (N, n) array; a static
    or missing external force broadcasts over the samples."""
    import numpy as np

    ext = np.asarray((f_ext or {}).get(i, 0.0), dtype=float)
    return ext + boundary_forces[i] - d.momentum_rate(i)


def dalembert_residual(d, delta_x, f_ext=None, f_int=None):
    """Largest virtual work of applied-minus-inertial forces over the samples:
    max_t |sum_i <F_res(i)(t) - dp(i)/dt, delta_x(i)>|; zero along a natural
    motion for every virtual displacement."""
    import numpy as np

    boundary_forces = _node_boundary(d.complex, f_int, (d.samples, d.n))
    total = np.zeros(d.samples)
    for i in range(d.complex.r[0]):
        dx = np.asarray(delta_x.get(i, np.zeros(d.n)), dtype=float)
        if dx.any():
            total += _applied_minus_inertial(d, i, f_ext, boundary_forces) @ dx
    return float(np.max(np.abs(total), initial=0.0))


@dataclass
class DalembertReport:
    max_residual: float  # over nodes, coordinates and samples
    passed: bool  # max_residual within tol


def dalembert_check(d, f_ext=None, f_int=None, tol=1e-6):
    """d'Alembert's principle for every unit virtual displacement of one
    node along one coordinate: the largest ``dalembert_residual`` over them
    all must be within tol.  Each node's applied-minus-inertial force is
    formed once and paired with each unit vector, so a non-finite entry
    poisons the same pairings as it does there."""
    import numpy as np

    boundary_forces = _node_boundary(d.complex, f_int, (d.samples, d.n))
    worst = 0.0
    for i in range(d.complex.r[0]):
        net = _applied_minus_inertial(d, i, f_ext, boundary_forces)
        for unit in np.eye(d.n):
            worst = nan_max(worst, np.max(np.abs(net @ unit), initial=0.0))
    return DalembertReport(max_residual=worst, passed=worst <= tol)
