"""Balance laws along sampled trajectories of a mass network.

Masses live on nodes, mass flows on branches, momenta on nodes; each balance
law states that a time derivative equals a boundary (or a resultant), and
each conservation corollary states that the relevant chain is a cycle.
Trajectory data is handled as numpy arrays keyed by node or branch index;
derivatives use the central/one-sided sampling rule shared with time-series
chains, which is exact on quadratic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import Cochain, evaluate
from .coeffs import DEFAULT_TOL, REAL64, series_derivative
from .errors import (
    HypothesesUnmet,
    KindMismatch,
    NonConvectiveMomentum,
    RangeError,
    TooFewSamples,
    ZeroTotalMass,
)
from .homology import cycle_basis
from .kinematics import spatial_trace

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class DynamicsState:
    """Sampled dynamical data of a network: trajectories, masses, flows and
    (optionally) an explicit momentum history."""

    complex: object
    n: int
    dt: float | None = None
    trajectories: dict = field(default_factory=dict)  # node -> (N, n) array
    masses: dict = field(default_factory=dict)  # node -> scalar or (N,) array
    flows: dict = field(default_factory=dict)  # branch -> (N,) array
    momenta: dict | None = None  # node -> (N, n) array, convective if omitted

    @property
    def samples(self):
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
        return np.asarray(self.trajectories[i], dtype=float)

    def mass_series(self, i):
        m = np.asarray(self.masses.get(i, 0.0), dtype=float)
        if m.ndim == 0:
            return np.full(self.samples, float(m))
        return m

    def velocity(self, i):
        if self.dt is None:
            raise KindMismatch("velocities need a sampling interval dt")
        if self.samples < 3:
            raise TooFewSamples("derivatives need at least 3 samples")
        return series_derivative(self.trajectory(i), self.dt)

    def momentum(self, i):
        if self.momenta is not None and i in self.momenta:
            return np.asarray(self.momenta[i], dtype=float)
        if i not in self.trajectories:
            # a node with no trajectory data is stationary
            return np.zeros((self.samples, self.n))
        return self.mass_series(i)[:, None] * self.velocity(i)

    def check_convective(self, tol=1e-6):
        """Momentum must be mass times velocity wherever it was given
        explicitly; angular-momentum balance assumes that form."""
        if self.momenta is None:
            return
        for i in self.momenta:
            expected = self.mass_series(i)[:, None] * self.velocity(i)
            err = float(np.max(np.abs(self.momentum(i) - expected), initial=0.0))
            if err > tol:
                raise NonConvectiveMomentum(
                    f"momentum at node {i} deviates from m*v by {err:.3e}"
                )


def nan_max(a, b):
    """The larger of two floats, NaN when either is NaN; the builtin ``max``
    drops a NaN second argument, so a NaN residual would pass its check."""
    return float(np.maximum(a, b))


def _node_range(complex):
    return range(complex.r[0])


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

@dataclass
class MassBalanceReport:
    residual: dict  # node -> (N,) array of dm/dt minus incident flows
    max_residual: float
    total_mass: np.ndarray
    flow_is_cycle: bool
    total_mass_constant: bool


def mass_balance_check(d, tol=DEFAULT_TOL):
    """Per node and sample: the mass rate must equal the signed sum of the
    incident flow rates; total mass is constant exactly when the flow chain
    is a 1-cycle."""
    cx = d.complex
    N = d.samples
    if d.flows and d.dt is None:
        raise KindMismatch("mass flows need a sampling interval dt")
    incident = {i: np.zeros(N) for i in _node_range(cx)}
    for a, series in d.flows.items():
        series = np.asarray(series, dtype=float)
        tail, head = cx.branches[a]
        incident[head] += series
        incident[tail] -= series

    residual = {}
    worst = 0.0
    for i in _node_range(cx):
        m = d.mass_series(i)
        mdot = series_derivative(m, d.dt) if d.dt is not None else np.zeros(N)
        res = mdot - incident[i]
        residual[i] = res
        worst = nan_max(worst, np.max(np.abs(res), initial=0.0))

    total = sum(d.mass_series(i) for i in _node_range(cx))
    total = np.asarray(total, dtype=float)
    flow_cycle = all(
        float(np.max(np.abs(sum_incident), initial=0.0)) <= tol
        for sum_incident in incident.values()
    )
    return MassBalanceReport(
        residual=residual,
        max_residual=worst,
        total_mass=total,
        flow_is_cycle=flow_cycle,
        total_mass_constant=float(np.max(total) - np.min(total)) <= tol,
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
    residual: dict  # node -> (N, n) array of dp/dt - F_ext - boundary(F_int)
    max_residual: float  # over samples with full central stencils
    max_residual_full: float  # over every sample, end stencils included
    collective_residual: np.ndarray  # sum_i dp/dt - sum_i F_ext per sample
    max_collective: float


def _internal_force_at_nodes(complex, f_int, N, n):
    out = {i: np.zeros((N, n)) for i in _node_range(complex)}
    for a, series in (f_int or {}).items():
        series = np.asarray(series, dtype=float)
        tail, head = complex.branches[a]
        out[head] += series
        out[tail] -= series
    return out

def momentum_balance_check(d, f_ext=None, f_int=None, tol=DEFAULT_TOL):
    """Newton balance per node: dp/dt = F_ext + boundary(F_int) at every
    sample, plus the collective law: the internal forces cancel out of the
    total, so d(total p)/dt tracks the external resultant alone.

    As with the angular balance, the residual verdict is taken over the
    samples whose difference stencils are fully central; the endpoint
    samples are reported separately."""
    if d.dt is None:
        raise KindMismatch("momentum balance needs a sampling interval dt")
    cx = d.complex
    N = d.samples
    boundary_forces = _internal_force_at_nodes(cx, f_int, N, d.n)
    residual = {}
    worst = 0.0
    worst_full = 0.0
    trim = slice(2, -2) if N > 5 else slice(None)
    total_pdot = np.zeros((N, d.n))
    total_fext = np.zeros((N, d.n))
    for i in _node_range(cx):
        pdot = series_derivative(d.momentum(i), d.dt)
        ext = np.asarray(
            (f_ext or {}).get(i, np.zeros((N, d.n))), dtype=float
        )
        if ext.ndim == 1:
            ext = np.broadcast_to(ext, (N, d.n))
        res = pdot - ext - boundary_forces[i]
        residual[i] = res
        worst = nan_max(worst, np.max(np.abs(res[trim]), initial=0.0))
        worst_full = nan_max(worst_full, np.max(np.abs(res), initial=0.0))
        total_pdot += pdot
        total_fext += ext
    collective = total_pdot - total_fext
    return MomentumBalanceReport(
        residual=residual,
        max_residual=worst,
        max_residual_full=worst_full,
        collective_residual=collective,
        max_collective=float(np.max(np.abs(collective), initial=0.0)),
    )


# ---------------------------------------------------------------------------
# impulse
# ---------------------------------------------------------------------------

def impulse(forces, dt, t0, t1):
    """Trapezoid integral of each node force over the sample window
    [t0, t1]; exact on piecewise-linear force data."""
    out = {}
    for i, series in forces.items():
        series = np.asarray(series, dtype=float)
        if not (0 <= t0 < t1 < series.shape[0]):
            raise RangeError(f"window [{t0}, {t1}] outside 0..{series.shape[0] - 1}")
        window = series[t0 : t1 + 1]
        out[i] = _trapz(window, dx=dt, axis=0)
    return out


def impulse_momentum_gap(d, forces, t0, t1):
    """Max norm of trapezoid-impulse minus momentum change over the window."""
    imp = impulse(forces, d.dt, t0, t1)
    worst = 0.0
    for i, value in imp.items():
        p = d.momentum(i)
        gap = value - (p[t1] - p[t0])
        worst = nan_max(worst, np.max(np.abs(gap), initial=0.0))
    return worst


# ---------------------------------------------------------------------------
# angular momentum
# ---------------------------------------------------------------------------

@dataclass
class AngularMomentumReport:
    angular_momentum: dict  # node -> (N, comps) bivector component arrays
    residual: dict  # node -> (N, comps) of dL/dt - r wedge F
    max_residual: float  # over samples with full central stencils
    max_residual_full: float  # over every sample, end stencils included
    max_drift: float  # max |L(t) - L(0)| over nodes and samples


def _wedge_series(r, f):
    n = r.shape[1]
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(r[:, i] * f[:, j] - r[:, j] * f[:, i])
    return np.stack(cols, axis=1) if cols else np.zeros((r.shape[0], 0))


def angular_momentum_balance(d, forces=None, origin=None, tol=DEFAULT_TOL,
                             convective_tol=1e-6):
    """Orbital angular momentum L(i) = r(i) wedge p(i) about the origin and
    its balance dL/dt = r wedge F against the supplied resultant forces.

    Requires convective momentum and constant masses (the balance fails
    meaninglessly otherwise, so that is checked first).  The verdict's
    residual maximum is taken over the samples whose stencils are fully
    central; the first and last two samples inherit the one-sided endpoint
    estimators and are reported separately."""
    d.check_convective(convective_tol)
    for i in _node_range(d.complex):
        m = d.mass_series(i)
        if float(np.max(m) - np.min(m)) > convective_tol:
            raise HypothesesUnmet("angular-momentum balance needs constant masses")
    N = d.samples
    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    ls = {}
    residual = {}
    worst = 0.0
    worst_full = 0.0
    drift = 0.0
    trim = slice(2, -2) if N > 5 else slice(None)
    for i in _node_range(d.complex):
        if i not in d.trajectories:
            continue
        r = d.trajectory(i) - x0
        p = d.momentum(i)
        L = _wedge_series(r, p)
        ls[i] = L
        drift = nan_max(drift, np.max(np.abs(L - L[0]), initial=0.0))
        ldot = series_derivative(L, d.dt)
        f = np.asarray((forces or {}).get(i, np.zeros((N, d.n))), dtype=float)
        res = ldot - _wedge_series(r, f)
        residual[i] = res
        worst = nan_max(worst, np.max(np.abs(res[trim]), initial=0.0))
        worst_full = nan_max(worst_full, np.max(np.abs(res), initial=0.0))
    return AngularMomentumReport(
        angular_momentum=ls,
        residual=residual,
        max_residual=worst,
        max_residual_full=worst_full,
        max_drift=drift,
    )


def moment_impulse_gap(d, forces, origin, t0, t1):
    """Max norm of the integrated force moment minus the angular-momentum
    change over the window (the moment-impulse theorem)."""
    x0 = np.zeros(d.n) if origin is None else np.asarray(origin, dtype=float)
    worst = 0.0
    for i in _node_range(d.complex):
        if i not in d.trajectories or i not in forces:
            continue
        r = d.trajectory(i) - x0
        f = np.asarray(forces[i], dtype=float)
        m_series = _wedge_series(r, f)
        if not (0 <= t0 < t1 < m_series.shape[0]):
            raise RangeError(f"window [{t0}, {t1}] out of range")
        integral = _trapz(m_series[t0 : t1 + 1], dx=d.dt, axis=0)
        L = _wedge_series(r, d.momentum(i))
        gap = integral - (L[t1] - L[t0])
        worst = nan_max(worst, np.max(np.abs(gap), initial=0.0))
    return worst


# ---------------------------------------------------------------------------
# kinetic energy
# ---------------------------------------------------------------------------

def kinetic_energy(d, t_index=None):
    """Per-node kinetic energy and the total (their augmented sum).

    With ``t_index`` given, returns (per-node dict of floats, total float);
    otherwise per-node (N,) arrays and an (N,) total."""
    per_node = {}
    total = None
    for i in _node_range(d.complex):
        if i not in d.trajectories:
            continue
        v = d.velocity(i)
        p = d.momentum(i)
        ke = 0.5 * np.sum(p * v, axis=1)
        per_node[i] = ke
        total = ke.copy() if total is None else total + ke
    if total is None:
        total = np.zeros(d.samples)
    if t_index is not None:
        return (
            {i: float(ke[t_index]) for i, ke in per_node.items()},
            float(total[t_index]),
        )
    return per_node, total


# ---------------------------------------------------------------------------
# work, potentials, conservative force fields
# ---------------------------------------------------------------------------

def work_values(k, forces):
    """Work of per-step node forces along their motion links:
    w(i)(A) = <F(i)(A), x_{A+1}(i) - x_A(i)>.  Forces are per node arrays of
    shape (steps, n) and must be constant along each link."""
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
    return Cochain(k.complex, 1, values, REAL64, prune=False)


def path_work(k, forces, i):
    """Total work along node i's motion path."""
    return float(np.sum(work_values(k, forces)[i]))


def constant_field_potential(k, field):
    """Potential U(i)(A) = -<F(i), x(i)(A)> of a constant force field,
    satisfying W = -coboundary(U) along every motion link."""
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
    vertex, so that vertex's potential is already known.  A trace without
    chords is a forest, and its complex is never built."""
    trace = spatial_trace(k)
    w = work_values(k, forces)
    if trace.chords:
        values = {
            edge: float(w[i][a]) for (i, a), edge in trace.step_edges.items()
        }
        work = Cochain(trace.complex, 1, values, REAL64, prune=False)
        for z in cycle_basis(trace.complex, 1):
            total = evaluate(work, z)
            if abs(float(total)) > tol:
                return ConservativeReport(
                    conservative=False, witness_cycle=z,
                    cycle_work=float(total), work=w,
                )

    # U = -integrate(W) has U(root) = 0 and U(head) = U(tail) - w(step)
    # along the forest; negating a float sum is exact
    potential = {}
    for i, per_time in enumerate(trace.node_vertices):
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
    report = conservative_check(k, forces, tol)
    if not report.conservative:
        raise HypothesesUnmet(
            f"force system does non-vanishing work {report.cycle_work!r} on a cycle"
        )
    d.check_convective()
    for i in _node_range(d.complex):
        m = d.mass_series(i)
        if float(np.max(m) - np.min(m)) > 1e-12:
            raise HypothesesUnmet("work-energy theorem needs constant masses")
    if d.samples != k.steps + 1:
        raise HypothesesUnmet(
            "trajectory samples must coincide with the kinematical snapshots"
        )

    ke, _ = kinetic_energy(d)
    works = report.work
    worst_gap = 0.0
    worst_drift = 0.0
    scale = 1.0
    for i in _node_range(d.complex):
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

def dalembert_residual(d, delta_x, f_ext=None, f_int=None):
    """Largest virtual work of applied-minus-inertial forces over the samples:
    max_t |sum_i <F_res(i)(t) - dp(i)/dt, delta_x(i)>|; zero along a natural
    motion for every virtual displacement."""
    cx = d.complex
    N = d.samples
    boundary_forces = _internal_force_at_nodes(cx, f_int, N, d.n)
    total = np.zeros(N)
    for i in _node_range(cx):
        dx = np.asarray(delta_x.get(i, np.zeros(d.n)), dtype=float)
        if not dx.any():
            continue
        ext = np.asarray((f_ext or {}).get(i, np.zeros((N, d.n))), dtype=float)
        if ext.ndim == 1:
            ext = np.broadcast_to(ext, (N, d.n))
        pdot = series_derivative(d.momentum(i), d.dt)
        total += (ext + boundary_forces[i] - pdot) @ dx
    return float(np.max(np.abs(total), initial=0.0))
