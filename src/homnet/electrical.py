"""Kirchhoff-law verification on charge/current/voltage distributions.

Current conservation is the statement that the current 1-chain is a cycle;
charge storage turns it into a balance whose residual lives on the nodes,
the incident currents minus the charging rate, as mass balance is in
``dynamics``.  Joining every node to an apex carrying its charging rate
extends the current chain so that total-charge conservation is again a
plain cycle test, read from the residual and the total rate without
building the cone.  On the voltage side, a drop distribution is consistent
exactly when it is the coboundary of a node potential integrated along the
spanning forest.

A DC circuit (``CircuitState``) holds chains, over the integers when every
value is integral, so both laws add plain ints, else over the rationals or
the 64-bit reals; its static charges have no rate.  A sampled circuit
(``SampledCircuit``) holds float arrays stacked over the nodes, as a
``dynamics`` state does, and adds in the order the chain operations do, so
it prints the floats that chains of series would.  Float data is judged on
its residuals as computed, at the tolerance a check is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .chains import (
    Chain, Cochain, boundary, coboundary, max_abs, node_sum, stacked, stacked_boundary,
)
from .coeffs import DEFAULT_TOL, INTEGER, RATIONAL, REAL64, fsum, series_derivative
from .complexes import path_components
from .errors import KindMismatch
from .homology import is_coboundary


@dataclass
class CircuitState:
    """Charge 0-chain, current 1-chain and voltage 0-cochain of a DC
    circuit on one complex, all sharing a coefficient kind."""

    complex: object
    current: Chain
    charge: Chain | None = None
    voltage: Cochain | None = None

    def __post_init__(self):
        mod = self.current.module
        for other in (self.charge, self.voltage):
            if other is not None and not mod.compatible(other.module):
                raise KindMismatch(
                    f"circuit attributes mix {mod} with {other.module}"
                )

    @property
    def module(self):
        return self.current.module


def circuit_state(complex, currents, charges=None, voltages=None):
    """Build a CircuitState from per-label values.

    The coefficient kind is exact when every value is an int or a Fraction:
    the integers (``INTEGER``, values as ints) when every one is integral,
    the rationals (``RATIONAL``) else; with any other value it is 64-bit
    reals."""
    flat = [*currents.values(), *(charges or {}).values(), *(voltages or {}).values()]
    if not all(isinstance(v, (int, Fraction)) for v in flat):
        mod, conv = REAL64, float
    elif all(v.denominator == 1 for v in flat):
        mod, conv = INTEGER, int
    else:
        mod, conv = RATIONAL, Fraction

    def by_index(kind, dim, values):
        if values is None:
            return None
        index = complex.node_index if dim == 0 else complex.branch_index
        return kind(complex, dim, {index(k): conv(v) for k, v in values.items()}, mod)

    return CircuitState(
        complex=complex,
        current=by_index(Chain, 1, currents),
        charge=by_index(Chain, 0, charges),
        voltage=by_index(Cochain, 0, voltages),
    )


@dataclass
class SampledCircuit:
    """Currents by branch index, each a series or a constant, and (samples,
    nodes) charges and voltages, sampled every ``dt``."""

    complex: object
    dt: float
    samples: int
    current: dict
    charge: object = None
    voltage: object = None

    @cached_property
    def drop(self):
        """(samples, branches): V(head) - V(tail) on every branch."""
        import numpy as np

        if self.voltage is None:
            raise KindMismatch("no voltage distribution present")
        ends = np.array(self.complex.branches, dtype=int).reshape(-1, 2)
        return self.voltage[:, ends[:, 1]] - self.voltage[:, ends[:, 0]]


def sampled_circuit(complex, dt, samples, currents=None, charges=None,
                    voltages=None):
    """Build a SampledCircuit from per-label values, each a series of
    ``samples`` floats or a constant; a node without a charge or a voltage
    reads zero."""
    def by_node(values):
        nodes = {complex.node_index(k): v for k, v in (values or {}).items()}
        return None if values is None else stacked((samples, complex.r[0]), nodes)

    current = {complex.branch_index(k): v for k, v in (currents or {}).items()}
    return SampledCircuit(complex, dt, samples, current, by_node(charges),
                          by_node(voltages))


# ---------------------------------------------------------------------------
# current side
# ---------------------------------------------------------------------------

@dataclass
class KclReport:
    residual: object  # boundary(I) - dQ/dt: a Chain, or (samples, nodes)
    balanced: bool  # is the residual zero
    conserved: bool  # is the current chain a cycle
    extended_cycle: bool  # is the extended current chain a cycle
    max_residual: float


def kcl_check(state, tol=DEFAULT_TOL):
    """Charge balance at every node: the signed sum of incident currents
    must equal the charging rate, zero in a DC ``CircuitState``.  Every
    verdict reads the residual as computed, at ``tol``, so at ``tol=0`` a
    float residual passes only when it is exactly zero."""
    if isinstance(state, SampledCircuit):
        return _sampled_kcl(state, tol)
    residual = boundary(state.current)
    balanced = residual.is_zero(tol)
    norms = map(state.module.norm, residual.coeffs.values())
    return KclReport(residual=residual, balanced=balanced, conserved=balanced,
                     extended_cycle=balanced, max_residual=max(norms, default=0.0))


def _sampled_kcl(circuit, tol):
    """``kcl_check`` on stacked arrays: the boundary of the currents minus
    one derivative of the charges, zero when no charge sample is nonzero
    however few the samples; a NaN residual makes ``max_residual`` NaN."""
    import numpy as np

    incident = stacked_boundary(circuit.complex, circuit.samples, circuit.current)
    charge = circuit.charge
    if charge is not None and charge.any():
        rate = series_derivative(charge, circuit.dt)
    else:
        rate = np.zeros_like(incident)
    residual = incident - rate
    worst = max_abs(residual)
    return KclReport(
        residual=residual,
        balanced=worst <= tol,
        conserved=max_abs(incident) <= tol,
        extended_cycle=worst <= tol and max_abs(node_sum(rate)) <= tol,
        max_residual=worst,
    )


# ---------------------------------------------------------------------------
# voltage side
# ---------------------------------------------------------------------------

def voltage_drop(state):
    """Branch drops drop(a) = V(head) - V(tail): the coboundary of a DC
    circuit's voltage cochain, or a sampled circuit's (samples, branches)
    ``drop``."""
    if isinstance(state, SampledCircuit):
        return state.drop
    if state.voltage is None:
        raise KindMismatch("no voltage distribution present")
    return coboundary(state.voltage)


@dataclass
class KvlReport:
    passed: bool
    potential: object = None  # a Cochain, or (samples, nodes)
    witness_cycle: Chain | None = None
    cycle_sum: object = None


def kvl_check(drops, tol=DEFAULT_TOL, complex=None):
    """A drop distribution is consistent iff it is a coboundary; on failure
    the report carries a cycle with a nonzero drop sum around it.  DROPS is
    a drop cochain, or (samples, branches) drops on COMPLEX."""
    if not isinstance(drops, Cochain):
        return _sampled_kvl(complex, drops, tol)
    result = is_coboundary(drops, tol)
    if result.is_coboundary:
        return KvlReport(passed=True, potential=result.potential)
    return KvlReport(
        passed=False, witness_cycle=result.witness, cycle_sum=result.pairing
    )


def _sampled_kvl(cx, drop, tol):
    """``homology.is_coboundary`` on stacked drops, each chord's cycle
    summed as ``chains.evaluate`` sums it: rounded once per sample."""
    import numpy as np

    forest = cx.forest
    potential = np.zeros((len(drop), cx.r[0]))
    for v in forest.order:
        a = forest.branch[v]
        if a is not None:
            step = drop[:, a] if forest.sign[v] == 1 else -drop[:, a]
            potential[:, v] = potential[:, forest.parent[v]] + step
    for a in forest.chords:
        cycle = forest.cycle(a)
        terms = drop[:, list(cycle)] * list(cycle.values())
        total = np.array([fsum(row) for row in terms.tolist()])
        if not max_abs(total) <= tol:
            witness = Chain(cx, 1, cycle, INTEGER)
            return KvlReport(passed=False, witness_cycle=witness, cycle_sum=total)
    for comp in path_components(cx):
        potential[:, comp] -= potential[:, comp[-1:]]
    return KvlReport(passed=True, potential=potential)
