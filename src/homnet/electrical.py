"""Kirchhoff-law verification on charge/current/voltage distributions.

Current conservation is the statement that the current 1-chain is a cycle;
charge storage turns it into a balance whose residual lives on the nodes.
Joining every node to an apex carrying its charging rate extends the current
chain so that total-charge conservation is again a plain cycle test, read
from the residual and the augmented boundary of the rates without building
the cone.  On the voltage side, a drop distribution is consistent exactly
when it is the coboundary of a node potential; exact drops are checked
against the potential integrated along the spanning forest.

Integral data (ints, or fractions with denominator 1) is a chain over the
integers: both laws then add and negate plain ints, and a potential
integrated from integer drops is integral.  Other exact data is rational.
Float data is judged on its residuals as computed, at the tolerance a check
is given; no entry is dropped beforehand for being small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain, Cochain, augmented_boundary, boundary, coboundary, cone_chain
from .coeffs import DEFAULT_TOL, INTEGER, RATIONAL, REAL64, TimeSeriesModule
from .errors import KindMismatch
from .homology import is_coboundary


@dataclass
class CircuitState:
    """Charge 0-chain, current 1-chain and voltage 0-cochain on one complex,
    all sharing a coefficient kind (and dt/length for sampled signals)."""

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

    def charging_rate(self):
        """dQ/dt per node: zero for DC kinds, sampled derivative otherwise."""
        mod = self.module
        if self.charge is None or not isinstance(mod, TimeSeriesModule):
            return Chain.zero(self.complex, 0, mod)
        values = {i: mod.derivative(v) for i, v in self.charge.coeffs.items()}
        return Chain(self.complex, 0, values, mod)


def circuit_state(complex, currents, charges=None, voltages=None, dt=None,
                  samples=None):
    """Build a CircuitState from per-label values.

    With dt and samples the coefficient kind is a sampled signal.  Otherwise
    it is exact when every value is an int or a Fraction: the integers
    (``INTEGER``, values as ints) when every one is integral, the
    rationals (``RATIONAL``) else; with any other value it is 64-bit
    reals."""
    if dt is not None:
        if samples is None:
            raise KindMismatch("sampled signals need both dt and samples")
        mod = TimeSeriesModule(dt, samples)

        def conv(v):
            return mod.coerce(v)

    else:
        flat = list(currents.values()) + list((charges or {}).values()) + list(
            (voltages or {}).values()
        )
        if not all(isinstance(v, (int, Fraction)) for v in flat):
            mod = REAL64
            conv = float
        elif all(v.denominator == 1 for v in flat):
            mod = INTEGER
            conv = int
        else:
            mod = RATIONAL
            conv = Fraction

    current = Chain(
        complex,
        1,
        {complex.branch_index(k): conv(v) for k, v in currents.items()},
        mod,
    )
    charge = None
    if charges is not None:
        charge = Chain(
            complex,
            0,
            {complex.node_index(k): conv(v) for k, v in charges.items()},
            mod,
        )
    voltage = None
    if voltages is not None:
        voltage = Cochain(
            complex,
            0,
            {complex.node_index(k): conv(v) for k, v in voltages.items()},
            mod,
            prune=False,
        )
    return CircuitState(complex=complex, current=current, charge=charge,
                        voltage=voltage)


# ---------------------------------------------------------------------------
# current side
# ---------------------------------------------------------------------------

@dataclass
class KclReport:
    residual: Chain  # boundary(I) - dQ/dt
    balanced: bool  # is the residual zero
    conserved: bool  # is the current chain a cycle
    extended_cycle: bool  # is the extended current chain a cycle
    max_residual: float


def kcl_check(state, tol=DEFAULT_TOL):
    """Charge balance at every node: the signed sum of incident currents
    must equal the charging rate; with zero rates this is the cycle test.
    Every verdict reads the residual as computed, at ``tol``, so at
    ``tol=0`` a float residual passes only when it is exactly zero."""
    mod = state.module
    flow = boundary(state.current)
    rate = state.charging_rate()
    residual = flow - rate
    balanced = residual.is_zero(tol)
    apex = augmented_boundary(rate)
    return KclReport(
        residual=residual,
        balanced=balanced,
        conserved=flow.is_zero(tol),
        extended_cycle=balanced and mod.is_zero(apex, tol),
        max_residual=max(
            (mod.norm(v) for v in residual.coeffs.values()), default=0.0
        ),
    )


def extended_current_chain(state):
    """Current chain on the cone extension (``chains.cone_chain``), each
    new branch carrying its node's charging rate; its boundary is the
    residual at the old nodes and the total charging rate at the apex,
    which ``kcl_check`` reads."""
    return cone_chain(state.current, state.charging_rate().coeffs, "@apex")


# ---------------------------------------------------------------------------
# voltage side
# ---------------------------------------------------------------------------

def voltage_drop(state):
    """Branch drop cochain as the coboundary of the node voltages:
    drop(a) = V(head) - V(tail)."""
    if state.voltage is None:
        raise KindMismatch("no voltage distribution present")
    return coboundary(state.voltage)


@dataclass
class KvlReport:
    passed: bool
    potential: Cochain | None = None
    witness_cycle: Chain | None = None
    cycle_sum: object = None


def kvl_check(dv, tol=DEFAULT_TOL):
    """A drop distribution is consistent iff it is a coboundary; on failure
    the report carries a cycle with a nonzero drop sum around it."""
    result = is_coboundary(dv, tol)
    if result.is_coboundary:
        return KvlReport(passed=True, potential=result.potential)
    return KvlReport(
        passed=False, witness_cycle=result.witness, cycle_sum=result.pairing
    )


@dataclass
class PowerReport:
    cochain: Cochain  # per-branch energy rate, identified with the drop
    is_coboundary: bool
    kvl_warning: bool  # set when the identification was made despite KVL failing


def power_cochain(dv, state=None, tol=DEFAULT_TOL):
    """Per-branch power delivered, identified with the voltage drop; it is a
    coboundary whenever the drops satisfy the voltage law.  A circuit state,
    when given, must share the drop distribution's coefficient kind."""
    if state is not None and not state.module.compatible(dv.module):
        raise KindMismatch(f"drops are {dv.module}, circuit is {state.module}")
    verdict = kvl_check(dv, tol)
    return PowerReport(
        cochain=dv,
        is_coboundary=verdict.passed,
        kvl_warning=not verdict.passed,
    )
