import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homnet as hn
from homnet import cli, documents, reports
from homnet import electrical as el
from homnet import errors
from homnet.coeffs import DEFAULT_TOL
from conftest import complexes, random_complex, random_cochain


@pytest.fixture
def two_node_loop():
    return hn.build_complex(["A", "B"], [("A", "B"), ("B", "A")])


# -- KCL -----------------------------------------------------------------------

def test_balanced_loop_conserves(two_node_loop):
    state = el.circuit_state(two_node_loop, {"AB": 1.5, "BA": 1.5})
    report = el.kcl_check(state)
    assert report.conserved
    assert report.extended_cycle
    assert report.max_residual == 0


def test_unbalanced_loop_residuals(two_node_loop):
    state = el.circuit_state(two_node_loop, {"AB": 1.5, "BA": 1.0})
    report = el.kcl_check(state)
    assert not report.conserved
    node = two_node_loop.node_index
    assert report.residual[node("A")] == pytest.approx(-0.5)
    assert report.residual[node("B")] == pytest.approx(0.5)


def test_zero_circuit_conserves(circle):
    state = el.circuit_state(circle, {"AB": 0, "AC": 0, "BC": 0})
    assert el.kcl_check(state).conserved


def test_cycle_currents_conserve_exactly(rng):
    for _ in range(25):
        cx = random_complex(rng, with_faces=False)
        basis = hn.cycle_basis(cx, 1)
        if not basis:
            continue
        current = hn.Chain.zero(cx, 1, hn.RATIONAL)
        for z in basis:
            weight = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            current = current + z.as_module(hn.RATIONAL).scaled(weight)
        state = el.CircuitState(complex=cx, current=current)
        report = el.kcl_check(state)
        assert report.conserved
        assert hn.augmented_boundary(hn.boundary(current)) == 0


def test_charging_node_balance():
    # one branch pumping charge into B at a constant rate
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    dt, samples = 0.1, 11
    t = np.arange(samples) * dt
    state = el.circuit_state(
        cx,
        {"AB": np.full(samples, 2.0)},
        charges={"A": -2.0 * t, "B": 2.0 * t},
        dt=dt,
        samples=samples,
    )
    report = el.kcl_check(state)
    assert report.max_residual <= 1e-9
    assert not report.conserved       # the raw current chain is not a cycle
    assert report.extended_cycle      # but the extended chain is: total charge constant


def test_extended_chain_boundary_is_total_charging_rate():
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    dt, samples = 0.1, 11
    t = np.arange(samples) * dt
    # charge accumulates at B without a compensating drain: extension is not a cycle
    state = el.circuit_state(
        cx,
        {"AB": np.full(samples, 2.0)},
        charges={"B": 2.0 * t},
        dt=dt,
        samples=samples,
    )
    ext, chain = el.extended_current_chain(state)
    b = hn.boundary(chain)
    apex_rate = b[ext.apex]
    assert np.allclose(apex_rate, 2.0)
    assert not b.is_zero(1e-9)


def extended_is_cycle(state, tol):
    """The paper's test: the current chain on the cone extension is a
    1-cycle."""
    _, chain = el.extended_current_chain(state)
    return hn.boundary(chain).is_zero(0 if state.module.exact else tol)


@settings(deadline=None)
@given(complexes(max_nodes=5, with_faces=False), st.data())
def test_extended_cycle_matches_the_cone(cx, data):
    # rational currents, or sampled currents and charges with integer
    # samples at a dyadic dt, so that every float sum is exact and the two
    # computations cannot round differently; charges are drawn to balance
    # steady currents, perturbed, or anyhow
    shape = data.draw(st.sampled_from(["balanced", "perturbed", "any"]))
    ints = st.integers(-4, 4)
    if not data.draw(st.booleans()):
        currents = data.draw(st.lists(
            st.fractions(-4, 4, max_denominator=5), min_size=cx.r[1],
            max_size=cx.r[1],
        ))
        state = el.circuit_state(
            cx, {cx.branch_labels[a]: v for a, v in enumerate(currents)}
        )
    else:
        dt = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        samples = data.draw(st.integers(3, 6))
        series = st.lists(ints, min_size=samples, max_size=samples).map(
            lambda xs: np.array(xs, dtype=float)
        )
        steady = ints.map(lambda x: np.full(samples, float(x)))
        currents = {
            lab: data.draw(series if shape == "any" else steady)
            for lab in cx.branch_labels
        }
        inflow = np.zeros((cx.r[0], samples))
        for lab, current in currents.items():
            tail, head = cx.branches[cx.branch_index(lab)]
            inflow[head] += current
            inflow[tail] -= current
        charges = {}
        for i, lab in enumerate(cx.node_labels):
            if shape == "any":
                charges[lab] = data.draw(series)
            else:
                # charge growing at the steady net inflow
                charges[lab] = data.draw(ints) + inflow[i] * dt * np.arange(samples)
        if shape == "perturbed":
            lab = data.draw(st.sampled_from(cx.node_labels))
            charges[lab][data.draw(st.integers(0, samples - 1))] += data.draw(ints)
        state = el.circuit_state(
            cx, currents, charges=charges, dt=dt, samples=samples
        )
    report = el.kcl_check(state)
    assert report.extended_cycle == extended_is_cycle(state, DEFAULT_TOL)
    assert report.balanced == report.residual.is_zero(
        0 if state.module.exact else DEFAULT_TOL
    )


def test_kind_mismatch_rejected(circle):
    mod_ts = hn.time_series(0.1, 4)
    current = hn.Chain(circle, 1, {0: mod_ts.coerce(1.0)}, mod_ts)
    charge = hn.Chain(circle, 0, {0: 1.0}, hn.REAL64)
    with pytest.raises(errors.KindMismatch):
        el.CircuitState(complex=circle, current=current, charge=charge)


# -- KVL -----------------------------------------------------------------------

def test_voltage_drop_matches_coboundary(circle):
    state = el.circuit_state(
        circle,
        {"AB": 0, "AC": 0, "BC": 0},
        voltages={"A": Fraction(5), "B": Fraction(0), "C": Fraction(0)},
    )
    dv = el.voltage_drop(state)
    assert dv[0] == Fraction(-5)  # AB: V(B) - V(A)
    assert dv[1] == Fraction(-5)  # AC
    assert dv[2] == Fraction(0)   # BC
    loop = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert hn.evaluate(dv, loop) == 0


def test_constant_voltage_has_zero_drop(circle):
    state = el.circuit_state(
        circle, {"AB": 0, "AC": 0, "BC": 0},
        voltages={"A": 3, "B": 3, "C": 3},
    )
    assert el.voltage_drop(state).is_zero(0)


def test_kvl_passes_for_derived_drops(circle, rng):
    for _ in range(30):
        v = random_cochain(rng, circle, 0, module=hn.RATIONAL)
        report = el.kvl_check(hn.coboundary(v))
        assert report.passed
        diff = report.potential - v
        assert len({diff[i] for i in range(circle.r[0])}) == 1


def test_kvl_fails_with_witness(circle):
    dv = hn.Cochain(circle, 1, {0: Fraction(1)}, hn.RATIONAL)
    report = el.kvl_check(dv)
    assert not report.passed
    assert report.cycle_sum == 1
    assert hn.is_cycle(report.witness_cycle)


def test_kvl_on_tree_always_passes(rng):
    cx = hn.build_complex(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("B", "D")])
    for _ in range(20):
        dv = random_cochain(rng, cx, 1, module=hn.RATIONAL)
        assert el.kvl_check(dv).passed


def test_recovered_potential_constant_per_component(rng):
    cx = hn.build_complex(
        ["A", "B", "C", "X", "Y"],
        [("A", "B"), ("B", "C"), ("X", "Y")],
    )
    for _ in range(20):
        v = random_cochain(rng, cx, 0, module=hn.RATIONAL)
        report = el.kvl_check(hn.coboundary(v))
        assert report.passed
        diff = report.potential - v
        for comp in hn.path_components(cx):
            assert len({diff[i] for i in comp}) == 1


def test_kvl_passes_for_a_thousand_random_potentials(rng):
    checked = 0
    while checked < 1000:
        cx = random_complex(rng, max_nodes=6, with_faces=False)
        if cx.r[1] == 0:
            continue
        for _ in range(10):
            v = random_cochain(rng, cx, 0, module=hn.RATIONAL)
            report = el.kvl_check(hn.coboundary(v))
            assert report.passed
            diff = report.potential - v
            for comp in hn.path_components(cx):
                assert len({diff[i] for i in comp}) == 1
            checked += 1


# -- integral circuits --------------------------------------------------------------

def test_integral_values_make_an_integer_circuit(circle):
    state = el.circuit_state(
        circle, {"AB": 2, "AC": Fraction(4, 2), "BC": 0},
        voltages={"A": 3, "B": Fraction(-6, 3), "C": 0},
    )
    assert state.module is hn.INTEGER
    assert all(type(v) is int for v in state.current.coeffs.values())
    report = el.kcl_check(state)
    per_node = {lab: report.residual[i] for i, lab in enumerate(circle.node_labels)}
    assert per_node == {"A": -4, "B": 2, "C": 2}
    assert all(type(v) is int for v in per_node.values())
    rational = el.circuit_state(circle, {"AB": Fraction(1, 2)}, voltages={"A": 3})
    assert rational.module is hn.RATIONAL


def test_integer_drops_fail_with_an_integer_cycle_sum(circle):
    report = el.kvl_check(hn.Cochain(circle, 1, {0: 3}, hn.INTEGER))
    assert not report.passed
    assert type(report.cycle_sum) is int and report.cycle_sum == 3
    assert hn.is_cycle(report.witness_cycle)


def circuit_document(cx, currents, charges, voltages):
    """A kcl + kvl document on the complex's labels."""
    labels = cx.node_labels
    nodes = [{"id": lab, "voltage": voltages[lab]} for lab in labels]
    for node in nodes:
        if node["id"] in charges:
            node["charge"] = charges[node["id"]]
    branches = [
        {"id": lab, "tail": labels[t], "head": labels[h], "current": currents[lab]}
        for lab, (t, h) in zip(cx.branch_labels, cx.branches)
    ]
    return documents.parse(json.dumps({
        "dimension": 1, "nodes": nodes, "branches": branches,
        "analyses": ["kcl", "kvl"],
    }))


def forced_rational(circuit_state):
    """``circuit_state`` with every chain moved to the rationals: the
    oracle that integral circuits must report like."""
    def build(*args, **kwargs):
        state = circuit_state(*args, **kwargs)

        def rational(chain):
            return None if chain is None else chain.as_module(hn.RATIONAL)

        return el.CircuitState(
            complex=state.complex, current=rational(state.current),
            charge=rational(state.charge), voltage=rational(state.voltage),
        )
    return build


def bumped(voltage_drop, branch, amount):
    """``voltage_drop`` with ``amount`` added on one branch: a document's
    node voltages always give consistent drops, so this is how a report
    comes to fail the voltage law."""
    def drop(state):
        dv = voltage_drop(state)
        bump = hn.Cochain(dv.complex, 1, {branch: amount}, hn.INTEGER)
        return dv + bump.as_module(dv.module)
    return drop


@settings(deadline=None)
@given(complexes(max_nodes=5, with_faces=False).filter(lambda cx: cx.r[1]), st.data())
def test_integral_circuits_report_as_rational_ones(cx, data):
    # currents on a cycle (KCL passes) or anyhow (it mostly fails), static
    # charges on some nodes, and drops that pass KVL or are bumped on one
    # branch; each value an int or an integral "p/q" string
    ints = st.integers(-9, 9)
    denominators = st.integers(1, 3)

    def written(v):
        k = data.draw(denominators)
        return v if k == 1 else f"{v * k}/{k}"

    if data.draw(st.booleans()):
        current = {a: 0 for a in range(cx.r[1])}
        for z in hn.cycle_basis(cx, 1):
            weight = data.draw(ints)
            for a, v in z.coeffs.items():
                current[a] += weight * v
    else:
        current = {a: data.draw(ints) for a in range(cx.r[1])}
    currents = {cx.branch_labels[a]: written(v) for a, v in current.items()}
    charges = {
        lab: written(data.draw(ints)) for lab in cx.node_labels
        if data.draw(st.booleans())
    }
    voltages = {lab: written(data.draw(ints)) for lab in cx.node_labels}
    doc = circuit_document(cx, currents, charges, voltages)
    state = el.circuit_state(
        doc.complex, doc.branch_attr("current"),
        charges=doc.node_attr("charge") or None,
        voltages=doc.node_attr("voltage"),
    )
    assert state.module is hn.INTEGER
    drop = el.voltage_drop
    if data.draw(st.booleans()):
        branch = data.draw(st.integers(0, cx.r[1] - 1))
        drop = bumped(drop, branch, data.draw(ints.filter(bool)))
    commands = ("kcl", "kvl")
    with mock.patch.object(el, "voltage_drop", drop):
        got = [cli.run(doc, c) for c in commands]
        with mock.patch.object(el, "circuit_state", forced_rational(el.circuit_state)):
            want = [cli.run(doc, c) for c in commands]
    for fmt in ("text", "json"):
        assert reports.emit(got, fmt) == reports.emit(want, fmt)


# -- power -----------------------------------------------------------------------

def test_power_is_coboundary_under_kvl(circle):
    v = hn.Cochain(circle, 0, {0: Fraction(5), 1: Fraction(2)}, hn.RATIONAL)
    report = el.power_cochain(hn.coboundary(v))
    assert report.is_coboundary
    assert not report.kvl_warning
    loop = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert hn.evaluate(report.cochain, loop) == 0


def test_zero_voltage_zero_power(circle):
    dv = hn.Cochain.zero(circle, 1, hn.RATIONAL)
    report = el.power_cochain(dv)
    assert report.is_coboundary
    assert report.cochain.is_zero(0)


def test_power_flagged_when_kvl_fails(circle):
    dv = hn.Cochain(circle, 1, {0: Fraction(1)}, hn.RATIONAL)
    report = el.power_cochain(dv)
    assert report.kvl_warning
    assert not report.is_coboundary


def test_float_residual_is_judged_at_the_tolerance_asked():
    # 5e-13 on one branch is a residual of 5e-13 at both of its nodes: it
    # fails at tol=0 and at 1e-15, and passes at 1e-12
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    state = el.circuit_state(cx, {"AB": 5e-13})
    for tol in (0, 1e-15):
        report = el.kcl_check(state, tol=tol)
        assert not (report.balanced or report.conserved or report.extended_cycle)
        assert report.max_residual == 5e-13
        assert dict(report.residual.coeffs) == {0: -5e-13, 1: 5e-13}
    report = el.kcl_check(state, tol=1e-12)
    assert report.balanced and report.conserved and report.extended_cycle
    assert report.max_residual == 5e-13
