import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homnet as hn
from homnet import cli, documents, reports
from homnet import electrical as el
from homnet import errors
from homnet.chains import cone_chain, max_abs, stacked_boundary
from homnet.coeffs import DEFAULT_TOL, series_derivative
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
    circuit = el.sampled_circuit(
        cx, dt, samples, {"AB": np.full(samples, 2.0)},
        charges={"A": -2.0 * t, "B": 2.0 * t},
    )
    report = el.kcl_check(circuit)
    assert report.max_residual <= 1e-9
    assert not report.conserved       # the raw current chain is not a cycle
    assert report.extended_cycle      # but the extended chain is: total charge constant


def test_extended_chain_boundary_is_total_charging_rate():
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    dt, samples = 0.1, 11
    t = np.arange(samples) * dt
    # charge accumulates at B without a compensating drain: extension is not a cycle
    circuit = el.sampled_circuit(
        cx, dt, samples, {"AB": np.full(samples, 2.0)}, charges={"B": 2.0 * t}
    )
    ext, currents = extended_currents(circuit)
    b = stacked_boundary(ext.complex, samples, currents)
    assert np.allclose(b[:, ext.apex], 2.0)
    assert not max_abs(b) <= 1e-9
    assert not el.kcl_check(circuit).extended_cycle


def extended_currents(circuit):
    """The sampled currents on the cone of the complex: each branch keeps
    its current, and the branch joining node i to the apex carries node
    i's charging rate."""
    ext = hn.cone(circuit.complex, "@apex")
    rate = series_derivative(circuit.charge, circuit.dt)
    currents = {ext.branch_map[a]: v for a, v in circuit.current.items()}
    currents.update({b: rate[:, i] for i, b in enumerate(ext.star)})
    return ext, currents


def extended_is_cycle(state, tol):
    """The paper's test: the current chain on the cone extension is a
    1-cycle.  A DC circuit's charges have no rate, so its new branches
    carry nothing."""
    if isinstance(state, el.SampledCircuit):
        ext, currents = extended_currents(state)
        return max_abs(stacked_boundary(ext.complex, state.samples, currents)) <= tol
    _, chain = cone_chain(state.current, {}, "@apex")
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
        report = el.kcl_check(state)
        assert report.balanced == report.residual.is_zero(0)
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
        state = el.sampled_circuit(cx, dt, samples, currents, charges=charges)
        report = el.kcl_check(state)
        assert report.balanced == (max_abs(report.residual) <= DEFAULT_TOL)
    assert report.extended_cycle == extended_is_cycle(state, DEFAULT_TOL)


def test_kind_mismatch_rejected(circle):
    current = hn.Chain(circle, 1, {0: 1}, hn.INTEGER)
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


# -- sampled circuits ----------------------------------------------------------

# A three-node loop: A's voltage is near 1e17, so the drops round and its
# potential reads B as 0, not 3; the current on CA rises on the last
# sample, which unbalances A and C by 0.5 there
SAMPLED_LOOP = json.dumps({
    "dimension": 1,
    "signal": {"dt": 0.5, "samples": 4},
    "nodes": [
        {"id": "A", "voltage": [1e17, 1e17, 2.0, 0.0], "charge": 0.0},
        {"id": "B", "voltage": [3.0, 3.0, 1.0, 0.5]},
        {"id": "C", "voltage": [0.0, 0.0, 0.0, 0.0]},
    ],
    "branches": [
        {"id": "AB", "tail": "A", "head": "B", "current": [1.0, 1.0, 1.0, 1.0]},
        {"id": "BC", "tail": "B", "head": "C", "current": [1.0, 1.0, 1.0, 1.0]},
        {"id": "CA", "tail": "C", "head": "A", "current": [1.0, 1.0, 1.0, 1.5]},
    ],
    "analyses": ["kcl", "kvl"],
})
SAMPLED_LOOP_SHA = "c6da72d66704630c3a5f19a843ccac10dae632b64a1a7962c08a097581f40a0c"
SAMPLED_LOOP_TEXT = f"""\
== kcl: FAIL ==
  numbers:
    conserved = false
    extended_cycle = false
    max_residual = 0.5
  residuals:
    nodes = {{A: [0, 0, 0, 0.5], C: [0, 0, 0, -0.5]}}
  provenance: engine=homnet 0.1.0, input_sha256={SAMPLED_LOOP_SHA}

== kvl: PASS ==
  residuals:
    drops = {{AB: [-1e+17, -1e+17, -1, 0.5], BC: [-3, -3, -1, -0.5], CA: [1e+17, 1e+17, 2, 0]}}
  details:
    potential = {{A: [1e+17, 1e+17, 2, 0], B: [0, 0, 1, 0.5], C: [0, 0, 0, 0]}}
  provenance: engine=homnet 0.1.0, input_sha256={SAMPLED_LOOP_SHA}
"""
SAMPLED_LOOP_JSON = (
    '[{"command":"kcl","details":{},"numbers":{"conserved":false,'
    '"extended_cycle":false,"max_residual":0.5},"provenance":{"engine":'
    f'"homnet 0.1.0","input_sha256":"{SAMPLED_LOOP_SHA}"}},"residuals":'
    '{"nodes":{"A":[0,0,0,0.5],"C":[0,0,0,-0.5]}},"verdict":"fail"},'
    '{"command":"kvl","details":{"potential":{"A":[1e+17,1e+17,2,0],'
    '"B":[0,0,1,0.5],"C":[0,0,0,0]}},"numbers":{},"provenance":{"engine":'
    f'"homnet 0.1.0","input_sha256":"{SAMPLED_LOOP_SHA}"}},"residuals":'
    '{"drops":{"AB":[-1e+17,-1e+17,-1,0.5],"BC":[-3,-3,-1,-0.5],'
    '"CA":[1e+17,1e+17,2,0]}},"verdict":"pass"}]\n'
)


def test_sampled_loop_reports(tmp_path, capsys):
    source = tmp_path / "loop.json"
    source.write_text(SAMPLED_LOOP)
    for fmt, want in (("text", SAMPLED_LOOP_TEXT), ("json", SAMPLED_LOOP_JSON)):
        assert cli.main(["report-all", "--input", str(source), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want, "")


def test_sampled_kcl_max_residual_keeps_a_nan(tmp_path, capsys):
    # B's currents overflow to inf and its charging rate to inf and -inf,
    # so its residual is [nan, inf, nan]; a max that dropped the NaN would
    # print 1e+308, A's and C's residual
    source = tmp_path / "nan.json"
    source.write_text(json.dumps({
        "dimension": 1,
        "signal": {"dt": 0.5, "samples": 3},
        "nodes": [{"id": "A"}, {"id": "B", "charge": [0.0, 1e308, 1.7e308]},
                  {"id": "C"}],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B", "current": [1e308] * 3},
            {"id": "CB", "tail": "C", "head": "B", "current": [1e308] * 3},
        ],
    }))
    for fmt, nan, residual in (("text", "nan", "B: [nan, inf, nan]"),
                               ("json", '"nan"', '"B":["nan","inf","nan"]')):
        assert cli.main(["kcl", "--input", str(source), "--format", fmt]) == 1
        out = capsys.readouterr().out
        assert residual in out
        assert ("max_residual = " if fmt == "text" else '"max_residual":') + nan in out


# -- sampled circuits against the chain arithmetic of one series per simplex --

def _nonzero(x):
    """A chain's rule for keeping a series: some sample is nonzero or NaN."""
    return not np.max(np.abs(x)) <= 0


def reference_kcl(cx, dt, samples, currents, charges, tol):
    """The balance as chains of series computed it: a series per branch and
    node, all-zero series dropped, each node's terms added as they come,
    the residual's nodes and the rates summed in dict order.  Its
    max_residual keeps a NaN."""
    flow = {}
    for a, current in currents.items():
        if not _nonzero(current):
            continue
        tail, head = cx.branches[a]
        for node, term in ((head, current), (tail, -current)):
            flow[node] = flow[node] + term if node in flow else term
    flow = {i: x for i, x in flow.items() if _nonzero(x)}
    rate = {}
    for i, charge in charges.items():
        if _nonzero(charge) and _nonzero(d := series_derivative(charge, dt)):
            rate[i] = d
    zero = np.zeros(samples)
    residual = {}
    for i in set(flow) | set(rate):
        x = flow.get(i, zero) + -rate.get(i, zero)
        if _nonzero(x):
            residual[i] = x
    norms = [float(np.max(np.abs(x))) for x in residual.values()]
    apex = zero
    for x in rate.values():
        apex = apex + x
    balanced = all(n <= tol for n in norms)
    return {
        "residual": residual,
        "balanced": balanced,
        "conserved": all(float(np.max(np.abs(x))) <= tol for x in flow.values()),
        "extended_cycle": balanced and float(np.max(np.abs(apex))) <= tol,
        "max_residual": float(np.max(norms)) if norms else 0.0,
    }


def reference_kvl(cx, samples, voltages, tol):
    """Kirchhoff's tree-and-chords test as drop cochains of series ran it:
    the drops, the verdict, and the shifted potential or the witness cycle
    and its sum, each chord's terms added in ``set`` intersection order."""
    zero = np.zeros(samples)
    drops = {}
    for a, (tail, head) in enumerate(cx.branches):
        x = voltages.get(head, zero) + -voltages.get(tail, zero)
        if _nonzero(x):
            drops[a] = x
    forest = cx.forest
    integrated = {}
    for v in forest.order:
        a = forest.branch[v]
        if a is None:
            integrated[v] = zero
        else:
            d = drops.get(a, zero)
            integrated[v] = integrated[forest.parent[v]] + (
                d if forest.sign[v] == 1 else -d
            )
    for a in forest.chords:
        cycle = forest.cycle(a)
        total = None
        for b in set(drops) & set(cycle):
            term = drops[b] * cycle[b]
            total = term if total is None else total + term
        if total is not None and not float(np.max(np.abs(total))) <= tol:
            return drops, False, (cycle, total)
    potential = {}
    for comp in hn.path_components(cx):
        top = -integrated[comp[-1]]
        for v in comp:
            potential[v] = integrated[v] + top
    return drops, True, potential


def same(array, by_index, samples):
    """Whether a stacked array holds the per-simplex series, a missing one
    reading zero: equal sample by sample, NaN equal to NaN and 0.0 to
    -0.0, the signed zeros that reports print alike."""
    zero = np.zeros(samples)
    columns = [by_index.get(i, zero) for i in range(array.shape[1])]
    want = np.stack(columns, axis=1) if columns else np.zeros((samples, 0))
    return np.array_equal(array, want, equal_nan=True)


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


_samples = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.5, -0.0, 1e308, -1e308, 1.7e308, 1e-320]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(complexes(max_nodes=5, with_faces=False), st.data())
def test_sampled_checks_match_the_chains_of_series(cx, data):
    samples = data.draw(st.integers(3, 5))
    dt = data.draw(st.sampled_from([0.1, 0.5, 1e-3]))
    value = st.one_of(
        st.none(), _samples,
        st.lists(_samples, min_size=samples, max_size=samples).map(np.array),
    )

    def draw_values(labels):
        drawn = {lab: data.draw(value) for lab in labels}
        return {lab: v for lab, v in drawn.items() if v is not None}

    currents = draw_values(cx.branch_labels)
    charges = draw_values(cx.node_labels)
    voltages = draw_values(cx.node_labels)
    tol = data.draw(st.sampled_from([DEFAULT_TOL, 0.0, 1e-15, 1e-3]))

    def series(values, index):
        return {
            index(lab): np.broadcast_to(np.asarray(v, dtype=float), (samples,))
            for lab, v in values.items()
        }

    circuit = el.sampled_circuit(cx, dt, samples, currents, charges=charges)
    report = el.kcl_check(circuit, tol=tol)
    want = reference_kcl(cx, dt, samples, series(currents, cx.branch_index),
                         series(charges, cx.node_index), tol)
    assert same(report.residual, want["residual"], samples)
    for key in ("balanced", "conserved", "extended_cycle"):
        assert getattr(report, key) == want[key]
    assert same_float(report.max_residual, want["max_residual"])

    circuit = el.sampled_circuit(cx, dt, samples, voltages=voltages)
    report = el.kvl_check(circuit.drop, tol=tol, complex=cx)
    drops, passed, result = reference_kvl(
        cx, samples, series(voltages, cx.node_index), tol
    )
    assert same(el.voltage_drop(circuit), drops, samples)
    assert report.passed == passed
    if passed:
        assert same(report.potential, result, samples)
    else:
        cycle, total = result
        assert report.witness_cycle.coeffs == cycle
        assert np.array_equal(report.cycle_sum, total, equal_nan=True)


def test_sampled_cycle_sum_adds_in_the_order_of_evaluate():
    # the chord CA closes A -> B -> C -> A on branches 0, 2 and 8, the
    # others being pendant; ``chains.evaluate`` adds a cycle's terms in set
    # order, where 8 comes before 2, so the drops -1e17, 1e17 and -3 sum to
    # -3; index order would round -1e17 - 3 to -1e17 and sum to 0
    pendant = [("A", f"D{k}") for k in range(6)]
    cx = hn.build_complex(
        ["A", "B", "C"] + [f"D{k}" for k in range(6)],
        [("A", "B"), pendant[0], ("B", "C"), *pendant[1:], ("C", "A")],
    )
    circuit = el.sampled_circuit(
        cx, 0.5, 3, voltages={"A": [1e17] * 3, "B": [3.0] * 3, "C": 0.0}
    )
    report = el.kvl_check(circuit.drop, complex=cx)
    assert not report.passed
    assert report.witness_cycle.coeffs == {0: 1, 2: 1, 8: 1}
    assert report.cycle_sum.tolist() == [-3.0] * 3
