"""One zero rule for every check: an exact value is zero only when it equals
zero, whatever the tolerance, and any other value when its norm is within
the tolerance.  So every verdict on exact data is the same at any
tolerance."""

import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

import homnet as hn
from homnet import cli, coeffs, errors
from homnet import electrical as el
from homnet import geometry as geo
from homnet import statics as st
from conftest import complexes, frameworks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- the rule --------------------------------------------------------------------

@pytest.mark.parametrize(
    "module, tiny",
    [
        (coeffs.INTEGER, Fraction(1, 10**12)),  # the value decides, not the kind
        (coeffs.RATIONAL, Fraction(1, 10**12)),
        (coeffs.REAL64, Fraction(1, 10**12)),
        (coeffs.vector(2), (Fraction(1, 10**12), 0)),
        (coeffs.covector(3), (0, 0, Fraction(-1, 10**12))),
        (coeffs.bivector(3), coeffs.Bivector(3, (0, Fraction(1, 10**12), 0))),
    ],
)
def test_exact_value_is_zero_only_when_it_equals_zero(module, tiny):
    assert not module.is_zero(tiny)
    assert module.is_zero(module.zero())
    for tol in (0, 1e-9, 1e-3, 1.0):
        assert not module.is_zero(tiny, tol)
        assert module.is_zero(module.zero(), tol)


def documented_zero_rule(x, tol):
    """An int or a Fraction is zero iff it equals 0; any other scalar, a
    bool or a numpy number included, iff abs(float(x)) <= tol."""
    if type(x) in (int, Fraction):
        return x == 0
    return abs(float(x)) <= tol


scalars = hst.one_of(
    hst.integers(),
    hst.integers(2**1023, 2**1100).flatmap(lambda n: hst.sampled_from((n, -n))),
    hst.fractions(),
    hst.integers(2**1023, 2**1100).map(lambda n: Fraction(n, 3)),
    hst.floats(),  # NaN, +-inf and subnormals among them
    hst.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-300, math.inf, -math.inf,
                      math.nan, 1e-15, -1e-3)),
    hst.booleans(),
    hst.floats().map(np.float64),
    hst.integers(-2**63, 2**63 - 1).map(np.int64),
)


@given(scalars, hst.sampled_from((0, 1e-15, 1e-3)))
def test_scalar_modules_apply_the_documented_zero_rule(x, tol):
    expected = documented_zero_rule(x, tol)
    for module in (coeffs.INTEGER, coeffs.RATIONAL, coeffs.REAL64):
        assert module.is_zero(x, tol) is expected


@pytest.mark.parametrize("check", [hn.is_cycle, hn.is_boundary, hn.is_coboundary])
def test_homology_tests_keep_their_default_in_the_signature(check):
    """One meaning for ``tol``: the default lives in the signature, as in
    every other check, so ``None`` is no tolerance."""
    assert inspect.signature(check).parameters["tol"].default == coeffs.DEFAULT_TOL


def test_float_value_is_zero_within_the_tolerance():
    assert not coeffs.REAL64.is_zero(1e-13)  # the default tolerance is 0
    assert coeffs.REAL64.is_zero(0.0) and coeffs.REAL64.is_zero(-0.0)
    assert not coeffs.REAL64.is_zero(1e-10)
    assert coeffs.REAL64.is_zero(1e-10, 1e-9)
    assert not coeffs.REAL64.is_zero(1e-10, 0)
    assert coeffs.vector(2).is_zero((1e-10, 0), 1e-9)
    assert not coeffs.vector(2).is_zero((1e-10, Fraction(0)), 0)


def test_equality_compares_values_not_stored_entries(circle):
    padded = hn.Cochain(circle, 0, {0: 0, 1: 2}, coeffs.INTEGER)
    sparse = hn.Cochain(circle, 0, {1: 2}, coeffs.INTEGER)
    assert (padded - sparse).is_zero()
    assert padded == sparse and sparse == padded
    assert padded != hn.Cochain(circle, 0, {0: 1, 1: 2}, coeffs.INTEGER)


def test_a_cochain_keeps_a_given_zero_and_a_chain_drops_it(circle):
    for zero in (0, 0.0, -0.0, Fraction(0)):
        values = {0: zero, 1: 2}
        assert hn.Cochain(circle, 0, values, coeffs.INTEGER).coeffs == values
        assert hn.Chain(circle, 0, values, coeffs.INTEGER).coeffs == {1: 2}
    # the coboundary drops the exact zeros it computes: a constant
    # potential has no drop on any branch
    flat = hn.Cochain(circle, 0, dict.fromkeys(range(circle.r[0]), 3), coeffs.INTEGER)
    assert hn.coboundary(flat).coeffs == {}


# -- verdicts that a tolerance on exact data got wrong ------------------------------

def truss_document(tmp_path, load_on_c, analysis):
    """triangle_truss.json with C's load replaced and one analysis."""
    doc = json.loads((FIXTURES / "triangle_truss.json").read_text())
    doc["nodes"][2]["force"] = load_on_c
    doc["analyses"] = [analysis]
    source = tmp_path / "truss.json"
    source.write_text(json.dumps(doc))
    return str(source)


def test_tiny_exact_moment_residual_fails(tmp_path, capsys):
    source = truss_document(
        tmp_path, ["1/10000000000", "-6"], {"command": "moments", "origin": "A"}
    )
    assert cli.main(["moments", "--input", source]) == 1
    out = capsys.readouterr().out
    assert out.startswith("== moments: FAIL ==")
    assert "    moment = [-3/10000000000]\n" in out


def test_virtual_work_verdicts_agree_on_exact_loads(tmp_path, capsys):
    source = truss_document(
        tmp_path, ["1/10000", "-6"], {"command": "virtual-work", "tolerance": 1e-3}
    )
    assert cli.main(["virtual-work", "--input", source, "--format", "json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["numbers"] == {
        "equilibrium_by_balance": False,
        "equilibrium_by_virtual_work": False,
        "verdicts_agree": True,
    }


def test_exact_displacements_off_by_a_tiny_drop_are_no_coboundary(triangle_geo):
    drops = geo.displacement_cochain(triangle_geo)
    assert hn.is_coboundary(drops).is_coboundary
    values = dict(drops.coeffs)
    x, y = values[2]
    values[2] = (x + Fraction(1, 10**12), y)
    bumped = hn.Cochain(triangle_geo.complex, 1, values, drops.module)
    result = hn.is_coboundary(bumped)
    assert not result.is_coboundary
    assert result.pairing in {(Fraction(1, 10**12), 0), (Fraction(-1, 10**12), 0)}


# -- every exact check at tolerance 0 and 1e-3 ---------------------------------------

TOLERANCES = (0, 1e-3)

# exact amounts within 1e-3 of zero, and not zero
tiny_bumps = hst.sampled_from(
    [Fraction(1, 10**4), Fraction(-1, 10**7), Fraction(1, 10**12)]
)
exact_scalars = hst.one_of(
    hst.integers(-3, 3), hst.fractions(-3, 3, max_denominator=5), tiny_bumps
)


def same_verdict(check):
    """Whether check(tol) is the same at each tolerance; an error counts as
    its type."""
    out = set()
    for tol in TOLERANCES:
        try:
            out.add(check(tol))
        except errors.HomnetError as exc:
            out.add(type(exc))
    return len(out) == 1


def bumped(data, values, n=None):
    """Values with at most two entries moved by a tiny exact amount (in
    one component, for vectors)."""
    values = dict(values)
    for key in data.draw(hst.lists(hst.sampled_from(sorted(values)), max_size=2)):
        bump = data.draw(tiny_bumps)
        if n is None:
            values[key] += bump
        else:
            c = data.draw(hst.integers(0, n - 1))
            values[key] = tuple(
                v + bump * (k == c) for k, v in enumerate(values[key])
            )
    return values


def near_cycle(data, cx):
    """An exact combination of the fundamental cycles, maybe bumped."""
    values = {a: 0 for a in range(cx.r[1])}
    for z in hn.cycle_basis(cx, 1):
        w = data.draw(exact_scalars)
        for a, s in z.coeffs.items():
            values[a] += w * s
    return bumped(data, values) if values else values


def near_coboundary(data, cx, n=None):
    """The drops of exact node potentials (vectors when n is given), maybe
    bumped."""
    value = exact_scalars if n is None else hst.tuples(*[exact_scalars] * n)
    phi = [data.draw(value) for _ in range(cx.r[0])]
    drops = {}
    for a, (tail, head) in enumerate(cx.branches):
        drops[a] = (
            phi[head] - phi[tail] if n is None else coeffs.vsub(phi[head], phi[tail])
        )
    return bumped(data, drops, n) if drops else drops


@settings(deadline=None, max_examples=60)
@given(complexes(max_nodes=5), hst.data())
def test_exact_kirchhoff_and_homology_verdicts_ignore_the_tolerance(cx, data):
    labels = cx.branch_labels
    currents = near_cycle(data, cx)
    state = el.circuit_state(cx, {labels[a]: v for a, v in currents.items()})

    def kcl(tol):
        rep = el.kcl_check(state, tol)
        return rep.balanced, rep.conserved, rep.extended_cycle

    assert same_verdict(kcl)

    for n in (None, 2):
        module = coeffs.RATIONAL if n is None else coeffs.vector(n)
        drops = hn.Cochain(cx, 1, near_coboundary(data, cx, n), module)
        assert same_verdict(lambda tol: hn.is_coboundary(drops, tol).is_coboundary)
        if n is None:
            assert same_verdict(lambda tol: el.kvl_check(drops, tol).passed)

    chains = [
        hn.Chain(cx, 1, near_cycle(data, cx), coeffs.RATIONAL),
        hn.Chain(cx, 1, {a: (v, -v) for a, v in near_cycle(data, cx).items()},
                 coeffs.vector(2)),
    ]
    for chain in chains:
        assert same_verdict(lambda tol: hn.is_cycle(chain, tol))

    # a boundary 0-chain, maybe bumped, and the 1-chain above
    flow = {a: data.draw(exact_scalars) for a in range(cx.r[1])}
    lifted = hn.boundary(hn.Chain(cx, 1, flow, coeffs.RATIONAL))
    values = {i: lifted[i] for i in range(cx.r[0])}
    zero_chain = hn.Chain(cx, 0, bumped(data, values), coeffs.RATIONAL)
    for chain in (zero_chain, chains[0]):
        assert same_verdict(lambda tol: hn.is_boundary(chain, tol).bounds)


@settings(deadline=None, max_examples=60)
@given(frameworks(hst.integers(-4, 4), max_nodes=5, dims=(2, 3)), hst.data())
def test_exact_statics_verdicts_ignore_the_tolerance(g, data):
    tensions = {a: data.draw(exact_scalars) for a in range(g.complex.r[1])}
    f_int = st.tension_force_chain(g, tensions)
    loads = -hn.boundary(f_int)
    values = {i: loads[i] for i in range(g.complex.r[0])}
    f_ext = hn.Chain(g.complex, 0, bumped(data, values, g.n), loads.module)
    fc = st.ForceComplex(g=g, f_ext=f_ext, f_int=f_int)
    origin = data.draw(hst.tuples(*[exact_scalars] * g.n))

    checks = [
        lambda tol: st.equilibrium_check(fc, tol).in_equilibrium,
        lambda tol: st.equilibrium_via_virtual_work(fc, tol),
        lambda tol: st.moment_equilibrium_check(fc, origin, tol=tol).passed,
    ]
    for check in checks:
        assert same_verdict(check)


# -- float verdicts at the tolerance asked -------------------------------------------

FLOAT_TOLERANCES = (0, 1e-15, 1e-12, 1e-9)

# a residual component of magnitude 1e-16 to 1e-6, either sign
tiny_floats = hst.tuples(hst.floats(-16, -6), hst.sampled_from((-1.0, 1.0))).map(
    lambda t: t[1] * 10.0 ** t[0]
)
unit_floats = hst.floats(-10, 10, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(complexes(max_nodes=5), hst.data())
def test_float_kcl_verdict_is_max_residual_within_tol(cx, data):
    # float circulations around the fundamental cycles, plus a tiny current
    # on one branch
    assume(cx.r[1] > 0)
    currents = {a: 0.0 for a in range(cx.r[1])}
    for z in hn.cycle_basis(cx, 1):
        w = data.draw(unit_floats)
        for a, k in z.coeffs.items():
            currents[a] += k * w
    currents[data.draw(hst.integers(0, cx.r[1] - 1))] += data.draw(tiny_floats)
    labels = cx.branch_labels
    state = el.circuit_state(cx, {labels[a]: v for a, v in currents.items()})
    # the residual as computed: each node's signed sum, in branch order
    sums = [0.0] * cx.r[0]
    for a, (tail, head) in enumerate(cx.branches):
        sums[head] += currents[a]
        sums[tail] -= currents[a]
    for tol in FLOAT_TOLERANCES:
        report = el.kcl_check(state, tol)
        assert report.max_residual == max(map(abs, sums))
        assert report.balanced == (report.max_residual <= tol)


@settings(deadline=None, max_examples=60)
@given(hst.integers(2, 3), hst.data())
def test_float_equilibrium_verdict_is_max_residual_within_tol(n, data):
    # B's load misses the internal force F by a tiny r: the residual is r
    # (as rounded) at B alone, and the resultant is the same sum, bit for bit
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, n, {"A": (0,) * n, "B": (1,) * n})
    force = data.draw(hst.tuples(*[unit_floats] * n))
    r = data.draw(hst.tuples(*[tiny_floats] * n))
    fc = st.force_complex(
        g,
        external={"A": force, "B": tuple(-f + e for f, e in zip(force, r))},
        internal={"AB": force},
    )
    for tol in FLOAT_TOLERANCES:
        report = st.equilibrium_check(fc, tol)
        assert report.in_equilibrium == (report.max_residual <= tol)
