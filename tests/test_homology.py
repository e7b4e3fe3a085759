from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, errors, exact, homology
from homnet.coeffs import DEFAULT_TOL
from conftest import (
    closed_surface,
    complexes,
    dense,
    greedy_generators,
    random_chain,
    random_cochain,
    random_complex,
    real_projective_plane,
    tetrahedron_surface,
    triangulated_grid,
)


# -- cycles and boundaries ------------------------------------------------

def test_circle_loop_is_cycle(circle):
    z = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert hn.is_cycle(z)


def test_circle_all_plus_sum_is_not_cycle(circle):
    c = hn.Chain(circle, 1, {0: 1, 1: 1, 2: 1}, hn.INTEGER)
    assert not hn.is_cycle(c)
    b = hn.boundary(c)
    assert dict(b.coeffs) == {0: -2, 2: 2}


def test_zero_chain_is_cycle(circle):
    assert hn.is_cycle(hn.Chain.zero(circle, 1, hn.INTEGER))


def test_float_cycle_is_judged_at_the_tolerance_asked(circle):
    c = hn.Chain(circle, 1, {0: 5e-13}, hn.REAL64)
    assert not hn.is_cycle(c, 0)
    assert not hn.is_cycle(c, 1e-15)
    assert hn.is_cycle(c, 1e-12)
    # exact kinds ignore the tolerance
    tiny = hn.Chain(circle, 1, {0: Fraction(1, 10**13)}, hn.RATIONAL)
    assert not hn.is_cycle(tiny, 1e-15)


def test_rim_cycle_bounds_in_disc(disc):
    rim = hn.Chain(disc, 1, {0: 1, 3: 1, 1: -1}, hn.INTEGER)
    result = hn.is_boundary(rim)
    assert result.bounds
    recovered = hn.boundary(result.witness)
    assert recovered == rim.as_module(hn.RATIONAL)


def test_face_boundary_bounds(disc):
    b1 = hn.Chain(disc, 1, {0: 1, 4: 1, 2: -1}, hn.INTEGER)  # AB + BD - AD
    result = hn.is_boundary(b1)
    assert result.bounds
    assert hn.boundary(result.witness) == b1.as_module(hn.RATIONAL)


def test_circle_loop_does_not_bound(circle):
    z = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert not hn.is_boundary(z).bounds


@pytest.mark.parametrize("faces", [[("A", "B", "C")], None])
def test_small_float_cycle_bounds_with_or_without_faces(faces):
    # 1e-10 on CD and DC is within DEFAULT_TOL of zero: it bounds whether the
    # complex has a face (least squares) or none (the zero test)
    cx = hn.build_complex(
        ["A", "B", "C", "D"],
        [("A", "B"), ("B", "C"), ("A", "C"), ("C", "D"), ("D", "C")],
        faces=faces,
    )
    index = {lab: i for i, lab in enumerate(cx.branch_labels)}
    chain = hn.Chain(cx, 1, {index["CD"]: 1e-10, index["DC"]: 1e-10}, hn.REAL64)
    assert hn.is_cycle(chain, DEFAULT_TOL)
    assert hn.is_boundary(chain).bounds
    assert hn.is_boundary(chain, DEFAULT_TOL).bounds
    assert not hn.is_boundary(chain, 1e-11).bounds


def test_zero_chain_bounds(circle):
    result = hn.is_boundary(hn.Chain.zero(circle, 1, hn.INTEGER))
    assert result.bounds
    assert result.witness.is_zero(0)


@pytest.mark.parametrize(
    "nodes, branches, dim, module, witness_module",
    [
        (["A"], [], 0, hn.INTEGER, hn.RATIONAL),
        (["A"], [], 0, hn.RATIONAL, hn.RATIONAL),
        (["A", "B"], [("A", "B")], 1, hn.INTEGER, hn.RATIONAL),
        (["A", "B"], [("A", "B")], 1, hn.REAL64, hn.REAL64),
    ],
)
def test_witness_without_higher_cells_keeps_the_witness_kind(
    nodes, branches, dim, module, witness_module
):
    # exact witnesses are rational on every path, this early return included
    cx = hn.build_complex(nodes, branches)
    result = hn.is_boundary(hn.Chain.zero(cx, dim, module))
    assert result.bounds
    assert result.witness.module == witness_module


def test_float_zero_chain_bound_does_not_scale_with_component():
    # the component A -> B sums to 1.5e-9 > tol, although a least-squares
    # witness misses each node by only half of that
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    assert not hn.is_boundary(hn.Chain(cx, 0, {1: 1.5e-9}, hn.REAL64), tol=1e-9).bounds
    result = hn.is_boundary(hn.Chain(cx, 0, {0: -1e-9, 1: 1.5e-9}, hn.REAL64), tol=1e-9)
    assert result.bounds
    assert dict(result.witness.coeffs) == {0: 1.5e-9}


@settings(deadline=None)
@given(complexes(), st.data())
def test_zero_chain_witness_is_the_exact_solution(cx, data):
    r0 = cx.r[0]
    if data.draw(st.booleans()):
        module, values = hn.INTEGER, st.integers(-9, 9)
    else:
        module, values = hn.RATIONAL, st.fractions(-9, 9, max_denominator=7)
    c = data.draw(st.lists(values, min_size=r0, max_size=r0))
    if data.draw(st.booleans()):
        # make every component sum to zero, so the chain bounds
        for comp in hn.path_components(cx):
            c[comp[-1]] -= sum(c[v] for v in comp)
    chain = hn.Chain(cx, 0, dict(enumerate(c)), module)
    boundary_1 = [[row[i] for row in cx.incidence_1] for i in range(r0)]
    solved = exact.solve(boundary_1, c)[0]
    result = hn.is_boundary(chain)
    assert result.bounds == (solved is not None)
    if result.bounds:
        assert result.witness.coeffs == {a: v for a, v in enumerate(solved) if v}
        assert all(type(v) is Fraction for v in result.witness.coeffs.values())
        rational = chain.as_module(hn.RATIONAL)
        assert hn.boundary(result.witness).as_module(hn.RATIONAL) == rational


WEIGHTS = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=12)

# a filled triangle whose one fundamental cycle is -1 on its chord
SIGNED_TRIANGLE = hn.build_complex(
    ["A", "B", "C"], [("B", "A"), ("A", "C"), ("B", "C")], faces=[("A", "B", "C")]
)


@settings(deadline=None)
@given(complexes(), st.booleans(), WEIGHTS, WEIGHTS)
# the fundamental cycle of chord 1 generates the 2-torsion of H1: it bounds
# only over the rationals, and twice it bounds over the integers
@example(real_projective_plane(), False, [(0, 1), (1, 1)], [])
@example(real_projective_plane(), False, [(0, 1), (2, 1)], [])
@example(real_projective_plane(), True, [(0, 1), (1, 3)], [])
@example(SIGNED_TRIANGLE, False, [], [(2, 1)])
def test_one_chain_witness_is_the_exact_solution(cx, rational, cycles, faces):
    # a combination of fundamental cycles and face boundaries: every 1-cycle
    module = hn.RATIONAL if rational else hn.INTEGER
    weight = (lambda w: Fraction(*w)) if rational else (lambda w: w[0])
    chain = hn.Chain.zero(cx, 1, module)
    for z, w in zip(hn.cycle_basis(cx, 1), cycles):
        chain = chain + z.as_module(module).scaled(weight(w))
    for f, w in zip(range(cx.r[2]), faces):
        face = hn.Chain(cx, 2, {f: 1}, module)
        chain = chain + hn.boundary(face).scaled(weight(w))
    boundary_2 = [[row[a] for row in cx.incidence_2] for a in range(cx.r[1])]
    solved = exact.solve(boundary_2, [chain[a] for a in range(cx.r[1])])[0]
    result = hn.is_boundary(chain)
    assert result.bounds == (solved is not None)
    if result.bounds:
        assert result.witness.module == hn.RATIONAL
        assert result.witness.coeffs == {f: v for f, v in enumerate(solved) if v}
        assert all(type(v) is Fraction for v in result.witness.coeffs.values())


def test_one_chain_boundary_test_reuses_the_face_echelon(disc, projective_plane, monkeypatch):
    """After the first question about the faces, boundary tests run no
    elimination: the disc's by the sweep alone, the projective plane's on
    its cached Morse echelon."""
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    echelon = _kernel.echelon
    for cx in (disc, projective_plane):
        hn.betti_numbers(cx)
    monkeypatch.setattr(_kernel, "echelon", counted)
    rim = hn.Chain(disc, 1, {0: 1, 3: 1, 1: -1}, hn.INTEGER)
    assert hn.is_boundary(rim).bounds
    assert hn.is_boundary(rim.as_module(hn.RATIONAL).scaled(Fraction(1, 2))).bounds
    for z in hn.cycle_basis(projective_plane, 1):
        assert hn.is_boundary(z).bounds
    assert calls == []


def test_non_cycle_rejected(circle):
    c = hn.Chain(circle, 1, {0: 1}, hn.INTEGER)
    with pytest.raises(errors.NotACycle):
        hn.is_boundary(c)


# -- betti, euler, generators ----------------------------------------------

def test_circle_betti(circle):
    assert hn.betti_numbers(circle) == [1, 1]


def test_disc_betti(disc):
    assert hn.betti_numbers(disc) == [1, 0, 0]


def test_isolated_nodes_betti():
    cx = hn.build_complex(["A", "B", "C"], [])
    assert hn.betti_numbers(cx) == [3]


def test_euler_characteristic(circle, disc):
    assert hn.euler_characteristic(circle) == 0
    assert hn.euler_characteristic(disc) == 1
    assert hn.euler_characteristic(hn.build_complex(["A"], [])) == 1


def test_circle_generator_spans_loop(circle):
    gens = hn.homology_generators(circle, 1)
    assert len(gens) == 1
    z = gens[0]
    assert dict(z.coeffs) == {0: 1, 1: -1, 2: 1}


def test_disc_has_no_h1_generators(disc):
    assert hn.homology_generators(disc, 1) == []


def test_component_representatives():
    cx = hn.build_complex(
        ["A", "B", "C", "X", "Y", "Z"],
        [("A", "B"), ("B", "C"), ("C", "A"), ("X", "Y"), ("Y", "Z"), ("Z", "X")],
    )
    gens = hn.homology_generators(cx, 0)
    assert len(gens) == 2
    for g in gens:
        assert hn.is_cycle(g)
        assert not hn.is_boundary(g).bounds


def test_generators_are_cycles_not_boundaries(rng):
    for _ in range(40):
        cx = random_complex(rng)
        for k in range(cx.dim + 1):
            for g in hn.homology_generators(cx, k):
                assert hn.is_cycle(g)
                if k >= 1:
                    assert not hn.is_boundary(g).bounds


def test_betti_matches_components(rng):
    for _ in range(60):
        cx = random_complex(rng)
        assert hn.betti_numbers(cx)[0] == len(hn.path_components(cx))


def test_euler_double_count_on_random_complexes(rng):
    for _ in range(60):
        cx = random_complex(rng)
        hn.euler_characteristic(cx)  # raises InternalMismatch on disagreement


def test_projective_plane_torsion(projective_plane):
    assert hn.betti_numbers(projective_plane) == [1, 0, 0]
    assert hn.euler_characteristic(projective_plane) == 1
    assert hn.torsion_coefficients(projective_plane) == [[], [2], []]


def smith_torsion(cx):
    if cx.dim < 2:
        return [[] for _ in range(cx.dim + 1)]
    return [[], [d for d in exact.smith_normal_form(cx.incidence_2).d if d > 1], []]


@settings(deadline=None)
@given(complexes())
@example(real_projective_plane())
@example(tetrahedron_surface())
def test_certified_torsion_matches_smith_form(cx):
    assert hn.torsion_coefficients(cx) == smith_torsion(cx)


def test_summary_runs_the_smith_form_once_on_torsion(projective_plane, monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    smith_normal_form = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", counted)
    info = hn.summary(projective_plane)
    assert info.torsion == [[], [2], []]
    # the Morse boundary of the one critical face, in the one chord
    # coordinate of the graph the rest collapses onto
    assert calls == [[[2]]] or calls == [[[-2]]]


def test_large_grid_is_certified_torsion_free(monkeypatch):
    def refuse(matrix):
        raise AssertionError("the face echelon certifies this grid")

    monkeypatch.setattr(exact, "smith_normal_form", refuse)
    holes = (0, 7, 100, 251, 449)
    info = hn.summary(triangulated_grid(16, holes))
    assert info.torsion == [[], [], []]
    assert info.betti == [1, len(holes), 0]
    assert len(info.generators[1]) == len(holes)


def test_summary(disc):
    info = hn.summary(disc)
    assert info.betti == [1, 0, 0]
    assert info.euler == 1
    assert len(info.generators[0]) == 1


# -- cochains ----------------------------------------------------------------

def test_evaluate_single_term(circle):
    c = hn.Cochain(circle, 1, {1: 2}, hn.INTEGER)
    x = hn.Chain(circle, 1, {1: 3}, hn.INTEGER)
    assert hn.evaluate(c, x) == 6


def test_reciprocal_pairing(circle):
    for i in range(3):
        for j in range(3):
            c = hn.Cochain(circle, 1, {i: 1}, hn.INTEGER)
            x = hn.Chain(circle, 1, {j: 1}, hn.INTEGER)
            assert hn.evaluate(c, x) == (1 if i == j else 0)


def test_coboundary_of_vertex_cochain(circle):
    c = hn.Cochain(circle, 0, {0: 1}, hn.INTEGER)  # value 1 at A
    dc = hn.coboundary(c)
    assert dict(dc.coeffs) == {0: -1, 1: -1}  # -1 on AB, -1 on AC


def test_coboundary_squared_vanishes(disc, rng):
    for _ in range(40):
        c = random_cochain(rng, disc, 0)
        assert hn.coboundary(hn.coboundary(c)).is_zero(0)


def test_constant_cochain_has_zero_coboundary(circle):
    c = hn.Cochain(circle, 0, {0: 5, 1: 5, 2: 5}, hn.INTEGER)
    assert hn.coboundary(c).is_zero(0)


def test_adjointness(disc, rng):
    for _ in range(100):
        c = random_cochain(rng, disc, 0)
        x = random_chain(rng, disc, 1)
        assert hn.evaluate(hn.coboundary(c), x) == hn.evaluate(c, hn.boundary(x))
    for _ in range(100):
        c = random_cochain(rng, disc, 1)
        x = random_chain(rng, disc, 2)
        assert hn.evaluate(hn.coboundary(c), x) == hn.evaluate(c, hn.boundary(x))


def test_adjointness_within_tolerance_for_floats(disc, rng):
    for _ in range(100):
        values_c = {i: rng.uniform(-5, 5) for i in range(disc.r[0])}
        values_x = {a: rng.uniform(-5, 5) for a in range(disc.r[1])}
        c = hn.Cochain(disc, 0, values_c, hn.REAL64)
        x = hn.Chain(disc, 1, values_x, hn.REAL64)
        lhs = hn.evaluate(hn.coboundary(c), x)
        rhs = hn.evaluate(c, hn.boundary(x))
        assert abs(lhs - rhs) <= 1e-9


def test_generators_independent_modulo_boundaries(rng):
    from homnet import exact

    for _ in range(30):
        cx = random_complex(rng)
        gens = hn.homology_generators(cx, 1)
        if not gens:
            continue
        rows = list(cx.incidence_2)
        base_rank = exact.rank(rows) if rows else 0
        stacked = rows + [
            [g[a] for a in range(cx.r[1])] for g in gens
        ]
        assert exact.rank(stacked) == base_rank + len(gens)


def test_coboundary_needs_higher_simplexes(circle):
    c = hn.Cochain(circle, 1, {0: 1}, hn.INTEGER)
    with pytest.raises(errors.DimensionMismatch):
        hn.coboundary(c)


# -- coboundary solvability ---------------------------------------------------

def test_coboundary_is_coboundary(circle, rng):
    for _ in range(40):
        v = random_cochain(rng, circle, 0, module=hn.RATIONAL)
        result = hn.is_coboundary(hn.coboundary(v))
        assert result.is_coboundary
        # potential differs from v by a constant on the (single) component
        diff = result.potential - v
        values = {diff[i] for i in range(circle.r[0])}
        assert len(values) == 1


def test_unit_cochain_fails_on_circle(circle):
    c = hn.Cochain(circle, 1, {0: Fraction(1)}, hn.RATIONAL)
    result = hn.is_coboundary(c)
    assert not result.is_coboundary
    assert result.pairing != 0
    assert hn.is_cycle(result.witness)


def test_tree_cochains_always_solvable(rng):
    # a tree has no cycles, so every 1-cochain is a coboundary
    cx = hn.build_complex(
        ["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("B", "D")]
    )
    for _ in range(30):
        c = random_cochain(rng, cx, 1, module=hn.RATIONAL)
        assert hn.is_coboundary(c).is_coboundary


def test_float_coboundary_with_tolerance(circle):
    v = hn.Cochain(circle, 0, {0: 1.5, 1: 0.25, 2: -2.0}, hn.REAL64)
    dv = hn.coboundary(v)
    result = hn.is_coboundary(dv, tol=1e-9)
    assert result.is_coboundary
    bad = hn.Cochain(circle, 1, {0: 1.0}, hn.REAL64)
    result = hn.is_coboundary(bad, tol=1e-9)
    assert not result.is_coboundary


def test_float_coboundary_verdict_on_parallel_branches():
    # every loop of these four parallel branches sums to 9e-10, within tol
    cx = hn.build_complex(
        ["A", "B"],
        [("B", "A"), ("A", "B"), ("A", "B"), ("B", "A")],
        branch_labels=["p", "q", "r", "s"],
    )
    drop = hn.Cochain(cx, 1, {0: 0.0, 1: -9e-10, 2: -9e-10, 3: -9e-10}, hn.REAL64)
    result = hn.is_coboundary(drop, tol=1e-9)
    assert result.is_coboundary
    assert result.potential[0] == result.potential[1] == 0.0


def test_float_coboundary_fails_on_loop_sum_above_tol(circle):
    # the loop AB + BC - AC sums to 2e-9 > tol, although a least-squares
    # potential misses each single drop by less than tol
    drop = hn.Cochain(circle, 1, {0: 2e-9}, hn.REAL64)
    result = hn.is_coboundary(drop, tol=1e-9)
    assert not result.is_coboundary
    assert result.pairing == 2e-9
    assert dict(result.witness.coeffs) == {0: 1, 1: -1, 2: 1}


def cycle_sum_coboundary(cochain, tol=DEFAULT_TOL):
    """The per-cycle algorithm, kept as the oracle: sum the cochain around
    every chord's fundamental cycle in chord order, and integrate the
    potential only once every sum vanishes."""
    cx, mod = cochain.complex, cochain.module
    for z in hn.cycle_basis(cx, 1):
        val = hn.evaluate(cochain, z)
        if not mod.is_zero(val, tol):
            return homology.CoboundaryTest(False, witness=z, pairing=val)
    potential = homology.integrate(cochain)
    values = {}
    for comp in hn.path_components(cx):
        top = mod.neg(potential[comp[-1]])
        for v in comp:
            values[v] = mod.add(potential[v], top)
    return homology.CoboundaryTest(
        True, potential=hn.Cochain(cx, 0, values, mod, prune=False)
    )


COCHAIN_KINDS = {
    "integer": (hn.INTEGER, st.integers(-9, 9)),
    "rational": (hn.RATIONAL, st.fractions(-9, 9, max_denominator=7)),
    "real64": (hn.REAL64, st.floats(-9, 9, allow_nan=False)),
}


@pytest.mark.parametrize("kind", sorted(COCHAIN_KINDS))
@settings(deadline=None)
@given(complexes(), st.data())
def test_is_coboundary_matches_the_cycle_sums(kind, cx, data):
    # a coboundary, or one with some drops perturbed, or any cochain; the
    # verdict, witness, pairing and potential match value for value (repr
    # tells 0 from Fraction(0) and 0.0 from -0.0)
    module, values = COCHAIN_KINDS[kind]
    shape = data.draw(st.sampled_from(["coboundary", "perturbed", "any"]))
    if shape == "any":
        drops = data.draw(st.lists(values, min_size=cx.r[1], max_size=cx.r[1]))
    else:
        v = data.draw(st.lists(values, min_size=cx.r[0], max_size=cx.r[0]))
        drops = [v[head] - v[tail] for tail, head in cx.branches]
        if shape == "perturbed" and drops:
            bumps = data.draw(st.lists(
                st.tuples(st.integers(0, len(drops) - 1), values), max_size=3
            ))
            for a, bump in bumps:
                drops[a] += bump
    cochain = hn.Cochain(cx, 1, dict(enumerate(drops)), module)
    got, want = hn.is_coboundary(cochain), cycle_sum_coboundary(cochain)
    assert got.is_coboundary == want.is_coboundary
    assert repr(got.pairing) == repr(want.pairing)
    if want.is_coboundary:
        assert got.witness is None
        assert repr(got.potential.coeffs) == repr(want.potential.coeffs)
    else:
        assert got.potential is None
        assert got.witness == want.witness
        assert got.witness.coeffs == want.witness.coeffs


@settings(deadline=None)
@given(complexes())
def test_cycle_basis_matches_betti(cx):
    basis = hn.cycle_basis(cx, 1)
    assert len(basis) == cx.r[1] - exact.rank(cx.incidence_1)
    for z in basis:
        assert hn.is_cycle(z)
    # the forest's fundamental cycles are the elimination's nullspace basis
    boundary_1 = [list(col) for col in zip(*cx.incidence_1)]
    vectors = [[z[a] for a in range(cx.r[1])] for z in basis]
    assert vectors == [dense(v, cx.r[1]) for v in exact.nullspace(boundary_1)]
    if cx.dim >= 1:
        rank_2 = exact.rank(cx.incidence_2) if cx.r[2] else 0
        assert hn.betti_numbers(cx)[1] == len(basis) - rank_2


@settings(deadline=None)
@given(complexes())
@example(tetrahedron_surface())
@example(real_projective_plane())
@example(closed_surface(4))
@example(closed_surface(4, twist=True))
def test_face_echelon_matches_independent_eliminations(cx):
    betti = hn.betti_numbers(cx)
    rank_1 = exact.rank(cx.incidence_1) if cx.r[1] else 0
    rank_2 = exact.rank(cx.incidence_2) if cx.r[2] else 0
    if cx.dim >= 1:
        assert betti[1] == cx.r[1] - rank_1 - rank_2
    if cx.dim == 2:
        assert betti[2] == cx.r[2] - rank_2
        boundary_2 = [list(col) for col in zip(*cx.incidence_2)]
        vectors = [[z[f] for f in range(cx.r[2])] for z in hn.cycle_basis(cx, 2)]
        assert vectors == [dense(v, cx.r[2]) for v in exact.nullspace(boundary_2)]
    hn.euler_characteristic(cx)  # raises InternalMismatch on disagreement


def test_summary_eliminates_the_faces_once(projective_plane, monkeypatch):
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    echelon = _kernel.echelon
    monkeypatch.setattr(_kernel, "echelon", counted)
    info = hn.summary(projective_plane)
    assert info.betti == [1, 0, 0]
    assert info.generators[1] == []
    assert len(calls) == 1


@settings(deadline=None)
@given(complexes())
@example(tetrahedron_surface())
@example(real_projective_plane())
@example(closed_surface(4))
@example(closed_surface(4, twist=True))
def test_generators_match_greedy_rank_selection(cx):
    cycles = hn.cycle_basis(cx, 1)
    expected = cycles
    if cx.dim == 2:
        kept = greedy_generators(cx, [z.coeffs for z in cycles])
        expected = [z for z in cycles if z.coeffs in kept]
    gens = hn.homology_generators(cx, 1)
    assert gens == expected
    if cx.dim >= 1:
        assert len(gens) == hn.betti_numbers(cx)[1]


@settings(deadline=None)
@given(complexes())
def test_degree_zero_has_no_torsion(cx):
    assert hn.torsion_coefficients(cx)[0] == []
    if cx.r[1]:
        assert [d for d in exact.smith_normal_form(cx.incidence_1).d if d > 1] == []


@settings(deadline=None)
@given(complexes(), st.data())
def test_exact_coboundary_potential(cx, data):
    assume(cx.r[1] > 0)
    r0, r1 = cx.r[0], cx.r[1]
    if data.draw(st.booleans()):
        values = st.fractions(min_value=-9, max_value=9, max_denominator=7)
        v = data.draw(st.lists(values, min_size=r0, max_size=r0))
        drop = hn.coboundary(hn.Cochain(cx, 0, dict(enumerate(v)), hn.RATIONAL))
    else:
        values = st.integers(-1, 1).map(Fraction)
        d = data.draw(st.lists(values, min_size=r1, max_size=r1))
        drop = hn.Cochain(cx, 1, dict(enumerate(d)), hn.RATIONAL)
    result = hn.is_coboundary(drop)
    solved = exact.solve(cx.incidence_1, [drop[a] for a in range(r1)])[0]
    assert result.is_coboundary == (solved is not None)
    if result.is_coboundary:
        assert hn.coboundary(result.potential) == drop
        # zero at each component's highest-index node, the free column an
        # exact solve of the incidence system leaves
        assert [result.potential[i] for i in range(r0)] == solved
        for comp in hn.path_components(cx):
            assert result.potential[comp[-1]] == 0
    else:
        basis = hn.cycle_basis(cx, 1)
        first = next(z for z in basis if hn.evaluate(drop, z) != 0)
        assert result.witness == first
        assert result.pairing == hn.evaluate(drop, first) != 0
