import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as hst

import homnet as hn
from homnet import cli, documents, errors, exact, reports
from homnet import geometry as geo
from homnet import statics as st
from homnet.coeffs import vneg, vnorm
from conftest import (
    complexes, float_grid_truss, frameworks, jittered_grid_truss, random_complex,
)

K4 = hn.build_complex(
    ["A", "B", "C", "D"],
    [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")],
)


def equilibrated_complex(g, coefficients):
    f_int = st.tension_force_chain(g, coefficients)
    f_ext = -hn.boundary(f_int)
    return st.ForceComplex(g=g, f_ext=f_ext, f_int=f_int)


def extended_is_cycle(fc, tol=0):
    """The paper's test: the force chain on the one-point extension is a
    1-cycle."""
    _, chain = st.extended_force_chain(fc)
    return hn.boundary(chain).is_zero(tol)


# -- equilibrium ----------------------------------------------------------------

def test_two_node_axial_equilibrium():
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 2, {"A": (0, 0), "B": (3, 4)})
    fc = st.force_complex(
        g,
        external={"A": (Fraction(3), Fraction(4)), "B": (Fraction(-3), Fraction(-4))},
        internal={"AB": (Fraction(3), Fraction(4))},
    )
    report = st.equilibrium_check(fc)
    assert report.in_equilibrium
    assert extended_is_cycle(fc)
    assert report.resultant == (0, 0)


def test_halved_end_force_breaks_equilibrium():
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 2, {"A": (0, 0), "B": (3, 4)})
    fc = st.force_complex(
        g,
        external={"A": (Fraction(3, 2), Fraction(2)), "B": (Fraction(-3), Fraction(-4))},
        internal={"AB": (Fraction(3), Fraction(4))},
    )
    report = st.equilibrium_check(fc)
    assert not report.in_equilibrium
    assert not extended_is_cycle(fc)
    assert report.nodal_residual[0] == (Fraction(-3, 2), Fraction(-2))
    assert report.nodal_residual[1] == (0, 0)


def test_zero_forces_trivially_balanced(triangle_geo):
    fc = st.force_complex(triangle_geo)
    assert st.equilibrium_check(fc).in_equilibrium


def test_extended_chain_cycle_iff_equilibrium(triangle_geo, rng):
    for _ in range(50):
        coeffs = {
            a: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for a in range(3)
        }
        fc = equilibrated_complex(triangle_geo, coeffs)
        report = st.equilibrium_check(fc)
        assert report.in_equilibrium and extended_is_cycle(fc)
        # perturb one external force
        bump = hn.Chain(
            triangle_geo.complex, 0, {0: (Fraction(1), Fraction(0))}, fc.f_ext.module
        )
        broken = st.ForceComplex(g=fc.g, f_ext=fc.f_ext + bump, f_int=fc.f_int)
        report = st.equilibrium_check(broken)
        assert not report.in_equilibrium and not extended_is_cycle(broken)


@settings(deadline=None)
@given(
    frameworks(hst.one_of(
        hst.integers(-6, 6), hst.fractions(-6, 6, max_denominator=5)
    )),
    hst.data(),
)
def test_in_equilibrium_iff_the_extension_is_a_cycle(g, data):
    # loads balancing tension coefficients, perturbed, or drawn anyhow;
    # exact throughout, so the verdicts compare at tolerance 0
    cx = g.complex
    shape = data.draw(hst.sampled_from(["balanced", "perturbed", "any"]))
    ints = hst.integers(-3, 3)
    if shape == "any":
        loads = hst.tuples(*[ints] * g.n)
        f_ext = hn.Chain(cx, 0, dict(enumerate(data.draw(
            hst.lists(loads, min_size=cx.r[0], max_size=cx.r[0])
        ))), hn.covector(g.n))
        f_int = st.tension_force_chain(g, {})
    else:
        q = data.draw(hst.lists(ints, min_size=cx.r[1], max_size=cx.r[1]))
        f_int = st.tension_force_chain(g, dict(enumerate(q)))
        f_ext = -hn.boundary(f_int)
        if shape == "perturbed":
            # one load bumped, or two by opposite amounts, which leaves the
            # resultant zero but not the residual
            nodes = hst.integers(0, cx.r[0] - 1)
            node, other = data.draw(nodes), data.draw(nodes)
            bump = data.draw(hst.tuples(*[ints] * g.n))
            bumps = {node: bump}
            if other != node and data.draw(hst.booleans()):
                bumps[other] = vneg(bump)
            f_ext = f_ext + hn.Chain(cx, 0, bumps, f_ext.module)
    fc = st.ForceComplex(g=g, f_ext=f_ext, f_int=f_int)
    assert st.equilibrium_check(fc).in_equilibrium == extended_is_cycle(fc)


def test_axial_declaration_validated(triangle_geo):
    with pytest.raises(errors.DimensionMismatch):
        st.ForceComplex(
            g=triangle_geo,
            f_ext=hn.Chain.zero(triangle_geo.complex, 0, hn.covector(2)),
            f_int=hn.Chain(
                triangle_geo.complex, 1, {0: (0.0, 1.0)}, hn.covector(2)
            ),
            axial={0: 1.0},  # branch AB points along +x, not +y
        )


# -- statics solver ----------------------------------------------------------------

def test_loaded_triangle_is_determinate(triangle_geo):
    coeffs = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(3, 2)}
    fc = equilibrated_complex(triangle_geo, coeffs)
    sol = st.solve_statics(triangle_geo, fc.f_ext)
    assert sol.classification == "determinate"
    assert sol.self_stress_dim == 0
    assert sol.tension_coefficients == [Fraction(2), Fraction(-1), Fraction(3, 2)]
    reconstruction = fc.f_ext + hn.boundary(sol.internal_force_chain())
    assert reconstruction.is_zero(0)


def test_projected_tetrahedron_self_stress(tetra_geo):
    sol = st.solve_statics(
        tetra_geo, hn.Chain.zero(tetra_geo.complex, 0, hn.covector(2))
    )
    assert sol.classification == "indeterminate"
    assert sol.self_stress_dim == 1
    basis = sol.self_stress_basis[0]
    assert any(v for v in basis.coeffs.values())
    force_chain = sol.basis_force_chain(0)
    assert hn.boundary(force_chain).is_zero(0)


def test_unbalanced_load_is_infeasible(triangle_geo):
    f_ext = hn.Chain(
        triangle_geo.complex, 0, {0: (Fraction(1), Fraction(0))}, hn.covector(2)
    )
    sol = st.solve_statics(triangle_geo, f_ext)
    assert sol.classification == "infeasible"
    assert sol.tension_coefficients is None


def test_self_stress_dim_matches_rank_deficit(tetra_geo):
    from homnet import exact

    mat = st.equilibrium_matrix(tetra_geo)
    assert tetra_geo.complex.r[1] - exact.rank(mat) == 1


def exact_branch_vector(g, a):
    """Head position minus tail position, each coordinate taken as the
    exact rational it is (a float as its dyadic value)."""
    tail, head = g.complex.branches[a]
    return tuple(
        Fraction(h) - Fraction(t) for h, t in zip(g.positions[head], g.positions[tail])
    )


def coordinate_denominator(g):
    """P: the common denominator of every coordinate of the framework."""
    return math.lcm(*(Fraction(x).denominator for p in g.positions for x in p))


# int, rational and float coordinates
any_coordinates = hst.one_of(
    hst.integers(-6, 6),
    hst.fractions(-6, 6, max_denominator=5),
    hst.floats(-6, 6, allow_nan=False),
)


def dense_equilibrium_matrix(g):
    """Row (i, c), column a: incidence of node i on branch a times the exact
    branch vector's component c, every one of the r0 * n * r1 cells."""
    cx = g.complex
    rows = []
    for i in range(cx.r[0]):
        for c in range(g.n):
            row = []
            for a in range(cx.r[1]):
                tail, head = cx.branches[a]
                inc = 1 if head == i else (-1 if tail == i else 0)
                row.append(inc * exact_branch_vector(g, a)[c] if inc else 0)
            rows.append(row)
    return rows


@settings(deadline=None)
@given(frameworks(any_coordinates))
def test_equilibrium_matrix_matches_dense_definition(g):
    # the matrix is P times the exact one, every entry a plain int: the
    # positions are scaled before they are subtracted, so float positions
    # give their exact differences
    P = coordinate_denominator(g)
    matrix = st.equilibrium_matrix(g)
    assert all(type(x) is int for row in matrix for x in row)
    assert matrix == [[P * x for x in row] for row in dense_equilibrium_matrix(g)]


@settings(deadline=None)
@given(complexes(max_nodes=6, with_faces=False), hst.data())
def test_self_stress_basis_has_zero_boundary(cx, data):
    points = hst.tuples(hst.integers(-6, 6), hst.integers(-6, 6))
    spots = data.draw(
        hst.lists(points, min_size=cx.r[0], max_size=cx.r[0], unique=True)
    )
    denominator = data.draw(hst.integers(1, 3))
    positions = {
        lab: (Fraction(x, denominator), Fraction(y, denominator))
        for lab, (x, y) in zip(cx.node_labels, spots)
    }
    g = geo.realize(cx, 2, positions)
    loads = data.draw(hst.lists(points, min_size=cx.r[0], max_size=cx.r[0]))
    f_ext = hn.Chain(cx, 0, dict(enumerate(loads)), hn.covector(2))
    sol = st.solve_statics(g, f_ext)
    assert sol.self_stress_dim == cx.r[1] - exact.rank(st.equilibrium_matrix(g))
    for k in range(sol.self_stress_dim):
        residual = hn.boundary(sol.basis_force_chain(k))
        assert all(c == 0 for v in residual.coeffs.values() for c in v)
    if sol.tension_coefficients is not None:
        assert (f_ext + hn.boundary(sol.internal_force_chain())).is_zero(0)


def assert_plain_int_self_stresses(g):
    """Each self-stress basis vector is a column-sorted {branch: int} of
    nonzeros with gcd 1 and a positive lowest entry, and A v = 0 holds in
    integer arithmetic, A the exact dense matrix (floats as the dyadic
    rationals they are) scaled to integers by P; the basis spans the
    nullspace: as many vectors as branches minus the rank of A."""
    cx = g.complex
    sol = st.solve_statics(g, hn.Chain(cx, 0, {}, hn.covector(g.n)))
    P = coordinate_denominator(g)
    rows = [[int(P * x) for x in row] for row in dense_equilibrium_matrix(g)]
    assert len(sol.self_stress_basis) == sol.self_stress_dim
    assert sol.self_stress_dim == cx.r[1] - exact.rank(rows)
    for chain in sol.self_stress_basis:
        vec = chain.coeffs
        assert vec and list(vec) == sorted(vec)
        assert all(type(v) is int and v for v in vec.values())
        assert math.gcd(*vec.values()) == 1 and vec[min(vec)] > 0
        assert all(sum(row[a] * v for a, v in vec.items()) == 0 for row in rows)
    return sol


@settings(deadline=None)
@given(frameworks(any_coordinates))
def test_self_stress_basis_is_a_plain_int_certificate(g):
    assert_plain_int_self_stresses(g)


@pytest.mark.parametrize("k", [4, 7])
def test_grid_truss_self_stresses_are_plain_int_certificates(k):
    # one self-stress per interior node of the triangulated grid
    assert assert_plain_int_self_stresses(jittered_grid_truss(k)).self_stress_dim == (k - 2) ** 2


@pytest.mark.parametrize("k", [4, 6])
def test_float_grid_truss_has_the_generic_self_stresses(k):
    # rounded differences lose a self-stress (3 and 15); exact ones keep
    # the generic (k - 2) ** 2
    assert assert_plain_int_self_stresses(float_grid_truss(k)).self_stress_dim == (k - 2) ** 2


def test_k4_across_the_float_range_solves_exactly():
    # coordinates from the least subnormal to 1e300: P is 2 ** 1074 and
    # the integer system carries entries of thousands of bits.  The loads
    # balance tensions 1..5 on the first five bars and none on CD, the free
    # column, so the solution is those tensions and the certificate has
    # work to do; the lengths of the long bars overflow to inf, not raise
    g = geo.realize(K4, 2, [(5e-324, 1e-300), (1e300, 2.25e-200),
                            (2.25e-200, 1e300), (1e-300, 5e-324)])
    assert g.scaled_branch_vectors[1] == 2**1074
    q = [1, 2, 3, 4, 5, 0]
    f_ext = -hn.boundary(hn.Chain(K4, 1, {
        a: tuple(q[a] * x for x in exact_branch_vector(g, a)) for a in range(6)
    }, hn.covector(2)))
    sol = st.solve_statics(g, f_ext)
    assert (sol.classification, sol.self_stress_dim) == ("indeterminate", 1)
    assert sol.tension_coefficients == q
    assert sol.reconstruction_exact(f_ext) is True
    assert len(sol.axial_forces) == 6
    assert max(abs(v).bit_length() for v in sol.self_stress_basis[0].coeffs.values()) > 2000


# -- the reconstruction certificate --------------------------------------------------

def chain_reconstruction(sol, f_ext):
    """The certificate's oracle: the load chain plus the boundary of the
    tension force chain is the zero chain."""
    return (f_ext + hn.boundary(sol.internal_force_chain())).is_zero(0)


exact_values = hst.one_of(
    hst.integers(-6, 6), hst.fractions(-6, 6, max_denominator=5)
)


@settings(deadline=None)
@given(frameworks(hst.one_of(exact_values, hst.floats(-6, 6, allow_nan=False))),
       hst.data())
def test_reconstruction_certificate_matches_the_chain_form(g, data):
    # int, rational and float positions, int and rational loads: loads
    # balancing tensions, or drawn anyhow (often infeasible); then one
    # tension or one load is perturbed, which both forms must reject.  The
    # chain form reads the exact branch vectors, floats too
    cx = g.complex
    if data.draw(hst.booleans()):
        q = data.draw(hst.lists(exact_values, min_size=cx.r[1], max_size=cx.r[1]))
        f_ext = -hn.boundary(st.tension_force_chain(g, dict(enumerate(q))))
    else:
        loads = hst.lists(
            hst.tuples(*[exact_values] * g.n), min_size=cx.r[0], max_size=cx.r[0]
        )
        f_ext = hn.Chain(cx, 0, dict(enumerate(data.draw(loads))), hn.covector(g.n))
    sol = st.solve_statics(g, f_ext)
    if sol.tension_coefficients is None:
        assert sol.reconstruction_exact(f_ext) is None
        return
    assert sol.reconstruction_exact(f_ext) is chain_reconstruction(sol, f_ext) is True
    delta = data.draw(exact_values.filter(bool))
    if cx.r[1] and data.draw(hst.booleans()):
        sol.tension_coefficients[data.draw(hst.integers(0, cx.r[1] - 1))] += delta
    else:
        node = data.draw(hst.integers(0, cx.r[0] - 1))
        c = data.draw(hst.integers(0, g.n - 1))
        bump = tuple(delta if k == c else 0 for k in range(g.n))
        f_ext = f_ext + hn.Chain(cx, 0, {node: bump}, f_ext.module)
    assert sol.reconstruction_exact(f_ext) is chain_reconstruction(sol, f_ext) is False


@settings(deadline=None)
@given(frameworks(hst.fractions(-6, 6, max_denominator=5)), hst.data())
def test_axial_forces_are_tensions_times_exact_lengths(g, data):
    # |s(a)| is the norm of the exact difference; the norm of the scaled
    # integer vector over P rounds differently
    q = data.draw(hst.lists(exact_values, min_size=g.complex.r[1], max_size=g.complex.r[1]))
    f_ext = -hn.boundary(st.tension_force_chain(g, dict(enumerate(q))))
    sol = st.solve_statics(g, f_ext)
    assert sol.axial_forces == [
        float(t) * vnorm(exact_branch_vector(g, a))
        for a, t in enumerate(sol.tension_coefficients)
    ]


def test_perturbed_tension_fails_the_certificate(triangle_geo):
    fc = equilibrated_complex(triangle_geo, {0: 2, 1: -1, 2: Fraction(3, 2)})
    sol = st.solve_statics(triangle_geo, fc.f_ext)
    assert sol.reconstruction_exact(fc.f_ext) is True
    solved = sol.tension_coefficients
    for a in range(3):
        sol.tension_coefficients = list(solved)
        sol.tension_coefficients[a] += Fraction(1, 7)
        assert sol.reconstruction_exact(fc.f_ext) is False


def test_certificate_reads_floats_as_the_dyadic_system_solved():
    # a bar of float length 0.22 under float end loads of 7.55e6: the exact
    # tension is the dyadic load over the dyadic length, which balances
    # exactly; the chain form multiplies q by the same exact branch vector,
    # so it balances too (rounded differences left a residual near 1e-9)
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 1, {"A": (0.0,), "B": (0.22,)})
    y = 7.55e6
    f_ext = hn.Chain(cx, 0, {0: (-y,), 1: (y,)}, hn.covector(1))
    sol = st.solve_statics(g, f_ext)
    (q,) = sol.tension_coefficients
    assert Fraction(y) + q * Fraction(0.22) == 0
    assert sol.reconstruction_exact(f_ext) is True
    assert chain_reconstruction(sol, f_ext) is True


@settings(deadline=None)
@given(frameworks(any_coordinates))
def test_rigid_motions_are_orthogonal_to_every_column(g):
    # a column holds -P s and P s at its tail's and head's rows, and a
    # motion pairs them to the same translation or rotation rate
    matrix = st.equilibrium_matrix(g)
    motions = st.rigid_motions(g)
    assert len(motions) == g.n * (g.n + 1) // 2
    assert all(len(u) == len(matrix) for u in motions)
    for u in motions:
        assert all(type(x) is int for x in u)
        for a in range(g.complex.r[1]):
            assert sum(x * row[a] for x, row in zip(u, matrix)) == 0


@settings(deadline=None)
@given(frameworks(any_coordinates), hst.data())
def test_solve_statics_matches_the_full_system(g, data):
    # the rows left out for the rigid motions change no answer of the full
    # system: loads of -boundary(tensions), or drawn anyhow (often
    # infeasible, and then only the resultant or the moment may say so)
    cx = g.complex
    if data.draw(hst.booleans()):
        q = data.draw(hst.lists(exact_values, min_size=cx.r[1], max_size=cx.r[1]))
        f_ext = -hn.boundary(st.tension_force_chain(g, dict(enumerate(q))))
    else:
        loads = hst.lists(
            hst.tuples(*[exact_values] * g.n), min_size=cx.r[0], max_size=cx.r[0]
        )
        f_ext = hn.Chain(cx, 0, dict(enumerate(data.draw(loads))), hn.covector(g.n))
    rhs = [-x for i in range(cx.r[0]) for x in f_ext[i]]
    P = coordinate_denominator(g)
    y, basis = exact.solve(st.equilibrium_matrix(g), rhs)
    sol = st.solve_statics(g, f_ext)
    assert [chain.coeffs for chain in sol.self_stress_basis] == basis
    assert sol.tension_coefficients == (None if y is None else [x * P for x in y])
    assert sol.classification == (
        "infeasible" if y is None else "indeterminate" if basis else "determinate"
    )


def test_each_branch_vector_is_computed_once(tetra_geo, monkeypatch):
    # the positions are read in one pass and scaled together, once per
    # realization; the force chain, the solve, the certificate, the axial
    # forces and the declared axial directions all read those vectors, and
    # no branch difference is taken anew
    passes = []
    monkeypatch.setattr(
        geo, "vsub", lambda x, y: pytest.fail("a branch difference was taken again")
    )

    class Positions(list):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    g = dataclasses.replace(tetra_geo, positions=Positions(tetra_geo.positions))
    fc = equilibrated_complex(g, {0: 1, 3: 2})
    sol = st.solve_statics(g, fc.f_ext)
    assert sol.reconstruction_exact(fc.f_ext) is True
    assert len(sol.axial_forces) == g.complex.r[1]
    st.force_complex(g, axial={lab: 1 for lab in g.complex.branch_labels})
    assert len(passes) == 1


def statics_document(g, loads, exact_positions=False):
    """The text of a statics document of framework g with the given node
    loads; with ``exact_positions`` each coordinate is written as the
    "p/q" string of its exact value."""
    cx = g.complex

    def coordinate(x):
        return str(Fraction(x)) if exact_positions else x

    return json.dumps({
        "dimension": g.n,
        "nodes": [
            {"id": lab, "pos": [coordinate(x) for x in p], "force": list(f)}
            for lab, p, f in zip(cx.node_labels, g.positions, loads)
        ],
        "branches": [
            {"id": lab, "tail": cx.node_labels[t], "head": cx.node_labels[h]}
            for lab, (t, h) in zip(cx.branch_labels, cx.branches)
        ],
        "analyses": [{"command": "statics"}],
    })


def statics_bytes(text):
    """The text and JSON bytes of the statics report on a document, with
    its provenance (the digest of the text) left out."""
    report = cli.run(documents.parse(text), "statics")
    report.provenance = {}
    return reports.emit(report), reports.emit(report, "json")


def test_float_k4_document_prints_its_self_stress():
    # six bars in the plane have rank at most 2 * 4 - 3 = 5, so a planar K4
    # always carries one self-stress; rounded differences lost it
    g = geo.realize(K4, 2, [(0.1, 0.2), (1.3, 0.1), (1.1, 1.7), (0.3, 1.2)])
    text, _ = statics_bytes(statics_document(g, [(0, 0)] * 4))
    assert b"classification = indeterminate\n" in text
    assert b"self_stress_dim = 1\n" in text


@settings(deadline=None)
@given(frameworks(hst.floats(-1e6, 1e6, allow_nan=False)), hst.data())
def test_statics_reads_float_positions_as_their_exact_fractions(g, data):
    # loads balancing integer tensions (exact, written as "p/q"), or small
    # integers drawn anyhow
    cx = g.complex
    if data.draw(hst.booleans()):
        q = data.draw(hst.lists(hst.integers(-3, 3), min_size=cx.r[1], max_size=cx.r[1]))
        f_ext = -hn.boundary(hn.Chain(cx, 1, {
            a: tuple(t * x for x in exact_branch_vector(g, a)) for a, t in enumerate(q)
        }, hn.covector(g.n)))
        loads = [tuple(map(str, f_ext[i])) for i in range(cx.r[0])]
    else:
        loads = data.draw(hst.lists(
            hst.tuples(*[hst.integers(-3, 3)] * g.n), min_size=cx.r[0], max_size=cx.r[0]
        ))
    assert statics_bytes(statics_document(g, loads)) == statics_bytes(
        statics_document(g, loads, exact_positions=True)
    )


def overflow_triangle(positions, forces, internal=None):
    """The text of a triangle document A, B, C with branches AB, BC, CA
    at the given positions and node forces, AB with an optional axial
    internal force."""
    ab = {"id": "AB", "tail": "A", "head": "B"}
    if internal is not None:
        ab["internal_force"] = internal
    return json.dumps({
        "dimension": 2,
        "nodes": [
            {"id": lab, "pos": list(p), "force": list(f)}
            for lab, p, f in zip("ABC", positions, forces)
        ],
        "branches": [
            ab,
            {"id": "BC", "tail": "B", "head": "C"},
            {"id": "CA", "tail": "C", "head": "A"},
        ],
    })


def run_main(tmp_path, capsys, text, *args):
    """Exit code and standard output of ``homnet`` ARGS on the document TEXT."""
    source = tmp_path / "doc.json"
    source.write_text(text)
    code = cli.main([*args, "--input", str(source)])
    return code, capsys.readouterr().out


def test_subnormal_bar_prints_its_axial_force(tmp_path, capsys):
    # AB is 5e-324 long, so q(AB) = -2 ** 1074 is past the float range
    # while the force q |s| is -1: the exact product, rounded once
    text = overflow_triangle(
        [(0.0, 0.0), (5e-324, 0.0), (0.0, 1.0)], [(-1, 0), (1, 0), (0, 0)]
    )
    code, out = run_main(tmp_path, capsys, text, "statics")
    assert code == 0
    assert "classification = determinate\n" in out
    assert "axial_forces = {AB: -1, BC: 0, CA: 0}\n" in out
    assert f"tension_coefficients = {{AB: {-2**1074}, BC: 0, CA: 0}}\n" in out


def test_wide_frame_reads_its_long_bar_as_infinite(tmp_path, capsys):
    # AB is 2e308 long: its exact vector is past the float range and reads
    # as inf, as float subtraction rounds it.  Zero tensions give zero
    # forces, and the declared axial force keeps its direction (nan, 0)
    text = overflow_triangle(
        [(-1e308, 0.0), (1e308, 0.0), (0.0, 1.0)], [(0, 0)] * 3, internal=1
    )
    code, out = run_main(tmp_path, capsys, text, "statics")
    assert code == 0
    assert "classification = determinate\n" in out
    assert "axial_forces = {AB: 0, BC: 0, CA: 0}\n" in out
    code, out = run_main(tmp_path, capsys, text, "moments", "--origin", "A")
    assert code == 0
    assert "residual_norm = 0\n" in out and "origin = [-1e+308, 0]\n" in out
    code, out = run_main(tmp_path, capsys, text, "virtual-work")
    assert code == 1
    assert "equilibrium_by_balance = false\n" in out
    assert "verdicts_agree = true\n" in out


SUBNORMAL_BAR = [(0.0, 0.0), (5e-324, 0.0), (0.0, 1.0)]


def test_subnormal_bar_prints_a_tiny_axial_force(tmp_path, capsys):
    # AB is 2 ** -1074 long and q(AB) = -2 ** 1000: float(q) is finite, but
    # the float length squares to 0, so the force -2 ** -74 is the exact
    # product, rounded once
    tiny = f"1/{2**74}"
    text = overflow_triangle(SUBNORMAL_BAR, [(f"-{tiny}", 0), (tiny, 0), (0, 0)])
    code, out = run_main(tmp_path, capsys, text, "statics")
    assert code == 0
    assert f"tension_coefficients = {{AB: {-2**1000}, BC: 0, CA: 0}}\n" in out
    assert f"axial_forces = {{AB: {-2**-74:.17g}, BC: 0, CA: 0}}\n" in out


def test_short_bar_with_subnormal_squares_prints_its_axial_force(tmp_path, capsys):
    # AB is about 1.2e-160 long: its float length is normal but its square
    # is subnormal, so the length is taken after scaling by a power of two
    text = overflow_triangle(
        [(0.0, 0.0), (1.2345678901234568e-160, 0.0), (0.0, 1.0)],
        [(-1, 0), (1, 0), (0, 0)],
    )
    code, out = run_main(tmp_path, capsys, text, "statics")
    assert code == 0
    assert "axial_forces = {AB: -1, BC: 0, CA: 0}\n" in out


def test_subnormal_bar_takes_its_direction_from_the_exact_vector(tmp_path, capsys):
    # the float length of AB squares to 0, but its axial internal force
    # points along the exact vector, (1, 0), so unit loads balance it
    tiny = f"1/{2**74}"
    text = overflow_triangle(SUBNORMAL_BAR, [(f"-{tiny}", 0), (tiny, 0), (0, 0)], internal=1)
    code, out = run_main(tmp_path, capsys, text, "virtual-work")
    assert code == 1
    assert "equilibrium_by_balance = false\n" in out
    assert "verdicts_agree = true\n" in out
    text = overflow_triangle(SUBNORMAL_BAR, [(1, 0), (-1, 0), (0, 0)], internal=1)
    code, out = run_main(tmp_path, capsys, text, "virtual-work")
    assert code == 0
    assert "equilibrium_by_balance = true\n" in out


def assert_rounded_once(force, q, s):
    """force is the float nearest to the exact q |s|: between the midpoints
    to its neighbours, or inf past the float range."""
    assert force == 0 or (force < 0) == (q < 0)
    t, f = q * q * sum(c * c for c in s), abs(force)
    if f == math.inf:
        assert t >= Fraction(2**1024 - 2**970) ** 2
        return
    below = (Fraction(f) + Fraction(math.nextafter(f, 0))) / 2
    above = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    assert below ** 2 <= t <= above ** 2


@settings(deadline=None)
@given(hst.fractions(min_value=0), hst.booleans(),
       hst.lists(hst.fractions(), min_size=1, max_size=3), hst.integers(-2200, 0))
def test_an_overflowing_tension_gives_its_force_rounded_once(x, negative, s, e):
    # q is at least 2 ** 1024, past the float range, and s is scaled down
    # by up to 2 ** -2200, far below the subnormals
    q = (1 + x) * 2**1024 * (-1 if negative else 1)
    s = [c * Fraction(2) ** e for c in s]
    assert_rounded_once(st._axial_force(q, s), q, s)


@settings(deadline=None)
@given(hst.fractions(), hst.lists(hst.fractions(), min_size=1, max_size=3),
       hst.integers(-2200, -500))
def test_an_underflowing_length_gives_its_force_rounded_once(q, s, e):
    # s is not 0, but its float length squares to 0
    s = [c * Fraction(2) ** e for c in s]
    assume(q and any(s) and vnorm(s) == 0)
    assert_rounded_once(st._axial_force(q, s), q, s)


def test_degenerate_branch_rejected(circle):
    g = geo.GeometricComplex(
        complex=circle, n=2, positions=[(0, 0), (1, 0), None]
    )
    with pytest.raises(errors.DegenerateBranch):
        st.solve_statics(g, hn.Chain.zero(circle, 0, hn.covector(2)))


# -- moment equilibrium --------------------------------------------------------------

def test_couple_fails_moment_balance():
    cx = hn.build_complex(["L", "R"], [("L", "R")])
    g = geo.realize(cx, 2, {"L": (-1, 0), "R": (1, 0)})
    f = 2.5
    fc = st.force_complex(g, external={"L": (0, -f), "R": (0, f)})
    report = st.moment_equilibrium_check(fc, (0, 0))
    assert not report.passed
    assert report.residual.comps == (2 * f,)


def test_concurrent_forces_pass():
    cx = hn.build_complex(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    g = geo.realize(cx, 2, {"A": (1, 0), "B": (0, 1), "C": (-1, -1)})
    # all forces point through the origin
    fc = st.force_complex(
        g,
        external={"A": (2, 0), "B": (0, -3), "C": (1, 1)},
    )
    report = st.moment_equilibrium_check(fc, (0, 0))
    assert report.passed


def test_equilibrated_system_passes_about_every_node(triangle_geo, rng):
    coeffs = {0: Fraction(1), 1: Fraction(2), 2: Fraction(-1)}
    fc = equilibrated_complex(triangle_geo, coeffs)
    for label in triangle_geo.complex.node_labels:
        assert st.moment_equilibrium_check(fc, label).passed


def test_applied_moments_enter_balance():
    cx = hn.build_complex(["L", "R"], [("L", "R")])
    g = geo.realize(cx, 2, {"L": (-1, 0), "R": (1, 0)})
    fc = st.force_complex(g, external={"L": (0, -1), "R": (0, 1)})
    counter = {0: hn.Bivector(2, (-2,))}
    report = st.moment_equilibrium_check(fc, (0, 0), applied_moments=counter)
    assert report.passed


def test_moment_balance_shift_identity(triangle_geo, rng):
    # with zero resultant and zero moment about one point, every other
    # reference point gives the same verdict
    coeffs = {0: Fraction(3), 1: Fraction(-2), 2: Fraction(1)}
    fc = equilibrated_complex(triangle_geo, coeffs)
    assert st.equilibrium_check(fc).in_equilibrium
    verdicts = {
        st.moment_equilibrium_check(fc, (x, y)).passed
        for x, y in [(0, 0), (10, -3), (2, 7), (-1, -1)]
    }
    assert verdicts == {True}


# -- virtual work ----------------------------------------------------------------------

def virtual_work(fc, delta_x):
    """The pairing of a virtual displacement (node label -> vector) with the
    nodal residual."""
    cx = fc.g.complex
    values = {cx.node_index(k): tuple(v) for k, v in delta_x.items()}
    return hn.evaluate(hn.Cochain(cx, 0, values, hn.vector(fc.n)), st.nodal_residual(fc))


def test_virtual_work_vanishes_in_equilibrium(triangle_geo):
    fc = equilibrated_complex(triangle_geo, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})
    assert virtual_work(fc, {"A": (1, 0)}) == 0
    assert virtual_work(fc, {"B": (0, 1), "C": (2, -1)}) == 0
    assert st.equilibrium_via_virtual_work(fc)


def test_virtual_work_reads_residual(triangle_geo):
    fc = equilibrated_complex(triangle_geo, {0: Fraction(1)})
    bump = hn.Chain(
        triangle_geo.complex, 0, {1: (Fraction(0), Fraction(5))}, fc.f_ext.module
    )
    broken = st.ForceComplex(g=fc.g, f_ext=fc.f_ext + bump, f_int=fc.f_int)
    assert virtual_work(broken, {"B": (0, 1)}) == 5
    assert virtual_work(broken, {"A": (1, 0)}) == 0
    assert not st.equilibrium_via_virtual_work(broken)


def test_virtual_work_zero_tolerance_is_exact():
    # a float force residual of about 1e-12 passes the default tolerance
    # but not tol=0
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 2, {"A": (0, 0), "B": (3, 4)})
    fc = st.force_complex(
        g,
        external={"A": (3.0, 4.0), "B": (-3.0, -4.0 + 1e-12)},
        internal={"AB": (3.0, 4.0)},
    )
    assert st.equilibrium_via_virtual_work(fc)
    assert not st.equilibrium_via_virtual_work(fc, tol=0)


def test_tiny_exact_force_is_not_pruned():
    # an exact force below the float pruning tolerance is still a force
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 2, {"A": (0, 0), "B": (3, 4)})
    fc = st.force_complex(g, external={"A": (Fraction(1, 10**13), 0)})
    assert fc.f_ext[0] == (Fraction(1, 10**13), 0)
    assert not st.equilibrium_check(fc).in_equilibrium
    assert not st.equilibrium_via_virtual_work(fc)


def test_zero_virtual_displacement(triangle_geo):
    fc = equilibrated_complex(triangle_geo, {0: Fraction(2)})
    assert virtual_work(fc, {}) == 0


def test_virtual_work_agrees_with_balance_on_random_systems(rng):
    mismatches = 0
    for _ in range(120):
        cx = random_complex(rng, max_nodes=5, with_faces=False)
        if cx.r[1] == 0:
            continue
        positions = {}
        taken = set()
        for lab in cx.node_labels:
            while True:
                p = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
                if p not in taken:
                    taken.add(p)
                    positions[lab] = p
                    break
        g = geo.realize(cx, 2, positions)
        coeffs = {
            a: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for a in range(cx.r[1])
        }
        fc = equilibrated_complex(g, coeffs)
        if rng.random() < 0.5:
            bump = hn.Chain(
                cx,
                0,
                {rng.randrange(cx.r[0]): (Fraction(rng.randint(1, 4)), Fraction(0))},
                fc.f_ext.module,
            )
            fc = st.ForceComplex(g=g, f_ext=fc.f_ext + bump, f_int=fc.f_int)
        direct = st.equilibrium_check(fc).in_equilibrium
        swept = st.equilibrium_via_virtual_work(fc)
        mismatches += direct != swept
    assert mismatches == 0


# -- open systems ----------------------------------------------------------------------

@pytest.fixture
def propped_triangle():
    """Triangle with three isolated reaction posts hanging off its corners."""
    cx = hn.build_complex(
        ["A", "B", "C", "PA", "PB", "PC"],
        [
            ("A", "B"), ("A", "C"), ("B", "C"),
            ("A", "PA"), ("B", "PB"), ("C", "PC"),
        ],
    )
    g = geo.realize(
        cx,
        2,
        {
            "A": (0, 0), "B": (4, 0), "C": (2, 3),
            "PA": (-1, -1), "PB": (5, -1), "PC": (2, 5),
        },
    )
    return g


def test_close_open_system_absorbs_reactions(propped_triangle):
    fc = st.force_complex(
        propped_triangle,
        external={
            "PA": (Fraction(1), Fraction(0)),
            "PB": (Fraction(-2), Fraction(1)),
            "PC": (Fraction(1), Fraction(-1)),
        },
    )
    closed = st.close_open_system(fc, external_nodes=["PA", "PB", "PC"])
    assert closed.g.complex.r[0] == 4  # A, B, C and the point at infinity
    inf = closed.g.complex.node_index("@infinity")
    assert closed.f_ext[inf] == (0, 0)  # the sample reactions happen to sum to zero
    assert closed.g.positions[inf] is None


def test_close_open_system_unchanged_when_closed(triangle_geo):
    fc = st.force_complex(triangle_geo)
    assert st.close_open_system(fc, external_nodes=[]) is fc


def test_balanced_open_system_closes_to_equilibrium(propped_triangle):
    # posts transmit pure axial reactions; internal bars also axial
    g = propped_triangle
    coeffs = {a: Fraction(0) for a in range(6)}
    coeffs[3] = Fraction(1)   # A-PA under tension
    coeffs[4] = Fraction(1)
    coeffs[5] = Fraction(1)
    f_int = st.tension_force_chain(g, coeffs)
    f_ext = -hn.boundary(f_int)
    fc = st.ForceComplex(g=g, f_ext=f_ext, f_int=f_int)
    closed = st.close_open_system(fc, external_nodes=["PA", "PB", "PC"])
    assert st.equilibrium_check(closed).in_equilibrium


def test_branch_with_two_external_ends_rejected(propped_triangle):
    fc = st.force_complex(propped_triangle)
    with pytest.raises(errors.InvalidPartition):
        st.close_open_system(fc, external_nodes=["PA", "A"])


def test_float_equilibrium_is_judged_at_the_tolerance_asked():
    cx = hn.build_complex(["A", "B"], [("A", "B")])
    g = geo.realize(cx, 2, {"A": (0, 0), "B": (3, 4)})
    fc = st.force_complex(
        g,
        external={"A": (3.0, 4.0), "B": (-3.0, -4.0 + 5e-13)},
        internal={"AB": (3.0, 4.0)},
    )
    residual = (-4.0 + 5e-13) + 4.0  # about 5e-13, as rounded
    for tol in (0, 1e-15):
        report = st.equilibrium_check(fc, tol)
        assert not report.in_equilibrium
        assert report.max_residual == residual
        assert report.resultant == (0.0, residual)
    assert st.equilibrium_check(fc, 1e-12).in_equilibrium
    # exact forces ignore the tolerance
    exact_fc = st.force_complex(
        g,
        external={"A": (3, 4), "B": (-3, -4)},
        internal={"AB": (3, 4)},
    )
    assert st.equilibrium_check(exact_fc, 1e-15).in_equilibrium
