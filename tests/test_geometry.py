import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import homnet as hn
from homnet import errors
from homnet import geometry as geo
from conftest import frameworks, random_complex


# -- realization ---------------------------------------------------------------

def test_realize_circle(circle):
    g = geo.realize(circle, 2, {"A": (0, 0), "B": (1, 0), "C": (0, 1)})
    assert g.n == 2
    assert g.positions == [(0, 0), (1, 0), (0, 1)]


def test_coincident_positions_rejected(circle):
    with pytest.raises(errors.CoincidentNodes):
        geo.realize(circle, 2, {"A": (0, 0), "B": (0, 0), "C": (0, 1)})


def test_wrong_dimension_rejected(circle):
    with pytest.raises(errors.DimensionMismatch):
        geo.realize(circle, 2, {"A": (0, 0, 0), "B": (1, 0), "C": (0, 1)})


def test_triangle_in_three_dimensions(circle):
    g = geo.realize(
        circle, 3, {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}
    )
    assert g.branch_vector(0) == (-1, 1, 0)


# -- displacement cochain -------------------------------------------------------

def test_displacement_values(circle_geo):
    s = geo.displacement_cochain(circle_geo)
    assert s[0] == (1, 0)    # AB
    assert s[1] == (0, 1)    # AC
    assert s[2] == (-1, 1)   # BC


def test_displacement_vanishes_on_loop(circle_geo):
    s = geo.displacement_cochain(circle_geo)
    loop = hn.Chain(circle_geo.complex, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert hn.evaluate(s, loop) == (0, 0)


def test_displacement_on_path_is_endpoint_difference(circle_geo):
    s = geo.displacement_cochain(circle_geo)
    path = hn.Chain(circle_geo.complex, 1, {0: 1, 2: 1}, hn.INTEGER)
    assert hn.evaluate(s, path) == (0, 1)


def test_displacement_vanishes_on_every_cycle(rng):
    for _ in range(40):
        cx = random_complex(rng, with_faces=False)
        if cx.r[1] == 0:
            continue
        positions = {}
        taken = set()
        for lab in cx.node_labels:
            while True:
                p = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                if p not in taken:
                    taken.add(p)
                    positions[lab] = p
                    break
        g = geo.realize(cx, 2, positions)
        s = geo.displacement_cochain(g)
        for z in hn.cycle_basis(cx, 1):
            assert hn.evaluate(s, z) == (0, 0)


@settings(deadline=None)
@given(frameworks(hst.floats(-1e6, 1e6, allow_nan=False)))
def test_float_displacements_are_exact_coboundaries(g):
    # each branch vector is the exact difference of the float positions, so
    # the polygon rule holds with no tolerance
    for a, (tail, head) in enumerate(g.complex.branches):
        assert g.branch_vector(a) == tuple(
            Fraction(h) - Fraction(t) for h, t in zip(g.positions[head], g.positions[tail])
        )
    assert hn.is_coboundary(geo.displacement_cochain(g), tol=0).is_coboundary


def test_shift_origin_keeps_displacements(circle_geo):
    # moving the origin by (5, 5) drops every position by it
    moved = geo.GeometricComplex(
        complex=circle_geo.complex,
        n=2,
        positions=[(x - 5, y - 5) for x, y in circle_geo.positions],
    )
    assert moved.positions[0] == (-5, -5)
    assert geo.displacement_cochain(moved).coeffs == geo.displacement_cochain(
        circle_geo
    ).coeffs


# -- wedges and moments ----------------------------------------------------------

def test_wedge_basis_case():
    b = geo.wedge((1, 0, 0), (0, 1, 0))
    assert b.component(0, 1) == 1
    assert b.component(0, 2) == 0
    assert b.component(1, 2) == 0


def test_wedge_two_dimensional():
    assert geo.wedge((1, 2), (3, 4)).comps == (-2,)


def test_moment_perpendicular():
    assert geo.wedge((1, 0), (0, 1)).comps == (1,)


def test_moment_of_radial_force_vanishes():
    r = (2, 3)
    for alpha in (1, -2, Fraction(1, 2)):
        f = tuple(alpha * c for c in r)
        assert geo.wedge(r, f).comps == (0,)


def test_moment_at_origin_vanishes():
    assert geo.wedge((0, 0), (5, 7)).comps == (0,)


# -- rigidity --------------------------------------------------------------------

def test_maxwell_triangle(circle_geo):
    assert geo.maxwell_dof(circle_geo) == 0


def test_maxwell_rectangle(rectangle_geo):
    assert geo.maxwell_dof(rectangle_geo) == 1


def test_maxwell_projected_tetrahedron(tetra_geo):
    assert geo.maxwell_dof(tetra_geo) == -1


def test_maxwell_unsupported_dimension(circle):
    g = geo.realize(circle, 4, {
        "A": (0, 0, 0, 0), "B": (1, 0, 0, 0), "C": (0, 1, 0, 0)
    })
    with pytest.raises(errors.UnsupportedDimension):
        geo.maxwell_dof(g)


def test_translation_is_rigid(circle_geo):
    moved = geo.GeometricComplex(
        complex=circle_geo.complex,
        n=2,
        positions=[(x + 2, y + 3) for x, y in circle_geo.positions],
    )
    assert geo.is_rigid_motion(circle_geo, moved)


def test_rotation_is_rigid(circle_geo):
    c, s = math.cos(0.7), math.sin(0.7)
    moved = geo.GeometricComplex(
        complex=circle_geo.complex,
        n=2,
        positions=[(c * x - s * y, s * x + c * y) for x, y in circle_geo.positions],
    )
    assert geo.is_rigid_motion(circle_geo, moved)


def test_length_preserving_shear_is_not_rigid(rectangle_geo):
    s, h = 0.6, 0.8  # unit side kept, diagonal changed
    sheared = geo.GeometricComplex(
        complex=rectangle_geo.complex,
        n=2,
        positions=[(0, 0), (1, 0), (1 + s, h), (s, h)],
    )
    assert not geo.is_rigid_motion(rectangle_geo, sheared)
    assert geo.is_rigid_motion(rectangle_geo, sheared, link_lengths_only=True)


def test_rigidity_invariant_under_isometry_composition(rectangle_geo):
    rng = random.Random(5)
    for _ in range(30):
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        tx, ty = rng.uniform(-5, 5), rng.uniform(-5, 5)
        moved = geo.GeometricComplex(
            complex=rectangle_geo.complex,
            n=2,
            positions=[
                (c * x - s * y + tx, s * x + c * y + ty)
                for x, y in rectangle_geo.positions
            ],
        )
        assert geo.is_rigid_motion(rectangle_geo, moved)


def test_node_count_mismatch(circle_geo, rectangle_geo):
    with pytest.raises(errors.NodeCountMismatch):
        geo.is_rigid_motion(circle_geo, rectangle_geo)
