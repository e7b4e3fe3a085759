"""The collapse of faces onto free branches (``Complex.collapse``), with a
face made critical where none is free, and the answers homology reads from
it: the same Betti numbers, torsion, generators, 2-cycles, boundary
witnesses and report bytes as dense eliminations of the incidence
matrices."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, cli, documents, errors, exact
from homnet.complexes import Complex
from conftest import (
    closed_surface,
    complexes,
    dense_face_answers,
    disjoint_union,
    face_answers,
    real_projective_plane,
    tetrahedron_surface,
    triangulated_disc,
    triangulated_grid,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WEIGHTS = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=8)


def combination(cx, cycle_weights, face_weights):
    """Rational 1-cycle: fundamental cycles plus face boundaries, weighted."""
    chain = hn.Chain.zero(cx, 1, hn.RATIONAL)
    for z, w in zip(hn.cycle_basis(cx, 1), cycle_weights):
        chain = chain + z.as_module(hn.RATIONAL).scaled(Fraction(*w))
    for f, w in zip(range(cx.r[2]), face_weights):
        face = hn.Chain(cx, 2, {f: 1}, hn.RATIONAL)
        chain = chain + hn.boundary(face).scaled(Fraction(*w))
    return chain.coeffs


def reversed_disc():
    """The triangulated disc with every branch turned round."""
    disc = triangulated_disc()
    return Complex(disc.node_labels, [(h, t) for t, h in disc.branches],
                   [tuple((b, -s) for b, s in f) for f in disc.faces])


@settings(deadline=None)
@given(complexes(), WEIGHTS, WEIGHTS)
@example(triangulated_disc(), [], [(1, 2), (-1, 1), (3, 1)])
@example(reversed_disc(), [(1, 1)], [(1, 2), (-1, 1), (3, 1)])
@example(tetrahedron_surface(), [(1, 1)], [(1, 1), (2, 3)])
@example(real_projective_plane(), [(1, 1), (2, 3)], [(1, 1)])
@example(disjoint_union(triangulated_disc(), real_projective_plane()), [], [(1, 1), (0, 1), (2, 1)])
@example(disjoint_union(triangulated_disc(), real_projective_plane()), [(0, 1), (1, 1)], [])
@example(disjoint_union(tetrahedron_surface(), tetrahedron_surface()), [], [(1, 1), (0, 1), (5, 2)])
@example(disjoint_union(tetrahedron_surface(), real_projective_plane()), [(1, 2)], [(2, 1), (3, 1)])
@example(closed_surface(3), [(1, 1)], [(1, 1), (0, 1), (2, 3)])
@example(closed_surface(4), [(0, 1), (2, 3)], [(1, 2), (-1, 1)])
@example(closed_surface(5), [], [(1, 1), (0, 1), (-2, 3)])
@example(closed_surface(3, twist=True), [(1, 1)], [(1, 1), (0, 1), (2, 3)])
@example(closed_surface(4, twist=True), [(2, 1), (1, 1)], [(1, 2), (-1, 1)])
@example(closed_surface(5, twist=True), [], [(1, 1), (0, 1), (-2, 3)])
def test_face_answers_match_the_dense_oracle(cx, cycle_weights, face_weights):
    # a boundary, and in general a cycle that does not bound
    chains = [combination(cx, [], face_weights),
              combination(cx, cycle_weights, face_weights)]
    got = face_answers(cx, chains)
    assert got == dense_face_answers(cx, chains)
    assert got[-1][0] is not None
    # each 2-cycle is a face-sorted primitive {face: int}, lowest face positive
    for z in hn.cycle_basis(cx, 2):
        faces, values = list(z.coeffs), list(z.coeffs.values())
        assert faces == sorted(faces)
        assert all(type(v) is int and v for v in values)
        assert math.gcd(*values) == 1 and values[0] > 0


def removal_order(cx):
    """Each face's place in the collapse: matched and critical faces
    interleaved as they were removed, rebuilt from the pairs and the rule
    that a face is made critical only when no branch is free."""
    pairs, critical = cx.collapse
    return {f: t for t, f in enumerate(replay(cx, pairs, critical))}


def replay(cx, pairs, critical):
    """The faces in removal order: the pairs in order, each critical face
    slotted in where the free branches ran out before it."""
    live = {}
    for edges in cx.faces:
        for b, _ in edges:
            live[b] = live.get(b, 0) + 1
    removed, order = set(), []
    pairs, critical = list(pairs), list(critical)

    def remove(f):
        removed.add(f)
        order.append(f)
        for b, _ in cx.faces[f]:
            live[b] -= 1

    while pairs or critical:
        f, b = pairs[0] if pairs else (None, None)
        if f is not None and live[b] == 1:
            pairs.pop(0)
            remove(f)
        else:
            assert not any(n == 1 for n in live.values()), "a free branch was left unmatched"
            remove(critical.pop(0))
    return order


@settings(deadline=None)
@given(complexes())
@example(tetrahedron_surface())
@example(real_projective_plane())
@example(disjoint_union(triangulated_disc(), real_projective_plane()))
@example(closed_surface(4))
@example(closed_surface(4, twist=True))
def test_collapse_pairs_a_unit_triangular_minor(cx):
    pairs, critical = cx.collapse
    # every face is matched or critical, exactly once
    assert sorted([f for f, _ in pairs] + list(critical)) == list(range(cx.r[2]))
    place = removal_order(cx)
    for f, b in pairs:
        assert b in {c for c, _ in cx.faces[f]}
        # a matched branch lies in no face removed after its own
        assert all(place[g] <= place[f] for g in range(cx.r[2])
                   if b in {c for c, _ in cx.faces[g]})
    # critical faces go lowest live face first
    for f in critical:
        assert all(place[g] < place[f] for g in range(f))


def test_a_face_without_a_free_branch_is_critical():
    assert triangulated_disc().collapse[1] == ()
    assert tetrahedron_surface().collapse[1] == (0,)
    assert real_projective_plane().collapse[1] == (0,)
    # the disc collapses; the projective plane beside it needs its first face
    assert disjoint_union(triangulated_disc(), real_projective_plane()).collapse[1] == (3,)


@pytest.mark.parametrize("twist, betti, torsion", [
    (False, [1, 2, 1], [[], [], []]),
    (True, [1, 1, 0], [[], [2], []]),
], ids=["torus", "klein-bottle"])
def test_a_closed_surface_has_one_critical_face(twist, betti, torsion):
    cx = closed_surface(8, twist)
    assert len(cx.collapse[1]) == 1
    info = hn.summary(cx)
    assert info.betti == betti
    assert info.torsion == torsion
    assert info.euler == cx.r[0] - cx.r[1] + cx.r[2] == 0


def test_a_short_pairing_rank_is_an_internal_mismatch(monkeypatch):
    def short(rows, ncols):
        rows, pivots = echelon(rows, ncols)
        return rows, pivots[:-1]

    echelon = _kernel.echelon
    monkeypatch.setattr(_kernel, "echelon", short)
    with pytest.raises(errors.InternalMismatch):
        hn.homology_generators(triangulated_grid(4, holes=(2, 7)), 1)


def homology_document(cx):
    """A homology document of a complex whose node labels are n{i}_{j}."""
    nodes = []
    for lab in cx.node_labels:
        i, j = lab[1:].split("_")
        nodes.append({"id": lab, "pos": [int(i), int(j)]})
    branches = [
        {"id": lab, "tail": cx.node_labels[t], "head": cx.node_labels[h]}
        for lab, (t, h) in zip(cx.branch_labels, cx.branches)
    ]
    faces = [
        {"id": lab, "edges": [("" if s == 1 else "-") + cx.branch_labels[b] for b, s in edges]}
        for lab, edges in zip(cx.face_labels, cx.faces)
    ]
    doc = {"dimension": 2, "nodes": nodes, "branches": branches, "faces": faces,
           "analyses": ["homology"]}
    return json.dumps(doc)


def every_face_critical(cx):
    """The matching that pairs nothing, the other extreme of any collapse."""
    return (), tuple(range(cx.r[2]))


@pytest.mark.parametrize(
    "seed", [None, 0, 1, 2, 3, "torus", "klein-bottle"],
    ids=lambda s: "disc" if s is None else s if isinstance(s, str) else f"grid{s}",
)
def test_report_bytes_do_not_depend_on_the_collapse(seed, tmp_path, capsysbinary, monkeypatch):
    if seed is None:
        source = FIXTURES / "disc.json"
    else:
        if isinstance(seed, str):
            cx = closed_surface(5, twist=seed == "klein-bottle")
        else:
            rng = random.Random(seed)
            k = 3 + seed
            cx = triangulated_grid(k, rng.sample(range(2 * (k - 1) ** 2), rng.randint(1, k)))
        source = tmp_path / "surface.json"
        source.write_text(homology_document(cx))
    assert documents.parse(source.read_text()).complex.collapse[0]

    def report_all():
        out = []
        for fmt in ("text", "json"):
            assert cli.main(["report-all", "--input", str(source), "--format", fmt]) == 0
            out.append(capsysbinary.readouterr().out)
        return out

    matched = report_all()
    monkeypatch.setattr(Complex, "collapse", property(every_face_critical))
    assert report_all() == matched


def test_homology_at_scale_builds_no_face_echelon(monkeypatch):
    """A grid with holes collapses onto its 1-skeleton: one b1 x m pairing
    echelon answers everything, and no Smith form runs."""
    holes = random.Random(24).sample(range(2 * 23 * 23), 12)
    cx = triangulated_grid(24, holes)
    calls = []

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return echelon(rows, ncols)

    echelon = _kernel.echelon
    monkeypatch.setattr(_kernel, "echelon", counted)
    monkeypatch.setattr(exact, "smith_normal_form", None)
    info = hn.summary(cx)
    assert cx.collapse[1] == ()
    assert info.betti == [1, 12, 0]
    assert len(info.generators[1]) == 12
    assert calls == [(12, len(cx.forest.chords))]
