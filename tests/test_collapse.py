"""The collapse of faces onto free branches (``Complex.collapse``) and the
answers homology reads from it: the same Betti numbers, torsion, generators,
2-cycles, boundary witnesses and report bytes as the face echelon, which
stays the path of every complex with an unmatched face."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import homnet as hn
from homnet import _kernel, cli, documents, errors
from homnet.complexes import Complex
from conftest import (
    complexes,
    disjoint_union,
    face_answers,
    fresh_copy,
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
def test_collapse_answers_match_the_face_echelon(cx, cycle_weights, face_weights):
    # a boundary, and in general a cycle that does not bound
    chains = [combination(cx, [], face_weights),
              combination(cx, cycle_weights, face_weights)]
    got = face_answers(cx, chains)
    if cx.collapse is not None:
        assert "face_echelon" not in cx.__dict__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Complex, "collapse", None)
        want = face_answers(fresh_copy(cx), chains)
    assert got == want
    assert got[-1][0] is not None


@settings(deadline=None)
@given(complexes())
def test_collapse_pairs_a_unit_triangular_minor(cx):
    pairs = cx.collapse
    if pairs is None:
        return
    assert sorted(f for f, _ in pairs) == list(range(cx.r[2]))
    for i, (f, b) in enumerate(pairs):
        assert b in {c for c, _ in cx.faces[f]}
        assert all(b not in {c for c, _ in cx.faces[g]} for g, _ in pairs[i + 1:])


def test_a_face_without_a_free_branch_falls_back():
    assert triangulated_disc().collapse is not None
    assert tetrahedron_surface().collapse is None
    assert real_projective_plane().collapse is None
    # the disc collapses, the projective plane beside it does not
    assert disjoint_union(triangulated_disc(), real_projective_plane()).collapse is None


def test_a_short_pairing_rank_is_an_internal_mismatch(monkeypatch):
    def short(rows, ncols):
        rows, pivots = echelon(rows, ncols)
        return rows, pivots[:-1]

    echelon = _kernel.echelon
    monkeypatch.setattr(_kernel, "echelon", short)
    with pytest.raises(errors.InternalMismatch):
        hn.homology_generators(triangulated_grid(4, holes=(2, 7)), 1)


def grid_document(k, holes):
    """A homology document of the triangulated k x k grid with holes."""
    cx = triangulated_grid(k, holes)
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


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda s: "disc" if s is None else f"grid{s}")
def test_report_bytes_do_not_depend_on_the_collapse(seed, tmp_path, capsysbinary, monkeypatch):
    if seed is None:
        source = FIXTURES / "disc.json"
    else:
        rng = random.Random(seed)
        k = 3 + seed
        holes = rng.sample(range(2 * (k - 1) ** 2), rng.randint(1, k))
        source = tmp_path / "grid.json"
        source.write_text(grid_document(k, holes))
    assert documents.parse(source.read_text()).complex.collapse is not None

    def report_all():
        out = []
        for fmt in ("text", "json"):
            assert cli.main(["report-all", "--input", str(source), "--format", fmt]) == 0
            out.append(capsysbinary.readouterr().out)
        return out

    matched = report_all()
    monkeypatch.setattr(Complex, "collapse", None)
    assert report_all() == matched


def test_homology_at_scale_builds_no_face_echelon():
    holes = random.Random(24).sample(range(2 * 23 * 23), 12)
    cx = triangulated_grid(24, holes)
    info = hn.summary(cx)
    assert info.betti == [1, 12, 0]
    assert len(info.generators[1]) == 12
    assert "face_echelon" not in cx.__dict__
