import pytest
from hypothesis import assume, given, settings, strategies as st

import homnet as hn
from homnet import errors
from homnet.chains import cone_chain
from homnet.complexes import spanning_chords
from conftest import complexes, random_chain, random_complex


# -- build_complex ------------------------------------------------------------

def test_circle_incidence_matrix(circle):
    assert circle.incidence_1 == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    assert circle.incidence_2 == []
    assert circle.r == (3, 3, 0)


def test_disc_incidence_matrices(disc):
    assert disc.r == (4, 6, 3)
    # r1 x r0 boundary entries: branch rows AB, AC, AD, BC, BD, CD
    assert disc.incidence_1 == [
        [-1, 1, 0, 0],
        [-1, 0, 1, 0],
        [-1, 0, 0, 1],
        [0, -1, 1, 0],
        [0, -1, 0, 1],
        [0, 0, -1, 1],
    ]
    # r2 x r1 rows for faces ABD, BCD, ADC
    assert disc.incidence_2 == [
        [1, 0, -1, 0, 1, 0],
        [0, 0, 0, 1, -1, 1],
        [0, -1, 1, 0, 0, -1],
    ]


def test_single_node_complex():
    cx = hn.build_complex(["A"], [])
    assert cx.r == (1, 0, 0)
    assert cx.incidence_1 == []


def test_duplicate_label_rejected():
    with pytest.raises(errors.DuplicateLabel):
        hn.build_complex(["A", "A"], [])


def test_duplicate_face_label_rejected():
    with pytest.raises(errors.DuplicateLabel):
        hn.build_complex(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")],
                         faces=[("A", "B", "C"), ("A", "B", "C")])
    with pytest.raises(errors.DuplicateLabel):
        hn.Complex(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)],
                   [((0, 1), (1, 1), (2, -1))] * 2, face_labels=["f", "f"])


def test_self_loop_rejected():
    with pytest.raises(errors.SelfLoopBranch):
        hn.build_complex(["A", "B"], [("A", "A")])


def test_unknown_label_rejected():
    with pytest.raises(errors.UnknownLabel):
        hn.build_complex(["A", "B"], [("A", "Z")])


def test_non_closing_face_rejected():
    with pytest.raises(errors.NonClosingFace):
        hn.build_complex(
            ["A", "B", "C", "D"],
            [("A", "B"), ("B", "C"), ("C", "D")],
            faces=[("A", "B", "D")],
        )


# -- boundary operator --------------------------------------------------------

def test_boundary_of_circle_cycle(circle):
    c = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    assert hn.boundary(c).is_zero(0)


def test_boundary_of_disc_cover_is_rim(disc):
    cover = hn.Chain(disc, 2, {0: 1, 1: 1, 2: 1}, hn.INTEGER)
    rim = hn.boundary(cover)
    # internal links AD, BD, CD cancel in pairs; only the rim survives
    assert dict(rim.coeffs) == {0: 1, 3: 1, 1: -1}  # AB + BC - AC


def test_boundary_of_boundary_vanishes(disc, rng):
    for _ in range(50):
        c2 = random_chain(rng, disc, 2)
        assert hn.boundary(hn.boundary(c2)).is_zero(0)


def test_boundary_of_boundary_on_random_complexes(rng):
    for _ in range(100):
        cx = random_complex(rng)
        if cx.r[2] == 0:
            continue
        c2 = random_chain(rng, cx, 2)
        assert hn.boundary(hn.boundary(c2)).is_zero(0)


def test_boundary_is_linear(disc, rng):
    for _ in range(25):
        c = random_chain(rng, disc, 1)
        d = random_chain(rng, disc, 1)
        lhs = hn.boundary(c.scaled(3) + d.scaled(-2))
        rhs = hn.boundary(c).scaled(3) + hn.boundary(d).scaled(-2)
        assert lhs == rhs


def test_boundary_requires_positive_dimension(circle):
    c = hn.Chain(circle, 0, {0: 1}, hn.INTEGER)
    with pytest.raises(errors.DimensionMismatch):
        hn.boundary(c)


def test_module_mismatch_raises(circle):
    a = hn.Chain(circle, 1, {0: 1}, hn.INTEGER)
    b = hn.Chain(circle, 1, {0: 1.0}, hn.REAL64)
    with pytest.raises(errors.ModuleMismatch):
        a + b


# -- augmented boundary -------------------------------------------------------

def test_augmented_boundary_sums_coefficients(circle):
    c = hn.Chain(circle, 0, {0: 2, 1: 3}, hn.INTEGER)
    assert hn.augmented_boundary(c) == 5


def test_augmented_boundary_kills_boundaries(circle, rng):
    for _ in range(50):
        c1 = random_chain(rng, circle, 1)
        assert hn.augmented_boundary(hn.boundary(c1)) == 0


def test_augmented_zero_cycle(circle):
    c = hn.Chain(circle, 0, {0: 1, 1: -1}, hn.INTEGER)
    assert hn.augmented_boundary(c) == 0


# -- cone ---------------------------------------------------------------------

def test_cone_of_circle(circle):
    result = hn.cone(circle, "O")
    assert result.complex.r == (4, 6, 0)
    # each new branch runs node -> apex with boundary apex - node
    for i, a in enumerate(result.star):
        assert result.complex.branches[a] == (i, result.apex)


def test_cone_of_single_node():
    cx = hn.build_complex(["A"], [])
    result = hn.cone(cx, "O")
    assert result.complex.r == (2, 1, 0)
    assert result.complex.branches[0] == (0, 1)


def test_cone_twice_counts(circle):
    r0, r1, _ = circle.r
    once = hn.cone(circle, "O1")
    twice = hn.cone(once.complex, "O2")
    assert twice.complex.r[1] == r1 + 2 * r0 + 1


def test_cone_preserves_original_incidence(disc):
    result = hn.cone(disc, "O")
    old = disc.incidence_1
    new = result.complex.incidence_1
    for a in range(disc.r[1]):
        assert new[a][: disc.r[0]] == old[a]


def test_cone_duplicate_apex_rejected(circle):
    with pytest.raises(errors.DuplicateLabel):
        hn.cone(circle, "A")


def test_cone_chain_boundary(circle):
    # the apex label is taken, so the apex is primed; the boundary is the
    # chain's boundary less the star values, and their sum at the apex
    chain = hn.Chain(circle, 1, {0: 2, 1: -1}, hn.INTEGER)
    star = {0: 3, 2: 5}
    ext, extended = cone_chain(chain, star, "A")
    assert ext.complex.node_labels[ext.apex] == "A'"
    b = hn.boundary(extended)
    old = hn.boundary(chain)
    for i in range(circle.r[0]):
        assert b[i] == old[i] - star.get(i, 0)
    assert b[ext.apex] == 8


# -- paths and components -----------------------------------------------------

def test_classify_open_path(circle):
    c = hn.Chain(circle, 1, {0: 1, 2: 1}, hn.INTEGER)  # AB + BC
    result = hn.classify_path(c)
    assert (result.kind, result.start, result.end) == ("path", 0, 2)


def test_classify_loop(circle):
    c = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)  # AB + BC - AC
    assert hn.classify_path(c).kind == "loop"


def test_classify_disconnected_edges():
    cx = hn.build_complex(
        ["A", "B", "C", "D"], [("A", "B"), ("C", "D")]
    )
    c = hn.Chain(cx, 1, {0: 1, 1: 1}, hn.INTEGER)
    assert hn.classify_path(c).kind == "not_a_path"


def test_classify_empty_chain_raises(circle):
    with pytest.raises(errors.EmptyChain):
        hn.classify_path(hn.Chain.zero(circle, 1, hn.INTEGER))


def test_multi_loop_cycle_is_not_a_loop():
    cx = hn.build_complex(
        ["A", "B", "C", "D", "E"],
        [("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "E"), ("E", "C")],
    )
    two_loops = hn.Chain(cx, 1, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, hn.INTEGER)
    assert hn.boundary(two_loops).is_zero(0)
    assert hn.classify_path(two_loops).kind == "not_a_path"


def test_path_components(circle):
    assert hn.path_components(circle) == [[0, 1, 2]]


def test_path_components_disjoint():
    cx = hn.build_complex(
        ["A", "B", "C", "X", "Y", "Z"],
        [("A", "B"), ("B", "C"), ("C", "A"), ("X", "Y"), ("Y", "Z"), ("Z", "X")],
    )
    assert hn.path_components(cx) == [[0, 1, 2], [3, 4, 5]]


def test_path_components_isolated_nodes():
    cx = hn.build_complex(["A", "B", "C"], [])
    assert hn.path_components(cx) == [[0], [1], [2]]


@settings(deadline=None)
@given(complexes())
def test_component_count_matches_rank_identity(cx):
    from homnet import exact

    comps = hn.path_components(cx)
    assert sorted(i for comp in comps for i in comp) == list(range(cx.r[0]))
    assert all(comp == sorted(comp) for comp in comps)
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    where = {i: k for k, comp in enumerate(comps) for i in comp}
    assert all(where[tail] == where[head] for tail, head in cx.branches)
    b0 = len(comps)
    assert b0 == cx.r[0] - exact.rank(cx.incidence_1) == hn.betti_numbers(cx)[0]


def relabelling_chords(node_count, branches):
    """The reference for ``spanning_chords``: each node carries the label of
    its component, and a branch joining two labels relabels the first
    component with the second; a branch whose ends already share a label
    is a chord."""
    label = list(range(node_count))
    chords = []
    for a, (tail, head) in branches:
        if label[tail] == label[head]:
            chords.append(a)
        else:
            old, new = label[tail], label[head]
            label = [new if x == old else x for x in label]
    return chords


@given(st.data())
def test_spanning_chords_match_a_component_relabelling(data):
    # a multigraph on few nodes, so parallel and antiparallel branches
    # recur and some nodes stay isolated; its branches come in a shuffled
    # index order with gaps, as the collapse's unmatched branches do
    r0 = data.draw(st.integers(1, 8))
    ends = st.tuples(st.integers(0, r0 - 1), st.integers(0, r0 - 1))
    pairs = data.draw(st.lists(ends.filter(lambda p: p[0] != p[1]), max_size=3 * r0))
    indices = data.draw(st.lists(
        st.integers(0, 4 * len(pairs)), min_size=len(pairs), max_size=len(pairs),
        unique=True,
    ))
    branches = list(zip(indices, pairs))
    assert spanning_chords(r0, iter(branches)) == relabelling_chords(r0, branches)


@settings(deadline=None)
@given(complexes(), st.data())
def test_boundary_of_boundary_vanishes(cx, data):
    # every accepted face has zero boundary of boundary, and a signed branch
    # triple is rejected as a face exactly when its boundary of boundary,
    # taken through the dense incidence matrices, is nonzero
    def dd(row):
        return [
            sum(row[a] * cx.incidence_1[a][i] for a in range(cx.r[1]))
            for i in range(cx.r[0])
        ]

    for row in cx.incidence_2:
        assert not any(dd(row))
    for f in range(cx.r[2]):
        face = hn.Chain(cx, 2, {f: 1}, hn.INTEGER)
        assert hn.boundary(hn.boundary(face)).is_zero(0)

    assume(cx.r[1] > 0)
    signed = st.tuples(st.integers(0, cx.r[1] - 1), st.sampled_from((-1, 1)))
    edges = data.draw(st.lists(signed, min_size=3, max_size=3))
    row = [0] * cx.r[1]
    for b, s in edges:
        row[b] += s
    try:
        hn.Complex(cx.node_labels, cx.branches, [edges], cx.branch_labels)
    except errors.NonClosingFace:
        assert any(dd(row))
    else:
        assert not any(dd(row))


# -- chain maps ---------------------------------------------------------------

def test_identity_chain_map(circle):
    spec = hn.ChainMapSpec(
        vertex_map=[0, 1, 2], edge_map=[(0, 1), (1, 1), (2, 1)]
    )
    assert hn.verify_chain_map(spec, circle, circle).ok
    c = hn.Chain(circle, 1, {0: 2, 1: -1}, hn.INTEGER)
    assert hn.apply_chain_map(spec, c, circle, circle) == c


def test_collapse_edge_chain_map(circle):
    target = hn.build_complex(["X", "C"], [("X", "C")])
    spec = hn.ChainMapSpec(
        vertex_map=[0, 0, 1],
        edge_map=[hn.COLLAPSED, (0, 1), (0, 1)],
    )
    assert hn.verify_chain_map(spec, circle, target).ok
    image = hn.apply_chain_map(
        spec, hn.Chain(circle, 1, {0: 1}, hn.INTEGER), circle, target
    )
    assert image.is_zero(0)


def test_inconsistent_chain_map_detected(circle):
    target = hn.build_complex(["P", "Q", "R"], [("P", "Q"), ("R", "Q")])
    spec = hn.ChainMapSpec(
        vertex_map=[0, 1, 1],
        edge_map=[(1, 1), (0, 1), hn.COLLAPSED],  # edge 0 maps to RQ: endpoints lie
    )
    check = hn.verify_chain_map(spec, circle, target)
    assert not check.ok
    assert check.violation == 0


def test_apply_unverified_spec_raises(circle):
    target = hn.build_complex(["P", "Q"], [("P", "Q")])
    spec = hn.ChainMapSpec(vertex_map=[0, 1, 1], edge_map=[(0, -1), (0, 1), hn.COLLAPSED])
    with pytest.raises(errors.UnverifiedSpec):
        hn.apply_chain_map(
            spec, hn.Chain(circle, 1, {0: 1}, hn.INTEGER), circle, target
        )


def test_chain_map_commutes_with_boundary(circle, rng):
    # deformed copy of the circle: same combinatorics, relabeled
    target = hn.build_complex(["P", "Q", "R"], [("P", "Q"), ("P", "R"), ("Q", "R")])
    spec = hn.ChainMapSpec(
        vertex_map=[0, 1, 2], edge_map=[(0, 1), (1, 1), (2, 1)]
    )
    assert hn.verify_chain_map(spec, circle, target).ok
    for _ in range(1000):
        c = random_chain(rng, circle, 1)
        lhs = hn.boundary(hn.apply_chain_map(spec, c, circle, target))
        rhs = hn.apply_chain_map(spec, hn.boundary(c), circle, target)
        assert lhs == rhs


def test_deformation_bijection_carries_loop_to_loop(circle):
    target = hn.build_complex(["P", "Q", "R"], [("P", "Q"), ("P", "R"), ("Q", "R")])
    spec = hn.ChainMapSpec(
        vertex_map=[0, 1, 2], edge_map=[(0, 1), (1, 1), (2, 1)]
    )
    loop = hn.Chain(circle, 1, {0: 1, 2: 1, 1: -1}, hn.INTEGER)
    image = hn.apply_chain_map(spec, loop, circle, target)
    assert dict(image.coeffs) == {0: 1, 1: -1, 2: 1}
    assert hn.classify_path(image).kind == "loop"
