import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from homnet import cli, complexes as cxs, documents
from homnet.errors import (
    CoincidentNodes,
    DocumentSyntaxError,
    MissingData,
    ValidationError,
)
from conftest import complexes, load_perfbench

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def doc_text(**overrides):
    base = {
        "dimension": 2,
        "nodes": [
            {"id": "A", "pos": [0, 0]},
            {"id": "B", "pos": [1, 0]},
            {"id": "C", "pos": [0, 1]},
        ],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B"},
            {"id": "AC", "tail": "A", "head": "C"},
            {"id": "BC", "tail": "B", "head": "C"},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_circle_fixture():
    doc = documents.parse((FIXTURES / "circle.json").read_text())
    assert doc.complex.r == (3, 3, 0)
    assert doc.complex.node_labels == ["A", "B", "C"]
    assert doc.node_attr("voltage")["A"] == Fraction(5)
    assert [a.command for a in doc.analyses] == ["homology", "kcl", "kvl"]


def test_parse_disc_fixture_faces():
    doc = documents.parse((FIXTURES / "disc.json").read_text())
    assert doc.complex.r == (4, 6, 3)


def test_syntax_error_carries_line():
    with pytest.raises(DocumentSyntaxError) as err:
        documents.parse('{\n  "dimension": 2,\n  oops\n}')
    assert err.value.line == 3


def test_unknown_branch_endpoint():
    with pytest.raises(ValidationError) as err:
        documents.parse(
            doc_text(branches=[{"id": "AZ", "tail": "A", "head": "Z"}])
        )
    assert "branches[0].head" in str(err.value)


def test_mismatched_sample_lengths():
    text = doc_text(
        signal={"dt": 0.1, "samples": 5},
        nodes=[
            {"id": "A", "pos": [0, 0], "charge": [1, 2, 3]},
            {"id": "B", "pos": [1, 0]},
            {"id": "C", "pos": [0, 1]},
        ],
    )
    with pytest.raises(ValidationError) as err:
        documents.parse(text)
    assert "3" in str(err.value) and "5" in str(err.value)


def test_series_requires_signal_block():
    with pytest.raises(ValidationError):
        documents.parse(
            doc_text(
                nodes=[
                    {"id": "A", "pos": [0, 0], "charge": [1, 2, 3]},
                    {"id": "B", "pos": [1, 0]},
                    {"id": "C", "pos": [0, 1]},
                ]
            )
        )


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        documents.parse(
            doc_text(
                nodes=[
                    {"id": "A", "pos": [0, 0]},
                    {"id": "A", "pos": [1, 0]},
                    {"id": "C", "pos": [0, 1]},
                ]
            )
        )


def test_duplicate_face_ids_rejected():
    # under a shared label one face's coefficient would overwrite the other's
    doc = json.loads((FIXTURES / "disc.json").read_text())
    doc["faces"].append(dict(doc["faces"][0]))
    with pytest.raises(ValidationError) as err:
        documents.parse(json.dumps(doc))
    assert err.value.path == "faces[3].id"
    assert "duplicate face id 'ABD'" in str(err.value)


def test_self_loop_branch_rejected():
    with pytest.raises(ValidationError):
        documents.parse(doc_text(branches=[{"id": "AA", "tail": "A", "head": "A"}]))


def test_rational_strings_stay_exact():
    doc = documents.parse(
        doc_text(
            nodes=[
                {"id": "A", "pos": [0, 0], "mass": "1/3"},
                {"id": "B", "pos": [1, 0]},
                {"id": "C", "pos": [0, 1]},
            ]
        )
    )
    assert doc.node_attr("mass")["A"] == Fraction(1, 3)


def test_sampled_scalars_are_float_signals():
    # a sampled scalar is a real signal: "p/q" samples parse to floats
    doc = documents.parse(
        doc_text(
            signal={"dt": 0.5, "samples": 3},
            nodes=[
                {"id": "A", "pos": [0, 0], "mass": ["1/3", "1/3", "1/3"]},
                {"id": "B", "pos": [1, 0], "mass": [1, 2, 3]},
                {"id": "C", "pos": [0, 1]},
            ],
        )
    )
    masses = doc.node_attr("mass")
    for value, want in ((masses["A"], [1 / 3] * 3), (masses["B"], [1.0, 2.0, 3.0])):
        assert isinstance(value, np.ndarray) and value.dtype == float
        assert value.tolist() == want
        assert not value.flags.writeable


def test_position_trajectories():
    doc = documents.parse(
        doc_text(
            signal={"dt": 0.5, "samples": 3},
            nodes=[
                {"id": "A", "pos": [[0, 0], [1, 0], [2, 0]],
                 "force": [[1, 2], [3, 4], ["1/4", 6]]},
                {"id": "B", "pos": [5, 5], "force": [0, -1]},
                {"id": "C", "pos": [0, 1]},
            ],
        )
    )
    traj = doc.trajectories()
    assert traj[0].shape == (3, 2)
    assert np.allclose(traj[1], [[5, 5]] * 3)
    assert doc.static_positions()["A"] == (0, 0)
    forces = doc.node_series("force")
    assert forces.keys() == {0, 1}
    assert forces[0].tolist() == [[1, 2], [3, 4], [0.25, 6]]
    assert forces[1].tolist() == [[0, -1]] * 3
    # converted once: every call shares the same read-only arrays
    for series in (doc.trajectories(), doc.node_series("force")):
        for i, arr in series.items():
            assert not arr.flags.writeable
    assert doc.node_series("force")[0] is forces[0]
    assert doc.trajectories()[0] is traj[0]


def track_text(pos=None, force=None, mass=1.0):
    """A one-node trajectory document of six samples, floats by default."""
    samples = 6
    default = [[0.5 * a, 1.0 - 0.25 * a] for a in range(samples)]
    return json.dumps({
        "dimension": 2,
        "signal": {"dt": 0.1, "samples": samples},
        "nodes": [{"id": "A", "pos": pos or default, "force": force or default,
                   "mass": mass}],
        "branches": [],
    })


@pytest.mark.parametrize("field", ["pos", "force"])
@pytest.mark.parametrize(
    "row, message",
    [
        ([True, 0.0], "booleans are not quantities"),
        ([float("nan"), 0.0], "not a finite number"),
        ([0.0, float("-inf")], "not a finite number"),
        (["x", 0.0], "not a number or fraction"),
        ([10**400, 0.0], "too large for a float"),
        ([0.0], "expected a list of 2 numbers"),
        ([0.0, 1.0, 2.0], "expected a list of 2 numbers"),
        (0.5, "expected a list of 2 numbers"),
    ],
    ids=["bool", "nan", "-inf", "str", "10**400", "short", "long", "scalar"],
)
def test_bad_sample_in_a_float_sample_list_is_named(field, row, message):
    samples = [[0.5 * a, 1.0 - 0.25 * a] for a in range(6)]
    samples[3] = row
    with pytest.raises(ValidationError) as err:
        documents.parse(track_text(**{field: samples}))
    assert str(err.value).startswith(f"nodes[0].{field}[3]: {message}")


@pytest.mark.parametrize(
    "value, message",
    [(True, "booleans are not quantities"), (float("nan"), "not a finite number"),
     ("x", "not a number or fraction"), (10**400, "too large for a float")],
    ids=["bool", "nan", "str", "10**400"],
)
def test_bad_sample_in_a_float_scalar_series_is_named(value, message):
    masses = [1.0] * 6
    masses[3] = value
    with pytest.raises(ValidationError) as err:
        documents.parse(track_text(mass=masses))
    assert str(err.value).startswith(f"nodes[0].mass[3]: {message}")


def test_exact_samples_keep_exact_static_positions():
    pos = [[1, "1/3"], [0.5, 0.0], [0.5, 0.0], [1, 1], [1, 1], [2, 2]]
    doc = documents.parse(track_text(pos=pos))
    first = doc.static_positions()["A"]
    assert first == (1, Fraction(1, 3))
    assert [type(c) for c in first] == [int, Fraction]
    assert doc.trajectories()[0].tolist()[0] == [1.0, 1 / 3]


def test_float_samples_parse_into_one_shared_read_only_array():
    doc = documents.parse(track_text())
    pos = doc.nodes[0]["pos"]
    assert isinstance(pos, np.ndarray) and pos.dtype == float and pos.shape == (6, 2)
    assert not pos.flags.writeable
    assert doc.static_positions()["A"] == (0.0, 1.0)
    assert [type(c) for c in doc.static_positions()["A"]] == [float, float]
    # node_series shares the parsed array itself, converting nothing again
    assert doc.trajectories()[0] is pos
    assert doc.node_series("force")[0] is doc.nodes[0]["force"]
    with pytest.raises(ValueError):
        doc.trajectories()[0][0, 0] = 1.0
    masses = documents.parse(track_text(mass=[2.0] * 6)).node_attr("mass")["A"]
    assert masses.tolist() == [2.0] * 6 and not masses.flags.writeable


def test_unknown_analysis_command():
    with pytest.raises(ValidationError):
        documents.parse(doc_text(analyses=[{"command": "frobnicate"}]))


def test_bad_face_reference():
    with pytest.raises(ValidationError):
        documents.parse(
            doc_text(faces=[{"id": "F", "edges": ["AB", "BC", "-ZZ"]}])
        )


def test_non_closing_face_rejected():
    with pytest.raises(ValidationError):
        documents.parse(
            doc_text(faces=[{"id": "F", "edges": ["AB", "BC", "AC"]}])
        )


def test_fixture_corpus_parses():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = documents.parse(path.read_text())
        assert doc.complex.r[0] >= 1


@pytest.mark.parametrize(
    "value", [10**400, -(2**1024), "1e400", "-1e400"],
    ids=["10**400", "-2**1024", "1e400", "-1e400"],
)
def test_parse_scalar_rejects_exact_numbers_beyond_float_range(value):
    with pytest.raises(ValidationError, match="too large for a float"):
        documents.parse_scalar(value, "x")


@pytest.mark.parametrize(
    "value", [2**1023, -(2**1023), "1e-400", "-17/3"],
    ids=["2**1023", "-2**1023", "1e-400", "-17/3"],
)
def test_parse_scalar_keeps_exact_numbers_within_float_range(value):
    assert documents.parse_scalar(value, "x") == (
        value if isinstance(value, int) else Fraction(value)
    )


@pytest.mark.parametrize(
    "name, value",
    [
        ("tolerance", "1e-9"), ("tolerance", -1e-9), ("tolerance", True),
        ("t0", "x"), ("t0", 2.5), ("t1", False), ("origin", 3),
    ],
)
def test_analysis_options_of_another_type_are_rejected(name, value):
    text = doc_text(analyses=[{"command": "momentum", "t0": 0, "t1": 3, name: value}])
    with pytest.raises(ValidationError) as err:
        documents.parse(text)
    assert err.value.path == f"analyses[0].{name}"


def test_non_finite_tolerance_is_rejected():
    # json.dumps writes Infinity and NaN, which the parser reads back
    for value in (float("inf"), float("nan")):
        text = doc_text(analyses=[{"command": "kcl", "tolerance": value}])
        with pytest.raises(ValidationError, match=r"analyses\[0\]\.tolerance"):
            documents.parse(text)


def test_analysis_options_of_their_type_are_kept():
    options = {"tolerance": 0, "t0": 0, "t1": 3, "origin": "A", "note": [1]}
    doc = documents.parse(doc_text(analyses=[{"command": "momentum", **options}]))
    assert doc.analyses[0].options == options


BOUNDARY_VALUES = {
    "2**1023-1": 2**1023 - 1, "2**1023": 2**1023, "int(float-max)": int(sys.float_info.max),
    "2**1024": 2**1024, "true": True, "1.5": 1.5, "'1/3'": "1/3", "'x'": "x",
}


@pytest.mark.parametrize("attr", ["pos", "force"])
@pytest.mark.parametrize("value", BOUNDARY_VALUES.values(), ids=BOUNDARY_VALUES.keys())
def test_fixed_list_parse_equals_per_entry_parse_scalar(attr, value):
    """A coordinate list of plain ints within +-2**1023 is taken in one
    scan; around that bound and for every other entry the parsed tuple, or
    the error's path and message, are what parse_scalar gives per entry."""
    path = f"nodes[0].{attr}"
    try:
        want = [(type(x), x) for x in (documents.parse_scalar(v, path) for v in (value, 0))]
    except ValidationError as exc:
        want = (exc.path, str(exc))
    node = {"id": "A", "pos": [0, 0], attr: [value, 0]}
    text = doc_text(nodes=[node, {"id": "B", "pos": [1, 0]}, {"id": "C", "pos": [0, 1]}])
    try:
        got = [(type(x), x) for x in documents.parse(text).nodes[0][attr]]
    except ValidationError as exc:
        got = (exc.path, str(exc))
    assert got == want


NODES = [{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [1, 0]}, {"id": "C", "pos": [0, 1]}]
FACE = {"id": "F", "edges": ["AB", "BC", "-AC"]}


@pytest.mark.parametrize(
    "overrides, path, message",
    [
        (dict(nodes=NODES + [{"id": "B", "pos": [1, 1]}]),
         "nodes[3].id", "duplicate node id 'B'"),
        (dict(branches=[{"id": "AB", "tail": "A", "head": "B"},
                        {"id": "AB", "tail": "B", "head": "C"}]),
         "branches[1].id", "duplicate branch id 'AB'"),
        (dict(faces=[FACE, dict(FACE)]), "faces[1].id", "duplicate face id 'F'"),
        (dict(branches=[{"id": "AB", "head": "B"}]),
         "branches[0].tail", "tail and head are required"),
        (dict(branches=[{"id": "AB", "tail": "A"}]),
         "branches[0].head", "tail and head are required"),
        (dict(branches=[{"id": "AZ", "tail": "Z", "head": "A"}]),
         "branches[0].tail", "unknown node 'Z'"),
        (dict(branches=[{"id": "AZ", "tail": "A", "head": "Z"}]),
         "branches[0].head", "unknown node 'Z'"),
        (dict(branches=[{"id": "AA", "tail": "A", "head": "A"}]),
         "branches[0]", "tail and head must differ"),
        (dict(faces=[{"id": "F", "edges": ["AB", "BC", "ZZ"]}]),
         "faces[0].edges", "unknown branch 'ZZ'"),
        (dict(faces=[{"id": "F", "edges": ["AB", "BC", "-ZZ"]}]),
         "faces[0].edges", "unknown branch 'ZZ'"),
        (dict(faces=[{"id": "F", "edges": ["+ZZ", "BC", "-AC"]}]),
         "faces[0].edges", "unknown branch 'ZZ'"),
        (dict(faces=[{"id": "F", "edges": ["AB", "BC"]}]),
         "faces[0].edges", "exactly three signed branch ids"),
        (dict(faces=[{"id": "F", "edges": ["AB", "BC", "AC"]}]),
         "$", "face ((0, 1), (2, 1), (1, 1)) does not close"),
        (dict(analyses=["kcl", {"command": "frobnicate"}]),
         "analyses[1].command", "unknown command 'frobnicate'"),
        (dict(analyses=["kcl", {"command": "kvl", "tolerance": 2**1100}]),
         "analyses[1].tolerance", "too large for a float: about 2**1100"),
    ],
    ids=["dup-node", "dup-branch", "dup-face", "no-tail", "no-head", "unknown-tail",
         "unknown-head", "self-loop", "unknown-face-branch", "unknown-face-branch-minus",
         "unknown-face-branch-plus", "two-edge-face", "non-closing-face",
         "unknown-command", "tolerance-past-float-range"],
)
def test_each_single_fault_document_names_its_path(tmp_path, capsys, overrides, path,
                                                   message):
    text = doc_text(**overrides)
    with pytest.raises(ValidationError) as err:
        documents.parse(text)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
    source = tmp_path / "bad.json"
    source.write_text(text)
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_a_two_fault_document_names_the_fault_checked_first():
    # faces are shaped before the analyses are read, and their branch
    # references resolved after: the unknown branch of faces[0] loses to
    # the unknown command, which loses to the bad shape of faces[1]
    faces = [{"id": "F", "edges": ["AB", "BC", "ZZ"]}, {"id": "G", "edges": []}]
    analyses = [{"command": "frobnicate"}]
    with pytest.raises(ValidationError) as err:
        documents.parse(doc_text(faces=faces[:1], analyses=analyses))
    assert err.value.path == "analyses[0].command"
    with pytest.raises(ValidationError) as err:
        documents.parse(doc_text(faces=faces, analyses=analyses))
    assert err.value.path == "faces[1].edges"


@pytest.mark.parametrize("dimension", [True, False, 0, -1, 1.0, "1", None])
def test_dimension_must_be_a_positive_integer(dimension):
    # the positions are one-dimensional, so only the dimension is at fault
    nodes = [{"id": "A", "pos": [0]}, {"id": "B", "pos": [1]}, {"id": "C", "pos": [3]}]
    with pytest.raises(ValidationError) as err:
        documents.parse(doc_text(dimension=dimension, nodes=nodes))
    assert str(err.value) == "dimension: a positive integer dimension is required"
    assert documents.parse(doc_text(dimension=1, nodes=nodes)).dimension == 1


def test_geometric_complex_is_realized_once_and_a_failure_every_time():
    doc = documents.parse(doc_text())
    g = doc.geometric_complex()
    assert doc.geometric_complex() is g
    assert g.positions == [(0, 0), (1, 0), (0, 1)]
    for nodes, error in (
        ([{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [0, 0]}, {"id": "C"}],
         MissingData),
        ([{"id": "A", "pos": [0, 0]}, {"id": "B", "pos": [0, 0]},
          {"id": "C", "pos": [0, 1]}], CoincidentNodes),
    ):
        doc = documents.parse(doc_text(nodes=nodes))
        for _ in range(2):
            with pytest.raises(error):
                doc.geometric_complex()


# -- the parsed complex -------------------------------------------------------

def validated_complex(text):
    """The complex of a valid document built by the constructor's own
    checks: ids resolved by list search, no index maps passed."""
    raw = json.loads(text)
    nodes = [str(n["id"]) for n in raw["nodes"]]
    branches = [str(b["id"]) for b in raw["branches"]]
    ends = [(nodes.index(str(b["tail"])), nodes.index(str(b["head"])))
            for b in raw["branches"]]
    faces = []
    for face in raw.get("faces", []):
        edges = []
        for ref in map(str, face["edges"]):
            sign = -1 if ref.startswith("-") else 1
            edges.append((branches.index(ref[1:] if ref[:1] in "+-" else ref), sign))
        faces.append(edges)
    face_ids = [str(f["id"]) for f in raw.get("faces", [])]
    return cxs.Complex(nodes, ends, faces, branches, face_ids)


def document_of(cx):
    """A document whose complex is CX, every id its label."""
    labels = cx.node_labels
    return json.dumps({
        "dimension": 2,
        "nodes": [{"id": n} for n in labels],
        "branches": [{"id": b, "tail": labels[t], "head": labels[h]}
                     for b, (t, h) in zip(cx.branch_labels, cx.branches)],
        "faces": [{"id": f, "edges": [("-" if s < 0 else "") + cx.branch_labels[b]
                                      for b, s in edges]}
                  for f, edges in zip(cx.face_labels, cx.faces)],
    })


def assert_same_complex(got, want):
    for name in ("node_labels", "branch_labels", "face_labels", "_node_index",
                 "_branch_index", "branches", "faces", "r", "dim"):
        assert getattr(got, name) == getattr(want, name), name
    assert all(type(edges) is tuple for edges in got.faces)


def corpus_texts():
    workloads = load_perfbench("workloads")
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.json"))]
    for workload in ("grid-statics", "grid-homology", "trajectory"):
        texts += [case.text for case in workloads.corpus(workload, random.Random(3))]
    return texts


def test_parse_builds_each_complex_once_from_its_index_maps(monkeypatch):
    """Every fixture and generated benchmark document parses into the
    complex the fully checked constructor builds, entering the constructor
    once, with the parser's index maps."""
    texts = corpus_texts()
    want = [validated_complex(text) for text in texts]
    calls = []
    init = cxs.Complex.__init__

    def counted(self, *args, **kwargs):
        calls.append({"node_index", "branch_index"} <= kwargs.keys())
        init(self, *args, **kwargs)

    monkeypatch.setattr(cxs.Complex, "__init__", counted)
    for text, reference in zip(texts, want):
        calls.clear()
        assert_same_complex(documents.parse(text).complex, reference)
        assert calls == [True]


@settings(deadline=None)
@given(complexes())
def test_a_written_complex_parses_back_to_itself(cx):
    assert_same_complex(documents.parse(document_of(cx)).complex, cx)


def test_the_constructor_takes_both_index_maps_or_neither():
    with pytest.raises(TypeError):
        cxs.Complex(["A", "B"], [(0, 1)], node_index={"A": 0, "B": 1})
