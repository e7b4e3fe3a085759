import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homnet import documents
from homnet.errors import DocumentSyntaxError, ValidationError

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
