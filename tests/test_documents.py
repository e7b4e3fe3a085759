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
                {"id": "A", "pos": [[0, 0], [1, 0], [2, 0]]},
                {"id": "B", "pos": [5, 5]},
                {"id": "C", "pos": [0, 1]},
            ],
        )
    )
    traj = doc.trajectories()
    assert traj[0].shape == (3, 2)
    assert np.allclose(traj[1], [[5, 5]] * 3)
    assert doc.static_positions()["A"] == (0, 0)


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
