import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from homnet import cli, documents, reports
from homnet.complexes import Complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = FIXTURES.parent / "perfbench" / "goldens"


def load(name):
    return documents.parse((FIXTURES / name).read_text())


# -- dispatch -------------------------------------------------------------------

def test_homology_command_on_circle():
    report = cli.run(load("circle.json"), "homology")
    assert report.verdict == "value"
    assert report.numbers["betti"] == [1, 1]
    assert report.numbers["euler"] == 0


def test_homology_command_on_disc():
    report = cli.run(load("disc.json"), "homology")
    assert report.numbers["betti"] == [1, 0, 0]
    assert report.numbers["euler"] == 1


def test_rigidity_command():
    assert cli.run(load("triangle_truss.json"), "rigidity").numbers["dof"] == 0
    assert cli.run(load("rectangle.json"), "rigidity").numbers["dof"] == 1


def test_kcl_without_currents_is_missing_data():
    report = cli.run(load("disc.json"), "kcl")
    assert report.verdict == "error"
    assert report.details["missing"] == "branches[*].current"


def test_kcl_fail_lists_residual_nodes():
    report = cli.run(load("circuit_unbalanced.json"), "kcl")
    assert report.verdict == "fail"
    assert set(report.residuals["nodes"]) == {"A", "B"}


def test_statics_command_exact_values():
    report = cli.run(load("triangle_truss.json"), "statics")
    assert report.verdict == "value"
    assert report.numbers["classification"] == "determinate"
    assert report.numbers["reconstruction_exact"] is True
    assert report.details["tension_coefficients"] == {
        "AB": Fraction(1),
        "AC": Fraction(1),
        "BC": Fraction(1),
    }


def test_statics_on_projected_tetrahedron():
    report = cli.run(load("tetra_projected.json"), "statics")
    assert report.numbers["classification"] == "indeterminate"
    assert report.numbers["self_stress_dim"] == 1
    basis = report.details["self_stress_basis"][0]
    assert set(basis) == {"AB", "AC", "AD", "BC", "BD", "CD"}


def test_moments_requires_origin():
    report = cli.run(load("triangle_truss.json"), "moments")
    assert report.verdict == "error"
    assert report.details["missing"] == "origin"


def test_moments_with_origin():
    report = cli.run(load("triangle_truss.json"), "moments", {"origin": "A"})
    assert report.verdict == "pass"


def test_unknown_command_rejected():
    with pytest.raises(Exception):
        cli.run(load("circle.json"), "frobnicate")


def test_run_all_in_document_order():
    out = cli.run_all(load("circle.json"))
    assert [r.command for r in out] == ["homology", "kcl", "kvl"]
    assert all(r.passed for r in out)


# -- emit determinism --------------------------------------------------------------

def test_emit_identical_bytes_for_identical_reports():
    doc = load("circle.json")
    a = reports.emit(cli.run_all(doc), "json")
    b = reports.emit(cli.run_all(doc), "json")
    assert a == b
    a = reports.emit(cli.run_all(doc), "text")
    b = reports.emit(cli.run_all(doc), "text")
    assert a == b


def test_emitted_json_is_parseable_and_sorted():
    doc = load("circle.json")
    payload = json.loads(reports.emit(cli.run_all(doc), "json"))
    assert [p["command"] for p in payload] == ["homology", "kcl", "kvl"]
    homology = payload[0]
    assert homology["numbers"]["betti"] == [1, 1]
    assert homology["numbers"]["euler"] == 0


def trajectory_text(dt, pos):
    return json.dumps({
        "dimension": len(pos[0]),
        "signal": {"dt": dt, "samples": len(pos)},
        "nodes": [{"id": "P", "mass": 1.0, "pos": pos}],
        "branches": [],
    })


def test_nan_residual_fails_its_analysis():
    # r wedge F overflows to inf - inf: every residual sample is NaN
    pos = [[1e170 * (a + 1), 1e170 * (a + 1) ** 2] for a in range(7)]
    report = cli.run(documents.parse(trajectory_text(0.001, pos)), "angular")
    assert report.verdict == "fail"
    assert math.isnan(report.numbers["max_residual"])


def test_emitted_json_writes_non_finite_floats_as_strings():
    pos = [[1e307 * (-1) ** a] for a in range(6)]
    report = cli.run(documents.parse(trajectory_text(0.1, pos)), "momentum")
    payload = json.loads(reports.emit(report, "json"))
    assert payload["numbers"]["max_collective_residual"] == "inf"
    assert b"max_collective_residual = inf\n" in reports.emit(report, "text")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, dt, pos",
    [
        ("angular", 0.001, [[1e170 * (a + 1), 1e170 * (a + 1) ** 2] for a in range(7)]),
        ("momentum", 0.1, [[1e307 * (-1) ** a] for a in range(6)]),
    ],
    ids=["wedge-overflow", "derivative-overflow"],
)
def test_overflowing_analysis_fails_without_a_warning(tmp_path, capsys, command, dt, pos):
    # any numpy RuntimeWarning raises under the "error" filter; the
    # non-finite residual is reported and fails the verdict instead
    source = tmp_path / "overflow.json"
    source.write_text(trajectory_text(dt, pos))
    assert cli.main([command, "--input", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"== {command}: FAIL ==")


def test_fail_report_includes_witness_labels():
    # a drop distribution violating the voltage law must name the cycle
    text = json.dumps({
        "dimension": 2,
        "nodes": [
            {"id": "A", "pos": [0, 0], "voltage": "1"},
            {"id": "B", "pos": [1, 0], "voltage": "0"},
            {"id": "C", "pos": [0, 1], "voltage": "0"},
        ],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B", "current": "1"},
            {"id": "AC", "tail": "A", "head": "C", "current": "0"},
            {"id": "BC", "tail": "B", "head": "C", "current": "0"},
        ],
    })
    report = cli.run(documents.parse(text), "kcl")
    assert report.verdict == "fail"
    emitted = reports.emit(report, "json").decode()
    assert '"A"' in emitted and '"B"' in emitted


def test_kvl_fail_report_emits_witness_branch_labels():
    # a violated voltage law is constructed through the API (document node
    # voltages always produce consistent drops); the emitted report must
    # name the witness cycle's branches
    from fractions import Fraction as F

    import homnet as hn
    from homnet import electrical

    cx = documents.parse((FIXTURES / "circle.json").read_text()).complex
    dv = hn.Cochain(cx, 1, {0: F(1)}, hn.RATIONAL)
    verdict = electrical.kvl_check(dv)
    report = reports.AnalysisReport(
        command="kvl",
        verdict="fail",
        numbers={"cycle_sum": verdict.cycle_sum},
        details={"witness_cycle": cli._chain_labels(verdict.witness_cycle)},
    )
    emitted = reports.emit(report, "json").decode()
    for label in ("AB", "AC", "BC"):
        assert label in emitted


def test_mass_on_signal_with_constant_masses():
    # constant masses and no mass flows: every mass rate is zero
    text = json.dumps({
        "dimension": 2,
        "signal": {"dt": 0.1, "samples": 5},
        "nodes": [
            {"id": "P", "pos": [0, 0], "mass": 2.0},
            {"id": "Q", "pos": [1, 0], "mass": 1.5},
        ],
        "branches": [],
    })
    report = cli.run(documents.parse(text), "mass")
    assert report.verdict == "pass"
    assert report.numbers["max_residual"] == 0.0
    assert report.numbers["total_mass_constant"] is True


def test_trajectory_document_converts_its_samples_once(monkeypatch):
    # the benchmark's five trajectory analyses on one document; the four
    # that read the trajectories share one set of arrays
    raw = json.loads((FIXTURES / "freefall.json").read_text())
    commands = ("momentum", "angular", "dalembert", "energy", "mass")
    raw["analyses"] = [{"command": c, "tolerance": 1e-6} for c in commands]
    text = json.dumps(raw)
    seen = []

    def recorded(doc):
        state = dynamics_state(doc)
        seen.append(state.trajectories)
        return state

    dynamics_state = cli._dynamics_state
    monkeypatch.setattr(cli, "_dynamics_state", recorded)
    shared = cli.run_all(documents.parse(text))
    assert len(seen) == 4
    for trajectories in seen:
        assert trajectories.keys() == seen[0].keys()
        for i, arr in trajectories.items():
            assert arr is seen[0][i]
            assert not arr.flags.writeable
    # each analysis on a freshly parsed copy emits the same bytes
    alone = [
        cli.run(documents.parse(text), request.command, dict(request.options))
        for request in documents.parse(text).analyses
    ]
    for fmt in ("text", "json"):
        assert reports.emit(shared, fmt) == reports.emit(alone, fmt)


def test_virtual_work_zero_tolerance():
    # a float force residual of about 1e-12 fails both verdicts at tol=0
    text = json.dumps({
        "dimension": 2,
        "nodes": [
            {"id": "A", "pos": [0, 0], "force": [3.0, 4.0]},
            {"id": "B", "pos": [3, 4], "force": [-3.0, -4.0 + 1e-12]},
        ],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B", "internal_force": [3.0, 4.0]},
        ],
    })
    doc = documents.parse(text)
    assert cli.run(doc, "virtual-work").verdict == "pass"
    report = cli.run(doc, "virtual-work", {"tolerance": 0})
    assert report.verdict == "fail"
    assert report.numbers["equilibrium_by_balance"] is False
    assert report.numbers["verdicts_agree"] is True


def test_float_formatting_fixed_digits():
    assert reports.format_number(0.1) == "0.10000000000000001"
    assert reports.format_number(1.0) == "1"
    assert reports.format_number(Fraction(3, 4)) == "3/4"
    assert reports.format_number(7) == "7"
    assert reports.format_number(-0.0) == "0"


def test_canonical_json_sorts_keys():
    assert reports.canonical_json({"b": 1, "a": [2, {"z": 0, "y": None}]}) == (
        '{"a":[2,{"y":null,"z":0}],"b":1}'
    )


# -- main entry point ----------------------------------------------------------------

def test_main_single_input(capsys):
    code = cli.main(
        ["report-all", "--input", str(FIXTURES / "circle.json"), "--format", "json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)[0]["command"] == "homology"


def test_main_failure_exit_code(capsys):
    code = cli.main(
        ["kcl", "--input", str(FIXTURES / "circuit_unbalanced.json")]
    )
    assert code == 1
    capsys.readouterr()


def test_main_input_dir(capsys):
    code = cli.main(
        ["report-all", "--input-dir", str(FIXTURES), "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 1  # the deliberately unbalanced circuit fails
    assert "# circle.json" in out


@pytest.mark.parametrize(
    "field, value, path",
    [("force", float("nan"), "nodes[0].force"), ("pos", float("inf"), "nodes[0].pos")],
)
def test_main_rejects_non_finite_numbers(tmp_path, capsys, field, value, path):
    doc = json.loads((FIXTURES / "triangle_truss.json").read_text())
    doc["nodes"][0][field] = [value, 0]
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a finite number")


@pytest.mark.parametrize(
    "fixture, sample",
    [("triangle_truss.json", None), ("freefall.json", 3)],
)
def test_main_rejects_exact_numbers_beyond_float_range(tmp_path, capsys, fixture, sample):
    doc = json.loads((FIXTURES / fixture).read_text())
    if sample is None:
        doc["nodes"][0]["pos"] = [10**400, 0]
    else:
        doc["nodes"][0]["pos"][sample] = [0, 10**400]
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    path = "nodes[0].pos" if sample is None else f"nodes[0].pos[{sample}]"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: too large for a float")


def test_main_names_the_bad_sample_of_a_scalar_series(tmp_path, capsys):
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    masses = [2.0] * doc["signal"]["samples"]
    masses[2] = 10**400
    doc["nodes"][0]["mass"] = masses
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[0].mass[2]: too large for a float")


def test_energy_on_one_sample_needs_two_snapshots(tmp_path, capsys):
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    doc["signal"]["samples"] = 1
    doc["nodes"][0]["pos"] = doc["nodes"][0]["pos"][:1]
    source = tmp_path / "one.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["energy", "--input", str(source)]) == 2
    assert capsys.readouterr().err == "error: need at least two snapshots\n"


def test_energy_builds_only_the_spatial_trace(monkeypatch):
    # the motion is read from the trajectory arrays: no snapshot complexes
    # and no motion-link complex.  Each fall is a walk that never revisits a
    # position, so its trace is a forest and the potential is integrated
    # along the walks without building the trace either
    fall = load("freefall.json")
    # back and forth along one segment: the trace has chords, so its cycles
    # are checked on the trace complex, built once
    pos = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    shuttle = documents.parse(json.dumps({
        "dimension": 2,
        "signal": {"dt": 0.1, "samples": len(pos)},
        "nodes": [{"id": "P", "mass": 1.0, "pos": pos, "force": [0.0, -1.0]}],
        "branches": [],
    }))
    built = []
    init = Complex.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counted)
    assert cli.run(fall, "energy", {"tolerance": 1e-6}).verdict == "pass"
    assert built == []
    # the weight does no work across the segment, but the speed changes
    assert cli.run(shuttle, "energy", {"tolerance": 1e-6}).verdict == "fail"
    assert built == [["P@p0", "P@p1"]]


@pytest.mark.parametrize(
    "key, value",
    [
        ("dt", float("nan")),
        ("dt", 0),
        ("dt", "-1/40"),
        ("samples", float("inf")),
        ("samples", 5.7),
        ("samples", 41.0),
        ("samples", True),
        ("samples", 0),
    ],
)
def test_main_rejects_bad_signal_block(tmp_path, capsys, key, value):
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    doc["signal"][key] = value
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err.startswith(f"error: signal.{key}: ")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_report_all_matches_golden_bytes(path, capsysbinary):
    cli.main(["report-all", "--input", str(path)])
    assert capsysbinary.readouterr().out == (GOLDENS / f"{path.stem}.txt").read_bytes()


def test_main_requires_exactly_one_input(capsys):
    assert cli.main(["homology"]) == 2
    capsys.readouterr()


def test_per_analysis_options_respected():
    # analyses entries carry their own tolerances; CLI merges on top
    doc = load("orbit.json")
    report = cli.run(doc, "angular", dict(doc.analyses[0].options))
    assert report.verdict == "pass"
