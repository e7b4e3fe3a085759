import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homnet import chains, cli, documents, electrical, reports
from homnet.complexes import Complex
from homnet.errors import HypothesesUnmet, RangeError, TooFewSamples, ValidationError
from conftest import trajectory_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = FIXTURES.parent / "perfbench" / "goldens"
JSON_GOLDENS = Path(__file__).resolve().parent / "goldens"


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


def long_int(digits):
    """The int a decimal digit string writes, built in pieces: ``int`` of
    a string past the int-to-str digit limit is refused too."""
    n = 0
    for k in range(0, len(digits), 1000):
        piece = digits[k:k + 1000]
        n = n * 10 ** len(piece) + int(piece)
    return n


def test_emit_writes_exact_values_past_the_digit_limit():
    # past twice the default limit of 4,300 digits: written in pieces of
    # 4,300 digits from the right, the trailing zeros fill the lowest
    # piece and start the next, so both need their zero padding
    digits = "9" + "0123456789" * 500 + "0" * 4400
    n = long_int(digits)
    report = reports.AnalysisReport("statics", "value", numbers={
        "big": n, "negative": -n, "tiny": Fraction(1, n), "sevenths": Fraction(n, 7),
    })
    assert n % 7  # the sevenths stay a fraction
    text = reports.emit(report, "text").decode()
    assert f"    big = {digits}\n" in text
    assert f"    negative = -{digits}\n" in text
    assert f"    sevenths = {digits}/7\n" in text
    assert f"    tiny = 1/{digits}\n" in text
    payload = reports.emit(report, "json").decode()
    assert f'"big":{digits},' in payload
    assert f'"negative":-{digits},' in payload
    assert f'"sevenths":"{digits}/7",' in payload
    assert f'"tiny":"1/{digits}"' in payload


def charging_text(dt, charge):
    """A two-node circuit with no current whose node A charges by the
    given samples."""
    return json.dumps({
        "dimension": 1,
        "signal": {"dt": dt, "samples": len(charge)},
        "nodes": [{"id": "A", "pos": [0], "charge": charge}, {"id": "B", "pos": [1]}],
        "branches": [{"id": "AB", "tail": "A", "head": "B", "current": 0.0}],
    })


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, text",
    [
        ("angular", trajectory_text(
            0.001, [[1e170 * (a + 1), 1e170 * (a + 1) ** 2] for a in range(7)]
        )),
        ("momentum", trajectory_text(0.1, [[1e307 * (-1) ** a] for a in range(6)])),
        ("dalembert", trajectory_text(0.1, [[1e307 * (-1) ** a] for a in range(6)])),
        # not a sampled analysis: numpy runs because parsing the charge
        # samples loaded it
        ("kcl", charging_text(0.1, [1e307 * (-1) ** a for a in range(6)])),
    ],
    ids=["wedge-overflow", "derivative-overflow", "dalembert-overflow",
         "charging-overflow"],
)
def test_overflowing_analysis_fails_without_a_warning(tmp_path, capsys, command, text):
    # any numpy RuntimeWarning raises under the "error" filter; the
    # non-finite residual is reported and fails the verdict instead
    source = tmp_path / "overflow.json"
    source.write_text(text)
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


def test_angular_and_energy_share_one_constant_mass_hypothesis(tmp_path, capsys):
    # freefall with its mass as samples rising by 1e-9 each: both laws
    # read a spread of 4e-8 as a constant mass, and one past 1e-6 as none
    raw = json.loads((FIXTURES / "freefall.json").read_text())
    samples = raw["signal"]["samples"]
    raw["nodes"][0]["mass"] = [2.0 + 1e-9 * a for a in range(samples)]
    raw["analyses"].append({"command": "angular", "tolerance": 1e-6})
    source = tmp_path / "freefall_rising_mass.json"
    source.write_text(json.dumps(raw))
    assert cli.main(["report-all", "--input", str(source)]) == 0
    out = capsys.readouterr().out
    assert "== energy: PASS ==" in out and "== angular: PASS ==" in out
    raw["nodes"][0]["mass"] = [2.0 + 1e-7 * a for a in range(samples)]
    doc = documents.parse(json.dumps(raw))
    for command, law in (
        ("angular", "angular-momentum balance"), ("energy", "work-energy theorem")
    ):
        with pytest.raises(HypothesesUnmet, match=f"^{law} needs constant masses$"):
            cli.run(doc, command)


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


LONG_LITERAL = "1" + "0" * (sys.get_int_max_str_digits() + 99)


def test_main_names_an_integer_literal_past_the_digit_limit(tmp_path, capsys):
    # json.loads cannot convert the literal, so the document names where it is
    doc = json.loads((FIXTURES / "triangle_truss.json").read_text())
    doc["nodes"][1]["pos"] = ["LONG", 0]
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc).replace('"LONG"', LONG_LITERAL))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    digits, limit = len(LONG_LITERAL), sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"error: nodes[1].pos[0]: a number literal of {digits} digits"
        f" exceeds the {limit}-digit limit\n"
    )


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    # the literal fails the first parse, the nesting the one that finds it
    '{"a": ' + LONG_LITERAL + ', "b": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["nested", "long-literal-then-nested"])
def test_main_rejects_a_document_nested_too_deeply(tmp_path, capsys, text):
    source = tmp_path / "deep.json"
    source.write_text(text)
    assert cli.main(["homology", "--input", str(source)]) == 2
    assert capsys.readouterr().err == (
        "error: $: arrays and objects nest too deeply to parse\n"
    )


def test_main_gives_the_digit_count_of_a_long_fraction_string(tmp_path, capsys):
    doc = json.loads((FIXTURES / "triangle_truss.json").read_text())
    doc["nodes"][1]["force"] = [f"{LONG_LITERAL}/3", "3"]
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    digits, limit = len(LONG_LITERAL), sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"error: nodes[1].force: a number literal of {digits} digits"
        f" exceeds the {limit}-digit limit\n"
    )


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


def grid_document(k):
    """A k x k triangulated grid truss at integer positions, with integer
    voltages, branch currents and node loads: every analysis of the
    Kirchhoff and equilibrium checks has its data."""
    node = "n{}_{}".format
    nodes = [
        {"id": node(i, j), "pos": [10 * i, 10 * j], "voltage": i * j,
         "force": [j - i, i + j - k]}
        for i in range(k) for j in range(k)
    ]
    branches = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                if i + di < k and j + dj < k:
                    branches.append({
                        "id": f"b{len(branches)}", "tail": node(i, j),
                        "head": node(i + di, j + dj), "current": i - j,
                    })
    return documents.parse(json.dumps(
        {"dimension": 2, "nodes": nodes, "branches": branches}
    ))


def test_balance_checks_build_no_complex(monkeypatch):
    # the Kirchhoff and equilibrium checks read the residual and the forest
    # of the parsed complex: no cone, and no other complex, is built
    docs = [load(p.name) for p in sorted(FIXTURES.glob("*.json"))]
    docs.append(grid_document(5))
    built = []
    init = Complex.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counted)
    verdicts = []
    for doc in docs:
        for command in ("kcl", "kvl", "statics", "virtual-work"):
            verdicts.append(cli.run(doc, command).verdict)
    assert built == []
    assert {"pass", "fail", "value"} <= set(verdicts)


def test_report_all_hashes_the_document_once(monkeypatch):
    calls = []
    sha256 = documents.hashlib.sha256

    def counted(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(documents.hashlib, "sha256", counted)
    doc = load("freefall.json")
    out = cli.run_all(doc)
    assert len(out) == len(doc.analyses) == 3
    assert len(calls) == 1
    assert reports.emit(out) == (GOLDENS / "freefall.txt").read_bytes()


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


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_report_all_json_matches_golden_bytes(path, capsysbinary):
    # JSON tells an int (bare) from a Fraction (quoted) where text does not
    cli.main(["report-all", "--input", str(path), "--format", "json"])
    assert capsysbinary.readouterr().out == (JSON_GOLDENS / f"{path.stem}.json").read_bytes()


def test_statics_builds_no_boundary_chain(monkeypatch):
    # the statics certificate is an integer check of the matrix rows, so no
    # chain boundary is taken; every binding of the function is counted
    calls = []
    original = chains.boundary

    def counted(chain):
        calls.append(chain)
        return original(chain)

    for name, module in list(sys.modules.items()):
        if name.startswith("homnet") and getattr(module, "boundary", None) is original:
            monkeypatch.setattr(module, "boundary", counted)
    for name in ("triangle_truss.json", "tetra_projected.json"):
        report = cli.run(load(name), "statics")
        assert report.verdict == "value"
    assert report.numbers["reconstruction_exact"] is True
    assert calls == []


def test_main_requires_exactly_one_input(capsys):
    assert cli.main(["homology"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, value", [("t0", 1.5), ("tolerance", math.nan)])
def test_run_checks_its_options(name, value):
    options = {"t0": 0, "t1": 3, name: value}
    with pytest.raises(ValidationError) as err:
        cli.run(load("freefall.json"), "momentum", options)
    assert err.value.path == f"options.{name}"


def test_momentum_window_without_a_force_reports_the_momentum_change():
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    del doc["nodes"][0]["force"]
    unforced = documents.parse(json.dumps(doc))
    report = cli.run(unforced, "momentum", {"t0": 0, "t1": 3})
    # no force, no impulse: the gap is the momentum change m g (t1 - t0) dt
    gap = report.numbers["impulse_momentum_gap"]
    assert gap == pytest.approx(2.0 * 9.81 * 3 * 0.025)
    assert cli.run(load("freefall.json"), "momentum", {"t0": 0, "t1": 3}).numbers[
        "impulse_momentum_gap"
    ] < 1e-9
    with pytest.raises(RangeError):
        cli.run(unforced, "momentum", {"t0": 0, "t1": 41})


@pytest.mark.parametrize("given, missing", [("t0", "t1"), ("t1", "t0")])
def test_window_bound_flag_needs_the_other(capsys, given, missing):
    # a lone bound used to drop the window, and the gap with it, silently
    args = ["momentum", "--input", str(FIXTURES / "freefall.json"), f"--{given}", "3"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: --{missing}: ")


@pytest.mark.parametrize("given, missing", [("t0", "t1"), ("t1", "t0")])
def test_window_bound_option_needs_the_other(given, missing):
    with pytest.raises(ValidationError) as err:
        cli.run(load("freefall.json"), "momentum", {given: 3})
    assert err.value.path == f"options.{missing}"


@pytest.mark.parametrize("given, missing", [("t0", "t1"), ("t1", "t0")])
def test_window_bound_in_a_document_needs_the_other(tmp_path, capsys, given, missing):
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    doc["analyses"] = ["energy", {"command": "momentum", given: 3}]
    source = tmp_path / "freefall.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err.startswith(f"error: analyses[1].{missing}: ")


def test_per_analysis_options_respected():
    # analyses entries carry their own tolerances; CLI merges on top
    doc = load("orbit.json")
    report = cli.run(doc, "angular", dict(doc.analyses[0].options))
    assert report.verdict == "pass"


# -- exit status ------------------------------------------------------------------

def kcl_and_kvl_failing_text():
    # branch AB carries an unbalanced current, and the drops of the float
    # voltages 1e17 and 3 round, so the loop sums to -3 instead of zero
    return json.dumps({
        "dimension": 2,
        "nodes": [
            {"id": "A", "pos": [0, 0], "voltage": 1e17},
            {"id": "B", "pos": [1, 0], "voltage": 3.0},
            {"id": "C", "pos": [0, 1], "voltage": 0.0},
        ],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B", "current": "1"},
            {"id": "AC", "tail": "A", "head": "C", "current": "0"},
            {"id": "BC", "tail": "B", "head": "C", "current": "0"},
        ],
        "analyses": ["kcl", "kvl"],
    })


def test_two_failing_analyses_exit_1(tmp_path, capsys):
    source = tmp_path / "both.json"
    source.write_text(kcl_and_kvl_failing_text())
    assert cli.main(["report-all", "--input", str(source)]) == 1
    out = capsys.readouterr().out
    assert "== kcl: FAIL ==" in out and "== kvl: FAIL ==" in out


def test_failing_batch_exits_1(tmp_path, capsys):
    (tmp_path / "a.json").write_text(kcl_and_kvl_failing_text())
    (tmp_path / "b.json").write_text((FIXTURES / "circuit_unbalanced.json").read_text())
    (tmp_path / "c.json").write_text((FIXTURES / "circle.json").read_text())
    assert cli.main(["report-all", "--input-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert all(f"# {name}.json\n" in out for name in "abc")


# -- float tolerances below 1e-12 ----------------------------------------------------

def test_zero_tolerance_on_exact_document():
    # exact values ignore the tolerance: the exact verdicts stand
    doc = load("circuit_unbalanced.json")
    assert cli.run(doc, "kcl", {"tolerance": 0}).verdict == "fail"
    assert cli.run(doc, "kcl", {"tolerance": 1e-15}).verdict == "fail"
    assert cli.run(load("circle.json"), "kcl", {"tolerance": 0}).verdict == "pass"


def test_float_tolerance_below_the_print_floor_answers(tmp_path, capsys):
    # circuit_charging's residual is rounding noise of at most 4.4e-16: it
    # fails at tolerance 0, with the noise printed, and passes from 1e-15 on
    args = ["kcl", "--input", str(FIXTURES / "circuit_charging.json"), "--tolerance"]
    assert cli.main(args + ["0"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "max_residual = 4.4408920985006262e-16" in out
    assert "nodes = {A: [0, 0, -2.2204460492503131e-16, 0, 0, " in out
    assert cli.main(args + ["1e-15"]) == 0
    assert "max_residual = 0\n" in capsys.readouterr().out
    assert cli.main(args + ["1e-12"]) == 0
    assert capsys.readouterr().out == (GOLDENS / "circuit_charging.txt").read_text()
    # one branch carrying 5e-13 fails below 1e-12, its residual printed
    source = tmp_path / "branch.json"
    source.write_text(json.dumps({
        "dimension": 1,
        "nodes": [{"id": "A"}, {"id": "B"}],
        "branches": [{"id": "AB", "tail": "A", "head": "B", "current": 5e-13}],
    }))
    args = ["kcl", "--input", str(source), "--tolerance"]
    for tol in ("0", "1e-15"):
        assert cli.main(args + [tol]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "max_residual = 4.9999999999999999e-13" in out
        assert "nodes = {A: -4.9999999999999999e-13, B: 4.9999999999999999e-13}" in out
    assert cli.main(args + ["1e-12"]) == 0
    assert "nodes = {}" in capsys.readouterr().out


# reports at --tolerance 1e-12 equal those at each request's own tolerance;
# freefall and orbit ask 1e-6 of trajectory checks that fail at 1e-12
SAME_AT_1E12 = {path.stem for path in FIXTURES.glob("*.json")} - {"freefall", "orbit"}


@pytest.mark.parametrize("tol", ["0", "1e-15", "1e-12"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_report_all_answers_at_small_tolerances(path, tol, monkeypatch, capsys):
    # every KCL residual and KVL drop distribution, in the order judged: a
    # chain, or a sampled circuit's (samples, simplexes) array
    judged = []

    def spy(name, key, values_of):
        original = getattr(electrical, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            judged.append((key, values_of(result)))
            return result

        monkeypatch.setattr(electrical, name, wrapped)

    spy("kcl_check", "nodes", lambda report: report.residual)
    spy("voltage_drop", "drops", lambda dv: dv)
    args = ["report-all", "--input", str(path), "--tolerance", tol]
    code = cli.main(args + ["--format", "json"])
    out, err = capsys.readouterr()
    assert code in (0, 1) and err == ""
    printed = [
        (key, report["residuals"][key])
        for report in json.loads(out)
        for key in ("nodes", "drops")
        if key in report.get("residuals", {})
    ]
    assert [key for key, _ in printed] == [key for key, _ in judged]
    cx = load(path.name).complex
    for (key, shown), (_, values) in zip(printed, judged):
        labels = cx.node_labels if key == "nodes" else cx.branch_labels
        if documents.is_array(values):
            norms = dict(enumerate(max(map(abs, c)) for c in values.T.tolist()))
        else:
            norms = {i: values.module.norm(v) for i, v in values.coeffs.items()}
        for i, norm in norms.items():
            if norm > float(tol):
                assert labels[i] in shown
    if tol == "1e-12" and path.stem in SAME_AT_1E12:
        runs = []
        for argv in (args, args[:-2]):
            code = cli.main(argv)
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]


# -- derivatives computed once per node -------------------------------------------

def test_dalembert_differentiates_each_node_once(monkeypatch):
    from homnet import dynamics

    calls = []
    derivative = dynamics.series_derivative

    def counted(x, dt):
        calls.append(x.shape)
        return derivative(x, dt)

    monkeypatch.setattr(dynamics, "series_derivative", counted)
    doc = load("freefall.json")
    nodes = doc.complex.r[0]
    assert doc.dimension > 1  # one residual per node and coordinate
    report = cli.run(doc, "dalembert", dict(doc.analyses[2].options))
    assert report.verdict == "pass"
    # one velocity and one momentum-rate derivative, each of every node
    assert calls == [(doc.samples, nodes, doc.dimension)] * 2

    state = cli._dynamics_state(doc)
    assert state.velocity is state.velocity
    assert state.momentum_rate is state.momentum_rate
    for array in (state.positions, state.mass, state.velocity, state.momentum,
                  state.momentum_rate):
        assert not array.flags.writeable


def test_report_all_on_a_long_free_fall_differentiates_each_trajectory_once(
    monkeypatch,
):
    # momentum, angular, dalembert and energy share one dynamics state, so
    # the stacked positions and momenta of all nodes are differentiated
    # once per document, in one call each
    from homnet import dynamics

    inputs = []
    derivative = dynamics.series_derivative

    def counted(x, dt):
        inputs.append(x)
        return derivative(x, dt)

    monkeypatch.setattr(dynamics, "series_derivative", counted)
    doc = documents.parse(trajectory_document(random.Random(4), "freefall", 4, 700))
    assert [r.verdict for r in cli.run_all(doc)] == ["pass"] * 5
    state = cli._dynamics_state(doc)
    # velocity, momentum rate, angular-momentum rate, mass rate
    assert len(inputs) == 4
    assert inputs[0] is state.positions and inputs[1] is state.momentum
    assert [x.shape for x in inputs[2:]] == [(700, 4, 1), (700, 4)]


# every fixture, and seeded trajectory documents of both motions
REPORT_ALL_DOCUMENTS = [
    pytest.param(path.read_text(), id=path.stem) for path in sorted(FIXTURES.glob("*.json"))
] + [
    pytest.param(
        trajectory_document(random.Random(seed), kind, particles, samples),
        id=f"{kind}-seed{seed}",
    )
    for seed in (0, 1, 2)
    for kind, particles, samples in (("freefall", 2, 40), ("circular", 3, 60))
]


@pytest.mark.parametrize("text", REPORT_ALL_DOCUMENTS)
def test_report_all_matches_each_command_on_a_fresh_document(text):
    # what report-all shares within one document changes no byte
    shared = cli.run_all(documents.parse(text))
    alone = [
        cli.run(documents.parse(text), request.command, dict(request.options))
        for request in documents.parse(text).analyses
    ]
    for fmt in ("text", "json"):
        assert reports.emit(shared, fmt) == reports.emit(alone, fmt)


def test_an_infinite_momentum_rate_makes_the_other_dalembert_pairings_nan():
    # x alternates between +-1e307, so the one-sided end stencils overflow:
    # the momentum rate is infinite along x at the end samples and zero
    # along y.  Pairing it with the unit y vector multiplies inf by 0, a NaN
    # that fails the verdict; the largest |component| alone would read inf
    text = json.dumps({
        "dimension": 2,
        "signal": {"dt": 0.1, "samples": 7},
        "nodes": [{"id": "P", "mass": 1.0,
                   "pos": [[1e307 * (-1) ** a, 0.0] for a in range(7)]}],
        "branches": [],
    })
    dalembert = cli.run(documents.parse(text), "dalembert")
    assert dalembert.verdict == "fail"
    assert math.isnan(dalembert.numbers["max_residual"])
    momentum = cli.run(documents.parse(text), "momentum")
    assert momentum.verdict == "fail"
    assert momentum.numbers["max_residual_with_ends"] == math.inf
    assert momentum.numbers["max_residual"] == 0.0


def test_sampled_analyses_need_three_samples():
    # one condition, one error, whichever analysis meets it first
    text = json.dumps({
        "dimension": 2,
        "signal": {"dt": 0.1, "samples": 2},
        "nodes": [{"id": "P", "mass": 1.0, "pos": [[0, 0], [1, 1]], "force": [0, -1]}],
        "branches": [],
    })
    for command in ("mass", "momentum", "angular", "dalembert", "energy"):
        with pytest.raises(TooFewSamples, match="^derivatives need at least 3 samples$"):
            cli.run(documents.parse(text), command)


# -- reports of a missing value -------------------------------------------------

def test_none_is_written_as_null_in_both_formats():
    report = reports.AnalysisReport(
        "statics", "value", numbers={"reconstruction_exact": None}
    )
    assert "    reconstruction_exact = null\n" in reports.emit(report, "text").decode()
    payload = json.loads(reports.emit(report, "json"))
    assert payload["numbers"] == {"reconstruction_exact": None}


# -- input and option errors exit 2 -----------------------------------------------

def test_angular_unknown_origin_is_an_error(capsys):
    args = ["angular", "--input", str(FIXTURES / "orbit.json"), "--origin"]
    assert cli.main(args + ["NOPE"]) == 2
    assert capsys.readouterr().err == "error: unknown node 'NOPE'\n"
    # the orbiting particle's first position is a valid origin
    assert cli.main(args + ["P"]) == 0
    assert capsys.readouterr().out.startswith("== angular: PASS ==")


def test_missing_input_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["report-all", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    assert cli.main(["report-all", "--input-dir", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: not a directory\n"


def test_input_that_is_not_utf8_is_an_error(tmp_path, capsys):
    source = tmp_path / "latin1.json"
    source.write_bytes('{"dimension": 2, "nodes": [{"id": "Ä"}]}'.encode("latin-1"))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source} is not UTF-8: ")


def test_batch_stops_at_an_unreadable_document(tmp_path, capsys):
    (tmp_path / "a.json").write_text((FIXTURES / "circle.json").read_text())
    (tmp_path / "b.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "c.json").write_text((FIXTURES / "circle.json").read_text())
    assert cli.main(["report-all", "--input-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "# a.json\n" in captured.out and "# c.json" not in captured.out
    assert captured.err.startswith(f"error: {tmp_path / 'b.json'} is not UTF-8: ")


@pytest.mark.parametrize("command", ["energy", "report-all"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_flag_must_be_finite_and_not_negative(capsys, command, value):
    # the same rule as a document's tolerance, named by the flag
    args = [command, "--input", str(FIXTURES / "freefall.json"), "--tolerance", value]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --tolerance: expected a finite number >= 0, "
        f"got {float(value)!r}\n"
    )


@pytest.mark.parametrize("command", ["kcl", "report-all"])
def test_flags_override_document_options(tmp_path, capsys, command):
    # branch AB's float current leaves each node 1e-6 out of balance
    source = tmp_path / "leak.json"
    source.write_text(json.dumps({
        "dimension": 1,
        "nodes": [{"id": "A"}, {"id": "B"}],
        "branches": [{"id": "AB", "tail": "A", "head": "B", "current": 1e-6}],
        "analyses": [{"command": "kcl", "tolerance": 1e-3}],
    }))
    assert cli.main([command, "--input", str(source)]) == 0
    assert "== kcl: PASS ==" in capsys.readouterr().out
    assert cli.main([command, "--input", str(source), "--tolerance", "1e-9"]) == 1
    assert "== kcl: FAIL ==" in capsys.readouterr().out


@pytest.mark.parametrize("force", [[3], [3, 4, 99]], ids=["short", "long"])
def test_internal_force_of_another_dimension_is_an_error(tmp_path, capsys, force):
    # a vector of another length is an error, never read short or padded
    source = tmp_path / "truss.json"
    source.write_text(json.dumps({
        "dimension": 2,
        "nodes": [
            {"id": "A", "pos": [0, 0], "force": [3, 4]},
            {"id": "B", "pos": [3, 4], "force": [-3, -4]},
        ],
        "branches": [
            {"id": "AB", "tail": "A", "head": "B", "internal_force": force},
        ],
        "analyses": ["virtual-work"],
    }))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err == (
        "error: branches[0].internal_force: expected a list of 2 numbers\n"
    )


def test_document_option_of_another_type_is_an_error(tmp_path, capsys):
    doc = json.loads((FIXTURES / "freefall.json").read_text())
    doc["analyses"] = [{"command": "momentum", "t0": "x", "t1": 3}]
    source = tmp_path / "freefall.json"
    source.write_text(json.dumps(doc))
    assert cli.main(["report-all", "--input", str(source)]) == 2
    assert capsys.readouterr().err.startswith("error: analyses[0].t0: expected ")


# -- one command list --------------------------------------------------------------

def test_every_command_list_names_the_same_commands():
    runners = [*cli._RUNNERS, "report-all"]
    action = next(a for a in cli._build_parser()._actions if a.dest == "command")
    readme = (FIXTURES.parent / "README.md").read_text()
    listed = readme.split("\nCommands: ", 1)[1].split("Flags:", 1)[0]
    in_readme = re.findall(r"`([a-z-]+)`", re.sub(r"\([^)]*\)", "", listed))
    for names in (documents._COMMANDS, action.choices, in_readme):
        assert len(set(names)) == len(names)
        assert set(names) == set(runners)
