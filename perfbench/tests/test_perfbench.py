"""Tests of the benchmark itself: seeded generators, output checkers and
tracing that leaves the report bytes alone.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker._load(ROOT)


def _goldens():
    return {p.stem: p.read_text() for p in (ROOT / "perfbench" / "goldens").glob("*.txt")}


def _payloads(case):
    doc, out, _ = worker.run_document(case.text)
    return [
        (request.command, json.loads(worker.reports.emit(report, "json")))
        for request, report in zip(doc.analyses, out)
        if not isinstance(report, Exception)  # mass on branchless signals
    ]


def _small_cases():
    rng = random.Random(7)
    return {
        "grid-statics": workloads.grid_statics_case(rng, 3),
        "grid-homology": workloads.grid_homology_case(rng, 4),
        "trajectory-freefall": workloads.trajectory_case(rng, "freefall", 2, 60),
        "trajectory-circular": workloads.trajectory_case(rng, "circular", 2, 300),
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    def texts(seed):
        cases = workloads.corpus(workload, random.Random(seed), ROOT, _goldens())
        return [c.text for c in cases]

    assert texts(11) == texts(11)
    if workload == "fixtures":
        assert sorted(texts(11)) == sorted(texts(12))
    else:
        assert texts(11) != texts(12)


def test_grid_triangles_never_degenerate():
    # unchecked, about 3% of k = 7 grids had three collinear corners
    for seed in range(300):
        pos, _, _ = workloads.grid_complex(random.Random(seed), 7)
        for tri in workloads.grid_triangles(7):
            assert workloads.twice_area(*(pos[n] for n in tri)) != 0, (seed, tri)


def test_grid_homology_holes_match_removed_faces():
    case = workloads.grid_homology_case(random.Random(3), 4)
    doc = json.loads(case.text)
    assert len(doc["faces"]) == 2 * 3 * 3 - case.expect["holes"]


def test_checkers_accept_the_program_reports():
    for name, case in _small_cases().items():
        workload = name.split("-")[0] if name.startswith("trajectory") else name
        for command, payload in _payloads(case):
            assert checks.check_report(workload, case, command, payload) is None, (
                name, command)


def _corruptions():
    """(workload, case key, command, edit) with edits that make a report
    wrong without making it malformed."""

    def set_path(*keys, value):
        def edit(p):
            target = p
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value(target[keys[-1]])
        return edit

    def first_key(d):
        return sorted(d)[0]

    def bump_potential(p):
        pot = p["details"]["potential"]
        k = first_key(pot)
        pot[k] = str(int(pot[k]) + 1)

    def bump_self_stress(p):
        x = p["details"]["self_stress_basis"][0]
        k = first_key(x)
        x[k] += 1

    def bump_tension(p):
        t = p["details"]["tension_coefficients"]
        k = first_key(t)
        t[k] = str(int(t[k].split("/")[0]) + 1) + (
            "/" + t[k].split("/")[1] if "/" in t[k] else "")

    def bump_generator(p):
        z = p["details"]["generators"]["H1"][0]
        k = first_key(z)
        z[k] += 1

    def drop_generator(p):
        p["details"]["generators"]["H1"].pop()

    return [
        ("grid-statics", "kcl", set_path("verdict", value=lambda v: "fail")),
        ("grid-statics", "kcl", set_path("numbers", "conserved", value=lambda v: False)),
        ("grid-statics", "kvl", bump_potential),
        ("grid-statics", "statics", bump_self_stress),
        ("grid-statics", "statics", bump_tension),
        ("grid-statics", "statics",
         set_path("numbers", "reconstruction_exact", value=lambda v: False)),
        ("grid-statics", "rigidity", set_path("numbers", "dof", value=lambda v: v + 1)),
        ("grid-homology", "homology",
         set_path("numbers", "betti", value=lambda v: [v[0], v[1] + 1, v[2]])),
        ("grid-homology", "homology", bump_generator),
        ("grid-homology", "homology", drop_generator),
        ("trajectory-freefall", "energy", set_path("verdict", value=lambda v: "fail")),
        ("trajectory-circular", "energy", set_path("verdict", value=lambda v: "pass")),
        ("trajectory-circular", "momentum", set_path("verdict", value=lambda v: "error")),
    ]


@pytest.mark.parametrize("key,command,edit", _corruptions())
def test_each_checker_rejects_a_corrupted_report(key, command, edit):
    case = _small_cases()[key]
    workload = "trajectory" if key.startswith("trajectory") else key
    payload = dict(_payloads(case))[command]
    bad = copy.deepcopy(payload)
    edit(bad)
    assert checks.check_report(workload, case, command, bad) is not None


def test_fixture_check_rejects_a_changed_byte():
    cases = workloads.corpus("fixtures", random.Random(0), ROOT, _goldens())
    case = next(c for c in cases if c.name == "circle")
    _, out, data = worker.run_document(case.text)
    assert data.decode() == case.expect["golden"]
    block = worker.reports.emit([out[2]]).decode()
    assert checks.check_fixture_block(case, 2, block) is None
    assert checks.check_fixture_block(case, 2, block.replace("5", "6")) is not None
    assert checks.check_fixture_block(case, 1, block) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_emit_identical_bytes(workload):
    cases = workloads.corpus(workload, random.Random(5), ROOT, _goldens())
    if workload != "fixtures":
        cases = cases[:2]
    plain = [worker.run_document(c.text)[2] for c in cases]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [worker.run_document(c.text)[2] for c in cases]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)
    # uninstall restores every original binding
    assert worker.cli.run.__module__ == "homnet.cli"
    assert not hasattr(worker.cli.run, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans_ = [
        ["outer", 0, 100, -1],
        ["inner", 10, 40, 0],
        ["inner", 50, 70, 0],
        ["leaf", 15, 25, 1],
    ]
    calls, incl, self_s, _ = spans.summarize(spans_, {})
    assert calls["inner"] == 2
    assert incl["outer"] == pytest.approx(100e-9)
    assert self_s["outer"] == pytest.approx(50e-9)
    assert self_s["inner"] == pytest.approx(40e-9)
    assert self_s["leaf"] == pytest.approx(10e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_percentile_is_fixed_and_has_ten_beyond_at_min_passes(workload):
    per_pass = len(workloads.corpus(workload, random.Random(1), ROOT, _goldens()))
    passes = workloads.tail_passes(workload, per_pass)
    percentile = workloads.TAIL_PERCENTILE[workload]
    fewest = [float(i) for i in range(passes * per_pass)]
    value, beyond = run.tail_latency(fewest, percentile)
    assert beyond >= workloads.TAIL_BEYOND
    assert value == fewest[workloads.tail_rank(percentile, len(fewest)) - 1]
    # one pass fewer would leave too few beyond the percentile
    short = (passes - 1) * per_pass
    assert short - workloads.tail_rank(percentile, short) < workloads.TAIL_BEYOND
    # a run with far more documents (a faster program) keeps the percentile
    many = [float(i) for i in range(50 * passes * per_pass)]
    value, beyond = run.tail_latency(many, percentile)
    assert value / len(many) == pytest.approx(percentile / 100, abs=1e-3)


def test_tail_rank_is_nearest_rank():
    assert workloads.tail_rank(90.0, 100) == 90
    assert workloads.tail_rank(99.0, 1000) == 990
    assert workloads.tail_rank(90.0, 112) == 101


def test_every_timed_document_gets_its_reference():
    cases = workloads.corpus("fixtures", random.Random(2), ROOT, _goldens())
    run_ = worker.Run("fixtures", cases)
    run_.checked_pass()
    doc_refs = []
    latencies = run_.timed_passes(0, 2, doc_refs)
    assert len(latencies) == len(doc_refs) == 2 * len(cases)
    assert all(r > 0 for r in doc_refs)
    assert run_.wrong == 0
