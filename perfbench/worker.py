"""One workload run, in its own process.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE OUT

Generates the corpus from the seed, runs one untimed pass whose reports
are checked, then times closed-loop corpus passes (one client, no extra
threads) for SECONDS, timing the reference workload between documents.
Each document goes the way ``homnet report-all``
takes it: ``documents.parse``, ``cli.run`` per requested analysis,
``reports.emit``.  With TRACE=1 untraced and traced passes alternate, and
the kernel inputs of the first traced pass are replayed through both
kernels.  The result is written as JSON to OUT.
"""

from __future__ import annotations

import array
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import reference
import replay
import spans
import workloads

REFERENCE_EVERY_S = 0.05


def _load(root):
    sys.path.insert(0, str(Path(root, "src")))
    global homnet, cli, documents, reports, pure
    import homnet
    from homnet import cli, documents, reports
    from homnet._kernel import pure


def run_document(text):
    """Parse, run every requested analysis, emit.  Returns the per-analysis
    reports (an exception instance where the analysis raised) and the
    emitted bytes of the reports that were produced."""
    doc = documents.parse(text)
    out = []
    for request in doc.analyses:
        try:
            out.append(cli.run(doc, request.command, dict(request.options)))
        except Exception as exc:  # a raising analysis is a failed operation
            out.append(exc)
    data = reports.emit([r for r in out if not isinstance(r, Exception)])
    return doc, out, data


class Run:
    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.expected = []  # emitted bytes per case from the checked pass
        self.failed_ops = []  # failed analyses per case in the checked pass
        self.ops = []  # analyses per case
        self.problems = []  # one line per failed analysis
        self.wrong = 0  # reports that failed a check, or bytes that drifted
        self.attempted = 0
        self.failed = 0

    def checked_pass(self):
        for case in self.cases:
            doc, out, data = run_document(case.text)
            self.expected.append(data)
            self.ops.append(len(out))
            failed = 0
            for index, (request, report) in enumerate(zip(doc.analyses, out)):
                problem = self._check(case, index, request.command, report)
                if problem is not None:
                    failed += 1
                    self.problems.append(f"{case.name} {request.command}: {problem}")
            if self.workload == "fixtures" and data.decode() != case.expect["golden"]:
                self.wrong += 1
                self.problems.append(f"{case.name}: bytes differ from the golden")
            self.failed_ops.append(failed)

    def _check(self, case, index, command, report):
        if isinstance(report, Exception):
            return f"raised {type(report).__name__}: {report}"
        if report.verdict == "error":
            return f"error verdict: {report.details.get('error')}"
        if self.workload == "fixtures":
            block = reports.emit([report]).decode()
            problem = checks.check_fixture_block(case, index, block)
        else:
            payload = json.loads(reports.emit(report, "json"))
            problem = checks.check_report(self.workload, case, command, payload)
        if problem is not None:
            self.wrong += 1
        return problem

    def timed_passes(self, seconds, min_passes, doc_refs=None):
        """Closed-loop corpus passes until SECONDS have elapsed, and at least
        MIN_PASSES.  Returns the per-document latencies in seconds, pass
        after pass.  With DOC_REFS, the reference workload is timed too:
        before a document whenever REFERENCE_EVERY_S have gone by since the
        last sample, and once after the last document.  DOC_REFS then
        receives, for each document, the mean of the two samples around it."""
        clock = time.perf_counter
        # compact arrays keep the harness's share of the peak RSS small
        latencies, samples, sample_before = array.array("d"), [], array.array("l")
        deadline = clock() + seconds
        last_ref = -math.inf
        passes = 0
        while passes < min_passes or clock() < deadline:
            for i, case in enumerate(self.cases):
                if doc_refs is not None and clock() - last_ref >= REFERENCE_EVERY_S:
                    samples.append(reference.measure())
                    last_ref = clock()
                sample_before.append(len(samples) - 1)
                t0 = clock()
                _, _, data = run_document(case.text)
                latencies.append(clock() - t0)
                self.attempted += self.ops[i]
                if data == self.expected[i]:
                    self.failed += self.failed_ops[i]
                else:
                    self.failed += self.ops[i]
                    self.wrong += 1
                    self.problems.append(f"{case.name}: bytes differ between passes")
            passes += 1
        if doc_refs is not None:
            samples.append(reference.measure())
            doc_refs.extend((samples[k] + samples[k + 1]) / 2 for k in sample_before)
        return latencies


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced pass that took WALL seconds."""
    calls, incl, self_s, counts = spans.summarize(tracer.spans, tracer.counts)
    by_module = spans.module_self(self_s)
    rank_calls = spans.generator_rank_calls(tracer.spans)
    kept = counts.get("homology.generators_kept", 0)
    return {
        "kernel.echelon_s": incl["kernel.echelon"],
        "kernel.calls": calls["kernel.echelon"],
        "kernel.cells": counts.get("kernel.cells", 0),
        "exact.backsub_s": self_s["exact.solve"] + self_s["exact.nullspace"],
        "exact.rank_calls": calls["exact.rank"],
        "exact.snf_s": incl["exact.snf"],
        "homology.generators_s": incl["homology.generators"],
        "homology.generator_yield": kept / rank_calls if rank_calls else 0.0,
        "homology.betti_s": incl["homology.betti"],
        "homology.torsion_s": incl["homology.torsion"],
        "homology.is_coboundary_s": incl["homology.is_coboundary"],
        "electrical.kvl_s": incl["electrical.kvl"],
        "electrical.kcl_s": incl["electrical.kcl"],
        "statics.assemble_s": incl["statics.assemble"],
        "statics.solve_s": incl["statics.solve"],
        "complexes.build_s": incl["complexes.build"],
        "complexes.cells": counts.get("complexes.cells", 0),
        "kinematics.build_s": incl["kinematics.build"],
        "dynamics.energy_s": incl["dynamics.energy"],
        "dynamics.balance_s": sum(
            incl[f"dynamics.{n}"] for n in ("momentum", "angular", "mass", "dalembert")
        ),
        "documents.parse_s": incl["documents.parse"],
        "documents.bytes": counts.get("documents.bytes", 0),
        "reports.emit_s": incl["reports.emit"],
        "reports.bytes": counts.get("reports.bytes", 0),
        "cli.dispatch_s": self_s["cli.run"],
        "chains.boundary_s": incl["chains.boundary"] + incl["chains.coboundary"],
        "share.kernel": by_module["kernel"] / wall,
        "share.kernel_exact": (by_module["kernel"] + by_module["exact"]) / wall,
        "share.homology_generators": incl["homology.generators"] / wall,
        "share.documents_kinematics_complexes": (
            by_module["documents"] + by_module["kinematics"] + by_module["complexes"]
        ) / wall,
    }


# Written predictions of where each workload spends its time:
# (workload, share metric, comparison, bound)
PREDICTIONS = (
    ("grid-statics", "share.kernel_exact", ">", 0.5),
    ("grid-homology", "share.homology_generators", ">", 0.5),
    ("trajectory", "share.documents_kinematics_complexes", ">", 0.5),
    ("fixtures", "share.kernel", "<", 0.05),
    ("trajectory", "share.kernel", "<", 0.05),
)


def check_predictions(workload, metrics):
    lines, failed = [], 0
    for name, metric, op, bound in PREDICTIONS:
        if name != workload:
            continue
        value = metrics[metric]
        held = value > bound if op == ">" else value < bound
        failed += not held
        lines.append(
            f"prediction {metric} {op} {bound}: {value:.3f} "
            + ("held" if held else "FAILED")
        )
    return lines, failed


def main(argv):
    root, workload, seed, seconds, traced, out_path = argv
    seconds, traced = float(seconds), traced == "1"
    _load(root)

    goldens = {
        p.stem: p.read_text()
        for p in Path(root, "perfbench", "goldens").glob("*.txt")
    }
    cases = workloads.corpus(workload, random.Random(int(seed)), root, goldens)
    run = Run(workload, cases)
    run.checked_pass()

    result = {"backend": homnet.KERNEL_BACKEND, "documents_per_pass": len(cases)}
    if not traced:
        doc_refs = array.array("d")
        min_passes = max(3, workloads.tail_passes(workload, len(cases)))
        latencies = run.timed_passes(seconds, min_passes, doc_refs)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(latencies=list(latencies), doc_refs=list(doc_refs),
                      peak_rss_mb=peak_kb / 1024)
    else:
        # untraced and traced passes alternate, so drift hits both alike
        tracer = spans.Tracer()
        tracer.capture = []
        untraced, per_pass = [], []
        deadline = time.perf_counter() + seconds
        while len(per_pass) < 2 or time.perf_counter() < deadline:
            untraced.append(sum(run.timed_passes(0, min_passes=1)))
            tracer.install()
            try:
                wall = sum(run.timed_passes(0, min_passes=1))
            finally:
                tracer.uninstall()
            if not per_pass:
                captured, tracer.capture = tracer.capture, None
            per_pass.append((wall, layer_metrics(tracer, wall)))
            tracer.reset()
        metrics = {
            key: statistics.median(m[key] for _, m in per_pass)
            for key in per_pass[0][1]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in per_pass) - statistics.median(untraced)
        )
        metrics.update(replay.replay(captured, pure, replay.build_compiled(root)))
        lines, failed = check_predictions(workload, metrics)
        metrics["predictions.failed"] = failed
        result.update(layers=metrics, predictions=lines)

    result.update(
        attempted=run.attempted,
        failed=run.failed,
        wrong=run.wrong,
        problems=sorted(set(run.problems)),
    )
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
