#!/usr/bin/env python3
"""The homnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package in ``src/``
as it stands (no install).  Workloads and metrics are declared in
``BENCHMARK.json``.  Each workload runs in a child process
(``worker.py``), so peak memory is per workload and a crash or an
out-of-memory kill is counted as failed work instead of killing this
harness.  Set-up time is measured here, in fresh interpreters, before the
child starts.  ``wall_s``, ``doc_*_s`` and ``setup_s`` are reference-scaled
seconds (see ``reference.py``); the raw seconds are printed too.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics of a traced run.  Comment lines starting with ``#``
come first (kernel backend, Python version, CPU count, the tail
percentile, the failure ratio, every failed analysis, the predictions);
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when a report fails its
check or the child dies; an analysis that raises is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 21
RUN_LIMIT_S = 170  # every run, set-up included, ends within 180 s


def tail_latency(latencies, percentile):
    """The nearest-rank PERCENTILE of LATENCIES, and how many lie beyond it."""
    n = len(latencies)
    rank = workloads.tail_rank(percentile, n)
    return sorted(latencies)[rank - 1], n - rank


def time_metrics(latencies, per_pass, percentile):
    """wall_s, doc_p50_s and doc_tail_s of a run's document latencies (pass
    after pass), and how many latencies lie beyond the tail."""
    walls = [sum(latencies[k:k + per_pass]) for k in range(0, len(latencies), per_pass)]
    # the median document: over the corpus, each document's median
    # latency.  A median over all latencies would fall in the gap between
    # two documents' bands on an even corpus (the 10 fixtures).
    typical = [statistics.median(latencies[i::per_pass]) for i in range(per_pass)]
    tail, beyond = tail_latency(latencies, percentile)
    return {
        "wall_s": statistics.median(walls),
        "doc_p50_s": statistics.median(typical),
        "doc_tail_s": tail,
    }, beyond


def measure_setup(root, env):
    """Seconds from a fresh interpreter to ``import homnet`` done (which
    picks the kernel backend), in reference-scaled seconds: the median over
    SETUP_SPAWNS spawns, each scaled by the mean of the reference samples
    taken just before and just after it.  One untimed spawn comes first.
    Returns (scaled, raw median, reference median)."""
    cmd = [sys.executable, "-c", "import homnet"]
    subprocess.run(cmd, cwd=root, env=env, check=True)
    times, refs = [], [reference.measure()]
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        times.append(time.perf_counter() - t0)
        refs.append(reference.measure())
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    scaled = [t * reference.NOMINAL_S / r for t, r in zip(times, around)]
    return statistics.median(scaled), statistics.median(times), statistics.median(refs)


def run_worker(root, env, args, out_path, timeout):
    """Run the workload child; returns its exit code."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(root), args.workload,
        str(args.seed), str(args.seconds), str(args.trace), str(out_path),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "homnet" / "__init__.py").is_file() or not (
        root / "fixtures"
    ).is_dir():
        print("error: run from the root of a homnet checkout "
              "(src/homnet and fixtures/ not found)", file=sys.stderr)
        return 2
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    out_path = build / f"result-{os.getpid()}.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    # the workload and its reference share one CPU (children inherit it),
    # so the reference measures the CPU the workload runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup = None if args.trace else measure_setup(root, env)
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    code = run_worker(root, env, args, out_path, timeout)
    result = json.loads(out_path.read_text()) if out_path.exists() else None
    out_path.unlink(missing_ok=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()}"
          f" backend={result['backend'] if result else 'unknown'}")
    if code != 0 or result is None:
        print(f"# worker failed: exit code {code}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0

    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_ratio = {failed / attempted:.6g}"
          f" ({failed} of {attempted} analyses failed)")
    for line in result["problems"]:
        print(f"# failed: {line}")

    if args.trace:
        declared = spec["per_layer"]
        values = result["layers"]
        for line in result["predictions"]:
            print(f"# {line}")
    else:
        declared = spec["end_to_end"]
        latencies = result["latencies"]
        per_pass = result["documents_per_pass"]
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        raw, beyond = time_metrics(latencies, per_pass, percentile)
        # each document scaled by the reference samples around it
        values, _ = time_metrics(
            [t * reference.NOMINAL_S / r for t, r in zip(latencies, result["doc_refs"])],
            per_pass, percentile,
        )
        print(f"# {len(latencies) // per_pass} passes of {per_pass} documents;"
              " wall_s is the median pass")
        print(f"# doc_tail_s is p{percentile:g} of {len(latencies)} documents,"
              f" {beyond} beyond it")
        print("# wall_s and doc_*_s are reference-scaled per document: reference"
              f" median {statistics.median(result['doc_refs']) * 1e3:.2f} ms,"
              f" nominal {reference.NOMINAL_S * 1e3:g} ms; raw seconds: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print(f"# setup_s is reference-scaled: raw median {setup[1]:.6g} s of"
              f" {SETUP_SPAWNS} spawns, reference median {setup[2] * 1e3:.2f} ms")
        values.update(
            setup_s=setup[0],
            peak_rss_mb=result["peak_rss_mb"],
            ok_ratio=1 - failed / attempted,
        )

    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
