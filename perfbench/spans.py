"""Span tracing of the package from outside, for the per-layer metrics.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record a span (name, start, end, parent span) and
update counters, in memory.  Every binding of the same function object in
a loaded ``homnet`` module is replaced, so ``from .x import f`` call sites
are traced as well; ``uninstall`` puts the originals back.  The program
itself is not modified.

Self time of a span is its duration minus the durations of its direct
children; children never overlap because the work is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _kernel_before(tracer, args):
    rows, ncols = args
    tracer.counts["kernel.cells"] += len(rows) * ncols
    if tracer.capture is not None:
        tracer.capture.append(([list(r) for r in rows], ncols))


def _parse_before(tracer, args):
    tracer.counts["documents.bytes"] += len(args[0])


def _emit_after(tracer, args, result):
    tracer.counts["reports.bytes"] += len(result)


def _complex_after(tracer, args, result):
    tracer.counts["complexes.cells"] += sum(args[0].r)


def _generators_after(tracer, args, result):
    complex, k = args
    if 0 < k < complex.dim:
        tracer.counts["homology.generators_kept"] += len(result)


# (module, attribute, span name, hook before the call, hook after it)
TARGETS = (
    ("homnet._kernel", "echelon", "kernel.echelon", _kernel_before, None),
    ("homnet.exact", "rank", "exact.rank", None, None),
    ("homnet.exact", "solve", "exact.solve", None, None),
    ("homnet.exact", "nullspace", "exact.nullspace", None, None),
    ("homnet.exact", "smith_normal_form", "exact.snf", None, None),
    ("homnet.homology", "homology_generators", "homology.generators", None,
     _generators_after),
    ("homnet.homology", "betti_numbers", "homology.betti", None, None),
    ("homnet.homology", "torsion_coefficients", "homology.torsion", None, None),
    ("homnet.homology", "euler_characteristic", "homology.euler", None, None),
    ("homnet.homology", "is_coboundary", "homology.is_coboundary", None, None),
    ("homnet.homology", "cycle_basis", "homology.cycle_basis", None, None),
    ("homnet.electrical", "kcl_check", "electrical.kcl", None, None),
    ("homnet.electrical", "kvl_check", "electrical.kvl", None, None),
    ("homnet.statics", "equilibrium_matrix", "statics.assemble", None, None),
    ("homnet.statics", "solve_statics", "statics.solve", None, None),
    ("homnet.complexes", "Complex.__init__", "complexes.build", None,
     _complex_after),
    ("homnet.kinematics", "build_kinematical_complex", "kinematics.build",
     None, None),
    ("homnet.kinematics", "spatial_trace", "kinematics.spatial_trace", None,
     None),
    ("homnet.dynamics", "work_energy_check", "dynamics.energy", None, None),
    ("homnet.dynamics", "momentum_balance_check", "dynamics.momentum", None,
     None),
    ("homnet.dynamics", "angular_momentum_balance", "dynamics.angular", None,
     None),
    ("homnet.dynamics", "mass_balance_check", "dynamics.mass", None, None),
    ("homnet.dynamics", "dalembert_residual", "dynamics.dalembert", None, None),
    ("homnet.documents", "parse", "documents.parse", _parse_before, None),
    ("homnet.reports", "emit", "reports.emit", None, _emit_after),
    ("homnet.cli", "run", "cli.run", None, None),
    ("homnet.chains", "boundary", "chains.boundary", None, None),
    ("homnet.chains", "coboundary", "chains.coboundary", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self.counts = defaultdict(int)
        self.capture = None  # list receiving (rows, ncols) kernel inputs
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, fn, name, before, after):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            spans = self.spans
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("homnet")]
        for module_name, attr, name, before, after in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(fn, name, before, after))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(fn, name, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans, counts):
    """Per span name: call count, inclusive seconds and self seconds; plus
    the counters.  Returns (calls, incl, self_s, counts)."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += (end - start) / 1e9
        self_s[name] += (end - start - child[k]) / 1e9
    return calls, incl, self_s, dict(counts)


def generator_rank_calls(spans):
    """exact.rank spans whose direct parent is homology.generators."""
    return sum(
        1 for name, _, _, parent in spans
        if name == "exact.rank" and parent >= 0
        and spans[parent][0] == "homology.generators"
    )


def module_self(self_s):
    """Self seconds summed per module (the span name's first part)."""
    out = defaultdict(float)
    for name, seconds in self_s.items():
        out[name.split(".")[0]] += seconds
    return out
