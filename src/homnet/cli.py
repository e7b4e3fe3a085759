"""Command-line interface: run analyses over network documents and emit
deterministic text or JSON reports.

Exit status is 0 when every requested analysis passes and otherwise the
number of failing analyses (capped at 100).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import documents, electrical, homology
from . import dynamics as dyn
from . import statics as st
from .chains import Chain, boundary
from .coeffs import DEFAULT_TOL, Bivector, covector
from .errors import HomnetError, MissingData, UnknownCommand
from .geometry import maxwell_dof
from .kinematics import KinematicalComplex
from .reports import AnalysisReport, emit, provenance_for


# ---------------------------------------------------------------------------
# attribute assembly helpers
# ---------------------------------------------------------------------------

def _static_vector(value, path):
    if documents.is_sample_list(value):
        raise MissingData(path, f"{path}: expected one vector, got samples")
    return tuple(value)


def _node_forces_static(doc):
    forces = {}
    for lab, value in doc.node_attr("force").items():
        forces[lab] = _static_vector(value, "nodes[*].force")
    return forces


def _branch_internal_series(doc, samples):
    out = {}
    for lab, value in doc.branch_attr("internal_force").items():
        a = doc.complex.branch_index(lab)
        if not isinstance(value, tuple):
            raise MissingData(
                "branches[*].internal_force",
                "trajectory analyses need vector internal forces",
            )
        out[a] = np.tile([float(c) for c in value], (samples, 1))
    return out


def _dynamics_state(doc):
    if doc.signal is None:
        raise MissingData("signal", "trajectory analyses need a signal block")
    masses = doc.node_attr("mass")
    if not masses:
        raise MissingData("nodes[*].mass")
    by_index = {doc.complex.node_index(k): v for k, v in masses.items()}
    return dyn.DynamicsState(
        complex=doc.complex,
        n=doc.dimension,
        dt=doc.dt,
        trajectories=doc.trajectories(),
        masses=by_index,
        flows=_sampled(doc.branch_attr("mass_flow"), doc.complex.branch_index,
                       doc.samples),
    )


def _sampled(values, index, samples):
    """Attribute values keyed by simplex index, each broadcast to a series of
    the given length (a constant stays constant)."""
    return {
        index(k): np.broadcast_to(np.asarray(v, dtype=float), (samples,))
        for k, v in values.items()
    }


def _force_complex(doc):
    g = doc.geometric_complex()
    external = _node_forces_static(doc)
    internal = {}
    axial = {}
    for lab, value in doc.branch_attr("internal_force").items():
        if isinstance(value, tuple):
            internal[lab] = value
        else:
            axial[lab] = value
    return st.force_complex(
        g,
        external=external,
        internal=internal or None,
        axial=axial or None,
    )


def _residual_map(chain):
    labels = chain.complex.labels(chain.dim)
    out = {}
    for i, v in chain.coeffs.items():
        comps = chain.module.to_components(v)
        out[labels[i]] = comps[0] if len(comps) == 1 else comps
    return out


def _chain_labels(chain):
    labels = chain.complex.labels(chain.dim)
    return {labels[i]: v for i, v in sorted(chain.coeffs.items())}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_homology(doc, options):
    info = homology.summary(doc.complex)
    gens = {
        f"H{k}": [_chain_labels(g) for g in gen]
        for k, gen in enumerate(info.generators)
    }
    return AnalysisReport(
        command="homology",
        verdict="value",
        numbers={
            "betti": info.betti,
            "euler": info.euler,
            "torsion": info.torsion,
            "components": len(info.generators[0]),
        },
        details={"generators": gens},
    )


def _run_kcl(doc, options):
    currents = doc.branch_attr("current")
    if not currents:
        raise MissingData("branches[*].current")
    charges = doc.node_attr("charge") or None
    has_series = any(isinstance(v, np.ndarray) for v in currents.values()) or any(
        isinstance(v, np.ndarray) for v in (charges or {}).values()
    )
    if has_series:
        state = electrical.circuit_state(
            doc.complex, currents, charges=charges, dt=doc.dt, samples=doc.samples
        )
    else:
        state = electrical.circuit_state(doc.complex, currents, charges=charges)
    tol = options.get("tolerance", DEFAULT_TOL)
    rep = electrical.kcl_check(state, tol)
    balanced = rep.residual.is_zero(0 if state.module.exact else tol)
    return AnalysisReport(
        command="kcl",
        verdict="pass" if balanced else "fail",
        numbers={
            "conserved": rep.conserved,
            "extended_cycle": rep.extended_cycle,
            "max_residual": rep.max_residual,
        },
        residuals={"nodes": _residual_map(rep.residual)},
    )


def _run_kvl(doc, options):
    voltages = doc.node_attr("voltage")
    if not voltages:
        raise MissingData("nodes[*].voltage")
    if doc.complex.r[1] == 0:
        # no branches: the voltage law holds vacuously
        return AnalysisReport(command="kvl", verdict="pass")
    has_series = any(isinstance(v, np.ndarray) for v in voltages.values())
    kwargs = {"dt": doc.dt, "samples": doc.samples} if has_series else {}
    state = electrical.circuit_state(
        doc.complex,
        {lab: 0 for lab in doc.complex.branch_labels} or {},
        voltages=voltages,
        **kwargs,
    )
    dv = electrical.voltage_drop(state)
    tol = options.get("tolerance", DEFAULT_TOL)
    rep = electrical.kvl_check(dv, tol)
    report = AnalysisReport(
        command="kvl",
        verdict="pass" if rep.passed else "fail",
        numbers={},
        residuals={"drops": _residual_map(dv)},
    )
    if rep.passed:
        report.details["potential"] = _residual_map(rep.potential)
    else:
        report.details["witness_cycle"] = _chain_labels(rep.witness_cycle)
        report.numbers["cycle_sum"] = rep.cycle_sum
    return report


def _run_statics(doc, options):
    g = doc.geometric_complex()
    forces = _node_forces_static(doc)
    if not forces:
        raise MissingData("nodes[*].force")
    mod = covector(doc.dimension)
    f_ext = Chain(
        doc.complex,
        0,
        {doc.complex.node_index(k): tuple(v) for k, v in forces.items()},
        mod,
    )
    sol = st.solve_statics(g, f_ext)
    labels = doc.complex.branch_labels
    numbers = {
        "classification": sol.classification,
        "self_stress_dim": sol.self_stress_dim,
    }
    details = {
        "self_stress_basis": [_chain_labels(b) for b in sol.self_stress_basis],
    }
    verdict = "value" if sol.classification != "infeasible" else "fail"
    if sol.tension_coefficients is not None:
        details["tension_coefficients"] = {
            labels[a]: q for a, q in enumerate(sol.tension_coefficients)
        }
        details["axial_forces"] = {
            labels[a]: f for a, f in enumerate(sol.axial_forces)
        }
        reconstruction = f_ext + boundary(sol.internal_force_chain())
        numbers["reconstruction_exact"] = reconstruction.is_zero(0)
    return AnalysisReport(
        command="statics", verdict=verdict, numbers=numbers, details=details
    )


def _run_moments(doc, options):
    origin = options.get("origin")
    if origin is None:
        raise MissingData("origin", "moment balance needs --origin NODE_ID")
    fc = _force_complex(doc)
    applied = {}
    for lab, comps in doc.node_attr("moment").items():
        applied[doc.complex.node_index(lab)] = Bivector(
            doc.dimension, tuple(comps)
        )
    tol = options.get("tolerance", DEFAULT_TOL)
    rep = st.moment_equilibrium_check(fc, origin, applied_moments=applied, tol=tol)
    return AnalysisReport(
        command="moments",
        verdict="pass" if rep.passed else "fail",
        numbers={"residual_norm": rep.residual.norm()},
        residuals={"moment": list(rep.residual.comps)},
        details={"origin": list(rep.origin)},
    )


def _run_rigidity(doc, options):
    g = doc.geometric_complex()
    dof = maxwell_dof(g)
    r0, r1, _ = doc.complex.r
    return AnalysisReport(
        command="rigidity",
        verdict="value",
        numbers={"dof": dof, "nodes": r0, "branches": r1, "dimension": doc.dimension},
    )


def _run_mass(doc, options):
    masses = doc.node_attr("mass")
    if not masses:
        raise MissingData("nodes[*].mass")
    flows = doc.branch_attr("mass_flow")
    tol = options.get("tolerance", DEFAULT_TOL)
    samples = doc.samples or 1
    state = dyn.DynamicsState(
        complex=doc.complex,
        n=doc.dimension,
        dt=doc.dt,
        masses=_sampled(masses, doc.complex.node_index, samples),
        flows=_sampled(flows, doc.complex.branch_index, samples),
    )
    rep = dyn.mass_balance_check(state, tol)
    return AnalysisReport(
        command="mass",
        verdict="pass" if rep.max_residual <= tol else "fail",
        numbers={
            "max_residual": rep.max_residual,
            "flow_is_cycle": rep.flow_is_cycle,
            "total_mass_constant": rep.total_mass_constant,
        },
    )


def _run_momentum(doc, options):
    d = _dynamics_state(doc)
    tol = options.get("tolerance", DEFAULT_TOL)
    f_ext = doc.node_series("force")
    f_int = _branch_internal_series(doc, d.samples)
    rep = dyn.momentum_balance_check(d, f_ext=f_ext, f_int=f_int, tol=tol)
    numbers = {
        "max_residual": rep.max_residual,
        "max_residual_with_ends": rep.max_residual_full,
        "max_collective_residual": rep.max_collective,
    }
    t0, t1 = options.get("t0"), options.get("t1")
    if t0 is not None and t1 is not None and f_ext:
        numbers["impulse_momentum_gap"] = dyn.impulse_momentum_gap(
            d, f_ext, int(t0), int(t1)
        )
    passed = rep.max_residual <= tol and rep.max_collective <= tol
    return AnalysisReport(
        command="momentum",
        verdict="pass" if passed else "fail",
        numbers=numbers,
    )


def _run_angular(doc, options):
    d = _dynamics_state(doc)
    tol = options.get("tolerance", DEFAULT_TOL)
    origin = options.get("origin")
    if origin is not None:
        origin = doc.static_positions()[origin]
    forces = doc.node_series("force")
    rep = dyn.angular_momentum_balance(d, forces=forces, origin=origin, tol=tol)
    return AnalysisReport(
        command="angular",
        verdict="pass" if rep.max_residual <= tol else "fail",
        numbers={
            "max_residual": rep.max_residual,
            "max_residual_with_ends": rep.max_residual_full,
            "max_drift": rep.max_drift,
        },
    )


def _run_energy(doc, options):
    d = _dynamics_state(doc)
    tol = options.get("tolerance", 1e-6)
    k = KinematicalComplex(
        base=doc.complex,
        positions=np.stack([d.trajectory(i) for i in range(doc.complex.r[0])], axis=1),
    )
    series = doc.node_series("force")
    if not series:
        raise MissingData("nodes[*].force")
    forces = {i: f[: k.steps] for i, f in series.items()}
    for i in range(doc.complex.r[0]):
        forces.setdefault(i, np.zeros((k.steps, doc.dimension)))
    rep = dyn.work_energy_check(d, k, forces, tol)
    return AnalysisReport(
        command="energy",
        verdict="pass" if rep.passed else "fail",
        numbers={
            "max_work_energy_gap": rep.max_work_energy_gap,
            "max_energy_drift": rep.max_energy_drift,
        },
    )


def _run_virtual_work(doc, options):
    fc = _force_complex(doc)
    tol = options.get("tolerance")
    by_sweep = st.equilibrium_via_virtual_work(fc, tol)
    direct = st.equilibrium_check(
        fc, tol if tol is not None else DEFAULT_TOL
    ).in_equilibrium
    return AnalysisReport(
        command="virtual-work",
        verdict="pass" if by_sweep else "fail",
        numbers={
            "equilibrium_by_virtual_work": by_sweep,
            "equilibrium_by_balance": direct,
            "verdicts_agree": by_sweep == direct,
        },
    )


def _run_dalembert(doc, options):
    d = _dynamics_state(doc)
    tol = options.get("tolerance", 1e-6)
    f_ext = doc.node_series("force")
    f_int = _branch_internal_series(doc, d.samples)
    worst = 0.0
    for i in range(doc.complex.r[0]):
        for c in range(doc.dimension):
            unit = tuple(1.0 if k == c else 0.0 for k in range(doc.dimension))
            worst = dyn.nan_max(
                worst,
                dyn.dalembert_residual(d, {i: unit}, f_ext=f_ext, f_int=f_int),
            )
    return AnalysisReport(
        command="dalembert",
        verdict="pass" if worst <= tol else "fail",
        numbers={"max_residual": worst},
    )


_RUNNERS = {
    "homology": _run_homology,
    "kcl": _run_kcl,
    "kvl": _run_kvl,
    "statics": _run_statics,
    "moments": _run_moments,
    "rigidity": _run_rigidity,
    "mass": _run_mass,
    "momentum": _run_momentum,
    "angular": _run_angular,
    "energy": _run_energy,
    "virtual-work": _run_virtual_work,
    "dalembert": _run_dalembert,
}


def run(doc, command, options=None):
    """Dispatch one analysis over a parsed document and return its report.

    Floating-point overflow and invalid operations are not warned about:
    they leave an infinite or NaN residual, which fails its verdict and is
    printed in the report."""
    options = dict(options or {})
    if command == "report-all":
        raise UnknownCommand("report-all expands to the document's analyses")
    if command not in _RUNNERS:
        raise UnknownCommand(f"unknown command {command!r}")
    try:
        with np.errstate(all="ignore"):
            report = _RUNNERS[command](doc, options)
    except MissingData as exc:
        report = AnalysisReport(
            command=command,
            verdict="error",
            details={"error": str(exc), "missing": exc.attribute},
        )
    report.provenance = provenance_for(doc.source_text)
    return report


def run_all(doc, cli_options=None):
    """Run every analysis requested by the document, in document order."""
    if not doc.analyses:
        raise MissingData("analyses", "report-all needs an analyses list")
    reports = []
    for request in doc.analyses:
        options = dict(request.options)
        for key, value in (cli_options or {}).items():
            options.setdefault(key, value)
        reports.append(run(doc, request.command, options))
    return reports


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homnet",
        description="Homological verification of network physics documents.",
    )
    parser.add_argument(
        "command",
        choices=sorted(_RUNNERS) + ["report-all"],
        help="analysis to run",
    )
    parser.add_argument("--input", type=Path, help="network document (JSON)")
    parser.add_argument(
        "--input-dir", type=Path, help="run over every .json document in a directory"
    )
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--origin", type=str, default=None)
    parser.add_argument("--t0", type=int, default=None)
    parser.add_argument("--t1", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cli_options(args):
    options = {}
    if args.tolerance is not None:
        options["tolerance"] = args.tolerance
    if args.origin is not None:
        options["origin"] = args.origin
    if args.t0 is not None:
        options["t0"] = args.t0
    if args.t1 is not None:
        options["t1"] = args.t1
    return options


def _reports_for_path(path, args):
    doc = documents.parse(path.read_text())
    options = _cli_options(args)
    if args.command == "report-all":
        return run_all(doc, options)
    merged = {}
    for request in doc.analyses:
        if request.command == args.command:
            merged = dict(request.options)
            break
    merged.update(options)
    return [run(doc, args.command, merged)]


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if (args.input is None) == (args.input_dir is None):
        print("exactly one of --input or --input-dir is required", file=sys.stderr)
        return 2
    try:
        if args.input is not None:
            reports = _reports_for_path(args.input, args)
            sys.stdout.buffer.write(emit(reports, args.format))
        else:
            failures = 0
            for path in sorted(args.input_dir.glob("*.json")):
                reports = _reports_for_path(path, args)
                header = f"# {path.name}\n".encode()
                sys.stdout.buffer.write(header)
                sys.stdout.buffer.write(emit(reports, args.format))
                failures += sum(1 for r in reports if not r.passed)
            return min(failures, 100)
    except HomnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return min(sum(1 for r in reports if not r.passed), 100)


if __name__ == "__main__":
    sys.exit(main())
