"""Command-line interface: run analyses over network documents and emit
deterministic text or JSON reports.

Exit status is 0 when every requested analysis passes, 1 when any of them
fails, and 2 on a usage or document error.

numpy is imported only to parse sample lists and by the sampled analyses
(``_SAMPLED``), so a document without sample lists runs its other analyses
without it, whether its values are exact or floats.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction
from pathlib import Path

from . import documents, electrical, homology
from . import dynamics as dyn
from . import statics as st
from .chains import Chain
from .coeffs import Bivector, covector
from .errors import HomnetError, MissingData, UnknownCommand, UnreadableInput
from .geometry import maxwell_dof
from .kinematics import KinematicalComplex
from .reports import AnalysisReport, emit, provenance_for


# ---------------------------------------------------------------------------
# attribute assembly helpers
# ---------------------------------------------------------------------------

def _node_forces_static(doc):
    forces = doc.node_attr("force")
    if any(map(documents.is_sample_list, forces.values())):
        path = "nodes[*].force"
        raise MissingData(path, f"{path}: expected one vector, got samples")
    return forces


def _branch_internal_vectors(doc):
    """Internal forces by branch index; a static vector stands for every
    sample."""
    out = {}
    for lab, value in doc.branch_attr("internal_force").items():
        if not isinstance(value, tuple):
            raise MissingData(
                "branches[*].internal_force",
                "trajectory analyses need vector internal forces",
            )
        out[doc.complex.branch_index(lab)] = value
    return out


def _dynamics_state(doc):
    """The document's dynamics state, built once and shared by `momentum`,
    `angular`, `dalembert` and `energy`, so the stacked velocity, momentum
    and momentum rate of all nodes are computed once per document."""
    return doc.memo("dynamics", lambda: _build_dynamics_state(doc))


def _build_dynamics_state(doc):
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
    import numpy as np

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


# Largest norm of a float residual entry that a report leaves out.
_PRINT_FLOOR = 1e-12


def _print_floor(options):
    """The print floor of one request's residual maps: never above its
    tolerance, so every entry that a verdict counted as nonzero is printed."""
    return min(_PRINT_FLOOR, options.get("tolerance", _PRINT_FLOOR))


def _residual_map(chain, floor=None):
    """Circuit values by label.  Exact scalars, integral or not, are
    written as rationals, so a report reads the same over either exact
    kind.  A float entry whose norm is within ``floor``, when one is given,
    is left out."""
    labels = chain.complex.labels(chain.dim)
    if chain.module.exact:
        return {labels[i]: Fraction(v) for i, v in chain.coeffs.items()}
    mod = chain.module
    out = {}
    for i, v in chain.coeffs.items():
        if floor is not None and mod.norm(v) <= floor:
            continue
        comps = mod.to_components(v)
        out[labels[i]] = comps[0] if len(comps) == 1 else comps
    return out


def _chain_labels(chain):
    labels = chain.complex.labels(chain.dim)
    return {labels[i]: v for i, v in sorted(chain.coeffs.items())}


def _tol(options):
    """The tolerance option as keyword arguments of a check: none when the
    option is unset, so the check's own default applies."""
    return {"tol": options["tolerance"]} if "tolerance" in options else {}


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
    has_series = any(
        map(documents.is_array, [*currents.values(), *(charges or {}).values()])
    )
    kwargs = {"dt": doc.dt, "samples": doc.samples} if has_series else {}
    state = electrical.circuit_state(doc.complex, currents, charges=charges, **kwargs)
    rep = electrical.kcl_check(state, **_tol(options))
    nodes = _residual_map(rep.residual, _print_floor(options))
    return AnalysisReport(
        command="kcl",
        verdict="pass" if rep.balanced else "fail",
        numbers={
            "conserved": rep.conserved,
            "extended_cycle": rep.extended_cycle,
            "max_residual": rep.max_residual if nodes else 0.0,
        },
        residuals={"nodes": nodes},
    )


def _run_kvl(doc, options):
    voltages = doc.node_attr("voltage")
    if not voltages:
        raise MissingData("nodes[*].voltage")
    if doc.complex.r[1] == 0:
        # no branches: the voltage law holds vacuously
        return AnalysisReport(command="kvl", verdict="pass")
    has_series = any(map(documents.is_array, voltages.values()))
    kwargs = {"dt": doc.dt, "samples": doc.samples} if has_series else {}
    state = electrical.circuit_state(doc.complex, {}, voltages=voltages, **kwargs)
    dv = electrical.voltage_drop(state)
    rep = electrical.kvl_check(dv, **_tol(options))
    report = AnalysisReport(
        command="kvl",
        verdict="pass" if rep.passed else "fail",
        numbers={},
        residuals={"drops": _residual_map(dv, _print_floor(options))},
    )
    if rep.passed:
        report.details["potential"] = _residual_map(rep.potential)
    else:
        report.details["witness_cycle"] = _chain_labels(rep.witness_cycle)
        report.numbers["cycle_sum"] = (
            Fraction(rep.cycle_sum) if dv.module.exact else rep.cycle_sum
        )
    return report


def _run_statics(doc, options):
    g = doc.geometric_complex()
    forces = _node_forces_static(doc)
    if not forces:
        raise MissingData("nodes[*].force")
    by_index = {doc.complex.node_index(k): v for k, v in forces.items()}
    f_ext = Chain(doc.complex, 0, by_index, covector(doc.dimension))
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
        numbers["reconstruction_exact"] = sol.reconstruction_exact(f_ext)
    return AnalysisReport(
        command="statics", verdict=verdict, numbers=numbers, details=details
    )


def _run_moments(doc, options):
    origin = options.get("origin")
    if origin is None:
        raise MissingData("origin", "moment balance needs --origin NODE_ID")
    fc = _force_complex(doc)
    applied = {
        doc.complex.node_index(lab): Bivector(doc.dimension, comps)
        for lab, comps in doc.node_attr("moment").items()
    }
    rep = st.moment_equilibrium_check(
        fc, origin, applied_moments=applied, **_tol(options)
    )
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
    samples = doc.samples or 1
    state = dyn.DynamicsState(
        complex=doc.complex,
        n=doc.dimension,
        dt=doc.dt,
        masses=_sampled(masses, doc.complex.node_index, samples),
        flows=_sampled(flows, doc.complex.branch_index, samples),
    )
    rep = dyn.mass_balance_check(state, **_tol(options))
    return AnalysisReport(
        command="mass",
        verdict="pass" if rep.passed else "fail",
        numbers={
            "max_residual": rep.max_residual,
            "flow_is_cycle": rep.flow_is_cycle,
            "total_mass_constant": rep.total_mass_constant,
        },
    )


def _run_momentum(doc, options):
    d = _dynamics_state(doc)
    f_ext = doc.node_series("force")
    f_int = _branch_internal_vectors(doc)
    rep = dyn.momentum_balance_check(d, f_ext=f_ext, f_int=f_int, **_tol(options))
    numbers = {
        "max_residual": rep.max_residual,
        "max_residual_with_ends": rep.max_residual_full,
        "max_collective_residual": rep.max_collective,
    }
    if "t0" in options:  # options give both bounds or neither
        numbers["impulse_momentum_gap"] = dyn.impulse_momentum_gap(
            d, f_ext, options["t0"], options["t1"]
        )
    return AnalysisReport(
        command="momentum",
        verdict="pass" if rep.passed else "fail",
        numbers=numbers,
    )


def _run_angular(doc, options):
    d = _dynamics_state(doc)
    origin = options.get("origin")
    if origin is not None:
        doc.complex.node_index(origin)  # an unknown node raises UnknownLabel
        origin = doc.static_positions()[origin]
    forces = doc.node_series("force")
    rep = dyn.angular_momentum_balance(
        d, forces=forces, origin=origin, **_tol(options)
    )
    return AnalysisReport(
        command="angular",
        verdict="pass" if rep.passed else "fail",
        numbers={
            "max_residual": rep.max_residual,
            "max_residual_with_ends": rep.max_residual_full,
            "max_drift": rep.max_drift,
        },
    )


def _run_energy(doc, options):
    import numpy as np

    d = _dynamics_state(doc)
    k = KinematicalComplex(base=doc.complex, positions=d.positions)
    series = doc.node_series("force")
    if not series:
        raise MissingData("nodes[*].force")
    forces = {i: f[: k.steps] for i, f in series.items()}
    for i in range(doc.complex.r[0]):
        forces.setdefault(i, np.zeros((k.steps, doc.dimension)))
    rep = dyn.work_energy_check(d, k, forces, **_tol(options))
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
    by_sweep = st.equilibrium_via_virtual_work(fc, **_tol(options))
    direct = st.equilibrium_check(fc, **_tol(options)).in_equilibrium
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
    f_ext = doc.node_series("force")
    f_int = _branch_internal_vectors(doc)
    rep = dyn.dalembert_check(d, f_ext=f_ext, f_int=f_int, **_tol(options))
    return AnalysisReport(
        command="dalembert",
        verdict="pass" if rep.passed else "fail",
        numbers={"max_residual": rep.max_residual},
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


# analyses that turn their data into float arrays, exact data included
_SAMPLED = frozenset({"mass", "momentum", "angular", "energy", "dalembert"})


def _float_errors_ignored(command):
    """numpy's error state ignoring every floating-point error, whenever
    numpy can run: it is loaded already, or the analysis is a sampled one,
    which imports it.  Otherwise the analysis never imports numpy, and its
    float work, in plain Python, warns about nothing."""
    np = sys.modules.get("numpy")
    if np is None:
        if command not in _SAMPLED:
            return contextlib.nullcontext()
        import numpy as np
    return np.errstate(all="ignore")


def run(doc, command, options=None):
    """Dispatch one analysis over a parsed document and return its report.

    Floating-point overflow and invalid operations are not warned about:
    they leave an infinite or NaN residual, which fails its verdict and is
    printed in the report.  Options are checked like a document's."""
    options = documents.check_options(dict(options or {}), "options.")
    if command == "report-all":
        raise UnknownCommand("report-all expands to the document's analyses")
    if command not in _RUNNERS:
        raise UnknownCommand(f"unknown command {command!r}")
    try:
        with _float_errors_ignored(command):
            report = _RUNNERS[command](doc, options)
    except MissingData as exc:
        report = AnalysisReport(
            command=command,
            verdict="error",
            details={"error": str(exc), "missing": exc.attribute},
        )
    report.provenance = provenance_for(doc.source_sha256)
    return report


def run_all(doc, flags=None):
    """Run every analysis requested by the document, in document order;
    ``flags`` override each request's own options."""
    if not doc.analyses:
        raise MissingData("analyses", "report-all needs an analyses list")
    return [_run_request(doc, request, flags) for request in doc.analyses]


def _run_request(doc, request, flags):
    """Run one request; flags override the document's options."""
    return run(doc, request.command, {**request.options, **(flags or {})})


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


def _flags(args):
    """The analysis options set on the command line, checked by the rule
    of a document's options; an error names the flag."""
    flags = {
        name: value
        for name, value in vars(args).items()
        if name in documents.OPTION_TYPES and value is not None
    }
    return documents.check_options(flags, "--")


def _read_document(path):
    """The parsed document at PATH; a file that cannot be read or is not
    UTF-8 raises ``UnreadableInput``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(
            f"{path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from None
    return documents.parse(text)


def _reports_for_path(path, command, flags):
    """Reports of COMMAND on the document at PATH.  A single command runs
    with the options of the document's first request for it, if any."""
    doc = _read_document(path)
    if command == "report-all":
        return run_all(doc, flags)
    request = next(
        (r for r in doc.analyses if r.command == command),
        documents.AnalysisRequest(command),
    )
    return [_run_request(doc, request, flags)]


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if (args.input is None) == (args.input_dir is None):
        print("exactly one of --input or --input-dir is required", file=sys.stderr)
        return 2
    try:
        flags = _flags(args)
        if args.input is not None:
            reports = _reports_for_path(args.input, args.command, flags)
            sys.stdout.buffer.write(emit(reports, args.format))
        else:
            if not args.input_dir.is_dir():
                raise UnreadableInput(f"cannot read {args.input_dir}: not a directory")
            failed = False
            for path in sorted(args.input_dir.glob("*.json")):
                reports = _reports_for_path(path, args.command, flags)
                header = f"# {path.name}\n".encode()
                sys.stdout.buffer.write(header)
                sys.stdout.buffer.write(emit(reports, args.format))
                failed = failed or not all(r.passed for r in reports)
            return int(failed)
    except HomnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(not all(r.passed for r in reports))


if __name__ == "__main__":
    sys.exit(main())
