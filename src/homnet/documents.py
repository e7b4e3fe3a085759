"""Network document format: JSON with nodes, branches, faces, physical
attributes and a list of requested analyses.

Exact rationals may be written as strings "p/q" anywhere a number is
expected, which lets the statics and Kirchhoff verdicts run fully exactly.
Sampled signals are lists whose length must match the declared signal block;
node positions may be either a single coordinate list or one list per sample
when a signal is declared.  A sample list of finite floats is parsed into one
read-only float array; any other sample list is validated sample by sample,
so an error names its sample and int or "p/q" samples stay exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import Complex
from .errors import (
    DocumentSyntaxError,
    HomnetError,
    MissingData,
    ValidationError,
)
from .geometry import realize

_COMMANDS = (
    "homology",
    "kcl",
    "kvl",
    "statics",
    "moments",
    "rigidity",
    "mass",
    "momentum",
    "angular",
    "energy",
    "virtual-work",
    "dalembert",
    "report-all",
)


@dataclass
class AnalysisRequest:
    command: str
    options: dict = field(default_factory=dict)


@dataclass
class NetworkDocument:
    dimension: int
    signal: dict | None
    nodes: list
    branches: list
    faces: list
    analyses: list
    complex: Complex
    source_text: str = ""
    _series: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    # -- attribute collectors ------------------------------------------------

    @property
    def dt(self):
        return None if self.signal is None else self.signal["dt"]

    @property
    def samples(self):
        return None if self.signal is None else self.signal["samples"]

    def node_attr(self, name):
        out = {}
        for spec in self.nodes:
            if name in spec:
                out[spec["id"]] = spec[name]
        return out

    def branch_attr(self, name):
        out = {}
        for spec in self.branches:
            if name in spec:
                out[spec["id"]] = spec[name]
        return out

    def static_positions(self):
        """One coordinate tuple per node; trajectories yield their first sample."""
        pos = {}
        for spec in self.nodes:
            if "pos" not in spec:
                raise MissingData("nodes[*].pos")
            p = spec["pos"]
            if is_sample_list(p):
                p = p[0]
            pos[spec["id"]] = tuple(p.tolist() if isinstance(p, np.ndarray) else p)
        return pos

    def geometric_complex(self):
        return realize(self.complex, self.dimension, self.static_positions())

    def trajectories(self):
        """Node trajectories as float arrays of shape (samples, n), keyed by
        node index; static positions broadcast to a constant trajectory.
        Every node needs a position."""
        series = self.node_series("pos")
        if len(series) < len(self.nodes):
            raise MissingData("nodes[*].pos")
        return series

    def node_series(self, name):
        """A vector node attribute as float arrays of shape (samples, n),
        keyed by the index of each node that has it; a static vector
        broadcasts to a constant series.  A sample list parsed as a float
        array is shared as it is; any other is converted once per document.
        Every call shares the same read-only arrays."""
        if name not in self._series:
            if self.signal is None:
                raise MissingData("signal", "sampled series need a signal block")
            out = {}
            for spec in self.nodes:
                if name not in spec:
                    continue
                value = spec[name]
                i = self.complex.node_index(spec["id"])
                if isinstance(value, np.ndarray):
                    out[i] = value
                    continue
                if is_sample_list(value):
                    out[i] = np.array(
                        [[float(c) for c in row] for row in value], dtype=float
                    )
                else:
                    out[i] = np.tile([float(c) for c in value], (self.samples, 1))
                out[i].setflags(write=False)
            self._series[name] = out
        return dict(self._series[name])


def is_sample_list(value):
    if isinstance(value, np.ndarray):
        return value.ndim == 2
    return bool(value) and isinstance(value[0], (list, tuple))


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def parse(text):
    """Parse and validate a network document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.lineno, exc.msg) from None
    if not isinstance(raw, dict):
        raise ValidationError("$", "document must be a JSON object")

    dimension = raw.get("dimension")
    if not isinstance(dimension, int) or dimension < 1:
        raise ValidationError("dimension", "a positive integer dimension is required")

    signal = raw.get("signal")
    if signal is not None:
        signal = _parse_signal(signal)

    nodes = _parse_nodes(raw.get("nodes"), dimension, signal)
    branches = _parse_branches(raw.get("branches"), {n["id"] for n in nodes}, signal)
    faces = _parse_faces(raw.get("faces"), [b["id"] for b in branches])
    analyses = _parse_analyses(raw.get("analyses"))

    branch_ids = [b["id"] for b in branches]
    node_ids = [n["id"] for n in nodes]
    node_index = {lab: i for i, lab in enumerate(node_ids)}
    endpoint_pairs = [
        (node_index[b["tail"]], node_index[b["head"]]) for b in branches
    ]
    branch_index = {lab: a for a, lab in enumerate(branch_ids)}
    face_edges = []
    face_labels = []
    for k, f in enumerate(faces):
        edges = []
        for ref in f["edges"]:
            sign = 1
            name = ref
            if ref.startswith("-"):
                sign, name = -1, ref[1:]
            elif ref.startswith("+"):
                name = ref[1:]
            if name not in branch_index:
                raise ValidationError(
                    f"faces[{k}].edges", f"unknown branch {name!r}"
                )
            edges.append((branch_index[name], sign))
        face_edges.append(tuple(edges))
        face_labels.append(f["id"])

    try:
        complex = Complex(
            node_ids,
            endpoint_pairs,
            face_edges,
            branch_labels=branch_ids,
            face_labels=face_labels,
        )
    except HomnetError as exc:
        raise ValidationError("$", str(exc)) from None

    return NetworkDocument(
        dimension=dimension,
        signal=signal,
        nodes=nodes,
        branches=branches,
        faces=faces,
        analyses=analyses,
        complex=complex,
        source_text=text,
    )


def _parse_nodes(raw, dimension, signal):
    if not isinstance(raw, list) or not raw:
        raise ValidationError("nodes", "a nonempty node list is required")
    seen = set()
    out = []
    for k, spec in enumerate(raw):
        path = f"nodes[{k}]"
        if not isinstance(spec, dict) or "id" not in spec:
            raise ValidationError(path, "each node needs an id")
        nid = str(spec["id"])
        if nid in seen:
            raise ValidationError(f"{path}.id", f"duplicate node id {nid!r}")
        seen.add(nid)
        node = {"id": nid}
        if "pos" in spec:
            node["pos"] = _parse_vectors(
                spec["pos"], dimension, signal, f"{path}.pos", "position"
            )
        for attr in ("mass", "charge", "voltage"):
            if attr in spec:
                node[attr] = _parse_quantity(spec[attr], signal, f"{path}.{attr}")
        if "force" in spec:
            node["force"] = _parse_vectors(
                spec["force"], dimension, signal, f"{path}.force", "force"
            )
        if "moment" in spec:
            comps = dimension * (dimension - 1) // 2
            node["moment"] = _parse_fixed_list(
                spec["moment"], comps, f"{path}.moment"
            )
        out.append(node)
    return out


def _parse_branches(raw, node_ids, signal):
    if not isinstance(raw, list):
        raise ValidationError("branches", "a branch list is required")
    seen = set()
    out = []
    for k, spec in enumerate(raw):
        path = f"branches[{k}]"
        if not isinstance(spec, dict) or "id" not in spec:
            raise ValidationError(path, "each branch needs an id")
        bid = str(spec["id"])
        if bid in seen:
            raise ValidationError(f"{path}.id", f"duplicate branch id {bid!r}")
        seen.add(bid)
        branch = {"id": bid}
        for end in ("tail", "head"):
            if end not in spec:
                raise ValidationError(f"{path}.{end}", "tail and head are required")
            ref = str(spec[end])
            if ref not in node_ids:
                raise ValidationError(f"{path}.{end}", f"unknown node {ref!r}")
            branch[end] = ref
        if branch["tail"] == branch["head"]:
            raise ValidationError(path, "tail and head must differ")
        for attr in ("current", "mass_flow"):
            if attr in spec:
                branch[attr] = _parse_quantity(spec[attr], signal, f"{path}.{attr}")
        if "internal_force" in spec:
            branch["internal_force"] = _parse_scalar_or_vector(
                spec["internal_force"], f"{path}.internal_force"
            )
        out.append(branch)
    return out


def _parse_faces(raw, branch_ids):
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ValidationError("faces", "faces must be a list")
    out = []
    for k, spec in enumerate(raw):
        path = f"faces[{k}]"
        if not isinstance(spec, dict) or "id" not in spec or "edges" not in spec:
            raise ValidationError(path, "each face needs an id and 3 signed edges")
        edges = spec["edges"]
        if not isinstance(edges, list) or len(edges) != 3:
            raise ValidationError(f"{path}.edges", "exactly three signed branch ids")
        out.append({"id": str(spec["id"]), "edges": [str(e) for e in edges]})
    return out


def _parse_analyses(raw):
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ValidationError("analyses", "analyses must be a list")
    out = []
    for k, spec in enumerate(raw):
        path = f"analyses[{k}]"
        if isinstance(spec, str):
            spec = {"command": spec}
        if not isinstance(spec, dict) or "command" not in spec:
            raise ValidationError(path, "each analysis names a command")
        command = str(spec["command"])
        if command not in _COMMANDS:
            raise ValidationError(f"{path}.command", f"unknown command {command!r}")
        options = {k2: v for k2, v in spec.items() if k2 != "command"}
        out.append(AnalysisRequest(command=command, options=options))
    return out


# -- value parsing -----------------------------------------------------------

def parse_scalar(value, path="$"):
    """One scalar: int and "p/q" strings stay exact, everything else floats.

    Exact numbers must still fit a float, because the float paths (lengths,
    unit vectors, sampled signals) read them too.
    """
    if isinstance(value, bool):
        raise ValidationError(path, "booleans are not quantities")
    if isinstance(value, int):
        return _in_float_range(value, path)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(path, f"not a finite number: {value!r}")
        return value
    if isinstance(value, str):
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(path, f"not a number or fraction: {value!r}") from None
        return _in_float_range(x, path)
    raise ValidationError(path, f"not a scalar: {value!r}")


def _in_float_range(x, path):
    try:
        float(x)
    except OverflowError:
        bits = abs(x).numerator.bit_length() - x.denominator.bit_length()
        raise ValidationError(
            path, f"too large for a float: about 2**{bits}"
        ) from None
    return x


def _parse_signal(raw):
    """The sampling block: a finite step dt > 0 and an integer count >= 1."""
    if not isinstance(raw, dict) or "dt" not in raw or "samples" not in raw:
        raise ValidationError("signal", "signal needs dt and samples")
    dt = float(parse_scalar(raw["dt"], "signal.dt"))
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("signal.dt", f"not a finite step > 0: {raw['dt']!r}")
    samples = raw["samples"]
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValidationError("signal.samples", f"not an integer >= 1: {samples!r}")
    return {"dt": dt, "samples": samples}


def _parse_quantity(value, signal, path):
    """Scalar or sampled series, length-checked against the signal block."""
    if isinstance(value, list):
        if signal is None:
            raise ValidationError(path, "sample list given but no signal declared")
        if len(value) != signal["samples"]:
            raise ValidationError(
                path,
                f"series of length {len(value)} does not match "
                f"declared {signal['samples']} samples",
            )
        series = _float_samples(value)
        if series is None:
            series = np.array(
                [float(parse_scalar(v, f"{path}[{k}]")) for k, v in enumerate(value)]
            )
            series.setflags(write=False)
        return series
    return parse_scalar(value, path)


def _parse_fixed_list(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        raise ValidationError(path, f"expected a list of {length} numbers")
    return tuple(parse_scalar(v, path) for v in value)


def _parse_vectors(value, dimension, signal, path, noun):
    """One coordinate list, or one per sample when a signal is declared;
    ``noun`` names the quantity ("position", "force") in the messages."""
    if not isinstance(value, list) or not value:
        raise ValidationError(path, f"{noun}s are coordinate lists")
    if is_sample_list(value):
        if signal is None:
            raise ValidationError(path, f"{noun} samples given but no signal declared")
        if len(value) != signal["samples"]:
            raise ValidationError(
                path,
                f"{len(value)} {noun} samples do not match "
                f"declared {signal['samples']}",
            )
        samples = _float_samples(value, dimension)
        if samples is not None:
            return samples
        return [
            _parse_fixed_list(row, dimension, f"{path}[{k}]")
            for k, row in enumerate(value)
        ]
    return _parse_fixed_list(value, dimension, path)


def _float_samples(value, width=None):
    """A sample list as one read-only float array, or None.

    The list qualifies when every sample is a float (``width`` None) or a
    list of ``width`` floats, and every one is finite: one type scan, one
    conversion and one finiteness check.  On None the caller validates
    sample by sample, which names the first bad sample and keeps exact
    samples exact.  A JSON float is never out of range, because the decoder
    reads an overflowing literal as infinity."""
    flat = value
    if width is not None:
        if set(map(type, value)) != {list} or set(map(len, value)) != {width}:
            return None
        flat = itertools.chain.from_iterable(value)
    if set(map(type, flat)) != {float}:
        return None
    samples = np.array(value, dtype=float)
    if not np.isfinite(samples).all():
        return None
    samples.setflags(write=False)
    return samples


def _parse_scalar_or_vector(value, path):
    if isinstance(value, list):
        return tuple(parse_scalar(v, path) for v in value)
    return parse_scalar(value, path)
