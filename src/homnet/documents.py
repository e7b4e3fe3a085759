"""Network document format: JSON with nodes, branches, faces, physical
attributes and a list of requested analyses.

Exact rationals may be written as strings "p/q" anywhere a number is
expected, which lets the statics and Kirchhoff verdicts run fully exactly.
Sampled signals are lists whose length must match the declared signal block;
node positions may be either a single coordinate list or one list per sample
when a signal is declared.  A sample list of finite floats is parsed into one
read-only float array; any other sample list is validated sample by sample,
so an error names its sample.  A sampled scalar (mass, charge, voltage,
current, mass flow) is a real signal, so its int and "p/q" samples become
floats of one read-only array too; only sampled positions and forces keep
them exact.
numpy is imported only to build float arrays, so a document without sample
lists parses without it; ``NetworkDocument.floats`` records whether any
value came out as a float.

``parse`` reads a document in one pass and checks, in this order: the
JSON, ``dimension`` (a positive integer, not a boolean), the signal
block, the nodes, the branches, the shape of each face, the analyses,
each face's branch references, and last the complex.  A document with two
faults names the one checked first.  Each error is a ``ValidationError``
naming the path of the value at fault (``nodes[3].id``,
``branches[0].head``), formatted only when it is raised.  Node, branch and
face ids are unique per kind; the node and branch duplicate checks build
the {id: index} maps that resolve branch endpoints and face references.
A value that is a plain int, or a list of them, within floats' range is
taken in one scan; when every value is, the document holds no float and
``floats`` needs no further look.

``Complex.__init__`` owns the checks every caller needs, a parsed document
or not: unique labels, branch endpoints in range and distinct, and faces of
three signed branches that close.  Of these, only a face that does not
close can reach it from ``parse``, which names it at ``$``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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
    analyses: list
    complex: Complex
    source_sha256: str = ""  # of the document text, hashed once in parse
    floats: bool = False  # some node or branch value is a float or float array
    _memo: dict = field(default_factory=dict, init=False, repr=False,
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
            pos[spec["id"]] = tuple(p.tolist() if is_array(p) else p)
        return pos

    def memo(self, key, build):
        """What ``build()`` returns, built on the first call with KEY and
        shared by every later one: the document's one store of derived
        values (series arrays, the dynamics state).  Nothing is stored when
        ``build`` raises."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def geometric_complex(self):
        """The complex realized at the static positions, built once and
        shared by every analysis (a realization that raises is not kept,
        so it raises on every call)."""
        return self.memo(
            "geometric",
            lambda: realize(self.complex, self.dimension, self.static_positions()),
        )

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
        return dict(self.memo(("series", name), lambda: self._build_series(name)))

    def _build_series(self, name):
        import numpy as np

        if self.signal is None:
            raise MissingData("signal", "sampled series need a signal block")
        out = {}
        for spec in self.nodes:
            if name not in spec:
                continue
            value = spec[name]
            i = self.complex.node_index(spec["id"])
            if is_array(value):
                out[i] = value
                continue
            if is_sample_list(value):
                out[i] = np.array(
                    [[float(c) for c in row] for row in value], dtype=float
                )
            else:
                out[i] = np.tile([float(c) for c in value], (self.samples, 1))
            out[i].setflags(write=False)
        return out


def is_sample_list(value):
    if isinstance(value, (list, tuple)):
        return bool(value) and isinstance(value[0], (list, tuple))
    return is_array(value) and value.ndim == 2


def is_array(value):
    """True for a numpy array.  Never imports numpy: until something has,
    no value can be an array."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _holds_floats(specs):
    """Some parsed node or branch value is a float, a vector or sample list
    holding one, or a float array (the only other type a value can have)."""
    for spec in specs:
        for value in spec.values():
            kind = type(value)
            if kind is str or kind is int or kind is Fraction:
                continue
            if kind is tuple:
                if float in map(type, value):
                    return True
            elif kind is list:
                if any(float in map(type, row) for row in value):
                    return True
            else:
                return True
    return False


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def parse(text):
    """Parse and validate a network document (see the module docstring for
    the order of its checks)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.lineno, exc.msg) from None
    except ValueError:
        # the one other failure: an integer literal past the digit limit of
        # int-to-str conversion
        raise _long_literal(text) from None
    except RecursionError:
        raise ValidationError("$", _TOO_DEEP) from None
    if not isinstance(raw, dict):
        raise ValidationError("$", "document must be a JSON object")

    dimension = raw.get("dimension")
    if not _is_int(dimension) or dimension < 1:
        raise ValidationError("dimension", "a positive integer dimension is required")

    signal = raw.get("signal")
    if signal is not None:
        signal = _parse_signal(signal)

    nodes, node_index, plain_nodes = _parse_nodes(raw.get("nodes"), dimension, signal)
    branches, branch_index, endpoints, plain_branches = _parse_branches(
        raw.get("branches"), node_index, dimension, signal
    )
    face_labels, face_edges, unknown_branch = _parse_faces(raw.get("faces"), branch_index)
    analyses = _parse_analyses(raw.get("analyses"))
    if unknown_branch is not None:
        raise unknown_branch

    try:
        complex = Complex(
            list(node_index),
            endpoints,
            face_edges,
            branch_labels=list(branch_index),
            face_labels=face_labels,
        )
    except HomnetError as exc:
        raise ValidationError("$", str(exc)) from None

    plain = plain_nodes and plain_branches
    return NetworkDocument(
        dimension=dimension,
        signal=signal,
        nodes=nodes,
        branches=branches,
        analyses=analyses,
        complex=complex,
        source_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        floats=not plain and _holds_floats(itertools.chain(nodes, branches)),
    )


def _parse_nodes(raw, dimension, signal):
    """The nodes, the {id: index} map that their duplicate check builds,
    and whether every value was plain (``_plain``)."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError("nodes", "a nonempty node list is required")
    # each value with the list length that makes it plain (None: an int)
    lengths = (("pos", dimension), ("mass", None), ("charge", None),
               ("voltage", None), ("force", dimension),
               ("moment", dimension * (dimension - 1) // 2))
    index = {}
    out = []
    plain = True
    for k, spec in enumerate(raw):
        if not isinstance(spec, dict) or "id" not in spec:
            raise ValidationError(f"nodes[{k}]", "each node needs an id")
        nid = str(spec["id"])
        if index.setdefault(nid, k) != k:
            raise ValidationError(f"nodes[{k}].id", f"duplicate node id {nid!r}")
        node = {"id": nid}
        for attr, length in lengths:
            if attr not in spec:
                continue
            value = _plain(spec[attr], length)
            if value is None:
                plain = False
                value = _parse_node_value(
                    attr, spec[attr], dimension, signal, f"nodes[{k}].{attr}"
                )
            node[attr] = value
        out.append(node)
    return out, index, plain


def _parse_node_value(attr, value, dimension, signal, path):
    """A node value that is not plain, by the parser of its kind."""
    if attr == "pos":
        return _parse_vectors(value, dimension, signal, path, "position")
    if attr == "force":
        return _parse_vectors(value, dimension, signal, path, "force")
    if attr == "moment":
        return _parse_fixed_list(value, dimension * (dimension - 1) // 2, path)
    return _parse_quantity(value, signal, path)


def _parse_branches(raw, node_index, dimension, signal):
    """The branches, the {id: index} map that their duplicate check
    builds, their (tail, head) node index pairs, and whether every value
    was plain (``_plain``)."""
    if not isinstance(raw, list):
        raise ValidationError("branches", "a branch list is required")
    index = {}
    endpoints = []
    out = []
    plain = True
    for k, spec in enumerate(raw):
        if not isinstance(spec, dict) or "id" not in spec:
            raise ValidationError(f"branches[{k}]", "each branch needs an id")
        bid = str(spec["id"])
        if index.setdefault(bid, k) != k:
            raise ValidationError(f"branches[{k}].id", f"duplicate branch id {bid!r}")
        try:
            ends = str(spec["tail"]), str(spec["head"])
            tail, head = node_index[ends[0]], node_index[ends[1]]
        except KeyError:
            raise _endpoint_error(spec, node_index, f"branches[{k}]") from None
        if tail == head:
            raise ValidationError(f"branches[{k}]", "tail and head must differ")
        endpoints.append((tail, head))
        branch = {"id": bid, "tail": ends[0], "head": ends[1]}
        for attr in ("current", "mass_flow"):
            if attr in spec:
                value = _plain(spec[attr], None)
                if value is None:
                    plain = False
                    value = _parse_quantity(spec[attr], signal, f"branches[{k}].{attr}")
                branch[attr] = value
        if "internal_force" in spec:
            # an axial scalar, or a vector of the document's dimension
            plain = False
            value, where = spec["internal_force"], f"branches[{k}].internal_force"
            branch["internal_force"] = (
                _parse_fixed_list(value, dimension, where)
                if isinstance(value, list)
                else parse_scalar(value, where)
            )
        out.append(branch)
    return out, index, endpoints, plain


def _endpoint_error(spec, node_index, path):
    """The error naming a branch's first missing or unknown endpoint."""
    for end in ("tail", "head"):
        if end not in spec:
            return ValidationError(f"{path}.{end}", "tail and head are required")
        ref = str(spec[end])
        if ref not in node_index:
            return ValidationError(f"{path}.{end}", f"unknown node {ref!r}")
    raise AssertionError("both endpoints are known nodes")


def _parse_faces(raw, branch_index):
    """The face ids, each face's edges as (branch index, sign) pairs, and
    the error naming the first reference to an unknown branch, or None.
    That error is returned, not raised: ``parse`` raises it after reading
    the analyses, so a bad face shape names itself before a bad analysis,
    and a bad analysis before a bad reference."""
    if raw is None:
        return [], [], None
    if not isinstance(raw, list):
        raise ValidationError("faces", "faces must be a list")
    index = {}
    out = []
    unknown = None
    for k, spec in enumerate(raw):
        if not isinstance(spec, dict) or "id" not in spec or "edges" not in spec:
            raise ValidationError(f"faces[{k}]", "each face needs an id and 3 signed edges")
        fid = str(spec["id"])
        if index.setdefault(fid, k) != k:
            raise ValidationError(f"faces[{k}].id", f"duplicate face id {fid!r}")
        refs = spec["edges"]
        if not isinstance(refs, list) or len(refs) != 3:
            raise ValidationError(f"faces[{k}].edges", "exactly three signed branch ids")
        edges = []
        for ref in refs:
            name = str(ref)
            first = name[:1]
            if first == "-":
                sign, name = -1, name[1:]
            elif first == "+":
                sign, name = 1, name[1:]
            else:
                sign = 1
            b = branch_index.get(name)
            if b is None and unknown is None:
                unknown = ValidationError(f"faces[{k}].edges", f"unknown branch {name!r}")
            edges.append((b, sign))
        out.append(tuple(edges))
    return list(index), out, unknown


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
        out.append(AnalysisRequest(command, check_options(options, f"{path}.")))
    return out


def check_options(options, prefix):
    """Check the value of each known analysis option, wherever it comes
    from, and that a sample window gives both its bounds t0 and t1; an
    error names the option as PREFIX + its name ("analyses[0].", "--" or
    "options.").  Returns the options."""
    for name, value in options.items():
        if name in OPTION_TYPES and not OPTION_TYPES[name][0](value):
            raise ValidationError(
                f"{prefix}{name}", f"expected {OPTION_TYPES[name][1]}, got {value!r}"
            )
    for given, missing in (("t0", "t1"), ("t1", "t0")):
        if given in options and missing not in options:
            raise ValidationError(
                f"{prefix}{missing}",
                f"a sample window needs both bounds, but only {prefix}{given} is given",
            )
    return options


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_tolerance(value):
    return (_is_int(value) or isinstance(value, float)) and 0 <= value < math.inf


# option -> (test of its value, what the test expects)
OPTION_TYPES = {
    "tolerance": (_is_tolerance, "a finite number >= 0"),
    "t0": (_is_int, "an integer sample index"),
    "t1": (_is_int, "an integer sample index"),
    "origin": (lambda v: isinstance(v, str), "a node id"),
}


# -- value parsing -----------------------------------------------------------

def _too_many_digits(digits):
    """The message for a literal of ``digits`` digits, or None when the
    int-to-str conversion limit allows it."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        return f"a number literal of {digits} digits exceeds the {limit}-digit limit"
    return None


# a document nested deeper than the parser recurses
_TOO_DEEP = "arrays and objects nest too deeply to parse"


class _Digits(int):
    """Stand-in for an integer literal too long to convert: its digit count."""


def _long_literal(text):
    """The error naming where a document's over-long integer literal sits,
    found by parsing it again with such literals replaced by their digit
    counts; only a failed parse pays for this."""
    def parse_int(literal):
        digits = len(literal.lstrip("-"))
        return _Digits(digits) if _too_many_digits(digits) else int(literal)

    try:
        stack = [("$", json.loads(text, parse_int=parse_int))]
    except RecursionError:
        return ValidationError("$", _TOO_DEEP)
    while stack:
        path, value = stack.pop()
        if type(value) is _Digits:
            return ValidationError(path, _too_many_digits(value))
        if isinstance(value, dict):
            items = [(k if path == "$" else f"{path}.{k}", v) for k, v in value.items()]
        elif isinstance(value, list):
            items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))
    return ValidationError("$", "a number literal exceeds the digit limit")


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
            digits = max(map(len, re.findall(r"\d+", value)), default=0)
            message = _too_many_digits(digits) or f"not a number or fraction: {value!r}"
            raise ValidationError(path, message) from None
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
            import numpy as np

            series = np.array(
                [float(parse_scalar(v, f"{path}[{k}]")) for k, v in enumerate(value)]
            )
            series.setflags(write=False)
        return series
    return parse_scalar(value, path)


_FLOAT_INT = 2**1023  # an int of at most this size is a finite float


def _plain(value, length):
    """VALUE as it parses when it is plain, else None.  A plain value is
    an int within +-2**1023 (``length`` None) or a list of ``length`` of
    them (parsed as a tuple): it is within floats' range and holds no
    float, so it is taken in one scan, with no path to name."""
    if length is None:
        if type(value) is int and -_FLOAT_INT <= value <= _FLOAT_INT:
            return value
        return None
    if type(value) is not list or len(value) != length:
        return None
    for v in value:
        if type(v) is not int or not -_FLOAT_INT <= v <= _FLOAT_INT:
            return None
    return tuple(value)


def _parse_fixed_list(value, length, path):
    """A list of ``length`` scalars as a tuple: a plain one (``_plain``) as
    it is, any other entry by entry through ``parse_scalar``."""
    plain = _plain(value, length)
    if plain is not None:
        return plain
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
    list of ``width`` floats, and every one is finite.  It is flattened
    once; then one type scan, one conversion, one finiteness check and one
    reshape.  A sample that is no list either has no length or flattens
    into something other than floats (a JSON string into strings, an object
    into its string keys), so the one scan of the flat values rejects it.
    On None the caller validates sample by sample, which names the first
    bad sample and keeps exact samples exact.  A JSON float is never out of
    range, because the decoder reads an overflowing literal as infinity."""
    flat, shape = value, (len(value),)
    if width is not None:
        try:
            if set(map(len, value)) != {width}:
                return None
        except TypeError:  # a sample with no length
            return None
        flat, shape = list(itertools.chain.from_iterable(value)), (len(value), width)
    if set(map(type, flat)) != {float}:
        return None
    import numpy as np

    samples = np.array(flat, dtype=float)
    if not np.isfinite(samples).all():
        return None
    samples = samples.reshape(shape)
    samples.setflags(write=False)
    return samples
