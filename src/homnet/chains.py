"""Chains, cochains, the boundary/coboundary operators and chain maps.

The zero rule is the type's.  A chain is sparse: it keeps only its nonzero
entries.  An entry is dropped when it is exactly zero (``Module.is_zero``
at tolerance 0), never because it is small, so a float residual reaches
every check as it was computed and is judged at the tolerance the check is
given.  A cochain keeps every value it is given, zeros included, so a
potential or a field reads the same at every node or branch it was given
for; ``coboundary`` drops the exact zeros it computes itself.

Sampled values are not chains but float arrays stacked over the simplexes,
(samples, simplexes, ...); the stacked helpers below serve every balance law
on them, and each imports numpy itself, so an exact document never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coeffs
from .complexes import cone, fresh_label
from .errors import (
    DimensionMismatch,
    EmptyChain,
    ModuleMismatch,
    UnverifiedSpec,
)


def _convert_scalar(value, module):
    if module.kind == "rational":
        from fractions import Fraction

        return Fraction(value)
    if module.kind == "real64":
        return float(value)
    return value


class _Valued:
    """Shared behaviour of chains and cochains: a simplex->value map that
    drops exact zeros when its type's ``_drops_zeros`` says so."""

    _drops_zeros = True

    def __init__(self, complex, dim, values, module):
        if dim not in (0, 1, 2):
            raise DimensionMismatch(f"dimension {dim} out of range")
        if dim > complex.dim and values:
            raise DimensionMismatch(
                f"complex has no {dim}-simplexes to carry coefficients"
            )
        r = complex.r[dim]
        drop = self._drops_zeros
        coeffs_map = {}
        for idx, val in values.items():
            if not (0 <= idx < r):
                raise DimensionMismatch(f"simplex index {idx} out of range for dim {dim}")
            if drop and module.is_zero(val):
                continue
            coeffs_map[idx] = val
        self.complex = complex
        self.dim = dim
        self.module = module
        self.coeffs = coeffs_map

    @classmethod
    def zero(cls, complex, dim, module):
        return cls(complex, dim, {}, module)

    def __getitem__(self, idx):
        return self.coeffs.get(idx, self.module.zero())

    def __iter__(self):
        return iter(sorted(self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    def is_zero(self, tol=0):
        return all(self.module.is_zero(v, tol) for v in self.coeffs.values())

    def _binary(self, other, op):
        if other.complex is not self.complex or other.dim != self.dim:
            raise DimensionMismatch("operands live on different complexes or dimensions")
        if not self.module.compatible(other.module):
            raise ModuleMismatch(f"{self.module} vs {other.module}")
        merged = {}
        for idx in set(self.coeffs) | set(other.coeffs):
            merged[idx] = op(self[idx], other[idx])
        return type(self)(self.complex, self.dim, merged, self.module)

    def __add__(self, other):
        return self._binary(other, self.module.add)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: self.module.add(x, self.module.neg(y)))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, k):
        return type(self)(
            self.complex,
            self.dim,
            {i: self.module.scale(k, v) for i, v in self.coeffs.items()},
            self.module,
        )

    def as_module(self, module):
        """Reinterpret scalar coefficients in another scalar module (for
        example integer chains as rational ones before an exact solve)."""
        converted = {
            i: module.from_components(
                [_convert_scalar(c, module) for c in self.module.to_components(v)]
            )
            for i, v in self.coeffs.items()
        }
        return type(self)(self.complex, self.dim, converted, module)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.complex is self.complex
            and other.dim == self.dim
            and self.module.compatible(other.module)
            and all(
                self.module.is_zero(self.module.add(self[i], self.module.neg(other[i])))
                for i in self.coeffs.keys() | other.coeffs.keys()
            )
        )

    def __repr__(self):
        labels = self.complex.labels(self.dim)
        terms = " + ".join(f"{v!r}*{labels[i]}" for i, v in sorted(self.coeffs.items()))
        return f"{type(self).__name__}[{self.dim}]({terms or '0'})"


class Chain(_Valued):
    """Formal sum of same-dimension simplexes with module coefficients."""

    @classmethod
    def of_integers(cls, complex, dim, values):
        """An integer chain over ``{index: int}`` already known to hold
        only nonzero ints at indices of ``dim``-simplexes, such as a
        primitive nullspace vector; the dict is kept, not checked or
        copied."""
        chain = cls.__new__(cls)
        chain.complex, chain.dim, chain.module = complex, dim, coeffs.INTEGER
        chain.coeffs = values
        return chain


class Cochain(_Valued):
    """Linear functional on chains, stored by its values on the generators."""

    _drops_zeros = False


def boundary(chain):
    """Boundary of a chain: branch coefficients flow to head (+) and tail (-),
    face coefficients flow to their oriented branch triples."""
    if chain.dim == 0:
        raise DimensionMismatch("0-chains have no boundary; see augmented_boundary")
    cx, mod = chain.complex, chain.module
    out = {}

    def accumulate(idx, val, sign):
        v = val if sign == 1 else mod.neg(val)
        out[idx] = mod.add(out[idx], v) if idx in out else v

    if chain.dim == 1:
        for a, val in chain.coeffs.items():
            tail, head = cx.branches[a]
            accumulate(head, val, 1)
            accumulate(tail, val, -1)
    else:
        for f, val in chain.coeffs.items():
            for b, s in cx.faces[f]:
                accumulate(b, val, s)
    return Chain(cx, chain.dim - 1, out, mod)


def augmented_boundary(chain):
    """Sum of all coefficients of a 0-chain; annihilates 1-boundaries."""
    if chain.dim != 0:
        raise DimensionMismatch("augmented boundary applies to 0-chains")
    total = chain.module.zero()
    for v in chain.coeffs.values():
        total = chain.module.add(total, v)
    return total


def coboundary(cochain):
    """Transpose of the boundary operator acting on cochains."""
    cx, mod = cochain.complex, cochain.module
    if cochain.dim + 1 > cx.dim:
        raise DimensionMismatch(
            f"no {cochain.dim + 1}-simplexes to carry the coboundary"
        )
    out = {}
    if cochain.dim == 0:
        for a, (tail, head) in enumerate(cx.branches):
            val = mod.add(cochain[head], mod.neg(cochain[tail]))
            if not mod.is_zero(val):
                out[a] = val
    else:
        for f, edges in enumerate(cx.faces):
            acc = mod.zero()
            for b, s in edges:
                term = cochain[b] if s == 1 else mod.neg(cochain[b])
                acc = mod.add(acc, term)
            if not mod.is_zero(acc):
                out[f] = acc
    return Cochain(cx, cochain.dim + 1, out, mod)


# ---------------------------------------------------------------------------
# stacked arrays of sampled values
# ---------------------------------------------------------------------------

def stacked(shape, values):
    """Values by simplex index as one zero-filled array of SHAPE; a static
    value broadcasts over the samples."""
    import numpy as np

    out = np.zeros(shape)
    for i, value in values.items():
        out[:, i] = value
    return out


def stacked_boundary(complex, samples, values, shape=()):
    """The boundary of branch values, a (samples, nodes, *shape) array:
    each value enters its head and leaves its tail, branch by branch in
    order, as ``boundary`` adds them."""
    import numpy as np

    out = np.zeros((samples, complex.r[0]) + shape)
    for a, value in values.items():
        value = np.asarray(value, dtype=float)
        tail, head = complex.branches[a]
        out[:, head] += value
        out[:, tail] -= value
    return out


def node_sum(a):
    """The sum over the node axis (1) of a stacked array, adding the nodes
    in order: ``np.sum`` may pair the terms, and ``np.cumsum`` along a short
    axis costs more than one addition per node."""
    import numpy as np

    total = np.zeros(a.shape[:1] + a.shape[2:])
    for j in range(a.shape[1]):
        total += a[:, j]
    return total


def max_abs(a, floor=0.0):
    """The largest |entry| of A and FLOOR, a float; NaN when any entry is
    NaN, where the builtin ``max`` would drop it and pass the check."""
    import numpy as np

    return float(np.abs(a).max(initial=floor))


def cone_chain(chain, star_values, apex):
    """A 1-chain carried over to the cone of its complex on a fresh vertex
    (``apex``, primed until it is new): every branch keeps its value, and
    the branch joining node i to the apex carries ``star_values[i]``.
    Returns the ``ConeResult`` and the chain on its complex.  Its boundary
    is the chain's boundary minus the star values at the old nodes, and
    their sum at the apex."""
    ext = cone(chain.complex, fresh_label(chain.complex, apex))
    values = {ext.branch_map[a]: v for a, v in chain.coeffs.items()}
    for i, v in star_values.items():
        values[ext.star[i]] = v
    return ext, Chain(ext.complex, 1, values, chain.module)


def _sum_terms(x, y):
    if isinstance(x, tuple):
        return coeffs.vadd(x, y)
    return x + y


def evaluate(cochain, chain):
    """Bilinear pairing of a cochain with a chain of the same dimension."""
    if cochain.dim != chain.dim:
        raise DimensionMismatch("pairing requires equal dimensions")
    if cochain.complex is not chain.complex:
        raise DimensionMismatch("pairing requires a shared complex")
    total = None
    for idx in set(cochain.coeffs) & set(chain.coeffs):
        term = coeffs.pair(cochain.module, cochain[idx], chain.module, chain[idx])
        total = term if total is None else _sum_terms(total, term)
    if total is not None:
        return total
    # the zero of the pairing's result type
    return coeffs.pair(
        cochain.module, cochain.module.zero(), chain.module, chain.module.zero()
    )


# ---------------------------------------------------------------------------
# paths and loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathClass:
    kind: str  # "path" | "loop" | "not_a_path"
    start: int | None = None
    end: int | None = None


def classify_path(chain):
    """Classify an integer 1-chain with unit coefficients as a path from
    start to end, a loop, or neither.

    Each branch must be traversed once; a coefficient of -1 traverses it
    against its stored orientation.  A path is a connected trail whose
    boundary is end - start; a loop is a single connected circuit in which
    every vertex meets exactly two edges.  Multi-loop cycles are cycles but
    not loops.
    """
    if chain.dim != 1:
        raise DimensionMismatch("paths are 1-chains")
    if not chain.coeffs:
        raise EmptyChain("cannot classify the zero chain")
    if any(v not in (1, -1) for v in chain.coeffs.values()):
        return PathClass("not_a_path")

    degree = {}
    adj = {}
    for a in chain.coeffs:
        tail, head = chain.complex.branches[a]
        for v in (tail, head):
            degree[v] = degree.get(v, 0) + 1
            adj.setdefault(v, set())
        adj[tail].add(head)
        adj[head].add(tail)

    seen = set()
    stack = [next(iter(degree))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    if len(seen) != len(degree):
        return PathClass("not_a_path")

    b = boundary(chain)
    if b.is_zero():
        if all(d == 2 for d in degree.values()):
            return PathClass("loop")
        return PathClass("not_a_path")

    ends = {i: v for i, v in b.coeffs.items()}
    if sorted(ends.values()) == [-1, 1] and all(
        degree[v] == 2 for v in degree if v not in ends
    ):
        start = next(i for i, v in ends.items() if v == -1)
        end = next(i for i, v in ends.items() if v == 1)
        if degree[start] == 1 and degree[end] == 1:
            return PathClass("path", start=start, end=end)
    return PathClass("not_a_path")


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------

COLLAPSED = "collapsed"


@dataclass
class ChainMapSpec:
    """Simplicial map between two complexes.

    vertex_map[i] is the target node index of source node i; edge_map[a] is
    either (target branch, sign) or the "collapsed" marker when the image of
    the branch degenerates to a vertex.
    """

    vertex_map: list
    edge_map: list


@dataclass(frozen=True)
class ChainMapCheck:
    ok: bool
    violation: int | None = None


def verify_chain_map(spec, source, target):
    """Check the commuting square boundary(f(edge)) == f(boundary(edge)) on
    every generator branch of the source."""
    if len(spec.vertex_map) != source.r[0] or len(spec.edge_map) != source.r[1]:
        return ChainMapCheck(False, violation=None)
    for a, image in enumerate(spec.edge_map):
        tail, head = source.branches[a]
        ft, fh = spec.vertex_map[tail], spec.vertex_map[head]
        if image == COLLAPSED:
            if ft != fh:
                return ChainMapCheck(False, violation=a)
            continue
        b, sign = image
        tt, th = target.branches[b]
        if sign == -1:
            tt, th = th, tt
        if (tt, th) != (ft, fh):
            return ChainMapCheck(False, violation=a)
    return ChainMapCheck(True)


def apply_chain_map(spec, chain, source, target):
    """Push a 0- or 1-chain through a verified chain map."""
    check = verify_chain_map(spec, source, target)
    if not check.ok:
        raise UnverifiedSpec(f"chain map fails to commute at branch {check.violation}")
    if chain.complex is not source:
        raise DimensionMismatch("chain does not live on the source complex")
    mod = chain.module
    out = {}
    if chain.dim == 0:
        for i, v in chain.coeffs.items():
            j = spec.vertex_map[i]
            out[j] = mod.add(out[j], v) if j in out else v
    elif chain.dim == 1:
        for a, v in chain.coeffs.items():
            image = spec.edge_map[a]
            if image == COLLAPSED:
                continue
            b, sign = image
            v = v if sign == 1 else mod.neg(v)
            out[b] = mod.add(out[b], v) if b in out else v
    else:
        raise DimensionMismatch("chain maps are defined on dimensions 0 and 1")
    return Chain(target, chain.dim, out, mod)
