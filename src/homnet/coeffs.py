"""Coefficient modules for chains and cochains.

A chain assigns each simplex a value from some coefficient module: a scalar
ring (exact integers/rationals, 64-bit reals) or a vector-like space over it
(vectors, covectors, bivector 2-forms).  The module descriptor owns the
element arithmetic so that chain operations never need to know what kind of
value they are combining.  Sampled values are not chains: they are float
arrays stacked over the simplexes (``chains.stacked``), and
``series_derivative`` is their time derivative.

``Module.is_zero`` is the one zero rule of every check.  A value whose
components are all ints or Fractions is exact and is zero only when it
equals zero, whatever the tolerance; exact data is compared exactly by every
analysis.  Any other value is zero when its norm is within the tolerance,
so the tolerance applies only to float data.  The default tolerance is 0,
the rule by which chains drop entries when they are built: no nonzero float
value is treated as zero unless a check asks for a tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, PairingUndefined, TooFewSamples

# Default absolute tolerance of every float-valued check.
DEFAULT_TOL = 1e-9

# Component types of an exact value.
_EXACT_TYPES = frozenset((int, Fraction))

# The smallest positive normal float: a sum of squares below it has lost bits.
_MIN_NORMAL = sys.float_info.min


# ---------------------------------------------------------------------------
# vector helpers (components are plain Python numbers, so exactness of
# int/Fraction components is preserved automatically)
# ---------------------------------------------------------------------------

def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vneg(x):
    return tuple(-a for a in x)


def vscale(k, x):
    return tuple(k * a for a in x)


def vdot(x, y):
    return sum(a * b for a, b in zip(x, y))


def to_float(x):
    """float(x), but an exact x past the float range reads as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def fsum(values):
    """The sum of floats rounded once, so independent of their order:
    ``math.fsum``, but inf - inf is NaN as IEEE has it and a sum whose
    partial sums leave the float range is the exact sum rounded, +-inf
    past the range, where ``math.fsum`` raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        special = [x for x in values if not math.isfinite(x)]
        if special:
            return sum(special)
        return to_float(sum(map(Fraction, values)))


def vnorm(x):
    """The Euclidean norm; when the squares sum below the normal range, of
    the components scaled by the power of two that brings the largest near
    1, so a tiny vector's norm is as accurate as any other's."""
    try:
        squares = sum(float(a) * float(a) for a in x)
    except OverflowError:  # an exact component past the float range
        return math.inf
    if squares < _MIN_NORMAL and any(x):
        floats = [float(a) for a in x]
        _, e = math.frexp(max(map(abs, floats)))
        scaled = [math.ldexp(a, -e) for a in floats]
        return math.ldexp(math.sqrt(sum(a * a for a in scaled)), e)
    return math.sqrt(squares)


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric rank-2 value stored as the n(n-1)/2 upper-triangle entries.

    Component order is (0,1), (0,2), ..., (0,n-1), (1,2), ... so that
    ``component(i, j)`` returns B_ij for i < j and -B_ji for i > j.
    """

    n: int
    comps: tuple

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * (n * (n - 1) // 2))

    def component(self, i, j):
        if i == j:
            return 0
        if i > j:
            return -self.component(j, i)
        k = i * self.n - i * (i + 1) // 2 + (j - i - 1)
        return self.comps[k]

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatch("bivector dimensions differ")
        return Bivector(self.n, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Bivector(self.n, tuple(-a for a in self.comps))

    def __mul__(self, k):
        return Bivector(self.n, tuple(k * a for a in self.comps))

    __rmul__ = __mul__

    def norm(self):
        return vnorm(self.comps)


def wedge_components(a, b):
    """Upper-triangle components a_i b_j - a_j b_i of the exterior product."""
    n = len(a)
    return tuple(
        a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n)
    )


# ---------------------------------------------------------------------------
# module descriptors
# ---------------------------------------------------------------------------

class Module:
    """Descriptor of one coefficient module; stateless except for parameters."""

    kind = "abstract"
    exact = False

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def scale(self, k, x):
        """Multiply by a scalar of the base ring (at minimum, any integer)."""
        raise NotImplementedError

    def norm(self, x):
        """Magnitude used by tolerance checks."""
        raise NotImplementedError

    def is_zero(self, x, tol=0):
        """An exact value equals zero; any other is within tol of zero."""
        if self.holds_exact(x):
            return not any(self.to_components(x))
        return self.norm(x) <= tol

    def holds_exact(self, x):
        """True when every component is an int or a Fraction, not a float
        approximation.  A plain scalar, the common case, is tested first."""
        return type(x) in _EXACT_TYPES or _EXACT_TYPES.issuperset(
            map(type, self.to_components(x))
        )

    def to_components(self, x):
        """Flatten a value to a list of ring scalars (length is fixed per module)."""
        return [x]

    def from_components(self, comps):
        return comps[0]

    def compatible(self, other):
        return self.kind == other.kind and self.signature() == other.signature()

    def signature(self):
        return ()

    def __eq__(self, other):
        return isinstance(other, Module) and self.compatible(other)

    def __hash__(self):
        return hash((self.kind, self.signature()))

    def __repr__(self):
        sig = ",".join(str(s) for s in self.signature())
        return f"{self.kind}({sig})" if sig else self.kind


class _ScalarModule(Module):
    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, k, x):
        return k * x

    def norm(self, x):
        return abs(float(x))


class IntegerModule(_ScalarModule):
    kind = "integer"
    exact = True


class RationalModule(_ScalarModule):
    kind = "rational"
    exact = True

    def zero(self):
        return Fraction(0)


class Real64Module(_ScalarModule):
    kind = "real64"
    exact = False

    def zero(self):
        return 0.0


class _VectorLikeModule(Module):
    def __init__(self, n):
        self.n = int(n)

    def signature(self):
        return (self.n,)

    def zero(self):
        return (0,) * self.n

    def add(self, x, y):
        return vadd(x, y)

    def neg(self, x):
        return vneg(x)

    def scale(self, k, x):
        return vscale(k, x)

    def norm(self, x):
        return vnorm(x)

    def to_components(self, x):
        return list(x)

    def from_components(self, comps):
        return tuple(comps)


class VectorModule(_VectorLikeModule):
    kind = "vector"


class CovectorModule(_VectorLikeModule):
    kind = "covector"


class BivectorModule(Module):
    kind = "bivector"

    def __init__(self, n):
        self.n = int(n)

    def signature(self):
        return (self.n,)

    def zero(self):
        return Bivector.zero(self.n)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, k, x):
        return x * k

    def norm(self, x):
        return x.norm()

    def to_components(self, x):
        return list(x.comps)

    def from_components(self, comps):
        return Bivector(self.n, tuple(comps))


INTEGER = IntegerModule()
RATIONAL = RationalModule()
REAL64 = Real64Module()


def vector(n):
    return VectorModule(n)


def covector(n):
    return CovectorModule(n)


def bivector(n):
    return BivectorModule(n)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

_SCALAR_KINDS = {"integer", "rational", "real64"}


def pair(mod_c, value_c, mod_x, value_x):
    """Canonical bilinear pairing of a cochain value with a chain value.

    Scalars multiply in the ring; a covector pairs with a vector (either
    order) through the duality sum; vector-like values pair with ring
    scalars by scaling, as when a vector-valued cochain meets an integer
    chain.  Two vectors (or two covectors) have no canonical pairing
    without a metric and raise.
    """
    kc, kx = mod_c.kind, mod_x.kind
    if kc in _SCALAR_KINDS and kx in _SCALAR_KINDS:
        return value_c * value_x
    if {kc, kx} == {"covector", "vector"}:
        if mod_c.n != mod_x.n:
            raise DimensionMismatch("vector dimensions differ in pairing")
        return vdot(value_c, value_x)
    if kc not in _SCALAR_KINDS and kx in _SCALAR_KINDS:
        return mod_c.scale(value_x, value_c)
    if kc in _SCALAR_KINDS and kx not in _SCALAR_KINDS:
        return mod_x.scale(value_c, value_x)
    raise PairingUndefined(f"no canonical pairing of {kc} with {kx}")


# ---------------------------------------------------------------------------
# sampled-signal calculus
# ---------------------------------------------------------------------------

def series_derivative(x, dt):
    """Sampled derivative: central differences inside, one-sided second-order
    at the ends.  Exact on affine and quadratic samples."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 3:
        raise TooFewSamples("derivatives need at least 3 samples")
    d = np.empty_like(x)
    d[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    d[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return d
