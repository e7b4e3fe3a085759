import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homnet import coeffs
from homnet.errors import (
    DimensionMismatch,
    PairingUndefined,
    TooFewSamples,
)

ints = st.integers(min_value=-50, max_value=50)
small_vectors = st.lists(ints, min_size=2, max_size=4)


@pytest.mark.parametrize(
    "module,sample",
    [
        (coeffs.INTEGER, 7),
        (coeffs.RATIONAL, Fraction(3, 4)),
        (coeffs.REAL64, 2.5),
        (coeffs.vector(3), (1, -2, 3)),
        (coeffs.covector(2), (Fraction(1, 2), 4)),
        (coeffs.bivector(3), coeffs.Bivector(3, (1, 0, -2))),
    ],
)
def test_integer_scaling_is_repeated_addition(module, sample):
    m = 5
    total = module.zero()
    for _ in range(m):
        total = module.add(total, sample)
    assert module.is_zero(
        module.add(module.scale(m, sample), module.neg(total)), 0
    )


@given(ints, ints, ints)
def test_scaling_distributes_over_addition(k, a, b):
    mod = coeffs.INTEGER
    assert mod.scale(k, mod.add(a, b)) == mod.add(mod.scale(k, a), mod.scale(k, b))


def test_exact_modules_have_zero_tolerance():
    # an exact value is zero only when it equals zero, at any tolerance;
    # a float value too unless a tolerance is given
    for mod in (coeffs.INTEGER, coeffs.RATIONAL):
        assert not mod.is_zero(Fraction(1, 10**13), 1.0)
    assert not coeffs.REAL64.is_zero(1e-13)
    assert coeffs.REAL64.is_zero(1e-13, 1e-12)


@given(small_vectors, small_vectors)
def test_wedge_antisymmetry(a, b):
    n = min(len(a), len(b))
    a, b = tuple(a[:n]), tuple(b[:n])
    ab = coeffs.wedge_components(a, b)
    ba = coeffs.wedge_components(b, a)
    assert ab == tuple(-x for x in ba)


@given(small_vectors)
def test_wedge_of_vector_with_itself_vanishes(a):
    assert all(x == 0 for x in coeffs.wedge_components(tuple(a), tuple(a)))


@given(small_vectors, small_vectors, small_vectors, ints, ints)
def test_wedge_bilinearity(a, b, c, alpha, beta):
    n = min(len(a), len(b), len(c))
    a, b, c = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    lhs = coeffs.wedge_components(
        coeffs.vadd(coeffs.vscale(alpha, a), coeffs.vscale(beta, b)), c
    )
    rhs = coeffs.vadd(
        coeffs.vscale(alpha, coeffs.wedge_components(a, c)),
        coeffs.vscale(beta, coeffs.wedge_components(b, c)),
    )
    assert lhs == rhs


def test_bivector_component_lookup():
    b = coeffs.Bivector(3, (5, 7, 11))  # (0,1), (0,2), (1,2)
    assert b.component(0, 1) == 5
    assert b.component(1, 0) == -5
    assert b.component(2, 2) == 0
    assert b.component(1, 2) == 11


def test_pairing_table():
    assert coeffs.pair(coeffs.INTEGER, 2, coeffs.INTEGER, 3) == 6
    assert coeffs.pair(coeffs.covector(2), (1, 0), coeffs.vector(2), (0, 1)) == 0
    assert coeffs.pair(coeffs.vector(2), (3, 4), coeffs.INTEGER, 2) == (6, 8)
    with pytest.raises(PairingUndefined):
        coeffs.pair(coeffs.vector(2), (1, 0), coeffs.vector(2), (0, 1))
    with pytest.raises(DimensionMismatch):
        coeffs.pair(coeffs.covector(3), (1, 0, 0), coeffs.vector(2), (0, 1))


def test_series_derivative_exact_on_quadratics():
    dt = 0.05
    t = np.arange(30) * dt
    x = 3.0 + 2.0 * t - 4.0 * t**2
    dx = coeffs.series_derivative(x, dt)
    assert np.allclose(dx, 2.0 - 8.0 * t, atol=1e-10)


def test_series_derivative_needs_three_samples():
    with pytest.raises(TooFewSamples, match="derivatives need at least 3 samples"):
        coeffs.series_derivative(np.array([1.0, 2.0]), 0.1)


# components of 2**-60 to 2**60 in magnitude, either sign, or zero
_component = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0**-60, max_value=2.0**60).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)


@given(st.lists(_component, min_size=1, max_size=4).filter(any), st.integers(0, 300))
def test_vnorm_scales_subnormal_squares_by_a_power_of_two(v, extra):
    # 2**-k v has squares that sum below the normal range, while each of
    # its components is exact: its norm is 2**-k times the norm of v
    k = math.frexp(max(map(abs, v)))[1] + 513 + extra
    w = [2**-k * a for a in v]
    assert all(math.ldexp(b, k) == a for a, b in zip(v, w))
    assert sum(b * b for b in w) < sys.float_info.min
    assert coeffs.vnorm(w) == 2**-k * coeffs.vnorm(v)


def test_vnorm_keeps_the_bits_of_normal_squares():
    for v in ([3.0, 4.0], [1e-150, 1e-150], [1e154, 1e154], [0.1, 0.2, 0.3]):
        assert coeffs.vnorm(v) == math.sqrt(sum(a * a for a in v))
    assert coeffs.vnorm([0.0, -0.0]) == 0.0
    assert coeffs.vnorm([1e-170, 0.0]) == 1e-170
