import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcidc.activations import ActivationKind, apply, derivative, parse_kind

ALL_KINDS = list(ActivationKind)


def value(kind, y):
    """The activation at y, left as it was: apply writes over its input."""
    return apply(kind, y.copy())


def central_difference(kind, y, h=1e-5):
    return (apply(kind, y + h) - apply(kind, y - h)) / (2 * h)


def test_values_at_zero():
    zero = np.zeros((1, 1))
    assert value(ActivationKind.TANH, zero)[0, 0] == 0.0
    assert value(ActivationKind.SIGMOID, zero)[0, 0] == 0.5
    assert value(ActivationKind.NSSIGMOID, zero)[0, 0] == 0.0
    assert value(ActivationKind.SOFTPLUS, zero)[0, 0] == pytest.approx(math.log(2), abs=1e-12)


def derivative_at(kind, y):
    """The derivative at pre-activation y, from the output form."""
    return derivative(kind, value(kind, y))


def test_derivatives_at_zero():
    zero = np.zeros((1, 1))
    assert derivative_at(ActivationKind.TANH, zero)[0, 0] == 1.0
    assert derivative_at(ActivationKind.SIGMOID, zero)[0, 0] == 0.25
    assert derivative_at(ActivationKind.NSSIGMOID, zero)[0, 0] == 1.0
    assert derivative_at(ActivationKind.SOFTPLUS, zero)[0, 0] == 0.5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_matches_finite_difference_at_point(kind):
    y = np.array([[0.37]])
    assert abs(derivative_at(kind, y) - central_difference(kind, y))[0, 0] <= 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_matches_finite_difference_sampled(kind):
    rng = np.random.default_rng(2024)
    y = rng.uniform(-5.0, 5.0, size=1000)
    assert np.max(np.abs(derivative_at(kind, y) - central_difference(kind, y))) <= 1e-6


# strict bounds checked away from float64 saturation (tanh rounds to 1.0
# near |y|=19, sigmoid near y=37)
@given(st.floats(min_value=-15, max_value=15, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_output_ranges(y):
    arr = np.array([y])
    assert -1.0 < value(ActivationKind.TANH, arr)[0] < 1.0
    assert 0.0 < value(ActivationKind.SIGMOID, arr)[0] < 1.0
    assert -1.0 < value(ActivationKind.NSSIGMOID, arr)[0] < 1.0
    assert value(ActivationKind.SOFTPLUS, arr)[0] >= 0.0


def test_softplus_stable_for_large_inputs():
    big = np.array([800.0, -800.0])
    out = value(ActivationKind.SOFTPLUS, big)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(800.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(derivative_at(ActivationKind.SOFTPLUS, big)))


@st.composite
def pre_activations(draw):
    """A small float32 or float64 array of mixed-sign values, some of them large."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 8 * np.dtype(dtype).itemsize
    elements = st.one_of(st.floats(-6, 6, width=width),
                         st.floats(-1e4, 1e4, width=width))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 5)))
    return draw(arrays(dtype, shape, elements=elements))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def plain_derivative(kind, z):
    """The derivative as a plain expression, one fresh array per operation."""
    if kind is ActivationKind.TANH:
        return 1.0 - z * z
    if kind is ActivationKind.SIGMOID:
        return z * (1.0 - z)
    if kind is ActivationKind.NSSIGMOID:
        d = 1.0 - np.abs(z)
        return d * d
    return -np.expm1(-z)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(pre_activations())
@settings(max_examples=50, deadline=None)
def test_derivative_bits_match_plain_expression(kind, y):
    z = apply(kind, y)
    assert same_bits(derivative(kind, z), plain_derivative(kind, z))


def sigmoid_by_sign(y):
    """The logistic sigmoid split on sign, so exp never overflows."""
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


def softplus_by_sign(y):
    """Softplus split on sign: y + log1p(exp(-y)) above zero, so exp never overflows."""
    out = np.empty_like(y)
    pos = y > 0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


@pytest.mark.parametrize("kind, plain", [
    (ActivationKind.TANH, np.tanh),
    (ActivationKind.NSSIGMOID, lambda y: y / (1.0 + np.abs(y))),
    (ActivationKind.SIGMOID, sigmoid_by_sign),
    (ActivationKind.SOFTPLUS, softplus_by_sign),
])
@given(pre_activations())
@settings(max_examples=50, deadline=None)
def test_apply_bits_match_plain_expression(kind, plain, y):
    want = plain(y)
    assert apply(kind, y) is y and same_bits(y, want)


def test_parse_kind_names():
    for kind in ALL_KINDS:
        assert parse_kind(kind.value) is kind
    assert parse_kind("Tanh") is ActivationKind.TANH
    with pytest.raises(ValueError, match="relu"):
        parse_kind("relu")
