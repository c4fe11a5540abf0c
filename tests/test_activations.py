import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcidc.activations import ActivationKind, apply, derivative, parse_kind

ALL_KINDS = list(ActivationKind)


def central_difference(kind, y, h=1e-5):
    return (apply(kind, y + h) - apply(kind, y - h)) / (2 * h)


def test_values_at_zero():
    zero = np.zeros((1, 1))
    assert apply(ActivationKind.TANH, zero)[0, 0] == 0.0
    assert apply(ActivationKind.SIGMOID, zero)[0, 0] == 0.5
    assert apply(ActivationKind.NSSIGMOID, zero)[0, 0] == 0.0
    assert apply(ActivationKind.SOFTPLUS, zero)[0, 0] == pytest.approx(math.log(2), abs=1e-12)


def derivative_at(kind, y):
    """The derivative at pre-activation y, from the output form."""
    return derivative(kind, apply(kind, y))


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
    assert -1.0 < apply(ActivationKind.TANH, arr)[0] < 1.0
    assert 0.0 < apply(ActivationKind.SIGMOID, arr)[0] < 1.0
    assert -1.0 < apply(ActivationKind.NSSIGMOID, arr)[0] < 1.0
    assert apply(ActivationKind.SOFTPLUS, arr)[0] >= 0.0


def test_softplus_stable_for_large_inputs():
    big = np.array([800.0, -800.0])
    out = apply(ActivationKind.SOFTPLUS, big)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(800.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(derivative_at(ActivationKind.SOFTPLUS, big)))


def test_parse_kind_names():
    for kind in ALL_KINDS:
        assert parse_kind(kind.value) is kind
    assert parse_kind("Tanh") is ActivationKind.TANH
    with pytest.raises(ValueError, match="relu"):
        parse_kind("relu")
