"""Elementwise activation functions and their derivatives.

Four kinds are supported: tanh, the logistic sigmoid, the non-saturating
sigmoid y / (1 + |y|), and softplus.  Derivatives are written in the
layer's output z = g(y), the one value backprop keeps.  Tanh is the default
for both encoder and decoder.
"""

from __future__ import annotations

import enum

import numpy as np


class ActivationKind(enum.Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"
    NSSIGMOID = "nssigmoid"
    SOFTPLUS = "softplus"


DEFAULT_ACTIVATION = ActivationKind.TANH


def parse_kind(name: str) -> ActivationKind:
    try:
        return ActivationKind(name.lower())
    except ValueError:
        choices = ", ".join(k.value for k in ActivationKind)
        raise ValueError(f"unknown activation {name!r}; choose one of: {choices}")


def _sigmoid(y: np.ndarray) -> np.ndarray:
    # split on sign so exp never overflows
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


def _softplus(y: np.ndarray) -> np.ndarray:
    # for large y return y + log1p(exp(-y)) to avoid overflow
    out = np.empty_like(y)
    pos = y > 0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


def apply(kind: ActivationKind, y: np.ndarray) -> np.ndarray:
    """Elementwise activation value at pre-activation y."""
    if kind is ActivationKind.TANH:
        return np.tanh(y)
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(y)
    if kind is ActivationKind.NSSIGMOID:
        return y / (1.0 + np.abs(y))
    if kind is ActivationKind.SOFTPLUS:
        return _softplus(y)
    raise ValueError(f"unhandled activation kind {kind!r}")


def derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative g'(y), given the output z = g(y)."""
    if kind is ActivationKind.TANH:
        return 1.0 - z * z
    if kind is ActivationKind.SIGMOID:
        return z * (1.0 - z)
    if kind is ActivationKind.NSSIGMOID:
        d = 1.0 - np.abs(z)  # = 1 / (1 + |y|)
        return d * d
    if kind is ActivationKind.SOFTPLUS:
        return -np.expm1(-z)  # sigmoid(y) = 1 - exp(-softplus(y))
    raise ValueError(f"unhandled activation kind {kind!r}")
