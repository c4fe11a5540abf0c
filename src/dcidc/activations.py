"""Elementwise activation functions and their derivatives.

Four kinds are supported: tanh, the logistic sigmoid, the non-saturating
sigmoid y / (1 + |y|), and softplus.  Derivatives are written in the
layer's output z = g(y), the one value backprop keeps.  Tanh is the default
for both encoder and decoder.

Each pass fills one array: ``apply(kind, y, out=y)`` overwrites y, as the
forward pass does, and ``derivative`` computes in place in its one result,
in the operand order of the plain expression beside each kind, bit for bit.
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


def _sigmoid(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # split on sign so exp never overflows; each half reads only entries of y
    # it has not yet written, so out may be y itself
    out = np.empty_like(y) if out is None else out
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


def _softplus(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # for large y return y + log1p(exp(-y)) to avoid overflow; out may be y
    out = np.empty_like(y) if out is None else out
    pos = y > 0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


def apply(
    kind: ActivationKind, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise activation value at pre-activation y, written into out
    (which may be y itself) or, without out, into one fresh array."""
    if kind is ActivationKind.TANH:
        return np.tanh(y, out=out)
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(y, out)
    if kind is ActivationKind.NSSIGMOID:
        den = np.abs(y)
        den += 1.0
        return np.divide(y, den, out=den if out is None else out)  # y / (1 + |y|)
    if kind is ActivationKind.SOFTPLUS:
        return _softplus(y, out)
    raise ValueError(f"unhandled activation kind {kind!r}")


def derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative g'(y), given the output z = g(y), in one fresh array."""
    if kind is ActivationKind.TANH:
        d = np.multiply(z, z)
        return np.subtract(1.0, d, out=d)  # 1 - z*z
    if kind is ActivationKind.SIGMOID:
        d = np.subtract(1.0, z)
        return np.multiply(z, d, out=d)  # z * (1 - z)
    if kind is ActivationKind.NSSIGMOID:
        d = np.abs(z)
        np.subtract(1.0, d, out=d)  # 1 - |z| = 1 / (1 + |y|)
        return np.multiply(d, d, out=d)  # (1 - |z|) * (1 - |z|)
    if kind is ActivationKind.SOFTPLUS:
        d = np.negative(z)
        np.expm1(d, out=d)
        return np.negative(d, out=d)  # -expm1(-z) = sigmoid(y), z = softplus(y)
    raise ValueError(f"unhandled activation kind {kind!r}")
