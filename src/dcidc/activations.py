"""Elementwise activation functions and their derivatives.

Four kinds are supported: tanh, the logistic sigmoid, the non-saturating
sigmoid y / (1 + |y|), and softplus.  Derivatives are written in the
layer's output z = g(y), the one value backprop keeps.  Tanh is the default
for both encoder and decoder.

Each pass fills one array: ``apply(kind, y)`` overwrites y, as the
forward pass does, and ``derivative`` computes in place in its one result,
a fresh array or the block buffer the backward pass reuses, in the operand
order of the plain expression beside each kind, bit for bit.
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
KIND_NAMES = tuple(kind.value for kind in ActivationKind)


def parse_kind(name: str) -> ActivationKind:
    try:
        return ActivationKind(name.lower())
    except ValueError:
        choices = ", ".join(KIND_NAMES)
        raise ValueError(f"unknown activation {name!r}; choose one of: {choices}")


def apply(kind: ActivationKind, y: np.ndarray) -> np.ndarray:
    """Elementwise activation value at pre-activation y, written over y,
    which is returned."""
    if kind is ActivationKind.TANH:
        return np.tanh(y, out=y)
    if kind is ActivationKind.SIGMOID:  # where(y >= 0, 1, e) / (1 + e), e = exp(-|y|)
        e = np.abs(y)
        np.exp(np.negative(e, out=e), out=e)
        num = np.where(y >= 0, 1.0, e)
        e += 1.0
        return np.divide(num, e, out=y)
    if kind is ActivationKind.NSSIGMOID:
        den = np.abs(y)
        den += 1.0
        return np.divide(y, den, out=y)  # y / (1 + |y|)
    t = np.abs(y)  # softplus: log1p(exp(-|y|)) + max(y, 0)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    return np.add(t, np.maximum(y, 0.0), out=y)


def derivative(
    kind: ActivationKind, z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise derivative g'(y), given the output z = g(y), written into
    out (an array of z's shape and type, not z itself) or, without out,
    into one fresh array."""
    if kind is ActivationKind.TANH:
        d = np.multiply(z, z, out=out)
        return np.subtract(1.0, d, out=d)  # 1 - z*z
    if kind is ActivationKind.SIGMOID:
        d = np.subtract(1.0, z, out=out)
        return np.multiply(z, d, out=d)  # z * (1 - z)
    if kind is ActivationKind.NSSIGMOID:
        d = np.abs(z, out=out)
        np.subtract(1.0, d, out=d)  # 1 - |z| = 1 / (1 + |y|)
        return np.multiply(d, d, out=d)  # (1 - |z|) * (1 - |z|)
    d = np.negative(z, out=out)  # softplus
    np.expm1(d, out=d)
    return np.negative(d, out=d)  # -expm1(-z) = sigmoid(y), z = softplus(y)
