"""Dense numerical kernel: 2-D float64 matrices, per-op forward/backward, Adam.

Every differentiable op returns ``(output, backward)`` where ``backward``
takes the gradient of the loss w.r.t. the output, accumulates gradients
into any ParamTensor arguments, and returns the gradient w.r.t. the
non-parameter inputs. There is no tape: callers compose the closures in
reverse order themselves.

Parameters are 2-D, row-major, float64. The router runs the row-wise ops
(linear, layer norm, relu) once on packed 2-D rows: the rows of every
sequence of a batch, one under another. Attention and the router's head
take stacks: every op works on the last two axes and treats leading axes
as a batch, slice by slice exactly as it treats one matrix. With
OpenBLAS, a row of a matrix-matrix product comes out bitwise the same in
any company of two or more rows; a one-row product goes to BLAS's
matrix-vector routine and may round differently. Parameter gradients sum
over all rows. Shapes here are tiny (d <= 128, t <= 64), so the cost is
per op, not per FLOP: where the arithmetic allows, an op builds its result
in place in a buffer it owns, with the same operations in the same order as
the plain expression, so the bits are the same and fewer arrays are made.

ParamTensors are single-writer: forward/backward/adam_step on one set of
parameters must not run concurrently. Immutable value snapshots may be
shared read-only across rollout workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray  # 2-D float64, C-contiguous

# Floor applied inside log() for cross-entropy so a degenerate softmax
# output can never produce an infinite loss.
PROB_FLOOR = 1e-12

LAYER_NORM_EPS = 1e-5  # added to each row's variance before the square root
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # moment decays, denominator guard


class ShapeMismatchError(ValueError):
    """Operands disagree on dimensions."""


class EmptyContextError(ValueError):
    """Attention was asked to attend over zero valid keys."""


def as_matrix(data) -> Matrix:
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


@dataclass
class ParamTensor:
    """A learnable matrix with its gradient and Adam moment buffers."""

    value: Matrix
    grad: Matrix
    adam_m: Matrix
    adam_v: Matrix
    step_count: int = 0

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ParamTensor":
        return cls.from_value(np.zeros((rows, cols)))

    @classmethod
    def from_value(cls, value) -> "ParamTensor":
        v = as_matrix(value)
        return cls(
            value=v.copy(),
            grad=np.zeros(v.shape),
            adam_m=np.zeros(v.shape),
            adam_v=np.zeros(v.shape),
        )

    @classmethod
    def uniform(cls, rows: int, cols: int, fan_in: int, rng: np.random.Generator) -> "ParamTensor":
        bound = 1.0 / math.sqrt(fan_in)
        return cls.from_value(rng.uniform(-bound, bound, size=(rows, cols)))

    def zero_grad(self) -> None:
        self.grad[:] = 0.0

    def copy(self) -> "ParamTensor":
        """Fresh tensor with the same values and reset optimizer state."""
        return ParamTensor.from_value(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def linear_forward(x: Matrix, weight: ParamTensor, bias: ParamTensor):
    """out = x @ W + b with b broadcast over rows."""
    if x.shape[-1] != weight.value.shape[0]:
        raise ShapeMismatchError(
            f"input cols {x.shape[-1]} != weight rows {weight.value.shape[0]}"
        )
    if bias.value.shape != (1, weight.value.shape[1]):
        raise ShapeMismatchError(
            f"bias shape {bias.value.shape} != (1, {weight.value.shape[1]})"
        )
    out = x @ weight.value
    out += bias.value

    def backward(grad_out: Matrix) -> Matrix:
        rows_in = x.reshape(-1, x.shape[-1])
        rows_out = grad_out.reshape(-1, grad_out.shape[-1])
        weight.grad += rows_in.T @ rows_out
        bias.grad += rows_out.sum(axis=0, keepdims=True)
        return grad_out @ weight.value.T

    return out, backward


def relu(x: Matrix):
    out = np.maximum(x, 0.0)
    positive = x > 0.0

    def backward(grad_out: Matrix) -> Matrix:
        return grad_out * positive

    return out, backward


def softmax_rows(logits: Matrix):
    """Row-wise softmax with max-shift for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    def backward(grad_probs: Matrix) -> Matrix:
        inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
        return probs * (grad_probs - inner)

    return probs, backward


def layer_norm(x: Matrix, gain: ParamTensor, shift: ParamTensor):
    """Per-row normalization to mean 0 / variance 1, then affine."""
    d = x.shape[-1]
    if gain.value.shape != (1, d) or shift.value.shape != (1, d):
        raise ShapeMismatchError("gain/shift width must equal x.cols")
    # sum / d is what ndarray.mean computes, bitwise, without its overhead.
    mean = x.sum(axis=-1, keepdims=True) / d
    normed = x - mean  # centered, normalised in place below
    out = np.multiply(normed, normed)
    var = out.sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed *= inv_std
    np.multiply(normed, gain.value, out=out)
    out += shift.value

    def backward(grad_out: Matrix) -> Matrix:
        product = np.multiply(grad_out, normed)
        gain.grad += product.reshape(-1, d).sum(axis=0, keepdims=True)
        shift.grad += grad_out.reshape(-1, d).sum(axis=0, keepdims=True)
        g = grad_out * gain.value
        g_mean = g.sum(axis=-1, keepdims=True) / d
        np.multiply(g, normed, out=product)
        gn_mean = product.sum(axis=-1, keepdims=True) / d
        # inv_std * (g - g_mean - normed * gn_mean), built in g
        g -= g_mean
        np.multiply(normed, gn_mean, out=product)
        g -= product
        g *= inv_std
        return g

    return out, backward


def masked_attention(queries: Matrix, keys: Matrix, values: Matrix, key_valid):
    """Scaled dot-product attention; invalid keys get exactly zero weight.

    Invalid key/value rows may hold arbitrary finite garbage without
    affecting the output bitwise: their scores are replaced by -inf
    before the exp, so their weights are exactly 0.0.
    """
    valid = np.asarray(key_valid, dtype=bool).reshape(-1)
    if keys.shape != values.shape or queries.shape[-1] != keys.shape[-1]:
        raise ShapeMismatchError("q/k/v head widths must agree")
    if valid.shape[0] != keys.shape[-2]:
        raise ShapeMismatchError("mask length must equal number of keys")
    if not valid.any():
        raise EmptyContextError("attention over an all-invalid mask")

    scale = 1.0 / math.sqrt(queries.shape[-1])
    # The scores become the weights in one buffer: scale, mask, shift by the
    # row max, exponentiate (exp(-inf) == 0.0 exactly), normalise.
    weights = queries @ np.swapaxes(keys, -1, -2)
    weights *= scale
    if not valid.all():
        weights[..., ~valid] = -np.inf
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = weights @ values

    def backward(grad_out: Matrix):
        grad_values = np.swapaxes(weights, -1, -2) @ grad_out
        # the weights' gradient, turned in place into the scores' gradient
        # weights * (grad_weights - inner) * scale
        grad_scores = grad_out @ np.swapaxes(values, -1, -2)
        inner = (grad_scores * weights).sum(axis=-1, keepdims=True)
        grad_scores -= inner
        grad_scores *= weights
        grad_scores *= scale
        grad_queries = grad_scores @ keys
        grad_keys = np.swapaxes(grad_scores, -1, -2) @ queries
        return grad_queries, grad_keys, grad_values

    return out, backward


def weighted_cross_entropy(probabilities: Matrix, labels, class_weights):
    """Mean over rows of w_y * (-log p[y]), with the probability floor.

    ``backward()`` returns the gradient w.r.t. the probabilities; feeding
    it through the backward of the softmax that produced them yields the
    exact gradient w.r.t. the logits.
    """
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    w = np.asarray(class_weights, dtype=np.float64).reshape(-1)
    n, k = probabilities.shape
    if labels.shape[0] != n:
        raise ShapeMismatchError("one label per probability row required")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    if w.shape[0] != k:
        raise ShapeMismatchError("one class weight per column required")

    rows = np.arange(n)
    picked = probabilities[rows, labels]
    floored = np.maximum(picked, PROB_FLOOR)
    loss = float(np.mean(-w[labels] * np.log(floored)))

    def backward() -> Matrix:
        grad = np.zeros_like(probabilities)
        live = picked > PROB_FLOOR  # below the floor the clamp is active
        grad[rows[live], labels[live]] = -w[labels[live]] / (n * picked[live])
        return grad

    return loss, backward


def adam_step(param: ParamTensor, config: AdamConfig) -> ParamTensor:
    """Adam with bias correction; zeroes the gradient after applying it."""
    param.step_count += 1
    t = param.step_count
    g, m, v = param.grad, param.adam_m, param.adam_v
    # lr * m_hat / (sqrt(v_hat) + eps) in one scratch buffer, then in the
    # spent gradient, which is zeroed at the end anyway
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += scratch
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPSILON
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=g)
    g *= config.learning_rate
    g /= scratch
    param.value -= g
    g[:] = 0.0
    return param
