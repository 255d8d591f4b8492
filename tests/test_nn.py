"""Kernel ops: frozen oracles from hand arithmetic plus finite-difference
gradient checks on random small shapes."""

import math

import numpy as np
import pytest

from mixroute.nn import (
    ADAM_EPSILON,
    AdamConfig,
    EmptyContextError,
    ParamTensor,
    ShapeMismatchError,
    adam_step,
    layer_norm,
    linear_forward,
    masked_attention,
    relu,
    softmax_rows,
    weighted_cross_entropy,
)

from helpers import central_difference, max_relative_error


def test_linear_identity_input():
    w = ParamTensor.from_value([[1.0, 2.0], [3.0, 4.0]])
    b = ParamTensor.zeros(1, 2)
    out, _ = linear_forward(np.eye(2), w, b)
    np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


def test_linear_bias_broadcast():
    w = ParamTensor.from_value([[1.0, 0.0], [0.0, 1.0]])
    b = ParamTensor.from_value([[5.0, -5.0]])
    out, _ = linear_forward(np.array([[1.0, 1.0]]), w, b)
    np.testing.assert_array_equal(out, [[6.0, -4.0]])


def test_linear_weight_gradient_matches_hand_value():
    # d(sum(out))/dW for input [[2, 3]] is [[2, 2], [3, 3]]
    w = ParamTensor.from_value([[0.5, -1.0], [2.0, 0.25]])
    b = ParamTensor.zeros(1, 2)
    x = np.array([[2.0, 3.0]])
    out, backward = linear_forward(x, w, b)
    backward(np.ones_like(out))
    np.testing.assert_allclose(w.grad, [[2.0, 2.0], [3.0, 3.0]], atol=1e-12)

    fd = central_difference(
        lambda v: float(np.sum(x @ v + b.value)), w.value.copy()
    )
    assert max_relative_error(w.grad, fd) < 1e-4


def test_linear_shape_mismatch():
    w = ParamTensor.zeros(3, 2)
    b = ParamTensor.zeros(1, 2)
    with pytest.raises(ShapeMismatchError):
        linear_forward(np.zeros((2, 2)), w, b)


def test_softmax_uniform_and_shift_invariance():
    out, _ = softmax_rows(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)
    out, _ = softmax_rows(np.array([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_closed_form():
    out, _ = softmax_rows(np.array([[math.log(1.0), math.log(3.0)]]))
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        logits = rng.normal(scale=5.0, size=(4, 6))
        probs, _ = softmax_rows(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        shifted, _ = softmax_rows(logits + rng.normal() * np.ones((4, 1)))
        assert np.max(np.abs(shifted - probs)) < 1e-9


def test_layer_norm_constant_row():
    g = ParamTensor.from_value(np.ones((1, 3)))
    s = ParamTensor.zeros(1, 3)
    out, _ = layer_norm(np.array([[5.0, 5.0, 5.0]]), g, s)
    np.testing.assert_allclose(out, [[0.0, 0.0, 0.0]], atol=1e-12)


def test_layer_norm_closed_form_eps():
    g = ParamTensor.from_value(np.ones((1, 2)))
    s = ParamTensor.zeros(1, 2)
    out, _ = layer_norm(np.array([[1.0, -1.0]]), g, s)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out, [[expected, -expected]], atol=1e-12)


def test_layer_norm_affine():
    g = ParamTensor.from_value(2.0 * np.ones((1, 2)))
    s = ParamTensor.from_value(np.ones((1, 2)))
    out, _ = layer_norm(np.array([[0.0, 2.0]]), g, s)
    unit = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out, [[1.0 - 2.0 * unit, 1.0 + 2.0 * unit]], atol=1e-12)


def test_layer_norm_rows_have_zero_mean():
    rng = np.random.default_rng(3)
    g = ParamTensor.from_value(np.ones((1, 8)))
    s = ParamTensor.zeros(1, 8)
    out, _ = layer_norm(rng.normal(size=(6, 8)), g, s)
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9


def test_masked_attention_single_key():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 4))
    out, _ = masked_attention(q, k, v, [1])
    np.testing.assert_array_equal(out, v)


def test_masked_attention_garbage_key_is_inert():
    rng = np.random.default_rng(1)
    q1 = rng.normal(size=(1, 4))
    k1 = rng.normal(size=(1, 4))
    v1 = rng.normal(size=(1, 4))
    base, _ = masked_attention(q1, k1, v1, [1])

    for garbage_scale in (1.0, 1e6, -37.5):
        q2 = np.vstack([q1, rng.normal(size=(1, 4))])
        k2 = np.vstack([k1, garbage_scale * rng.normal(size=(1, 4))])
        v2 = np.vstack([v1, garbage_scale * rng.normal(size=(1, 4))])
        out, _ = masked_attention(q2, k2, v2, [1, 0])
        assert (out[0] == base[0]).all()  # bitwise


def test_masked_attention_equal_keys_average_values():
    k = np.ones((2, 4))
    v = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    q = np.ones((2, 4))
    out, _ = masked_attention(q, k, v, [1, 1])
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_masked_attention_rejects_all_invalid():
    x = np.zeros((2, 4))
    with pytest.raises(EmptyContextError):
        masked_attention(x, x, x, [0, 0])


def test_masked_attention_weights_rows_sum_to_one():
    # reconstructed from output on one-hot values
    rng = np.random.default_rng(5)
    q = rng.normal(size=(3, 3))
    k = rng.normal(size=(3, 3))
    v = np.eye(3)
    out, _ = masked_attention(q, k, v, [1, 1, 0])
    np.testing.assert_allclose(out[:, :2].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(out[:, 2], 0.0)


def test_weighted_cross_entropy_oracles():
    loss, _ = weighted_cross_entropy(np.array([[1.0, 0.0]]), [0], [1.0, 1.0])
    assert loss == 0.0
    loss, _ = weighted_cross_entropy(np.array([[0.5, 0.5]]), [1], [1.0, 2.0])
    np.testing.assert_allclose(loss, 2.0 * math.log(2.0), atol=1e-12)
    loss, _ = weighted_cross_entropy(
        np.array([[0.5, 0.5], [0.5, 0.5]]), [0, 1], [1.0, 1.0]
    )
    np.testing.assert_allclose(loss, math.log(2.0), atol=1e-12)


def test_weighted_cross_entropy_zero_probability_is_floored():
    loss, _ = weighted_cross_entropy(np.array([[0.0, 1.0]]), [0], [1.0, 1.0])
    assert math.isfinite(loss)
    np.testing.assert_allclose(loss, -math.log(1e-12))


def test_weighted_cross_entropy_balanced_weights_reduce_to_unweighted():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(6, 3))
    probs, _ = softmax_rows(logits)
    labels = rng.integers(0, 3, size=6)
    weighted, _ = weighted_cross_entropy(probs, labels, [1.0, 1.0, 1.0])
    plain = float(np.mean(-np.log(probs[np.arange(6), labels])))
    assert weighted == plain  # bitwise


def test_cross_entropy_gradient_through_softmax():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    w = [0.6, 1.7, 1.0]

    probs, bw_soft = softmax_rows(logits)
    _, bw_ce = weighted_cross_entropy(probs, labels, w)
    analytic = bw_soft(bw_ce())

    def loss_of(lg):
        p, _ = softmax_rows(lg)
        value, _ = weighted_cross_entropy(p, labels, w)
        return value

    fd = central_difference(loss_of, logits.copy())
    assert max_relative_error(analytic, fd) < 1e-4


def test_adam_zero_gradient_is_a_fixed_point():
    p = ParamTensor.from_value([[1.0, -2.0]])
    before = p.value.copy()
    adam_step(p, AdamConfig(learning_rate=0.1))
    np.testing.assert_array_equal(p.value, before)


def test_adam_first_step_magnitude():
    cfg = AdamConfig(learning_rate=0.05)
    p = ParamTensor.from_value([[3.0]])
    g = 0.7
    p.grad[:] = g
    adam_step(p, cfg)
    # first step: lr * g / (|g| + eps) up to bias-correction rounding
    expected = cfg.learning_rate * g / (abs(g) + ADAM_EPSILON)
    np.testing.assert_allclose(3.0 - p.value[0, 0], expected, rtol=1e-9)
    assert p.step_count == 1
    np.testing.assert_array_equal(p.grad, 0.0)


def test_adam_consistent_gradient_moves_monotonically():
    p = ParamTensor.from_value([[0.0]])
    values = [0.0]
    for _ in range(3):
        p.grad[:] = -1.0  # push value upward
        adam_step(p, AdamConfig(learning_rate=0.01))
        values.append(p.value[0, 0])
    assert values == sorted(values)
    assert values[-1] > 0


@pytest.mark.parametrize("seed", range(100))
def test_gradients_match_finite_differences(seed):
    """Every parameterized op against central differences on random shapes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    d_in = int(rng.integers(1, 9))
    d_out = int(rng.integers(1, 9))
    target = rng.normal(size=(n, d_out))

    # linear
    x = rng.normal(size=(n, d_in))
    w = ParamTensor.from_value(rng.normal(size=(d_in, d_out)))
    b = ParamTensor.from_value(rng.normal(size=(1, d_out)))

    def linear_loss():
        out, _ = linear_forward(x, w, b)
        return float(np.sum(out * target))

    out, backward = linear_forward(x, w, b)
    gx = backward(target)
    fd_x = central_difference(
        lambda v: float(np.sum((v @ w.value + b.value) * target)), x.copy()
    )
    assert max_relative_error(gx, fd_x) < 1e-4
    fd_w = central_difference(
        lambda v: float(np.sum((x @ v + b.value) * target)), w.value.copy()
    )
    assert max_relative_error(w.grad, fd_w) < 1e-4

    # softmax + relu + layer_norm composed on a fresh input
    gain = ParamTensor.from_value(rng.normal(size=(1, d_out)))
    shift = ParamTensor.from_value(rng.normal(size=(1, d_out)))
    y = rng.normal(size=(n, d_out))

    def stack_loss(v):
        a, _ = relu(v)
        ln, _ = layer_norm(a, gain, shift)
        p, _ = softmax_rows(ln)
        return float(np.sum(p * target))

    a, bw_relu = relu(y)
    ln, bw_ln = layer_norm(a, gain, shift)
    p, bw_soft = softmax_rows(ln)
    gy = bw_relu(bw_ln(bw_soft(target)))
    fd_y = central_difference(stack_loss, y.copy())
    assert max_relative_error(gy, fd_y) < 1e-4

    # masked attention with a random valid prefix
    t = int(rng.integers(1, 7))
    d_h = int(rng.integers(1, 7))
    n_valid = int(rng.integers(1, t + 1))
    mask = np.array([1] * n_valid + [0] * (t - n_valid))
    q = rng.normal(size=(t, d_h))
    k = rng.normal(size=(t, d_h))
    v = rng.normal(size=(t, d_h))
    tgt = rng.normal(size=(t, d_h))

    out, bw_attn = masked_attention(q, k, v, mask)
    gq, gk, gv = bw_attn(tgt)
    for arr, grad in ((q, gq), (k, gk), (v, gv)):
        def attn_loss(val, which=arr):
            args = {id(q): q, id(k): k, id(v): v}
            args[id(which)] = val
            o, _ = masked_attention(args[id(q)], args[id(k)], args[id(v)], mask)
            return float(np.sum(o * tgt))

        fd = central_difference(attn_loss, arr.copy())
        assert max_relative_error(grad, fd) < 1e-4


def test_ops_are_deterministic():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(5, 5))
    g = ParamTensor.from_value(rng.normal(size=(1, 5)))
    s = ParamTensor.from_value(rng.normal(size=(1, 5)))
    a, _ = layer_norm(x, g, s)
    b, _ = layer_norm(x, g, s)
    assert (a == b).all()
    pa, _ = softmax_rows(x)
    pb, _ = softmax_rows(x)
    assert (pa == pb).all()


def test_stacked_ops_match_matrices_one_by_one():
    """A (B, t, d) stack gives each matrix's own output bitwise and the sum
    of the per-matrix parameter gradients."""
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, 4, 6))
    upstream = rng.normal(size=(3, 4, 6))
    mask = np.array([1, 1, 1, 0])
    w = ParamTensor.from_value(rng.normal(size=(6, 6)))
    b = ParamTensor.from_value(rng.normal(size=(1, 6)))
    gain = ParamTensor.from_value(rng.normal(size=(1, 6)))
    shift = ParamTensor.from_value(rng.normal(size=(1, 6)))
    params = (w, b, gain, shift)

    def chain(x, g):
        lin, bw_lin = linear_forward(x, w, b)
        act, bw_act = relu(lin)
        ln, bw_ln = layer_norm(act, gain, shift)
        att, bw_att = masked_attention(ln, ln, ln, mask)
        out, bw_soft = softmax_rows(att)
        gq, gk, gv = bw_att(bw_soft(g))
        return out, bw_lin(bw_act(bw_ln(gq + gk + gv)))

    for p in params:
        p.zero_grad()
    outs, grads = zip(*(chain(stack[i], upstream[i]) for i in range(3)))
    one_by_one = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    out, grad = chain(stack, upstream)
    np.testing.assert_array_equal(out, np.stack(outs))
    np.testing.assert_array_equal(grad, np.stack(grads))
    for p, expected in zip(params, one_by_one):
        np.testing.assert_allclose(p.grad, expected, rtol=1e-12, atol=1e-14)
