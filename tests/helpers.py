"""Shared test utilities: central finite differences, relative error, a
writer of the retired version-1 checkpoint layout, recorders of
low-policy table solves, RNG streams and router passes, a field-by-field trajectory
comparison, the all-rows router forward, and the numpy categorical draw,
step embedding and kernel ops that the leaner ones must equal."""

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from mixroute.env import _token_hash
from mixroute.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    LAYER_NORM_EPS,
    layer_norm,
    linear_forward,
    masked_attention,
    relu,
    softmax_rows,
)
from mixroute.router import truncate_sequence


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at matrix x by central differences, coordinatewise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        old = x[ij]
        x[ij] = old + h
        up = f(x)
        x[ij] = old - h
        down = f(x)
        x[ij] = old
        grad[ij] = (up - down) / (2.0 * h)
    return grad


def param_central_difference(f, tensor, h=1e-5, coords=None):
    """Finite-difference gradient of scalar f() w.r.t. a ParamTensor's value.

    ``coords`` restricts the check to a subset of coordinates (list of
    index tuples); None checks all of them.
    """
    grad = np.zeros_like(tensor.value)
    if coords is None:
        coords = [tuple(ij) for ij in np.ndindex(*tensor.value.shape)]
    for ij in coords:
        old = tensor.value[ij]
        tensor.value[ij] = old + h
        up = f()
        tensor.value[ij] = old - h
        down = f()
        tensor.value[ij] = old
        grad[ij] = (up - down) / (2.0 * h)
    return grad, coords


def max_relative_error(analytic, numeric, floor=1.0):
    """max |a - n| / max(floor, |a|, |n|), elementwise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def write_version1_checkpoint(params, path):
    """Save ``params`` in the version-1 layout, whose header also carried an
    f64 dropout rate after the six u32 config fields."""
    cfg = params.config
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI6Id", b"MXRT", 1, cfg.embed_dim, cfg.num_layers,
                            cfg.num_heads, cfg.ffn_dim, cfg.num_precisions,
                            cfg.max_len, 0.0))
        for _, tensor in params.tensors():
            f.write(struct.pack("<II", *tensor.value.shape))
            f.write(tensor.value.astype("<f8").tobytes())


def record_low_solves(monkeypatch, env_module):
    """Patch the low-policy table solver to record the tasks of each call.

    Returns the list of calls, each the list of tasks solved together.
    """
    calls = []
    solve = env_module._solve_low_tables
    monkeypatch.setattr(env_module, "_solve_low_tables",
                        lambda tasks: calls.append(list(tasks)) or solve(tasks))
    return calls


def record_rng_keys(monkeypatch, env_module):
    """Patch the RNG-stream constructor to record the key of each stream built.

    Returns the list of keys, in build order.
    """
    keys = []
    make = env_module._rng
    monkeypatch.setattr(env_module, "_rng", lambda *key: keys.append(key) or make(*key))
    return keys


@dataclass
class RouterPass:
    """One recorded ``forward_probs_batch`` call: how many sequences it
    held, the parameters it ran and how many times its backward ran."""

    sequences: int
    params: object
    backwards: int = 0


def record_router_passes(monkeypatch, *modules):
    """Patch ``forward_probs_batch`` in each of ``modules`` to record every
    router pass.

    Returns the one list of passes, each a RouterPass, in call order.
    """
    passes = []

    def recorder(forward):
        def recorded(seqs, params):
            seqs = list(seqs)
            probs, backward = forward(seqs, params)
            entry = RouterPass(len(seqs), params)
            passes.append(entry)

            def recorded_backward(dprobs):
                entry.backwards += 1
                return backward(dprobs)

            return probs, recorded_backward

        return recorded

    for module in modules:
        monkeypatch.setattr(module, "forward_probs_batch", recorder(module.forward_probs_batch))
    return passes


def assert_same_trajectory(a, b):
    """Field by field; embeddings bitwise."""
    assert (a.episode_seed, a.driver, a.success, a.n_high, a.n_steps) == \
        (b.episode_seed, b.driver, b.success, b.n_high, b.n_steps)
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        for f in fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if f.name == "embedding" and u is not None:
                assert np.array_equal(u, v)
            else:
                assert u == v, f.name


def _split_heads(m, num_heads):
    """(B, t, d) -> (B, heads, t, d / heads) view."""
    b, t, d = m.shape
    return m.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(m):
    """(B, heads, t, d_head) -> (B, t, heads * d_head)."""
    b, h, t, dh = m.shape
    return m.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _all_rows_layer(x, params, i):
    """Encoder layer i over a (B, t, d) stack, every row computed."""
    w, at = params.by_name, f"layer{i}."
    num_heads = params.config.num_heads
    q, bw_q = linear_forward(x, w[at + "wq"], w[at + "bq"])
    k, bw_k = linear_forward(x, w[at + "wk"], w[at + "bk"])
    v, bw_v = linear_forward(x, w[at + "wv"], w[at + "bv"])
    every_key = np.ones(x.shape[-2], dtype=bool)
    heads, bw_heads = masked_attention(_split_heads(q, num_heads), _split_heads(k, num_heads),
                                       _split_heads(v, num_heads), every_key)
    attn, bw_o = linear_forward(_merge_heads(heads), w[at + "wo"], w[at + "bo"])
    normed1, bw_ln1 = layer_norm(x + attn, w[at + "ln1_gain"], w[at + "ln1_shift"])
    hidden, bw_f1 = linear_forward(normed1, w[at + "w1"], w[at + "b1"])
    act, bw_act = relu(hidden)
    ffn, bw_f2 = linear_forward(act, w[at + "w2"], w[at + "b2"])
    out, bw_ln2 = layer_norm(normed1 + ffn, w[at + "ln2_gain"], w[at + "ln2_shift"])

    def backward(grad):
        g = bw_ln2(grad)
        g_normed1 = g + bw_f1(bw_act(bw_f2(g)))
        g_resid1 = bw_ln1(g_normed1)
        gq, gk, gv = bw_heads(_split_heads(bw_o(g_resid1), num_heads))
        return (g_resid1 + bw_q(_merge_heads(gq)) + bw_k(_merge_heads(gk))
                + bw_v(_merge_heads(gv)))

    return out, backward


def all_rows_forward(seqs, params):
    """The router forward over a (B, t, d) stack of one-length sequences,
    every encoder layer run on every row, then the last row pooled: the
    reference for ``forward_probs_batch``, which packs sequences of any
    lengths into 2-D rows and whose last layer computes only the rows the
    head reads. A one-step stack's products here are matrix-vector, one per
    sequence.

    Returns the (B, t, d) encoder output, the (B, K) probabilities and
    ``backward(dprobs)``, which accumulates into the parameter gradients.
    """
    x = np.stack([truncate_sequence(s, params.config.max_len).embeddings for s in seqs])
    t, positional = x.shape[1], params.by_name["positional"]
    x = x + positional.value[:t]
    layers = []
    for i in range(params.config.num_layers):
        x, bw = _all_rows_layer(x, params, i)
        layers.append(bw)
    logits, bw_head = linear_forward(x[:, -1:, :], params.by_name["head_weight"],
                                     params.by_name["head_bias"])
    probs, bw_soft = softmax_rows(logits)

    def backward(dprobs):
        grad = np.zeros_like(x)
        grad[:, -1:, :] = bw_head(bw_soft(np.reshape(dprobs, probs.shape)))
        for bw in reversed(layers):
            grad = bw(grad)
        positional.grad[:t] += grad.sum(axis=0)

    return x, probs[:, 0, :], backward


def cumsum_sample_categorical(probs, rng):
    """The inverse-CDF draw as a cumsum and a searchsorted: one uniform, the
    first index whose cumulative sum exceeds it, clamped to the last."""
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


def float_embed_step(task_tokens, action, observation_tokens, dim):
    """The step embedding accumulated in a float array and divided by its
    ``np.linalg.norm``."""
    acc = np.zeros(dim)
    action_tokens = () if action is None else (f"act{action}",)
    for tok in (*task_tokens, *action_tokens, *observation_tokens):
        h = _token_hash(tok)
        acc[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    norm = np.linalg.norm(acc)
    if norm == 0.0:
        return acc
    return acc / norm


# --- kernel ops as plain expressions -----------------------------------------
#
# Each builds every intermediate as a fresh array. The ops in mixroute.nn
# build theirs in place, with the same operations in the same order, and
# must give the same bits.

def expression_linear(x, weight, bias):
    """linear_forward's output as ``x @ W + b``."""
    return x @ weight.value + bias.value


def expression_layer_norm(x, gain, shift):
    """layer_norm as plain expressions: the output, and the backward that
    accumulates into gain and shift and returns the input gradient."""
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / d
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed = centered * inv_std
    out = normed * gain.value + shift.value

    def backward(grad_out):
        gain.grad += (grad_out * normed).reshape(-1, d).sum(axis=0, keepdims=True)
        shift.grad += grad_out.reshape(-1, d).sum(axis=0, keepdims=True)
        g = grad_out * gain.value
        g_mean = g.sum(axis=-1, keepdims=True) / d
        gn_mean = (g * normed).sum(axis=-1, keepdims=True) / d
        return inv_std * (g - g_mean - normed * gn_mean)

    return out, backward


def expression_attention(queries, keys, values, key_valid):
    """masked_attention as plain expressions: the output, and the backward
    that returns the gradients of queries, keys and values."""
    valid = np.asarray(key_valid, dtype=bool)
    scale = 1.0 / math.sqrt(queries.shape[-1])
    scores = (queries @ np.swapaxes(keys, -1, -2)) * scale
    scores = np.where(valid, scores, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    weights = exp / exp.sum(axis=-1, keepdims=True)
    out = weights @ values

    def backward(grad_out):
        grad_values = np.swapaxes(weights, -1, -2) @ grad_out
        grad_weights = grad_out @ np.swapaxes(values, -1, -2)
        inner = (grad_weights * weights).sum(axis=-1, keepdims=True)
        grad_scores = weights * (grad_weights - inner) * scale
        grad_queries = grad_scores @ keys
        grad_keys = np.swapaxes(grad_scores, -1, -2) @ queries
        return grad_queries, grad_keys, grad_values

    return out, backward


def expression_adam_step(param, learning_rate):
    """adam_step as plain expressions, on a ParamTensor."""
    param.step_count += 1
    t = param.step_count
    g = param.grad
    param.adam_m *= ADAM_BETA1
    param.adam_m += (1.0 - ADAM_BETA1) * g
    param.adam_v *= ADAM_BETA2
    param.adam_v += (1.0 - ADAM_BETA2) * (g * g)
    m_hat = param.adam_m / (1.0 - ADAM_BETA1 ** t)
    v_hat = param.adam_v / (1.0 - ADAM_BETA2 ** t)
    param.value -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    param.grad[:] = 0.0
