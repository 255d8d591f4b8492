"""Step-level precision router.

A 2-layer post-norm Transformer encoder over step embeddings with learned
absolute positional embeddings, masked self-attention, last-valid-token
pooling and a K-way softmax head. Index 0 is the cheap (low-precision)
policy, index 1 the expensive (high-precision) one.

route() against a params snapshot that nobody is training is safe to call
from many workers at once; training (backward + adam_step) is single-writer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .nn import (
    Matrix,
    ParamTensor,
    ShapeMismatchError,
    as_matrix,
    layer_norm,
    linear_forward,
    masked_attention,
    relu,
    softmax_rows,
)


class EmptySequenceError(ValueError):
    """A StepSequence (or mask) with zero valid steps."""


class CheckpointError(RuntimeError):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointConfigError(CheckpointError):
    pass


@dataclass(frozen=True)
class RouterConfig:
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 0  # 0 -> 4 * embed_dim
    num_precisions: int = 2
    max_len: int = 64

    def __post_init__(self):
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.embed_dim)
        problems = []
        if self.embed_dim < 1:
            problems.append("embed_dim must be >= 1")
        if self.num_layers < 1:
            problems.append("num_layers must be >= 1")
        if self.num_heads < 1 or self.embed_dim % max(self.num_heads, 1) != 0:
            problems.append("embed_dim must be divisible by num_heads")
        if self.ffn_dim < 1:
            problems.append("ffn_dim must be >= 1")
        if self.num_precisions < 2:
            problems.append("num_precisions must be >= 2")
        if self.max_len < 1:
            problems.append("max_len must be >= 1")
        if problems:
            raise ValueError("invalid RouterConfig: " + "; ".join(problems))


@dataclass
class StepSequence:
    """Ordered step embeddings plus a validity mask (prefix of ones)."""

    embeddings: Matrix  # (t, d)
    mask: np.ndarray    # (t,) of {0, 1}

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings)
        self.mask = np.asarray(self.mask, dtype=np.uint8).reshape(-1)
        t = self.embeddings.shape[0]
        if self.mask.shape[0] != t:
            raise ShapeMismatchError("mask length must equal number of rows")
        n = int(self.mask.sum())
        if n == 0:
            raise EmptySequenceError("a StepSequence needs at least one valid step")
        if not (self.mask[:n] == 1).all() or (n < t and self.mask[n:].any()):
            raise ValueError("mask must be a prefix of ones followed by zeros")

    @classmethod
    def of(cls, embeddings) -> "StepSequence":
        emb = as_matrix(embeddings)
        return cls(emb, np.ones(emb.shape[0], dtype=np.uint8))

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


@dataclass
class EncoderLayerParams:
    wq: ParamTensor
    bq: ParamTensor
    wk: ParamTensor
    bk: ParamTensor
    wv: ParamTensor
    bv: ParamTensor
    wo: ParamTensor
    bo: ParamTensor
    ln1_gain: ParamTensor
    ln1_shift: ParamTensor
    w1: ParamTensor
    b1: ParamTensor
    w2: ParamTensor
    b2: ParamTensor
    ln2_gain: ParamTensor
    ln2_shift: ParamTensor


def _layout(config: RouterConfig) -> list[tuple[str, tuple[int, int], int | None]]:
    """(name, shape, fan_in) of every tensor in serialization order. A tensor
    without a fan-in is a layer-norm gain (starts at 1) or shift (at 0)."""
    d, f, k = config.embed_dim, config.ffn_dim, config.num_precisions
    layer = (("wq", (d, d), d), ("bq", (1, d), d), ("wk", (d, d), d), ("bk", (1, d), d),
             ("wv", (d, d), d), ("bv", (1, d), d), ("wo", (d, d), d), ("bo", (1, d), d),
             ("ln1_gain", (1, d), None), ("ln1_shift", (1, d), None),
             ("w1", (d, f), d), ("b1", (1, f), d), ("w2", (f, d), f), ("b2", (1, d), f),
             ("ln2_gain", (1, d), None), ("ln2_shift", (1, d), None))
    out = [("positional", (config.max_len, d), d)]
    for i in range(config.num_layers):
        out += [(f"layer{i}.{name}", shape, fan_in) for name, shape, fan_in in layer]
    return out + [("head_weight", (d, k), d), ("head_bias", (1, k), d)]


@dataclass
class RouterParams:
    """All learnable parameters, in the order they are serialized."""

    config: RouterConfig
    positional: ParamTensor              # (max_len, d)
    layers: list[EncoderLayerParams] = field(default_factory=list)
    head_weight: ParamTensor = None      # (d, K)
    head_bias: ParamTensor = None        # (1, K)

    @classmethod
    def initialize(cls, config: RouterConfig, seed: int = 0) -> "RouterParams":
        rng = np.random.default_rng(seed)
        tensors = []
        for name, (rows, cols), fan_in in _layout(config):
            if fan_in is not None:
                tensors.append(ParamTensor.uniform(rows, cols, fan_in=fan_in, rng=rng))
            elif name.endswith("_gain"):
                tensors.append(ParamTensor.from_value(np.ones((rows, cols))))
            else:
                tensors.append(ParamTensor.zeros(rows, cols))
        return cls._from_tensors(config, tensors)

    @classmethod
    def _from_tensors(cls, config: RouterConfig, tensors: list[ParamTensor]) -> "RouterParams":
        """Params made of ``tensors``, given in ``tensors()`` order."""
        per_layer = len(fields(EncoderLayerParams))
        layers = [EncoderLayerParams(*tensors[1 + i * per_layer:1 + (i + 1) * per_layer])
                  for i in range(config.num_layers)]
        return cls(config, tensors[0], layers, tensors[-2], tensors[-1])

    def tensors(self) -> list[tuple[str, ParamTensor]]:
        values = [self.positional]
        for lp in self.layers:
            values += [getattr(lp, f.name) for f in fields(lp)]
        values += [self.head_weight, self.head_bias]
        return [(name, t) for (name, _, _), t in zip(_layout(self.config), values)]

    def zero_grads(self) -> None:
        for _, t in self.tensors():
            t.zero_grad()

    def copy(self) -> "RouterParams":
        """Deep copy of values with fresh gradient/optimizer state."""
        return self._from_tensors(self.config, [t.copy() for _, t in self.tensors()])


@dataclass(frozen=True)
class RoutingDistribution:
    probs: np.ndarray  # (K,)
    chosen: int
    mode: str


def prefix_sequences(embeddings) -> list[StepSequence]:
    """The n step-states of an episode's (n, d) embedding matrix: sequence i
    holds rows 0..i. Every prefix is a view of the one matrix and one mask."""
    emb = as_matrix(embeddings)
    ones = np.ones(emb.shape[0], dtype=np.uint8)
    return [StepSequence(emb[:i + 1], ones[:i + 1]) for i in range(emb.shape[0])]


def truncate_sequence(seq: StepSequence, max_len: int) -> StepSequence:
    """Keep the most recent ``max_len`` valid steps; drop padding if cutting."""
    if seq.length <= max_len:
        return seq
    n = seq.n_valid
    kept = seq.embeddings[:n][max(0, n - max_len):]
    return StepSequence(kept, np.ones(kept.shape[0], dtype=np.uint8))


def _add_positions(x, n: int, params: RouterParams):
    """Add P[i] to row i < n of every matrix in ``x`` (one matrix or a stack)."""
    out = x.copy()
    out[..., :n, :] += params.positional.value[:n]

    def backward(grad_out):
        valid_rows = grad_out[..., :n, :]
        params.positional.grad[:n] += valid_rows.reshape(-1, n, out.shape[-1]).sum(axis=0)
        return grad_out

    return out, backward


def _check_dim(seq: StepSequence, params: RouterParams) -> None:
    d = seq.embeddings.shape[1]
    if d != params.config.embed_dim:
        raise ShapeMismatchError(
            f"sequence dim {d} != router embed_dim {params.config.embed_dim}"
        )


def _split_heads(m, num_heads: int):
    """(B, t, d) -> (B, heads, t, d / heads) view."""
    b, t, d = m.shape
    return m.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(m):
    """(B, heads, t, d_head) -> (B, t, heads * d_head)."""
    b, h, t, dh = m.shape
    return m.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _layer_forward(x, valid: np.ndarray, lp: EncoderLayerParams, num_heads: int):
    """One encoder layer over a (B, t, d) stack sharing the key mask ``valid``.

    All heads attend in one call; each head reads and writes the same
    strided columns a per-head slice would.
    """
    q, bw_q = linear_forward(x, lp.wq, lp.bq)
    k, bw_k = linear_forward(x, lp.wk, lp.bk)
    v, bw_v = linear_forward(x, lp.wv, lp.bv)
    heads, bw_heads = masked_attention(_split_heads(q, num_heads), _split_heads(k, num_heads),
                                       _split_heads(v, num_heads), valid)
    attn, bw_o = linear_forward(_merge_heads(heads), lp.wo, lp.bo)

    resid1 = x + attn
    normed1, bw_ln1 = layer_norm(resid1, lp.ln1_gain, lp.ln1_shift)
    hidden, bw_f1 = linear_forward(normed1, lp.w1, lp.b1)
    act, bw_act = relu(hidden)
    ffn, bw_f2 = linear_forward(act, lp.w2, lp.b2)
    resid2 = normed1 + ffn
    out, bw_ln2 = layer_norm(resid2, lp.ln2_gain, lp.ln2_shift)

    def backward(grad):
        g = bw_ln2(grad)
        g_normed1 = g + bw_f1(bw_act(bw_f2(g)))
        g_resid1 = bw_ln1(g_normed1)
        g_concat = bw_o(g_resid1)
        gq, gk, gv = bw_heads(_split_heads(g_concat, num_heads))
        return (g_resid1 + bw_q(_merge_heads(gq)) + bw_k(_merge_heads(gk))
                + bw_v(_merge_heads(gv)))

    return out, backward


def _encode_stack(x, valid: np.ndarray, params: RouterParams):
    """N encoder layers over a (B, t, d) stack of position-augmented inputs.

    Rows that ``valid`` masks out never influence the hidden states of the
    valid rows.
    """
    stack = []
    for lp in params.layers:
        x, bw = _layer_forward(x, valid, lp, params.config.num_heads)
        stack.append(bw)

    def backward(grad):
        for bw in reversed(stack):
            grad = bw(grad)
        return grad

    return x, backward


def forward_probs_batch(seqs, params: RouterParams):
    """Router forward over sequences of one length and one mask, as a stack.

    Returns probs of shape (B, K), row b bitwise equal to
    ``forward_probs(seqs[b], params)``, and ``backward(dprobs)`` taking a
    (B, K) gradient and accumulating the gradient of the whole stack into
    every parameter tensor.
    """
    seqs = [truncate_sequence(s, params.config.max_len) for s in seqs]
    if not seqs:
        raise ValueError("forward_probs_batch needs at least one sequence")
    mask = seqs[0].mask
    for s in seqs:
        _check_dim(s, params)
        if not np.array_equal(s.mask, mask):
            raise ShapeMismatchError("a batch needs one sequence length and one mask")
    n = seqs[0].n_valid
    x, bw_pos = _add_positions(np.stack([s.embeddings for s in seqs]), n, params)
    hidden, bw_enc = _encode_stack(x, mask.astype(bool), params)
    pooled = hidden[:, n - 1:n, :]  # (B, 1, d): the head runs per sequence
    logits, bw_head = linear_forward(pooled, params.head_weight, params.head_bias)
    probs, bw_soft = softmax_rows(logits)

    def backward(dprobs) -> None:
        dp = np.asarray(dprobs, dtype=np.float64).reshape(probs.shape)
        d_hidden = np.zeros_like(hidden)
        d_hidden[:, n - 1:n, :] = bw_head(bw_soft(dp))
        bw_pos(bw_enc(d_hidden))

    return probs[:, 0, :], backward


def forward_probs(seq: StepSequence, params: RouterParams):
    """Full router forward: probs over precisions plus a backward closure.

    ``backward(dprobs)`` accepts the gradient w.r.t. the K probabilities and
    accumulates gradients into every parameter tensor.
    """
    probs, backward = forward_probs_batch([seq], params)
    return probs[0], backward


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw consuming exactly one uniform."""
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


def route(seq: StepSequence, params: RouterParams, mode: str = "greedy",
          rng: np.random.Generator | None = None) -> RoutingDistribution:
    """Route one decision step.

    Greedy mode breaks ties toward the lowest index, i.e. the cheapest
    precision. Sampled mode draws from the categorical using ``rng``.
    """
    probs, _ = forward_probs(seq, params)
    if mode == "greedy":
        chosen = int(np.argmax(probs))
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        chosen = sample_categorical(probs, rng)
    else:
        raise ValueError(f"unknown routing mode {mode!r}")
    return RoutingDistribution(probs=probs, chosen=chosen, mode=mode)


# --- checkpoint format -------------------------------------------------------
#
# Little-endian binary:
#   magic   4 bytes  b"MXRT"
#   version u32      currently 2 (version 1 carried one more f64 after the config)
#   config  6 x u32  (embed_dim, num_layers, num_heads, ffn_dim,
#                     num_precisions, max_len)
#   then, for every tensor in RouterParams.tensors() order:
#     rows u32, cols u32, rows*cols f64 values

CHECKPOINT_MAGIC = b"MXRT"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("<4sI6I")
_SHAPE = struct.Struct("<II")


def save_params(params: RouterParams, path) -> None:
    cfg = params.config
    with open(path, "wb") as f:
        f.write(_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            cfg.embed_dim, cfg.num_layers, cfg.num_heads, cfg.ffn_dim,
            cfg.num_precisions, cfg.max_len,
        ))
        for _, tensor in params.tensors():
            rows, cols = tensor.value.shape
            f.write(_SHAPE.pack(rows, cols))
            f.write(np.ascontiguousarray(tensor.value, dtype="<f8").tobytes())


def load_params(path, config: RouterConfig | None = None) -> RouterParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a router checkpoint")
    (_, version, embed_dim, num_layers, num_heads, ffn_dim,
     num_precisions, max_len) = _HEADER.unpack_from(blob, 0)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    stored = RouterConfig(
        embed_dim=embed_dim, num_layers=num_layers, num_heads=num_heads,
        ffn_dim=ffn_dim, num_precisions=num_precisions, max_len=max_len,
    )
    if config is not None and config != stored:
        raise CheckpointConfigError(
            f"{path}: stored config {stored} does not match expected {config}"
        )
    tensors = []
    offset = _HEADER.size
    for name, shape, _ in _layout(stored):
        if offset + _SHAPE.size > len(blob):
            raise CorruptCheckpointError(f"{path}: truncated before {name}")
        rows, cols = _SHAPE.unpack_from(blob, offset)
        offset += _SHAPE.size
        if (rows, cols) != shape:
            raise CorruptCheckpointError(
                f"{path}: tensor {name} has shape ({rows}, {cols}), expected {shape}"
            )
        nbytes = rows * cols * 8
        if offset + nbytes > len(blob):
            raise CorruptCheckpointError(f"{path}: truncated inside {name}")
        tensors.append(ParamTensor.from_value(np.frombuffer(
            blob, dtype="<f8", count=rows * cols, offset=offset
        ).reshape(rows, cols)))
        offset += nbytes
    if offset != len(blob):
        raise CorruptCheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return RouterParams._from_tensors(stored, tensors)
