"""Step-level precision router.

A 2-layer post-norm Transformer encoder over step embeddings with learned
absolute positional embeddings, self-attention, last-token pooling and a
K-way softmax head. Index 0 is the cheap (low-precision) policy, index 1
the expensive (high-precision) one. A batch of sequences of any lengths
runs as one pass over their packed rows; only attention runs per length
group. The head reads only the last step, so the last layer computes keys
and values for every step, queries and attention for the final two, and,
in a pass of two or more sequences, the rest for the final one only.

route() against a params snapshot that nobody is training is safe to call
from many workers at once; training (backward + adam_step) is single-writer.
"""

from __future__ import annotations

import struct
from collections.abc import ItemsView
from dataclasses import dataclass

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
    """A StepSequence with zero rows."""


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
    """The ordered step embeddings of an interaction history, oldest first."""

    embeddings: Matrix  # (t, d), t >= 1

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings)
        if self.embeddings.shape[0] == 0:
            raise EmptySequenceError("a StepSequence needs at least one step")

    @classmethod
    def of(cls, embeddings) -> "StepSequence":
        return cls(embeddings)

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]


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
    """All learnable parameters by their ``_layout`` names, in its order:
    ``positional``, ``layer{i}.<name>`` per layer, ``head_weight`` and
    ``head_bias``."""

    config: RouterConfig
    by_name: dict[str, ParamTensor]

    @classmethod
    def initialize(cls, config: RouterConfig, seed: int = 0) -> "RouterParams":
        rng = np.random.default_rng(seed)
        by_name = {}
        for name, (rows, cols), fan_in in _layout(config):
            if fan_in is not None:
                by_name[name] = ParamTensor.uniform(rows, cols, fan_in=fan_in, rng=rng)
            elif name.endswith("_gain"):
                by_name[name] = ParamTensor.from_value(np.ones((rows, cols)))
            else:
                by_name[name] = ParamTensor.zeros(rows, cols)
        return cls(config, by_name)

    def tensors(self) -> ItemsView[str, ParamTensor]:
        """(name, tensor) pairs in serialization order."""
        return self.by_name.items()

    def zero_grads(self) -> None:
        for t in self.by_name.values():
            t.zero_grad()

    def copy(self) -> "RouterParams":
        """Deep copy of values with fresh gradient/optimizer state."""
        return RouterParams(self.config, {n: t.copy() for n, t in self.by_name.items()})


ROUTING_MODES = ("greedy", "sampled")  # see choose_precision


@dataclass(frozen=True)
class RoutingDistribution:
    probs: np.ndarray  # (K,)
    chosen: int
    mode: str


def prefix_sequences(embeddings) -> list[StepSequence]:
    """The n step-states of an episode's (n, d) embedding matrix: sequence i
    holds rows 0..i. Every prefix is a view of the one matrix."""
    emb = as_matrix(embeddings)
    return [StepSequence(emb[:i + 1]) for i in range(emb.shape[0])]


def truncate_sequence(seq: StepSequence, max_len: int) -> StepSequence:
    """Keep the most recent ``max_len`` steps."""
    if seq.length <= max_len:
        return seq
    return StepSequence(seq.embeddings[-max_len:])


def _pack(seqs):
    """The rows of ``seqs`` packed into one (N, d) matrix, one length group
    after another in first-seen order, each group's sequences one under
    another, so a group's block reshapes to (sequences, length, d) as a
    view. Returns the rows, the (sequences, length) of each group and each
    input sequence's place in packed order.

    A lone one-step sequence is packed twice, so that no product has one
    row: numpy hands a one-row product to BLAS's matrix-vector routine,
    which rounds differently from a row of a matrix-matrix product.
    """
    stacks: dict[int, list[int]] = {}  # length -> indices of seqs
    for i, seq in enumerate(seqs):
        stacks.setdefault(seq.length, []).append(i)
    if len(seqs) == 1 and seqs[0].length == 1:
        stacks[1] = [0, 0]
    order = [i for stack in stacks.values() for i in stack]
    place = [0] * len(seqs)
    for k, i in enumerate(order):
        place[i] = k
    groups = [(len(stack), seqs[stack[0]].length) for stack in stacks.values()]
    return np.concatenate([seqs[i].embeddings for i in order]), groups, place


def _spans(groups, last: bool):
    """(b, t, q, rows, queries) per length group of b sequences of t steps:
    the q query rows of each sequence (its final min(t, 2) in the last
    layer, else all t), and the slices of the group's rows among the
    packed rows and of its query rows among the packed query rows."""
    row = query = 0
    for b, t in groups:
        q = min(t, 2) if last else t
        yield b, t, q, slice(row, row + b * t), slice(query, query + b * q)
        row, query = row + b * t, query + b * q


def _add_positions(x, groups, params: RouterParams):
    """Add P[i] to row i of every sequence in the packed rows ``x``."""
    positional = params.by_name["positional"]
    out = np.empty_like(x)
    for b, t, _, rows, _ in _spans(groups, False):
        np.add(x[rows].reshape(b, t, -1), positional.value[:t],
               out=out[rows].reshape(b, t, -1))

    def backward(grad_out):
        for b, t, _, rows, _ in _spans(groups, False):
            positional.grad[:t] += grad_out[rows].reshape(b, t, -1).sum(axis=0)
        return grad_out

    return out, backward


def _check_dim(seq: StepSequence, params: RouterParams) -> None:
    d = seq.embeddings.shape[1]
    if d != params.config.embed_dim:
        raise ShapeMismatchError(
            f"sequence dim {d} != router embed_dim {params.config.embed_dim}"
        )


def _split_heads(rows, b: int, num_heads: int):
    """(b * t, d) rows of b sequences -> (b, heads, t, d / heads) view."""
    d = rows.shape[-1]
    return rows.reshape(b, -1, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _attend(q, k, v, spans, num_heads: int):
    """Self-attention per length group over packed rows: ``k`` and ``v``
    hold all rows of each group, ``q`` its query rows (see ``_spans``).
    Returns the merged heads of the query rows.

    All heads of a group attend in one call; each head reads and writes
    the same strided columns a per-head slice would.
    """
    out = np.empty_like(q)
    backwards = []
    for b, t, _, rows, queries in spans:
        heads, bw = masked_attention(
            _split_heads(q[queries], b, num_heads), _split_heads(k[rows], b, num_heads),
            _split_heads(v[rows], b, num_heads), np.ones(t, dtype=bool))
        _split_heads(out[queries], b, num_heads)[...] = heads
        backwards.append(bw)

    def backward(grad):
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for (b, _, _, rows, queries), bw in zip(spans, backwards):
            parts = bw(_split_heads(grad[queries], b, num_heads))
            for dst, at, part in zip((gq, gk, gv), (queries, rows, rows), parts):
                _split_heads(dst[at], b, num_heads)[...] = part
        return gq, gk, gv

    return out, backward


def _layer_forward(x, params: RouterParams, i: int, groups, last: bool):
    """Encoder layer i over the packed rows ``x``. Every layer but the last
    computes every row. The last attends from the final min(t, 2) rows of
    each sequence to all t steps of it, which give every key and value; a
    pass of two or more sequences then keeps only each sequence's final
    row, the one the head reads, for ``wo``, both norms and the FFN.
    Returns the rows it computed, packed."""
    w, at = params.by_name, f"layer{i}."
    spans = list(_spans(groups, last))
    rows = x
    if last:
        rows = np.empty((sum(b * q for b, _, q, _, _ in spans), x.shape[1]))
        for b, t, q, block, queries in spans:
            rows[queries].reshape(b, q, -1)[...] = x[block].reshape(b, t, -1)[:, t - q:]
    q, bw_q = linear_forward(rows, w[at + "wq"], w[at + "bq"])
    k, bw_k = linear_forward(x, w[at + "wk"], w[at + "bk"])
    v, bw_v = linear_forward(x, w[at + "wv"], w[at + "bv"])
    heads, bw_heads = _attend(q, k, v, spans, params.config.num_heads)
    n_query, final = len(rows), None
    if last and 1 < sum(b for b, _ in groups) < n_query:
        # A lone sequence keeps both rows, so no product has one row.
        final = np.concatenate([np.arange(queries.start + q - 1, queries.stop, q)
                                for _, _, q, _, queries in spans])
        rows, heads = rows[final], heads[final]
    attn, bw_o = linear_forward(heads, w[at + "wo"], w[at + "bo"])

    resid1 = np.add(rows, attn, out=attn)
    normed1, bw_ln1 = layer_norm(resid1, w[at + "ln1_gain"], w[at + "ln1_shift"])
    hidden, bw_f1 = linear_forward(normed1, w[at + "w1"], w[at + "b1"])
    act, bw_act = relu(hidden)
    ffn, bw_f2 = linear_forward(act, w[at + "w2"], w[at + "b2"])
    resid2 = np.add(normed1, ffn, out=ffn)
    out, bw_ln2 = layer_norm(resid2, w[at + "ln2_gain"], w[at + "ln2_shift"])

    def spread(g):
        """The final rows' gradient ``g`` on all query rows, 0 elsewhere."""
        full = np.zeros((n_query, g.shape[1]))
        full[final] = g
        return full

    def backward(grad):
        g = bw_ln2(grad)
        g += bw_f1(bw_act(bw_f2(g)))
        g_rows = bw_ln1(g)
        g_heads = bw_o(g_rows)
        if final is not None:
            g_rows, g_heads = spread(g_rows), spread(g_heads)
        gq, gk, gv = bw_heads(g_heads)
        g_rows += bw_q(gq)
        g_x = g_rows
        if last:
            g_x = np.zeros_like(x)
            for b, t, q, block, queries in spans:
                g_x[block].reshape(b, t, -1)[:, t - q:] = g_rows[queries].reshape(b, q, -1)
        g_x += bw_k(gk)
        g_x += bw_v(gv)
        return g_x

    return out, backward


def _encode(x, groups, params: RouterParams):
    """N encoder layers over packed position-augmented rows.

    Returns only the rows the last layer computes (see ``_layer_forward``):
    each sequence's final row, packed, or a lone sequence's final min(t, 2)
    rows. Either way the last P rows of the result are the final rows of
    the P packed sequences.
    """
    layers = []
    last = params.config.num_layers - 1
    for i in range(params.config.num_layers):
        x, bw = _layer_forward(x, params, i, groups, i == last)
        layers.append(bw)

    def backward(grad):
        for bw in reversed(layers):
            grad = bw(grad)
        return grad

    return x, backward


def forward_probs_batch(seqs, params: RouterParams):
    """Router forward over sequences of any lengths, in one pass.

    The sequences' rows are packed into one 2-D matrix, one length group
    after another (``_pack``): every row-wise op runs once on the packed
    rows, and only attention runs per group. Nothing is padded, so each
    row of the result is bitwise equal to ``forward_probs(seqs[b],
    params)``, in any company and any input order.

    Returns probs of shape (B, K) in input order, and ``backward(dprobs)``
    taking a (B, K) gradient and accumulating the gradient of the whole
    batch into every parameter tensor.
    """
    seqs = [truncate_sequence(s, params.config.max_len) for s in seqs]
    if not seqs:
        raise ValueError("forward_probs_batch needs at least one sequence")
    for s in seqs:
        _check_dim(s, params)
    rows, groups, place = _pack(seqs)
    x, bw_pos = _add_positions(rows, groups, params)
    hidden, bw_enc = _encode(x, groups, params)
    # Each packed sequence's final row, in packed order, as a (P, 1, d)
    # stack: the head runs per sequence.
    n_packed = sum(b for b, _ in groups)
    pooled = hidden[-n_packed:, None]
    logits, bw_head = linear_forward(pooled, params.by_name["head_weight"],
                                       params.by_name["head_bias"])
    probs, bw_soft = softmax_rows(logits)

    def backward(dprobs) -> None:
        dp = np.zeros_like(probs)
        dp[place, 0] = np.asarray(dprobs, dtype=np.float64).reshape(len(place), -1)
        d_hidden = np.zeros_like(hidden)
        d_hidden[-n_packed:, None] = bw_head(bw_soft(dp))
        bw_pos(bw_enc(d_hidden))

    return probs[:, 0].take(place, axis=0), backward


def forward_probs(seq: StepSequence, params: RouterParams):
    """Full router forward: probs over precisions plus a backward closure.

    ``backward(dprobs)`` accepts the gradient w.r.t. the K probabilities and
    accumulates gradients into every parameter tensor.
    """
    probs, backward = forward_probs_batch([seq], params)
    return probs[0], backward


def sample_categorical(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw consuming exactly one uniform: the first index whose
    running total, summed left to right in float64 as ``np.cumsum`` sums,
    exceeds the uniform; the last index when rounding leaves the total at or
    below it."""
    u = rng.random()
    total = 0.0
    for i, p in enumerate(np.asarray(probs, dtype=np.float64).tolist()):
        total += p
        if u < total:
            return i
    return len(probs) - 1


def choose_precision(probs: np.ndarray, mode: str,
                     rng: np.random.Generator | None = None) -> int:
    """Pick a precision from router probabilities.

    Greedy mode breaks ties toward the lowest index, i.e. the cheapest
    precision. Sampled mode draws from the categorical using ``rng``.
    """
    if mode == "greedy":
        return int(np.argmax(probs))
    if mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        return sample_categorical(probs, rng)
    raise ValueError(f"unknown routing mode {mode!r}")


def route(seq: StepSequence, params: RouterParams, mode: str = "greedy",
          rng: np.random.Generator | None = None) -> RoutingDistribution:
    """Route one decision step (see ``choose_precision`` for the modes)."""
    probs, _ = forward_probs(seq, params)
    return RoutingDistribution(probs=probs, chosen=choose_precision(probs, mode, rng),
                               mode=mode)


# --- checkpoint format -------------------------------------------------------
#
# Little-endian binary:
#   magic   4 bytes  b"MXRT"
#   version u32      currently 2 (version 1 carried one more f64 after the config)
#   config  6 x u32  the RouterConfig fields named in _HEADER_FIELDS, in order
#   then, for every tensor in _layout order (positional, each layer's 16
#   tensors, head_weight, head_bias):
#     rows u32, cols u32, rows*cols f64 values

CHECKPOINT_MAGIC = b"MXRT"
CHECKPOINT_VERSION = 2
_HEADER_FIELDS = ("embed_dim", "num_layers", "num_heads", "ffn_dim",
                  "num_precisions", "max_len")
_HEADER = struct.Struct(f"<4sI{len(_HEADER_FIELDS)}I")
_SHAPE = struct.Struct("<II")


def save_params(params: RouterParams, path) -> None:
    cfg = params.config
    with open(path, "wb") as f:
        f.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             *(getattr(cfg, name) for name in _HEADER_FIELDS)))
        for name, _, _ in _layout(cfg):
            tensor = params.by_name[name]
            rows, cols = tensor.value.shape
            f.write(_SHAPE.pack(rows, cols))
            f.write(np.ascontiguousarray(tensor.value, dtype="<f8").tobytes())


def load_params(path, config: RouterConfig | None = None) -> RouterParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a router checkpoint")
    _, version, *header = _HEADER.unpack_from(blob, 0)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    try:
        stored = RouterConfig(**dict(zip(_HEADER_FIELDS, header)))
    except ValueError as exc:
        raise CorruptCheckpointError(f"{path}: header stores an unusable config ({exc})") from None
    if config is not None and config != stored:
        raise CheckpointConfigError(
            f"{path}: stored config {stored} does not match expected {config}"
        )
    by_name = {}
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
        by_name[name] = ParamTensor.from_value(np.frombuffer(
            blob, dtype="<f8", count=rows * cols, offset=offset
        ).reshape(rows, cols))
        offset += nbytes
    if offset != len(blob):
        raise CorruptCheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return RouterParams(stored, by_name)
