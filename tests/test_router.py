"""Router: positions, pooling, routing head, checkpoints."""

import hashlib
import math
import struct

import numpy as np
import pytest
from scipy import stats

from mixroute.nn import ShapeMismatchError, linear_forward, softmax_rows
from mixroute.router import (
    CheckpointConfigError,
    CorruptCheckpointError,
    CheckpointVersionError,
    EmptySequenceError,
    RouterConfig,
    RouterParams,
    StepSequence,
    _add_positions,
    _encode,
    _pack,
    forward_probs,
    forward_probs_batch,
    load_params,
    route,
    sample_categorical,
    save_params,
    truncate_sequence,
)

from helpers import all_rows_forward, cumsum_sample_categorical, write_version1_checkpoint


def with_layers(num_layers):
    return RouterConfig(embed_dim=8, num_layers=num_layers, num_heads=2, ffn_dim=16,
                        max_len=6)


SMALL = with_layers(2)


@pytest.fixture
def params():
    return RouterParams.initialize(SMALL, seed=0)


def seq_of(rows):
    return StepSequence(np.asarray(rows, dtype=np.float64))


def hidden_states(seq, params):
    """Encoder output of every row of one sequence, truncated and
    position-augmented as forward_probs_batch does, every layer run on
    every row."""
    h, _, _ = all_rows_forward([seq], params)
    return h[0]


def test_step_sequence_rejects_bad_masks():
    """A sequence without rows has no step to route."""
    with pytest.raises(EmptySequenceError):
        StepSequence(np.zeros((0, 8)))


def test_add_positions_zero_positions(params):
    params.by_name["positional"].value[:] = 0.0
    x = np.random.default_rng(0).normal(size=(4, 8))
    out, _ = _add_positions(x, [(1, 4)], params)
    np.testing.assert_array_equal(out, x)


def test_add_positions_zero_input(params):
    out, _ = _add_positions(np.zeros((3, 8)), [(1, 3)], params)
    np.testing.assert_array_equal(out, params.by_name["positional"].value[:3])


def test_add_positions_truncates_oldest_first(params):
    # length max_len + 3: rows 3.. survive and are re-indexed from position 0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(SMALL.max_len + 3, 8))
    seq = truncate_sequence(seq_of(x), SMALL.max_len)
    out, _ = _add_positions(seq.embeddings, [(1, SMALL.max_len)], params)
    assert out.shape == (SMALL.max_len, 8)
    np.testing.assert_array_equal(out, x[3:] + params.by_name["positional"].value)


def test_truncation_consistency(params):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(SMALL.max_len + 4, 8))
    full = route(seq_of(x), params)
    suffix = route(seq_of(x[4:]), params)
    np.testing.assert_array_equal(full.probs, suffix.probs)


def test_encode_outputs_finite_and_bounded():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = RouterParams.initialize(SMALL, seed=seed)
        x = rng.normal(size=(5, 8))
        h = hidden_states(seq_of(x), p)
        assert np.all(np.isfinite(h))
        assert np.linalg.norm(h) <= 10.0 * max(np.linalg.norm(x), 1.0)


def assert_one_step_aware_equal(actual, expected, lengths):
    """Rows of sequences with two or more steps bitwise equal; one-step
    rows within 1e-15. The all-rows encoder runs a one-step stack's
    products matrix-vector, one per sequence, and forward_probs_batch
    never runs a one-row product, so those rows may differ in the last
    bit."""
    one_step = np.asarray(lengths) == 1
    np.testing.assert_array_equal(actual[~one_step], expected[~one_step])
    np.testing.assert_allclose(actual[one_step], expected[one_step], rtol=0, atol=1e-15)


def test_pool_last_valid(params):
    """The head reads the hidden state of the most recent step."""
    x = np.random.default_rng(7).normal(size=(5, 8))
    for rows in (x, x[:3], x[:1]):
        seq = seq_of(rows)
        h = hidden_states(seq, params)
        logits, _ = linear_forward(h[-1:], params.by_name["head_weight"],
                                   params.by_name["head_bias"])
        expected, _ = softmax_rows(logits)
        probs, _ = forward_probs(seq, params)
        assert_one_step_aware_equal(probs[None], expected[0][None], [seq.length])


def test_encode_returns_the_final_rows_of_the_all_rows_encoder(params):
    """The last layer computes the final min(t, 2) rows, bitwise as an
    encoder computing every row does; a lone one-step sequence is packed
    twice, and its row is held to 1e-15 (see assert_one_step_aware_equal)."""
    x = np.random.default_rng(7).normal(size=(SMALL.max_len + 2, 8))
    for rows in (x, x[:5], x[:2], x[:1]):
        seq = truncate_sequence(seq_of(rows), SMALL.max_len)
        packed, groups, _ = _pack([seq])
        h, _ = _encode(_add_positions(packed, groups, params)[0], groups, params)
        expected = hidden_states(seq, params)[-min(seq.length, 2):]
        assert_one_step_aware_equal(h[-len(expected):], expected, [seq.length] * len(expected))


def _against_all_rows(seqs, params, dprobs):
    """Probabilities of forward_probs_batch and of the all-rows encoder,
    after holding every parameter gradient to 1e-12 of the largest entry of
    the whole reference gradient (not of its own: bk's true gradient is 0).
    BLAS may pick another kernel for the backward's shorter products, so
    the gradients need not be bitwise equal."""
    runs = []
    for probs, backward in (forward_probs_batch(seqs, params),
                            all_rows_forward(seqs, params)[1:]):
        params.zero_grads()
        backward(dprobs)
        runs.append((probs, {name: t.grad.copy() for name, t in params.tensors()}))
    (probs, grads), (expected, expected_grads) = runs
    scale = max(np.abs(g).max() for g in expected_grads.values())
    for name, grad in grads.items():
        assert np.abs(grad - expected_grads[name]).max() <= 1e-12 * scale, name
    return probs, expected


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_forward_probs_batch_matches_the_all_rows_encoder(num_layers):
    """Probabilities equal bitwise those of an encoder whose last layer runs
    on every row, one-step rows to 1e-15; gradients agree to the stated
    tolerance."""
    config = with_layers(num_layers)
    params = RouterParams.initialize(config, seed=num_layers)
    rng = np.random.default_rng(num_layers)
    for batch in (1, 3, 8):
        for length in (1, 2, 3, 5, 12, config.max_len + 3):
            seqs = [seq_of(rng.normal(size=(length, 8))) for _ in range(batch)]
            probs, expected = _against_all_rows(
                seqs, params, rng.normal(size=(batch, config.num_precisions)))
            assert_one_step_aware_equal(probs, expected, [length] * batch)


def test_narrow_router_matches_the_all_rows_encoder_to_rounding():
    """With embed_dim 4 in heads of 2 and 16 or more steps, OpenBLAS rounds
    the attention's weights @ values differently for 2 query rows than for
    all of them, so probabilities may differ from the all-rows encoder's in
    the last bits; they stay within 1e-15."""
    params = RouterParams.initialize(RouterConfig(embed_dim=4, num_heads=2, max_len=64), seed=2)
    rng = np.random.default_rng(5)
    for length in (16, 20, 64):
        seqs = [seq_of(rng.normal(size=(length, 4))) for _ in range(8)]
        probs, expected = _against_all_rows(seqs, params, rng.normal(size=(8, 2)))
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-15)


def test_route_greedy_tie_breaks_to_cheap(params):
    params.by_name["head_weight"].value[:] = 0.0
    params.by_name["head_bias"].value[:] = 0.0
    decision = route(seq_of(np.ones((2, 8))), params, mode="greedy")
    np.testing.assert_allclose(decision.probs, [0.5, 0.5], atol=1e-15)
    assert decision.chosen == 0


def test_route_bias_closed_form(params):
    params.by_name["head_weight"].value[:] = 0.0
    params.by_name["head_bias"].value[:] = [0.0, math.log(3.0)]
    decision = route(seq_of(np.ones((3, 8))), params, mode="greedy")
    np.testing.assert_allclose(decision.probs, [0.25, 0.75], atol=1e-12)
    assert decision.chosen == 1


def test_route_probs_sum_to_one(params):
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = route(seq_of(rng.normal(size=(4, 8))), params)
        assert abs(d.probs.sum() - 1.0) < 1e-9


def test_route_head_shift_invariance(params):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 8))
    base = route(seq_of(x), params).probs
    params.by_name["head_bias"].value += 12.34  # constant shift of every logit
    shifted = route(seq_of(x), params).probs
    assert np.max(np.abs(base - shifted)) < 1e-9


def test_route_sampled_frequency(params):
    params.by_name["head_weight"].value[:] = 0.0
    params.by_name["head_bias"].value[:] = [0.0, math.log(3.0)]  # probs [0.25, 0.75]
    rng = np.random.default_rng(123)
    seq = seq_of(np.ones((2, 8)))
    draws = np.array([route(seq, params, "sampled", rng).chosen for _ in range(10_000)])
    freq = draws.mean()
    assert abs(freq - 0.75) < 0.02
    observed = np.bincount(draws, minlength=2)
    _, p_value = stats.chisquare(observed, [2500.0, 7500.0])
    assert p_value > 0.01


def test_route_sampled_requires_rng(params):
    with pytest.raises(ValueError):
        route(seq_of(np.ones((1, 8))), params, mode="sampled")


class FixedUniform:
    """An rng stand-in whose every uniform is ``u``; counts its draws."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def random(self):
        self.calls += 1
        return self.u


def test_sample_categorical_matches_the_cumsum_draw():
    gen = np.random.default_rng(11)
    for trial in range(3000):
        n = int(gen.integers(2, 13))
        probs = gen.dirichlet(np.full(n, gen.choice([0.1, 1.0, 10.0])))
        if trial % 3 == 0:
            probs[gen.random(n) < 0.3] = 0.0  # zero entries, and a total short of 1
        seed = int(gen.integers(2**32))
        ours, theirs, fresh = (np.random.default_rng(seed) for _ in range(3))
        assert sample_categorical(probs, ours) == cumsum_sample_categorical(probs, theirs)
        fresh.random()
        assert ours.random() == fresh.random()  # exactly one uniform consumed
        # on and beside every cumulative total, where the draw changes index
        for total in np.cumsum(probs):
            for u in (np.nextafter(total, 0.0), total, np.nextafter(total, 1.0)):
                if 0.0 <= u < 1.0:
                    assert (sample_categorical(probs, FixedUniform(u))
                            == cumsum_sample_categorical(probs, FixedUniform(u)))


def test_sample_categorical_clamps_to_the_last_index():
    # Ten tenths add up to 1 - 2**-53 left to right; a uniform at or above
    # that total draws the last index, even one without mass.
    for probs in (np.full(10, 0.1), np.append(np.full(10, 0.1), 0.0)):
        total = np.cumsum(probs)[-1]
        assert total < 1.0
        rng = FixedUniform(total)
        assert sample_categorical(probs, rng) == len(probs) - 1 \
            == cumsum_sample_categorical(probs, FixedUniform(total))
        assert rng.calls == 1


# sha256 of save_params(RouterParams.initialize(with_layers(L), seed=7)): the
# header and tensor order of the file format, pinned byte for byte.
CHECKPOINT_SHA256 = {
    1: "1fb04ae6dd621282bbfed942bf0ae733680ee5971adbadf4367935573744803c",
    2: "57f20794bc08d116f849a29416f7e1e9635093603244e0239a7ba0480c35b1ec",
    3: "9e73f39c674c4300c76874c5a23e09baeb72817ce0ee1dd508d042159fbcc4c8",
}


@pytest.mark.parametrize("num_layers", sorted(CHECKPOINT_SHA256))
def test_checkpoint_bytes_are_pinned(tmp_path, num_layers):
    path = tmp_path / "router.ckpt"
    save_params(RouterParams.initialize(with_layers(num_layers), seed=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[num_layers]


def test_misspelt_tensor_name_is_a_key_error(tmp_path, params):
    params.by_name["layer1.wqq"] = params.by_name.pop("layer1.wq")
    with pytest.raises(KeyError, match="layer1.wq"):
        forward_probs(seq_of(np.ones((2, 8))), params)
    with pytest.raises(KeyError, match="layer1.wq"):
        save_params(params, tmp_path / "router.ckpt")


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 8))
    for num_layers in (1, 2, 3):
        config = with_layers(num_layers)
        params = RouterParams.initialize(config, seed=0)
        before = route(seq_of(x), params)
        path = tmp_path / f"router{num_layers}.ckpt"
        save_params(params, path)
        loaded = load_params(path, config)
        after = route(seq_of(x), loaded)
        assert (before.probs == after.probs).all()
        assert [n for n, _ in loaded.tensors()] == [n for n, _ in params.tensors()]
        for (_, a), (_, b) in zip(params.tensors(), loaded.tensors()):
            assert (a.value == b.value).all()


def test_checkpoint_config_mismatch(tmp_path, params):
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    other = RouterConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
                         max_len=6, num_precisions=3)
    with pytest.raises(CheckpointConfigError):
        load_params(path, other)


def test_checkpoint_truncated_file(tmp_path, params):
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_params(path, SMALL)


def test_checkpoint_bad_magic_and_version(tmp_path, params):
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    blob = bytearray(path.read_bytes())
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CorruptCheckpointError):
        load_params(garbage, SMALL)
    blob[4] = 99  # version word
    versioned = tmp_path / "versioned.ckpt"
    versioned.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_params(versioned, SMALL)


def test_checkpoint_version_1_refused(tmp_path, params):
    path = tmp_path / "v1.ckpt"
    write_version1_checkpoint(params, path)
    with pytest.raises(CheckpointVersionError, match="version 1, expected 2"):
        load_params(path, SMALL)


def test_checkpoint_header_with_unusable_config_is_corrupt(tmp_path):
    path = tmp_path / "router.ckpt"
    path.write_bytes(struct.pack("<4sI6I", b"MXRT", 2, 0, 2, 2, 16, 2, 6))
    with pytest.raises(CorruptCheckpointError, match="embed_dim must be >= 1"):
        load_params(path)


def test_checkpoint_trailing_bytes(tmp_path, params):
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CorruptCheckpointError):
        load_params(path, SMALL)


def test_copy_is_bitwise_and_shares_no_buffer():
    for num_layers in (1, 2, 3):
        params = RouterParams.initialize(with_layers(num_layers), seed=0)
        rng = np.random.default_rng(13)
        for _, t in params.tensors():  # give the original state worth keeping
            t.grad[:] = rng.normal(size=t.shape)
            t.adam_m[:] = rng.normal(size=t.shape)
            t.adam_v[:] = rng.uniform(size=t.shape)
            t.step_count = 3
        before = [(t.value.copy(), t.grad.copy(), t.adam_m.copy(), t.adam_v.copy())
                  for _, t in params.tensors()]
        clone = params.copy()
        assert clone.config == params.config
        assert [n for n, _ in clone.tensors()] == [n for n, _ in params.tensors()]
        for (_, src), (_, dst) in zip(params.tensors(), clone.tensors()):
            assert dst.value.tobytes() == src.value.tobytes()
            assert not dst.grad.any() and not dst.adam_m.any() and not dst.adam_v.any()
            assert dst.step_count == 0
            for buf in (dst.value, dst.grad, dst.adam_m, dst.adam_v):
                buf += 1.0
            dst.step_count = 9
        for (_, t), (value, grad, m, v) in zip(params.tensors(), before):
            for buf, kept in ((t.value, value), (t.grad, grad), (t.adam_m, m), (t.adam_v, v)):
                np.testing.assert_array_equal(buf, kept)
            assert t.step_count == 3


def test_truncate_sequence_noop_within_limit():
    seq = seq_of(np.ones((3, 8)))
    assert truncate_sequence(seq, 6) is seq


def test_forward_probs_deterministic(params):
    x = np.random.default_rng(11).normal(size=(4, 8))
    p1, _ = forward_probs(seq_of(x), params)
    p2, _ = forward_probs(seq_of(x), params)
    assert (p1 == p2).all()


def test_forward_probs_batch_matches_single_sequences(params):
    """Rows equal forward_probs bitwise; the gradient is the per-sequence sum,
    for sequences within max_len and sequences cut to it."""
    rng = np.random.default_rng(12)
    for length in (1, 4, 9):
        seqs = [seq_of(rng.normal(size=(length, 8))) for _ in range(3)]
        dprobs = rng.normal(size=(3, SMALL.num_precisions))
        params.zero_grads()
        rows = []
        for seq, dp in zip(seqs, dprobs):
            probs, backward = forward_probs(seq, params)
            backward(dp)
            rows.append(probs)
        one_by_one = [t.grad.copy() for _, t in params.tensors()]
        params.zero_grads()
        probs, backward = forward_probs_batch(seqs, params)
        backward(dprobs)
        np.testing.assert_array_equal(probs, np.stack(rows))
        for (name, t), expected in zip(params.tensors(), one_by_one):
            np.testing.assert_allclose(t.grad, expected, rtol=1e-12, atol=1e-14,
                                       err_msg=name)


def test_forward_probs_batch_refuses_a_wrong_dim_and_no_sequences(params):
    with pytest.raises(ShapeMismatchError):
        forward_probs_batch([seq_of(np.ones((3, 5)))], params)
    with pytest.raises(ValueError):
        forward_probs_batch([], params)


def _lone_rows_and_grad(seqs, params, dprobs):
    """Each sequence's own forward_probs, and the sum of their gradients."""
    params.zero_grads()
    rows = []
    for seq, dp in zip(seqs, dprobs):
        probs, backward = forward_probs(seq, params)
        backward(dp)
        rows.append(probs)
    return np.stack(rows), {name: t.grad.copy() for name, t in params.tensors()}


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_mixed_length_batch_rows_equal_their_lone_forwards(num_layers):
    """One pass over sequences of every length from 1 to max_len + 3 (the
    last three truncated), in shuffled order: each row is bitwise its own
    forward_probs, in input order, and the gradient is the sum of the lone
    gradients within 1e-12 of its largest entry."""
    config = with_layers(num_layers)
    params = RouterParams.initialize(config, seed=num_layers)
    rng = np.random.default_rng(20 + num_layers)
    lengths = rng.permutation(np.repeat(np.arange(1, config.max_len + 4), 2))
    seqs = [seq_of(rng.normal(size=(t, 8))) for t in lengths]
    dprobs = rng.normal(size=(len(seqs), config.num_precisions))
    expected, expected_grads = _lone_rows_and_grad(seqs, params, dprobs)
    params.zero_grads()
    probs, backward = forward_probs_batch(seqs, params)
    backward(dprobs)
    np.testing.assert_array_equal(probs, expected)
    scale = max(np.abs(g).max() for g in expected_grads.values())
    for name, t in params.tensors():
        assert np.abs(t.grad - expected_grads[name]).max() <= 1e-12 * scale, name
    # the same rows, whatever the order they come in
    flipped, _ = forward_probs_batch(seqs[::-1], params)
    np.testing.assert_array_equal(flipped, expected[::-1])


def test_lone_one_step_sequence_equals_its_row_in_a_larger_batch(params):
    """A lone sequence of any length, one step to max_len + 3, equals its row
    among others bitwise. Alone, its last layer keeps the final two rows (a
    one-step sequence runs its row twice) so that no product has one row;
    in company, that layer runs wo, the norms and the FFN on final rows
    only."""
    rng = np.random.default_rng(14)
    company = [seq_of(rng.normal(size=(t, 8))) for t in (1, 3, 1, 7)]
    for length in range(1, SMALL.max_len + 4):
        one = seq_of(rng.normal(size=(length, 8)))
        lone, _ = forward_probs(one, params)
        for batch, at in (([one] + company, 0), (company + [one], 4), ([one, one], 1),
                          ([one, company[0]], 0)):
            probs, _ = forward_probs_batch(batch, params)
            np.testing.assert_array_equal(probs[at], lone)
