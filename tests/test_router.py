"""Router: positions, masking, pooling, routing head, checkpoints."""

import math

import numpy as np
import pytest
from scipy import stats

from mixroute.nn import ShapeMismatchError
from mixroute.router import (
    CheckpointConfigError,
    CorruptCheckpointError,
    CheckpointVersionError,
    EmptySequenceError,
    RouterConfig,
    RouterParams,
    StepSequence,
    add_positions,
    encode,
    forward_probs,
    forward_probs_batch,
    load_params,
    pool_last_valid,
    route,
    save_params,
    truncate_sequence,
)

SMALL = RouterConfig(embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16, max_len=6)


@pytest.fixture
def params():
    return RouterParams.initialize(SMALL, seed=0)


def seq_of(rows, mask=None):
    rows = np.asarray(rows, dtype=np.float64)
    if mask is None:
        mask = np.ones(rows.shape[0], dtype=np.uint8)
    return StepSequence(rows, mask)


def test_step_sequence_rejects_bad_masks():
    with pytest.raises(EmptySequenceError):
        StepSequence(np.zeros((2, 8)), [0, 0])
    with pytest.raises(ValueError):
        StepSequence(np.zeros((3, 8)), [1, 0, 1])  # not a prefix


def test_add_positions_zero_positions(params):
    for _, t in params.tensors():
        pass
    params.positional.value[:] = 0.0
    x = np.random.default_rng(0).normal(size=(4, 8))
    out, _ = add_positions(seq_of(x), params)
    np.testing.assert_array_equal(out, x)


def test_add_positions_zero_input(params):
    out, _ = add_positions(seq_of(np.zeros((3, 8))), params)
    np.testing.assert_array_equal(out, params.positional.value[:3])


def test_add_positions_truncates_oldest_first(params):
    # length max_len + 3: rows 3.. survive and are re-indexed from position 0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(SMALL.max_len + 3, 8))
    out, _ = add_positions(seq_of(x), params)
    assert out.shape == (SMALL.max_len, 8)
    np.testing.assert_array_equal(out, x[3:] + params.positional.value)


def test_add_positions_skips_padded_rows(params):
    x = np.random.default_rng(2).normal(size=(4, 8))
    out, _ = add_positions(seq_of(x, [1, 1, 0, 0]), params)
    np.testing.assert_array_equal(out[2:], x[2:])  # padding passes through
    np.testing.assert_array_equal(out[:2], x[:2] + params.positional.value[:2])


def test_truncation_consistency(params):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(SMALL.max_len + 4, 8))
    full = route(seq_of(x), params)
    suffix = route(seq_of(x[4:]), params)
    np.testing.assert_array_equal(full.probs, suffix.probs)


def test_encode_mask_isolation_single_row(params):
    rng = np.random.default_rng(4)
    row = rng.normal(size=(1, 8))
    h1, _ = encode(seq_of(row), params)
    padded = np.vstack([row, rng.normal(size=(4, 8))])
    h5, _ = encode(seq_of(padded, [1, 0, 0, 0, 0]), params)
    # different sequence lengths take different BLAS kernel paths, so the
    # comparison across shapes is value-exact only up to last-ulp rounding;
    # the same-shape garbage-mutation checks below are bitwise
    np.testing.assert_allclose(h1[0], h5[0], rtol=0, atol=1e-12)


def test_encode_padded_perturbation_is_invisible(params):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 8))
    mask = [1, 1, 1, 0, 0]
    h_a, _ = encode(seq_of(x, mask), params)
    x2 = x.copy()
    x2[3:] = 1e6 * rng.normal(size=(2, 8))
    h_b, _ = encode(seq_of(x2, mask), params)
    assert (h_a[:3] == h_b[:3]).all()


def test_encode_outputs_finite_and_bounded():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = RouterParams.initialize(SMALL, seed=seed)
        x = rng.normal(size=(5, 8))
        h, _ = encode(seq_of(x), p)
        assert np.all(np.isfinite(h))
        assert np.linalg.norm(h) <= 10.0 * max(np.linalg.norm(x), 1.0)


def test_route_mask_isolation(params):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 8))
    mask = [1, 1, 0, 0]
    base = route(seq_of(x, mask), params)
    x2 = x.copy()
    x2[2:] = rng.normal(size=(2, 8)) * 1e3
    again = route(seq_of(x2, mask), params)
    assert (base.probs == again.probs).all()


def test_pool_last_valid():
    h = np.arange(15.0).reshape(5, 3)
    np.testing.assert_array_equal(pool_last_valid(h, [1, 1, 1, 0, 0]), h[2])
    np.testing.assert_array_equal(pool_last_valid(h, [1] * 5), h[4])
    np.testing.assert_array_equal(pool_last_valid(h[:1], [1]), h[0])
    with pytest.raises(EmptySequenceError):
        pool_last_valid(h, [0, 0, 0, 0, 0])


def test_route_greedy_tie_breaks_to_cheap(params):
    params.head_weight.value[:] = 0.0
    params.head_bias.value[:] = 0.0
    decision = route(seq_of(np.ones((2, 8))), params, mode="greedy")
    np.testing.assert_allclose(decision.probs, [0.5, 0.5], atol=1e-15)
    assert decision.chosen == 0


def test_route_bias_closed_form(params):
    params.head_weight.value[:] = 0.0
    params.head_bias.value[:] = [0.0, math.log(3.0)]
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
    params.head_bias.value += 12.34  # constant shift of every logit
    shifted = route(seq_of(x), params).probs
    assert np.max(np.abs(base - shifted)) < 1e-9


def test_route_sampled_frequency(params):
    params.head_weight.value[:] = 0.0
    params.head_bias.value[:] = [0.0, math.log(3.0)]  # probs [0.25, 0.75]
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


def test_checkpoint_round_trip(tmp_path, params):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 8))
    before = route(seq_of(x), params)
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    loaded = load_params(path, SMALL)
    after = route(seq_of(x), loaded)
    assert (before.probs == after.probs).all()
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


def test_checkpoint_trailing_bytes(tmp_path, params):
    path = tmp_path / "router.ckpt"
    save_params(params, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CorruptCheckpointError):
        load_params(path, SMALL)


def test_truncate_sequence_noop_within_limit():
    seq = seq_of(np.ones((3, 8)), [1, 1, 0])
    assert truncate_sequence(seq, 6) is seq


def test_forward_probs_deterministic(params):
    x = np.random.default_rng(11).normal(size=(4, 8))
    p1, _ = forward_probs(seq_of(x), params)
    p2, _ = forward_probs(seq_of(x), params)
    assert (p1 == p2).all()


def test_forward_probs_batch_matches_single_sequences(params):
    """Rows equal forward_probs bitwise; the gradient is the per-sequence sum,
    for full and padded masks and for sequences cut to max_len."""
    rng = np.random.default_rng(12)
    for length, n_valid in ((1, 1), (4, 4), (5, 2), (9, 9)):
        mask = [1] * n_valid + [0] * (length - n_valid)
        seqs = [seq_of(rng.normal(size=(length, 8)), mask) for _ in range(3)]
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


def test_forward_probs_batch_needs_one_shape(params):
    with pytest.raises(ShapeMismatchError):
        forward_probs_batch([seq_of(np.ones((2, 8))), seq_of(np.ones((3, 8)))], params)
    with pytest.raises(ShapeMismatchError):
        forward_probs_batch([seq_of(np.ones((3, 8))), seq_of(np.ones((3, 8)), [1, 1, 0])],
                            params)
    with pytest.raises(ShapeMismatchError):
        forward_probs_batch([seq_of(np.ones((3, 5)))], params)
    with pytest.raises(ValueError):
        forward_probs_batch([], params)
