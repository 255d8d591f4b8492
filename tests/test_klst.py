"""KL divergence, CDF labeling, class weights, dataset IO and stage-1 training."""

import math

import numpy as np
import pytest

from mixroute import klst as klst_module
from mixroute.env import EnvConfig, PolicyPair, kl_divergence, make_policy_pair
from mixroute.klst import (
    EmpiricalCdf,
    EmptyCollectionError,
    KLRecord,
    KlstTrainConfig,
    LabelingConfig,
    SupervisionDataset,
    build_supervision_dataset,
    class_weights,
    collect,
    label_steps,
    load_dataset,
    predict_labels,
    save_dataset,
    train_klst,
    trajectories_to_records,
)
from mixroute.nn import weighted_cross_entropy
from mixroute.router import RouterConfig, RouterParams, StepSequence, forward_probs


def test_kl_identity():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_closed_forms():
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    np.testing.assert_allclose(kl_divergence([0.5, 0.5], [0.9, 0.1]), expected,
                               atol=1e-12)
    np.testing.assert_allclose(expected, 0.5108, atol=5e-5)
    np.testing.assert_allclose(kl_divergence([1.0, 0.0], [0.5, 0.5]), math.log(2.0),
                               atol=1e-12)


def test_kl_absolute_continuity_violation_is_inf():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")


def test_kl_support_mismatch():
    with pytest.raises(ValueError):
        kl_divergence([1.0], [0.5, 0.5])


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, q) >= -1e-12


def test_empirical_cdf_rank_definition():
    cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
    assert cdf(1.0) == 0.25
    assert cdf(4.0) == 1.0
    assert cdf(0.5) == 0.0


def test_empirical_cdf_ties_share_highest_rank():
    cdf = EmpiricalCdf([7.0, 7.0, 7.0])
    assert cdf(7.0) == 1.0
    cdf = EmpiricalCdf([0.0, 0.0, 1.0, 1.0])
    assert cdf(0.0) == 0.5


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        EmpiricalCdf([])


def _records_for(values):
    emb = np.eye(max(len(values), 2))[: len(values)]
    return [
        KLRecord(sequence=StepSequence.of(emb[i:i + 1]), d_t=float(v),
                 episode=0, t=i + 1, critical=False)
        for i, v in enumerate(values)
    ]


def test_label_steps_distinct_count():
    values = [float(v) for v in range(1, 101)]
    records = _records_for(values)
    label_steps(records, EmpiricalCdf(values), LabelingConfig(0.85))
    assert sum(r.label for r in records) == 16  # ranks 85..100


def test_label_steps_all_ties_label_positive():
    records = _records_for([3.0] * 10)
    label_steps(records, EmpiricalCdf([3.0] * 10), LabelingConfig(0.85))
    assert all(r.label == 1 for r in records)


def test_label_steps_tau_near_one():
    values = [float(v) for v in range(10)]
    records = _records_for(values)
    label_steps(records, EmpiricalCdf(values), LabelingConfig(0.9999))
    assert [r.label for r in records] == [0] * 9 + [1]


def test_labeling_monotonicity():
    rng = np.random.default_rng(1)
    values = np.round(rng.exponential(size=200), 2)  # forces ties
    records = _records_for(values)
    label_steps(records, EmpiricalCdf(values), LabelingConfig(0.8))
    for a in records:
        for b in records:
            if a.d_t >= b.d_t:
                assert a.label >= b.label


def test_labeling_config_domain():
    with pytest.raises(ValueError):
        LabelingConfig(1.0)
    with pytest.raises(ValueError):
        LabelingConfig(0.0)


def test_class_weights_formula():
    w = class_weights([0] * 85 + [1] * 15)
    np.testing.assert_allclose(w, [100 / 170, 100 / 30])
    np.testing.assert_allclose(class_weights([0, 1]), [1.0, 1.0])


def test_class_weights_mean_applied_weight_is_one():
    labels = [0] * 70 + [1] * 30
    w = class_weights(labels)
    applied = np.asarray([w[y] for y in labels])
    np.testing.assert_allclose(applied.mean(), 1.0, atol=1e-12)


def test_class_weights_degenerate_warns():
    with pytest.warns(UserWarning):
        w = class_weights([0, 0, 0])
    np.testing.assert_allclose(w, [0.5, 0.0])


def test_collect_precondition():
    cfg = EnvConfig()
    with pytest.raises(ValueError):
        collect(cfg, make_policy_pair(cfg), 0)


def test_collect_identical_policies_give_zero_kl():
    cfg = EnvConfig()
    synthetic = make_policy_pair(cfg)
    pair = PolicyPair(high=synthetic.high, low=synthetic.high)
    kept, stats = collect(cfg, pair, 20, master_seed=0, embed_dim=16)
    assert stats.n_collected == len(kept)
    assert all(s.d_t == 0.0 for t in kept for s in t.steps)


class _AlwaysWrongAtCritical:
    """Deterministically poisons every critical step; advances elsewhere."""

    def __call__(self, state):
        n = state.config.action_space.size
        dist = np.zeros(n)
        if state.is_critical_now:
            dist[min(set(range(n)) - state.task.advancing[state.t])] = 1.0
        else:
            dist[min(state.task.advancing[state.t])] = 1.0
        return dist


def test_collect_zero_successes_raises():
    cfg = EnvConfig()
    doomed = _AlwaysWrongAtCritical()
    pair = PolicyPair(high=doomed, low=doomed)
    with pytest.raises(EmptyCollectionError):
        collect(cfg, pair, 8, master_seed=1, embed_dim=16)


def test_collect_retention_rate():
    cfg = EnvConfig()
    kept, stats = collect(cfg, make_policy_pair(cfg), 200, master_seed=0, embed_dim=16)
    assert stats.n_collected >= 150
    assert stats.n_collected + stats.n_discarded == 200
    assert all(s.d_t is not None and s.embedding is not None
               for t in kept for s in t.steps)


def _separable_dataset(n_episodes=80, steps_per_episode=6, dim=16, seed=0):
    """Positives cluster along +e1, negatives along -e1, in short sequences."""
    rng = np.random.default_rng(seed)
    records = []
    for ep in range(n_episodes):
        embs = []
        labels = []
        for t in range(steps_per_episode):
            y = int(rng.random() < 0.3)
            center = np.zeros(dim)
            center[0] = 1.0 if y else -1.0
            z = center + 0.05 * rng.normal(size=dim)
            z /= np.linalg.norm(z)
            embs.append(z)
            labels.append(y)
        emb = np.asarray(embs)
        for i, y in enumerate(labels):
            records.append(KLRecord(
                sequence=StepSequence.of(emb[:i + 1]),
                d_t=float(y),  # KL stand-in consistent with the label
                episode=ep, t=i + 1, critical=bool(y), label=y,
            ))
    weights = class_weights([r.label for r in records])
    return SupervisionDataset(records, weights, np.sort([r.d_t for r in records]))


SMALL_ROUTER = RouterConfig(embed_dim=16, num_layers=2, num_heads=2, ffn_dim=32,
                            max_len=8)


def test_train_klst_separable_fixture():
    dataset = _separable_dataset()
    params = RouterParams.initialize(SMALL_ROUTER, seed=0)
    result = train_klst(dataset, params, KlstTrainConfig(seed=0))
    best = result.metrics[result.best_epoch - 1]
    assert best.val_balanced_accuracy >= 0.95


def test_train_klst_all_negative_degenerates_gracefully():
    dataset = _separable_dataset(n_episodes=12)
    for r in dataset.records:
        r.label = 0
    with pytest.warns(UserWarning):
        dataset.weights = class_weights([r.label for r in dataset.records])
    params = RouterParams.initialize(SMALL_ROUTER, seed=0)
    result = train_klst(dataset, params,
                        KlstTrainConfig(epochs=3, learning_rate=1e-2, seed=0))
    last = result.metrics[-1]
    assert last.val_accuracy == 1.0
    assert last.val_recall_positive is None  # undefined, reported as such


def test_train_klst_deterministic():
    dataset = _separable_dataset(n_episodes=20)
    a = train_klst(dataset, RouterParams.initialize(SMALL_ROUTER, seed=3),
                   KlstTrainConfig(epochs=2, seed=7))
    b = train_klst(dataset, RouterParams.initialize(SMALL_ROUTER, seed=3),
                   KlstTrainConfig(epochs=2, seed=7))
    assert a.metrics[-1].train_loss == b.metrics[-1].train_loss  # bitwise
    for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
        assert (ta.value == tb.value).all()


def test_train_klst_loss_mostly_non_increasing():
    hits = 0
    dataset = _separable_dataset(n_episodes=40)
    for seed in range(5):
        params = RouterParams.initialize(SMALL_ROUTER, seed=seed)
        result = train_klst(dataset, params, KlstTrainConfig(seed=seed))
        losses = [m.train_loss for m in result.metrics]
        non_increasing = sum(
            1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12
        )
        if non_increasing >= len(losses) - 1 - 0:  # >= 4 of the 5-epoch deltas
            hits += 1
    assert hits >= 4  # soft monotonicity across seeds


def test_train_klst_requires_labels():
    dataset = _separable_dataset(n_episodes=4)
    dataset.records[0].label = None
    params = RouterParams.initialize(SMALL_ROUTER, seed=0)
    with pytest.raises(ValueError):
        train_klst(dataset, params)


def test_dataset_round_trip(tmp_path):
    cfg = EnvConfig()
    pair = make_policy_pair(cfg)
    kept, _ = collect(cfg, pair, 12, master_seed=0, embed_dim=16)
    dataset = build_supervision_dataset(kept, LabelingConfig())
    path = tmp_path / "dataset.jsonl"
    cdf_path = tmp_path / "cdf.json"
    save_dataset(dataset, path, cdf_path)
    loaded = load_dataset(path)
    assert len(loaded.records) == len(dataset.records)
    np.testing.assert_array_equal(loaded.weights, dataset.weights)
    np.testing.assert_array_equal(loaded.cdf_values, dataset.cdf_values)
    for a, b in zip(dataset.records, loaded.records):
        assert (a.episode, a.t, a.label, a.critical) == (b.episode, b.t, b.label, b.critical)
        assert a.d_t == b.d_t  # repr round-trip is value-exact
        assert (a.sequence.embeddings == b.sequence.embeddings).all()
        assert a.sequence.n_valid == b.sequence.n_valid
    assert cdf_path.exists()


def test_build_supervision_dataset_positive_rate():
    cfg = EnvConfig()
    kept, _ = collect(cfg, make_policy_pair(cfg), 60, master_seed=0, embed_dim=16)
    dataset = build_supervision_dataset(kept, LabelingConfig(0.85))
    labels = np.asarray([r.label for r in dataset.records])
    # positive rate ~ 1 - tau up to tie granularity: every critical shares
    # the high mode, so the count snaps to the critical fraction boundary
    assert 0.10 <= labels.mean() <= 0.22


def test_records_prefix_structure():
    cfg = EnvConfig()
    kept, _ = collect(cfg, make_policy_pair(cfg), 5, master_seed=0, embed_dim=16)
    records = trajectories_to_records(kept)
    by_episode = {}
    for r in records:
        by_episode.setdefault(r.episode, []).append(r)
    for recs in by_episode.values():
        recs.sort(key=lambda r: r.t)
        for i, r in enumerate(recs):
            assert r.sequence.n_valid == i + 1
            np.testing.assert_array_equal(
                r.sequence.embeddings[-1], recs[-1].sequence.embeddings[i]
            )
            # prefixes are views of one per-episode matrix, not copies
            assert np.shares_memory(r.sequence.embeddings, recs[-1].sequence.embeddings)


# --- stage 1 in stacks against stage 1 record by record ---------------------------

def _per_record_gradient(batch, params, weights):
    """Test oracle: the record-by-record stage-1 minibatch that the stacked
    ``_minibatch_gradient`` replaced."""
    loss_sum = 0.0
    for rec in batch:
        probs, backward = forward_probs(rec.sequence, params)
        loss, bw_ce = weighted_cross_entropy(probs.reshape(1, -1), [rec.label], weights)
        loss_sum += loss
        backward(bw_ce()[0] / len(batch))
    return loss_sum


@pytest.fixture(scope="module")
def collected_dataset():
    cfg = EnvConfig()
    kept, _ = collect(cfg, make_policy_pair(cfg), 60, master_seed=0, embed_dim=64)
    return build_supervision_dataset(kept, LabelingConfig(0.85))


def _padded_separable_dataset():
    """Separable records, every third one padded with two zero rows; under a
    router whose max_len of 4 truncates the longer ones."""
    dataset = _separable_dataset(n_episodes=40)
    for r in dataset.records[::3]:
        emb = np.vstack([r.sequence.embeddings, np.zeros((2, 16))])
        r.sequence = StepSequence(emb, np.r_[r.sequence.mask, 0, 0])
    return dataset


def _cases(collected):
    return [(collected, RouterConfig()),
            (_padded_separable_dataset(),
             RouterConfig(embed_dim=16, num_heads=2, ffn_dim=32, max_len=4))]


def _grads(params):
    return [t.grad.copy() for _, t in params.tensors()]


def test_stacked_minibatch_gradient_matches_per_record(collected_dataset):
    """Gradients agree within 1e-12 of the largest entry over all tensors:
    only the summation order differs. (A per-tensor relative check would
    fail on tensors whose true gradient is 0, such as the key biases, whose
    entries are rounding noise.)"""
    for dataset, router in _cases(collected_dataset):
        records = dataset.records
        rng = np.random.default_rng(0)
        for k in range(10):
            params = RouterParams.initialize(router, seed=k)
            batch = [records[int(i)] for i in rng.choice(len(records), 64, replace=False)]
            params.zero_grads()
            loss = klst_module._minibatch_gradient(batch, params, dataset.weights)
            stacked = _grads(params)
            params.zero_grads()
            oracle_loss = _per_record_gradient(batch, params, dataset.weights)
            oracle = _grads(params)
            scale = max(float(np.abs(g).max()) for g in oracle)
            worst = max(float(np.abs(a - b).max()) for a, b in zip(stacked, oracle))
            assert scale > 0 and worst <= 1e-12 * scale
            assert loss == pytest.approx(oracle_loss, rel=1e-12)


def test_stacked_predict_labels_match_per_record_argmax(collected_dataset):
    for dataset, router in _cases(collected_dataset):
        params = RouterParams.initialize(router, seed=1)
        expected = [int(np.argmax(forward_probs(r.sequence, params)[0]))
                    for r in dataset.records]
        np.testing.assert_array_equal(predict_labels(params, dataset.records), expected)


def test_stacked_epoch_loss_matches_per_record(collected_dataset, monkeypatch):
    config = KlstTrainConfig(epochs=2, learning_rate=1e-3, seed=3)
    stacked = train_klst(collected_dataset, RouterParams.initialize(RouterConfig(), seed=3),
                         config)
    monkeypatch.setattr(klst_module, "_minibatch_gradient", _per_record_gradient)
    oracle = train_klst(collected_dataset, RouterParams.initialize(RouterConfig(), seed=3),
                        config)
    for a, b in zip(stacked.metrics, oracle.metrics):
        assert a.train_loss == pytest.approx(b.train_loss, rel=1e-12)
