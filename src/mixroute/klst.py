"""Stage 1: KL-supervised router training.

Collect high-precision rollouts annotated with step-wise KL divergence,
keep the successful episodes, threshold the empirical CDF of the KL values
into binary labels, and train the router with class-weighted cross-entropy.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .env import EnvConfig, KlstCollect, PolicyPair, run_episodes
from .nn import AdamConfig, adam_step, weighted_cross_entropy
from .router import (
    RouterParams,
    StepSequence,
    forward_probs_batch,
    prefix_sequences,
    shape_stacks,
)

DATASET_SCHEMA_VERSION = 1
VALIDATION_FRACTION = 0.1  # share of episodes held out to pick the best epoch


class EmptyCollectionError(RuntimeError):
    """No successful episodes were collected."""


@dataclass
class KLRecord:
    sequence: StepSequence
    d_t: float
    episode: int
    t: int
    critical: bool          # ground truth from the synthetic world, diagnostics only
    label: int | None = None


@dataclass(frozen=True)
class LabelingConfig:
    threshold: float = 0.85  # CDF quantile above which a step is positive

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")


@dataclass(frozen=True)
class CollectionStats:
    n_episodes: int
    n_collected: int
    n_discarded: int


def collect(config: EnvConfig, pair: PolicyPair, n_episodes: int,
            master_seed: int = 0, embed_dim: int = 64,
            episode_seed_start: int = 0, workers: int = 1):
    """High-precision rollouts with per-step KL; failures are discarded."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    seeds = range(episode_seed_start, episode_seed_start + n_episodes)
    return keep_successful(run_episodes(
        config, pair, KlstCollect(), seeds,
        master_seed=master_seed, embed_dim=embed_dim, workers=workers,
    ))


def keep_successful(trajectories):
    """The successful ones of klst_collect ``trajectories``, and the stats."""
    n_episodes = len(trajectories)
    kept = [t for t in trajectories if t.success]
    if not kept:
        raise EmptyCollectionError(
            f"0 of {n_episodes} collection episodes succeeded; "
            "check the policy pair and environment config"
        )
    stats = CollectionStats(n_episodes, len(kept), n_episodes - len(kept))
    return kept, stats


def trajectories_to_records(trajectories) -> list[KLRecord]:
    """One record per step; prefix sequences share the episode's matrix."""
    records = []
    for traj in trajectories:
        if any(s.embedding is None or s.d_t is None for s in traj.steps):
            raise ValueError(
                f"episode {traj.episode_seed} lacks embeddings or KL values; "
                "collect with the klst_collect driver"
            )
        seqs = prefix_sequences(np.asarray([s.embedding for s in traj.steps]))
        records += [KLRecord(sequence=seq, d_t=float(s.d_t), episode=traj.episode_seed,
                             t=s.t, critical=s.critical)
                    for seq, s in zip(seqs, traj.steps)]
    return records


class EmpiricalCdf:
    """Right-continuous empirical CDF; ties share the highest rank."""

    def __init__(self, values):
        values = np.asarray(list(values), dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot build a CDF from an empty list")
        self.values = np.sort(values)

    def __call__(self, x: float) -> float:
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size


def label_steps(records, cdf: EmpiricalCdf, config: LabelingConfig) -> list[KLRecord]:
    """y = 1 iff CDF(D) >= threshold. Mutates and returns the records."""
    for r in records:
        r.label = 1 if cdf(r.d_t) >= config.threshold else 0
    return records


def class_weights(labels) -> np.ndarray:
    """Balanced two-class weights w_c = n / (2 * n_c); absent class gets 0."""
    labels = np.asarray(list(labels), dtype=np.intp)
    if labels.size == 0:
        raise ValueError("at least one label is required")
    counts = np.bincount(labels, minlength=2)
    n = labels.size
    weights = np.array([n / (2.0 * c) if c else 0.0 for c in counts[:2]])
    if (counts[:2] == 0).any():
        missing = int(np.argmin(counts[:2]))
        warnings.warn(f"class {missing} is absent; its weight is 0", stacklevel=2)
    return weights


@dataclass
class SupervisionDataset:
    records: list[KLRecord]
    weights: np.ndarray          # [w_0, w_1]
    cdf_values: np.ndarray       # sorted KL snapshot, kept for audit


def _supervision_dataset(records, cdf: EmpiricalCdf) -> SupervisionDataset:
    weights = class_weights([r.label for r in records])
    return SupervisionDataset(records=records, weights=weights, cdf_values=cdf.values)


def build_supervision_dataset(trajectories, labeling: LabelingConfig) -> SupervisionDataset:
    records = trajectories_to_records(trajectories)
    cdf = EmpiricalCdf([r.d_t for r in records])
    return _supervision_dataset(label_steps(records, cdf, labeling), cdf)


# --- dataset persistence -------------------------------------------------------

def save_dataset(dataset: SupervisionDataset, path, cdf_path) -> None:
    """One step per JSONL line (its own embedding; the sequence is rebuilt
    from the episode prefix on load), and the sorted KL values at cdf_path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for r in dataset.records:
            f.write(json.dumps({
                "schema": DATASET_SCHEMA_VERSION,
                "episode": r.episode,
                "t": r.t,
                "embedding": [float(v) for v in r.sequence.embeddings[-1]],
                "mask_len": r.sequence.length,
                "D": r.d_t,
                "y": r.label,
                "crit": r.critical,
            }, sort_keys=True) + "\n")
    Path(cdf_path).write_text(
        json.dumps({"schema": DATASET_SCHEMA_VERSION,
                    "sorted_kl": [float(v) for v in dataset.cdf_values]}),
        encoding="utf-8",
    )


def load_dataset(path) -> SupervisionDataset:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    if any(r.get("schema") != DATASET_SCHEMA_VERSION for r in rows):
        raise ValueError(f"{path}: unsupported dataset schema")

    by_episode: dict[int, list[dict]] = {}
    for r in rows:
        by_episode.setdefault(r["episode"], []).append(r)
    records = []
    for episode in sorted(by_episode):
        steps = sorted(by_episode[episode], key=lambda r: r["t"])
        seqs = prefix_sequences(np.asarray([s["embedding"] for s in steps], dtype=np.float64))
        records += [KLRecord(sequence=seq, d_t=float(s["D"]), episode=episode, t=s["t"],
                             critical=bool(s.get("crit", False)), label=s["y"])
                    for seq, s in zip(seqs, steps)]
    return _supervision_dataset(records, EmpiricalCdf([r.d_t for r in records]))


# --- training ------------------------------------------------------------------

@dataclass(frozen=True)
class KlstTrainConfig:
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-4
    seed: int = 0
    select_by: str = "balanced_accuracy"  # or "accuracy"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.select_by not in ("balanced_accuracy", "accuracy"):
            raise ValueError("select_by must be balanced_accuracy or accuracy")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_balanced_accuracy: float
    val_recall_negative: float | None
    val_recall_positive: float | None


@dataclass
class KlstResult:
    params: RouterParams
    metrics: list[EpochMetrics]
    best_epoch: int
    train_episodes: list[int]
    val_episodes: list[int]


def predict_labels(params: RouterParams, records) -> np.ndarray:
    """Greedy router decision per record (ties go to index 0), one router
    pass per stack of same-shape sequences."""
    out = np.empty(len(records), dtype=np.intp)
    for rows in shape_stacks([r.sequence for r in records]):
        probs, _ = forward_probs_batch([records[i].sequence for i in rows], params)
        out[rows] = np.argmax(probs, axis=1)
    return out


def _validation_metrics(params, records):
    labels = np.asarray([r.label for r in records], dtype=np.intp)
    preds = predict_labels(params, records)
    accuracy = float((preds == labels).mean())
    recalls = []
    per_class: list[float | None] = []
    for c in (0, 1):
        in_class = labels == c
        if in_class.any():
            rec = float((preds[in_class] == c).mean())
            recalls.append(rec)
            per_class.append(rec)
        else:
            per_class.append(None)
    balanced = float(np.mean(recalls)) if recalls else 0.0
    return accuracy, balanced, per_class[0], per_class[1]


def _minibatch_gradient(batch, params: RouterParams, weights) -> float:
    """Add the gradient of the batch's mean weighted cross-entropy to the
    parameter tensors and return the sum of its records' losses.

    Each stack of same-shape sequences takes one forward and one backward
    pass, the backward before the next stack's forward; a stack's gradient
    is its own mean scaled by its share of the batch.
    """
    loss_sum = 0.0
    for rows in shape_stacks([r.sequence for r in batch]):
        stack = [batch[i] for i in rows]
        probs, backward = forward_probs_batch([r.sequence for r in stack], params)
        loss, bw_ce = weighted_cross_entropy(probs, [r.label for r in stack], weights)
        loss_sum += loss * len(stack)
        backward(bw_ce() * (len(stack) / len(batch)))
    return loss_sum


def train_klst(dataset: SupervisionDataset, params: RouterParams,
               config: KlstTrainConfig = KlstTrainConfig()) -> KlstResult:
    """Mini-batch Adam on the class-weighted cross-entropy.

    The 90/10 validation split is by episode (steps within an episode are
    correlated). Returns the epoch checkpoint with the best validation
    score; ties keep the earliest epoch.
    """
    records = dataset.records
    if not records:
        raise ValueError("empty dataset")
    if any(r.label is None for r in records):
        raise ValueError("dataset must be labeled before training")

    rng = np.random.default_rng(config.seed)
    episodes = sorted({r.episode for r in records})
    order = [episodes[i] for i in rng.permutation(len(episodes))]
    n_val = max(1, round(VALIDATION_FRACTION * len(episodes)))
    if n_val >= len(episodes):  # degenerate tiny datasets: validate on the training data
        val_episodes, train_episodes = order, order
    else:
        val_episodes, train_episodes = order[:n_val], order[n_val:]
    train_set, val_set = set(train_episodes), set(val_episodes)
    train_records = [r for r in records if r.episode in train_set]
    val_records = [r for r in records if r.episode in val_set]

    adam = AdamConfig(learning_rate=config.learning_rate)
    weights = dataset.weights
    tensors = [t for _, t in params.tensors()]

    best_score = -np.inf
    best_epoch = 0
    best_params = params.copy()
    history: list[EpochMetrics] = []

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_records))
        epoch_loss = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = [train_records[i] for i in perm[start:start + config.batch_size]]
            params.zero_grads()
            epoch_loss += _minibatch_gradient(batch, params, weights)
            for tensor in tensors:
                adam_step(tensor, adam)
        train_loss = epoch_loss / max(len(train_records), 1)
        acc, balanced, rec0, rec1 = _validation_metrics(params, val_records)
        history.append(EpochMetrics(epoch, train_loss, acc, balanced, rec0, rec1))
        score = balanced if config.select_by == "balanced_accuracy" else acc
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = params.copy()

    return KlstResult(
        params=best_params,
        metrics=history,
        best_epoch=best_epoch,
        train_episodes=sorted({r.episode for r in train_records}),
        val_episodes=sorted(val_episodes),
    )
