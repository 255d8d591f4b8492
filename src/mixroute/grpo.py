"""Stage 2: cost-aware group-relative policy optimization of the router.

Groups of rollouts are sampled on the same task instance under the current
router; returns mix task success with per-call and per-step cost penalties;
advantages are normalized within each group; the policy-gradient update is
regularized by a KL anchor to the stage-1 checkpoint. No value function,
no importance-ratio clipping: log-probs are recomputed under the current
parameters and each sampled batch is used for exactly one update.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, PolicyPair, RouterDriver, Trajectory, rollout_group
from .nn import AdamConfig, PROB_FLOOR, adam_step
from .router import (
    RouterParams,
    StepSequence,
    forward_probs_batch,
    prefix_sequences,
    shape_stacks,
    truncate_sequence,
)


class TrajectoryDataError(ValueError):
    """A trajectory lacks the decision-time sequence snapshots."""


@dataclass(frozen=True)
class RewardConfig:
    lambda_high: float = 0.02   # cost per high-precision invocation
    lambda_step: float = 0.005  # cost per trajectory step

    def __post_init__(self):
        if self.lambda_high < 0 or self.lambda_step < 0:
            raise ValueError("cost coefficients must be >= 0")
        if not (math.isfinite(self.lambda_high) and math.isfinite(self.lambda_step)):
            raise ValueError("cost coefficients must be finite")


@dataclass(frozen=True)
class GRPOConfig:
    group_size: int = 8
    beta: float = 0.02           # KL-anchor strength
    epsilon: float = 1e-8        # advantage denominator guard
    learning_rate: float = 1e-6
    episode_budget: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.beta < 0 or self.epsilon <= 0 or self.learning_rate <= 0:
            raise ValueError("beta >= 0, epsilon > 0 and learning_rate > 0 required")


def trajectory_return(traj: Trajectory, cfg: RewardConfig) -> float:
    """1[success] - lambda_high * S - lambda_step * T."""
    return float(traj.success) - cfg.lambda_high * traj.n_high - cfg.lambda_step * traj.n_steps


def group_advantages(returns, epsilon: float = 1e-8) -> np.ndarray:
    """(R - mean) / (population std + epsilon); zero vector when returns tie."""
    r = np.asarray(list(returns), dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty return list")
    if r.size == 1:
        return np.zeros(1)
    return (r - r.mean()) / (r.std() + epsilon)


@dataclass
class TrajectoryGroup:
    trajectories: list[Trajectory]
    returns: np.ndarray
    advantages: np.ndarray

    @classmethod
    def build(cls, trajectories, reward: RewardConfig, epsilon: float = 1e-8):
        returns = np.asarray([trajectory_return(t, reward) for t in trajectories])
        return cls(list(trajectories), returns, group_advantages(returns, epsilon))


class AnchorSnapshot:
    """Frozen copy of post-stage-1 parameters; never updated during GRPO."""

    def __init__(self, params: RouterParams):
        self.params = params.copy()


def _decision_sequences(traj: Trajectory, max_len: int) -> list[tuple[StepSequence, int]]:
    if any(s.embedding is None or s.route_choice is None for s in traj.steps):
        raise TrajectoryDataError(
            f"episode {traj.episode_seed} has no decision-time sequences; "
            "roll out with the router driver"
        )
    seqs = prefix_sequences(np.asarray([s.embedding for s in traj.steps]))
    return [(truncate_sequence(seq, max_len), s.route_choice)
            for seq, s in zip(seqs, traj.steps)]


@dataclass(frozen=True)
class GrpoLoss:
    policy_term: float
    kl_penalty: float
    total: float


def grpo_loss_and_grads(groups, params: RouterParams, anchor: AnchorSnapshot,
                        config: GRPOConfig) -> GrpoLoss:
    """Evaluate -E[A * sum_t log pi(r_t|s_t)] + beta * KL(pi || pi_0) and leave
    its gradient in the parameter tensors.

    The KL term is estimated over the states visited in this batch. The
    states that share a sequence length go through the router as one stack,
    one forward/backward pass carrying both the policy-gradient and the
    KL-penalty contributions; each stack's backward runs before the next
    stack's forward, and the loss terms are summed state by state in
    trajectory order.
    """
    items = [(float(adv), _decision_sequences(traj, params.config.max_len))
             for group in groups for traj, adv in zip(group.trajectories, group.advantages)]
    if not items:
        raise ValueError("no trajectories to update on")
    n_traj = len(items)
    states = [(seq, choice, adv) for adv, decisions in items for seq, choice in decisions]
    n_states = len(states)

    params.zero_grads()
    log_pick = [0.0] * n_states  # log pi(r_t | s_t), floored
    kl_terms = [0.0] * n_states  # KL(pi || pi_0) at s_t
    for rows in shape_stacks([seq for seq, _, _ in states]):
        batch = [states[i][0] for i in rows]
        probs, backward = forward_probs_batch(batch, params)
        anchor_probs = forward_probs_batch(batch, anchor.params)[0]
        pf = np.maximum(probs, PROB_FLOOR)
        log_ratio = np.log(pf / np.maximum(anchor_probs, PROB_FLOOR))
        dprobs = np.zeros_like(probs)
        for r, i in enumerate(rows):
            _, choice, adv = states[i]
            log_pick[i] = math.log(pf[r, choice])
            kl_terms[i] = float(np.sum(probs[r] * log_ratio[r]))
            if probs[r, choice] > PROB_FLOOR:
                dprobs[r, choice] = -adv / (n_traj * probs[r, choice])
        dprobs += config.beta * (log_ratio + 1.0) / n_states
        backward(dprobs)

    policy_term = 0.0
    kl_value = 0.0
    i = 0
    for adv, decisions in items:
        log_prob_sum = 0.0
        for _ in decisions:
            log_prob_sum += log_pick[i]
            kl_value += kl_terms[i] / n_states
            i += 1
        policy_term += -adv * log_prob_sum / n_traj

    return GrpoLoss(policy_term, kl_value, policy_term + config.beta * kl_value)


def grpo_update(groups, params: RouterParams, anchor: AnchorSnapshot,
                config: GRPOConfig) -> GrpoLoss:
    """One Adam step on the GRPO loss; log-probs are recomputed under the
    current parameters (strictly on-policy, one update per sampled batch)."""
    loss = grpo_loss_and_grads(groups, params, anchor, config)
    adam = AdamConfig(learning_rate=config.learning_rate)
    for _, tensor in params.tensors():
        adam_step(tensor, adam)
    return loss


@dataclass
class GroupMetrics:
    group_index: int
    mean_return: float
    success_rate: float
    mean_high_ratio: float
    policy_loss: float
    kl_penalty: float


@dataclass
class GrpoResult:
    params: RouterParams
    curve: list[GroupMetrics]
    n_groups: int
    episodes_used: int


def train_grpo(env_config: EnvConfig, pair: PolicyPair, init_params: RouterParams,
               config: GRPOConfig = GRPOConfig(), reward: RewardConfig = RewardConfig(),
               episode_seed_start: int = 0) -> GrpoResult:
    """Consume the episode budget in groups of ``group_size`` rollouts.

    Each group shares one task instance (same episode seed); its members
    differ only in their sampling streams and are rolled out in lockstep.
    One update is applied per group.
    """
    if config.episode_budget < config.group_size:
        raise ValueError(
            f"episode budget {config.episode_budget} smaller than one group "
            f"of {config.group_size}"
        )
    params = init_params.copy()
    anchor = AnchorSnapshot(init_params)
    n_groups = config.episode_budget // config.group_size
    curve: list[GroupMetrics] = []
    for g in range(n_groups):
        episode_seed = episode_seed_start + g
        driver = RouterDriver(params, mode="sampled")
        trajectories = rollout_group(env_config, pair, driver, episode_seed,
                                     range(config.group_size), master_seed=config.seed)
        group = TrajectoryGroup.build(trajectories, reward, config.epsilon)
        loss = grpo_update([group], params, anchor, config)
        total_steps = sum(t.n_steps for t in trajectories)
        curve.append(GroupMetrics(
            group_index=g,
            mean_return=float(group.returns.mean()),
            success_rate=float(np.mean([t.success for t in trajectories])),
            mean_high_ratio=sum(t.n_high for t in trajectories) / max(total_steps, 1),
            policy_loss=loss.policy_term,
            kl_penalty=loss.kl_penalty,
        ))
    return GrpoResult(
        params=params,
        curve=curve,
        n_groups=n_groups,
        episodes_used=n_groups * config.group_size,
    )


def save_training_curve(curve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["group_index", "mean_return", "success_rate",
                         "mean_high_ratio", "policy_loss", "kl_penalty"])
        for m in curve:
            writer.writerow([m.group_index, repr(m.mean_return), repr(m.success_rate),
                             repr(m.mean_high_ratio), repr(m.policy_loss),
                             repr(m.kl_penalty)])
