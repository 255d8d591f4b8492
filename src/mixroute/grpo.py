"""Stage 2: cost-aware group-relative policy optimization of the router.

Groups of rollouts are sampled on the same task instance under the current
router; returns mix task success with per-call and per-step cost penalties;
advantages are normalized within each group; the policy-gradient update is
regularized by a KL anchor to the stage-1 checkpoint. No value function,
no importance-ratio clipping: each sampled batch is used for exactly one
update, under the parameters that sampled it, so the update backpropagates
through the rollout's own router passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, PolicyPair, RouterDriver, Trajectory, rollout_lockstep
from .nn import AdamConfig, PROB_FLOOR, adam_step
from .router import (
    RouterParams,
    StepSequence,
    forward_probs_batch,
    prefix_sequences,
)


class TrajectoryDataError(ValueError):
    """A trajectory lacks the decision-time sequence snapshots, or recorded
    router passes are not its rollout's rounds."""


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
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2: a group of one has no advantage")
        if self.episode_budget < self.group_size:
            raise ValueError(f"episode_budget {self.episode_budget} is smaller than one "
                             f"group of {self.group_size}")
        if self.beta < 0 or self.epsilon <= 0:
            raise ValueError("beta >= 0 and epsilon > 0 required")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")


def trajectory_return(traj: Trajectory, cfg: RewardConfig) -> float:
    """1[success] - lambda_high * S - lambda_step * T."""
    return float(traj.success) - cfg.lambda_high * traj.n_high - cfg.lambda_step * traj.n_steps


def group_advantages(returns, epsilon: float = 1e-8) -> np.ndarray:
    """(R - mean) / (population std + epsilon); zero vector when returns tie."""
    r = np.asarray(list(returns), dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty return list")
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


def _decision_sequences(traj: Trajectory) -> list[tuple[StepSequence, int]]:
    """Each step's whole prefix sequence (the router truncates it) and choice."""
    if any(s.embedding is None or s.route_choice is None for s in traj.steps):
        raise TrajectoryDataError(
            f"episode {traj.episode_seed} has no decision-time sequences; "
            "roll out with the router driver"
        )
    seqs = prefix_sequences(np.asarray([s.embedding for s in traj.steps]))
    return [(seq, s.route_choice) for seq, s in zip(seqs, traj.steps)]


@dataclass(frozen=True)
class GrpoLoss:
    policy_term: float
    kl_penalty: float
    total: float


def grpo_loss_and_grads(groups, params: RouterParams, anchor: AnchorSnapshot,
                        config: GRPOConfig, passes=None) -> GrpoLoss:
    """Evaluate -E[A * sum_t log pi(r_t|s_t)] + beta * KL(pi || pi_0) and leave
    its gradient in the parameter tensors.

    The KL term is estimated over the states visited in this batch. The
    states go through the router in the rounds of a lockstep rollout: round
    r holds the (r + 1)-th decision of every trajectory that has one, in
    trajectory order. Each round's current-router pass carries both the
    policy-gradient and the KL-penalty contributions; its anchor forward
    runs just before its backward, the backwards run in round order, and
    the loss terms are summed state by state in trajectory order.

    ``passes`` are the recorded router passes of the one group's rollout
    (``rollout_lockstep``'s ``passes``), taken under ``params`` with no
    update since. Pass r must name exactly round r's members, one row per
    member; the loss then backpropagates through them and runs no second
    forward. Without them, each round's forward runs just before its
    backward, and the result is bitwise the same.
    """
    items = [(float(adv), _decision_sequences(traj))
             for group in groups for traj, adv in zip(group.trajectories, group.advantages)]
    if not items:
        raise ValueError("no trajectories to update on")
    n_traj = len(items)
    n_states = sum(len(decisions) for _, decisions in items)
    rounds = [[m for m, (_, decisions) in enumerate(items) if len(decisions) > r]
              for r in range(max(len(decisions) for _, decisions in items))]

    def sequences(r, members):
        return [items[m][1][r][0] for m in members]

    if passes is None:
        passes = ((members, *forward_probs_batch(sequences(r, members), params))
                  for r, members in enumerate(rounds))
    else:
        named = [(list(members), len(probs)) for members, probs, _ in passes]
        if named != [(members, len(members)) for members in rounds]:
            raise TrajectoryDataError(f"recorded passes of (members, rows) {named} are not "
                                      f"the rollout's rounds {rounds}")

    params.zero_grads()
    log_pick = [[] for _ in items]  # log pi(r_t | s_t), floored, per trajectory
    kl_terms = [[] for _ in items]  # KL(pi || pi_0) at s_t, per trajectory
    for r, (members, probs, backward) in enumerate(passes):
        anchor_probs = forward_probs_batch(sequences(r, members), anchor.params)[0]
        pf = np.maximum(probs, PROB_FLOOR)
        log_ratio = np.log(pf / np.maximum(anchor_probs, PROB_FLOOR))
        dprobs = np.zeros_like(probs)
        for row, m in enumerate(members):
            adv, decisions = items[m]
            choice = decisions[r][1]
            log_pick[m].append(math.log(pf[row, choice]))
            kl_terms[m].append(float(np.sum(probs[row] * log_ratio[row])))
            if probs[row, choice] > PROB_FLOOR:
                dprobs[row, choice] = -adv / (n_traj * probs[row, choice])
        dprobs += config.beta * (log_ratio + 1.0) / n_states
        backward(dprobs)

    policy_term = 0.0
    kl_value = 0.0
    for (adv, _), picks, kls in zip(items, log_pick, kl_terms):
        log_prob_sum = 0.0
        for pick, kl in zip(picks, kls):
            log_prob_sum += pick
            kl_value += kl / n_states
        policy_term += -adv * log_prob_sum / n_traj

    return GrpoLoss(policy_term, kl_value, policy_term + config.beta * kl_value)


def grpo_update(groups, params: RouterParams, anchor: AnchorSnapshot,
                config: GRPOConfig, passes=None) -> GrpoLoss:
    """One Adam step on the GRPO loss under the current parameters (strictly
    on-policy, one update per sampled batch); ``passes`` as for
    ``grpo_loss_and_grads``."""
    loss = grpo_loss_and_grads(groups, params, anchor, config, passes)
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
    One update is applied per group, backpropagating through the router
    passes its rollout ran, one per round: each state gets one
    current-router forward. The passes are held until the update, about
    500 packed rows for a group of eight.
    """
    params = init_params.copy()
    anchor = AnchorSnapshot(init_params)
    n_groups = config.episode_budget // config.group_size
    curve: list[GroupMetrics] = []
    for g in range(n_groups):
        episode_seed = episode_seed_start + g
        driver = RouterDriver(params, mode="sampled")
        members = [(driver, episode_seed, k) for k in range(config.group_size)]
        recorded: list = []
        trajectories = rollout_lockstep(env_config, pair, members, master_seed=config.seed,
                                        passes=recorded)
        group = TrajectoryGroup.build(trajectories, reward, config.epsilon)
        loss = grpo_update([group], params, anchor, config, passes=recorded)
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
