"""mixroute: step-level mix-precision routing.

A lightweight transformer router decides, at every step of a multi-step
episode, whether to query a cheap low-precision action policy or an
expensive high-precision one. Training is two-stage: supervised labels
derived from step-wise KL divergence between the two policies, then
cost-aware group-relative policy optimization. A synthetic critical-step
world with construction-time-known hard steps verifies the whole pipeline.
"""

from .env import (
    ActionSpace,
    EnvConfig,
    EnvState,
    PolicyPair,
    Trajectory,
    embed_step,
    kl_divergence,
    make_policy_pair,
    policy_distribution,
    remote_policy,
    reset,
    rollout,
    step,
)
from .evaluation import BaselineSpec, EvalReport, evaluate, ghc, sweep
from .grpo import (
    AnchorSnapshot,
    GRPOConfig,
    RewardConfig,
    TrajectoryGroup,
    group_advantages,
    grpo_update,
    routing_kl_penalty,
    train_grpo,
    trajectory_return,
)
from .klst import (
    EmpiricalCdf,
    KLRecord,
    LabelingConfig,
    SupervisionDataset,
    build_supervision_dataset,
    class_weights,
    collect,
    empirical_cdf,
    label_steps,
    train_klst,
)
from .nn import AdamConfig, ParamTensor, adam_step
from .router import (
    RouterConfig,
    RouterParams,
    RoutingDistribution,
    StepSequence,
    add_positions,
    encode,
    forward_probs,
    load_params,
    pool_last_valid,
    route,
    save_params,
    truncate_sequence,
)

__version__ = "0.1.0"
