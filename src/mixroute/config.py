"""Run configuration: one YAML file drives every pipeline stage.

Sections mirror the stage APIs (env / router / klst / grpo / eval) and the
defaults reproduce the standard pipeline shape: tau 0.85, 5 epochs, batch
64, stage-1 lr 1e-4, lambda_high 0.02, beta 0.02, stage-2 lr 1e-6, budgets
200/120 episodes. Validation collects every violation before rejecting.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .env import ActionSpace, EnvConfig
from .grpo import GRPOConfig, RewardConfig
from .klst import KlstTrainConfig, LabelingConfig
from .router import RouterConfig


class ConfigValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid run config:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


DEFAULTS: dict = {
    "seed": 0,
    "output_dir": "runs/default",
    "workers": 1,
    "env": {
        "horizon": 12,
        "actions": 6,
        "critical_steps": None,   # explicit step indices, or null for seeded positions
        "n_critical": 2,
        "n_correct_paths": 1,
        "divergence_low": 0.01,
        "divergence_high": 1.0,
        "seed": 0,
    },
    "router": {
        "embed_dim": 64,
        "num_layers": 2,
        "num_heads": 4,
        "ffn_dim": 256,
        "num_precisions": 2,
        "max_len": 64,
    },
    "klst": {
        "episodes": 200,
        "tau": 0.85,
        "epochs": 5,
        "batch_size": 64,
        "learning_rate": 1.0e-4,
        "select_by": "balanced_accuracy",
    },
    "grpo": {
        "episode_budget": 120,
        "group_size": 8,
        "beta": 0.02,
        "learning_rate": 1.0e-6,
        "lr_scale": 1.0,
        "lambda_high": 0.02,
        "lambda_step": 0.005,
    },
    "eval": {
        "episodes": 500,
        "episode_seed_start": 100000,
        "random_ps": [0.2, 0.4, 0.6, 0.8],
        "mode": "greedy",
    },
}


@dataclass
class EvalSection:
    episodes: int
    episode_seed_start: int
    random_ps: list[float]
    mode: str


@dataclass
class RunConfig:
    master_seed: int
    output_dir: Path
    workers: int
    env: EnvConfig
    router: RouterConfig
    labeling: LabelingConfig
    klst_train: KlstTrainConfig
    collect_episodes: int
    grpo: GRPOConfig
    reward: RewardConfig
    grpo_lr_scale: float
    eval: EvalSection
    resolved: dict = field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _UnusableValue(ValueError):
    """A value that a key does not accept; the message names the key."""


def _integer(key: str, value) -> int:
    """``value`` if it is an int and not a bool. ``int()`` would parse
    strings and truncate floats, and a bool is an int subclass."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _UnusableValue(f"{key} must be an integer, got {value!r}")
    return value


def _real(key: str, value) -> float:
    """``value`` as a finite float. It may be an int, a float or a numeric
    string (PyYAML reads ``1e-4``, an exponent without a dot, as a string),
    but not a bool, which ``float()`` would take as 0 or 1."""
    number = None
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if number is None or not math.isfinite(number):
        raise _UnusableValue(f"{key} must be a finite number, got {value!r}")
    return number


def _merge(base: dict, override: dict, path: str, violations: list[str]) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            violations.append(f"unknown key {path}{key}")
            continue
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, f"{path}{key}.", violations)
        else:
            out[key] = value
    return out


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Merge (defaults <- YAML file <- CLI overrides) and validate everything.

    ``overrides`` uses dotted keys, e.g. {"klst.tau": 0.8, "seed": 3}.
    """
    violations: list[str] = []
    resolved = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigValidationError([f"config file not found: {path}"])
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigValidationError([f"config file cannot be read: {path}: {exc}"])
        except yaml.YAMLError as exc:
            raise ConfigValidationError([f"config file is not valid YAML: {exc}"])
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigValidationError(["config root must be a mapping"])
        resolved = _merge(resolved, loaded, "", violations)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        node = resolved
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if parts[-1] not in node:
            violations.append(f"unknown override key {dotted}")
        else:
            node[parts[-1]] = value

    def build(name, fn):
        try:
            return fn()
        except _UnusableValue as exc:
            violations.append(str(exc))
        except (ValueError, TypeError) as exc:
            violations.append(f"{name}: {exc}")
        return None

    seed = build("seed", lambda: _integer("seed", resolved["seed"]))
    workers = build("workers", lambda: _integer("workers", resolved["workers"]))
    output_dir = build("output_dir", lambda: Path(resolved["output_dir"]))
    e = resolved["env"]
    env = build("env", lambda: EnvConfig(
        horizon=_integer("env.horizon", e["horizon"]),
        action_space=ActionSpace(_integer("env.actions", e["actions"])),
        critical_steps=(frozenset(_integer(f"env.critical_steps[{i}]", t)
                                  for i, t in enumerate(e["critical_steps"]))
                        if e["critical_steps"] else None),
        n_critical=_integer("env.n_critical", e["n_critical"]),
        n_correct_paths=_integer("env.n_correct_paths", e["n_correct_paths"]),
        divergence_low=_real("env.divergence_low", e["divergence_low"]),
        divergence_high=_real("env.divergence_high", e["divergence_high"]),
        seed=_integer("env.seed", e["seed"]),
    ))
    r = resolved["router"]
    router = build("router", lambda: RouterConfig(
        **{key: _integer(f"router.{key}", r[key])
           for key in ("embed_dim", "num_layers", "num_heads", "ffn_dim",
                       "num_precisions", "max_len")}
    ))
    k = resolved["klst"]
    labeling = build("klst.tau", lambda: LabelingConfig(threshold=_real("klst.tau", k["tau"])))
    klst_train = build("klst", lambda: KlstTrainConfig(
        epochs=_integer("klst.epochs", k["epochs"]),
        batch_size=_integer("klst.batch_size", k["batch_size"]),
        learning_rate=_real("klst.learning_rate", k["learning_rate"]),
        seed=seed,
        select_by=str(k["select_by"]),
    ))
    collect_episodes = build("klst.episodes",
                             lambda: _integer("klst.episodes", k["episodes"]))
    if collect_episodes is not None and collect_episodes < 1:
        violations.append("klst.episodes must be >= 1")
    g = resolved["grpo"]
    grpo_cfg = build("grpo", lambda: GRPOConfig(
        group_size=_integer("grpo.group_size", g["group_size"]),
        beta=_real("grpo.beta", g["beta"]),
        learning_rate=(_real("grpo.learning_rate", g["learning_rate"])
                       * _real("grpo.lr_scale", g["lr_scale"])),
        episode_budget=_integer("grpo.episode_budget", g["episode_budget"]),
        seed=seed,
    ))
    reward = build("grpo costs", lambda: RewardConfig(
        lambda_high=_real("grpo.lambda_high", g["lambda_high"]),
        lambda_step=_real("grpo.lambda_step", g["lambda_step"]),
    ))
    ev = resolved["eval"]
    eval_section = build("eval", lambda: EvalSection(
        episodes=_integer("eval.episodes", ev["episodes"]),
        episode_seed_start=_integer("eval.episode_seed_start", ev["episode_seed_start"]),
        random_ps=[_real(f"eval.random_ps[{i}]", p) for i, p in enumerate(ev["random_ps"])],
        mode=str(ev["mode"]),
    ))
    if eval_section is not None:
        if eval_section.episodes < 1:
            violations.append("eval.episodes must be >= 1")
        if eval_section.episode_seed_start < 0:
            violations.append("eval.episode_seed_start must be >= 0")
        if eval_section.mode not in ("greedy", "sampled"):
            violations.append("eval.mode must be greedy or sampled")
        if any(not 0.0 <= p <= 1.0 for p in eval_section.random_ps):
            violations.append("eval.random_ps entries must lie in [0, 1]")

    # cross-section consistency
    if router is not None and router.num_precisions != 2:
        violations.append(
            "router.num_precisions must be 2: the synthetic world provides "
            "exactly one low/high policy pair"
        )
    if workers is not None and workers < 1:
        violations.append("workers must be >= 1")
    if seed is not None and seed < 0:
        violations.append("seed must be >= 0")

    if violations:
        raise ConfigValidationError(violations)

    return RunConfig(
        master_seed=seed,
        output_dir=output_dir,
        workers=workers,
        env=env,
        router=router,
        labeling=labeling,
        klst_train=klst_train,
        collect_episodes=collect_episodes,
        grpo=grpo_cfg,
        reward=reward,
        grpo_lr_scale=_real("grpo.lr_scale", g["lr_scale"]),
        eval=eval_section,
        resolved=resolved,
    )
