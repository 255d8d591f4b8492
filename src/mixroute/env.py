"""CriticalStepWorld: an episodic multi-step environment with a synthetic
dual-precision policy pair whose step-wise divergence is bimodal by
construction.

Each episode derives, from (config.seed, episode_seed), a task with a goal
length G = horizon - 2 and a small set of critical step indices. At a
critical step exactly ``n_correct_paths`` actions advance progress and every
other action silently poisons the episode (it runs on but can no longer
succeed). At non-critical steps a majority of actions advance and the rest
merely waste the step. The high-precision policy concentrates mass on
advancing actions everywhere; the low-precision policy matches it within
``divergence_low`` at non-critical steps and shifts mass onto poisoning
actions at critical steps until KL(low || high) reaches ``divergence_high``.

Transitions are deterministic given the action, so rollouts are driven by
three separate RNG streams (policy sampling, router sampling, driver coins),
each derived from (master_seed, stream tag, episode_seed, sample_index).
One ``rollout_lockstep`` call draws each key's uniforms once, as one vector
of a horizon's draws, and every member with that key reads the same vector:
the drivers of one seed share its policy stream. This keeps klst-collection
trajectories bitwise identical to fixed-high ones under equal seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from .router import (
    ROUTING_MODES,
    RouterParams,
    StepSequence,
    choose_precision,
    forward_probs_batch,
    sample_categorical,
)

# RNG stream tags (first entropy word after the master seed)
STREAM_TASK = 0
STREAM_POLICY = 1
STREAM_ROUTER = 2
STREAM_DRIVER = 3

LOW, HIGH = 0, 1


class EnvConfigError(ValueError):
    pass


class EnvProtocolError(RuntimeError):
    """step() called on a terminal state."""


class RemotePolicyError(RuntimeError):
    pass


class RemoteTimeoutError(RemotePolicyError):
    pass


class MalformedResponseError(RemotePolicyError):
    pass


class UnnormalizedDistributionError(RemotePolicyError):
    pass


def _rng(*key: int) -> np.random.Generator:
    # A uint32 array seeds the same SeedSequence pool as the list of its
    # entries as Python ints, at a fraction of the cost. A key with an
    # entry outside [0, 2**32) takes the list, so it gives the same stream
    # (an entry of 2**32 or more is split into words) or the same error.
    if 0 <= min(key) and max(key) < 1 << 32:
        entropy = np.array(key, dtype=np.uint32)
    else:
        entropy = [int(k) for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class _Uniforms:
    """A cursor over a vector of uniforms drawn at once, in a Generator's
    place for ``sample_categorical`` and a driver's coins: ``random()``
    returns them in order, bitwise the scalar draws of the generator that
    drew the vector. Members that share a stream key each read the vector
    through their own cursor."""

    __slots__ = ("random",)

    def __init__(self, values: list[float]):
        self.random = iter(values).__next__


def _frozen(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, all of
    them and in declaration order, without the generated ``__init__``'s one
    ``object.__setattr__`` per field: it equals, hashes and pickles as the
    instance ``__init__`` builds. It holds a ``__dict__``, about twice the
    memory, so only states, which a rollout drops as it goes, are built so."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class ActionSpace:
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise EnvConfigError("action space needs at least 2 actions")


@dataclass(frozen=True)
class EnvConfig:
    horizon: int = 12
    action_space: ActionSpace = field(default_factory=lambda: ActionSpace(6))
    critical_steps: frozenset[int] | None = None  # explicit; None -> seeded per episode
    n_critical: int = 2
    n_correct_paths: int = 1
    divergence_low: float = 0.01
    divergence_high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.horizon < 1:
            problems.append("horizon must be >= 1")
        if self.critical_steps is not None:
            object.__setattr__(self, "critical_steps", frozenset(self.critical_steps))
            bad = [t for t in self.critical_steps if not 1 <= t <= self.horizon]
            if bad:
                problems.append(f"critical steps {bad} outside [1, {self.horizon}]")
        if self.n_critical < 0:
            problems.append("n_critical must be >= 0")
        if not 1 <= self.n_correct_paths < self.action_space.size:
            problems.append("n_correct_paths must be in [1, |A|)")
        if self.divergence_low < 0:
            problems.append("divergence_low must be >= 0")
        if self.divergence_high <= self.divergence_low:
            problems.append("divergence_high must be > divergence_low")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if problems:
            raise EnvConfigError("invalid EnvConfig: " + "; ".join(problems))

    @property
    def goal_len(self) -> int:
        return max(1, self.horizon - 2)


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    goal_len: int
    n_actions: int
    critical_steps: frozenset[int]
    advancing: tuple[frozenset[int], ...]   # indexed by step, entry 0 unused
    zones: tuple[int, ...]
    notes: tuple[int, ...]
    concentration: tuple[float, ...]        # high-policy mass on advancing set
    kl_targets: tuple[float, ...]           # low-policy divergence target

    def high_distribution(self, t: int) -> np.ndarray:
        """Step t's high-policy distribution, a copy the caller owns."""
        return self._high_table[t].copy()

    def low_distribution(self, t: int) -> np.ndarray:
        """Step t's low-policy distribution, a copy the caller owns.

        Raises EnvConfigError when step t's divergence target is unreachable.
        """
        table, unreachable = self._low_table
        if t in unreachable:
            raise EnvConfigError(unreachable[t])
        return table[t].copy()

    @cached_property
    def task_tokens(self) -> tuple[str, ...]:
        return ("task", f"t{self.task_id}", "goal", f"g{self.goal_len}")

    # The tables below are built on the first query unless rollout_lockstep
    # stored them first, with the rest of its chunk. Like task_tokens they
    # live and die with this task and are not fields, so they take no part
    # in equality or hashing.

    @cached_property
    def _high_table(self) -> np.ndarray:
        return _high_tables([self])[0]

    @cached_property
    def _low_table(self) -> tuple[np.ndarray, dict[int, str]]:
        return _solve_low_tables([self])[0]


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` bit for bit: numpy computes it as
    ``low + (high - low) * rng.random()``, at about three times the cost."""
    return low + (high - low) * rng.random()


def _build_task(config: EnvConfig, episode_seed: int) -> TaskSpec:
    rng = _rng(config.seed, STREAM_TASK, episode_seed)
    task_id = int(rng.integers(0, 10_000))
    goal = config.goal_len
    if config.critical_steps is not None:
        critical = config.critical_steps
    else:
        candidates = np.arange(2, goal + 1)
        n = min(config.n_critical, candidates.size)
        critical = frozenset(
            rng.choice(candidates, size=n, replace=False).tolist()
        ) if n > 0 else frozenset()

    n_actions = config.action_space.size
    majority = max(config.n_correct_paths, n_actions // 2 + 1)
    advancing = [frozenset()]  # index 0 unused; steps are 1-based
    zones, notes, conc, kl_targets = [0], [0], [0.0], [0.0]
    for t in range(1, config.horizon + 3):
        is_critical = t in critical
        width = config.n_correct_paths if is_critical else majority
        advancing.append(frozenset(rng.choice(n_actions, size=width, replace=False).tolist()))
        zones.append(int(rng.integers(0, 20)))
        notes.append(int(rng.integers(0, 50)))
        if is_critical:
            conc.append(_uniform(rng, 0.988, 0.996))
            kl_targets.append(config.divergence_high * _uniform(rng, 1.02, 1.30))
        else:
            conc.append(_uniform(rng, 0.975, 0.990))
            kl_targets.append(config.divergence_low * _uniform(rng, 0.25, 0.75))
    return TaskSpec(
        task_id=task_id,
        goal_len=goal,
        n_actions=n_actions,
        critical_steps=critical,
        advancing=tuple(advancing),
        zones=tuple(zones),
        notes=tuple(notes),
        concentration=tuple(conc),
        kl_targets=tuple(kl_targets),
    )


@dataclass(frozen=True)
class EnvState:
    config: EnvConfig
    episode_seed: int
    task: TaskSpec
    t: int                 # 1-based index of the pending decision step
    progress: int
    poisoned: bool
    history: tuple[tuple[int, tuple[str, ...]], ...]  # (action, resulting observation)
    observation: tuple[str, ...]  # visible before acting at step t
    terminal: bool = False
    success: bool = False

    @property
    def task_tokens(self) -> tuple[str, ...]:
        return self.task.task_tokens

    @property
    def is_critical_now(self) -> bool:
        return self.t in self.task.critical_steps


def _observation(task: TaskSpec, t: int, result: str, progress: int) -> tuple[str, ...]:
    status = ("alarm", "fragile") if t in task.critical_steps else ("calm", "steady")
    return (
        result, "prog", f"p{progress}",
        "zone", f"z{task.zones[t]}",
        *status,
        "note", f"n{task.notes[t]}",
    )


def reset(config: EnvConfig, episode_seed: int) -> EnvState:
    task = _build_task(config, episode_seed)
    return EnvState(
        config=config,
        episode_seed=episode_seed,
        task=task,
        t=1,
        progress=0,
        poisoned=False,
        history=(),
        observation=_observation(task, 1, "start", 0),
    )


def step(state: EnvState, action: int):
    """Apply one action. Returns (next_state, observation, done, success).

    Poisoning is silent: the failed episode keeps emitting ordinary
    observations and fails at the horizon.
    """
    if state.terminal:
        raise EnvProtocolError("step() on a terminal state")
    n_actions = state.config.action_space.size
    if not 0 <= action < n_actions:
        raise ValueError(f"action {action} outside [0, {n_actions})")

    task = state.task
    advancing = action in task.advancing[state.t]
    poisoned = state.poisoned or (state.t in task.critical_steps and not advancing)
    if advancing and not poisoned:
        progress = state.progress + 1
        result = "ok"
    else:
        progress = state.progress
        result = "noop"

    success = (not poisoned) and progress >= task.goal_len
    done = success or state.t >= state.config.horizon
    obs = _observation(task, state.t + 1, result, progress)
    next_state = _frozen(EnvState, config=state.config, episode_seed=state.episode_seed,
                         task=task, t=state.t + 1, progress=progress, poisoned=poisoned,
                         history=state.history + ((action, obs),), observation=obs,
                         terminal=done, success=success)
    return next_state, list(obs), done, success


# --- dual-precision policy pair ----------------------------------------------

@dataclass(frozen=True)
class PolicyPair:
    high: Callable[[EnvState], np.ndarray]
    low: Callable[[EnvState], np.ndarray]
    costs: tuple[float, float] = (0.0, 1.0)  # per-call cost (low, high)


def _advancing_rows(tasks) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every task stacked: an (R, A) mask of each step's
    advancing actions, and the index of each task's first row."""
    advancing = [on for task in tasks for on in task.advancing]
    on = np.zeros((len(advancing), tasks[0].n_actions), dtype=bool)
    on[[r for r, acts in enumerate(advancing) for _ in acts],
       [a for acts in advancing for a in acts]] = True
    starts = np.cumsum([0] + [len(task.advancing) for task in tasks[:-1]])
    return on, starts


def _high_tables(tasks) -> list[np.ndarray]:
    """Every step's high-policy distribution of each task, one (R, A) table
    per task: step t puts mass concentration[t] evenly on its advancing
    actions and the rest evenly on the others, renormalised when every
    action advances. Row 0 is unused. The tasks must come from one
    EnvConfig, so they share one action count.
    """
    on, starts = _advancing_rows(tasks)
    mass = np.array([x for task in tasks for x in task.concentration])
    n_on = on.sum(axis=1)
    n_off = on.shape[1] - n_on
    with np.errstate(divide="ignore", invalid="ignore"):
        high = np.where(on, (mass / n_on)[:, None], ((1.0 - mass) / n_off)[:, None])
    everywhere = n_off == 0
    high[everywhere] /= high[everywhere].sum(axis=1, keepdims=True)
    return np.split(high, starts[1:])


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) of each row of two (R, A) arrays, with 0*log(0/q) = 0 and
    +inf where p puts mass where q has none. Each row is reduced on its own,
    so its KL is bitwise the one it has alone, in any company."""
    if p.shape != q.shape:
        raise ValueError(f"support sizes differ: {p.shape[1]} vs {q.shape[1]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0).sum(axis=1)


def kl_divergence(p, q) -> float:
    """KL(p || q) for categoricals over the same support, with 0*log(0/q)=0.

    Returns +inf (not an exception) when p puts mass where q has none.
    """
    p = np.asarray(p, dtype=np.float64).reshape(1, -1)
    q = np.asarray(q, dtype=np.float64).reshape(1, -1)
    return float(_kl_rows(p, q)[0])


def _solve_low_tables(tasks) -> list[tuple[np.ndarray, dict[int, str]]]:
    """Every step's low-policy distribution of each task, in one bisection.

    Row t of a task's table is the smallest mixture (1-a)*high + a*direction
    with KL(mix || high) = kl_targets[t], where direction spreads all mass
    over the poisoning actions at a critical step and is uniform elsewhere.
    KL of the mixture is convex in ``a`` with value 0 at a=0, hence
    nondecreasing on [0, 1]; bisection is exact enough at 80 iterations, and
    stops sooner once an iteration moves no bound of any row. The rows of
    every task bisect side by side, each with the arithmetic of a bisection
    of its own; a row whose bounds stopped moving never moves again, so a
    task's table does not depend on the tasks solved with it. Steps whose
    target is unreachable are left NaN and map to their error message
    instead, raised only if that step is queried. Row 0 is unused.

    Returns one ``(table, unreachable)`` pair per task; the tasks must come
    from one EnvConfig, so they share one action count.
    """
    n_actions = tasks[0].n_actions
    on, starts = _advancing_rows(tasks)
    critical = np.zeros(len(on), dtype=bool)
    critical[[s + t for s, task in zip(starts, tasks) for t in task.critical_steps]] = True
    steps = np.ones(len(on), dtype=bool)
    steps[starts] = False  # row 0 of each task is unused
    target = np.array([x for task in tasks for x in task.kl_targets])
    base = np.concatenate([task._high_table for task in tasks])

    n_off = n_actions - on.sum(axis=1)
    with np.errstate(divide="ignore"):
        direction = np.where(critical[:, None], np.where(on, 0.0, 1.0 / n_off[:, None]),
                             1.0 / n_actions)
    reachable = _kl_rows(direction, base)
    shifted = steps & (target > 0.0)  # the rows where low parts from high
    out_of_reach = shifted & (reachable < target)
    rows = shifted & ~out_of_reach

    table = np.where((steps & ~shifted)[:, None], base, np.nan)
    base, direction, goal = base[rows], direction[rows], target[rows, None]
    lo, hi = np.zeros_like(goal), np.ones_like(goal)
    # A mixture entry is 0 only once mid rounds to 1.0, which needs hi == 1.0;
    # its 0*log(0) is NaN, fails the test and leaves hi at 1.0, the same
    # verdict as a KL that skips zero entries.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            mix = (1.0 - mid) * base + mid * direction
            below = (mix * np.log(mix / base)).sum(axis=1, keepdims=True) < goal
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            if (new_lo == lo).all() and (new_hi == hi).all():
                break  # a fixed point: every later iteration would repeat this one
            lo, hi = new_lo, new_hi
    table[rows] = (1.0 - hi) * base + hi * direction

    unreachable: list[dict[int, str]] = [{} for _ in tasks]
    for r in np.flatnonzero(out_of_reach):
        i = int(np.searchsorted(starts, r, side="right")) - 1
        key = "divergence_high" if critical[r] else "divergence_low"
        unreachable[i][int(r - starts[i])] = (
            f"divergence target {target[r]:.4g} unreachable (max {reachable[r]:.4g}); "
            f"lower {key}"
        )
    return list(zip(np.split(table, starts[1:]), unreachable))


class SyntheticPolicy:
    """Deterministic state-conditional action distribution for the world.

    ``which`` is "high" or "low". Picklable so rollouts can fan out across
    worker processes.
    """

    def __init__(self, which: str):
        if which not in ("high", "low"):
            raise ValueError(f"unknown policy {which!r}")
        self.which = which

    def __call__(self, state: EnvState) -> np.ndarray:
        if self.which == "high":
            return state.task.high_distribution(state.t)
        return state.task.low_distribution(state.t)


def make_policy_pair(config: EnvConfig) -> PolicyPair:
    return PolicyPair(high=SyntheticPolicy("high"), low=SyntheticPolicy("low"))


# --- step embeddings ----------------------------------------------------------

def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Bounded, so it stays small however many tasks' tokens pass through it:
# the observation and action tokens of a 12-step world number about a
# hundred per dim and, read at every step, stay cached, while each task's id
# token is read once per episode and then ages out.
@lru_cache(maxsize=512)
def _token_bucket(token: str, dim: int) -> tuple[int, int]:
    """The signed bucket ``token`` hashes into among ``dim``: (bucket, +-1)."""
    h = _token_hash(token)
    return (h >> 1) % dim, 1 if h & 1 else -1


def _token_counts(tokens, dim: int, counts: dict[int, int] | None = None) -> dict[int, int]:
    """Each bucket's signed count of ``tokens``, added into a copy of ``counts``."""
    counts = {} if counts is None else dict(counts)
    for tok in tokens:
        bucket, sign = _token_bucket(tok, dim)
        counts[bucket] = counts.get(bucket, 0) + sign
    return counts


def _embed(task_counts: dict[int, int], action: int | None, observation_tokens,
           dim: int) -> np.ndarray:
    """``embed_step`` with the task tokens already counted into ``task_counts``,
    which an episode counts once for all of its steps."""
    tokens = observation_tokens if action is None else (f"act{action}", *observation_tokens)
    counts = _token_counts(tokens, dim, task_counts)
    # Integer counts are exact in any order, and their sum of squares is the
    # exact dot product a float accumulation's norm takes the root of.
    z = np.zeros(dim)
    squares = 0
    for bucket, count in counts.items():
        z[bucket] = count
        squares += count * count
    if squares:
        z /= math.sqrt(squares)
    return z


def embed_step(task_tokens, action: int | None, observation_tokens, dim: int) -> np.ndarray:
    """Feature-hash one interaction step into a unit-norm vector.

    Tokens of the task description, the action that led into the step, and
    the step's observation are hashed into ``dim`` signed buckets. A zero
    accumulation (no tokens) stays the zero vector.
    """
    return _embed(_token_counts(task_tokens, dim), action, observation_tokens, dim)


# --- trajectories -------------------------------------------------------------

# Slotted: a sweep keeps every step of every episode, and a step without a
# __dict__ is smaller (97 B against 145 B) and quicker to build.
@dataclass(frozen=True, slots=True)
class TrajStep:
    t: int
    action: int
    executed: int                      # LOW or HIGH: precision actually queried
    route_choice: int | None           # router decision, None for fixed drivers
    d_t: float | None                  # KL(low || high), klst collection only
    embedding: np.ndarray | None
    critical: bool                     # construction-time ground truth


@dataclass(frozen=True)
class Trajectory:
    episode_seed: int
    driver: str
    steps: tuple[TrajStep, ...]
    success: bool
    n_high: int
    n_steps: int


# --- rollout drivers ----------------------------------------------------------

@dataclass(frozen=True)
class FixedLow:
    tag: ClassVar[str] = "fixed_low"


@dataclass(frozen=True)
class FixedHigh:
    tag: ClassVar[str] = "fixed_high"


@dataclass(frozen=True)
class KlstCollect:
    embed_dim: int | None = 64  # None records no step embeddings
    tag: ClassVar[str] = "klst_collect"

    def __post_init__(self):
        if self.embed_dim is not None and self.embed_dim < 1:
            raise ValueError("embed_dim must be None or >= 1")


@dataclass(frozen=True)
class RandomDriver:
    p: float
    tag: ClassVar[str] = "random"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class RouterDriver:
    params: RouterParams
    mode: str = "sampled"
    tag: ClassVar[str] = "router"

    def __post_init__(self):
        if self.mode not in ROUTING_MODES:
            raise ValueError(f"unknown routing mode {self.mode!r}")
        if self.params.config.num_precisions != 2:
            raise ValueError("synthetic rollouts need a binary (K=2) router")


Driver = FixedLow | FixedHigh | KlstCollect | RandomDriver | RouterDriver


def _episode(pair: PolicyPair, driver: Driver, state: EnvState, uniforms: Callable,
             master_seed: int, sample_index: int):
    """One episode's step loop from ``state``, as a generator.

    At each router decision it yields the step's StepSequence and takes the
    router's probabilities back; it returns the finished Trajectory.
    ``uniforms(*key)`` gives the draws of the RNG stream with that key; only
    the streams the driver draws from are asked for: a greedy router draws
    none. Klst collection keeps a copy of each step's low and high rows and
    computes every D_t in one pass once the episode ends. A router embeds
    each step at its params' width, klst collection at its ``embed_dim``.
    """
    key = (state.episode_seed, sample_index)
    policy_rng = uniforms(master_seed, STREAM_POLICY, *key)
    driver_rng = (uniforms(master_seed, STREAM_DRIVER, *key)
                  if isinstance(driver, RandomDriver) else None)
    routed = isinstance(driver, RouterDriver)
    router_rng = (uniforms(master_seed, STREAM_ROUTER, *key)
                  if routed and driver.mode == "sampled" else None)
    collect = isinstance(driver, KlstCollect)
    dim = driver.params.config.embed_dim if routed else driver.embed_dim if collect else None
    if dim is not None:
        task_counts = _token_counts(state.task_tokens, dim)
    rows: list[tuple] = []  # each step's TrajStep fields but d_t
    embeddings: list[np.ndarray] = []
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    prev_action: int | None = None
    n_high = 0

    while not state.terminal:
        z = None
        if dim is not None:
            z = _embed(task_counts, prev_action, state.observation, dim)
            embeddings.append(z)

        choice: int | None = None
        if isinstance(driver, FixedLow):
            executed = LOW
        elif isinstance(driver, FixedHigh):
            executed = HIGH
        elif isinstance(driver, RandomDriver):
            executed = HIGH if driver_rng.random() < driver.p else LOW
        elif collect:
            lows.append(np.array(pair.low(state), dtype=np.float64))
            highs.append(np.array(pair.high(state), dtype=np.float64))
            executed = HIGH
        elif routed:
            probs = yield StepSequence.of(np.asarray(embeddings))
            choice = choose_precision(probs, driver.mode, router_rng)
            executed = HIGH if choice == HIGH else LOW
        else:
            raise TypeError(f"unknown driver {driver!r}")

        if collect:
            dist = highs[-1]
        else:
            dist = pair.high(state) if executed == HIGH else pair.low(state)
        action = sample_categorical(dist, policy_rng)
        n_high += int(executed == HIGH)
        rows.append((state.t, action, executed, choice, z, state.is_critical_now))
        prev_action = action
        state, _, _, _ = step(state, action)

    d_ts: list[float | None] = [None] * len(rows)
    if collect:
        d_ts = _kl_rows(np.array(lows), np.array(highs)).tolist()
    return Trajectory(
        episode_seed=state.episode_seed,
        driver=driver.tag,
        steps=tuple(TrajStep(t, action, executed, choice, d_t, z, critical)
                    for (t, action, executed, choice, z, critical), d_t in zip(rows, d_ts)),
        success=state.success,
        n_high=n_high,
        n_steps=len(rows),
    )


def rollout_lockstep(config: EnvConfig, pair: PolicyPair, members,
                     master_seed: int = 0, passes: list | None = None) -> list[Trajectory]:
    """Run ``(driver, episode_seed, sample_index)`` members in lockstep.

    Each distinct episode seed is reset once, so its members share one task
    instance and its policy tables. When the pair holds a SyntheticPolicy,
    the tables' only reader, one ``_high_tables`` call builds every seed's
    high-policy table before the first step; when its low policy is one,
    one ``_solve_low_tables`` call solves the low-policy tables of every
    seed with a member that can query the low policy (any driver but
    FixedHigh); a FixedHigh-only seed's low table is never built. Every live
    member has taken the same number of steps, so each round's router
    decisions go through each router as one stack. Each member embeds its
    steps at the width its driver holds (``_episode``). A member's sampling
    streams are keyed by its episode seed and sample index, never by its
    place in ``members``; each key's uniforms are drawn once and shared by
    the members that have it, so each trajectory is bitwise equal to the
    member's own ``rollout``.

    Given a ``passes`` list, each router pass appends ``(live, probs,
    backward)``: the indices in ``members`` it decided for, in order, its
    probabilities and its ``forward_probs_batch`` backward closure, so a
    caller can backpropagate through the rollout's own passes. Round r
    decides for the members live after r steps, in member order: under
    one router, pass r holds the (r + 1)-th decision of every member that
    has one, the rounds ``grpo_loss_and_grads`` takes. Otherwise the
    closures are dropped as each round ends.
    """
    starts: dict[int, EnvState] = {}
    drawn: dict[tuple[int, ...], list[float]] = {}  # stream key -> its uniforms

    def uniforms(*key: int) -> _Uniforms:
        # An episode draws at most once per step from each of its streams.
        if key not in drawn:
            drawn[key] = _rng(*key).random(config.horizon).tolist()
        return _Uniforms(drawn[key])

    episodes = []
    for driver, episode_seed, k in members:
        # A seed's members after the first start from their own copy of the
        # state, all holding the one task: a policy that tells decision steps
        # apart by the state object it is handed sees each member's.
        if episode_seed in starts:
            start = _frozen(EnvState, **vars(starts[episode_seed]))
        else:
            start = starts[episode_seed] = reset(config, episode_seed)
        episodes.append(_episode(pair, driver, start, uniforms, master_seed, k))
    # Stored where each cached_property keeps its value.
    synthetic_low = isinstance(pair.low, SyntheticPolicy)
    if synthetic_low or isinstance(pair.high, SyntheticPolicy):
        tasks = [start.task for start in starts.values()]
        for task, table in zip(tasks, _high_tables(tasks)):
            task.__dict__["_high_table"] = table
    low_seeds = dict.fromkeys(s for driver, s, _ in members if not isinstance(driver, FixedHigh))
    if synthetic_low and low_seeds:
        low_tasks = [starts[s].task for s in low_seeds]
        for task, solved in zip(low_tasks, _solve_low_tables(low_tasks)):
            task.__dict__["_low_table"] = solved
    trajectories: list[Trajectory | None] = [None] * len(episodes)
    requests: dict[int, StepSequence] = {}  # member -> sequence awaiting a decision

    def advance(i: int, probs) -> None:
        try:
            requests[i] = episodes[i].send(probs)
        except StopIteration as finished:
            trajectories[i] = finished.value

    for i in range(len(episodes)):
        advance(i, None)
    while requests:
        by_router: dict[int, list[int]] = {}
        for i in requests:
            by_router.setdefault(id(members[i][0].params), []).append(i)
        for live in by_router.values():
            probs, backward = forward_probs_batch([requests.pop(i) for i in live],
                                                  members[live[0]][0].params)
            if passes is not None:
                passes.append((live, probs, backward))
            for row, i in enumerate(live):
                advance(i, probs[row])
    return trajectories


def rollout(config: EnvConfig, pair: PolicyPair, driver: Driver, episode_seed: int,
            master_seed: int = 0, sample_index: int = 0) -> Trajectory:
    """Run one episode under a driver: the one-member ``rollout_lockstep``.

    fixed_low / fixed_high query a single policy; random(p) flips an
    independent coin per step; the router driver routes each step from the
    incrementally built StepSequence; klst_collect evaluates both policies,
    records D_t = KL(low || high) and executes the high-precision sample.
    Each driver embeds steps at its own width (``_episode``).
    """
    return rollout_lockstep(config, pair, [(driver, episode_seed, sample_index)],
                            master_seed=master_seed)[0]


# Episode seeds that run_drivers steps together. A larger chunk makes larger
# router stacks and low-table solves but holds more live episodes: on a
# 2-core shared VM a 200-seed, 8-spec sweep took a median 1.5 / 1.4 / 1.2 s
# (best of 3, five runs each) at chunks of 4 / 16 / 64, peaking at
# 53 / 57 / 76 MB.
EPISODE_CHUNK = 16


def _chunk_job(args) -> list[list[Trajectory]]:
    config, pair, drivers, seeds, master_seed = args
    flat = rollout_lockstep(config, pair, [(d, s, 0) for s in seeds for d in drivers],
                            master_seed=master_seed)
    return [flat[j::len(drivers)] for j in range(len(drivers))]


def run_drivers(config: EnvConfig, pair: PolicyPair, drivers, episode_seeds,
                master_seed: int = 0, workers: int = 1) -> list[list[Trajectory]]:
    """Every driver's episode on every seed: one column per driver, ordered
    by the given seeds.

    Seeds run in lockstep chunks of at most EPISODE_CHUNK, each seed reset
    once for all drivers. With ``workers`` > 1 the chunks are split across
    one process pool; each trajectory is the same as its own ``rollout``, so
    neither chunking nor parallelism changes the outcome.
    """
    drivers = list(drivers)
    seeds = [int(s) for s in episode_seeds]
    # Under fork a pool starts all its workers at its first submit, so it
    # never asks for more than there are CPUs or chunks.
    processes = max(1, min(workers, os.cpu_count() or 1))
    # Smaller chunks when there are too few seeds to give every process one.
    per_process = -(-len(seeds) // processes)
    size = max(1, min(EPISODE_CHUNK, per_process))
    jobs = [(config, pair, drivers, seeds[i:i + size], master_seed)
            for i in range(0, len(seeds), size)]
    if workers <= 1 or len(jobs) <= 1:
        chunks = [_chunk_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(processes, len(jobs))) as pool:
            chunks = list(pool.map(_chunk_job, jobs))
    return [[traj for chunk in chunks for traj in chunk[j]] for j in range(len(drivers))]


def run_episodes(config: EnvConfig, pair: PolicyPair, driver: Driver,
                 episode_seeds, master_seed: int = 0, workers: int = 1) -> list[Trajectory]:
    """Roll out many independent episodes: the one-driver ``run_drivers``."""
    return run_drivers(config, pair, [driver], episode_seeds, master_seed=master_seed,
                       workers=workers)[0]


# --- remote policy adapter -----------------------------------------------------

class RemotePolicy:
    """Queries a policy server speaking newline-delimited JSON over TCP.

    Request:  {"task": [...], "history": [{"action": a|null,
              "observation": [...]}, ...], "action_space_size": n}
    The final history entry carries the current observation with a null
    action. Response: {"probs": [p_0, ..., p_{n-1}]}.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def __call__(self, state: EnvState) -> np.ndarray:
        n_actions = state.config.action_space.size
        request = {
            "task": list(state.task_tokens),
            "history": [
                {"action": a, "observation": list(obs)} for a, obs in state.history
            ] + [{"action": None, "observation": list(state.observation)}],
            "action_space_size": n_actions,
        }
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
                sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
                with sock.makefile("rb") as reader:
                    line = reader.readline()
        except (socket.timeout, TimeoutError) as exc:
            raise RemoteTimeoutError(f"{self.host}:{self.port} timed out") from exc
        except OSError as exc:
            raise RemotePolicyError(f"{self.host}:{self.port}: {exc}") from exc
        if not line:
            raise MalformedResponseError("server closed the connection without a response")
        try:
            payload = json.loads(line, parse_int=float)
            probs = payload["probs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponseError(f"unparseable response: {line[:200]!r}") from exc
        # JSON numbers only, all read as floats (an integer beyond float range
        # as inf): numpy would take true/false and numeric strings.
        if (not isinstance(probs, list) or len(probs) != n_actions
                or not all(type(p) is float for p in probs)):
            raise MalformedResponseError(
                f"expected {n_actions} probabilities, got {probs!r}"
            )
        dist = np.asarray(probs, dtype=np.float64)
        if not np.all(np.isfinite(dist)) or (dist < 0).any():
            raise MalformedResponseError("probabilities must be finite and nonnegative")
        if abs(float(dist.sum()) - 1.0) > 1e-6:
            raise UnnormalizedDistributionError(
                f"probabilities sum to {dist.sum():.8f}, expected 1"
            )
        return dist


def remote_policy(address: str, timeout: float = 5.0) -> RemotePolicy:
    """Build a policy function from a "host:port" endpoint address."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must look like host:port, got {address!r}")
    return RemotePolicy(host, int(port), timeout=timeout)
