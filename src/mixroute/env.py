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
This keeps klst-collection trajectories bitwise identical to fixed-high
ones under equal seeds.
"""

from __future__ import annotations

import hashlib
import json
import socket
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .router import (
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
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


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
        return _concentrated(self.n_actions, self.advancing[t], self.concentration[t])

    def low_distribution(self, t: int) -> np.ndarray:
        """Step t's low-policy distribution, a copy the caller owns.

        Raises EnvConfigError when step t's divergence target is unreachable.
        """
        table, unreachable = self._low_table
        if t in unreachable:
            raise EnvConfigError(unreachable[t])
        return table[t].copy()

    @cached_property
    def _low_table(self) -> tuple[np.ndarray, dict[int, str]]:
        # Solved on the first low query; lives and dies with this task and is
        # not a field, so it takes no part in equality or hashing.
        return _solve_low_table(self)


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
            int(t) for t in rng.choice(candidates, size=n, replace=False)
        ) if n > 0 else frozenset()

    n_actions = config.action_space.size
    majority = max(config.n_correct_paths, n_actions // 2 + 1)
    advancing = [frozenset()]  # index 0 unused; steps are 1-based
    zones, notes, conc, kl_targets = [0], [0], [0.0], [0.0]
    for t in range(1, config.horizon + 3):
        is_critical = t in critical
        width = config.n_correct_paths if is_critical else majority
        advancing.append(frozenset(
            int(a) for a in rng.choice(n_actions, size=width, replace=False)
        ))
        zones.append(int(rng.integers(0, 20)))
        notes.append(int(rng.integers(0, 50)))
        if is_critical:
            conc.append(float(rng.uniform(0.988, 0.996)))
            kl_targets.append(config.divergence_high * float(rng.uniform(1.02, 1.30)))
        else:
            conc.append(float(rng.uniform(0.975, 0.990)))
            kl_targets.append(config.divergence_low * float(rng.uniform(0.25, 0.75)))
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
        return ("task", f"t{self.task.task_id}", "goal", f"g{self.task.goal_len}")

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
    next_state = replace(
        state,
        t=state.t + 1,
        progress=progress,
        poisoned=poisoned,
        history=state.history + ((action, obs),),
        observation=obs,
        terminal=done,
        success=success,
    )
    return next_state, list(obs), done, success


# --- dual-precision policy pair ----------------------------------------------

@dataclass(frozen=True)
class PolicyPair:
    high: Callable[[EnvState], np.ndarray]
    low: Callable[[EnvState], np.ndarray]
    costs: tuple[float, float] = (0.0, 1.0)  # per-call cost (low, high)


def _concentrated(n_actions: int, on: frozenset[int], mass: float) -> np.ndarray:
    dist = np.zeros(n_actions)
    on_idx = sorted(on)
    dist[on_idx] = mass / len(on_idx)
    rest = [a for a in range(n_actions) if a not in on]
    if rest:
        dist[rest] = (1.0 - mass) / len(rest)
    else:
        dist /= dist.sum()
    return dist


def kl_divergence(p, q) -> float:
    """KL(p || q) for categoricals over the same support, with 0*log(0/q)=0.

    Returns +inf (not an exception) when p puts mass where q has none.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if p.shape != q.shape:
        raise ValueError(f"support sizes differ: {p.shape[0]} vs {q.shape[0]}")
    live = p > 0.0
    if np.any(live & (q <= 0.0)):
        return float("inf")
    return float(np.sum(p[live] * np.log(p[live] / q[live])))


def _solve_low_table(task: TaskSpec) -> tuple[np.ndarray, dict[int, str]]:
    """Every step's low-policy distribution, solved in one bisection.

    Row t is the smallest mixture (1-a)*high + a*direction with
    KL(mix || high) = kl_targets[t], where direction spreads all mass over
    the poisoning actions at a critical step and is uniform elsewhere. KL of
    the mixture is convex in ``a`` with value 0 at a=0, hence nondecreasing
    on [0, 1]; bisection is exact enough at 80 iterations, and stops sooner
    once an iteration moves no bound of any row. The rows bisect side by
    side, each with the arithmetic of a bisection of its own. Steps
    whose target is unreachable are left out and map to their error message
    instead, raised only if that step is queried. Row 0 is unused.
    """
    n_actions = task.n_actions
    table = np.full((len(task.kl_targets), n_actions), np.nan)
    unreachable: dict[int, str] = {}
    rows, bases, directions = [], [], []
    for t in range(1, len(task.kl_targets)):
        base = task.high_distribution(t)
        target = task.kl_targets[t]
        if target <= 0.0:
            table[t] = base
            continue
        if t in task.critical_steps:
            poison = frozenset(range(n_actions)) - task.advancing[t]
            direction = _concentrated(n_actions, poison, 1.0)
        else:
            direction = np.full(n_actions, 1.0 / n_actions)
        reachable = kl_divergence(direction, base)
        if reachable < target:
            unreachable[t] = (
                f"divergence target {target:.4g} unreachable (max {reachable:.4g}); "
                "lower divergence_high or flatten the high policy"
            )
            continue
        rows.append(t)
        bases.append(base)
        directions.append(direction)
    if not rows:
        return table, unreachable

    base, direction = np.array(bases), np.array(directions)
    target = np.array([[task.kl_targets[t]] for t in rows])
    lo, hi = np.zeros_like(target), np.ones_like(target)
    # A mixture entry is 0 only once mid rounds to 1.0, which needs hi == 1.0;
    # its 0*log(0) is NaN, fails the test and leaves hi at 1.0, the same
    # verdict as a KL that skips zero entries.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            mix = (1.0 - mid) * base + mid * direction
            below = (mix * np.log(mix / base)).sum(axis=1, keepdims=True) < target
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            if (new_lo == lo).all() and (new_hi == hi).all():
                break  # a fixed point: every later iteration would repeat this one
            lo, hi = new_lo, new_hi
    table[rows] = (1.0 - hi) * base + hi * direction
    return table, unreachable


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

@lru_cache(maxsize=65536)
def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def embed_step(task_tokens, action: int | None, observation_tokens, dim: int) -> np.ndarray:
    """Feature-hash one interaction step into a unit-norm vector.

    Tokens of the task description, the action that led into the step, and
    the step's observation are hashed into ``dim`` signed buckets. A zero
    accumulation (no tokens) stays the zero vector.
    """
    acc = np.zeros(dim)
    action_tokens = () if action is None else (f"act{action}",)
    for tok in (*task_tokens, *action_tokens, *observation_tokens):
        h = _token_hash(tok)
        acc[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    norm = np.linalg.norm(acc)
    if norm == 0.0:
        return acc
    return acc / norm


# --- trajectories -------------------------------------------------------------

@dataclass(frozen=True)
class TrajStep:
    t: int
    observation: tuple[str, ...]
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

    @property
    def high_ratio(self) -> float:
        return self.n_high / self.n_steps if self.n_steps else 0.0


# --- rollout drivers ----------------------------------------------------------

@dataclass(frozen=True)
class FixedLow:
    tag: str = "fixed_low"


@dataclass(frozen=True)
class FixedHigh:
    tag: str = "fixed_high"


@dataclass(frozen=True)
class KlstCollect:
    tag: str = "klst_collect"


@dataclass(frozen=True)
class RandomDriver:
    p: float
    tag: str = "random"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class RouterDriver:
    params: RouterParams
    mode: str = "sampled"
    tag: str = "router"


Driver = FixedLow | FixedHigh | KlstCollect | RandomDriver | RouterDriver


def _episode(pair: PolicyPair, driver: Driver, state: EnvState, master_seed: int,
             sample_index: int, embed_dim: int):
    """One episode's step loop from ``state``, as a generator.

    At each router decision it yields the step's StepSequence and takes the
    router's probabilities back; it returns the finished Trajectory. Only
    the RNG streams the driver draws from are built.
    """
    key = (state.episode_seed, sample_index)
    policy_rng = _rng(master_seed, STREAM_POLICY, *key)
    driver_rng = _rng(master_seed, STREAM_DRIVER, *key) if isinstance(driver, RandomDriver) else None
    router_rng = _rng(master_seed, STREAM_ROUTER, *key) if isinstance(driver, RouterDriver) else None
    record_embeddings = isinstance(driver, (RouterDriver, KlstCollect))
    steps: list[TrajStep] = []
    embeddings: list[np.ndarray] = []
    prev_action: int | None = None
    n_high = 0

    while not state.terminal:
        z = None
        if record_embeddings:
            z = embed_step(state.task_tokens, prev_action, state.observation, embed_dim)
            embeddings.append(z)

        choice: int | None = None
        d_t: float | None = None
        high_dist: np.ndarray | None = None
        if isinstance(driver, FixedLow):
            executed = LOW
        elif isinstance(driver, FixedHigh):
            executed = HIGH
        elif isinstance(driver, RandomDriver):
            executed = HIGH if driver_rng.random() < driver.p else LOW
        elif isinstance(driver, KlstCollect):
            low_dist = pair.low(state)
            high_dist = pair.high(state)
            d_t = kl_divergence(low_dist, high_dist)
            executed = HIGH
        elif isinstance(driver, RouterDriver):
            probs = yield StepSequence.of(np.asarray(embeddings))
            choice = choose_precision(probs, driver.mode, router_rng)
            executed = HIGH if choice == HIGH else LOW
        else:
            raise TypeError(f"unknown driver {driver!r}")

        if high_dist is None:
            dist = pair.high(state) if executed == HIGH else pair.low(state)
        else:
            dist = high_dist
        action = sample_categorical(dist, policy_rng)
        n_high += int(executed == HIGH)

        steps.append(TrajStep(
            t=state.t,
            observation=state.observation,
            action=action,
            executed=executed,
            route_choice=choice,
            d_t=d_t,
            embedding=z,
            critical=state.is_critical_now,
        ))
        prev_action = action
        state, _, _, _ = step(state, action)

    return Trajectory(
        episode_seed=state.episode_seed,
        driver=driver.tag,
        steps=tuple(steps),
        success=state.success,
        n_high=n_high,
        n_steps=len(steps),
    )


def rollout_lockstep(config: EnvConfig, pair: PolicyPair, members,
                     master_seed: int = 0, embed_dim: int = 64) -> list[Trajectory]:
    """Run ``(driver, episode_seed, sample_index)`` members in lockstep.

    Each distinct episode seed is reset once, so its members share one task
    instance and one low-policy table. Every live member has taken the same
    number of steps, so each round's router decisions go through each
    router as one stack. A member's sampling streams are keyed by its
    episode seed and sample index, never by its place in ``members``, so
    each trajectory is bitwise equal to the member's own ``rollout``.
    """
    starts: dict[int, EnvState] = {}
    episodes = []
    for driver, episode_seed, k in members:
        member_dim = embed_dim
        if isinstance(driver, RouterDriver):
            if driver.params.config.num_precisions != 2:
                raise ValueError("synthetic rollouts need a binary (K=2) router")
            member_dim = driver.params.config.embed_dim
        # A seed's members after the first start from their own copy of the
        # state, all holding the one task: a policy that tells decision steps
        # apart by the state object it is handed sees each member's.
        if episode_seed in starts:
            start = replace(starts[episode_seed])
        else:
            start = starts[episode_seed] = reset(config, episode_seed)
        episodes.append(_episode(pair, driver, start, master_seed, k, member_dim))
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
            probs, _ = forward_probs_batch([requests.pop(i) for i in live],
                                           members[live[0]][0].params)
            for row, i in enumerate(live):
                advance(i, probs[row])
    return trajectories


def rollout_group(config: EnvConfig, pair: PolicyPair, driver: Driver, episode_seed: int,
                  sample_indices, master_seed: int = 0, embed_dim: int = 64) -> list[Trajectory]:
    """Run one episode seed once per sample index, the members in lockstep:
    they share one task and differ only in their sampling streams."""
    return rollout_lockstep(config, pair, [(driver, episode_seed, k) for k in sample_indices],
                            master_seed=master_seed, embed_dim=embed_dim)


def rollout(config: EnvConfig, pair: PolicyPair, driver: Driver, episode_seed: int,
            master_seed: int = 0, sample_index: int = 0, embed_dim: int = 64) -> Trajectory:
    """Run one episode under a driver: the one-member ``rollout_lockstep``.

    fixed_low / fixed_high query a single policy; random(p) flips an
    independent coin per step; the router driver routes each step from the
    incrementally built StepSequence; klst_collect evaluates both policies,
    records D_t = KL(low || high) and executes the high-precision sample.
    """
    return rollout_lockstep(config, pair, [(driver, episode_seed, sample_index)],
                            master_seed=master_seed, embed_dim=embed_dim)[0]


# Episode seeds that run_drivers steps together. A larger chunk makes larger
# router stacks but holds more live episodes: on a 2-core VM a 200-seed,
# 8-spec sweep took 2.4 / 1.5 / 1.7 s at chunks of 4 / 16 / 64, peaking at
# 57 / 62 / 81 MB.
EPISODE_CHUNK = 16


def _chunk_job(args) -> list[list[Trajectory]]:
    config, pair, drivers, seeds, master_seed, embed_dim = args
    flat = rollout_lockstep(config, pair, [(d, s, 0) for s in seeds for d in drivers],
                            master_seed=master_seed, embed_dim=embed_dim)
    return [flat[j::len(drivers)] for j in range(len(drivers))]


def run_drivers(config: EnvConfig, pair: PolicyPair, drivers, episode_seeds,
                master_seed: int = 0, embed_dim: int = 64,
                workers: int = 1) -> list[list[Trajectory]]:
    """Every driver's episode on every seed: one column per driver, ordered
    by the given seeds.

    Seeds run in lockstep chunks of at most EPISODE_CHUNK, each seed reset
    once for all drivers. With ``workers`` > 1 the chunks are split across
    one process pool; each trajectory is the same as its own ``rollout``, so
    neither chunking nor parallelism changes the outcome.
    """
    drivers = list(drivers)
    seeds = [int(s) for s in episode_seeds]
    # Smaller chunks when there are too few seeds to give every worker one.
    per_worker = -(-len(seeds) // max(workers, 1))
    size = max(1, min(EPISODE_CHUNK, per_worker))
    jobs = [(config, pair, drivers, seeds[i:i + size], master_seed, embed_dim)
            for i in range(0, len(seeds), size)]
    if workers <= 1:
        chunks = [_chunk_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_job, jobs))
    return [[traj for chunk in chunks for traj in chunk[j]] for j in range(len(drivers))]


def run_episodes(config: EnvConfig, pair: PolicyPair, driver: Driver,
                 episode_seeds, master_seed: int = 0, embed_dim: int = 64,
                 workers: int = 1) -> list[Trajectory]:
    """Roll out many independent episodes: the one-driver ``run_drivers``."""
    return run_drivers(config, pair, [driver], episode_seeds, master_seed=master_seed,
                       embed_dim=embed_dim, workers=workers)[0]


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
            payload = json.loads(line)
            probs = payload["probs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponseError(f"unparseable response: {line[:200]!r}") from exc
        if not isinstance(probs, list) or len(probs) != n_actions:
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
