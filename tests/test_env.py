"""CriticalStepWorld semantics, policy-pair construction, embeddings,
rollout drivers and the remote-policy wire protocol."""

import contextlib
import dataclasses
import hashlib
import json
import socketserver
import threading
import warnings

import numpy as np
import pytest

from mixroute.env import (
    ActionSpace,
    EnvConfig,
    EnvConfigError,
    EnvProtocolError,
    EnvState,
    FixedHigh,
    FixedLow,
    KlstCollect,
    MalformedResponseError,
    PolicyPair,
    RandomDriver,
    RemoteTimeoutError,
    RouterDriver,
    UnnormalizedDistributionError,
    embed_step,
    kl_divergence,
    make_policy_pair,
    remote_policy,
    reset,
    rollout,
    rollout_lockstep,
    run_drivers,
    run_episodes,
    step,
)
from mixroute import env as env_module
from mixroute.router import RouterConfig, RouterParams

from helpers import (
    assert_same_trajectory,
    float_embed_step,
    record_low_solves,
    record_rng_keys,
)


@pytest.fixture(scope="module")
def world():
    return EnvConfig()


@pytest.fixture(scope="module")
def pair(world):
    return make_policy_pair(world)


def oracle_action(state) -> int:
    """Pick an always-advancing action (ground truth from the task spec)."""
    return min(state.task.advancing[state.t])


def test_reset_is_deterministic(world):
    a = reset(world, 17)
    b = reset(world, 17)
    assert a == b


def test_reset_varies_task_across_seeds(world):
    ids = {reset(world, s).task.task_id for s in range(12)}
    assert len(ids) >= 10  # 10k task ids, collisions are rare


def test_zero_horizon_rejected():
    with pytest.raises(EnvConfigError):
        EnvConfig(horizon=0)


def test_config_validation():
    with pytest.raises(EnvConfigError):
        EnvConfig(divergence_low=0.5, divergence_high=0.5)
    with pytest.raises(EnvConfigError):
        EnvConfig(critical_steps=frozenset({99}))
    with pytest.raises(EnvConfigError):
        ActionSpace(1)


def test_oracle_play_succeeds_at_goal_step(world):
    state = reset(world, 3)
    goal = state.task.goal_len
    for expected_t in range(1, world.horizon + 1):
        state, _, done, success = step(state, oracle_action(state))
        if done:
            break
    assert success and done
    assert state.progress == goal
    assert state.t - 1 == goal  # no wasted steps when playing the oracle


def test_wrong_action_at_critical_fails_at_horizon(world):
    state = reset(world, 3)
    first_critical = min(state.task.critical_steps)
    while state.t < first_critical:
        state, _, _, _ = step(state, oracle_action(state))
    poison = min(set(range(world.action_space.size)) - state.task.advancing[state.t])
    state, _, done, success = step(state, poison)
    assert not done  # poisoning is silent
    while not state.terminal:
        state, _, done, success = step(state, oracle_action(state))
    assert done and not success
    assert state.t - 1 == world.horizon  # ran to the horizon


def test_horizon_without_goal_fails(world):
    state = reset(world, 5)
    wasteful = None
    # step 1 is never critical: a non-advancing action is a harmless waste
    wasteful = min(set(range(world.action_space.size)) - state.task.advancing[1])
    state, _, done, success = step(state, wasteful)
    assert not done and not success
    while not state.terminal:
        act = min(set(range(world.action_space.size)) - state.task.advancing[state.t] or {0}) \
            if state.t not in state.task.critical_steps else oracle_action(state)
        state, _, done, success = step(state, act)
    assert done and not success


def test_step_on_terminal_raises(world):
    state = reset(world, 3)
    while not state.terminal:
        state, _, _, _ = step(state, oracle_action(state))
    with pytest.raises(EnvProtocolError):
        step(state, 0)


def test_a_stepped_state_is_the_state_its_fields_build(world):
    """step builds its state without the dataclass __init__; the state
    still equals and hashes as the one __init__ builds field by field, and
    stays a frozen dataclass."""
    state = reset(world, 3)
    history = []
    for k in range(5):
        state, obs, _, _ = step(state, k % world.action_space.size)
        history.append((k % world.action_space.size, tuple(obs)))
    built = EnvState(config=world, episode_seed=3, task=reset(world, 3).task, t=6,
                     progress=state.progress, poisoned=state.poisoned,
                     history=tuple(history), observation=history[-1][1])
    assert state == built
    assert hash(state) == hash(built)
    assert list(vars(state)) == [f.name for f in dataclasses.fields(EnvState)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 1
    moved = dataclasses.replace(state, t=2)
    assert (moved.t, moved.history, moved.observation) == (2, state.history, state.observation)


def _list_seeded_rng(*key):
    """An RNG stream seeded from the key's entries as a list of Python ints."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


@pytest.mark.parametrize("key", [(0,), (0, 0, 0, 0), (7, 1, 0, 3), (0, 3, 2**32 - 1, 0),
                                 (2**32, 1, 0, 0), (5, 0, 2**40)])
def test_rng_streams_equal_the_list_seeded_ones(key):
    assert np.array_equal(env_module._rng(*key).random(16), _list_seeded_rng(*key).random(16))


def test_a_negative_rng_key_fails_as_a_list_seeded_one_does():
    with pytest.raises(Exception) as expected:
        _list_seeded_rng(3, 1, -1, 0)
    with pytest.raises(expected.type):
        env_module._rng(3, 1, -1, 0)


def test_rollouts_under_seeds_beyond_32_bits_equal_list_seeded_ones(monkeypatch):
    """Task and sampling streams whose keys hold an entry >= 2**32 are the
    list-seeded ones."""
    cfg = EnvConfig(seed=2**40)
    pair = make_policy_pair(cfg)
    drivers = [FixedLow(), RandomDriver(0.5), KlstCollect(),
               RouterDriver(LOCKSTEP_ROUTER, mode="sampled")]
    got = run_drivers(cfg, pair, drivers, range(3), master_seed=2**33)
    monkeypatch.setattr(env_module, "_rng", _list_seeded_rng)
    want = run_drivers(cfg, make_policy_pair(cfg), drivers, range(3), master_seed=2**33)
    for a, b in zip(sum(got, []), sum(want, [])):
        assert_same_trajectory(a, b)


def test_policy_pair_degenerate_low_divergence():
    cfg = EnvConfig(divergence_low=0.0, divergence_high=1.0)
    pair = make_policy_pair(cfg)
    state = reset(cfg, 1)
    assert state.t not in state.task.critical_steps  # step 1 is never critical
    low = pair.low(state)
    high = pair.high(state)
    np.testing.assert_array_equal(low, high)
    assert kl_divergence(low, high) == 0.0


def test_policy_pair_hits_divergence_targets():
    cfg = EnvConfig(divergence_low=0.01, divergence_high=0.5)
    pair = make_policy_pair(cfg)
    seen_critical = 0
    for seed in range(30):
        state = reset(cfg, seed)
        while not state.terminal and state.t <= cfg.horizon:
            low = pair.low(state)
            high = pair.high(state)
            d = kl_divergence(low, high)
            if state.is_critical_now:
                assert d >= cfg.divergence_high
                seen_critical += 1
            else:
                assert d <= cfg.divergence_low
            state, _, _, _ = step(state, oracle_action(state))
    assert seen_critical >= 30


def test_policy_distributions_normalized(world, pair):
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(100):
        state = reset(world, seed)
        while not state.terminal:
            for policy in (pair.low, pair.high):
                dist = policy(state)
                assert abs(dist.sum() - 1.0) < 1e-9
                assert (dist >= 0).all()
                checked += 1
            state, _, _, _ = step(state, int(rng.integers(0, 6)))
    assert checked >= 1000


def test_high_policy_mass_on_correct_continuations(world, pair):
    for seed in range(20):
        state = reset(world, seed)
        while not state.terminal:
            dist = pair.high(state)
            adv = sorted(state.task.advancing[state.t])
            assert dist[adv].sum() >= 0.9
            state, _, _, _ = step(state, oracle_action(state))


# --- the low policy's per-task table against a scalar bisection ----------------

def solve_mixture(base, direction, target_kl, key):
    """Reference solver: one scalar 80-step bisection for one step; ``key``
    names the config key whose target the step takes."""
    if target_kl <= 0.0:
        return base.copy()
    reachable = kl_divergence(direction, base)
    if reachable < target_kl:
        raise EnvConfigError(
            f"divergence target {target_kl:.4g} unreachable (max {reachable:.4g}); "
            f"lower {key}"
        )
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mix = (1.0 - mid) * base + mid * direction
        if kl_divergence(mix, base) < target_kl:
            lo = mid
        else:
            hi = mid
    return (1.0 - hi) * base + hi * direction


def oracle_high(task, t):
    """Reference high policy, one step at a time."""
    dist = np.zeros(task.n_actions)
    on = sorted(task.advancing[t])
    dist[on] = task.concentration[t] / len(on)
    rest = [a for a in range(task.n_actions) if a not in task.advancing[t]]
    if rest:
        dist[rest] = (1.0 - task.concentration[t]) / len(rest)
    else:
        dist /= dist.sum()
    return dist


def oracle_low(task, t):
    n = task.n_actions
    if t in task.critical_steps:
        poison = sorted(set(range(n)) - task.advancing[t])
        direction = np.zeros(n)
        direction[poison] = 1.0 / len(poison)
        key = "divergence_high"
    else:
        direction = np.full(n, 1.0 / n)
        key = "divergence_low"
    return solve_mixture(oracle_high(task, t), direction, task.kl_targets[t], key)


def outcome(fn, *args):
    """The array a call returns, or the message of the EnvConfigError it raises."""
    try:
        return fn(*args)
    except EnvConfigError as exc:
        return str(exc)


ORACLE_WORLDS = {
    "default": EnvConfig(),
    "A2": EnvConfig(action_space=ActionSpace(2)),
    "A2-flat-low": EnvConfig(action_space=ActionSpace(2), divergence_low=0.0),
    "A9-h20": EnvConfig(action_space=ActionSpace(9), horizon=20, n_critical=4),
    "A17-h3": EnvConfig(action_space=ActionSpace(17), horizon=3, n_correct_paths=3),
    "A6-h1": EnvConfig(horizon=1),
    "explicit-critical": EnvConfig(critical_steps=frozenset({1, 5, 12}), seed=3),
    "flat-low": EnvConfig(divergence_low=0.0, divergence_high=0.4, horizon=8),
    "partly-unreachable": EnvConfig(divergence_high=4.0, horizon=16, n_critical=5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_WORLDS))
def test_low_table_matches_scalar_bisection(name):
    cfg = ORACLE_WORLDS[name]
    low = make_policy_pair(cfg).low
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(25):
            task = reset(cfg, seed).task
            # every row, including the two past the horizon no episode reaches
            for t in range(1, cfg.horizon + 3):
                expected = outcome(oracle_low, task, t)
                got = outcome(task.low_distribution, t)
                if isinstance(expected, str):
                    assert got == expected
                else:
                    np.testing.assert_array_equal(got, expected)
                    compared += 1
            state = reset(cfg, seed)
            while not state.terminal:
                np.testing.assert_array_equal(outcome(low, state),
                                              outcome(oracle_low, state.task, state.t))
                state, _, _, _ = step(state, oracle_action(state))
    assert compared > 0


@pytest.mark.parametrize("name", sorted(ORACLE_WORLDS))
def test_high_tables_match_the_step_by_step_reference(name):
    cfg = ORACLE_WORLDS[name]
    tasks = [reset(cfg, seed).task for seed in range(25)]
    together = env_module._high_tables(tasks)
    for task, table in zip(tasks, together):
        np.testing.assert_array_equal(table, env_module._high_tables([task])[0])
        for t in range(1, cfg.horizon + 3):
            np.testing.assert_array_equal(task.high_distribution(t), oracle_high(task, t))


@pytest.mark.parametrize("name", sorted(ORACLE_WORLDS))
def test_low_tables_solved_together_equal_each_solved_alone(name):
    tasks = [reset(ORACLE_WORLDS[name], seed).task for seed in range(25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = env_module._solve_low_tables(tasks)
        alone = [env_module._solve_low_tables([task])[0] for task in tasks]
    assert len(together) == len(tasks)
    for (table, unreachable), (own_table, own_unreachable) in zip(together, alone):
        np.testing.assert_array_equal(table, own_table)  # NaN rows included
        assert unreachable == own_unreachable


def test_low_tables_of_a_chunk_with_tasks_that_have_no_row_to_bisect(world):
    tasks = [reset(world, seed).task for seed in range(3)]
    n_rows = len(tasks[0].kl_targets)
    flat = dataclasses.replace(tasks[0], kl_targets=(0.0,) * n_rows)
    out_of_reach = dataclasses.replace(tasks[1], kl_targets=(0.0,) + (50.0,) * (n_rows - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = env_module._solve_low_tables([flat, out_of_reach, tasks[2]])
        nothing_to_bisect = env_module._solve_low_tables([flat, out_of_reach])
        bisected_alone = env_module._solve_low_tables([tasks[2]])
    table, unreachable = solved[0]
    assert np.isnan(table[0]).all() and unreachable == {}
    for t in range(1, n_rows):
        np.testing.assert_array_equal(table[t], flat.high_distribution(t))
    table, unreachable = solved[1]
    assert np.isnan(table).all() and sorted(unreachable) == list(range(1, n_rows))
    for t, message in unreachable.items():
        assert message == outcome(oracle_low, out_of_reach, t)
    for (table, unreachable), (other, other_unreachable) in zip(
            solved, nothing_to_bisect + bisected_alone):
        np.testing.assert_array_equal(table, other)
        assert unreachable == other_unreachable


def test_unreachable_divergence_target_rejected():
    cfg = EnvConfig(divergence_low=0.01, divergence_high=50.0)
    low = make_policy_pair(cfg).low
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(10):
            state = reset(cfg, seed)
            crit = min(state.task.critical_steps)
            while state.t < crit:
                low(state)  # the table is built here without raising
                state, _, _, _ = step(state, oracle_action(state))
            with pytest.raises(EnvConfigError) as err:
                low(state)
            assert str(err.value) == outcome(oracle_low, state.task, crit)


def test_unreachable_target_never_raises_when_not_queried():
    # The only critical step is the last one, which oracle play never reaches.
    cfg = EnvConfig(critical_steps=frozenset({12}), divergence_low=0.0,
                    divergence_high=50.0)
    low = make_policy_pair(cfg).low
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = reset(cfg, 0)
        while not state.terminal:
            low(state)
            state, _, _, _ = step(state, oracle_action(state))
        assert state.success and state.t <= 12
        with pytest.raises(EnvConfigError, match="unreachable"):
            state.task.low_distribution(12)


def test_target_at_the_reachable_maximum_solves_to_the_direction(world):
    # The bisection's midpoint rounds to 1.0, where the mixture has zero
    # entries: the table must neither warn nor part from the scalar solver.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(10):
            task = reset(world, seed).task
            crit = min(task.critical_steps)
            poison = sorted(set(range(task.n_actions)) - task.advancing[crit])
            direction = np.zeros(task.n_actions)
            direction[poison] = 1.0 / len(poison)
            targets = list(task.kl_targets)
            targets[crit] = kl_divergence(direction, task.high_distribution(crit))
            edge = dataclasses.replace(task, kl_targets=tuple(targets))
            got = edge.low_distribution(crit)
            np.testing.assert_array_equal(got, oracle_low(edge, crit))
            np.testing.assert_array_equal(got, direction)


def test_low_distribution_is_owned_by_the_caller(world, pair):
    state = reset(world, 3)
    first = pair.low(state)
    kept = first.copy()
    first[:] = 0.0
    np.testing.assert_array_equal(pair.low(state), kept)


def test_low_table_is_lazy_and_outside_task_equality(world, pair):
    a, b = reset(world, 5), reset(world, 5)
    pair.high(a)
    assert "_low_table" not in vars(a.task)  # high queries never solve it
    pair.low(a)
    assert "_low_table" in vars(a.task) and "_low_table" not in vars(b.task)
    assert a == b and hash(a.task) == hash(b.task)


def test_embed_step_deterministic():
    a = embed_step(("task", "t1"), 3, ("ok", "zone", "z5"), 32)
    b = embed_step(("task", "t1"), 3, ("ok", "zone", "z5"), 32)
    np.testing.assert_array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_embed_step_zero_guard():
    z = embed_step((), None, (), 16)
    np.testing.assert_array_equal(z, np.zeros(16))


def test_embed_step_matches_the_float_accumulation():
    rng = np.random.default_rng(4)
    vocabulary = [f"w{i}" for i in range(40)] + ["task", "ok", "zone", "note", ""]
    cases = [((), None, (), 16), ((), 2, (), 8), (("task",), None, ("task", "task"), 3)]
    for _ in range(400):
        words = rng.choice(vocabulary, size=int(rng.integers(0, 30))).tolist()
        cut = int(rng.integers(0, len(words) + 1))
        action = None if rng.random() < 0.2 else int(rng.integers(0, 12))
        dim = int(rng.choice([1, 2, 3, 5, 8, 64]))  # small dims collide on every call
        cases.append((tuple(words[:cut]), action, tuple(words[cut:]), dim))
    # two tokens of opposite sign in one bucket cancel to the zero vector
    signs = {env_module._token_hash(w) & 1: w for w in vocabulary}
    cases.append(((signs[0],), None, (signs[1],), 1))
    zeros = 0
    for task_tokens, action, obs, dim in cases:
        got = embed_step(task_tokens, action, obs, dim)
        want = float_embed_step(task_tokens, action, obs, dim)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        zeros += not want.any()
    assert zeros >= 2


def test_embed_step_collision_audit():
    rng = np.random.default_rng(9)
    collisions = 0
    n_pairs = 10_000
    for i in range(n_pairs):
        base = ("task", f"t{i % 97}")
        obs = ("ok", "zone", f"z{i % 19}", "note", f"n{i}")
        obs2 = ("ok", "zone", f"z{i % 19}", "note", f"n{i}x")
        a = embed_step(base, 1, obs, 64)
        b = embed_step(base, 1, obs2, 64)
        if np.array_equal(a, b):
            collisions += 1
    assert collisions / n_pairs < 0.01


def test_rollout_deterministic(world, pair):
    a = rollout(world, pair, FixedHigh(), 7, master_seed=3)
    b = rollout(world, pair, FixedHigh(), 7, master_seed=3)
    assert a == b


def test_fixed_boundary_random_drivers_match(world, pair):
    for seed in (0, 5, 11):
        low = rollout(world, pair, FixedLow(), seed, master_seed=2)
        r0 = rollout(world, pair, RandomDriver(0.0), seed, master_seed=2)
        assert [s.action for s in low.steps] == [s.action for s in r0.steps]
        assert low.success == r0.success and low.n_steps == r0.n_steps

        high = rollout(world, pair, FixedHigh(), seed, master_seed=2)
        r1 = rollout(world, pair, RandomDriver(1.0), seed, master_seed=2)
        assert [s.action for s in high.steps] == [s.action for s in r1.steps]
        assert high.success == r1.success and high.n_high == r1.n_high


def test_klst_collect_matches_fixed_high_trajectories(world, pair):
    for seed in range(10):
        high = rollout(world, pair, FixedHigh(), seed, master_seed=4)
        col = rollout(world, pair, KlstCollect(), seed, master_seed=4)
        assert [s.action for s in high.steps] == [s.action for s in col.steps]
        assert high.success == col.success
        assert all(s.d_t is not None for s in col.steps)
        assert col.n_high == col.n_steps


def _zeroing_pair(cfg, reuse_buffer=False):
    """The synthetic pair with some low-policy entries set to zero (the rest
    renormalised), recording each (low, high) pair it returns. With
    ``reuse_buffer`` the low policy writes every answer into one array."""
    synthetic = make_policy_pair(cfg)
    returned = []
    buffer = np.zeros(cfg.action_space.size)

    def low(state):
        dist = synthetic.low(state)
        drop = np.random.default_rng([state.task.task_id, state.t]).random(dist.size) < 0.4
        drop[np.argmax(dist)] = False
        dist[drop] = 0.0
        dist /= dist.sum()
        if reuse_buffer:
            buffer[:] = dist
            dist = buffer
        returned.append([dist.copy()])
        return dist

    def high(state):
        dist = synthetic.high(state)
        returned[-1].append(dist.copy())
        return dist

    return PolicyPair(high=high, low=low), returned


@pytest.mark.parametrize("n_actions", [6, 11])
@pytest.mark.parametrize("reuse_buffer", [False, True], ids=["fresh", "reused-buffer"])
def test_collection_d_t_is_the_per_step_kl_divergence(n_actions, reuse_buffer):
    cfg = EnvConfig(action_space=ActionSpace(n_actions), seed=n_actions)
    zero_pair, returned = _zeroing_pair(cfg, reuse_buffer)
    trajs = run_episodes(cfg, zero_pair, KlstCollect(), range(30), master_seed=1)
    d_ts = [s.d_t for traj in trajs for s in traj.steps]
    assert len(d_ts) == len(returned)
    expected = [kl_divergence(low, high) for low, high in returned]
    assert [type(d) for d in d_ts] == [float] * len(d_ts)
    assert d_ts == expected
    lows = np.array([low for low, _ in returned])
    assert (lows == 0.0).any(axis=1).mean() > 0.5
    if n_actions >= 9:
        # D_t sums each whole row, a zero term for each zero entry: from 8
        # actions on, numpy's pairwise sum of the live terms alone would
        # associate them otherwise and part from this in the last bits
        highs = np.array([high for _, high in returned])
        with np.errstate(divide="ignore", invalid="ignore"):
            zero_filled = np.where(lows > 0.0, lows * np.log(lows / highs), 0.0).sum(axis=1)
        assert d_ts == zero_filled.tolist()


def test_collection_refuses_policies_of_different_support_sizes(world, pair):
    short_low = PolicyPair(high=pair.high, low=lambda state: pair.low(state)[:-1])
    with pytest.raises(ValueError, match="support sizes differ: 5 vs 6"):
        rollout(world, short_low, KlstCollect(), 0)


def test_cost_accounting(world, pair):
    trajs = run_episodes(world, pair, RandomDriver(0.35), range(500), master_seed=6)
    s_total = sum(t.n_high for t in trajs)
    t_total = sum(t.n_steps for t in trajs)
    assert abs(s_total / t_total - 0.35) < 0.02
    for t in trajs:
        high_steps = sum(1 for s in t.steps if s.executed == 1)
        assert high_steps == t.n_high


def test_success_rates_and_gap(world, pair):
    high = run_episodes(world, pair, FixedHigh(), range(200), master_seed=0)
    low = run_episodes(world, pair, FixedLow(), range(200), master_seed=0)
    s_high = np.mean([t.success for t in high])
    s_low = np.mean([t.success for t in low])
    assert s_high >= 0.95
    assert s_high - s_low >= 0.15


def test_kl_values_cluster_by_criticality(world, pair):
    trajs = run_episodes(world, pair, KlstCollect(), range(60), master_seed=0)
    kept = [t for t in trajs if t.success]
    assert kept
    for t in kept:
        for s in t.steps:
            if s.critical:
                assert s.d_t >= 0.8 * world.divergence_high
            else:
                assert s.d_t < 1.5 * world.divergence_low


LOCKSTEP_ROUTER = RouterParams.initialize(RouterConfig(), seed=3)


@pytest.mark.parametrize("driver", [
    FixedLow(), FixedHigh(), RandomDriver(0.4), KlstCollect(),
    RouterDriver(LOCKSTEP_ROUTER, mode="greedy"), RouterDriver(LOCKSTEP_ROUTER, mode="sampled"),
], ids=["fixed_low", "fixed_high", "random", "klst_collect", "router_greedy", "router_sampled"])
def test_lockstep_group_matches_solo_rollouts(world, pair, driver):
    sample_indices = [5, 0, 3, 9, 1, 7]
    lengths = set()
    for episode_seed in range(4):
        group = rollout_lockstep(world, pair, [(driver, episode_seed, k) for k in sample_indices],
                                 master_seed=2)
        assert len(group) == len(sample_indices)
        for k, traj in zip(sample_indices, group):
            assert_same_trajectory(
                traj, rollout(world, pair, driver, episode_seed, master_seed=2, sample_index=k))
        lengths.add(tuple(t.n_steps for t in group))
    if not isinstance(driver, (FixedHigh, KlstCollect)):
        # members of one group leave the lockstep at different steps
        assert any(len(set(n)) > 1 for n in lengths)


def test_lockstep_mixed_members_match_solo_rollouts(world, pair, monkeypatch):
    """Members of every driver over several seeds and sample indices, two
    router parameter sets among them, each equal their own rollout; each
    round runs one router stack per parameter set."""
    other = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2, ffn_dim=32), seed=4)
    drivers = [FixedLow(), KlstCollect(embed_dim=32), RouterDriver(LOCKSTEP_ROUTER, mode="greedy"),
               RandomDriver(0.4), RouterDriver(other, mode="sampled"), FixedHigh(),
               RouterDriver(LOCKSTEP_ROUTER, mode="sampled")]
    members = [(d, s, k) for s in (3, 0, 11) for k in (0, 2) for d in drivers]
    stacks = []
    forward = env_module.forward_probs_batch
    monkeypatch.setattr(env_module, "forward_probs_batch",
                        lambda seqs, params: stacks.append((id(params), len(seqs)))
                        or forward(seqs, params))
    together = rollout_lockstep(world, pair, members, master_seed=2)
    # round 1: every router member decides, 12 on one parameter set and 6 on the other
    assert stacks[:2] == [(id(LOCKSTEP_ROUTER), 12), (id(other), 6)]
    for (driver, episode_seed, k), traj in zip(members, together):
        assert_same_trajectory(traj, rollout(world, pair, driver, episode_seed, master_seed=2,
                                             sample_index=k))


def test_only_a_sampled_router_builds_a_router_stream(world, pair, monkeypatch):
    """Greedy routing draws no random number, so it builds no router
    stream; a sampled router builds one per member."""
    streams = record_rng_keys(monkeypatch, env_module)
    members = [(RouterDriver(LOCKSTEP_ROUTER, mode=mode), s, k)
               for mode in ("greedy", "sampled") for s in (3, 0) for k in (0, 2)]
    rollout_lockstep(world, pair, members[:4], master_seed=2)
    assert [key for key in streams if key[1] == env_module.STREAM_ROUTER] == []
    rollout_lockstep(world, pair, members[4:], master_seed=2)
    assert [key for key in streams if key[1] == env_module.STREAM_ROUTER] == [
        (2, env_module.STREAM_ROUTER, s, k) for _, s, k in members[4:]]


def test_members_with_one_stream_key_share_one_stream(world, pair, monkeypatch):
    """The 7 drivers of a sweep on one seed and sample index build one
    policy stream, and its random drivers one driver stream; each
    trajectory is still its own rollout's."""
    keys = record_rng_keys(monkeypatch, env_module)
    drivers = [FixedLow(), FixedHigh(), *(RandomDriver(p) for p in (0.2, 0.4, 0.6, 0.8)),
               RouterDriver(LOCKSTEP_ROUTER, mode="greedy")]
    without_coins = [FixedLow(), FixedHigh(), RouterDriver(LOCKSTEP_ROUTER, mode="greedy")]
    members = [(d, s, k) for s in range(4) for k in (0, 1)
               for d in (drivers if s % 2 else without_coins)]
    together = rollout_lockstep(world, pair, members, master_seed=2)
    assert sorted(key for key in keys if key[1] == env_module.STREAM_POLICY) == [
        (2, env_module.STREAM_POLICY, s, k) for s in range(4) for k in (0, 1)]
    assert sorted(key for key in keys if key[1] == env_module.STREAM_DRIVER) == [
        (2, env_module.STREAM_DRIVER, s, k) for s in (1, 3) for k in (0, 1)]
    for (driver, episode_seed, k), traj in zip(members, together):
        assert_same_trajectory(traj, rollout(world, pair, driver, episode_seed, master_seed=2,
                                             sample_index=k))


def test_router_driver_refuses_an_unknown_mode_before_any_reset(world, pair, monkeypatch):
    resets = []
    monkeypatch.setattr(env_module, "reset",
                        lambda *args: resets.append(args) or reset(*args))
    with pytest.raises(ValueError, match="unknown routing mode 'greedyy'"):
        run_drivers(world, pair, [FixedLow(), RouterDriver(LOCKSTEP_ROUTER, mode="greedyy")],
                    range(3))
    assert resets == []
    run_drivers(world, pair, [FixedLow()], range(2))
    assert len(resets) == 2  # the recorder sees the resets a run makes


def test_router_driver_refuses_a_non_binary_router():
    three = RouterParams.initialize(RouterConfig(embed_dim=8, num_heads=2, ffn_dim=16,
                                                 num_precisions=3), seed=0)
    with pytest.raises(ValueError, match=r"binary \(K=2\) router"):
        RouterDriver(three)


@pytest.mark.parametrize("width", [0, -1])
def test_klst_collect_refuses_a_width_below_one(width):
    with pytest.raises(ValueError, match="embed_dim"):
        KlstCollect(width)


def test_each_member_embeds_at_its_drivers_width(world, pair):
    """One lockstep call: klst collection without a width records no
    embedding, one at 16 records 16-wide steps, beside a 64-wide router."""
    members = [(KlstCollect(None), 0, 0), (KlstCollect(16), 0, 0),
               (RouterDriver(LOCKSTEP_ROUTER, mode="greedy"), 0, 0)]
    unembedded, narrow, routed = rollout_lockstep(world, pair, members)
    assert [s.embedding for s in unembedded.steps] == [None] * unembedded.n_steps
    assert {s.embedding.shape for s in narrow.steps} == {(16,)}
    assert {s.embedding.shape for s in routed.steps} == {(LOCKSTEP_ROUTER.config.embed_dim,)}
    assert LOCKSTEP_ROUTER.config.embed_dim == 64
    assert [s.d_t for s in unembedded.steps] == [s.d_t for s in narrow.steps]
    for traj, dim in ((narrow, 16), (routed, 64)):
        state, prev = reset(world, 0), None
        for s in traj.steps:
            np.testing.assert_array_equal(
                s.embedding, embed_step(state.task_tokens, prev, state.observation, dim))
            state, prev = step(state, s.action)[0], s.action


def test_group_members_share_one_low_table(world, pair, monkeypatch):
    calls = record_low_solves(monkeypatch, env_module)
    seen = []
    recording = PolicyPair(high=pair.high, low=lambda state: seen.append(state) or pair.low(state))
    group = rollout_lockstep(world, recording, [(FixedLow(), 3, k) for k in range(8)])
    assert [len(tasks) for tasks in calls] == [1]
    # one state object per member and step, all holding the one task
    assert len({id(state) for state in seen}) == sum(t.n_steps for t in group)
    assert len({id(state.task) for state in seen}) == 1
    assert calls[0][0] is seen[0].task
    calls.clear()
    for k in range(8):
        rollout(world, pair, FixedLow(), 3, sample_index=k)
    assert [len(tasks) for tasks in calls] == [1] * 8


def test_lockstep_solves_low_tables_only_for_seeds_that_can_query_low(world, pair):
    tasks = {}

    def high(state):
        tasks[state.episode_seed] = state.task
        return pair.high(state)

    recording = PolicyPair(high=high, low=pair.low)
    rollout_lockstep(world, recording, [(FixedHigh(), 3, 0), (FixedHigh(), 3, 1),
                                        (FixedHigh(), 4, 0), (RandomDriver(1.0), 4, 1)])
    assert "_low_table" not in vars(tasks[3])
    # solved up front, though a coin of p = 1 never sends a step to the low policy
    assert "_low_table" in vars(tasks[4])


def test_lockstep_builds_the_synthetic_tables_only_for_the_synthetic_pair(world, pair,
                                                                          monkeypatch):
    """A pair of other policies gets no table up front; one that queries
    a task's low distribution still gets that task's table, built alone."""
    calls = record_low_solves(monkeypatch, env_module)
    members = [(d, s, 0) for s in range(3) for d in (FixedLow(), RandomDriver(0.5), KlstCollect())]
    tasks = []

    def uniform(state):
        tasks.append(state.task)
        return np.full(world.action_space.size, 1.0 / world.action_space.size)

    rollout_lockstep(world, PolicyPair(high=uniform, low=uniform), members)
    assert calls == []
    assert not any({"_high_table", "_low_table"} & set(vars(task)) for task in tasks)
    synthetic = rollout_lockstep(world, pair, members)
    assert [len(solved) for solved in calls] == [3]
    calls.clear()
    lazy = PolicyPair(high=lambda state: state.task.high_distribution(state.t),
                      low=lambda state: state.task.low_distribution(state.t))
    for a, b in zip(rollout_lockstep(world, lazy, members), synthetic):
        assert_same_trajectory(a, b)
    assert [len(solved) for solved in calls] == [1, 1, 1]


def test_run_drivers_never_raises_for_an_unreachable_row_no_member_queries(monkeypatch):
    cfg = EnvConfig(critical_steps=frozenset({12}), divergence_low=0.0, divergence_high=50.0)
    calls = record_low_solves(monkeypatch, env_module)
    fixed_high, all_high = run_drivers(cfg, make_policy_pair(cfg),
                                       [FixedHigh(), RandomDriver(1.0)], range(20))
    assert all(t.n_high == t.n_steps for t in fixed_high + all_high)
    solved = [task for tasks in calls for task in tasks]
    assert len(solved) == 20
    assert all(12 in task._low_table[1] for task in solved)


def test_process_pool_never_outgrows_its_chunks_or_cpus(world, pair, monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(env_module, "ProcessPoolExecutor", InProcessPool)
    serial = run_episodes(world, pair, FixedHigh(), range(20), workers=1)
    monkeypatch.setattr(env_module.os, "cpu_count", lambda: 4)
    assert run_episodes(world, pair, FixedHigh(), range(20), workers=5000) == serial
    monkeypatch.setattr(env_module.os, "cpu_count", lambda: 64)
    assert run_episodes(world, pair, FixedHigh(), range(3), workers=5000) == serial[:3]
    monkeypatch.setattr(env_module.os, "cpu_count", lambda: None)
    assert run_episodes(world, pair, FixedHigh(), range(20), workers=8) == serial
    assert sizes == [4, 3, 1]  # bounded by the CPUs, by the chunks, by an unknown CPU count


def test_parallel_rollouts_match_serial(world, pair):
    serial = run_episodes(world, pair, FixedHigh(), range(12), master_seed=5, workers=1)
    parallel = run_episodes(world, pair, FixedHigh(), range(12), master_seed=5, workers=2)
    assert serial == parallel


PINNED_WORLDS = [
    EnvConfig(),
    EnvConfig(action_space=ActionSpace(11), seed=1),
    EnvConfig(action_space=ActionSpace(9), horizon=20, n_critical=4, seed=2),
    EnvConfig(action_space=ActionSpace(3), divergence_low=0.02, seed=3),
]
PINNED_ROUTER = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2, ffn_dim=32),
                                        seed=5)
# sha256 of every trajectory field below: a change to any draw, D_t or
# embedding bit changes it, so an optimisation of the step loop must leave
# it as it is.
PINNED_TRAJECTORIES_SHA256 = "d3c8d1b806d2a1adefeb6773cf2d4a6ce19b3439b8f08c34d582a99e790971b3"


# sha256 of every field of _build_task's tasks for PINNED_WORLDS x seeds
# 0..199: the run_drivers digest sees only the steps some episode reaches,
# this one every step of every task.
PINNED_TASKS_SHA256 = "4dba0d3d79cbd1122aa22b6e0fc99389af4127a3fdc6f5fdb9871768df75373d"


def test_build_task_output_is_pinned():
    digest = hashlib.sha256()
    for cfg in PINNED_WORLDS:
        for seed in range(200):
            t = env_module._build_task(cfg, seed)
            # repr keeps the types; sets are sorted, so only their members count
            digest.update(repr((t.task_id, t.goal_len, t.n_actions, sorted(t.critical_steps),
                                [sorted(a) for a in t.advancing], t.zones, t.notes,
                                t.concentration, t.kl_targets)).encode())
    assert digest.hexdigest() == PINNED_TASKS_SHA256


def test_run_drivers_output_is_pinned():
    drivers = [FixedLow(), FixedHigh(), RandomDriver(0.4), KlstCollect(),
               RouterDriver(PINNED_ROUTER, mode="greedy"),
               RouterDriver(PINNED_ROUTER, mode="sampled")]
    digest = hashlib.sha256()
    for cfg in PINNED_WORLDS:
        columns = run_drivers(cfg, make_policy_pair(cfg), drivers, range(60), master_seed=7)
        for traj in (traj for column in columns for traj in column):
            # repr keeps the types: np.float64 or np.int64 would read differently
            digest.update(repr((traj.episode_seed, traj.driver, traj.success, traj.n_high,
                                traj.n_steps)).encode())
            for s in traj.steps:
                digest.update(repr((s.t, s.action, s.executed, s.route_choice, s.d_t,
                                    s.critical)).encode())
                if s.embedding is not None:
                    digest.update(repr((s.embedding.dtype.str, s.embedding.shape)).encode())
                    digest.update(s.embedding.tobytes())
    assert digest.hexdigest() == PINNED_TRAJECTORIES_SHA256


# --- remote-policy protocol ---------------------------------------------------

class _NdjsonHandler(socketserver.StreamRequestHandler):
    def handle(self):
        line = self.rfile.readline()
        if not line:
            return
        request = json.loads(line)
        n = request["action_space_size"]
        response = self.server.make_response(n)
        if response is None:
            import time

            time.sleep(2.0)  # hold the connection open past the client timeout
            return
        self.wfile.write(json.dumps(response).encode() + b"\n")


@contextlib.contextmanager
def _serve(make_response):
    """A policy server on a free local port, shut down and closed on exit."""
    with socketserver.ThreadingTCPServer(("127.0.0.1", 0), _NdjsonHandler) as server:
        server.make_response = make_response
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()


def test_remote_policy_uniform_echo(world):
    with _serve(lambda n: {"probs": [1.0 / n] * n}) as address:
        dist = remote_policy(address)(reset(world, 0))
    np.testing.assert_allclose(dist, np.full(6, 1 / 6))


def test_remote_policy_wrong_length(world):
    with _serve(lambda n: {"probs": [1.0 / (n - 1)] * (n - 1)}) as address:
        with pytest.raises(MalformedResponseError):
            remote_policy(address)(reset(world, 0))


@pytest.mark.parametrize("make_probs", [
    lambda n: [True] + [False] * (n - 1),
    lambda n: ["0.5", "0.5"] + ["0"] * (n - 2),
    lambda n: ["abc"] * n,
    lambda n: [[1.0 / n]] * n,
    lambda n: [10 ** 400] + [0] * (n - 1),
], ids=["bools", "numeric-strings", "non-numeric-strings", "one-element-lists",
        "int-beyond-float-range"])
def test_remote_policy_refuses_entries_that_are_not_numbers(world, make_probs):
    """Only JSON numbers a float can hold are probabilities: a reply of
    bools, of strings, of nested lists or of an integer beyond float range
    is malformed, however it would convert."""
    with _serve(lambda n: {"probs": make_probs(n)}) as address:
        with pytest.raises(MalformedResponseError):
            remote_policy(address)(reset(world, 0))


def test_remote_policy_bad_normalization(world):
    with _serve(lambda n: {"probs": [1.5 / n] * n}) as address:
        with pytest.raises(UnnormalizedDistributionError):
            remote_policy(address)(reset(world, 0))


def test_remote_policy_timeout(world):
    with _serve(lambda n: None) as address:  # never answers
        with pytest.raises(RemoteTimeoutError):
            remote_policy(address, timeout=0.2)(reset(world, 0))


def test_remote_policy_address_parsing():
    with pytest.raises(ValueError):
        remote_policy("no-port-here")
