"""CriticalStepWorld semantics, policy-pair construction, embeddings,
rollout drivers and the remote-policy wire protocol."""

import contextlib
import dataclasses
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
    rollout_group,
    rollout_lockstep,
    run_episodes,
    step,
)
from mixroute import env as env_module
from mixroute.router import RouterConfig, RouterParams


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

def solve_mixture(base, direction, target_kl):
    """Reference solver: one scalar 80-step bisection for one step."""
    if target_kl <= 0.0:
        return base.copy()
    reachable = kl_divergence(direction, base)
    if reachable < target_kl:
        raise EnvConfigError(
            f"divergence target {target_kl:.4g} unreachable (max {reachable:.4g}); "
            "lower divergence_high or flatten the high policy"
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


def oracle_low(task, t):
    n = task.n_actions
    if t in task.critical_steps:
        poison = sorted(set(range(n)) - task.advancing[t])
        direction = np.zeros(n)
        direction[poison] = 1.0 / len(poison)
    else:
        direction = np.full(n, 1.0 / n)
    return solve_mixture(task.high_distribution(t), direction, task.kl_targets[t])


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
        assert [s.observation for s in high.steps] == [s.observation for s in col.steps]
        assert high.success == col.success
        assert all(s.d_t is not None for s in col.steps)
        assert col.n_high == col.n_steps


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


def assert_same_trajectory(a, b):
    """Field by field; embeddings bitwise."""
    assert (a.episode_seed, a.driver, a.success, a.n_high, a.n_steps) == \
        (b.episode_seed, b.driver, b.success, b.n_high, b.n_steps)
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if f.name == "embedding" and u is not None:
                assert np.array_equal(u, v)
            else:
                assert u == v, f.name


LOCKSTEP_ROUTER = RouterParams.initialize(RouterConfig(), seed=3)


@pytest.mark.parametrize("driver", [
    FixedLow(), FixedHigh(), RandomDriver(0.4), KlstCollect(),
    RouterDriver(LOCKSTEP_ROUTER, mode="greedy"), RouterDriver(LOCKSTEP_ROUTER, mode="sampled"),
], ids=["fixed_low", "fixed_high", "random", "klst_collect", "router_greedy", "router_sampled"])
def test_lockstep_group_matches_solo_rollouts(world, pair, driver):
    sample_indices = [5, 0, 3, 9, 1, 7]
    lengths = set()
    for episode_seed in range(4):
        group = rollout_group(world, pair, driver, episode_seed, sample_indices, master_seed=2)
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
    drivers = [FixedLow(), KlstCollect(), RouterDriver(LOCKSTEP_ROUTER, mode="greedy"),
               RandomDriver(0.4), RouterDriver(other, mode="sampled"), FixedHigh(),
               RouterDriver(LOCKSTEP_ROUTER, mode="sampled")]
    members = [(d, s, k) for s in (3, 0, 11) for k in (0, 2) for d in drivers]
    stacks = []
    forward = env_module.forward_probs_batch
    monkeypatch.setattr(env_module, "forward_probs_batch",
                        lambda seqs, params: stacks.append((id(params), len(seqs)))
                        or forward(seqs, params))
    together = rollout_lockstep(world, pair, members, master_seed=2, embed_dim=32)
    # round 1: every router member decides, 12 on one parameter set and 6 on the other
    assert stacks[:2] == [(id(LOCKSTEP_ROUTER), 12), (id(other), 6)]
    for (driver, episode_seed, k), traj in zip(members, together):
        assert_same_trajectory(traj, rollout(world, pair, driver, episode_seed, master_seed=2,
                                             sample_index=k, embed_dim=32))


def test_group_members_share_one_low_table(world, pair, monkeypatch):
    solved = []
    solve = env_module._solve_low_table
    monkeypatch.setattr(env_module, "_solve_low_table",
                        lambda task: solved.append(task) or solve(task))
    seen = []
    recording = PolicyPair(high=pair.high, low=lambda state: seen.append(state) or pair.low(state))
    group = rollout_group(world, recording, FixedLow(), 3, range(8))
    assert len(solved) == 1
    # one state object per member and step, all holding the one task
    assert len({id(state) for state in seen}) == sum(t.n_steps for t in group)
    assert len({id(state.task) for state in seen}) == 1
    solved.clear()
    for k in range(8):
        rollout(world, pair, FixedLow(), 3, sample_index=k)
    assert len(solved) == 8


def test_parallel_rollouts_match_serial(world, pair):
    serial = run_episodes(world, pair, FixedHigh(), range(12), master_seed=5, workers=1)
    parallel = run_episodes(world, pair, FixedHigh(), range(12), master_seed=5, workers=2)
    assert serial == parallel


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
