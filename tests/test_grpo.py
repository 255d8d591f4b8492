"""Returns, group-relative advantages, KL anchoring and the GRPO update."""

import math

import numpy as np
import pytest

from mixroute import env as env_module
from mixroute import grpo as grpo_module
from mixroute.env import (
    EnvConfig,
    RouterDriver,
    TrajStep,
    Trajectory,
    make_policy_pair,
    reset,
    rollout,
    rollout_lockstep,
)
from mixroute.grpo import (
    AnchorSnapshot,
    GRPOConfig,
    RewardConfig,
    TrajectoryDataError,
    TrajectoryGroup,
    group_advantages,
    grpo_loss_and_grads,
    grpo_update,
    train_grpo,
    trajectory_return,
)
from mixroute.router import RouterConfig, RouterParams, StepSequence

from helpers import (
    assert_same_trajectory,
    max_relative_error,
    record_low_solves,
    record_router_passes,
)

TINY = RouterConfig(embed_dim=4, num_layers=2, num_heads=2, ffn_dim=8, max_len=4)


def make_traj(embeddings, choices, success, seed=0):
    steps = tuple(
        TrajStep(t=i + 1, action=0, executed=c,
                 route_choice=c, d_t=None, embedding=np.asarray(e, dtype=float),
                 critical=False)
        for i, (e, c) in enumerate(zip(embeddings, choices))
    )
    return Trajectory(episode_seed=seed, driver="router", steps=steps,
                      success=success, n_high=sum(choices), n_steps=len(steps))


def test_trajectory_return_arithmetic():
    cfg = RewardConfig(lambda_high=0.02, lambda_step=0.005)
    traj = make_traj(np.zeros((10, 4)), [1, 1, 1] + [0] * 7, success=True)
    np.testing.assert_allclose(trajectory_return(traj, cfg), 0.89, atol=1e-12)

    cfg0 = RewardConfig(lambda_high=0.02, lambda_step=0.0)
    fail = make_traj(np.zeros((4, 4)), [0, 0, 0, 0], success=False)
    assert trajectory_return(fail, cfg0) == 0.0

    all_high = make_traj(np.zeros((10, 4)), [1] * 10, success=True)
    np.testing.assert_allclose(trajectory_return(all_high, cfg0), 0.8, atol=1e-12)


def test_trajectory_return_monotone_in_costs():
    cfg = RewardConfig(lambda_high=0.05, lambda_step=0.01)
    base = trajectory_return(make_traj(np.zeros((6, 4)), [1, 0, 0, 0, 0, 0], True), cfg)
    more_high = trajectory_return(make_traj(np.zeros((6, 4)), [1, 1, 0, 0, 0, 0], True), cfg)
    longer = trajectory_return(make_traj(np.zeros((8, 4)), [1] + [0] * 7, True), cfg)
    assert more_high < base
    assert longer < base


def test_group_advantages_closed_form():
    adv = group_advantages([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(adv, [1.0, -1.0, -1.0, 1.0], atol=1e-7)


def test_group_advantages_degenerate():
    np.testing.assert_array_equal(group_advantages([0.3, 0.3, 0.3]), np.zeros(3))
    np.testing.assert_array_equal(group_advantages([5.0]), np.zeros(1))
    with pytest.raises(ValueError):
        group_advantages([])


def test_group_advantages_mean_and_std():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 17))
        returns = rng.uniform(size=k)
        if returns.std() < 0.01:
            returns[0] += 0.5
        adv = group_advantages(returns, 1e-8)
        assert abs(adv.mean()) <= 1e-9
        assert abs(adv.std() - 1.0) <= 1e-6


def _head_only_params(bias):
    params = RouterParams.initialize(TINY, seed=0)
    params.by_name["head_weight"].value[:] = 0.0
    params.by_name["head_bias"].value[:] = bias
    return params


def _kl_penalty(params, anchor, trajectories):
    group = TrajectoryGroup(trajectories, np.zeros(len(trajectories)),
                            np.zeros(len(trajectories)))
    loss = grpo_loss_and_grads([group], params, anchor, GRPOConfig())
    params.zero_grads()
    return loss.kl_penalty


def test_routing_kl_penalty_zero_at_anchor():
    params = RouterParams.initialize(TINY, seed=1)
    anchor = AnchorSnapshot(params)
    emb = np.random.default_rng(0).normal(size=(2, 4))
    assert _kl_penalty(params, anchor, [make_traj(emb, [0, 1], True)]) == 0.0


def test_routing_kl_penalty_closed_form():
    params = _head_only_params([0.0, 0.0])                      # [0.5, 0.5]
    anchor = AnchorSnapshot(_head_only_params([math.log(0.9), math.log(0.1)]))
    traj = make_traj(np.ones((1, 4)), [1], True)
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    np.testing.assert_allclose(_kl_penalty(params, anchor, [traj]), expected, atol=1e-12)


def test_routing_kl_penalty_requires_states():
    params = RouterParams.initialize(TINY, seed=0)
    with pytest.raises(ValueError):
        grpo_loss_and_grads([], params, AnchorSnapshot(params), GRPOConfig())


def _fixture(seed=0, n_groups=2, traj_per_group=2, max_steps=3):
    rng = np.random.default_rng(seed)
    groups = []
    reward = RewardConfig()
    for g in range(n_groups):
        trajs = []
        for i in range(traj_per_group):
            t = int(rng.integers(1, max_steps + 1))
            embs = rng.normal(size=(t, 4))
            choices = [int(c) for c in rng.integers(0, 2, size=t)]
            trajs.append(make_traj(embs, choices, bool(rng.random() < 0.5), seed=g))
        groups.append(TrajectoryGroup.build(trajs, reward))
    return groups


def test_grpo_loss_matches_scalar_oracle():
    """beta = 0: loss must equal -mean(A * sum_t log pi) recomputed naively."""
    params = RouterParams.initialize(TINY, seed=2)
    anchor = AnchorSnapshot(params)
    groups = _fixture(seed=3)
    cfg = GRPOConfig(beta=0.0, learning_rate=1e-6)
    loss = grpo_loss_and_grads(groups, params, anchor, cfg)

    from mixroute.router import forward_probs, truncate_sequence

    total = 0.0
    n = 0
    for group in groups:
        for traj, adv in zip(group.trajectories, group.advantages):
            emb = np.asarray([s.embedding for s in traj.steps])
            lp = 0.0
            for i, s in enumerate(traj.steps):
                seq = truncate_sequence(StepSequence.of(emb[:i + 1]), TINY.max_len)
                probs, _ = forward_probs(seq, params)
                lp += math.log(probs[s.route_choice])
            total += -float(adv) * lp
            n += 1
    np.testing.assert_allclose(loss.policy_term, total / n, atol=1e-9)
    assert loss.kl_penalty == 0.0


def test_grpo_stacked_states_match_per_state_passes():
    """Stacking states by length changes no loss bit and the gradient only by
    summation order, against one forward/backward per decision state."""
    from mixroute.nn import PROB_FLOOR
    from mixroute.router import forward_probs, truncate_sequence

    params = RouterParams.initialize(TINY, seed=6)
    anchor = AnchorSnapshot(RouterParams.initialize(TINY, seed=7))
    groups = _fixture(seed=8, n_groups=3, traj_per_group=4, max_steps=6)
    cfg = GRPOConfig(beta=0.05, learning_rate=1e-6)
    loss = grpo_loss_and_grads(groups, params, anchor, cfg)
    stacked = [t.grad.copy() for _, t in params.tensors()]

    params.zero_grads()
    trajs = [(traj, float(adv)) for g in groups
             for traj, adv in zip(g.trajectories, g.advantages)]
    n_states = sum(traj.n_steps for traj, _ in trajs)
    policy = kl = 0.0
    for traj, adv in trajs:
        emb = np.asarray([s.embedding for s in traj.steps])
        lp = 0.0
        for i, s in enumerate(traj.steps):
            seq = truncate_sequence(StepSequence.of(emb[:i + 1]), TINY.max_len)
            probs, backward = forward_probs(seq, params)
            pf = np.maximum(probs, PROB_FLOOR)
            qf = np.maximum(forward_probs(seq, anchor.params)[0], PROB_FLOOR)
            lp += math.log(pf[s.route_choice])
            dprobs = np.zeros_like(probs)
            dprobs[s.route_choice] = -adv / (len(trajs) * probs[s.route_choice])
            kl += float(np.sum(probs * np.log(pf / qf))) / n_states
            dprobs += cfg.beta * (np.log(pf / qf) + 1.0) / n_states
            backward(dprobs)
        policy += -adv * lp / len(trajs)

    assert (loss.policy_term, loss.kl_penalty) == (policy, kl)
    assert type(loss.policy_term) is float and type(loss.kl_penalty) is float
    for (name, t), expected in zip(params.tensors(), stacked):
        np.testing.assert_allclose(expected, t.grad, rtol=1e-10, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("max_len", [16, 4])
def test_decision_sequences_are_the_routed_sequences(max_len):
    """GRPO re-scores each step on the sequence the rollout routed it on: a
    greedy rollout's choice is the argmax over ``_decision_sequences``, with
    a max_len beyond the horizon of 12 and one that truncates. The
    sequences are whole prefixes; the router truncates them itself."""
    from mixroute.router import forward_probs

    env = EnvConfig()
    params = RouterParams.initialize(
        RouterConfig(embed_dim=8, num_heads=2, ffn_dim=16, max_len=max_len), seed=1)
    pair = make_policy_pair(env)
    choices = set()
    for seed in range(6):
        traj = rollout(env, pair, RouterDriver(params, mode="greedy"), seed)
        decisions = grpo_module._decision_sequences(traj)
        assert len(decisions) == traj.n_steps
        for i, ((seq, choice), s) in enumerate(zip(decisions, traj.steps)):
            assert seq.length == i + 1
            np.testing.assert_array_equal(seq.embeddings[-1], s.embedding)
            assert choice == s.route_choice == int(np.argmax(forward_probs(seq, params)[0]))
            choices.add(choice)
    assert choices == {0, 1}  # both precisions are chosen, so the argmax is tested


def test_grpo_full_loss_gradient_matches_finite_differences():
    """Frozen mini-fixture: 2 groups x 2 trajectories x <= 3 steps."""
    params = RouterParams.initialize(TINY, seed=4)
    anchor = AnchorSnapshot(RouterParams.initialize(TINY, seed=9))
    groups = _fixture(seed=5)
    cfg = GRPOConfig(beta=0.02, learning_rate=1e-6)

    grpo_loss_and_grads(groups, params, anchor, cfg)
    analytic = {name: t.grad.copy() for name, t in params.tensors()}

    h = 1e-4
    worst = 0.0
    for name, tensor in params.tensors():
        for ij in [tuple(x) for x in np.ndindex(*tensor.value.shape)]:
            old = tensor.value[ij]
            tensor.value[ij] = old + h
            up = grpo_loss_and_grads(groups, params, anchor, cfg).total
            tensor.value[ij] = old - h
            down = grpo_loss_and_grads(groups, params, anchor, cfg).total
            tensor.value[ij] = old
            fd = (up - down) / (2 * h)
            worst = max(worst, max_relative_error(analytic[name][ij], fd))
    params.zero_grads()
    assert worst < 1e-3


def test_grpo_update_zero_advantages_is_a_fixed_point():
    params = RouterParams.initialize(TINY, seed=6)
    anchor = AnchorSnapshot(params)  # identical to current params
    trajs = [make_traj(np.ones((2, 4)), [0, 1], True),
             make_traj(np.ones((2, 4)), [1, 0], True)]
    group = TrajectoryGroup(trajs, np.array([0.5, 0.5]), np.zeros(2))
    before = {n: t.value.copy() for n, t in params.tensors()}
    loss = grpo_update([group], params, anchor, GRPOConfig(learning_rate=1e-3))
    assert loss.policy_term == 0.0
    assert abs(loss.kl_penalty) < 1e-15
    for name, tensor in params.tensors():
        np.testing.assert_array_equal(tensor.value, before[name])


def test_grpo_update_directional():
    """The A=+1 decision gets more probable after one update."""
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(2, 4))
    params = RouterParams.initialize(TINY, seed=8)
    anchor = AnchorSnapshot(params)
    plus = make_traj(emb, [1, 1], True)
    minus = make_traj(emb, [0, 0], False)
    group = TrajectoryGroup(
        [plus, minus], np.array([1.0, -1.0]), np.array([1.0, -1.0])
    )
    from mixroute.router import forward_probs

    seq = StepSequence.of(emb)
    p_before, _ = forward_probs(seq, params)
    grpo_update([group], params, anchor, GRPOConfig(beta=0.0, learning_rate=1e-3))
    p_after, _ = forward_probs(seq, params)
    assert p_after[1] > p_before[1]


def test_grpo_anchor_immutable():
    env = EnvConfig()
    pair = make_policy_pair(env)
    init = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2,
                                                ffn_dim=32, max_len=16), seed=0)
    frozen = {n: t.value.copy() for n, t in init.tensors()}
    result = train_grpo(env, pair, init,
                        GRPOConfig(group_size=4, episode_budget=8,
                                   learning_rate=1e-4, seed=0),
                        RewardConfig())
    for name, tensor in init.tensors():
        np.testing.assert_array_equal(tensor.value, frozen[name])
    assert len(result.curve) == 2
    assert result.episodes_used == 8


def test_grpo_large_beta_constrains_movement():
    """beta -> infinity proxied at 1e3 keeps parameters near the anchor.

    Adam normalizes per-coordinate step sizes, so a single update has the
    same L2 norm for any nonzero gradient (and at the anchor the KL gradient
    is exactly zero); the anchoring shows up over a short update sequence,
    where the huge KL term keeps pulling the parameters back.
    """
    groups = _fixture(seed=10)
    deltas = {}
    for beta in (0.0, 1e3):
        params = RouterParams.initialize(TINY, seed=11)
        anchor = AnchorSnapshot(RouterParams.initialize(TINY, seed=11))
        before = np.concatenate([t.value.ravel().copy()
                                 for _, t in params.tensors()])
        cfg = GRPOConfig(beta=beta, learning_rate=1e-3)
        for _ in range(5):
            grpo_update(groups, params, anchor, cfg)
        after = np.concatenate([t.value.ravel() for _, t in params.tensors()])
        deltas[beta] = float(np.linalg.norm(after - before))
    assert deltas[1e3] < deltas[0.0]


def test_grpo_missing_snapshots_rejected():
    params = RouterParams.initialize(TINY, seed=0)
    anchor = AnchorSnapshot(params)
    bare = Trajectory(
        episode_seed=0, driver="fixed_high",
        steps=(TrajStep(1, 0, 1, None, None, None, False),),
        success=True, n_high=1, n_steps=1,
    )
    group = TrajectoryGroup([bare], np.array([1.0]), np.array([0.0]))
    with pytest.raises(TrajectoryDataError):
        grpo_update([group], params, anchor, GRPOConfig())


def test_train_grpo_budget_validation():
    env = EnvConfig()
    pair = make_policy_pair(env)
    params = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2,
                                                  ffn_dim=32, max_len=16), seed=0)
    with pytest.raises(ValueError):
        train_grpo(env, pair, params, GRPOConfig(group_size=8, episode_budget=4))


def test_train_grpo_deterministic():
    env = EnvConfig()
    pair = make_policy_pair(env)
    init = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2,
                                                ffn_dim=32, max_len=16), seed=1)
    cfg = GRPOConfig(group_size=4, episode_budget=8, learning_rate=1e-4, seed=5)
    a = train_grpo(env, pair, init, cfg, RewardConfig())
    b = train_grpo(env, pair, init, cfg, RewardConfig())
    assert [m.__dict__ for m in a.curve] == [m.__dict__ for m in b.curve]
    for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
        assert (ta.value == tb.value).all()


def test_train_grpo_lockstep_matches_solo_rollouts(monkeypatch):
    """Every group train_grpo rolls out in lockstep, its passes recorded,
    holds the trajectories of its members rolled out one at a time. With
    ``test_train_grpo_matches_a_recomputing_reference`` this gives the
    curve and parameters of groups rolled out solo."""
    env = EnvConfig()
    pair = make_policy_pair(env)
    init = RouterParams.initialize(RouterConfig(), seed=2)
    cfg = GRPOConfig(group_size=8, episode_budget=32, learning_rate=1e-3, seed=4)
    checked = []

    def lockstep_and_solo(config, pair, members, master_seed, passes):
        together = rollout_lockstep(config, pair, members, master_seed=master_seed,
                                    passes=passes)
        for (driver, episode_seed, k), traj in zip(members, together, strict=True):
            assert_same_trajectory(traj, rollout(config, pair, driver, episode_seed,
                                                 master_seed=master_seed, sample_index=k))
        checked.append(len(together))
        return together

    monkeypatch.setattr(grpo_module, "rollout_lockstep", lockstep_and_solo)
    train_grpo(env, pair, init, cfg, RewardConfig(), episode_seed_start=50)
    assert checked == [8] * 4


def _recomputing_train_grpo(env, pair, init, cfg, reward, episode_seed_start):
    """train_grpo's loop with the rollout's passes dropped: each group's
    update runs its own forward per round."""
    params = init.copy()
    anchor = AnchorSnapshot(init)
    curve = []
    for g in range(cfg.episode_budget // cfg.group_size):
        driver = RouterDriver(params, mode="sampled")
        trajectories = rollout_lockstep(
            env, pair, [(driver, episode_seed_start + g, k) for k in range(cfg.group_size)],
            master_seed=cfg.seed)
        group = TrajectoryGroup.build(trajectories, reward, cfg.epsilon)
        loss = grpo_update([group], params, anchor, cfg)
        curve.append({
            "group_index": g,
            "mean_return": float(group.returns.mean()),
            "success_rate": float(np.mean([t.success for t in trajectories])),
            "mean_high_ratio": (sum(t.n_high for t in trajectories)
                                / max(sum(t.n_steps for t in trajectories), 1)),
            "policy_loss": loss.policy_term,
            "kl_penalty": loss.kl_penalty,
        })
    return curve, params


@pytest.mark.parametrize("max_len", [16, 4, 1])
def test_train_grpo_matches_a_recomputing_reference(max_len):
    """Backpropagating through the rollout's passes gives the curve and
    parameters, bitwise, of updates that recompute each round's forward,
    whether or not ``max_len`` truncates the horizon of 12."""
    env = EnvConfig()
    pair = make_policy_pair(env)
    init = RouterParams.initialize(RouterConfig(max_len=max_len), seed=2)
    cfg = GRPOConfig(group_size=8, episode_budget=32, learning_rate=1e-4, seed=4)
    result = train_grpo(env, pair, init, cfg, RewardConfig(), episode_seed_start=50)
    curve, params = _recomputing_train_grpo(env, pair, init, cfg, RewardConfig(), 50)
    assert [m.__dict__ for m in result.curve] == curve
    for (name, a), (_, b) in zip(result.params.tensors(), params.tensors()):
        assert np.array_equal(a.value, b.value), name


def test_train_grpo_runs_one_current_forward_per_round(monkeypatch):
    """Per group, the current parameters get one forward per rollout round,
    each backpropagated once, then the anchor gets one forward per round
    over the same members; no other router pass runs."""
    env = EnvConfig()
    pair = make_policy_pair(env)
    init = RouterParams.initialize(RouterConfig(), seed=2)
    cfg = GRPOConfig(group_size=8, episode_budget=24, learning_rate=1e-3, seed=4)
    groups = []
    rollout_group = grpo_module.rollout_lockstep
    monkeypatch.setattr(grpo_module, "rollout_lockstep", lambda *args, **kw: (
        groups.append(rollout_group(*args, **kw)) or groups[-1]))
    passes = record_router_passes(monkeypatch, env_module, grpo_module)
    result = train_grpo(env, pair, init, cfg, RewardConfig(), episode_seed_start=50)

    assert len(groups) == 3
    current = [p for p in passes if p.backwards]
    anchors = [p for p in passes if not p.backwards]
    assert {id(p.params) for p in current} == {id(result.params)}
    assert len({id(p.params) for p in anchors}) == 1
    assert anchors[0].params is not result.params
    expected = []
    shrinks = False
    for trajectories in groups:
        live = [sum(t.n_steps > r for t in trajectories)
                for r in range(max(t.n_steps for t in trajectories))]
        shrinks |= len(set(live)) > 1  # members leave the lockstep at different rounds
        expected += [(n, id(result.params), 1) for n in live]
        expected += [(n, id(anchors[0].params), 0) for n in live]
    assert shrinks
    assert [(p.sequences, id(p.params), p.backwards) for p in passes] == expected


def _drop_last_pass(recorded):
    return recorded[:-1]


def _name_a_ninth_member(recorded):
    live, probs, backward = recorded[0]
    return [([*live[:-1], 8], probs, backward), *recorded[1:]]


def _lose_a_row(recorded):
    live, probs, backward = recorded[0]
    return [(live, probs[:-1], backward), *recorded[1:]]


def _swap_two_rounds(recorded):
    """The first two adjacent passes of different sizes, swapped: every
    member still appears in as many passes as it has decisions."""
    r = next(r for r in range(len(recorded) - 1)
             if len(recorded[r][0]) != len(recorded[r + 1][0]))
    return [*recorded[:r], recorded[r + 1], recorded[r], *recorded[r + 2:]]


@pytest.mark.parametrize("edit", [_drop_last_pass, _name_a_ninth_member, _lose_a_row,
                                  _swap_two_rounds],
                         ids=["dropped-pass", "unknown-member", "missing-row",
                              "out-of-round-order"])
def test_recorded_passes_that_do_not_match_are_refused(edit):
    env = EnvConfig()
    pair = make_policy_pair(env)
    params = RouterParams.initialize(RouterConfig(embed_dim=16, num_heads=2, ffn_dim=32),
                                     seed=3)
    driver = RouterDriver(params, mode="sampled")
    recorded = []
    trajectories = rollout_lockstep(env, pair, [(driver, 7, k) for k in range(8)],
                                    passes=recorded)
    group = TrajectoryGroup.build(trajectories, RewardConfig())
    before = {name: t.value.copy() for name, t in params.tensors()}
    with pytest.raises(TrajectoryDataError):
        grpo_update([group], params, AnchorSnapshot(params), GRPOConfig(),
                    passes=edit(recorded))
    for name, tensor in params.tensors():
        assert np.array_equal(tensor.value, before[name]), name
    grpo_update([group], params, AnchorSnapshot(params), GRPOConfig(), passes=recorded)


def test_train_grpo_solves_each_group_task_once(monkeypatch):
    env = EnvConfig()
    pair = make_policy_pair(env)
    calls = record_low_solves(monkeypatch, env_module)
    init = RouterParams.initialize(RouterConfig(), seed=2)
    train_grpo(env, pair, init, GRPOConfig(group_size=8, episode_budget=24, seed=1))
    assert [[task.task_id for task in tasks] for tasks in calls] == [
        [reset(env, seed).task.task_id] for seed in range(3)]
