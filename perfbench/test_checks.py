"""The benchmark's checks accept the program's real outputs and reject each
kind of deliberately wrong output, so none of them passes regardless.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from mixroute.env import PolicyPair, RouterDriver, SyntheticPolicy, make_policy_pair, rollout
from mixroute.evaluation import EpisodeRow, sweep
from mixroute.grpo import AnchorSnapshot, GRPOConfig, TrajectoryGroup
from mixroute.klst import LabelingConfig, build_supervision_dataset, collect
from mixroute.router import RouterParams

import checks
import workloads
from timing import Stages
from workloads import REWARD, ROUTER, WORLD


@pytest.fixture(scope="module")
def pair():
    return make_policy_pair(WORLD)


@pytest.fixture(scope="module")
def collected(pair):
    trajectories, _ = collect(WORLD, pair, 4, master_seed=0, embed_dim=ROUTER.embed_dim)
    return trajectories


def _with_step(traj, k, **changes):
    steps = list(traj.steps)
    steps[k] = dataclasses.replace(steps[k], **changes)
    return dataclasses.replace(traj, steps=tuple(steps))


def test_collection_check_rejects_perturbed_d_t(collected, pair):
    assert checks.check_collection(collected, WORLD, pair) > 0
    traj = collected[0]
    bad = _with_step(traj, 2, d_t=traj.steps[2].d_t * (1 + 1e-9))
    with pytest.raises(checks.CheckError, match="d_t"):
        checks.check_collection([bad], WORLD, pair)


def test_collection_check_rejects_a_wrong_critical_flag(collected, pair):
    traj = collected[0]
    with pytest.raises(checks.CheckError, match="critical"):
        checks.check_collection([_with_step(traj, 0, critical=not traj.steps[0].critical)],
                                WORLD, pair)


def test_collection_check_rejects_an_unnormalised_policy(collected):
    low = SyntheticPolicy("low")
    skewed = PolicyPair(high=SyntheticPolicy("high"), low=lambda state: low(state) * 1.001)
    with pytest.raises(checks.CheckError, match="sums to"):
        checks.check_collection(collected, WORLD, skewed)


@pytest.fixture(scope="module")
def reports(pair):
    router = RouterParams.initialize(ROUTER, seed=0)
    return sweep(WORLD, pair, workloads.sweep_specs(router), 4, master_seed=0,
                 episode_seed_start=123)


def test_sweep_check_rejects_wrong_ghc(reports):
    checks.check_sweep(reports, range(123, 127))
    bad = copy.deepcopy(reports)
    bad[2].ghc += 1e-6
    with pytest.raises(checks.CheckError, match="GHC"):
        checks.check_sweep(bad, range(123, 127))


def test_sweep_check_rejects_unpaired_seeds_and_wrong_s_weak(reports):
    with pytest.raises(checks.CheckError, match="other seeds"):
        checks.check_sweep(reports, range(124, 128))
    bad = copy.deepcopy(reports)
    bad[3].weak_success_rate += 0.25
    with pytest.raises(checks.CheckError, match="S_weak"):
        checks.check_sweep(bad, range(123, 127))


def _rows(n, successes, n_high, n_steps=10):
    return [EpisodeRow(k, k < successes, n_high, n_steps) for k in range(n)]


def test_pooled_check_needs_the_router_to_beat_random():
    rows = {"fixed_low": _rows(100, 30, 0), "fixed_high": _rows(100, 100, 10),
            "random@0.2": _rows(100, 50, 2), "router[greedy]": _rows(100, 90, 2)}
    ghcs = checks.check_pooled_sweeps(rows, [0.2], "router[greedy]")
    assert ghcs["router[greedy]"] == pytest.approx(3.0)
    rows["router[greedy]"] = _rows(100, 40, 2)
    with pytest.raises(checks.CheckError, match="does not beat"):
        checks.check_pooled_sweeps(rows, [0.2], "router[greedy]")
    rows["router[greedy]"] = _rows(100, 90, 2)
    rows["random@0.2"] = _rows(100, 50, 4)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_pooled_sweeps(rows, [0.2], "router[greedy]")


def test_klst_gradient_check_rejects_flipped_sign(collected):
    dataset = build_supervision_dataset(collected, LabelingConfig(0.85))
    params = RouterParams.initialize(ROUTER, seed=0)
    rng = np.random.default_rng(0)
    coords = workloads.gradient_coords(params, rng, 6)
    analytic, loss = workloads.klst_gradients(params, dataset.records[:6], dataset.weights,
                                              coords)
    checks.check_gradient(analytic, loss, params, coords, "klst")
    with pytest.raises(checks.CheckError, match="gradient"):
        checks.check_gradient([-a for a in analytic], loss, params, coords, "klst")


def test_grpo_gradient_check_rejects_flipped_sign(pair):
    params = RouterParams.initialize(ROUTER, seed=0)
    config = GRPOConfig(episode_budget=4, seed=0, **{**workloads.GRPO_CONFIG, "group_size": 4})
    trajectories = [rollout(WORLD, pair, RouterDriver(params, mode="sampled"), 7, sample_index=k)
                    for k in range(config.group_size)]
    group = TrajectoryGroup.build(trajectories, REWARD, config.epsilon)
    checks.check_group(group, REWARD, config.epsilon)
    anchor = AnchorSnapshot(RouterParams.initialize(ROUTER, seed=1))
    coords = workloads.gradient_coords(params, np.random.default_rng(0), 5)
    analytic, loss = workloads.grpo_gradients(group, params, anchor, config, coords)
    checks.check_gradient(analytic, loss, params, coords, "grpo")
    with pytest.raises(checks.CheckError, match="gradient"):
        checks.check_gradient([-a for a in analytic], loss, params, coords, "grpo")
    group.advantages = group.advantages + 0.1
    with pytest.raises(checks.CheckError, match="advantages"):
        checks.check_group(group, REWARD, config.epsilon)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "out"
    config = workloads.write_pipeline_config(root / "run.yaml", out, 100_000)
    workloads.run_cli(config, out, Stages())
    return out


def test_pipeline_checks_reject_a_changed_artifact_byte(pipeline_run):
    checks.check_manifests(pipeline_run)
    checks.check_eval_and_export(pipeline_run)
    before = checks.artifact_digests(pipeline_run)
    checks.check_identical(before, before)

    path = pipeline_run / "collect" / "dataset.jsonl"
    original = path.read_bytes()
    try:
        path.write_bytes(original[:100] + bytes([original[100] ^ 1]) + original[101:])
        with pytest.raises(checks.CheckError, match="differ"):
            checks.check_identical(before, checks.artifact_digests(pipeline_run))
        with pytest.raises(checks.CheckError, match="sha256"):
            checks.check_manifests(pipeline_run)
    finally:
        path.write_bytes(original)


def test_eval_check_rejects_an_export_that_disagrees(pipeline_run):
    path = pipeline_run / "export" / "summary.json"
    original = path.read_text(encoding="utf-8")
    summary = json.loads(original)
    summary["methods"][-1]["GHC"] += 0.01
    try:
        path.write_text(json.dumps(summary), encoding="utf-8")
        with pytest.raises(checks.CheckError, match="export summary"):
            checks.check_eval_and_export(pipeline_run)
    finally:
        path.write_text(original, encoding="utf-8")


def test_routing_quality_counts_against_ground_truth(collected):
    traj = collected[0]
    assert checks.routing_quality([traj]) == (1.0, sum(s.critical for s in traj.steps)
                                              / traj.n_steps, 0)
