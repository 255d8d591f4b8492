"""The three workloads: set-up, one repetition, and the checks of each.

Set-up inputs and the warm-up repetition use fixed seeds, so every run's
set-up does the same work and the routers whose quality is reported are the
same in every run. ``--seed`` chooses the episode seeds of the timed
repetitions; repetition ``i`` of a run draws seeds no other repetition of
that run uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from collections import defaultdict
from pathlib import Path

import numpy as np
import yaml

import mixroute.cli as cli
from mixroute.env import EnvConfig, RouterDriver, rollout, run_episodes
from mixroute.evaluation import BaselineSpec, sweep
from mixroute.grpo import (
    AnchorSnapshot,
    GRPOConfig,
    RewardConfig,
    TrajectoryGroup,
    grpo_loss_and_grads,
    train_grpo,
)
from mixroute.klst import (
    KlstTrainConfig,
    LabelingConfig,
    build_supervision_dataset,
    collect,
    train_klst,
)
from mixroute.nn import PROB_FLOOR, weighted_cross_entropy
from mixroute.router import RouterConfig, RouterParams, StepSequence, forward_probs, load_params

import checks
from tracing import traced_pair

WORLD = EnvConfig()
ROUTER = RouterConfig()
RANDOM_PS = (0.2, 0.4, 0.6, 0.8)
ROUTER_METHOD = "router[greedy]"

# Stage-1 router every workload trains for itself during set-up. The 10x
# learning rate (against the pipeline default 1e-4) reaches a router that
# beats every random@p baseline in two epochs over 60 episodes.
STAGE1_EPISODES = 60
STAGE1_EPOCHS = 2
STAGE1_LR = 1e-3
STAGE1_SEED = 0

# Fixed seeds on which the reported router quality is measured.
QUALITY_EPISODES = 100
QUALITY_SEED_START = 900_000
QUALITY_MASTER_SEED = 0

WARMUP_SEED_START = 5_000_000
TIMED_SEED_BASE = 10_000_000   # run --seed s draws from [base + s * 100_000, ...)
GRPO_CONFIG = dict(group_size=8, beta=0.02, learning_rate=1e-4)
REWARD = RewardConfig()


def stage1(pair):
    """The fixed collection, its labelled dataset and the stage-1 router."""
    trajectories, _ = collect(WORLD, pair, STAGE1_EPISODES, master_seed=STAGE1_SEED,
                              embed_dim=ROUTER.embed_dim)
    dataset = build_supervision_dataset(trajectories, LabelingConfig(0.85))
    result = train_klst(dataset, RouterParams.initialize(ROUTER, seed=STAGE1_SEED),
                        KlstTrainConfig(epochs=STAGE1_EPOCHS, learning_rate=STAGE1_LR,
                                        seed=STAGE1_SEED))
    return dataset, result.params


def sweep_specs(router):
    return ([BaselineSpec("fixed_low"), BaselineSpec("fixed_high")]
            + [BaselineSpec("random", p=p) for p in RANDOM_PS]
            + [BaselineSpec("router", params=router, mode="greedy")])


def quality_of(router, pair, traced: bool):
    """GHC and high calls per episode of ``router`` on the fixed quality seeds.

    Returns (ghc, high calls per episode, routing-quality triple or None).
    """
    specs = [BaselineSpec("fixed_low"), BaselineSpec("fixed_high"),
             BaselineSpec("router", params=router, mode="greedy")]
    reports = sweep(WORLD, pair, specs, QUALITY_EPISODES, master_seed=QUALITY_MASTER_SEED,
                    episode_seed_start=QUALITY_SEED_START)
    seeds = range(QUALITY_SEED_START, QUALITY_SEED_START + QUALITY_EPISODES)
    checks.check_sweep(reports, seeds)
    report = reports[-1]
    high_calls = sum(e.n_high for e in report.episodes) / report.n_episodes
    routing = None
    if traced:
        trajectories = run_episodes(WORLD, pair, RouterDriver(router, mode="greedy"), seeds,
                                    master_seed=QUALITY_MASTER_SEED)
        rows = [(t.episode_seed, t.success, t.n_high, t.n_steps) for t in trajectories]
        same = [(e.episode_seed, e.success, e.n_high, e.n_steps) for e in report.episodes]
        if rows != same:
            raise checks.CheckError("router rollouts disagree with the evaluated report")
        routing = checks.routing_quality(trajectories)
    return report.ghc, high_calls, routing


class Workload:
    name = ""
    ops_per_rep = 0

    def setup(self, pair, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def rep(self, i: int, pair, stages):
        """Repetition ``i`` (-1 is the warm-up, on fixed seeds); every call
        into the program runs inside ``stages.stage(name)``."""
        raise NotImplementedError

    def record(self, i: int, output) -> None:
        """Keep what the checks need from one repetition's output."""

    def quality_router(self):
        raise NotImplementedError

    def router_decisions(self, output) -> int:
        """Router decisions a repetition made outside the traced policy pair."""
        return 0

    def check(self, pair) -> None:
        raise NotImplementedError


class Rollouts(Workload):
    """klst collection plus a shared-seed sweep with the stage-1 router."""

    name = "rollouts"
    ops_per_rep = 2
    COLLECT_EPISODES = 16
    SWEEP_EPISODES = 8
    REPLAYED_REPS = 3

    def setup(self, pair, workdir, seed):
        self.seed = seed
        _, self.router = stage1(pair)
        self.specs = sweep_specs(self.router)
        self.rows = defaultdict(list)
        self.sweeps = []
        self.collections = []

    def _seeds(self, i):
        if i < 0:
            return WARMUP_SEED_START, 0
        stride = self.COLLECT_EPISODES + self.SWEEP_EPISODES
        return TIMED_SEED_BASE + self.seed * 100_000 + i * stride, self.seed

    def rep(self, i, pair, stages):
        start, master = self._seeds(i)
        sweep_start = start + self.COLLECT_EPISODES
        with stages.stage("collect"):
            trajectories, _ = collect(WORLD, pair, self.COLLECT_EPISODES, master_seed=master,
                                      embed_dim=ROUTER.embed_dim, episode_seed_start=start)
        with stages.stage("sweep"):
            reports = sweep(WORLD, pair, self.specs, self.SWEEP_EPISODES, master_seed=master,
                            episode_seed_start=sweep_start)
        return trajectories, reports, range(sweep_start, sweep_start + self.SWEEP_EPISODES)

    def record(self, i, output):
        trajectories, reports, seeds = output
        self.sweeps.append((reports, seeds))
        for r in reports:
            self.rows[r.method].extend(r.episodes)
        if i < self.REPLAYED_REPS:
            self.collections.extend(trajectories)

    def router_decisions(self, output):
        _, reports, _ = output
        return sum(e.n_steps for r in reports if r.method == ROUTER_METHOD for e in r.episodes)

    def quality_router(self):
        return self.router

    def check(self, pair):
        checks.check_collection(self.collections, WORLD, pair)
        for reports, seeds in self.sweeps:
            checks.check_sweep(reports, seeds)
        checks.check_pooled_sweeps(self.rows, RANDOM_PS, ROUTER_METHOD)


class Training(Workload):
    """One train_klst epoch over a fixed dataset, then two GRPO groups."""

    name = "training"
    ops_per_rep = 2
    GRPO_GROUPS = 2
    GRAD_COORDS = 8
    KLST_BATCH = 16

    def setup(self, pair, workdir, seed):
        self.seed = seed
        self.dataset, self.router = stage1(pair)
        self.results = []
        self.first_groups = []

    def rep(self, i, pair, stages):
        if i < 0:
            init_seed, master, start = 1, 0, WARMUP_SEED_START
        else:
            init_seed = 1000 + self.seed * 10_000 + i
            master = self.seed
            start = TIMED_SEED_BASE + self.seed * 100_000 + i * self.GRPO_GROUPS
        with stages.stage("train_klst"):
            klst_result = train_klst(
                self.dataset, RouterParams.initialize(ROUTER, seed=init_seed),
                KlstTrainConfig(epochs=1, learning_rate=STAGE1_LR, seed=init_seed))
        group_size = GRPO_CONFIG["group_size"]
        config = GRPOConfig(episode_budget=self.GRPO_GROUPS * group_size, seed=master,
                            **GRPO_CONFIG)
        with stages.stage("train_grpo"):
            grpo_result = train_grpo(WORLD, pair, self.router, config, REWARD,
                                     episode_seed_start=start)
        return klst_result, grpo_result, config, start

    def record(self, i, output):
        klst_result, grpo_result, config, start = output
        if i < 0:
            self.warmup = output
        if i < 1:
            self.first_groups.append((grpo_result.curve[0], config, start))
        # Only the small parts: keeping every repetition's routers would make
        # peak memory grow with the number of repetitions a run fits in.
        self.results.append((klst_result.train_episodes, klst_result.val_episodes,
                             grpo_result.episodes_used))

    def quality_router(self):
        return self.warmup[1].params

    def check(self, pair):
        episodes = {r.episode for r in self.dataset.records}
        for train, val, episodes_used in self.results:
            train, val = set(train), set(val)
            if train & val or train | val != episodes:
                raise checks.CheckError("klst split is not a partition of the episodes")
            if episodes_used != self.GRPO_GROUPS * GRPO_CONFIG["group_size"]:
                raise checks.CheckError("train_grpo used another episode budget")
        rng = np.random.default_rng(self.seed)
        self._check_klst_gradient(rng)
        self._check_grpo(pair, rng)

    def _check_klst_gradient(self, rng):
        params = self.router.copy()
        picks = rng.choice(len(self.dataset.records), size=self.KLST_BATCH, replace=False)
        batch = [self.dataset.records[int(k)] for k in picks]
        coords = gradient_coords(params, rng, self.GRAD_COORDS)
        analytic, loss = klst_gradients(params, batch, self.dataset.weights, coords)
        checks.check_gradient(analytic, loss, params, coords, "stage-1 weighted cross-entropy")

    def _check_grpo(self, pair, rng):
        # train_grpo's first group is rolled out by the initial router, so
        # it can be rebuilt here and its curve entry recomputed.
        for first, config, start in self.first_groups:
            trajectories = [rollout(WORLD, pair, RouterDriver(self.router, mode="sampled"),
                                    start, master_seed=config.seed, sample_index=k)
                            for k in range(config.group_size)]
            group = TrajectoryGroup.build(trajectories, REWARD, config.epsilon)
            checks.check_group(group, REWARD, config.epsilon)
            if abs(first.mean_return - float(np.mean(group.returns))) > checks.STAT_TOL:
                raise checks.CheckError("train_grpo's first-group mean return != recomputed")
            if first.success_rate != float(np.mean([t.success for t in trajectories])):
                raise checks.CheckError("train_grpo's first-group success rate != recomputed")

        # An anchor away from the current parameters, so the KL term counts.
        params = self.router.copy()
        anchor = AnchorSnapshot(RouterParams.initialize(ROUTER, seed=STAGE1_SEED + 1))
        coords = gradient_coords(params, rng, self.GRAD_COORDS)
        analytic, loss = grpo_gradients(group, params, anchor, config, coords)
        checks.check_gradient(analytic, loss, params, coords, "GRPO loss")


def gradient_coords(params, rng, n: int):
    """One coordinate of the positional table's first row, and n - 1 in
    distinct other tensors."""
    tensors = [(name, t) for name, t in params.tensors() if name != "positional"]
    coords = [("positional", (0, int(rng.integers(params.config.embed_dim))))]
    for k in rng.choice(len(tensors), size=n - 1, replace=False):
        name, tensor = tensors[int(k)]
        coords.append((name, tuple(int(rng.integers(size)) for size in tensor.shape)))
    return coords


def _grads_at(params, coords) -> list[float]:
    tensors = dict(params.tensors())
    return [float(tensors[name].grad[ij]) for name, ij in coords]


def klst_gradients(params, batch, weights, coords):
    """Stage-1 gradient as training leaves it in the tensors, and the
    benchmark's own weighted cross-entropy computed by forward passes."""
    params.zero_grads()
    for rec in batch:
        probs, backward = forward_probs(rec.sequence, params)
        _, bw_ce = weighted_cross_entropy(probs.reshape(1, -1), [rec.label], weights)
        backward(bw_ce()[0] / len(batch))
    analytic = _grads_at(params, coords)

    def loss():
        total = 0.0
        for rec in batch:
            probs, _ = forward_probs(rec.sequence, params)
            total += weights[rec.label] * -np.log(max(probs[rec.label], PROB_FLOOR))
        return total / len(batch)

    return analytic, loss


def grpo_gradients(group, params, anchor, config, coords):
    """grpo_loss_and_grads' gradient, and the benchmark's own
    -E[A * sum log pi] + beta * KL(pi || pi_0) computed by forward passes."""
    reported = grpo_loss_and_grads([group], params, anchor, config)
    analytic = _grads_at(params, coords)
    states = []
    for traj, adv in zip(group.trajectories, group.advantages):
        emb = np.asarray([s.embedding for s in traj.steps])
        for k, s in enumerate(traj.steps):
            seq = StepSequence.of(emb[:k + 1])
            states.append((seq, s.route_choice, float(adv), forward_probs(seq, anchor.params)[0]))
    n_traj, n_states = len(group.trajectories), len(states)

    def loss():
        policy = kl = 0.0
        for seq, choice, adv, q in states:
            p, _ = forward_probs(seq, params)
            policy -= adv * np.log(max(p[choice], PROB_FLOOR)) / n_traj
            kl += sum(pk * np.log(max(pk, PROB_FLOOR) / max(qk, PROB_FLOOR))
                      for pk, qk in zip(p, q)) / n_states
        return policy + config.beta * kl

    total = loss()
    if abs(total - reported.total) > 1e-10 * max(1.0, abs(total)):
        raise checks.CheckError(f"GRPO loss {reported.total!r} != recomputed {total!r}")
    return analytic, loss


PIPELINE_STAGES = ("calibrate", "collect", "train-klst", "train-grpo", "eval", "export")


def pipeline_config(output_dir: Path, eval_seed_start: int) -> dict:
    """A small pipeline: every stage runs, in about four seconds."""
    return {
        "seed": 0,
        "output_dir": str(output_dir),
        "workers": 1,
        "klst": {"episodes": 40, "tau": 0.85, "epochs": 2, "batch_size": 64,
                 "learning_rate": STAGE1_LR},
        "grpo": {"episode_budget": 16, "group_size": 8, "beta": 0.02,
                 "learning_rate": 1.0e-6, "lr_scale": 100.0},
        "eval": {"episodes": 20, "episode_seed_start": eval_seed_start,
                 "random_ps": list(RANDOM_PS), "mode": "greedy"},
    }


def run_cli(config_path: Path, output_dir: Path, stages) -> None:
    """Run every CLI stage in order into a fresh ``output_dir``.

    When tracing, the stages build traced policy pairs: the CLI constructs
    its pair by calling ``mixroute.cli.make_policy_pair``, so that name is
    the injection point.
    """
    shutil.rmtree(output_dir, ignore_errors=True)
    original = cli.make_policy_pair
    if stages.tracer is not None:
        cli.make_policy_pair = lambda env: traced_pair(original(env), stages.tracer)
    try:
        for command in PIPELINE_STAGES:
            out, err = io.StringIO(), io.StringIO()
            with stages.stage("cli." + command.replace("-", "_")):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["--config", str(config_path), command])
            if code != 0:
                raise checks.CheckError(f"mixroute {command} exited {code}: {err.getvalue()}")
    finally:
        cli.make_policy_pair = original


def write_pipeline_config(path: Path, output_dir: Path, eval_seed_start: int) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(pipeline_config(output_dir, eval_seed_start)),
                    encoding="utf-8")
    return path


class Pipeline(Workload):
    """The CLI as users run it: six stages into a fresh output directory."""

    name = "pipeline"
    ops_per_rep = len(PIPELINE_STAGES)
    WARMUP_EVAL_START = 100_000

    def setup(self, pair, workdir, seed):
        self.output_dir = workdir / "pipeline-out"
        self.warm_config = write_pipeline_config(workdir / "pipeline-warmup.yaml",
                                                 self.output_dir, self.WARMUP_EVAL_START)
        self.config = write_pipeline_config(workdir / "pipeline.yaml", self.output_dir,
                                            TIMED_SEED_BASE + seed * 100_000)
        self.digests = []

    def rep(self, i, pair, stages):
        run_cli(self.warm_config if i < 0 else self.config, self.output_dir, stages)
        return self.output_dir

    def record(self, i, output):
        checks.check_manifests(output)
        checks.check_eval_and_export(output)
        if i < 0:
            self.router = load_params(output / "grpo" / "router.ckpt", ROUTER)
        else:
            self.digests.append(checks.artifact_digests(output))

    def router_decisions(self, output):
        reports = json.loads((output / "eval" / "report.json").read_text(encoding="utf-8"))
        return sum(e["T"] for r in reports if r["method"].startswith("router-")
                   for e in r["episodes"])

    def quality_router(self):
        return self.router

    def check(self, pair):
        for other in self.digests[1:]:
            checks.check_identical(self.digests[0], other)


WORKLOADS = {w.name: w for w in (Rollouts, Training, Pipeline)}
