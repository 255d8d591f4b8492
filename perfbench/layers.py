"""Per-layer timings for the traced run, at router shapes (T in {1, 12},
d = 64, 4 heads, ffn 256) and on the default world.

Every call is timed from outside, through the layer's public functions.
Calls that take microseconds are sampled ``MICRO_SAMPLES`` times and report
the median plus p95, the highest percentile with ten samples beyond it;
calls that take milliseconds or more are sampled a few times and report the
median alone, since so few samples have no tail.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from mixroute.env import (
    FixedHigh,
    FixedLow,
    KlstCollect,
    RandomDriver,
    RouterDriver,
    SyntheticPolicy,
    embed_step,
    reset,
    rollout,
    step,
)
from mixroute.evaluation import BaselineSpec, evaluate
from mixroute.grpo import AnchorSnapshot, GRPOConfig, TrajectoryGroup, grpo_loss_and_grads, grpo_update
from mixroute.klst import (
    LabelingConfig,
    build_supervision_dataset,
    collect,
    load_dataset,
    predict_labels,
    save_dataset,
)
from mixroute.nn import AdamConfig, ParamTensor, adam_step, layer_norm, linear_forward, masked_attention
from mixroute.router import RouterParams, StepSequence, forward_probs, load_params, route, save_params

from timing import Stages
from workloads import GRPO_CONFIG, PIPELINE_STAGES, RANDOM_PS, REWARD, ROUTER, WORLD, run_cli

MICRO_SAMPLES = 200
TAIL = 10
SLOW_SAMPLES = 5


def _sample(fn, n: int, warm: int) -> list[float]:
    for _ in range(warm):
        fn()
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


class Metrics(dict):
    """name -> (value, unit)."""

    def micro(self, name: str, fn) -> None:
        samples = sorted(_sample(fn, MICRO_SAMPLES, warm=10))
        self[name] = (statistics.median(samples) * 1e6, "us")
        self[name + ".p95"] = (samples[-TAIL - 1] * 1e6, "us")

    def slow(self, name: str, fn, n: int = SLOW_SAMPLES) -> None:
        self[name] = (statistics.median(_sample(fn, n, warm=1)) * 1e3, "ms")


def forward_cost(t: int) -> tuple[int, int]:
    """Matmul flops and float64 bytes of parameters plus input that one router
    forward reads at sequence length ``t``; computed from shapes, not measured."""
    d, f, k = ROUTER.embed_dim, ROUTER.ffn_dim, ROUTER.num_precisions
    per_layer = (4 * 2 * t * d * d          # q, k, v and output projections
                 + 2 * 2 * t * t * d        # scores and weighted values, all heads
                 + 2 * 2 * t * d * f)       # two ffn matmuls
    flops = ROUTER.num_layers * per_layer + 2 * d * k
    layer_params = 4 * (d * d + d) + 2 * d + (d * f + f) + (f * d + d) + 2 * d
    params = t * d + ROUTER.num_layers * layer_params + d * k + k
    return flops, 8 * (params + t * d)


def nn_layer(m: Metrics) -> None:
    rng = np.random.default_rng(0)
    t, d, f = 12, ROUTER.embed_dim, ROUTER.ffn_dim
    d_head = d // ROUTER.num_heads
    x = rng.standard_normal((t, d))
    w = ParamTensor.uniform(d, f, fan_in=d, rng=rng)
    b = ParamTensor.uniform(1, f, fan_in=d, rng=rng)
    _, bw_linear = linear_forward(x, w, b)
    g_linear = rng.standard_normal((t, f))
    q, k, v = (rng.standard_normal((t, d_head)) for _ in range(3))
    valid = np.ones(t, dtype=bool)
    _, bw_attn = masked_attention(q, k, v, valid)
    g_attn = rng.standard_normal((t, d_head))
    gain = ParamTensor.from_value(np.ones((1, d)))
    shift = ParamTensor.zeros(1, d)
    adam = AdamConfig(learning_rate=1e-4)

    m.micro("nn.linear_fwd_us", lambda: linear_forward(x, w, b))
    m.micro("nn.linear_bwd_us", lambda: bw_linear(g_linear))
    m.micro("nn.attention_fwd_us", lambda: masked_attention(q, k, v, valid))
    m.micro("nn.attention_bwd_us", lambda: bw_attn(g_attn))
    m.micro("nn.layer_norm_fwd_us", lambda: layer_norm(x, gain, shift))
    m.micro("nn.adam_step_us", lambda: adam_step(w, adam))
    flops, nbytes = forward_cost(t)
    m["nn.flops_per_forward"] = (float(flops), "flop")
    m["nn.bytes_per_forward"] = (float(nbytes), "B")


def router_layer(m: Metrics, params: RouterParams, workdir: Path) -> None:
    rng = np.random.default_rng(0)
    seq1 = StepSequence.of(rng.standard_normal((1, ROUTER.embed_dim)))
    seq12 = StepSequence.of(rng.standard_normal((12, ROUTER.embed_dim)))
    route_rng = np.random.default_rng(1)

    def forward_backward():
        _, backward = forward_probs(seq12, params)
        backward(np.array([0.3, -0.3]))

    m.micro("router.forward_us.t1", lambda: forward_probs(seq1, params))
    m.micro("router.forward_us.t12", lambda: forward_probs(seq12, params))
    m.micro("router.route_us.t12", lambda: route(seq12, params, "sampled", route_rng))
    m.micro("router.forward_backward_us.t12", forward_backward)
    params.zero_grads()
    path = workdir / "router.ckpt"
    m.slow("router.save_ms", lambda: save_params(params, path), n=20)
    m.slow("router.load_ms", lambda: load_params(path, ROUTER), n=20)


def env_layer(m: Metrics, pair, params: RouterParams) -> None:
    states = []
    for seed in range(4):
        state = reset(WORLD, seed)
        while not state.terminal:
            states.append(state)
            advancing = min(state.task.advancing[state.t])
            state, _, _, _ = step(state, advancing)
    cycle = {"i": 0}

    def next_state():
        cycle["i"] = (cycle["i"] + 1) % len(states)
        return states[cycle["i"]]

    def embed():
        state = next_state()
        return embed_step(state.task_tokens, 1, state.observation, ROUTER.embed_dim)

    low, high = SyntheticPolicy("low"), SyntheticPolicy("high")
    seeds = iter(range(10**9))
    m.micro("env.policy_low_us", lambda: low(next_state()))
    m.micro("env.policy_high_us", lambda: high(next_state()))
    m.micro("env.reset_us", lambda: reset(WORLD, next(seeds)))
    m.micro("env.step_us", lambda: step(next_state(), 0))
    m.micro("env.embed_step_us", embed)
    drivers = {"fixed_low": FixedLow(), "fixed_high": FixedHigh(), "random": RandomDriver(0.4),
               "klst_collect": KlstCollect(), "router": RouterDriver(params, mode="greedy")}
    for name, driver in drivers.items():
        m.slow(f"env.rollout_ms.{name}",
               lambda driver=driver: rollout(WORLD, pair, driver, next(seeds)), n=10)


def klst_layer(m: Metrics, pair, params: RouterParams, workdir: Path) -> None:
    trajectories, _ = collect(WORLD, pair, 20, master_seed=0, embed_dim=ROUTER.embed_dim)
    labeling = LabelingConfig(0.85)
    dataset = build_supervision_dataset(trajectories, labeling)
    path, cdf_path = workdir / "dataset.jsonl", workdir / "cdf.json"
    m.slow("klst.build_dataset_ms", lambda: build_supervision_dataset(trajectories, labeling))
    m.slow("klst.save_dataset_ms", lambda: save_dataset(dataset, path, cdf_path))
    m.slow("klst.load_dataset_ms", lambda: load_dataset(path))
    records = dataset.records[:100]
    m.slow("klst.predict_labels_ms", lambda: predict_labels(params, records))


def grpo_layer(m: Metrics, pair, params: RouterParams) -> None:
    config = GRPOConfig(episode_budget=GRPO_CONFIG["group_size"], seed=0, **GRPO_CONFIG)
    anchor = AnchorSnapshot(params)
    driver = RouterDriver(params, mode="sampled")
    seeds = iter(range(10**9))

    def group_rollout():
        seed = next(seeds)
        return [rollout(WORLD, pair, driver, seed, sample_index=k)
                for k in range(config.group_size)]

    m.slow("grpo.group_rollout_ms", group_rollout)
    group = TrajectoryGroup.build(group_rollout(), REWARD, config.epsilon)
    m.slow("grpo.loss_and_grads_ms", lambda: grpo_loss_and_grads([group], params, anchor, config))
    trained = params.copy()
    m.slow("grpo.update_ms", lambda: grpo_update([group], trained, anchor, config))
    params.zero_grads()


def evaluation_layer(m: Metrics, pair, params: RouterParams) -> None:
    n, start = 8, 700_000
    weak = evaluate(WORLD, pair, BaselineSpec("fixed_low"), n, episode_seed_start=start)
    specs = {"fixed_low": BaselineSpec("fixed_low"), "fixed_high": BaselineSpec("fixed_high")}
    specs.update({f"random_{p:g}": BaselineSpec("random", p=p) for p in RANDOM_PS})
    specs["router"] = BaselineSpec("router", params=params, mode="greedy")
    for name, spec in specs.items():
        weak_report = None if spec.kind == "fixed_low" else weak
        m.slow(f"evaluation.evaluate_ms.{name}",
               lambda spec=spec, weak_report=weak_report: evaluate(
                   WORLD, pair, spec, n, episode_seed_start=start, weak_report=weak_report),
               n=3)


def cli_layer(m: Metrics, config_path: Path, output_dir: Path) -> None:
    stages = Stages()
    run_cli(config_path, output_dir, stages)
    for command, seconds in zip(PIPELINE_STAGES, stages.times):
        m[f"cli.{command.replace('-', '_')}_s"] = (seconds, "s")


def measure(pair, workdir: Path, pipeline_config: Path, pipeline_out: Path) -> Metrics:
    """Every per-layer timing; identical work in every workload's traced run."""
    workdir.mkdir(parents=True, exist_ok=True)
    params = RouterParams.initialize(ROUTER, seed=0)
    m = Metrics()
    nn_layer(m)
    router_layer(m, params, workdir)
    env_layer(m, pair, params)
    klst_layer(m, pair, params, workdir)
    grpo_layer(m, pair, params)
    evaluation_layer(m, pair, params)
    cli_layer(m, pipeline_config, pipeline_out)
    return m
