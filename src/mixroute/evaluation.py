"""Metrics and baseline harness: success rate, high-precision usage, GHC,
random@p baselines, shared-seed sweeps and report export.

GHC (gain per high-precision call) is (S - S_weak) / c on success-rate
fractions: the slope of the segment from (0, S_weak) to (c, S) in the
success-versus-usage plane. It is undefined (None) when c = 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import (
    EnvConfig,
    FixedHigh,
    FixedLow,
    PolicyPair,
    RandomDriver,
    RouterDriver,
    run_drivers,
)
from .router import RouterParams


def ghc(success_rate: float, weak_success_rate: float, high_ratio: float) -> float | None:
    """Success gain per unit of high-precision budget; None when c = 0."""
    if not 0.0 <= success_rate <= 1.0 or not 0.0 <= weak_success_rate <= 1.0:
        raise ValueError("success rates must lie in [0, 1]")
    if not 0.0 <= high_ratio <= 1.0:
        raise ValueError("high-precision ratio must lie in [0, 1]")
    if high_ratio == 0.0:
        return None
    return (success_rate - weak_success_rate) / high_ratio


@dataclass(frozen=True)
class BaselineSpec:
    kind: str                      # fixed_low | fixed_high | random | router
    p: float | None = None
    params: RouterParams | None = None
    mode: str = "greedy"

    def __post_init__(self):
        if self.kind not in ("fixed_low", "fixed_high", "random", "router"):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "random":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("random baselines need p in [0, 1]")
        if self.kind == "router" and self.params is None:
            raise ValueError("router baselines need params")
        if self.mode not in ("greedy", "sampled"):
            raise ValueError("mode must be greedy or sampled")

    @property
    def label(self) -> str:
        if self.kind == "random":
            return f"random@{self.p:g}"
        if self.kind == "router":
            return f"router[{self.mode}]"
        return self.kind

    def driver(self):
        if self.kind == "fixed_low":
            return FixedLow()
        if self.kind == "fixed_high":
            return FixedHigh()
        if self.kind == "random":
            return RandomDriver(self.p)
        return RouterDriver(self.params, mode=self.mode)


@dataclass
class EpisodeRow:
    episode_seed: int
    success: bool
    n_high: int
    n_steps: int


@dataclass
class EvalReport:
    method: str
    n_episodes: int
    success_rate: float
    high_ratio: float              # micro-averaged: total high calls / total steps
    weak_success_rate: float
    ghc: float | None
    master_seed: int
    macro_high_ratio: float = 0.0  # per-episode mean of S/T, exposed for comparison
    episodes: list[EpisodeRow] = field(default_factory=list)


def _report(spec: BaselineSpec, trajectories, master_seed: int,
            weak_success_rate: float | None) -> EvalReport:
    """``spec``'s report from its trajectories; a fixed_low spec is its own
    weak baseline."""
    n = len(trajectories)
    success = sum(t.success for t in trajectories) / n
    total_steps = sum(t.n_steps for t in trajectories)
    micro = sum(t.n_high for t in trajectories) / total_steps if total_steps else 0.0
    weak = success if weak_success_rate is None else weak_success_rate
    return EvalReport(
        method=spec.label,
        n_episodes=n,
        success_rate=success,
        high_ratio=micro,
        weak_success_rate=weak,
        ghc=ghc(success, weak, micro),
        master_seed=master_seed,
        macro_high_ratio=float(np.mean([t.high_ratio for t in trajectories])),
        episodes=[EpisodeRow(t.episode_seed, t.success, t.n_high, t.n_steps)
                  for t in trajectories],
    )


def _seeds(n_episodes: int, episode_seed_start: int) -> range:
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    return range(episode_seed_start, episode_seed_start + n_episodes)


def evaluate(config: EnvConfig, pair: PolicyPair, spec: BaselineSpec,
             n_episodes: int, master_seed: int = 0, episode_seed_start: int = 0,
             workers: int = 1, weak_report: EvalReport | None = None) -> EvalReport:
    """Evaluate one method: the one-spec ``sweep``. S_weak comes from a
    fixed_low run over the same seeds (pass ``weak_report`` to reuse a
    companion run)."""
    seeds = _seeds(n_episodes, episode_seed_start)
    if weak_report is not None and (
            weak_report.master_seed != master_seed
            or [e.episode_seed for e in weak_report.episodes] != list(seeds)):
        raise ValueError("weak baseline was evaluated on different seeds")
    if weak_report is None or spec.kind == "fixed_low":
        return sweep(config, pair, [spec], n_episodes, master_seed, episode_seed_start,
                     workers)[0]
    [trajectories] = run_drivers(config, pair, [spec.driver()], seeds,
                                 master_seed=master_seed, workers=workers)
    return _report(spec, trajectories, master_seed, weak_report.success_rate)


def sweep(config: EnvConfig, pair: PolicyPair, specs, n_episodes: int,
          master_seed: int = 0, episode_seed_start: int = 0,
          workers: int = 1) -> list[EvalReport]:
    """Evaluate several methods over one shared seed set.

    Every method's episode of a seed runs on that seed's one task, next to
    a fixed_low episode whose report is S_weak for every spec (and is the
    report of any fixed_low spec), keeping GHC values paired.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one spec is required")
    seeds = _seeds(n_episodes, episode_seed_start)
    runs = [spec for spec in specs if spec.kind != "fixed_low"]
    weak_column, *columns = run_drivers(
        config, pair, [FixedLow()] + [spec.driver() for spec in runs], seeds,
        master_seed=master_seed, workers=workers)
    weak = _report(BaselineSpec("fixed_low"), weak_column, master_seed, None)
    reports = (_report(spec, column, master_seed, weak.success_rate)
               for spec, column in zip(runs, columns))
    return [weak if spec.kind == "fixed_low" else next(reports) for spec in specs]


# --- exports ---------------------------------------------------------------

def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def save_report_csv(reports, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "n", "S", "c", "S_weak", "GHC"])
        for r in reports:
            writer.writerow([r.method, r.n_episodes, repr(r.success_rate),
                             repr(r.high_ratio), repr(r.weak_success_rate),
                             _fmt(r.ghc)])


def save_report_json(reports, path) -> None:
    payload = [
        {
            "method": r.method,
            "n_episodes": r.n_episodes,
            "success_rate": r.success_rate,
            "high_ratio": r.high_ratio,
            "macro_high_ratio": r.macro_high_ratio,
            "weak_success_rate": r.weak_success_rate,
            "ghc": r.ghc,
            "master_seed": r.master_seed,
            "episodes": [
                {"episode_seed": e.episode_seed, "success": e.success,
                 "S": e.n_high, "T": e.n_steps}
                for e in r.episodes
            ],
        }
        for r in reports
    ]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True),
                          encoding="utf-8")


def load_report_json(path) -> list[EvalReport]:
    """The reports ``save_report_json`` wrote to ``path``, read back."""
    return [
        EvalReport(
            method=r["method"],
            n_episodes=r["n_episodes"],
            success_rate=r["success_rate"],
            high_ratio=r["high_ratio"],
            weak_success_rate=r["weak_success_rate"],
            ghc=r["ghc"],
            master_seed=r["master_seed"],
            macro_high_ratio=r["macro_high_ratio"],
            episodes=[EpisodeRow(e["episode_seed"], e["success"], e["S"], e["T"])
                      for e in r["episodes"]],
        )
        for r in json.loads(Path(path).read_text(encoding="utf-8"))
    ]


def save_frontier_csv(reports, path) -> None:
    """(c, S) point per method plus its GHC slope, for external plotting."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "c", "S", "GHC"])
        for r in reports:
            writer.writerow([r.method, repr(r.high_ratio), repr(r.success_rate),
                             _fmt(r.ghc)])
