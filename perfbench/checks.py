"""Correctness checks on the outputs the workloads produce.

Each check recomputes a result independently (its own KL formula, its own
S / c / GHC arithmetic, finite differences from forward passes only, its
own sha256) or tests a property the method guarantees, and raises
``CheckError`` on the first disagreement. None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mixroute.env import HIGH, LOW, reset, step

KL_TOL = 1e-12
DIST_TOL = 1e-12
STAT_TOL = 1e-12
GRAD_TOL = 1e-5         # relative; float64 central differences reach ~1e-6
FD_STEPS = (1e-6, 2.5e-7)
BINOMIAL_SIGMAS = 6.0


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def kl(p, q) -> float:
    """KL(p || q) summed term by term, 0 * log(0 / q) = 0."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


def _check_distribution(dist, where: str) -> None:
    _require(bool(np.all(dist >= 0.0)), f"{where}: negative probability")
    _require(abs(math.fsum(dist) - 1.0) <= DIST_TOL, f"{where}: sums to {math.fsum(dist)!r}")


# --- rollouts ------------------------------------------------------------------

def check_collection(trajectories, world, pair) -> int:
    """Replay every collected episode and recompute each step's D_t.

    Returns the number of steps checked.
    """
    n = 0
    for traj in trajectories:
        _require(traj.success, f"episode {traj.episode_seed}: a failed episode was kept")
        state = reset(world, traj.episode_seed)
        for s in traj.steps:
            where = f"episode {traj.episode_seed} step {s.t}"
            _require(state.t == s.t and not state.terminal, f"{where}: replay diverged")
            low, high = pair.low(state), pair.high(state)
            _check_distribution(low, where + " low")
            _check_distribution(high, where + " high")
            d = kl(low, high)
            _require(abs(d - s.d_t) <= KL_TOL * max(1.0, abs(d)),
                     f"{where}: d_t {s.d_t!r} != recomputed {d!r}")
            _require(s.critical == (s.t in state.task.critical_steps),
                     f"{where}: critical flag disagrees with the task")
            if s.critical:
                _require(d >= world.divergence_high, f"{where}: critical D {d} < divergence_high")
            else:
                _require(d <= world.divergence_low, f"{where}: ordinary D {d} > divergence_low")
            _require(s.executed == HIGH, f"{where}: collection executed the low policy")
            state, _, _, _ = step(state, s.action)
            n += 1
        _require(state.terminal and state.success,
                 f"episode {traj.episode_seed}: replay did not end in success")
    return n


def _stats(rows):
    """(S, c) from per-episode rows: success rate and total high / total steps."""
    n = len(rows)
    successes = sum(1 for r in rows if r.success)
    steps = sum(r.n_steps for r in rows)
    high = sum(r.n_high for r in rows)
    return successes / n, (high / steps if steps else 0.0)


def _ghc(s: float, s_weak: float, c: float):
    return None if c == 0.0 else (s - s_weak) / c


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= STAT_TOL * max(1.0, abs(a), abs(b))


def check_sweep(reports, seeds) -> None:
    """Recompute S, c and GHC of every report from its per-episode rows."""
    seeds = list(seeds)
    by = {r.method: r for r in reports}
    _require("fixed_low" in by and "fixed_high" in by, "sweep lacks a fixed baseline")
    s_weak, _ = _stats(by["fixed_low"].episodes)
    for r in reports:
        _require([e.episode_seed for e in r.episodes] == seeds,
                 f"{r.method}: evaluated on other seeds than the sweep's")
        _require(r.n_episodes == len(seeds), f"{r.method}: n_episodes {r.n_episodes}")
        s, c = _stats(r.episodes)
        _require(_close(r.success_rate, s), f"{r.method}: S {r.success_rate!r} != {s!r}")
        _require(_close(r.high_ratio, c), f"{r.method}: c {r.high_ratio!r} != {c!r}")
        _require(_close(r.weak_success_rate, s_weak),
                 f"{r.method}: S_weak {r.weak_success_rate!r} != fixed_low S {s_weak!r}")
        _require(_close(r.ghc, _ghc(s, s_weak, c)), f"{r.method}: GHC {r.ghc!r} != recomputed")
    _require(by["fixed_high"].high_ratio == 1.0, "fixed_high c != 1")
    _require(by["fixed_low"].high_ratio == 0.0, "fixed_low c != 0")


def check_pooled_sweeps(rows_by_method, random_ps, router_method) -> dict:
    """World invariants and the router-beats-random claim over pooled rows.

    The rows of every method come from the same seeds, so the pooled
    figures stay paired. Returns the pooled GHC per method.
    """
    pooled = {m: _stats(rows) for m, rows in rows_by_method.items()}
    s_low, _ = pooled["fixed_low"]
    s_high, _ = pooled["fixed_high"]
    n = len(rows_by_method["fixed_high"])
    # The invariants bound the world's true success rates; a sample of n
    # episodes may fall below a bound only by sampling error.
    slack = BINOMIAL_SIGMAS * math.sqrt(0.95 * 0.05 / n)
    _require(s_high >= 0.95 - slack, f"fixed_high S {s_high:.3f} < 0.95 - {slack:.3f}")
    _require(s_high - s_low >= 0.15 - slack,
             f"S_high - S_low = {s_high - s_low:.3f} < 0.15 - {slack:.3f}")
    ghcs = {m: _ghc(s, s_low, c) for m, (s, c) in pooled.items()}
    for p in random_ps:
        method = f"random@{p:g}"
        _, c = pooled[method]
        n_steps = sum(r.n_steps for r in rows_by_method[method])
        band = BINOMIAL_SIGMAS * math.sqrt(p * (1.0 - p) / n_steps)
        _require(abs(c - p) <= band, f"{method}: c {c:.4f} outside {p} +/- {band:.4f}")
        _require(ghcs[router_method] is not None and ghcs[router_method] > ghcs[method],
                 f"router GHC {ghcs[router_method]} does not beat {method} {ghcs[method]}")
    return ghcs


# --- training ------------------------------------------------------------------

def central_difference(loss, params, coord, h: float) -> float:
    """(loss(x + h) - loss(x - h)) / 2h at one (tensor name, index) coordinate."""
    value = dict(params.tensors())[coord[0]].value
    ij = coord[1]
    old = value[ij]
    value[ij] = old + h
    up = loss()
    value[ij] = old - h
    down = loss()
    value[ij] = old
    return (up - down) / (2.0 * h)


def check_gradient(analytic, loss, params, coords, what: str) -> float:
    """Compare each analytic coordinate with central differences of ``loss``.

    The error is relative to the larger magnitude, floored at 1e-3. A ReLU
    kink between x - h and x + h spoils a central difference, so a
    coordinate that disagrees at h = 1e-6 is measured again at h / 4; a
    wrong gradient disagrees at both.
    """
    worst = 0.0
    for a, coord in zip(analytic, coords):
        err = math.inf
        for h in FD_STEPS:
            n = central_difference(loss, params, coord, h)
            err = min(err, abs(a - n) / max(1e-3, abs(a), abs(n)))
            if err <= GRAD_TOL:
                break
        worst = max(worst, err)
    _require(worst <= GRAD_TOL, f"{what}: gradient relative error {worst:.3g} > {GRAD_TOL}")
    return worst


def check_group(group, reward, epsilon: float) -> None:
    """Returns from success, S, T and the lambdas; advantages standardised."""
    expected = [float(t.success) - reward.lambda_high * t.n_high - reward.lambda_step * t.n_steps
                for t in group.trajectories]
    for got, want in zip(group.returns, expected):
        _require(abs(got - want) <= STAT_TOL, f"return {got!r} != recomputed {want!r}")
    adv = np.asarray(group.advantages, dtype=np.float64)
    r = np.asarray(expected)
    if np.all(r == r[0]):
        _require(bool(np.all(adv == 0.0)), "tied returns but nonzero advantages")
        return
    mean = math.fsum(adv) / adv.size
    std = math.sqrt(math.fsum((a - mean) ** 2 for a in adv) / adv.size)
    sigma = math.sqrt(math.fsum((x - r.mean()) ** 2 for x in r) / r.size)
    _require(abs(mean) <= 1e-12, f"advantages have mean {mean!r}")
    # (R - mean) / (sigma + epsilon) has std sigma / (sigma + epsilon), not exactly 1
    _require(abs(std - sigma / (sigma + epsilon)) <= 1e-12, f"advantages have std {std!r}")


# --- pipeline ------------------------------------------------------------------

def artifact_digests(root: Path) -> dict[str, str]:
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(first: dict, other: dict) -> None:
    _require(first.keys() == other.keys(),
             f"artifact sets differ: {sorted(first.keys() ^ other.keys())}")
    changed = sorted(k for k in first if first[k] != other[k])
    _require(not changed, f"artifacts differ between repetitions: {changed}")


def check_manifests(output_dir: Path) -> None:
    """Every file a manifest lists has the sha256 the manifest records."""
    for manifest_path in sorted(Path(output_dir).glob("*/manifest.json")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for kind in ("inputs", "outputs"):
            for name, entry in manifest.get(kind, {}).items():
                digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
                _require(digest == entry["sha256"],
                         f"{manifest_path}: {kind} {name} sha256 mismatch")


def check_eval_and_export(output_dir: Path) -> list[dict]:
    """Recompute the eval report from its episode rows; export must agree."""
    output_dir = Path(output_dir)
    reports = json.loads((output_dir / "eval" / "report.json").read_text(encoding="utf-8"))
    by = {r["method"]: r for r in reports}
    low = by["fixed_low"]["episodes"]
    s_weak = sum(e["success"] for e in low) / len(low)
    seeds = [e["episode_seed"] for e in low]
    for r in reports:
        rows = r["episodes"]
        _require([e["episode_seed"] for e in rows] == seeds, f"{r['method']}: unpaired seeds")
        s = sum(e["success"] for e in rows) / len(rows)
        c = sum(e["S"] for e in rows) / sum(e["T"] for e in rows)
        _require(_close(r["success_rate"], s), f"eval {r['method']}: S != recomputed")
        _require(_close(r["high_ratio"], c), f"eval {r['method']}: c != recomputed")
        _require(_close(r["weak_success_rate"], s_weak), f"eval {r['method']}: S_weak")
        _require(_close(r["ghc"], _ghc(s, s_weak, c)), f"eval {r['method']}: GHC != recomputed")

    summary = json.loads((output_dir / "export" / "summary.json").read_text(encoding="utf-8"))
    _require([m["method"] for m in summary["methods"]] == [r["method"] for r in reports],
             "export summary lists other methods than eval")
    for m in summary["methods"]:
        r = by[m["method"]]
        _require((m["S"], m["c"], m["S_weak"], m["GHC"])
                 == (r["success_rate"], r["high_ratio"], r["weak_success_rate"], r["ghc"]),
                 f"export summary {m['method']} disagrees with eval")
    with open(output_dir / "export" / "frontier.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    _require([row["method"] for row in rows] == [r["method"] for r in reports],
             "export frontier lists other methods than eval")
    for row in rows:
        r = by[row["method"]]
        ghc_value = None if row["GHC"] == "" else float(row["GHC"])
        _require((float(row["c"]), float(row["S"]), ghc_value)
                 == (r["high_ratio"], r["success_rate"], r["ghc"]),
                 f"export frontier {row['method']} disagrees with eval")
    return reports


def routing_quality(trajectories) -> tuple[float, float, int]:
    """Recall and precision of HIGH decisions on critical steps, and the
    number of failed episodes that executed LOW at some critical step."""
    high_critical = high = critical = poisoned = 0
    for traj in trajectories:
        low_at_critical = False
        for s in traj.steps:
            high += s.executed == HIGH
            critical += s.critical
            high_critical += s.critical and s.executed == HIGH
            low_at_critical |= s.critical and s.executed == LOW
        poisoned += low_at_critical and not traj.success
    recall = high_critical / critical if critical else 0.0
    precision = high_critical / high if high else 0.0
    return recall, precision, poisoned
