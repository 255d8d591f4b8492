"""Pipeline CLI: calibrate, collect, train-klst, train-grpo, eval, export.

Every stage writes its artifacts plus a manifest.json (the hash of the
config keys its outputs depend on, seed, input/output file hashes) under
<output_dir>/<stage>/. Re-running a stage with the same config and seed
reproduces every artifact byte-identically; manifests therefore carry no
timestamps. A stage refuses an upstream manifest whose hash differs from
the upstream stage's hash under the current config, and checks the sha256
of each upstream file against its manifest.

Exit codes: 0 success, 2 config error, 3 invariant/calibration failure,
4 missing, unreadable, malformed or modified artifact.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluation, grpo, klst
from .config import STAGE_KEYS, ConfigValidationError, RunConfig, load_run_config
from .env import EnvConfigError, FixedLow, KlstCollect, make_policy_pair, run_drivers
from .evaluation import BaselineSpec, sweep
from .router import CheckpointError, RouterParams, load_params, save_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_MISSING = 4


class StageError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_csv(path: Path, header, rows) -> None:
    """The header, then each row's cells under it, LF line ends. A cell is a
    Python int, float or str written as its text; None is an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[name] for name in header] for row in rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _method_rows(reports) -> list[dict]:
    """One row per method under report.csv's column names; export's
    frontier.csv and summary.json take their fields from these rows."""
    return [{"method": r.method, "n": r.n_episodes, "S": r.success_rate,
             "c": r.high_ratio, "S_weak": r.weak_success_rate, "GHC": r.ghc}
            for r in reports]


def _write_manifest(stage_dir: Path, stage: str, cfg: RunConfig,
                    outputs: dict[str, Path], inputs: dict[str, Path] | None = None,
                    extra: dict | None = None) -> None:
    manifest = {
        "stage": stage,
        "config_hash": cfg.config_hash(stage),
        "seed": cfg.master_seed,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in (inputs or {}).items()
        },
        "outputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in outputs.items()
        },
        **({"extra": extra} if extra else {}),
    }
    _write_json(stage_dir / "manifest.json", manifest)


def _manifest_problem(manifest) -> str | None:
    """What keeps ``manifest`` from having the shape _write_manifest gives it."""
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config_hash"), str):
        return "not a JSON object with a config_hash string"
    for section in ("inputs", "outputs"):
        entries = manifest.get(section)
        if not isinstance(entries, dict) or not all(
                isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("path", "sha256"))
                for e in entries.values()):
            return f"{section} does not map every name to a string path and sha256"
    return None


def _load(path: Path, load):
    """``load(path)``, or exit 4 naming a file that is missing or that
    ``load`` cannot read."""
    if not path.exists():
        raise StageError(f"missing upstream artifact: {path}", EXIT_MISSING)
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, CheckpointError) as exc:
        raise StageError(f"unreadable upstream artifact: {path} ({exc})", EXIT_MISSING)


def _upstream(cfg: RunConfig, stage_dir: Path, stage: str, name: str, load):
    """Output ``name`` of the ``stage`` run in ``stage_dir``: its manifest
    must have the written shape and ``stage``'s hash under this config, and
    the file the sha256 recorded there. Returns ``(path, load(path))``."""
    manifest_path = stage_dir / "manifest.json"
    if not manifest_path.exists():
        raise StageError(f"missing upstream artifact: {manifest_path} "
                         f"(run the {stage} stage first)", EXIT_MISSING)
    manifest = _load(manifest_path, lambda p: json.loads(p.read_text(encoding="utf-8")))
    problem = _manifest_problem(manifest)
    if problem:
        raise StageError(f"malformed upstream manifest: {manifest_path} ({problem})",
                         EXIT_MISSING)
    if manifest["config_hash"] != cfg.config_hash(stage):
        raise StageError(
            f"config hash mismatch against {manifest_path}: upstream artifacts were "
            f"produced under other values of the {stage} keys "
            f"({', '.join(STAGE_KEYS[stage])})",
            EXIT_CONFIG,
        )
    entry = manifest["outputs"].get(name)
    if entry is None:
        raise StageError(f"upstream manifest lacks output {name!r}", EXIT_MISSING)

    def recorded(path):
        if _sha256(path) != entry["sha256"]:
            raise StageError(f"modified upstream artifact: {path} "
                             "(its sha256 differs from the manifest's)", EXIT_MISSING)
        return load(path)

    path = Path(entry["path"])
    return path, _load(path, recorded)


def _stage_dir(cfg: RunConfig, stage: str) -> Path:
    d = cfg.output_dir / stage
    d.mkdir(parents=True, exist_ok=True)
    return d


# --- stages -----------------------------------------------------------------

def cmd_calibrate(cfg: RunConfig) -> int:
    """Probe the world before training: success-rate gap and KL bimodality."""
    stage = _stage_dir(cfg, "calibrate")
    pair = make_policy_pair(cfg.env)
    n = cfg.collect_episodes

    # One reset per seed serves its fixed_low episode and its klst collection
    # episode. klst collection rolls out exactly the fixed_high episodes and
    # keeps the successful ones, so its count is fixed_high's success count.
    # Only D values are written, so no step is embedded.
    low, collection = run_drivers(cfg.env, pair, [FixedLow(), KlstCollect(embed_dim=None)],
                                  range(n), master_seed=cfg.master_seed, workers=cfg.workers)
    collected, stats = klst.keep_successful(collection)
    d_values = np.sort(np.asarray(
        [s.d_t for traj in collected for s in traj.steps], dtype=np.float64
    ))

    high_rate = stats.n_collected / n
    low_rate = float(np.mean([t.success for t in low]))
    low_cut = 1.5 * cfg.env.divergence_low
    high_cut = 0.8 * cfg.env.divergence_high
    frac_low = float(np.mean(d_values < low_cut))
    frac_high = float(np.mean(d_values > high_cut))
    below = d_values[d_values < low_cut]
    above = d_values[d_values > high_cut]
    separated = below.size > 0 and above.size > 0 and float(below.max()) < float(above.min())

    checks = {
        "kl_mass_low_mode": frac_low >= 0.80,
        "kl_mass_high_mode": frac_high >= 0.10,
        "kl_modes_separated": separated,
        "fixed_high_success": high_rate >= 0.95,
        "success_gap": (high_rate - low_rate) >= 0.15,
    }

    values_path = stage / "d_values.csv"
    _write_csv(values_path, ["D"], ({"D": v} for v in d_values.tolist()))
    hist_path = stage / "d_histogram.csv"
    counts, edges = np.histogram(d_values, bins=40)
    edges = edges.tolist()
    _write_csv(hist_path, ["bin_left", "bin_right", "count"],
               ({"bin_left": left, "bin_right": right, "count": c}
                for left, right, c in zip(edges, edges[1:], counts.tolist())))
    report_path = stage / "calibration.json"
    _write_json(report_path, {
        "episodes": n,
        "fixed_high_success": high_rate,
        "fixed_low_success": low_rate,
        "collected": stats.n_collected,
        "discarded": stats.n_discarded,
        "kl_fraction_below_1p5_low": frac_low,
        "kl_fraction_above_0p8_high": frac_high,
        "checks": checks,
    })

    _write_manifest(stage, "calibrate", cfg, {
        "calibration": report_path,
        "d_values": values_path,
        "d_histogram": hist_path,
    })
    for name, ok in checks.items():
        print(f"calibrate {name}: {'ok' if ok else 'FAILED'}")
    if not all(checks.values()):
        print("calibration invariants violated", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"calibration ok: S_high={high_rate:.3f} S_low={low_rate:.3f} "
          f"low-mode={frac_low:.2%} high-mode={frac_high:.2%}")
    return EXIT_OK


def cmd_collect(cfg: RunConfig) -> int:
    """KL-annotated high-precision rollouts -> labeled supervision dataset."""
    stage = _stage_dir(cfg, "collect")
    pair = make_policy_pair(cfg.env)
    trajectories, stats = klst.collect(
        cfg.env, pair, cfg.collect_episodes, master_seed=cfg.master_seed,
        embed_dim=cfg.router.embed_dim, workers=cfg.workers,
    )
    dataset = klst.build_supervision_dataset(trajectories, cfg.labeling)
    dataset_path = stage / "dataset.jsonl"
    cdf_path = stage / "cdf.json"
    klst.save_dataset(dataset, dataset_path, cdf_path)
    _write_manifest(stage, "collect", cfg,
                    {"dataset": dataset_path, "cdf": cdf_path},
                    extra={"episodes": stats.n_episodes,
                           "collected": stats.n_collected,
                           "discarded": stats.n_discarded,
                           "records": len(dataset.records),
                           "positives": int(sum(r.label for r in dataset.records))})
    print(f"collected {stats.n_collected}/{stats.n_episodes} episodes "
          f"({len(dataset.records)} records) -> {dataset_path}")
    return EXIT_OK


def cmd_train_klst(cfg: RunConfig) -> int:
    stage = _stage_dir(cfg, "klst")
    dataset_path, dataset = _upstream(cfg, cfg.output_dir / "collect", "collect", "dataset",
                                      klst.load_dataset)
    width = dataset.records[0].sequence.embeddings.shape[1]
    if width != cfg.router.embed_dim:
        raise StageError(f"malformed upstream artifact: {dataset_path} (embeddings "
                         f"{width} wide, router.embed_dim {cfg.router.embed_dim})",
                         EXIT_MISSING)

    params = RouterParams.initialize(cfg.router, seed=cfg.master_seed)
    result = klst.train_klst(dataset, params, cfg.klst_train)

    ckpt_path = stage / "router.ckpt"
    save_params(result.params, ckpt_path)
    metrics_path = stage / "metrics.csv"
    _write_csv(metrics_path, [f.name for f in fields(klst.EpochMetrics)],
               map(asdict, result.metrics))
    _write_manifest(stage, "train-klst", cfg,
                    {"checkpoint": ckpt_path, "metrics": metrics_path},
                    inputs={"dataset": dataset_path},
                    extra={"best_epoch": result.best_epoch,
                           "val_episodes": result.val_episodes})
    best = result.metrics[result.best_epoch - 1]
    print(f"klst training done: best epoch {result.best_epoch} "
          f"(balanced accuracy {best.val_balanced_accuracy:.3f}) -> {ckpt_path}")
    return EXIT_OK


def cmd_train_grpo(cfg: RunConfig) -> int:
    stage = _stage_dir(cfg, "grpo")
    checkpoint, init_params = _upstream(cfg, cfg.output_dir / "klst", "train-klst",
                                        "checkpoint", partial(load_params, config=cfg.router))

    pair = make_policy_pair(cfg.env)
    result = grpo.train_grpo(cfg.env, pair, init_params, cfg.grpo, cfg.reward)

    ckpt_path = stage / "router.ckpt"
    save_params(result.params, ckpt_path)
    curve_path = stage / "curve.csv"
    _write_csv(curve_path, [f.name for f in fields(grpo.GroupMetrics)], map(asdict, result.curve))
    _write_manifest(stage, "train-grpo", cfg,
                    {"checkpoint": ckpt_path, "curve": curve_path},
                    inputs={"init_checkpoint": checkpoint},
                    extra={"lr_scale": cfg.grpo_lr_scale,
                           "effective_learning_rate": cfg.grpo.learning_rate,
                           "groups": result.n_groups,
                           "episodes_used": result.episodes_used})
    last = result.curve[-1]
    print(f"grpo training done: {result.n_groups} groups, final success "
          f"{last.success_rate:.3f}, high ratio {last.mean_high_ratio:.3f} "
          f"-> {ckpt_path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    """Shared-seed sweep over baselines plus any trained checkpoints."""
    stage = _stage_dir(cfg, "eval")
    pair = make_policy_pair(cfg.env)

    specs = [BaselineSpec("fixed_low"), BaselineSpec("fixed_high")]
    specs += [BaselineSpec("random", p=p) for p in cfg.eval.random_ps]
    labels = {}
    inputs = {}
    for stage_name in ("klst", "grpo"):
        stage_dir = cfg.output_dir / stage_name
        if (stage_dir / "router.ckpt").exists() or (stage_dir / "manifest.json").exists():
            ckpt, params = _upstream(cfg, stage_dir, f"train-{stage_name}", "checkpoint",
                                     partial(load_params, config=cfg.router))
            specs.append(BaselineSpec("router", params=params, mode=cfg.eval.mode))
            labels[len(specs) - 1] = f"router-{stage_name}[{cfg.eval.mode}]"
            inputs[f"{stage_name}_checkpoint"] = ckpt

    reports = sweep(cfg.env, pair, specs, cfg.eval.episodes,
                    master_seed=cfg.master_seed,
                    episode_seed_start=cfg.eval.episode_seed_start, workers=cfg.workers)
    for idx, label in labels.items():
        reports[idx].method = label

    csv_path = stage / "report.csv"
    json_path = stage / "report.json"
    _write_csv(csv_path, ["method", "n", "S", "c", "S_weak", "GHC"], _method_rows(reports))
    evaluation.save_report_json(reports, json_path)
    _write_manifest(stage, "eval", cfg, {"report_csv": csv_path, "report_json": json_path},
                    inputs=inputs)
    for r in reports:
        g = "undefined" if r.ghc is None else f"{r.ghc:.3f}"
        print(f"eval {r.method}: S={r.success_rate:.3f} c={r.high_ratio:.3f} GHC={g}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    """Combine eval artifacts into a single frontier + summary export."""
    stage = _stage_dir(cfg, "export")
    report_json, reports = _upstream(cfg, cfg.output_dir / "eval", "eval", "report_json",
                                     evaluation.load_report_json)

    rows = _method_rows(reports)
    frontier_path = stage / "frontier.csv"
    _write_csv(frontier_path, ["method", "c", "S", "GHC"], rows)
    summary_path = stage / "summary.json"
    _write_json(summary_path, {"methods": [
        {name: value for name, value in row.items() if name != "n"} for row in rows]})
    _write_manifest(stage, "export", cfg,
                    {"frontier": frontier_path, "summary": summary_path},
                    inputs={"report_json": report_json})
    print(f"export written to {stage}")
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    """Each flag stores its value under the config key it overrides."""
    parser = argparse.ArgumentParser(
        prog="mixroute",
        description="Step-level mix-precision routing pipeline",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML run config (defaults used when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=None,
                        help="episode-level parallelism for collect/eval")
    parser.add_argument("--out", dest="output_dir", type=lambda v: str(Path(v)),
                        default=None, metavar="OUT", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("calibrate", help="verify world invariants before training")

    p_collect = sub.add_parser("collect", help="collect the KL supervision dataset")
    p_collect.add_argument("--episodes", dest="klst.episodes", type=int, default=None,
                           metavar="N")
    p_collect.add_argument("--tau", dest="klst.tau", type=float, default=None, metavar="TAU")

    sub.add_parser("train-klst", help="stage-1 supervised router training")

    p_grpo = sub.add_parser("train-grpo", help="stage-2 cost-aware policy optimization")
    p_grpo.add_argument("--lambda-high", dest="grpo.lambda_high", type=float, default=None,
                        metavar="LAMBDA_HIGH")
    p_grpo.add_argument("--beta", dest="grpo.beta", type=float, default=None, metavar="BETA")
    p_grpo.add_argument("--group-size", dest="grpo.group_size", type=int, default=None,
                        metavar="GROUP_SIZE")
    p_grpo.add_argument("--episodes", dest="grpo.episode_budget", type=int, default=None,
                        metavar="N", help="episode budget override")

    p_eval = sub.add_parser("eval", help="shared-seed baseline and router sweep")
    p_eval.add_argument("--episodes", dest="eval.episodes", type=int, default=None,
                        metavar="N")

    sub.add_parser("export", help="combine eval artifacts into frontier exports")
    return parser


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    config_path = overrides.pop("config")
    try:
        cfg = load_run_config(config_path, overrides)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    commands = {
        "calibrate": cmd_calibrate,
        "collect": cmd_collect,
        "train-klst": cmd_train_klst,
        "train-grpo": cmd_train_grpo,
        "eval": cmd_eval,
        "export": cmd_export,
    }
    try:
        return commands[command](cfg)
    except StageError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    except EnvConfigError as exc:  # a divergence target the world cannot reach
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except klst.EmptyCollectionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
