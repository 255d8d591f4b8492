"""Pipeline CLI: calibrate, collect, train-klst, train-grpo, eval, export.

Every stage writes its artifacts plus a manifest.json (config hash, seed,
input/output file hashes) under <output_dir>/<stage>/. Re-running a stage
with the same config and seed reproduces every artifact byte-identically;
manifests therefore carry no timestamps. Downstream stages refuse upstream
artifacts produced under a different config hash, and check the sha256 of
each upstream file against its manifest.

Exit codes: 0 success, 2 config error, 3 invariant/calibration failure,
4 missing, unreadable, malformed or modified artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, grpo, klst
from .config import ConfigValidationError, RunConfig, load_run_config
from .env import FixedLow, KlstCollect, make_policy_pair, run_drivers
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


def _write_manifest(stage_dir: Path, stage: str, cfg: RunConfig,
                    outputs: dict[str, Path], inputs: dict[str, Path] | None = None,
                    extra: dict | None = None) -> None:
    manifest = {
        "stage": stage,
        "config_hash": cfg.config_hash,
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
    (stage_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_manifest(stage_dir: Path, stage: str, cfg: RunConfig) -> dict:
    path = stage_dir / "manifest.json"
    if not path.exists():
        raise StageError(
            f"missing upstream artifact: {path} (run the {stage} stage first)",
            EXIT_MISSING,
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise StageError(f"unreadable upstream artifact: {path} ({exc})", EXIT_MISSING)
    problem = _manifest_problem(manifest)
    if problem:
        raise StageError(f"malformed upstream manifest: {path} ({problem})", EXIT_MISSING)
    if manifest["config_hash"] != cfg.config_hash:
        raise StageError(
            f"config hash mismatch against {path}: upstream artifacts were "
            "produced under a different configuration",
            EXIT_CONFIG,
        )
    return manifest


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


def _upstream_output(manifest: dict, name: str) -> Path:
    entry = manifest["outputs"].get(name)
    if entry is None:
        raise StageError(f"upstream manifest lacks output {name!r}", EXIT_MISSING)
    path = Path(entry["path"])
    if not path.exists():
        raise StageError(f"missing upstream artifact: {path}", EXIT_MISSING)
    if _sha256(path) != entry["sha256"]:
        raise StageError(
            f"modified upstream artifact: {path} (its sha256 differs from the manifest's)",
            EXIT_MISSING,
        )
    return path


def _load_checkpoint(path: Path, cfg: RunConfig) -> RouterParams:
    try:
        return load_params(path, cfg.router)
    except CheckpointError as exc:
        raise StageError(f"{path} is not a usable router checkpoint: {exc}", EXIT_MISSING)


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
    low, collection = run_drivers(cfg.env, pair, [FixedLow(), KlstCollect()], range(n),
                                  master_seed=cfg.master_seed,
                                  embed_dim=cfg.router.embed_dim, workers=cfg.workers)
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
    with open(values_path, "w", encoding="utf-8") as f:
        f.write("D\n")
        for v in d_values:
            f.write(f"{v!r}\n")
    hist_path = stage / "d_histogram.csv"
    counts, edges = np.histogram(d_values, bins=40)
    with open(hist_path, "w", encoding="utf-8") as f:
        f.write("bin_left,bin_right,count\n")
        for i, c in enumerate(counts):
            f.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")
    report_path = stage / "calibration.json"
    report_path.write_text(json.dumps({
        "episodes": n,
        "fixed_high_success": high_rate,
        "fixed_low_success": low_rate,
        "collected": stats.n_collected,
        "discarded": stats.n_discarded,
        "kl_fraction_below_1p5_low": frac_low,
        "kl_fraction_above_0p8_high": frac_high,
        "checks": checks,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

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
    upstream = _read_manifest(cfg.output_dir / "collect", "collect", cfg)
    dataset_path = _upstream_output(upstream, "dataset")
    try:
        dataset = klst.load_dataset(dataset_path)
    except (ValueError, KeyError) as exc:
        raise StageError(f"unreadable upstream artifact: {dataset_path} ({exc})",
                         EXIT_MISSING)

    params = RouterParams.initialize(cfg.router, seed=cfg.master_seed)
    result = klst.train_klst(dataset, params, cfg.klst_train)

    ckpt_path = stage / "router.ckpt"
    save_params(result.params, ckpt_path)
    metrics_path = stage / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write("epoch,train_loss,val_accuracy,val_balanced_accuracy\n")
        for m in result.metrics:
            f.write(f"{m.epoch},{m.train_loss!r},{m.val_accuracy!r},"
                    f"{m.val_balanced_accuracy!r}\n")
    _write_manifest(stage, "train-klst", cfg,
                    {"checkpoint": ckpt_path, "metrics": metrics_path},
                    inputs={"dataset": dataset_path},
                    extra={"best_epoch": result.best_epoch,
                           "val_episodes": result.val_episodes})
    best = result.metrics[result.best_epoch - 1]
    print(f"klst training done: best epoch {result.best_epoch} "
          f"(balanced accuracy {best.val_balanced_accuracy:.3f}) -> {ckpt_path}")
    return EXIT_OK


def cmd_train_grpo(cfg: RunConfig, checkpoint: Path | None = None) -> int:
    stage = _stage_dir(cfg, "grpo")
    if checkpoint is None:
        upstream = _read_manifest(cfg.output_dir / "klst", "train-klst", cfg)
        checkpoint = _upstream_output(upstream, "checkpoint")
    else:
        checkpoint = Path(checkpoint)
        if not checkpoint.exists():
            raise StageError(f"missing upstream artifact: {checkpoint}", EXIT_MISSING)
    init_params = _load_checkpoint(checkpoint, cfg)

    pair = make_policy_pair(cfg.env)
    result = grpo.train_grpo(cfg.env, pair, init_params, cfg.grpo, cfg.reward)

    ckpt_path = stage / "router.ckpt"
    save_params(result.params, ckpt_path)
    curve_path = stage / "curve.csv"
    grpo.save_training_curve(result.curve, curve_path)
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
            upstream = _read_manifest(stage_dir, f"train-{stage_name}", cfg)
            ckpt = _upstream_output(upstream, "checkpoint")
            spec = BaselineSpec("router", params=_load_checkpoint(ckpt, cfg),
                                mode=cfg.eval.mode)
            specs.append(spec)
            labels[len(specs) - 1] = f"router-{stage_name}[{cfg.eval.mode}]"
            inputs[f"{stage_name}_checkpoint"] = ckpt

    reports = sweep(cfg.env, pair, specs, cfg.eval.episodes,
                    master_seed=cfg.master_seed,
                    episode_seed_start=cfg.eval.episode_seed_start, workers=cfg.workers)
    for idx, label in labels.items():
        reports[idx].method = label

    csv_path = stage / "report.csv"
    json_path = stage / "report.json"
    frontier_path = stage / "frontier.csv"
    evaluation.save_report_csv(reports, csv_path)
    evaluation.save_report_json(reports, json_path)
    evaluation.save_frontier_csv(reports, frontier_path)
    _write_manifest(stage, "eval", cfg,
                    {"report_csv": csv_path, "report_json": json_path,
                     "frontier": frontier_path},
                    inputs=inputs)
    for r in reports:
        g = "undefined" if r.ghc is None else f"{r.ghc:.3f}"
        print(f"eval {r.method}: S={r.success_rate:.3f} c={r.high_ratio:.3f} GHC={g}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    """Combine eval artifacts into a single frontier + summary export."""
    stage = _stage_dir(cfg, "export")
    upstream = _read_manifest(cfg.output_dir / "eval", "eval", cfg)
    report_json = _upstream_output(upstream, "report_json")
    try:
        reports = evaluation.load_report_json(report_json)
    except (ValueError, KeyError, TypeError) as exc:
        raise StageError(f"unreadable upstream artifact: {report_json} ({exc})",
                         EXIT_MISSING)

    frontier_path = stage / "frontier.csv"
    evaluation.save_frontier_csv(reports, frontier_path)
    summary_path = stage / "summary.json"
    summary_path.write_text(json.dumps({
        "methods": [
            {"method": r.method, "S": r.success_rate, "c": r.high_ratio,
             "S_weak": r.weak_success_rate, "GHC": r.ghc}
            for r in reports
        ],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(stage, "export", cfg,
                    {"frontier": frontier_path, "summary": summary_path},
                    inputs={"report_json": report_json})
    print(f"export written to {stage}")
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixroute",
        description="Step-level mix-precision routing pipeline",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML run config (defaults used when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=None,
                        help="episode-level parallelism for collect/eval")
    parser.add_argument("--out", type=Path, default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("calibrate", help="verify world invariants before training")

    p_collect = sub.add_parser("collect", help="collect the KL supervision dataset")
    p_collect.add_argument("--episodes", type=int, default=None)
    p_collect.add_argument("--tau", type=float, default=None)

    sub.add_parser("train-klst", help="stage-1 supervised router training")

    p_grpo = sub.add_parser("train-grpo", help="stage-2 cost-aware policy optimization")
    p_grpo.add_argument("--checkpoint", type=Path, default=None,
                        help="explicit stage-1 checkpoint (defaults to the klst stage output)")
    p_grpo.add_argument("--lambda-high", type=float, default=None)
    p_grpo.add_argument("--beta", type=float, default=None)
    p_grpo.add_argument("--group-size", type=int, default=None)
    p_grpo.add_argument("--episodes", type=int, default=None,
                        help="episode budget override")

    p_eval = sub.add_parser("eval", help="shared-seed baseline and router sweep")
    p_eval.add_argument("--episodes", type=int, default=None)

    sub.add_parser("export", help="combine eval artifacts into frontier exports")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    mapping = {
        "seed": "seed",
        "workers": "workers",
        "tau": "klst.tau",
        "lambda_high": "grpo.lambda_high",
        "beta": "grpo.beta",
        "group_size": "grpo.group_size",
    }
    out = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[key] = value
    if getattr(args, "out", None) is not None:
        out["output_dir"] = str(args.out)
    episodes = getattr(args, "episodes", None)
    if episodes is not None:
        if args.command == "collect":
            out["klst.episodes"] = episodes
        elif args.command == "eval":
            out["eval.episodes"] = episodes
        elif args.command == "train-grpo":
            out["grpo.episode_budget"] = episodes
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, _overrides(args))
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    commands = {
        "calibrate": cmd_calibrate,
        "collect": cmd_collect,
        "train-klst": cmd_train_klst,
        "eval": cmd_eval,
        "export": cmd_export,
    }
    try:
        if args.command == "train-grpo":
            return cmd_train_grpo(cfg, checkpoint=args.checkpoint)
        return commands[args.command](cfg)
    except StageError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    except klst.EmptyCollectionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
