"""CLI stages, exit codes, manifests and provenance guards."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mixroute.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_MISSING,
    EXIT_OK,
    main,
)
from mixroute.config import ConfigValidationError, load_run_config
from mixroute.env import FixedHigh, make_policy_pair, run_episodes
from mixroute.router import load_params

from helpers import write_version1_checkpoint


def small_config(out_dir, **tweaks):
    cfg = {
        "seed": 0,
        "output_dir": str(out_dir),
        "env": {"horizon": 12},
        "router": {"embed_dim": 16, "num_heads": 2, "ffn_dim": 32, "max_len": 16},
        "klst": {"episodes": 30, "epochs": 1},
        "grpo": {"episode_budget": 8, "group_size": 4, "lr_scale": 100.0},
        "eval": {"episodes": 20, "random_ps": [0.3, 0.7]},
    }
    for dotted, value in tweaks.items():
        node = cfg
        parts = dotted.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return cfg


def write_config(tmp_path, out_dir, **tweaks):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(small_config(out_dir, **tweaks)))
    return path


def test_load_run_config_defaults():
    cfg = load_run_config(None)
    assert cfg.env.horizon == 12
    assert cfg.labeling.threshold == 0.85
    assert cfg.klst_train.epochs == 5
    assert cfg.klst_train.batch_size == 64
    assert cfg.klst_train.learning_rate == 1e-4
    assert cfg.grpo.beta == 0.02
    assert cfg.grpo.learning_rate == 1e-6
    assert cfg.grpo.episode_budget == 120
    assert cfg.collect_episodes == 200
    assert cfg.reward.lambda_high == 0.02


def test_config_collects_every_violation():
    with pytest.raises(ConfigValidationError) as err:
        load_run_config(None, {
            "env.horizon": 0,
            "klst.tau": 1.5,
            "router.num_precisions": 3,
        })
    text = str(err.value)
    assert "horizon" in text
    assert "threshold" in text or "tau" in text
    assert "num_precisions" in text


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"sneaky": 1, "env": {"horizont": 3}}))
    with pytest.raises(ConfigValidationError) as err:
        load_run_config(path)
    assert "sneaky" in str(err.value)
    assert "horizont" in str(err.value)


def test_config_rejects_retired_dropout_key(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"router": {"dropout": 0.0}}))
    with pytest.raises(ConfigValidationError) as err:
        load_run_config(path)
    assert "unknown key router.dropout" in str(err.value)


def test_config_hash_is_stable_and_sensitive():
    a = load_run_config(None)
    b = load_run_config(None)
    assert a.config_hash == b.config_hash
    c = load_run_config(None, {"klst.tau": 0.8})
    assert c.config_hash != a.config_hash


def test_float_keys_take_numeric_strings_and_keep_the_hash(tmp_path):
    """PyYAML reads an exponent without a dot, such as 1e-4, as a string;
    a float key still takes it, and reading values changes no config hash."""
    path = tmp_path / "config.yaml"
    path.write_text("klst:\n  learning_rate: 1e-4\ngrpo:\n  beta: '0.5'\n")
    cfg = load_run_config(path)
    assert cfg.klst_train.learning_rate == 1e-4
    assert cfg.grpo.beta == 0.5
    assert cfg.config_hash == "487251b25cb66e81eeddb5821926c6efee9b4e7e0a8ba2c0ab79d87d05a002e5"
    assert load_run_config(None).config_hash == \
        "a5185b663b79ab593c000f12a4f826a65037303fca44d0974db76cac7f188375"


def test_invalid_config_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **{"env.horizon": 0})
    assert main(["--config", str(cfg), "collect"]) == EXIT_CONFIG
    assert not out.exists()  # validate-then-run: nothing written


def _tweaked_config(key, value):
    return lambda tmp_path, out: (write_config(tmp_path, out, **{key: value}), key)


def _directory_config(tmp_path, out):
    path = tmp_path / "config.d"
    path.mkdir()
    return path, str(path)


def _latin1_config(tmp_path, out):
    path = tmp_path / "config.yaml"
    path.write_bytes(f"output_dir: {out}\n# caf\xe9\n".encode("latin-1"))
    return path, str(path)


@pytest.mark.parametrize("make_config", [
    _tweaked_config("klst.episodes", "abc"),
    _tweaked_config("workers", "two"),
    _tweaked_config("seed", "x"),
    _tweaked_config("klst.episodes", 2.7),
    _tweaked_config("router.embed_dim", 8.9),
    _tweaked_config("eval.episodes", True),
    _directory_config,
    _latin1_config,
    _tweaked_config("output_dir", 5),
    _tweaked_config("eval.episode_seed_start", -5),
    _tweaked_config("grpo.lr_scale", True),
    lambda tmp_path, out: (write_config(tmp_path, out, **{"eval.random_ps": [True, False]}),
                           "eval.random_ps[0]"),
    _tweaked_config("env.divergence_low", float("nan")),
    _tweaked_config("klst.learning_rate", float("nan")),
    _tweaked_config("grpo.learning_rate", float("inf")),
    _tweaked_config("klst.tau", "high"),
], ids=["str-episodes", "str-workers", "str-seed", "float-episodes", "float-embed-dim",
        "bool-eval-episodes", "directory", "not-utf8", "int-output-dir",
        "negative-seed-start", "bool-lr-scale", "bool-random-ps", "nan-divergence",
        "nan-klst-lr", "inf-grpo-lr", "str-tau"])
def test_unusable_config_exits_2_naming_it(tmp_path, capsys, make_config):
    """A value an integer key cannot take as it stands, a float key given a
    bool, a non-finite or a non-numeric value, a negative eval seed, an
    output_dir that is not a path, or a config file that cannot be read, is
    a config error naming the key or the file; nothing is converted,
    truncated or run."""
    out = tmp_path / "out"
    cfg, named = make_config(tmp_path, out)
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_ok_and_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **{"klst.episodes": 60})
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_OK
    assert (out / "calibrate" / "d_histogram.csv").exists()
    assert (out / "calibrate" / "d_values.csv").exists()
    report = json.loads((out / "calibrate" / "calibration.json").read_text())
    assert all(report["checks"].values())


def test_calibrate_fixed_high_success_is_a_fixed_high_rollout(tmp_path):
    """calibrate reads S_high off the klst collection; it must equal the
    success rate of fixed_high rollouts on the same seeds."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_OK
    report = json.loads((out / "calibrate" / "calibration.json").read_text())
    run = load_run_config(cfg)
    high = run_episodes(run.env, make_policy_pair(run.env), FixedHigh(),
                        range(report["episodes"]), master_seed=run.master_seed)
    assert report["fixed_high_success"] == float(np.mean([t.success for t in high]))


def test_calibrate_equal_divergences_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **{"env.divergence_high": 0.01})
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_CONFIG


def test_calibrate_degenerate_divergence_gap_fails_invariants(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out,
                       **{"env.divergence_high": 0.0100001, "klst.episodes": 40})
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_INVARIANT


def test_pipeline_stages_and_manifests(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_OK
    assert main(["--config", str(cfg), "train-grpo"]) == EXIT_OK
    assert main(["--config", str(cfg), "eval"]) == EXIT_OK
    assert main(["--config", str(cfg), "export"]) == EXIT_OK

    for stage in ("collect", "klst", "grpo", "eval", "export"):
        manifest = json.loads((out / stage / "manifest.json").read_text())
        assert manifest["config_hash"]
        for entry in manifest["outputs"].values():
            assert Path(entry["path"]).exists()
    grpo_manifest = json.loads((out / "grpo" / "manifest.json").read_text())
    assert grpo_manifest["extra"]["lr_scale"] == 100.0
    report = json.loads((out / "eval" / "report.json").read_text())
    methods = {r["method"] for r in report}
    assert "router-klst[greedy]" in methods and "router-grpo[greedy]" in methods


def test_eval_baseline_only_succeeds(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "eval"]) == EXIT_OK
    report = json.loads((out / "eval" / "report.json").read_text())
    assert {r["method"] for r in report} == {
        "fixed_low", "fixed_high", "random@0.3", "random@0.7"
    }


def test_train_klst_without_collect_is_missing_artifact(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_MISSING


@pytest.mark.parametrize("artifact, stage", [
    ("collect/manifest.json", "train-klst"),
    ("collect/dataset.jsonl", "train-klst"),
    ("klst/router.ckpt", "eval"),
    ("eval/report.json", "export"),
])
def test_truncated_upstream_artifact_is_unreadable(tmp_path, capsys, artifact, stage):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    upstream = {"collect": ["collect"], "klst": ["collect", "train-klst"], "eval": ["eval"]}
    for command in upstream[artifact.split("/")[0]]:
        assert main(["--config", str(cfg), command]) == EXIT_OK
    path = out / artifact
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    capsys.readouterr()
    assert main(["--config", str(cfg), stage]) == EXIT_MISSING
    assert str(path) in capsys.readouterr().err


def _malformed(manifest, case):
    """The collect manifest broken in one of the ways a stage must refuse."""
    entry = manifest["outputs"]["dataset"]
    if case == "manifest-is-a-list":
        return [manifest]
    if case == "entry-is-a-path-string":
        manifest["outputs"]["dataset"] = entry["path"]
    elif case == "outputs-is-a-list":
        manifest["outputs"] = list(manifest["outputs"].values())
    elif case == "entry-without-path":
        del entry["path"]
    elif case == "path-is-an-int":
        entry["path"] = 7
    elif case == "entry-without-sha256":
        del entry["sha256"]
    return manifest


@pytest.mark.parametrize("case", [
    "entry-is-a-path-string", "manifest-is-a-list", "outputs-is-a-list",
    "entry-without-path", "path-is-an-int", "entry-without-sha256",
])
def test_malformed_upstream_manifest_is_refused(tmp_path, capsys, case):
    """A manifest that parses but lacks the shape a stage writes exits 4,
    naming the manifest, before any of its entries is used."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    path = out / "collect" / "manifest.json"
    path.write_text(json.dumps(_malformed(json.loads(path.read_text()), case)))
    capsys.readouterr()
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert f"malformed upstream manifest: {path}" in err


def _record_sha256(manifest_path, output, path):
    """Write ``path``'s current sha256 into the manifest, as if the stage had
    written the file itself."""
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][output]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _relabel_negatives(path):
    text = path.read_text()
    assert '"y": 0' in text
    path.write_text(text.replace('"y": 0', '"y": 1'))


def _flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def _edit_report(path):
    report = json.loads(path.read_text())
    report[0]["method"] = "edited"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))


@pytest.mark.parametrize("artifact, edit, upstream, stage", [
    pytest.param("collect/dataset.jsonl", _relabel_negatives, ["collect"], "train-klst",
                 id="relabelled-dataset-train-klst"),
    pytest.param("klst/router.ckpt", _flip_last_byte, ["collect", "train-klst"], "train-grpo",
                 id="flipped-checkpoint-train-grpo"),
    pytest.param("klst/router.ckpt", _flip_last_byte, ["collect", "train-klst"], "eval",
                 id="flipped-checkpoint-eval"),
    pytest.param("eval/report.json", _edit_report, ["eval"], "export",
                 id="edited-report-export"),
])
def test_modified_upstream_artifact_is_refused(tmp_path, capsys, artifact, edit,
                                               upstream, stage):
    """An artifact that still parses but differs from the sha256 its
    manifest recorded is refused, naming the file."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    for command in upstream:
        assert main(["--config", str(cfg), command]) == EXIT_OK
    path = out / artifact
    edit(path)
    capsys.readouterr()
    assert main(["--config", str(cfg), stage]) == EXIT_MISSING
    assert str(path) in capsys.readouterr().err


def test_eval_refuses_version_1_checkpoint(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_OK
    path = out / "klst" / "router.ckpt"
    write_version1_checkpoint(load_params(path), path)
    _record_sha256(out / "klst" / "manifest.json", "checkpoint", path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "eval"]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert str(path) in err and "version 1" in err


def test_train_grpo_rejects_non_checkpoint(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    dataset = out / "collect" / "dataset.jsonl"
    code = main(["--config", str(cfg), "train-grpo", "--checkpoint", str(dataset)])
    assert code == EXIT_MISSING


def test_config_hash_mismatch_guard(tmp_path):
    out = tmp_path / "out"
    cfg_a = write_config(tmp_path, out)
    assert main(["--config", str(cfg_a), "collect"]) == EXIT_OK
    cfg_b = tmp_path / "config_b.yaml"
    cfg_b.write_text(yaml.safe_dump(small_config(out, **{"klst.tau": 0.78})))
    assert main(["--config", str(cfg_b), "train-klst"]) == EXIT_CONFIG


def test_seed_override_changes_artifacts(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_config(tmp_path, out_a)
    assert main(["--config", str(cfg_a), "--seed", "1", "collect"]) == EXIT_OK
    cfg_b = tmp_path / "config_b.yaml"
    cfg_b.write_text(yaml.safe_dump(small_config(out_b)))
    assert main(["--config", str(cfg_b), "--seed", "2", "collect"]) == EXIT_OK
    a = (out_a / "collect" / "dataset.jsonl").read_bytes()
    b = (out_b / "collect" / "dataset.jsonl").read_bytes()
    assert a != b


def test_collect_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in (out / "collect").iterdir()}
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    second = {p.name: p.read_bytes() for p in (out / "collect").iterdir()}
    assert first == second
