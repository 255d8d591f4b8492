"""CLI stages, exit codes, manifests and provenance guards."""

import csv
import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

import mixroute.cli as cli
from mixroute.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_MISSING,
    EXIT_OK,
    main,
)
from mixroute.config import DEFAULTS, STAGE_KEYS, ConfigValidationError, load_run_config
from mixroute.env import FixedHigh, KlstCollect, make_policy_pair, run_episodes
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


def test_empty_critical_steps_is_an_explicit_empty_set(tmp_path):
    """[] names no critical step; only null seeds them per episode."""
    path = tmp_path / "config.yaml"
    path.write_text("env:\n  critical_steps: []\n")
    assert load_run_config(path).env.critical_steps == frozenset()
    assert load_run_config(None).env.critical_steps is None


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


@pytest.mark.parametrize("key", ["router.num_precisions", "klst.select_by"])
def test_config_rejects_retired_keys(tmp_path, key):
    """Keys that were no-ops are gone: a YAML that sets one is refused."""
    section, name = key.split(".")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({section: {name: 2}}))
    with pytest.raises(ConfigValidationError) as err:
        load_run_config(path)
    assert f"unknown key {key}" in str(err.value)


def test_config_hash_is_stable_and_sensitive():
    a = load_run_config(None)
    b = load_run_config(None)
    assert all(a.config_hash(stage) == b.config_hash(stage) for stage in STAGE_KEYS)
    c = load_run_config(None, {"klst.tau": 0.8})
    assert c.config_hash("calibrate") == a.config_hash("calibrate")
    assert c.config_hash("collect") != a.config_hash("collect")


def _stage_hashes(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    cfg = load_run_config(path)
    return cfg, {stage: cfg.config_hash(stage) for stage in STAGE_KEYS}


def test_float_keys_take_numeric_strings_and_keep_the_hash(tmp_path):
    """PyYAML reads an exponent without a dot, such as 1e-4, as a string;
    a float key still takes it, every stage hashes it as the float it
    stands for, and reading values changes no config hash."""
    cfg, hashes = _stage_hashes(tmp_path, "klst:\n  learning_rate: 1e-4\n"
                                          "grpo:\n  beta: '0.5'\n")
    assert cfg.klst_train.learning_rate == 1e-4
    assert cfg.grpo.beta == 0.5
    assert hashes == _stage_hashes(tmp_path, "klst:\n  learning_rate: 1.0e-4\n"
                                             "grpo:\n  beta: 0.5\n")[1]
    assert load_run_config(None).config_hash("eval") == \
        "585eec88f2c2ce48cba03d9fafebffade4235960da42ff5923a4305518f61490"


@pytest.mark.parametrize("written, equal", [
    ("grpo:\n  lr_scale: 100\n", "grpo:\n  lr_scale: 100.0\n"),
    ("env:\n  critical_steps: [5, 3, 3]\n", "env:\n  critical_steps: [3, 5]\n"),
    ("eval:\n  random_ps: [0, 1]\n", "eval:\n  random_ps: [0.0, 1.0]\n"),
    ("router:\n  ffn_dim: 0\n", "router:\n  ffn_dim: 256\n"),
], ids=["int-in-float-key", "unsorted-critical-steps", "ints-in-float-list", "ffn-dim-zero"])
def test_configs_that_load_equal_hash_equal(tmp_path, written, equal):
    """Each stage hashes a key's validated value: an int in a float key as
    the float, critical_steps as the sorted set of steps it names, an
    ffn_dim of 0 as the 4 * embed_dim it builds to."""
    assert _stage_hashes(tmp_path, written)[1] == _stage_hashes(tmp_path, equal)[1]


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
    _tweaked_config("klst.learning_rate", -1e-4),
    _tweaked_config("klst.learning_rate", 0),
    lambda tmp_path, out: (write_config(tmp_path, out, **{"grpo.learning_rate": 1e200,
                                                          "grpo.lr_scale": 1e200}),
                           "grpo.learning_rate"),
    lambda tmp_path, out: (write_config(tmp_path, out, **{"grpo.episode_budget": 4,
                                                          "grpo.group_size": 8}),
                           "episode_budget 4"),
    lambda tmp_path, out: (write_config(tmp_path, out, **{"grpo.group_size": 1}),
                           "group_size must be >= 2"),
], ids=["str-episodes", "str-workers", "str-seed", "float-episodes", "float-embed-dim",
        "bool-eval-episodes", "directory", "not-utf8", "int-output-dir",
        "negative-seed-start", "bool-lr-scale", "bool-random-ps", "nan-divergence",
        "nan-klst-lr", "inf-grpo-lr", "str-tau", "negative-klst-lr", "zero-klst-lr",
        "overflowing-grpo-lr", "budget-below-group", "group-of-one"])
def test_unusable_config_exits_2_naming_it(tmp_path, capsys, make_config):
    """A value an integer key cannot take as it stands, a float key given a
    bool, a non-finite or a non-numeric value, a learning rate that is not
    finite and > 0 (for stage 2, after lr_scale), a negative eval seed, an
    output_dir that is not a path, a GRPO episode budget below one group, a
    GRPO group of one (its advantage is always 0, so stage 2 would step on
    rounding noise alone), or a config file that cannot be read, is a config
    error naming the key or the file; nothing is converted, truncated or
    run."""
    out = tmp_path / "out"
    cfg, named = make_config(tmp_path, out)
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("env:\n  horizon: x\n  actions: y\n", ["env.horizon", "env.actions"]),
    ("router:\n  embed_dim: x\n  max_len: y\n", ["router.embed_dim", "router.max_len"]),
    ("klst:\n  epochs: x\n  batch_size: y\n", ["klst.epochs", "klst.batch_size"]),
    ("grpo:\n  beta: x\n  group_size: y\n", ["grpo.beta", "grpo.group_size"]),
    ("env:\n  critical_steps: 5\n", ["env.critical_steps must be a list"]),
    ("eval:\n  random_ps: 0.5\n", ["eval.random_ps must be a list"]),
    ("env: 5\n", ["env must be a mapping"]),
], ids=["two-in-env", "two-in-router", "two-in-klst", "two-in-grpo", "int-critical-steps",
        "float-random-ps", "int-section"])
def test_config_error_names_every_bad_key(tmp_path, capsys, text, named):
    """Every unusable key is named, not only a section's first, and a value
    of the wrong shape is named by its key rather than by a Python error."""
    out = tmp_path / "out"
    path = tmp_path / "config.yaml"
    path.write_text(f"output_dir: {out}\n{text}")
    assert main(["--config", str(path), "calibrate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(key in err for key in named), err
    assert "object is not" not in err
    assert not out.exists()


def test_calibrate_ok_and_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **{"klst.episodes": 60})
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_OK
    assert (out / "calibrate" / "d_histogram.csv").exists()
    assert (out / "calibrate" / "d_values.csv").exists()
    report = json.loads((out / "calibrate" / "calibration.json").read_text())
    assert all(report["checks"].values())


def test_calibrate_embeds_no_step(tmp_path, monkeypatch):
    """Calibrate writes only D values, so its klst column embeds no step;
    its files equal those of a calibrate whose column embeds every step.
    Every step embedding, ``embed_step``'s and the step loop's, goes
    through ``env._embed``."""
    import mixroute.env as env_module

    embeds = []
    embed = env_module._embed
    monkeypatch.setattr(env_module, "_embed",
                        lambda *args: embeds.append(args) or embed(*args))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_OK
    assert embeds == []
    made = _files(out / "calibrate")

    shutil.rmtree(out)
    run_drivers = cli.run_drivers
    width = load_run_config(cfg).router.embed_dim
    monkeypatch.setattr(cli, "run_drivers", lambda env, pair, drivers, *args, **kw: run_drivers(
        env, pair, [KlstCollect(width) if isinstance(d, KlstCollect) else d for d in drivers],
        *args, **kw))
    assert main(["--config", str(cfg), "calibrate"]) == EXIT_OK
    assert embeds
    assert _files(out / "calibrate") == made


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


def test_unreachable_divergence_target_exits_2(tmp_path, capsys):
    """A divergence_high that the low policy cannot reach is a config error
    for each stage that rolls the world out; no stage writes a manifest."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **{"env.divergence_high": 50.0})
    for stage in ("calibrate", "collect", "eval"):
        assert main(["--config", str(cfg), stage]) == EXIT_CONFIG
        assert "divergence target" in capsys.readouterr().err
    assert not list(out.rglob("manifest.json"))


@pytest.mark.parametrize("tweak, key", [
    ({"env.actions": 2}, "divergence_low"),       # every action advances off the critical steps
    ({"env.divergence_high": 50.0}, "divergence_high"),
], ids=["ordinary-step", "critical-step"])
def test_unreachable_divergence_target_names_its_key(tmp_path, capsys, tweak, key):
    """The message advises lowering the key whose target is out of reach:
    divergence_low for an ordinary step, divergence_high for a critical one."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out, **tweak)
    for stage in ("calibrate", "collect"):
        assert main(["--config", str(cfg), stage]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unreachable" in err and err.rstrip().endswith(f"lower {key}")
    assert not list(out.rglob("manifest.json"))


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


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _csv_table(path):
    """``path``'s rows under its header, as dicts of cell text."""
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert rows and all(len(row) == len(header) for row in rows), path
    return [dict(zip(header, row)) for row in rows]


def test_csv_tables_and_json_documents_are_standard(tmp_path):
    """After the six stages, each CSV table has LF line ends, a header and
    rows as wide, and a number in every cell outside ``method``, except an
    empty GHC for undefined; each JSON document holds no NaN or Infinity.
    The frontier's GHC is its point's slope from (0, S_weak), and fixed_low's
    GHC is undefined in report.csv and frontier.csv alike."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    for stage in ("calibrate", "collect", "train-klst", "train-grpo", "eval", "export"):
        assert main(["--config", str(cfg), stage]) == EXIT_OK
    tables = {}
    for path in sorted(out.rglob("*.csv")):
        assert b"\r" not in path.read_bytes(), path
        tables[path.relative_to(out).as_posix()] = rows = _csv_table(path)
        for row in rows:
            for name, cell in row.items():
                if name != "method" and not (name == "GHC" and cell == ""):
                    float(cell)
    assert set(tables) == {"calibrate/d_values.csv", "calibrate/d_histogram.csv",
                           "klst/metrics.csv", "grpo/curve.csv", "eval/report.csv",
                           "export/frontier.csv"}
    documents = sorted(out.rglob("*.json"))
    assert len(documents) == 10
    for path in documents:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)

    report = {row["method"]: row for row in tables["eval/report.csv"]}
    frontier = tables["export/frontier.csv"]
    assert [row["method"] for row in frontier] == list(report)
    assert report["fixed_low"]["GHC"] == ""
    for row in frontier:
        assert (row["c"], row["S"], row["GHC"]) == tuple(
            report[row["method"]][name] for name in ("c", "S", "GHC"))
        if row["method"] == "fixed_low":
            assert row["GHC"] == ""
            continue
        slope = (float(row["S"]) - float(report[row["method"]]["S_weak"])) / float(row["c"])
        np.testing.assert_allclose(slope, float(row["GHC"]), rtol=0, atol=1e-12)


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


def _first_row_in_a_list(rows):
    rows[0] = [rows[0]]


def _first_steps_t_true(rows):
    for row in rows:
        if row["t"] == 1:
            row["t"] = True


def _first_row(key, value):
    def edit(rows):
        rows[0][key] = value
    return edit


def _nan_in_first_embedding(rows):
    rows[0]["embedding"][0] = float("nan")


def _cut_embeddings(episodes):
    """Cut to 3 entries the embeddings of the first ``episodes`` episodes
    (None: of every episode)."""
    def edit(rows):
        cut = sorted({row["episode"] for row in rows})[:episodes]
        for row in rows:
            if row["episode"] in cut:
                row["embedding"] = row["embedding"][:3]
    return edit


def _duplicate_first_row(rows):
    rows.append(dict(rows[0]))


def _drop_second_step(rows):
    rows.remove(next(row for row in rows if row["t"] == 2))


@pytest.mark.parametrize("edit, line", [
    pytest.param(_first_row_in_a_list, 1, id="line-is-a-list"),
    pytest.param(_first_steps_t_true, 1, id="t-is-a-bool"),
    pytest.param(_first_row("y", 2), 1, id="y-is-2"),
    pytest.param(_first_row("y", "1"), 1, id="y-is-a-string"),
    pytest.param(_first_row("D", float("nan")), 1, id="D-is-nan"),
    pytest.param(_nan_in_first_embedding, 1, id="embedding-holds-nan"),
    pytest.param(_cut_embeddings(1), None, id="one-episode-narrower"),
    pytest.param(_cut_embeddings(None), None, id="every-embedding-narrower-than-the-router"),
    pytest.param(_duplicate_first_row, None, id="duplicated-step"),
    pytest.param(_drop_second_step, None, id="missing-step"),
])
def test_train_klst_refuses_rows_save_dataset_cannot_write(tmp_path, capsys, edit, line):
    """A dataset line that save_dataset cannot have written, with the file's
    sha256 recorded, exits 4 naming the file (and the line, where one line
    is at fault) before any training."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    path = out / "collect" / "dataset.jsonl"
    rows = [json.loads(text) for text in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    _record_sha256(out / "collect" / "manifest.json", "dataset", path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert str(path) in err
    if line is not None:
        assert f"line {line}:" in err
    assert not (out / "klst" / "router.ckpt").exists()


def _report_entry(index, key, value):
    def edit(reports):
        reports[index][key] = value
    return edit


def _first_episode(key, value):
    def edit(reports):
        reports[0]["episodes"][0][key] = value
    return edit


def _drop_last_episode(reports):
    reports[0]["episodes"].pop()


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda reports: {"reports": reports}, "not a JSON list", id="not-a-list"),
    pytest.param(lambda reports: reports[:1] + [reports[1:]], "report 1:",
                 id="report-is-a-list"),
    pytest.param(_report_entry(2, "method", 3), "report 2:", id="method-is-an-int"),
    pytest.param(_report_entry(0, "n_episodes", True), "report 0:", id="n-is-a-bool"),
    pytest.param(_report_entry(0, "n_episodes", 0), "report 0:", id="n-is-0"),
    pytest.param(_report_entry(1, "success_rate", "0.5"), "report 1:",
                 id="success-rate-is-a-string"),
    pytest.param(_report_entry(1, "success_rate", 7.0), "report 1:", id="success-rate-is-7"),
    pytest.param(_report_entry(2, "high_ratio", float("nan")), "report 2:",
                 id="high-ratio-is-nan"),
    pytest.param(_report_entry(2, "ghc", "x"), "report 2:", id="ghc-is-a-string"),
    pytest.param(_report_entry(0, "master_seed", 0.0), "report 0:", id="seed-is-a-float"),
    pytest.param(_drop_last_episode, "report 0:", id="one-episode-short"),
    pytest.param(_first_episode("success", 1), "report 0:", id="success-is-an-int"),
    pytest.param(_first_episode("S", 99), "report 0:", id="S-above-T"),
])
def test_export_refuses_reports_save_report_json_cannot_write(tmp_path, capsys, edit,
                                                              named):
    """A report.json that save_report_json cannot have written, with the
    file's sha256 recorded, exits 4 naming the file and the report at fault
    before export writes anything."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "eval"]) == EXIT_OK
    path = out / "eval" / "report.json"
    reports = json.loads(path.read_text())
    path.write_text(json.dumps(edit(reports) or reports))
    _record_sha256(out / "eval" / "manifest.json", "report_json", path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "export"]) == EXIT_MISSING
    err = capsys.readouterr().err
    assert f"{path}, {named}" in err or f"{path}: {named}" in err
    assert not (out / "export" / "frontier.csv").exists()


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


def _zero_embed_dim_header(path):
    """A version-2 checkpoint header whose stored router config has embed_dim 0."""
    path.write_bytes(struct.pack("<4sI6I", b"MXRT", 2, 0, 2, 2, 32, 2, 16))
    return path


@pytest.mark.parametrize("make_checkpoint", [
    lambda out: out / "collect" / "dataset.jsonl",
    lambda out: out / "collect",
    lambda out: _zero_embed_dim_header(out / "bad.ckpt"),
], ids=["dataset-file", "directory", "zero-embed-dim-header"])
def test_train_grpo_rejects_non_checkpoint(tmp_path, capsys, make_checkpoint):
    """A klst manifest whose checkpoint entry names a file that cannot be
    read as a router checkpoint, with that file's sha256 recorded, exits 4,
    naming the file."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "collect"]) == EXIT_OK
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_OK
    checkpoint = make_checkpoint(out)
    manifest_path = out / "klst" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["checkpoint"]["path"] = str(checkpoint)
    manifest_path.write_text(json.dumps(manifest))
    if checkpoint.is_file():
        _record_sha256(manifest_path, "checkpoint", checkpoint)
    capsys.readouterr()
    assert main(["--config", str(cfg), "train-grpo"]) == EXIT_MISSING
    assert str(checkpoint) in capsys.readouterr().err


def test_config_hash_mismatch_guard(tmp_path):
    out = tmp_path / "out"
    cfg_a = write_config(tmp_path, out)
    assert main(["--config", str(cfg_a), "collect"]) == EXIT_OK
    cfg_b = tmp_path / "config_b.yaml"
    cfg_b.write_text(yaml.safe_dump(small_config(out, **{"klst.tau": 0.78})))
    assert main(["--config", str(cfg_b), "train-klst"]) == EXIT_CONFIG


def test_workers_take_no_part_in_the_config_hash(tmp_path):
    """The worker count changes no output, so a stage run with --workers 2
    feeds the next stage run without it."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "--workers", "2", "collect"]) == EXIT_OK
    assert main(["--config", str(cfg), "train-klst"]) == EXIT_OK


# One value per leaf key of DEFAULTS, each unlike the base config's below.
# Every leaf but workers and output_dir, which no stage hashes, is here.
ALTERNATIVES = {
    "seed": 1,
    "env.horizon": 10,
    "env.actions": 5,
    "env.critical_steps": [2, 5],
    "env.n_critical": 3,
    "env.n_correct_paths": 2,
    "env.divergence_low": 0.02,
    "env.divergence_high": 0.9,
    "env.seed": 1,
    "router.embed_dim": 12,
    "router.num_layers": 2,
    "router.num_heads": 1,
    "router.ffn_dim": 8,
    "router.max_len": 20,
    "klst.episodes": 16,
    "klst.tau": 0.5,
    "klst.epochs": 2,
    "klst.batch_size": 4,
    "klst.learning_rate": 1.0e-3,
    "grpo.episode_budget": 8,
    "grpo.group_size": 4,
    "grpo.beta": 0.5,
    "grpo.learning_rate": 1.0e-5,
    "grpo.lr_scale": 10.0,
    "grpo.lambda_high": 0.2,
    "grpo.lambda_step": 0.05,
    "eval.episodes": 6,
    "eval.episode_seed_start": 7,
    "eval.random_ps": [0.25],
    "eval.mode": "sampled",
}
TINY = {"router.embed_dim": 8, "router.num_layers": 1, "router.ffn_dim": 16,
        "klst.episodes": 12, "grpo.episode_budget": 4, "grpo.group_size": 2,
        "eval.episodes": 4, "eval.random_ps": [0.5]}
STAGE_DIRS = {"calibrate": "calibrate", "collect": "collect", "train-klst": "klst",
              "train-grpo": "grpo", "eval": "eval", "export": "export"}
READS = {"train-klst": ("collect",), "train-grpo": ("train-klst",),
         "eval": ("train-klst", "train-grpo"), "export": ("eval",)}


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _hashes(stage, key):
    return any(key == k or key.startswith(k + ".") for k in STAGE_KEYS[stage])


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_each_stage_hashes_the_keys_its_outputs_depend_on(tmp_path):
    """On outputs made under a base config, each stage re-run with one key
    changed exits 2 if a stage it reads from hashes the key; leaves its
    files byte-identical, manifest included, if it does not hash the key;
    and otherwise writes other outputs. So a grpo key leaves train-klst's
    outputs usable, an env or klst key is refused downstream, and eval
    refuses a grpo checkpoint made under another grpo key."""
    assert set(_leaves(DEFAULTS)) - {"workers", "output_dir"} == set(ALTERNATIVES)
    out = tmp_path / "out"
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(small_config(out, **TINY)))
    codes = {stage: main(["--config", str(base), stage]) for stage in STAGE_DIRS}
    assert codes["export"] == EXIT_OK
    before = {stage: _files(out / name) for stage, name in STAGE_DIRS.items()}
    problems = []
    for key, value in ALTERNATIVES.items():
        changed = tmp_path / "changed.yaml"
        changed.write_text(yaml.safe_dump(small_config(out, **{**TINY, key: value})))
        for stage, name in STAGE_DIRS.items():
            code = main(["--config", str(changed), stage])
            after = _files(out / name)
            if any(_hashes(upstream, key) for upstream in READS.get(stage, ())):
                if (code, after) != (EXIT_CONFIG, before[stage]):
                    problems.append(f"{stage} under {key}: exit {code}, not a refusal")
            elif not _hashes(stage, key):
                if (code, after) != (codes[stage], before[stage]):
                    problems.append(f"{stage} under {key}: outputs changed")
            elif ({n: b for n, b in after.items() if n != "manifest.json"}
                  == {n: b for n, b in before[stage].items() if n != "manifest.json"}):
                problems.append(f"{stage} under {key}: outputs unchanged")
            shutil.rmtree(out / name)
            (out / name).mkdir()
            for file, data in before[stage].items():
                (out / name / file).write_bytes(data)
    assert not problems


def test_group_size_flag_of_one_exits_2(tmp_path, capsys):
    """--group-size 1 is refused as the YAML key is, before any stage runs."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, out)
    assert main(["--config", str(cfg), "train-grpo", "--group-size", "1"]) == EXIT_CONFIG
    assert "group_size must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides", [
    (["--seed", "5", "calibrate"], {"seed": 5}),
    (["--workers", "2", "eval"], {"workers": 2}),
    (["--out", "runs/x/", "export"], {"output_dir": "runs/x"}),
    (["collect", "--episodes", "12", "--tau", "0.8"], {"klst.episodes": 12, "klst.tau": 0.8}),
    (["train-grpo", "--lambda-high", "0.1", "--beta", "0.5", "--group-size", "4",
      "--episodes", "16"],
     {"grpo.lambda_high": 0.1, "grpo.beta": 0.5, "grpo.group_size": 4,
      "grpo.episode_budget": 16}),
    (["eval", "--episodes", "9"], {"eval.episodes": 9}),
], ids=["seed", "workers", "out", "collect", "train-grpo", "eval"])
def test_each_flag_overrides_its_config_key(monkeypatch, argv, overrides):
    """A flag gives the stage the config that the override of its key gives;
    --out is stored as a path, so a trailing slash does not change the hash."""
    captured = []
    for name in ("cmd_calibrate", "cmd_collect", "cmd_train_klst", "cmd_train_grpo",
                 "cmd_eval", "cmd_export"):
        monkeypatch.setattr(cli, name, lambda cfg: captured.append(cfg) or EXIT_OK)
    assert main(argv) == EXIT_OK
    assert captured[0].resolved == load_run_config(None, overrides).resolved


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
