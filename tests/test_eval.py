"""GHC metric fixtures, evaluation harness and report/frontier exports."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

from mixroute import env as env_module
from mixroute.env import EPISODE_CHUNK, EnvConfig, make_policy_pair, rollout
from mixroute.evaluation import (
    BaselineSpec,
    evaluate,
    ghc,
    load_report_json,
    save_frontier_csv,
    save_report_csv,
    save_report_json,
    sweep,
)
from mixroute.router import RouterConfig, RouterParams

import ghc_cases


@pytest.fixture(scope="module")
def world():
    return EnvConfig()


@pytest.fixture(scope="module")
def pair(world):
    return make_policy_pair(world)


@pytest.mark.parametrize("row", ghc_cases.CONSISTENT_ROWS,
                         ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_ghc_reproduces_reference_rows(row):
    _, _, _, c, s_pct, weak_pct, reported = row
    value = ghc(s_pct / 100.0, weak_pct / 100.0, c)
    assert abs(value * 100.0 - reported) <= 0.05


@pytest.mark.parametrize("row", ghc_cases.INCONSISTENT_ROWS,
                         ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_ghc_flags_inconsistent_rows(row):
    _, _, _, c, s_pct, weak_pct, reported, actual = row
    value = ghc(s_pct / 100.0, weak_pct / 100.0, c) * 100.0
    assert abs(value - reported) > 0.05  # the printed figure is wrong
    assert abs(value - actual) <= 0.05   # and this is what the inputs give


@pytest.mark.parametrize("row", ghc_cases.UNDEFINED_ROWS,
                         ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_ghc_undefined_at_zero_usage(row):
    _, _, _, c, s_pct, weak_pct = row
    assert ghc(s_pct / 100.0, weak_pct / 100.0, c) is None


def test_ghc_specific_values():
    np.testing.assert_allclose(100 * ghc(0.862, 0.828, 0.40), 8.5, atol=0.05)
    np.testing.assert_allclose(100 * ghc(0.813, 0.776, 0.086), 43.02, atol=0.1)
    np.testing.assert_allclose(100 * ghc(0.881, 0.828, 0.282), 18.79, atol=0.05)
    assert ghc(0.5, 0.5, 0.3) == 0.0


def test_ghc_domain_errors():
    with pytest.raises(ValueError):
        ghc(0.5, 0.5, -0.1)
    with pytest.raises(ValueError):
        ghc(0.5, 0.5, 1.1)
    with pytest.raises(ValueError):
        ghc(1.5, 0.5, 0.5)


def test_baseline_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec("random")
    with pytest.raises(ValueError):
        BaselineSpec("random", p=1.5)
    with pytest.raises(ValueError):
        BaselineSpec("router")
    with pytest.raises(ValueError):
        BaselineSpec("telepathy")


def test_evaluate_fixed_low_has_undefined_ghc(world, pair):
    report = evaluate(world, pair, BaselineSpec("fixed_low"), 50, master_seed=0)
    assert report.high_ratio == 0.0
    assert report.ghc is None
    assert report.weak_success_rate == report.success_rate


def test_evaluate_fixed_high_uses_every_step(world, pair):
    report = evaluate(world, pair, BaselineSpec("fixed_high"), 50, master_seed=0)
    assert report.high_ratio == 1.0
    assert report.ghc is not None and report.ghc > 0


def test_evaluate_random_usage_concentrates(world, pair):
    report = evaluate(world, pair, BaselineSpec("random", p=0.4), 500, master_seed=1)
    assert abs(report.high_ratio - 0.40) < 0.02


def test_sweep_endpoints_and_ordering(world, pair):
    reports = sweep(
        world, pair,
        [BaselineSpec("random", p=0.0), BaselineSpec("random", p=0.5),
         BaselineSpec("random", p=1.0)],
        100, master_seed=2,
    )
    by_method = {r.method: r for r in reports}
    assert by_method["random@0"].high_ratio == 0.0
    assert by_method["random@1"].high_ratio == 1.0
    assert 0.0 < by_method["random@0.5"].high_ratio < 1.0


def test_shared_seed_paired_evaluation(world, pair):
    a = evaluate(world, pair, BaselineSpec("fixed_low"), 40, master_seed=3)
    b = evaluate(world, pair, BaselineSpec("fixed_low"), 40, master_seed=3)
    assert [e.__dict__ for e in a.episodes] == [e.__dict__ for e in b.episodes]
    # random and fixed observe the same worlds: seeds and step counts align
    c = evaluate(world, pair, BaselineSpec("fixed_high"), 40, master_seed=3)
    assert [e.episode_seed for e in a.episodes] == [e.episode_seed for e in c.episodes]


def test_sweep_reuses_weak_baseline(world, pair):
    reports = sweep(world, pair,
                    [BaselineSpec("fixed_low"), BaselineSpec("random", p=0.3)],
                    60, master_seed=4)
    weak = reports[0]
    assert reports[1].weak_success_rate == weak.success_rate


def test_weak_report_from_other_seeds_rejected(world, pair):
    weak = evaluate(world, pair, BaselineSpec("fixed_low"), 50, episode_seed_start=5000)
    with pytest.raises(ValueError, match="different seeds"):
        evaluate(world, pair, BaselineSpec("random", p=0.4), 50, weak_report=weak)


def test_sweep_reports_match_unpaired_evaluations(world, pair):
    specs = [BaselineSpec("fixed_high"), BaselineSpec("random", p=0.4)]
    reports = sweep(world, pair, specs, 30, master_seed=4, episode_seed_start=5000)
    for spec, report in zip(specs, reports):
        alone = evaluate(world, pair, spec, 30, master_seed=4, episode_seed_start=5000)
        assert report == alone


def test_frontier_export_slope_matches_ghc(tmp_path, world, pair):
    reports = sweep(world, pair,
                    [BaselineSpec("random", p=0.4), BaselineSpec("fixed_high")],
                    80, master_seed=5)
    path = tmp_path / "frontier.csv"
    save_frontier_csv(reports, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row, report in zip(rows, reports):
        c = float(row["c"])
        s = float(row["S"])
        slope = (s - report.weak_success_rate) / c
        np.testing.assert_allclose(slope, float(row["GHC"]), atol=1e-12)


def test_report_exports(tmp_path, world, pair):
    reports = sweep(world, pair,
                    [BaselineSpec("fixed_low"), BaselineSpec("fixed_high")],
                    30, master_seed=6)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    save_report_csv(reports, csv_path)
    save_report_json(reports, json_path)
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["method"] == "fixed_low"
    assert rows[0]["GHC"] == ""  # undefined marker
    payload = json.loads(json_path.read_text())
    assert payload[0]["ghc"] is None
    assert len(payload[0]["episodes"]) == 30
    assert payload[1]["ghc"] is not None
    assert load_report_json(json_path) == reports


SMALL_ROUTER = RouterConfig(embed_dim=16, num_heads=2, ffn_dim=32, max_len=16)
EVERY_KIND = [
    BaselineSpec("random", p=0.3),
    BaselineSpec("fixed_low"),
    BaselineSpec("router", params=RouterParams.initialize(SMALL_ROUTER, seed=1)),
    BaselineSpec("fixed_high"),
    BaselineSpec("router", params=RouterParams.initialize(SMALL_ROUTER, seed=2), mode="sampled"),
    BaselineSpec("random", p=0.7),
]
PAST_TWO_CHUNKS = 2 * EPISODE_CHUNK + 3


def test_sweep_equals_solo_evaluations_and_rollouts(tmp_path, world, pair):
    """One sweep over more seeds than two lockstep chunks gives, report by
    report and byte for byte, what each spec's own evaluate gives, and every
    episode row is that seed's solo rollout."""
    reports = sweep(world, pair, EVERY_KIND, PAST_TWO_CHUNKS, master_seed=7,
                    episode_seed_start=300)
    alone = [evaluate(world, pair, spec, PAST_TWO_CHUNKS, master_seed=7, episode_seed_start=300)
             for spec in EVERY_KIND]
    assert reports == alone
    save_report_json(reports, tmp_path / "sweep.json")
    save_report_json(alone, tmp_path / "alone.json")
    assert (tmp_path / "sweep.json").read_bytes() == (tmp_path / "alone.json").read_bytes()
    for spec, report in zip(EVERY_KIND, reports):
        solo = [rollout(world, pair, spec.driver(), e.episode_seed, master_seed=7)
                for e in report.episodes]
        assert [(e.episode_seed, e.success, e.n_high, e.n_steps) for e in report.episodes] == \
            [(t.episode_seed, t.success, t.n_high, t.n_steps) for t in solo]


def test_sweep_builds_and_solves_each_task_once(world, pair, monkeypatch):
    built, solved = Counter(), []
    build, solve = env_module._build_task, env_module._solve_low_table
    monkeypatch.setattr(env_module, "_build_task",
                        lambda config, seed: built.update([seed]) or build(config, seed))
    monkeypatch.setattr(env_module, "_solve_low_table",
                        lambda task: solved.append(task) or solve(task))
    seeds = range(300, 300 + PAST_TWO_CHUNKS)
    sweep(world, pair, EVERY_KIND, len(seeds), master_seed=7, episode_seed_start=seeds[0])
    assert built == Counter(seeds)
    assert len(solved) <= len(seeds)
    assert len({id(task) for task in solved}) == len(solved)


def test_parallel_sweep_matches_serial_in_one_pool(world, pair, monkeypatch):
    pools = []

    class CountedPool(env_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(env_module, "ProcessPoolExecutor", CountedPool)
    serial = sweep(world, pair, EVERY_KIND, PAST_TWO_CHUNKS, master_seed=7, workers=1)
    assert pools == []
    parallel = sweep(world, pair, EVERY_KIND, PAST_TWO_CHUNKS, master_seed=7, workers=2)
    assert len(pools) == 1
    assert parallel == serial
