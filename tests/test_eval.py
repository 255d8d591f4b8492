"""GHC metric fixtures, evaluation harness and report/frontier exports."""

import csv
import json

import numpy as np
import pytest

from mixroute.env import EnvConfig, make_policy_pair
from mixroute.evaluation import (
    BaselineSpec,
    evaluate,
    ghc,
    save_frontier_csv,
    save_report_csv,
    save_report_json,
    sweep,
)

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
