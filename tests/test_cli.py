import csv
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import epiwarn
from epiwarn import pipeline
from epiwarn.cli import main
from epiwarn.config import load_config
from epiwarn.panel import load_panel_from_manifest
from epiwarn.pipeline import select_and_evaluate


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def derived_config(workspace: Path, path: Path, **keys) -> Path:
    """The workspace config with some keys replaced, written to ``path``."""
    lines = (workspace / "exp.cfg").read_text().splitlines()
    values = dict(line.split(" = ", 1) for line in lines)
    values["manifest"] = str(workspace / "panel" / "panel.manifest")
    values.update({key: str(value) for key, value in keys.items()})
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--out", ws / "panel", "--seasons", 6, "--weeks-per-season", 40,
                "--predictors", 3, "--noise", 0.05, "--seed", 5]) == 0
    cfg = ws / "exp.cfg"
    cfg.write_text(
        "manifest = panel/panel.manifest\n"
        "epsilon = 1.25\n"
        "min_duration = 3\n"
        "window = 16\n"
        "lead = 8\n"
        "atfs = 20\n"
        "sims = 60\n"
        "lambda_grid = 0.3,0.6\n"
        "k_max = 2\n"
        "replicates = 2\n"
        "fold_preset = select-6fold\n"
        "seed = 0\n"
    )
    return ws


def test_synth_deterministic(tmp_path):
    args = ["synth", "--seasons", 3, "--weeks-per-season", 30, "--seed", 9]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("flag, value, message", [
    ("--seasons", 0, "seasons"),
    ("--predictors", 0, "predictor_count"),
    ("--weeks-per-season", 4, "weeks_per_season"),
    ("--start", "junk", "bad week label 'junk'"),
    ("--start", "2010-W99", "bad week label '2010-W99'"),
    ("--seed", -1, "rng_seed"),
])
def test_synth_out_of_range_values_exit_2_and_write_nothing(tmp_path, capsys, flag, value,
                                                            message):
    out = tmp_path / "panel"
    assert run(["synth", "--out", out, flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_detect_writes_full_length_trace(workspace, tmp_path):
    out = tmp_path / "detect"
    assert run(["detect", "--config", workspace / "exp.cfg",
                "--subset", "pred1,pred2", "--out", out]) == 0
    lines = (out / "mewma_trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 40
    assert (out / "config_resolved.txt").exists()
    assert (out / "events.csv").exists()


def test_detect_unknown_subset_exits_2(workspace, tmp_path, capsys):
    code = run(["detect", "--config", workspace / "exp.cfg",
                "--subset", "nosuch", "--out", tmp_path / "x"])
    assert code == 2
    assert "nosuch" in capsys.readouterr().err


def test_detect_unknown_subset_on_a_wide_panel_writes_nothing(workspace, tmp_path, capsys):
    # a 30-candidate panel names its candidates pred01 ... pred30
    assert run(["synth", "--out", tmp_path / "panel", "--seasons", 3, "--weeks-per-season", 30,
                "--predictors", 30, "--seed", 5]) == 0
    cfg = derived_config(workspace, tmp_path / "wide.cfg",
                         manifest=tmp_path / "panel" / "panel.manifest")
    out = tmp_path / "detect"
    assert run(["detect", "--config", cfg, "--subset", "pred1", "--out", out]) == 2
    assert "pred1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--baseline", "bogus:1"],
    ["--baseline", "week:x"],
    ["--subset", "pred1", "--lam", "0.3"],
    ["--subset", "pred1", "--lam", "1.5", "--h", "3"],
    ["--subset", "pred1", "--lam", "0.3", "--h", "0"],
    ["--subset", "pred1", "--lam", "0.3", "--h", "-1"],
    ["--subset", ","],
    ["--subset", "pred1,pred1"],
    ["--baseline", "week:34", "--lam", "0.3", "--h", "5"],
    ["--baseline", "week:34", "--lam", "7"],
])
def test_detect_usage_errors_write_nothing(workspace, tmp_path, argv):
    out = tmp_path / "x"
    assert run(["detect", "--config", workspace / "exp.cfg", *argv, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_select_workers_below_one_write_nothing(workspace, tmp_path, capsys, workers):
    out = tmp_path / "x"
    assert run(["select", "--config", workspace / "exp.cfg", "--workers", workers,
                "--out", out]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_detect_requires_exactly_one_detector(workspace, tmp_path):
    assert run(["detect", "--config", workspace / "exp.cfg", "--out", tmp_path / "x"]) == 2
    assert run(["detect", "--config", workspace / "exp.cfg", "--subset", "pred1",
                "--baseline", "week:10", "--out", tmp_path / "x"]) == 2


def test_detect_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["detect", "--config", workspace / "exp.cfg",
                    "--subset", "pred1", "--out", out]) == 0
    assert tree_bytes(a) == tree_bytes(b)


@pytest.mark.parametrize("subset", [("pred1",), ("pred1", "pred3"), ("pred2", "gold")])
def test_calibrated_detect_writes_what_the_library_gives(workspace, tmp_path, subset):
    from epiwarn.calibrate import optimize_params
    from epiwarn.mewma import DetectorConfig, estimate_null, run_scan

    out = tmp_path / "detect"
    assert run(["detect", "--config", workspace / "exp.cfg", "--subset", ",".join(subset),
                "--out", out]) == 0
    config = load_config(workspace / "exp.cfg")
    experiment = pipeline.Experiment(load_panel_from_manifest(config.manifest), config)
    events, windows = experiment.events, experiment.windows
    panel = experiment.panel.with_gold_candidate()
    curve = []
    point = optimize_params(panel, events, windows, subset, config.atfs, config.lambda_grid,
                            sims=config.sims, seed=config.seed, curve=curve)
    assert [list(row.values()) for row in csv_rows(out / "calibration.csv")] == [
        [repr(p.lam), repr(p.h), repr(p.atfs), repr(p.performance)] for p in curve
    ]
    trace = run_scan(panel, estimate_null(panel, events, subset),
                     DetectorConfig(subset, point.lam, point.h))
    assert [row["E"] for row in csv_rows(out / "mewma_trace.csv")] == list(
        map(repr, trace.E.tolist()))


def test_detect_baseline_trigger(workspace, tmp_path):
    out = tmp_path / "wk"
    assert run(["detect", "--config", workspace / "exp.cfg",
                "--baseline", "week:10", "--out", out]) == 0
    assert (out / "week-trigger_trace.csv").exists()
    assert run(["detect", "--config", workspace / "exp.cfg",
                "--baseline", "bogus:1", "--out", tmp_path / "y"]) == 2


def test_select_outputs_and_checkpoints(workspace, tmp_path):
    out = tmp_path / "sel"
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", out, "--workers", 1]) == 0
    ckpts = sorted((out / "checkpoints").glob("replicate_*.json"))
    assert len(ckpts) == 2
    payload = json.loads(ckpts[0].read_text())
    assert payload["replicate"] == 0
    assert payload["steps"]
    trace_lines = (out / "selection_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "replicate,step,chosen,score"
    agg_lines = (out / "selection_aggregate.csv").read_text().splitlines()
    assert agg_lines[0] == "predictor,median_rank,frequency"
    assert len(agg_lines) >= 2


def test_select_resume_from_checkpoint_matches_uninterrupted(workspace, tmp_path):
    full = tmp_path / "full"
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", full, "--workers", 1]) == 0
    # simulate an interrupted run: only replicate 0's checkpoint survived
    resumed = tmp_path / "resumed"
    (resumed / "checkpoints").mkdir(parents=True)
    shutil.copy(
        full / "checkpoints" / "replicate_000.json",
        resumed / "checkpoints" / "replicate_000.json",
    )
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", resumed, "--workers", 1]) == 0
    assert tree_bytes(full) == tree_bytes(resumed)


def test_select_stale_checkpoint_recomputed(workspace, tmp_path):
    out = tmp_path / "stale"
    (out / "checkpoints").mkdir(parents=True)
    bogus = {"fingerprint": "stale", "replicate": 0, "stop_reason": "reached-k",
             "steps": [{"chosen": "pred3", "score": 99.0, "candidate_scores": []}]}
    (out / "checkpoints" / "replicate_000.json").write_text(json.dumps(bogus))
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", out, "--workers", 1]) == 0
    payload = json.loads((out / "checkpoints" / "replicate_000.json").read_text())
    assert payload["fingerprint"] != "stale"
    assert payload["steps"][0]["score"] != 99.0


def test_evaluate_four_model_table(workspace, tmp_path):
    out = tmp_path / "eval"
    assert run(["evaluate", "--config", workspace / "exp.cfg", "--out", out]) == 0
    lines = (out / "model_comparison.csv").read_text().splitlines()
    assert lines[0].startswith("model,parameter,performance,precision,recall")
    models = [line.split(",")[0] for line in lines[1:]]
    assert models == ["optimized", "week-trigger", "rise-trigger", "univariate-gold"]


def test_evaluate_univariate_gold_passes_no_name_keyword(workspace, tmp_path, monkeypatch):
    # a wrapper around evaluate_mewma_cv may take a `name` parameter of its own
    evaluate_mewma_cv = pipeline.evaluate_mewma_cv

    def wrapped(*args, **kwargs):
        assert "name" not in kwargs
        return evaluate_mewma_cv(*args, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_mewma_cv", wrapped)
    out = tmp_path / "gold"
    assert run(["evaluate", "--config", workspace / "exp.cfg",
                "--models", "univariate-gold", "--out", out]) == 0
    assert [r["model"] for r in csv_rows(out / "model_comparison.csv")] == ["univariate-gold"]


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_too_few_events_exits_2_before_any_output(workspace, tmp_path, capsys, command):
    cfg = derived_config(workspace, tmp_path / "few.cfg", min_duration=500)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: found 0 event(s) at epsilon 1.25 with min_duration 500; "
                   "cross-validation needs at least 2"]
    assert not out.exists()


def test_calibrated_detect_without_events_exits_2_before_any_output(workspace, tmp_path,
                                                                    capsys):
    cfg = derived_config(workspace, tmp_path / "none.cfg", epsilon=9)
    out = tmp_path / "out"
    assert run(["detect", "--config", cfg, "--subset", "pred1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "found 0 event(s) at epsilon 9.0" in err and "--lam and --h" in err
    assert not out.exists()
    # an explicit detector or a baseline needs no events
    for name, argv in (("explicit", ["--subset", "pred1", "--lam", 0.3, "--h", 12]),
                       ("baseline", ["--baseline", "week:34"])):
        assert run(["detect", "--config", cfg, *argv, "--out", tmp_path / name]) == 0
        assert not (tmp_path / name / "event_report.csv").exists()


TABLE_HEADERS = {
    "calibration.csv": "lambda,h,atfs_est,performance",
    "events.csv": "event_index,start_week,end_week,window_start,window_end",
    "event_report.csv": "event,onset_week,delta_t,lead_weeks,detected",
    "summary.csv": "performance,precision,recall",
    "selection_trace.csv": "replicate,step,chosen,score",
    "selection_aggregate.csv": "predictor,median_rank,frequency",
    "model_comparison.csv": "model,parameter,performance,precision,recall,"
                            "mean_lead_weeks,events_detected,false_onsets",
    "sweep.csv": ",".join(pipeline.SWEEP_FIELDS),
}


def test_every_output_table_has_crlf_lines_one_header_and_round_trip_floats(workspace,
                                                                           tmp_path):
    cfg = workspace / "exp.cfg"
    runs = {
        "select": ["select", "--workers", 1],
        "evaluate": ["evaluate"],
        "sweep": ["sweep", "--axis", "atfs", "--values", "10,20"],
        "calibrated": ["detect", "--subset", "pred1,pred2"],
        "explicit": ["detect", "--subset", "pred1", "--lam", 0.3, "--h", 12],
        "baseline": ["detect", "--baseline", "week:34"],
    }
    tables = []
    for name, argv in runs.items():
        assert run([*argv, "--config", cfg, "--out", tmp_path / name]) == 0
        tables += sorted((tmp_path / name).rglob("*.csv"))
    assert len(tables) == 2 + 5 + 1 + 5 + 4 + 4
    for path in tables:
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path
        if path.name.endswith("_trace.csv") and path.name != "selection_trace.csv":
            header = "week,E,alarm,cluster_onset"
        elif path.name.endswith("_events.csv"):
            header = TABLE_HEADERS["event_report.csv"]
        else:
            header = TABLE_HEADERS[path.name]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert ",".join(rows[0]) == header, path
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, path
        for cell in (cell for row in rows[1:] for cell in row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if any(mark in cell for mark in (".", "e", "inf", "nan")):
                assert repr(value) == cell, (path, cell)


@pytest.fixture(scope="module")
def wide_config(tmp_path_factory):
    """A 200-candidate panel of 160 weeks: no selection fold trains on the
    201 baseline weeks a null of every candidate needs."""
    ws = tmp_path_factory.mktemp("wide")
    assert run(["synth", "--out", ws / "panel", "--seasons", 4, "--weeks-per-season", 40,
                "--predictors", 200]) == 0
    cfg = ws / "exp.cfg"
    cfg.write_text(f"manifest = {ws / 'panel' / 'panel.manifest'}\n"
                   "sims = 40\nlambda_grid = 0.3,0.6\n")
    return cfg


WIDE_PANEL_ERROR = ("need at least 201 baseline weeks for 200 predictors, have 73 "
                    "in selection fold 0")


@pytest.mark.parametrize("command, argv", [
    ("select", ["--workers", 1]),
    ("select", ["--workers", 2]),
    ("evaluate", ["--models", "optimized"]),
    ("evaluate", ["--models", "week-trigger,optimized"]),
])
def test_panel_too_wide_for_its_baseline_weeks_exits_2_before_any_work(
        wide_config, tmp_path, capsys, monkeypatch, command, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a replicate or model ran")

    monkeypatch.setattr(pipeline, "run_selection", no_work)
    monkeypatch.setattr(pipeline, "evaluate_baseline_cv", no_work)
    out = tmp_path / "out"
    assert run([command, "--config", wide_config, *argv, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {WIDE_PANEL_ERROR}"]
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("atfs", "20"), ("train", "2")])
def test_sweep_point_records_a_panel_too_wide_for_its_baseline_weeks(
        wide_config, tmp_path, axis, values):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", wide_config, "--axis", axis, "--values", values,
                "--out", out]) == 0
    [row] = csv_rows(out / "sweep.csv")
    # a train-length 2 point's selection folds train on one season each
    have = {"atfs": "73", "train": "26"}[axis]
    assert row["error"] == "TooFewBaselineWeeksError: " + WIDE_PANEL_ERROR.replace(
        "have 73", f"have {have}")


@pytest.mark.parametrize("command, argv", [
    ("select", ["--workers", 1]),
    ("evaluate", []),
    ("detect", ["--subset", "pred1"]),
])
def test_window_overlap_exits_2_and_writes_nothing(workspace, tmp_path, capsys, command, argv):
    # 60-week windows around events one 40-week season apart must collide
    cfg = derived_config(workspace, tmp_path / "wide.cfg", window=60)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, *argv, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: window for event 1 ")
    assert not out.exists()


@pytest.mark.parametrize("models", [
    "week-trigger,week-trigger", "optimized,rise-trigger,optimized", "", ",",
])
def test_evaluate_repeated_or_no_models_exit_2_before_any_work(workspace, tmp_path, capsys,
                                                               monkeypatch, models):
    def no_work(*args, **kwargs):
        raise AssertionError("evaluate ran a model")

    monkeypatch.setattr(pipeline, "evaluate_models", no_work)
    out = tmp_path / "out"
    assert run(["evaluate", "--config", workspace / "exp.cfg", "--models", models,
                "--out", out]) == 2
    assert "--models must name one or more models, each once" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_triggers_need_no_selection_plan(tmp_path):
    # compare-3fold cannot hold out 2 of 2 seasons, but the triggers select nothing
    assert run(["synth", "--out", tmp_path / "panel", "--seasons", 2, "--seed", 3]) == 0
    cfg = tmp_path / "two.cfg"
    cfg.write_text(f"manifest = {tmp_path / 'panel' / 'panel.manifest'}\n"
                   "fold_preset = compare-3fold\n")
    out = tmp_path / "eval"
    assert run(["evaluate", "--config", cfg, "--models", "week-trigger,rise-trigger",
                "--out", out]) == 0
    rows = csv_rows(out / "model_comparison.csv")
    assert [r["model"] for r in rows] == ["week-trigger", "rise-trigger"]


@pytest.mark.parametrize("command", [["detect", "--baseline", "week:34"],
                                     ["evaluate", "--models", "week-trigger"]])
def test_week_trigger_on_less_than_a_year_exits_2(tmp_path, capsys, command):
    # 2 seasons of 24 weeks: 48 weeks cannot place a week trigger
    assert run(["synth", "--out", tmp_path / "panel", "--seasons", 2,
                "--weeks-per-season", 24, "--predictors", 2]) == 0
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"manifest = {tmp_path / 'panel' / 'panel.manifest'}\n"
                   "window = 8\nlead = 4\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([*command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: week trigger needs an axis spanning at least one year"]
    assert not out.exists()


@pytest.fixture
def two_season_compare_config(tmp_path):
    """A two-season panel's config whose fold preset holds out two seasons."""
    assert run(["synth", "--out", tmp_path / "panel", "--seasons", 2, "--seed", 3]) == 0
    cfg = tmp_path / "two.cfg"
    cfg.write_text(f"manifest = {tmp_path / 'panel' / 'panel.manifest'}\n"
                   "fold_preset = compare-3fold\nsims = 40\nlambda_grid = 0.3\n")
    return cfg


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_fold_preset_holding_out_every_season_exits_2(two_season_compare_config, tmp_path,
                                                      capsys, command):
    out = tmp_path / "out"
    assert run([command, "--config", two_season_compare_config, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: held-out count must be in [1, 1] for 2 events, got 2"]
    assert not out.exists()


def test_sweep_point_records_a_fold_preset_holding_out_every_season(
        two_season_compare_config, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", two_season_compare_config, "--axis", "atfs",
                "--values", "20", "--out", out]) == 0
    [row] = csv_rows(out / "sweep.csv")
    assert row["error"] == ("TooFewEventsError: held-out count must be in [1, 1] "
                            "for 2 events, got 2")


def test_numpy_is_the_only_imported_dependency():
    # in a fresh interpreter: every epiwarn module, and whatever it imports;
    # underscored names are runtime aliases such as multiprocessing's __mp_main__
    code = (
        "import pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import epiwarn\n"
        "for m in pkgutil.iter_modules(epiwarn.__path__):\n"
        "    __import__('epiwarn.' + m.name)\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before\n"
        "       if not name.startswith('_')}\n"
        "extra = new - set(sys.stdlib_module_names) - {'epiwarn', 'numpy'}\n"
        "assert not extra, sorted(extra)\n"
    )
    src = str(Path(epiwarn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_evaluate_unknown_model_exits_2(workspace, tmp_path):
    assert run(["evaluate", "--config", workspace / "exp.cfg",
                "--models", "optimized,bogus", "--out", tmp_path / "x"]) == 2


def test_sweep_singleton_matches_direct_run(workspace, tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "epsilon",
                "--values", "1.25", "--out", out1]) == 0
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "epsilon",
                "--values", "1.25", "--out", out2]) == 0
    rows1 = (out1 / "sweep.csv").read_text().splitlines()
    assert len(rows1) == 2
    assert rows1[1].split(",")[-1] == ""  # no error
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_evaluate_optimized_matches_select_and_evaluate(workspace, tmp_path):
    out = tmp_path / "opt"
    assert run(["evaluate", "--config", workspace / "exp.cfg",
                "--models", "optimized", "--out", out]) == 0
    row = csv_rows(out / "model_comparison.csv")[0]
    config = load_config(workspace / "exp.cfg")
    result = select_and_evaluate(load_panel_from_manifest(config.manifest), config)
    assert row["model"] == result.model.name == "optimized"
    assert row["parameter"] == "+".join(result.subset)
    assert row["performance"] == repr(result.model.report.performance)
    assert row["mean_lead_weeks"] == repr(result.model.leads.mean_lead)


def test_evaluate_epsilon_above_reporting_threshold_skips_leads(workspace, tmp_path):
    # reporting_threshold 2.0 below epsilon 2.5: no lead tables, as in detect
    cfg = derived_config(workspace, tmp_path / "eps.cfg", epsilon=2.5)
    out = tmp_path / "eval"
    assert run(["evaluate", "--config", cfg, "--models", "optimized,week-trigger",
                "--out", out]) == 0
    rows = csv_rows(out / "model_comparison.csv")
    assert [r["model"] for r in rows] == ["optimized", "week-trigger"]
    assert all(r["mean_lead_weeks"] == "" for r in rows)
    assert all(r["lead_weeks"] == "" for r in csv_rows(out / "optimized_events.csv"))


def test_sweep_epsilon_above_reporting_threshold_skips_leads(workspace, tmp_path):
    out = tmp_path / "seps"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "epsilon",
                "--values", "1.25,2.5", "--out", out]) == 0
    rows = csv_rows(out / "sweep.csv")
    assert [r["error"] for r in rows] == ["", ""]
    assert all(r["selected"] for r in rows)


def test_sweep_honours_min_improvement_like_evaluate(workspace, tmp_path):
    # the second greedy step does not raise the score on this panel, so only a
    # negative min_improvement makes selection take it: k_max = 2 predictors
    cfg = derived_config(workspace, tmp_path / "mi.cfg", min_improvement=-1.0)
    assert run(["evaluate", "--config", cfg, "--models", "optimized",
                "--out", tmp_path / "eval"]) == 0
    assert run(["sweep", "--config", cfg, "--axis", "atfs", "--values", "20",
                "--out", tmp_path / "sweep"]) == 0
    evaluated = csv_rows(tmp_path / "eval" / "model_comparison.csv")[0]["parameter"]
    swept = csv_rows(tmp_path / "sweep" / "sweep.csv")[0]["selected"]
    assert swept.split("|") == evaluated.split("+")
    assert len(swept.split("|")) == 2


def test_sweep_atfs_axis_row_shape(workspace, tmp_path):
    out = tmp_path / "satfs"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "atfs",
                "--values", "5,20", "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    phis = [line.split(",")[4] for line in lines[1:]]
    assert phis == ["5.0", "20.0"]


def test_sweep_failing_point_records_its_own_error(workspace, tmp_path):
    # no threshold reaches ATFS 1.01: that point's first replicate fails, and
    # the row records that failure as raised, not a summary of every replicate
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "atfs",
                "--values", "1.01,20", "--out", out]) == 0
    failed, passed = csv_rows(out / "sweep.csv")
    assert failed["error"].startswith("CalibrationError: ")
    assert "replicate" not in failed["error"]
    assert passed["error"] == ""


@pytest.mark.parametrize("axis, values, bad", [
    ("epsilon", "1.25,high", "high"),
    ("window", "12,1.5", "1.5"),
    ("atfs", "x", "x"),
    ("train", "3:0,a:b", "a:b"),
])
def test_sweep_bad_values_item_exits_2(workspace, tmp_path, capsys, axis, values, bad):
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", axis,
                "--values", values, "--out", out]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, argv, message", [
    ("evaluate", ["--models", "nope"], "unknown model 'nope'"),
    ("detect", [], "exactly one of --subset or --baseline"),
    ("sweep", ["--axis", "window", "--values", "x"], "bad --values item 'x'"),
])
def test_usage_errors_exit_2_before_the_panel_is_loaded(tmp_path, capsys, command, argv,
                                                        message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("manifest = missing/panel.manifest\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, *argv, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_1(tmp_path):
    assert run(["detect", "--config", tmp_path / "nope.cfg", "--subset", "a"]) == 1


def test_usage_error_exits_2():
    assert run(["detect"]) == 2
    assert run(["nosuchcommand"]) == 2


def test_output_root_env_var(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("EPIWARN_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "env.cfg"
    cfg.write_text(
        f"manifest = {workspace / 'panel' / 'panel.manifest'}\n"
        "sims = 60\nlambda_grid = 0.3\nk_max = 1\nreplicates = 1\nseed = 0\n"
    )
    assert run(["detect", "--config", cfg, "--subset", "pred1"]) == 0
    assert (tmp_path / "root" / "detect" / "mewma_trace.csv").exists()


def test_config_echo_materializes_defaults(workspace, tmp_path):
    out = tmp_path / "echo"
    assert run(["detect", "--config", workspace / "exp.cfg",
                "--subset", "pred1", "--out", out]) == 0
    text = (out / "config_resolved.txt").read_text()
    for key in ("epsilon", "min_duration", "window", "lead", "atfs", "sims",
                "lambda_grid", "k_max", "replicates", "fold_preset", "seed",
                "reporting_threshold"):
        assert f"{key} = " in text


def test_select_parallel_workers_match_serial(workspace, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", serial, "--workers", 1]) == 0
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", parallel, "--workers", 2]) == 0
    assert tree_bytes(serial) == tree_bytes(parallel)


def test_select_single_replicate_two_candidates(tmp_path):
    assert run(["synth", "--out", tmp_path / "p2", "--seasons", 4,
                "--weeks-per-season", 40, "--predictors", 2, "--noise", "0.05",
                "--seed", 8]) == 0
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        f"manifest = {tmp_path / 'p2' / 'panel.manifest'}\n"
        "sims = 60\nlambda_grid = 0.3\nk_max = 2\nreplicates = 1\nseed = 0\n"
    )
    out = tmp_path / "sel2"
    assert run(["select", "--config", cfg, "--out", out, "--workers", 1]) == 0
    lines = (out / "selection_trace.csv").read_text().splitlines()
    steps = [l for l in lines[1:] if l.split(",")[0] == "0"]
    assert 1 <= len(steps) <= 2


@pytest.mark.parametrize("key, value", [
    ("sims", 0),
    ("replicates", 0),
    ("k_max", 0),
    ("window", 0),
    ("lead", 20),
    ("lead", -1),
    ("atfs", 0.5),
    ("atfs", 1),
    ("atfs", "inf"),
    ("min_improvement", "nan"),
    ("reporting_threshold", "nan"),
    ("min_duration", 0),
    ("lambda_grid", ""),
    ("lambda_grid", "0.3,1.0"),
    ("lambda_grid", "0.3,0.3"),
    ("seed", -1),
    ("fold_preset", "weird"),
    ("window", "abc"),
])
def test_invalid_config_value_exits_2(workspace, tmp_path, capsys, key, value):
    cfg = derived_config(workspace, tmp_path / "bad.cfg", **{key: value})
    out = tmp_path / "sel"
    assert run(["select", "--config", cfg, "--out", out, "--workers", 1]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_exits_2(workspace, tmp_path):
    cfg = derived_config(workspace, tmp_path / "rep.cfg")
    cfg.write_text(cfg.read_text() + "sims = 20\n")
    assert run(["detect", "--config", cfg, "--subset", "pred1",
                "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


def test_select_truncated_checkpoint_is_rerun(workspace, tmp_path):
    full = tmp_path / "full"
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", full, "--workers", 1]) == 0
    ckpt = full / "checkpoints" / "replicate_000.json"
    clean = ckpt.read_bytes()
    ckpt.write_bytes(clean[: len(clean) // 2])
    assert run(["select", "--config", workspace / "exp.cfg",
                "--out", full, "--workers", 1]) == 0
    assert ckpt.read_bytes() == clean
    assert sorted(p.name for p in ckpt.parent.iterdir()) == [
        "replicate_000.json", "replicate_001.json"]


_run_replicate = pipeline._run_replicate


def test_select_reruns_a_checkpoint_of_another_replicate(workspace, tmp_path, monkeypatch):
    out = tmp_path / "sel"
    assert run(["select", "--config", workspace / "exp.cfg", "--out", out,
                "--workers", 1]) == 0
    clean = tree_bytes(out)
    ckpts = out / "checkpoints"
    shutil.copy(ckpts / "replicate_000.json", ckpts / "replicate_001.json")
    ran = []

    def counted(experiment, seed):
        ran.append(seed - experiment.config.seed)
        return _run_replicate(experiment, seed)

    monkeypatch.setattr(pipeline, "_run_replicate", counted)
    assert run(["select", "--config", workspace / "exp.cfg", "--out", out,
                "--workers", 1]) == 0
    assert ran == [1]
    assert tree_bytes(out) == clean


def _second_replicate_fails(experiment, seed):
    if seed == experiment.config.seed + 1:
        raise RuntimeError("forced failure")
    return _run_replicate(experiment, seed)


def test_parallel_select_keeps_finished_replicates_on_failure(workspace, tmp_path,
                                                              monkeypatch, capsys):
    cfg = derived_config(workspace, tmp_path / "three.cfg", replicates=3)
    clean = tmp_path / "clean"
    assert run(["select", "--config", cfg, "--out", clean, "--workers", 1]) == 0
    out = tmp_path / "failing"
    monkeypatch.setattr(pipeline, "_run_replicate", _second_replicate_fails)
    assert run(["select", "--config", cfg, "--out", out, "--workers", 2]) == 1
    assert "replicate 1 failed: RuntimeError: forced failure" in capsys.readouterr().err
    ckpts = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert ckpts == ["replicate_000.json", "replicate_002.json"]
    for name in ckpts:
        assert (out / "checkpoints" / name).read_bytes() == (
            clean / "checkpoints" / name).read_bytes()
    # the resumed run re-runs only the failed replicate and matches a clean run
    monkeypatch.setattr(pipeline, "_run_replicate", _run_replicate)
    assert run(["select", "--config", cfg, "--out", out, "--workers", 2]) == 0
    assert tree_bytes(out) == tree_bytes(clean)


def _report_blas_threads(experiment, seed):
    raise RuntimeError(" ".join(
        f"{name}={os.environ.get(name)}" for name in pipeline.BLAS_THREAD_VARIABLES))


def test_parallel_select_workers_use_one_blas_thread(workspace, tmp_path, monkeypatch,
                                                     capsys):
    for name in pipeline.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # a value the user set is kept
    monkeypatch.setattr(pipeline, "_run_replicate", _report_blas_threads)
    assert run(["select", "--config", workspace / "exp.cfg", "--out", tmp_path / "sel",
                "--workers", 2]) == 1
    err = capsys.readouterr().err
    for r in (0, 1):
        assert (f"replicate {r} failed: RuntimeError: OPENBLAS_NUM_THREADS=1 "
                "OMP_NUM_THREADS=1 MKL_NUM_THREADS=3") in err
    # the parent's environment is restored
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def _scaled_select(scales: dict, tmp) -> tuple[list, list]:
    """``select`` on a small synthetic panel whose predictors are multiplied by
    ``scales``: the bytes of its trace and aggregate files, and every solved
    (lambda, h) grid point of every greedy step in order."""
    from epiwarn import calibrate
    from epiwarn.panel import (AlignedPanel, Series, SyntheticPanelSpec, generate_synthetic,
                               write_panel)

    panel = generate_synthetic(SyntheticPanelSpec(seasons=4, weeks_per_season=40,
                                                  predictor_count=3, rng_seed=0))
    write_panel(AlignedPanel(panel.axis, panel.gold, tuple(
        Series(s.name, s.values * scales.get(s.name, 1.0)) for s in panel.candidates)),
        tmp / "panel")
    (tmp / "exp.cfg").write_text(f"manifest = {tmp / 'panel' / 'panel.manifest'}\nsims = 40\n"
                                 "lambda_grid = 0.3,0.6\nreplicates = 1\nk_max = 3\n"
                                 "min_improvement = -1\n")
    points, optimize_step = [], calibrate.optimize_step

    def recorded(*args, **kwargs):
        fits = optimize_step(*args, **kwargs)
        points.extend((p.lam, p.h) for fit in fits for p in fit.curve)
        return fits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibrate, "optimize_step", recorded)
        assert run(["select", "--config", tmp / "exp.cfg", "--out", tmp / "select",
                    "--workers", 1]) == 0
    files = [(tmp / "select" / name).read_bytes()
             for name in ("selection_trace.csv", "selection_aggregate.csv")]
    return files, points


@functools.lru_cache(maxsize=1)
def _unscaled_select() -> tuple[list, list]:
    with tempfile.TemporaryDirectory() as tmp:
        return _scaled_select({}, Path(tmp))


@settings(max_examples=8, deadline=None)
@given(exponents=st.lists(st.integers(-40, 40), min_size=3, max_size=3))
@example(exponents=[20, 0, -20])
def test_select_does_not_depend_on_power_of_two_units(exponents):
    # a power of two scales every operation exactly, so the selection, and
    # every threshold, is the unscaled panel's bit for bit
    scales = {f"pred{i + 1}": 2.0**e for i, e in enumerate(exponents)}
    with tempfile.TemporaryDirectory() as tmp:
        assert _scaled_select(scales, Path(tmp)) == _unscaled_select()


def test_select_on_a_panel_in_other_units_keeps_its_selection_and_thresholds(tmp_path):
    files, points = _scaled_select({"pred1": 1e6, "pred3": 1e-6}, tmp_path)
    reference_files, reference_points = _unscaled_select()
    assert files == reference_files
    assert [lam for lam, _ in points] == [lam for lam, _ in reference_points]
    # measured: at most 3.7e-15 relative on this panel (1.1e-14 on a
    # 10-candidate, 8-season one)
    for (_, h), (_, reference) in zip(points, reference_points, strict=True):
        assert h == pytest.approx(reference, rel=1e-13, abs=0.0)
