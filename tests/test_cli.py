import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    # no threshold reaches ATFS 1: that point's first replicate fails, and the
    # row records that failure as raised, not a summary of every replicate
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", workspace / "exp.cfg", "--axis", "atfs",
                "--values", "1,20", "--out", out]) == 0
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
    ("min_duration", 0),
    ("lambda_grid", ""),
    ("lambda_grid", "0.3,1.0"),
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


def _second_replicate_fails(panel, config, folds, seed):
    if seed == config.seed + 1:
        raise RuntimeError("forced failure")
    return _run_replicate(panel, config, folds, seed)


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


def _report_blas_threads(panel, config, folds, seed):
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
