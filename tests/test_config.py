import pytest

from epiwarn.config import ExperimentConfig, load_config
from epiwarn.panel import ParseError, SyntheticPanelSpec, generate_synthetic, write_panel


@pytest.fixture()
def manifest(tmp_path):
    panel = generate_synthetic(SyntheticPanelSpec(seasons=2, weeks_per_season=30,
                                                  predictor_count=2, rng_seed=1))
    return write_panel(panel, tmp_path / "panel")


def test_defaults_match_operating_point(manifest):
    config = ExperimentConfig(manifest=manifest)
    assert config.epsilon == 1.25
    assert config.min_duration == 3
    assert config.window == 16
    assert config.lead == 8
    assert config.atfs == 20.0
    assert config.sims == 1000
    assert config.lambda_grid == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert config.k_max == 8
    assert config.replicates == 40
    assert config.fold_preset == "select-6fold"
    assert config.held_out == 1
    assert config.reporting_threshold == 2.0


def test_load_config_parses_values(manifest, tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(
        f"manifest = {manifest}\n"
        "epsilon = 1.5\n"
        "lambda_grid = 0.2,0.4\n"
        "fold_preset = compare-3fold\n"
        "replicates = 7\n"
    )
    config = load_config(cfg)
    assert config.epsilon == 1.5
    assert config.lambda_grid == (0.2, 0.4)
    assert config.held_out == 2
    assert config.replicates == 7


def test_load_config_rejects_unknown_and_repeated_keys(manifest, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"manifest = {manifest}\nnonsense = 1\n")
    with pytest.raises(ParseError, match="unknown config key"):
        load_config(bad)
    rep = tmp_path / "rep.cfg"
    rep.write_text(f"manifest = {manifest}\nepsilon = 1\nepsilon = 2\n")
    with pytest.raises(ParseError, match="repeated key"):
        load_config(rep)
    empty = tmp_path / "empty.cfg"
    empty.write_text("epsilon = 1\n")
    with pytest.raises(ParseError, match="missing the 'manifest'"):
        load_config(empty)


def test_bad_fold_preset_rejected(manifest):
    with pytest.raises(ValueError, match="fold_preset"):
        ExperimentConfig(manifest=manifest, fold_preset="weird")


def test_fingerprint_tracks_params_and_data(manifest, tmp_path):
    a = ExperimentConfig(manifest=manifest)
    b = ExperimentConfig(manifest=manifest, seed=1)
    before = a.fingerprint()
    assert before != b.fingerprint()
    assert before == ExperimentConfig(manifest=manifest).fingerprint()
    # editing the underlying panel data invalidates the fingerprint
    gold_csv = manifest.parent / "gold.csv"
    text = gold_csv.read_text()
    gold_csv.write_text(text.replace(text.splitlines()[1], "2010-W01,9.9", 1))
    assert a.fingerprint() != before


def test_resolved_text_round_trips_through_loader(manifest, tmp_path):
    config = ExperimentConfig(manifest=manifest, epsilon=1.4, replicates=3)
    echo = tmp_path / "echo.cfg"
    echo.write_text(config.resolved_text())
    # the echo omits nothing: loading it back reproduces every field, and
    # its empty ``out`` stays unset
    assert load_config(echo) == config
