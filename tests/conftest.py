import numpy as np
import pytest
from hypothesis import settings

from epiwarn.panel import AlignedPanel, Series, SyntheticPanelSpec, WeekAxis, generate_synthetic

# selected with --hypothesis-profile=ci: every run tries the same examples, so
# a property test cannot pass on one run and fail on the next
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def synth_spec():
    return SyntheticPanelSpec(
        seasons=6,
        weeks_per_season=52,
        baseline_level=0.8,
        peak_height=4.0,
        peak_week_jitter=2,
        noise_scale=0.05,
        predictor_count=5,
        predictor_lead=3,
        rng_seed=7,
    )


@pytest.fixture(scope="session")
def synth_panel(synth_spec):
    return generate_synthetic(synth_spec)


@pytest.fixture(scope="session")
def noiseless_panel():
    return generate_synthetic(
        SyntheticPanelSpec(
            seasons=6,
            weeks_per_season=52,
            peak_week_jitter=0,
            noise_scale=0.0,
            predictor_count=2,
            predictor_lead=3,
            rng_seed=11,
        )
    )


def make_panel(gold_values, candidate_columns, start="2010-W01", names=None):
    """Build a small panel straight from arrays."""
    gold_values = np.asarray(gold_values, dtype=float)
    axis = WeekAxis(start=start, length=len(gold_values))
    if names is None:
        names = [f"c{i + 1}" for i in range(len(candidate_columns))]
    candidates = tuple(
        Series(name=n, values=np.asarray(col, dtype=float))
        for n, col in zip(names, candidate_columns)
    )
    return AlignedPanel(axis=axis, gold=Series(name="gold", values=gold_values), candidates=candidates)
