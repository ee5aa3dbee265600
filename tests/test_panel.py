import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import epiwarn.panel as panel_module
from epiwarn.panel import (
    AlignedPanel,
    AlignmentError,
    DuplicateWeekError,
    MissingDataError,
    PanelError,
    ParseError,
    Series,
    SyntheticPanelSpec,
    WeekAxis,
    generate_synthetic,
    index_to_week,
    load_panel,
    load_panel_from_manifest,
    read_manifest,
    week_to_index,
    write_panel,
    write_series_csv,
    _read_in_order,
    _read_series_rows,
)


def _write_csv(path, start_label, values):
    start = week_to_index(start_label)
    lines = ["week,value"]
    for i, v in enumerate(values):
        lines.append(f"{index_to_week(start + i)},{v}")
    path.write_text("\n".join(lines) + "\n")


def test_week_label_round_trip():
    for label in ["2010-W01", "2015-W53", "2009-W27", "2016-W52", "0999-W01"]:
        assert index_to_week(week_to_index(label)) == label


def test_load_panel_year_below_1000(tmp_path):
    p = tmp_path / "early.csv"
    p.write_text("week,value\n0999-W01,1.0\n0999-W02,2.0\n0999-W03,3.0\n")
    panel = load_panel(p, [p])
    assert panel.axis.labels() == ("0999-W01", "0999-W02", "0999-W03")
    assert panel.gold.values.tolist() == [1.0, 2.0, 3.0]


def test_week_indices_consecutive_across_year_boundary():
    # 2015 is a 53-week ISO year
    assert week_to_index("2016-W01") == week_to_index("2015-W53") + 1
    assert week_to_index("2015-W53") == week_to_index("2015-W52") + 1


def test_bad_week_labels_rejected():
    with pytest.raises(ParseError):
        week_to_index("2010-13")
    with pytest.raises(ParseError):
        week_to_index("2010-W54")


def test_load_panel_trims_to_intersection(tmp_path):
    # gold weeks 1..100 of 2010-W01, candidate starting 4 weeks later and
    # running longer: the panel covers the 96-week overlap
    _write_csv(tmp_path / "gold.csv", "2010-W01", [1.0] * 100)
    _write_csv(tmp_path / "cand.csv", "2010-W05", [2.0] * 116)
    panel = load_panel(tmp_path / "gold.csv", [tmp_path / "cand.csv"])
    assert panel.axis.start == "2010-W05"
    assert panel.axis.length == 96
    assert panel.gold.name == "gold"
    assert panel.candidate_names() == ("cand",)


def test_load_panel_intersection_matches_interval_oracle(tmp_path):
    rng = np.random.default_rng(3)
    base = week_to_index("2011-W01")
    for trial in range(20):
        starts = rng.integers(0, 30, size=4)
        lengths = rng.integers(10, 80, size=4)
        files = []
        for i, (s, L) in enumerate(zip(starts, lengths)):
            p = tmp_path / f"t{trial}_s{i}.csv"
            _write_csv(p, index_to_week(base + int(s)), list(rng.normal(size=int(L))))
            files.append(p)
        lo = max(base + int(s) for s in starts)
        hi = min(base + int(s) + int(L) - 1 for s, L in zip(starts, lengths))
        if hi - lo + 1 < 3:
            with pytest.raises(AlignmentError):
                load_panel(files[0], files[1:])
        else:
            panel = load_panel(files[0], files[1:])
            assert week_to_index(panel.axis.start) == lo
            assert panel.axis.length == hi - lo + 1


def test_load_panel_rejects_duplicate_names(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _write_csv(tmp_path / "gold.csv", "2010-W01", [1.0] * 10)
    _write_csv(a / "same.csv", "2010-W01", [1.0] * 10)
    _write_csv(b / "same.csv", "2010-W01", [2.0] * 10)
    with pytest.raises(ValueError, match="duplicate series name"):
        load_panel(tmp_path / "gold.csv", [a / "same.csv", b / "same.csv"])


def test_load_panel_rejects_a_candidate_with_the_golds_name_and_other_values(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _write_csv(a / "ili.csv", "2010-W01", [1.0, 3.0] * 5)
    _write_csv(b / "ili.csv", "2010-W01", [1.0] * 10)
    _write_csv(b / "pred1.csv", "2010-W01", [2.0] * 10)
    with pytest.raises(ValueError, match="'ili' has the gold series' name"):
        load_panel(a / "ili.csv", [b / "ili.csv", b / "pred1.csv"])
    # the gold file itself may be a candidate
    panel = load_panel(a / "ili.csv", [a / "ili.csv", b / "pred1.csv"])
    assert panel.candidate_names() == ("ili", "pred1")


def test_load_panel_gap_is_missing_data_error(tmp_path):
    # weeks 2010-W01..W29 then W31..: W30 missing
    start = week_to_index("2010-W01")
    lines = ["week,value"]
    for i in range(40):
        if index_to_week(start + i) == "2010-W30":
            continue
        lines.append(f"{index_to_week(start + i)},1.0")
    p = tmp_path / "gappy.csv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingDataError, match="2010-W30"):
        _ = load_panel(p, [p])


def test_load_panel_duplicate_week(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("week,value\n2010-W01,1.0\n2010-W02,1.0\n2010-W02,2.0\n2010-W03,1.0\n")
    with pytest.raises(DuplicateWeekError, match="2010-W02"):
        load_panel(p, [p])


def test_load_panel_missing_value_and_bad_row(tmp_path):
    p = tmp_path / "noval.csv"
    p.write_text("week,value\n2010-W01,1.0\n2010-W02,\n")
    with pytest.raises(MissingDataError, match="2010-W02"):
        load_panel(p, [p])
    q = tmp_path / "badrow.csv"
    q.write_text("week,value\n2010-W01,1.0\n2010-W02,1.0,extra\n")
    with pytest.raises(ParseError, match="line 3"):
        load_panel(q, [q])


def test_load_panel_nonoverlapping_ranges(tmp_path):
    _write_csv(tmp_path / "gold.csv", "2010-W01", [1.0] * 10)
    _write_csv(tmp_path / "late.csv", "2012-W01", [1.0] * 10)
    with pytest.raises(AlignmentError):
        load_panel(tmp_path / "gold.csv", [tmp_path / "late.csv"])


def test_panel_round_trip_is_exact(tmp_path, synth_panel):
    manifest = write_panel(synth_panel, tmp_path / "panel")
    reloaded = load_panel_from_manifest(manifest)
    assert reloaded.axis == synth_panel.axis
    assert np.array_equal(reloaded.gold.values, synth_panel.gold.values)
    for name in synth_panel.candidate_names():
        assert np.array_equal(
            reloaded.candidate(name).values, synth_panel.candidate(name).values
        )


def test_manifest_reader_orders_candidates(tmp_path, synth_panel):
    manifest = write_panel(synth_panel, tmp_path / "p")
    gold, candidates = read_manifest(manifest)
    assert gold.stem == "gold"
    assert tuple(c.stem for c in candidates) == synth_panel.candidate_names()


def test_synthetic_deterministic(synth_spec):
    a = generate_synthetic(synth_spec)
    b = generate_synthetic(synth_spec)
    assert np.array_equal(a.gold.values, b.gold.values)
    for name in a.candidate_names():
        assert np.array_equal(a.candidate(name).values, b.candidate(name).values)


def test_synthetic_degenerate_noiseless_predictors_equal_gold():
    spec = SyntheticPanelSpec(
        seasons=3, weeks_per_season=40, noise_scale=0.0, peak_week_jitter=0,
        predictor_count=3, predictor_lead=0, rng_seed=5,
    )
    panel = generate_synthetic(spec)
    for name in panel.candidate_names():
        assert np.array_equal(panel.candidate(name).values, panel.gold.values)


def _upward_crossings(values, threshold):
    above = values >= threshold
    return [t for t in range(1, len(values)) if above[t] and not above[t - 1]]


def test_synthetic_lead_shifts_crossings_by_lead_weeks():
    spec = SyntheticPanelSpec(
        seasons=4, weeks_per_season=52, noise_scale=0.0, peak_week_jitter=0,
        predictor_count=1, predictor_lead=3, rng_seed=2,
    )
    panel = generate_synthetic(spec)
    threshold = 1.25
    gold_crossings = _upward_crossings(panel.gold.values, threshold)
    pred_crossings = _upward_crossings(panel.candidates[0].values, threshold)
    assert len(gold_crossings) == spec.seasons
    assert pred_crossings == [c - 3 for c in gold_crossings]


def test_synthetic_noiseless_single_crossing_per_season():
    spec = SyntheticPanelSpec(
        seasons=5, weeks_per_season=52, baseline_level=0.8, peak_height=4.0,
        peak_week_jitter=2, noise_scale=0.0, predictor_count=1, rng_seed=9,
    )
    panel = generate_synthetic(spec)
    for threshold in [0.81, 1.25, 2.0, 3.5, 4.75]:
        assert len(_upward_crossings(panel.gold.values, threshold)) == spec.seasons


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticPanelSpec(peak_height=0.0)
    with pytest.raises(ValueError):
        SyntheticPanelSpec(seasons=0)
    with pytest.raises(ValueError):
        SyntheticPanelSpec(peak_week_jitter=40)


def test_panel_validation():
    axis = WeekAxis(start="2010-W01", length=3)
    gold = Series(name="gold", values=np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        Series(name="bad", values=np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="axis length"):
        AlignedPanel(axis, gold, (Series(name="c", values=np.ones(4)),))


def test_write_series_uses_repr_round_trip(tmp_path):
    axis = WeekAxis(start="2010-W01", length=3)
    values = np.array([0.1 + 0.2, 1 / 3, 1e-17])
    write_series_csv(Series(name="x", values=values), axis, tmp_path / "x.csv")
    text = (tmp_path / "x.csv").read_text().splitlines()
    parsed = [float(line.split(",")[1]) for line in text[1:]]
    assert parsed == list(values)


# 2015 is a 53-week ISO year, so runs from here cross 2015-W53 and a new year
_RUN_START = week_to_index("2015-W45")
_BAD_VALUES = ["", " ", "nan", "inf", "-inf", "1e500", "1_0", "1__0", "abc", "0x1f", "1.5.2", "+-1"]
_BAD_LABELS = ["2015-W54", "2015-13", "15-W01", "0999-W01", "2015-w01", "", " 2016-W02 ", "2015-W53x"]
# ASCII and Unicode whitespace, which str.strip removes and float(bytes) may not
_PADDING = [" ", "  ", "\t", "\x1c", "\xa0", "\x0b"]


def _mutate_rows(rows, op, draw):
    """Apply one row-level damage (or harmless variation) to the rows."""
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if op == "shuffle":
        rows[:] = draw(st.permutations(rows))
    elif op == "gap" and len(rows) > 1:
        del rows[i]
    elif op == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    elif op == "pad":
        k = draw(st.integers(0, len(row) - 1))
        row[k] = draw(st.sampled_from(_PADDING)) + row[k] + draw(st.sampled_from(["", *_PADDING]))
    elif op == "quote":
        k = draw(st.integers(0, len(row) - 1))
        row[k] = f'"{row[k]}"'
    elif op == "extra_field":
        row.append(draw(st.sampled_from(["", "x", "1.0"])))
    elif op == "drop_field":
        del row[1:]
    elif op == "bad_value" and len(row) > 1:
        row[1] = draw(st.sampled_from(_BAD_VALUES))
    elif op == "bad_label":
        row[0] = draw(st.sampled_from(_BAD_LABELS))
    elif op == "far_label":
        row[0] = index_to_week(_RUN_START + draw(st.integers(-3, 40)))
    elif op == "foreign_char":  # a byte outside ASCII, or a NUL, inside a field
        k = draw(st.integers(0, len(row) - 1))
        at = draw(st.integers(0, len(row[k])))
        row[k] = row[k][:at] + draw(st.sampled_from(["\u0661", "\xa0", "\x00", "\xe9"])) + row[k][at:]


@st.composite
def _series_files(draw):
    """The text of a series file: a valid in-order file, then maybe damaged."""
    first = _RUN_START + draw(st.integers(0, 10))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    fmt = draw(st.sampled_from([repr, "{:.3f}".format, "{:e}".format, lambda v: str(int(v))]))
    rows = [[index_to_week(first + i), fmt(v)] for i, v in enumerate(values)]
    ops = draw(st.lists(st.sampled_from([
        "shuffle", "gap", "duplicate", "pad", "quote", "extra_field", "drop_field",
        "bad_value", "bad_label", "far_label", "foreign_char",
    ]), max_size=3))
    for op in ops:
        _mutate_rows(rows, op, draw)
    header = draw(st.one_of(
        st.just("week,value"),
        st.sampled_from(["Week, VALUE ", '"week",value', "week,val", "week"]),
    ))
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    newline = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [newline] * len(lines)
    if newline == "mixed":  # each line's own end, LF or CRLF
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                             max_size=len(lines)))
    text = "".join(map(str.__add__, lines[:-1], ends)) + lines[-1] + draw(
        st.sampled_from([ends[-1], ""]))
    intact = (not ops and header == "week,value" and len(lines) == len(rows) + 1
              and len(set(ends)) == 1)
    for damage in draw(st.lists(st.sampled_from(["bom", "bare_cr", "nul"]), max_size=2)):
        if damage == "bom":
            text = "\ufeff" + text
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + ("\r" if damage == "bare_cr" else "\x00") + text[at:]
        intact = False
    if draw(st.integers(0, 3)) == 0:
        text, intact = text[: draw(st.integers(0, len(text)))], False
    return text, intact


def _outcome(read, path):
    try:
        first, values = read(path)
    except PanelError as exc:
        return type(exc), str(exc)
    return first, values.tobytes()


def _load_outcome(path):
    try:
        panel = load_panel(path, [path])
    except PanelError as exc:
        return type(exc), str(exc)
    return week_to_index(panel.axis.start), panel.gold.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_series_files())
@example(case=("week,value\n2015-W45,1.0\n2015-W46,2.0,3.0\n", False))  # extra last field
@example(case=("week,value\r\n2015-W45,1.0\r\n2015-W46,2.0\r", False))  # bare CR at the end
@example(case=("week,val\n2015-W45,0.0\n", False))  # a bad header over good rows
@example(case=("\rweek,value\n2015-W45,0.0\n", False))  # bare CR before the header
@example(case=("week,value\r\n2015-W45,1.\r5\r\n", False))  # bare CR inside a value
@example(case=("week,value\n2015-W45,1.0\r\n2015-W46,2.0\n", False))  # mixed line ends
@example(case=("week,value\n2015-W45,1.0,2015-W46\n2.0\n", False))  # commas in the wrong rows
@example(case=("week,value\n2015-W45,1.0\n2015-W46,2.0\n2015-W47\n", False))  # a last row's comma
@example(case=("week,value\n2015-W45,0.0\n2015-W46,0.0\n\n\n", False))  # blank lines at the end
@example(case=("week,value\n2015-W45,nan\n", False))  # a non-finite value
@example(case=("\ufeffweek,value\n2015-W45,1.0\n", False))  # a UTF-8 byte order mark
@example(case=("week,value\n2015-W45,\u0661\n2015-W46,\xa02.0\n", False))  # Unicode digit, space
@example(case=("week,value\n2015-W45,1.0\x00\n", False))  # NUL
@example(case=("week,value\n2015-W45,\x1c1.0\n2015-W46,\t2.0\t\n", False))  # ASCII padding
def test_bulk_and_row_parsers_agree(tmp_path_factory, case):
    """The public loader reads every file as the row-by-row reader does, and
    the bulk pass accepts at least every intact in-order file."""
    text, intact = case
    path = tmp_path_factory.mktemp("series") / "s.csv"
    path.write_bytes(text.encode())
    rows = _outcome(_read_series_rows, path)
    bulk = _read_in_order(path)
    if bulk is not None:
        assert (bulk[0], bulk[1].tobytes()) == rows
    if intact:
        assert bulk is not None
    loaded = _load_outcome(path)
    if isinstance(rows[1], bytes) and len(rows[1]) < 3 * 8:
        assert loaded[0] is AlignmentError  # fewer than 3 weeks form no panel
    else:
        assert loaded == rows


@pytest.mark.parametrize("start", ["2010-W01", "0999-W50"])
def test_written_panels_are_read_in_one_pass_over_their_bytes(tmp_path, monkeypatch, start):
    """``write_panel``'s files (CRLF, ``repr`` floats), and the same files with
    LF line ends and no final newline, never reach the row reader; from
    0999-W50 the zero-padded labels cross into year 1000."""
    panel = generate_synthetic(SyntheticPanelSpec(seasons=2, predictor_count=3, start_week=start))
    manifest = write_panel(panel, tmp_path)
    files = sorted(tmp_path.glob("*.csv"))
    if start == "0999-W50":
        assert "1000-W01" in panel.axis.labels()

    def refused(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(panel_module, "_read_series_rows", refused)
    for line_end in (b"\r\n", b"\n"):
        for f in files:
            data = f.read_bytes()
            if line_end == b"\r\n":
                assert data.endswith(b"\r\n") and data.count(b"\r\n") == data.count(b"\n")
            else:
                f.write_bytes(data.replace(b"\r\n", b"\n").removesuffix(b"\n"))
        loaded = load_panel_from_manifest(manifest)
        assert loaded.axis == panel.axis
        for old, new in zip((panel.gold, *panel.candidates), (loaded.gold, *loaded.candidates)):
            assert new.name == old.name
            assert np.array_equal(new.values, old.values)


def test_byte_pass_leaves_lines_over_the_csv_field_limit_to_the_row_reader(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("week,value\n2015-W45,1.0\n2015-W46,1.5\n2015-W47,2.0\n")
    long = tmp_path / "long.csv"
    long.write_text("week,value\n2015-W45,1.0\n2015-W46," + "0" * 40 + "1.5\n2015-W47,2.0\n")
    default = csv.field_size_limit(30)  # under each file's size
    try:
        assert _read_in_order(short)[1].tolist() == [1.0, 1.5, 2.0]
        assert _read_in_order(long) is None
        with pytest.raises(ParseError, match="long.csv: line 3: field larger than field limit"):
            load_panel(long, [long])
    finally:
        csv.field_size_limit(default)
    assert _read_in_order(long)[1].tolist() == [1.0, 1.5, 2.0]
