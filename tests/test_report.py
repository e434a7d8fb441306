import json
import math

import pytest

from mixlab.errors import BadValue
from mixlab.report import (CURVE_HEADER, DIAGNOSTICS_HEADER,
                           ExperimentReport, ReportRow, atomic_write_text,
                           diagnostics_csv_text, fmt)
from mixlab.stationary import DiagnosticsRow

from helpers import parse_curve_csv


def make_report():
    rows = [
        ReportRow(abscissa=0.5, estimate=0.91, std_err=0.01, theory=0.9097,
                  n_effective=10),
        ReportRow(abscissa=1.0, estimate=0.70, std_err=0.02, theory=0.7357,
                  n_effective=10, flagged=True),
        ReportRow(abscissa=2.0, estimate=0.14, std_err=0.0, theory=0.1353,
                  n_effective=10),
    ]
    return ExperimentReport("demo", rows, {"alpha": 0.3})


def test_fmt_is_stable_and_compact():
    assert fmt(3) == "3"
    assert fmt(0.5) == "0.5"
    assert fmt(1 / 3) == format(1 / 3, ".12g")
    assert fmt(float("nan")) == "nan"


def test_csv_round_trip(tmp_path):
    report = make_report()
    path = tmp_path / "curve.csv"
    report.write(path, tmp_path / "curve.json")
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CURVE_HEADER)
    rows = parse_curve_csv(text)
    assert [r.abscissa for r in rows] == [0.5, 1.0, 2.0]
    assert rows[1].estimate == pytest.approx(0.70)
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert meta["alpha"] == 0.3
    assert meta["flagged_abscissae"] == [1.0]


def test_estimates_outside_unit_interval_rejected():
    with pytest.raises(BadValue):
        ExperimentReport("demo", [ReportRow(0.0, 1.2, 0.0, 1.0, 1)])
    with pytest.raises(BadValue):
        ExperimentReport("demo", [ReportRow(0.0, 0.5, -0.1, 1.0, 1)])
    with pytest.raises(BadValue):
        ExperimentReport("demo", [ReportRow(0.0, 0.5, math.nan, 1.0, 1)])


def test_csv_clips_estimates_into_the_unit_interval():
    # the report admits estimates up to 1e-9 outside [0, 1]; the CSV
    # prints them clipped, and every other cell as fmt prints it
    report = ExperimentReport("demo", [
        ReportRow(0.0, -1e-10, 0.0, 1.0, 3),
        ReportRow(0.5, 1.0 + 1e-10, 1 / 3, math.nan, 4),
        ReportRow(2.0, 0.25, 0.125, 0.2, 5)])
    assert report.csv_text() == (
        HEADER + "\n0,0,0,1,3\n0.5,1," + fmt(1 / 3) + ",nan,4\n"
        "2,0.25,0.125,0.2,5\n")


def test_max_gap_skips_flagged_and_nan_rows():
    report = make_report()
    # flagged row at beta=1 has the largest raw gap; it must not count
    assert report.max_gap_to_theory() == pytest.approx(0.0047, abs=1e-12)
    with_nan = ExperimentReport(
        "demo", [ReportRow(0.0, 0.5, 0.0, math.nan, 1)])
    assert math.isnan(with_nan.max_gap_to_theory())
    assert "n/a" in with_nan.summary_line()


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


def test_diagnostics_csv_shape():
    rows = [DiagnosticsRow(replicate=0, seed=17, iterations=12,
                           residual=1e-11, l2_stat=1.5, max_stat=2.0,
                           tv_to_in_law=0.05)]
    text = diagnostics_csv_text(rows)
    lines = text.splitlines()
    assert lines[0].startswith("replicate,seed,iterations")
    assert lines[1].split(",")[0:2] == ["0", "17"]
    assert text == (",".join(DIAGNOSTICS_HEADER)
                    + "\n0,17,12,1e-11,1.5,2,0.05\n")


HEADER = ",".join(CURVE_HEADER)


@pytest.mark.parametrize("text", [
    "", None, HEADER + "\n1,0.5,0,0\n", HEADER + "\n1,0.5,0,0,1,2\n",
    HEADER + "\n1,x,0,0,1\n", HEADER + "\n1,0.5,0,0,1.5\n", "h" * 3000,
    HEADER + "\n" + "1," * 1500],
    ids=["empty", "none", "short-row", "long-row", "non-number",
         "fractional-count", "3000-character-header", "3000-character-row"])
def test_parse_curve_csv_refuses_malformed_text(text):
    # these ended in IndexError, AttributeError and ValueError; a long
    # text is shown shortened (the whole 3000-character header made an
    # error of 3022 characters)
    with pytest.raises(BadValue) as info:
        parse_curve_csv(text)
    assert len(str(info.value)) <= 250, str(info.value)
