"""Experiment report containers and deterministic CSV/JSON writing.

Curve reports share one schema: (abscissa, estimate, std_err, theory,
n_effective).  Numbers are printed with 12 significant digits so a rerun
with the same spec reproduces the files byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import astuple, dataclass, field
from typing import List

from .errors import BadValue

CURVE_HEADER = ("abscissa", "estimate", "std_err", "theory", "n_effective")
DIAGNOSTICS_HEADER = ("replicate", "seed", "iterations", "residual",
                      "l2_stat", "max_stat", "tv_to_in_law")


def fmt(x) -> str:
    """12-significant-digit decimal rendering; stable for identical floats."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12g")


def atomic_write_text(path, text: str) -> None:
    """Write path through a temporary file beside it; BadValue on OSError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise BadValue(f"cannot write {os.fspath(path)!r}: "
                       f"{exc.strerror}") from exc


@dataclass(frozen=True)
class ReportRow:
    abscissa: float
    estimate: float
    std_err: float
    theory: float
    n_effective: int
    flagged: bool = False  # kept out of the CSV; mirrored in metadata


@dataclass
class ExperimentReport:
    experiment: str
    rows: List[ReportRow]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if not (-1e-9 <= row.estimate <= 1.0 + 1e-9):
                raise BadValue(
                    f"estimate {row.estimate!r} at {row.abscissa!r} "
                    "outside [0, 1]"
                )
            if row.std_err < 0 or not math.isfinite(row.std_err):
                raise BadValue(f"bad std_err {row.std_err!r}")
        flagged = [row.abscissa for row in self.rows if row.flagged]
        self.metadata.setdefault("flagged_abscissae", flagged)

    def csv_text(self) -> str:
        return _csv_text(CURVE_HEADER, (
            (row.abscissa, min(max(row.estimate, 0.0), 1.0), row.std_err,
             row.theory, row.n_effective) for row in self.rows))

    def write(self, csv_path, metadata_path=None) -> None:
        atomic_write_text(csv_path, self.csv_text())
        if metadata_path is not None:
            atomic_write_text(metadata_path,
                              json.dumps(self.metadata, indent=2, sort_keys=True) + "\n")

    def max_gap_to_theory(self) -> float:
        """Largest |estimate - theory| over unflagged rows with finite theory."""
        gaps = [abs(row.estimate - row.theory) for row in self.rows
                if not row.flagged and math.isfinite(row.theory)]
        return max(gaps) if gaps else float("nan")

    def summary_line(self) -> str:
        gap = self.max_gap_to_theory()
        gap_text = "n/a" if math.isnan(gap) else fmt(gap)
        return (f"{self.experiment}: {len(self.rows)} grid points, "
                f"max |estimate - theory| = {gap_text}")


def diagnostics_csv_text(rows) -> str:
    return _csv_text(DIAGNOSTICS_HEADER, map(astuple, rows))


def _csv_text(header, rows) -> str:
    """A header line, then one line per row with each cell through fmt."""
    lines = [",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"
