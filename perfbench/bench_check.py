"""Output checks, reference distance and digests for the benchmark.

Everything here is recomputed from the written CSVs with the benchmark's
own code and data, so a change to the package cannot move what it is
checked against.
"""
from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

VARIANTS = ("t2t", "h2h")
METHODS = ("mh", "reject", "gibbs")
CONDITIONS = (1, 2, 3, 4)
GRID_CELLS = tuple((v, m, c) for v in VARIANTS for m in METHODS for c in CONDITIONS)

# Published final-iteration means (ARI A, ARI B, kappa) per cell; kappa is
# not reported for the joint sampler.
REFERENCE_MEANS = {
    ("t2t", "mh", 1): (0.881, 0.886, 0.947),
    ("t2t", "reject", 1): (0.883, 0.886, 0.004),
    ("t2t", "gibbs", 1): (0.884, 0.886, None),
    ("h2h", "mh", 1): (0.881, 0.888, 0.999),
    ("h2h", "reject", 1): (0.882, 0.889, 0.004),
    ("h2h", "gibbs", 1): (0.881, 0.882, None),
    ("t2t", "mh", 2): (0.888, 0.708, 0.954),
    ("t2t", "reject", 2): (0.878, 0.650, 0.001),
    ("t2t", "gibbs", 2): (0.880, 0.706, None),
    ("h2h", "mh", 2): (0.879, 0.704, 0.996),
    ("h2h", "reject", 2): (0.885, 0.649, -0.010),
    ("h2h", "gibbs", 2): (0.881, 0.705, None),
    ("t2t", "mh", 3): (0.882, 0.453, 0.931),
    ("t2t", "reject", 3): (0.874, 0.342, -0.011),
    ("t2t", "gibbs", 3): (0.880, 0.451, None),
    ("h2h", "mh", 3): (0.883, 0.444, 1.000),
    ("h2h", "reject", 3): (0.876, 0.348, -0.011),
    ("h2h", "gibbs", 3): (0.881, 0.447, None),
    ("t2t", "mh", 4): (0.710, 0.460, 0.943),
    ("t2t", "reject", 4): (0.658, 0.348, -0.006),
    ("t2t", "gibbs", 4): (0.706, 0.460, None),
    ("h2h", "mh", 4): (0.704, 0.450, 0.992),
    ("h2h", "reject", 4): (0.658, 0.352, 0.004),
    ("h2h", "gibbs", 4): (0.705, 0.453, None),
}

# Values are written with six significant digits; a summary statistic
# recomputed from rounded detail values agrees to about 1e-6.
TOLERANCE = 1e-5


def _number(text: str) -> float | None:
    """A finite float, or None for a blank or unparseable field."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _score_ok(text: str) -> bool:
    value = _number(text)
    return value is not None and -1.0 <= value <= 1.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def _stats(values: list[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def check_reports(out_dir: Path, cells, trials: int, iterations: int) -> tuple[int, int, list[str]]:
    """Check detail.csv and summary.csv; returns (attempted, failed, problems).

    One operation is one trial of one cell. A trial fails when its detail
    rows are missing, out of order or out of range, when kappa is present
    on a gibbs row or absent elsewhere, or when its cell's summary row
    disagrees with the trial finals.
    """
    out_dir = Path(out_dir)
    problems: list[str] = []
    bad: set = set()
    with open(out_dir / "detail.csv", encoding="utf-8", newline="") as fh:
        detail = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = list(csv.DictReader(fh))

    rows_of: dict[tuple, list[dict]] = {}
    for row in detail:
        try:
            key = (row["variant"], row["method"], int(row["condition"]), int(row["trial"]))
        except (KeyError, TypeError, ValueError):
            problems.append(f"unreadable detail row {row}")
            continue
        rows_of.setdefault(key, []).append(row)
    expected = {(v, m, c, t) for v, m, c in cells for t in range(trials)}
    for key in sorted(set(rows_of) - expected):
        problems.append(f"unexpected detail rows for {key}")

    finals: dict[tuple, list[dict]] = {}
    for key in sorted(expected):
        rows = rows_of.get(key, [])
        gibbs = key[1] == "gibbs"
        reasons = []
        if [row.get("iteration") for row in rows] != [str(i) for i in range(iterations)]:
            reasons.append(f"{len(rows)} rows, not iterations 0..{iterations - 1} in order")
        if not all(_score_ok(row.get("ari_a", "")) and _score_ok(row.get("ari_b", "")) for row in rows):
            reasons.append("ARI missing, not finite or outside [-1, 1]")
        kappas = [row.get("kappa", "") for row in rows]
        if gibbs and any(kappas):
            reasons.append("kappa on a gibbs row")
        if not gibbs and not all(_score_ok(k) for k in kappas):
            reasons.append("kappa missing, not finite or outside [-1, 1]")
        if reasons:
            bad.add(key)
            problems.append(f"trial {key}: " + "; ".join(reasons))
        elif rows:
            finals.setdefault(key[:3], []).append(rows[-1])

    summary_of = {}
    for row in summary:
        try:
            summary_of[(row["variant"], row["method"], int(row["condition"]))] = row
        except (KeyError, TypeError, ValueError):
            problems.append(f"unreadable summary row {row}")
    for cell in cells:
        reason = _summary_problem(summary_of.get(tuple(cell)), finals.get(tuple(cell), []), trials, cell[1] == "gibbs")
        if reason:
            problems.append(f"summary {tuple(cell)}: {reason}")
            bad.update((*cell, t) for t in range(trials))
    return len(expected), len(bad), problems


def _summary_problem(row: dict | None, finals: list[dict], trials: int, gibbs: bool) -> str | None:
    if row is None:
        return "missing"
    if len(finals) != trials:
        return "trials failed their own checks"
    for name in ("ari_a", "ari_b", "kappa"):
        mean_text, sd_text = row.get(f"{name}_mean", ""), row.get(f"{name}_sd", "")
        if name == "kappa" and gibbs:
            if mean_text or sd_text:
                return "kappa summary on a gibbs cell"
            continue
        mean, sd = _number(mean_text), _number(sd_text)
        if mean is None or sd is None:
            return f"{name} mean or sd missing"
        want_mean, want_sd = _stats([float(f[name]) for f in finals])
        if not (_close(mean, want_mean) and _close(sd, want_sd)):
            return f"{name} mean/sd {mean}/{sd}, finals give {want_mean:.6g}/{want_sd:.6g}"
    return None


def read_summary_means(out_dir: Path) -> dict:
    """(variant, method, condition) -> (ARI A mean, ARI B mean, kappa mean or None)."""
    with open(Path(out_dir) / "summary.csv", encoding="utf-8", newline="") as fh:
        return {
            (row["variant"], row["method"], int(row["condition"])): tuple(
                _number(row[f"{name}_mean"]) for name in ("ari_a", "ari_b", "kappa")
            )
            for row in csv.DictReader(fh)
        }


def ref_gap(means: dict) -> float:
    """Mean absolute distance of the cell means from the published means.

    Taken over every (cell, metric) where both values exist.
    """
    gaps = [
        abs(got - want)
        for cell, measured in means.items()
        if cell in REFERENCE_MEANS
        for got, want in zip(measured, REFERENCE_MEANS[cell])
        if got is not None and want is not None
    ]
    return statistics.fmean(gaps) if gaps else math.nan


def digests(out_dir: Path) -> dict:
    """sha256 of detail.csv and summary.csv."""
    return {
        name: hashlib.sha256((Path(out_dir) / f"{name}.csv").read_bytes()).hexdigest()
        for name in ("detail", "summary")
    }


def csv_bytes(out_dir: Path) -> int:
    return sum((Path(out_dir) / f"{name}.csv").stat().st_size for name in ("detail", "summary"))
