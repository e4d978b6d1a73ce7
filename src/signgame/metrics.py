"""Agreement metrics for categorization and sign sharing.

Both metrics are chance corrected: they compare observed agreement to the
agreement two unrelated labelings of the same shape would show, so 0 means
"no better than chance" and 1 means perfect.
"""
from __future__ import annotations

import numpy as np

# rows of a stack scored per pass; bounds the temporaries of a long stack
_ROWS_PER_PASS = 32


def _check_labels(x, name: str, stack: bool = False) -> np.ndarray:
    """Validated labels: integer arrays as given, anything else as int64."""
    x = np.asarray(x)
    if x.ndim not in ((1, 2) if stack else (1,)) or x.size == 0:
        shape = "1-d label vector or 2-d stack of them" if stack else "1-d label vector"
        raise ValueError(f"{name} must be a non-empty {shape}")
    integer = x.dtype.kind in "iu"
    # integer labels need no floor test
    if x.min() < 0 or not (integer or np.all(x == np.floor(x))):
        raise ValueError(f"{name} must hold nonnegative integer labels")
    return x if integer else x.astype(np.int64)


def _passes(rows: np.ndarray):
    """Consecutive (≤ _ROWS_PER_PASS, n) int64 slices of a (rows, n) stack."""
    for start in range(0, rows.shape[0], _ROWS_PER_PASS):
        yield rows[start : start + _ROWS_PER_PASS].astype(np.int64)


def _row_counts(labels: np.ndarray, size: int) -> np.ndarray:
    """(rows, size) counts of each label value in each row of labels."""
    rows = labels.shape[0]
    labels = labels + np.arange(rows)[:, None] * size
    return np.bincount(labels.ravel(), minlength=rows * size).reshape(rows, size)


def _pairs(counts: np.ndarray) -> list[int]:
    # pairs within each count, summed along the last axis, as Python ints
    return (counts * (counts - 1) // 2).sum(axis=-1).tolist()


def adjusted_rand_index(labels_x, labels_y):
    """Chance-corrected pairwise agreement of two partitions.

    labels_x is one labeling (n,), or a stack (rows, n) of labelings that
    are each scored against labels_y (n,): a float for one labeling, a list
    of floats for a stack. Contingency counts are integer sums over many
    rows at once; the final products and division run in Python ints, so
    the result is exact for any n.
    """
    x = _check_labels(labels_x, "labels_x", stack=True)
    y = _check_labels(labels_y, "labels_y").astype(np.int64)
    n = x.shape[-1]
    if n != y.size:
        raise ValueError(f"length mismatch: {n} vs {y.size}")
    kx = int(x.max()) + 1
    ky = int(y.max()) + 1
    total_pairs = n * (n - 1) // 2
    # every row is scored against the one y, so its column sums are y's counts
    pairs_y = _pairs(np.bincount(y))
    out = []
    for rows in _passes(x.reshape(-1, n)):
        contingency = _row_counts(rows * ky + y, kx * ky)
        index = _pairs(contingency)
        row_pairs = _pairs(contingency.reshape(-1, kx, ky).sum(axis=2))
        for pairs_xy, pairs_x in zip(index, row_pairs):
            # scaled by total_pairs to stay in integers
            numerator = total_pairs * pairs_xy - pairs_x * pairs_y
            denominator = total_pairs * (pairs_x + pairs_y) - 2 * pairs_x * pairs_y
            # denominator = pairs_x * (total - pairs_y) + pairs_y * (total - pairs_x)
            # is 0 only when both partitions are all singletons, both are one
            # block, or n == 1: identical groupings, perfect agreement
            out.append(1.0 if denominator == 0 else (2 * numerator) / denominator)
    return out if x.ndim == 2 else out[0]


def kappa(signs_x, signs_y, num_signs: int):
    """Chance-corrected per-object sign agreement between two agents.

    Chance agreement is the match probability of independent draws from the
    two agents' empirical sign frequencies. signs_x and signs_y are one
    pair of sign vectors (n,), or two stacks (rows, n) scored row by row:
    a float for one pair, a list of floats for stacks.
    """
    x = _check_labels(signs_x, "signs_x", stack=True)
    y = _check_labels(signs_y, "signs_y", stack=True)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if num_signs < 1 or int(x.max()) >= num_signs or int(y.max()) >= num_signs:
        raise ValueError("labels exceed num_signs")
    n = x.shape[-1]
    out = []
    for rows_x, rows_y in zip(_passes(x.reshape(-1, n)), _passes(y.reshape(-1, n))):
        observed = (np.count_nonzero(rows_x == rows_y, axis=1) / n).tolist()
        freq_x = _row_counts(rows_x, num_signs) / n
        freq_y = _row_counts(rows_y, num_signs) / n
        for agree, fx, fy in zip(observed, freq_x, freq_y):
            # one dot product per row keeps the summation order of a single pair
            expected = float(fx @ fy)
            if expected == 1.0:
                out.append(1.0 if agree == 1.0 else 0.0)
            else:
                out.append((agree - expected) / (1.0 - expected))
    return out if x.ndim == 2 else out[0]


# verbal scale for kappa values, used to annotate comparison reports
KAPPA_BANDS = (
    (0.81, "almost perfect agreement"),
    (0.61, "substantial agreement"),
    (0.41, "moderate agreement"),
    (0.21, "fair agreement"),
    (0.0, "slight agreement"),
)


def kappa_band(value: float) -> str:
    for low, label in KAPPA_BANDS:
        if value >= low:
            return label
    return "no agreement"


def summarize(values) -> tuple[float, float]:
    """Mean and sample standard deviation; the deviation of one value is 0."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-d vector")
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd
