"""Dataset ingestion and feature engineering for the classifier path.

Mean imputation, clustered SMOTE-style oversampling of the minority
(attack) class, Z-score standardization fitted on the training split,
stratified splitting, and sliding-window extraction.

Dataset CSV schema: header ``t,<feature...>,label`` with an empty feature
cell meaning a missing value; the label column is required, and the tick
column is checked but not kept. Any other unparsable or non-finite cell is
a DataError naming its file, row and column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .io_utils import parse_column, read_csv, write_columns


@dataclass
class RawDataset:
    columns: list[str]              # feature names
    values: np.ndarray              # (n, m) float, NaN = missing
    labels: np.ndarray              # (n,) int 0/1

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DimensionError("dataset values must be a 2-D array")
        if len(self.columns) != self.values.shape[1]:
            raise DataError("schema width does not match value width")
        if len(self.labels) != len(self.values):
            raise DataError("label count does not match row count")
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise DataError(f"labels must be 0/1, found {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on the training split only."""

    means: np.ndarray
    stds: np.ndarray   # population (1/n) standard deviations, >= 0


def impute_mean(d: RawDataset) -> RawDataset:
    """Replace missing entries by the column mean of the present values."""
    values = d.values.copy()
    for j in range(values.shape[1]):
        col = values[:, j]
        present = ~np.isnan(col)
        if not present.any():
            raise DataError(f"column '{d.columns[j]}' has no present values to impute from")
        col[~present] = col[present].mean()
    return RawDataset(columns=list(d.columns), values=values, labels=d.labels.copy())


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            max_iter: int = 100) -> np.ndarray:
    """Seeded Lloyd iterations; returns the cluster index of every point."""
    centers = points[rng.choice(len(points), size=k, replace=False)].copy()
    assign = None
    for _ in range(max_iter):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_assign = np.argmin(dists, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return assign


def cks_oversample(d: RawDataset, k_clusters: int = 3, seed: int = 0) -> RawDataset:
    """Balance the classes with clustered SMOTE-style synthetic minority rows.

    The minority class is k-means clustered; each cluster receives a quota
    of synthetic samples proportional to its size, and every synthetic
    point interpolates between a cluster member and one of its nearest
    within-cluster neighbours: x_new = x_i + u * (x_nn - x_i), u ~ U(0, 1).
    Original rows are kept verbatim; synthetics are appended. A
    single-point cluster duplicates its point with 1e-6 * sigma_col jitter.
    """
    if np.isnan(d.values).any():
        raise DataError("impute missing values before oversampling")
    counts = {c: int((d.labels == c).sum()) for c in (0, 1)}
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("oversampling needs both classes present")
    if counts[0] == counts[1]:
        return d
    minority = 0 if counts[0] < counts[1] else 1
    need = abs(counts[0] - counts[1])
    minority_rows = d.values[d.labels == minority]
    if len(minority_rows) < k_clusters:
        raise DataError(
            f"minority class has {len(minority_rows)} rows, fewer than "
            f"{k_clusters} clusters"
        )

    rng = np.random.default_rng(seed)
    assign = _kmeans(minority_rows, k_clusters, rng)
    sizes = np.array([(assign == c).sum() for c in range(k_clusters)])

    # Cluster quotas proportional to cluster size, remainders to the largest
    # fractional parts (ties resolved by cluster index).
    raw = need * sizes / sizes.sum()
    quotas = np.floor(raw).astype(int)
    remainder = need - quotas.sum()
    order = np.argsort(-(raw - quotas), kind="stable")
    quotas[order[:remainder]] += 1

    col_sigma = d.values.std(axis=0)
    synthetic = []
    for c in range(k_clusters):
        members = minority_rows[assign == c]
        if quotas[c] == 0:
            continue
        if len(members) == 1:
            for _ in range(quotas[c]):
                jitter = rng.normal(0.0, 1.0, size=members.shape[1]) * 1e-6 * col_sigma
                synthetic.append(members[0] + jitter)
            continue
        nn_k = min(5, len(members) - 1)
        diffs = members[:, None, :] - members[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        neighbours = np.argsort(dists, axis=1, kind="stable")[:, :nn_k]
        for _ in range(quotas[c]):
            i = int(rng.integers(len(members)))
            j = int(neighbours[i][int(rng.integers(nn_k))])
            u = rng.random()
            synthetic.append(members[i] + u * (members[j] - members[i]))

    values = np.vstack([d.values, np.array(synthetic)])
    labels = np.concatenate([d.labels, np.full(need, minority, dtype=d.labels.dtype)])
    return RawDataset(columns=list(d.columns), values=values, labels=labels)


def fit_standardizer(train_values: np.ndarray) -> Standardizer:
    """Column means and population standard deviations of the training split."""
    values = np.asarray(train_values, dtype=float)
    if values.ndim != 2 or len(values) == 0:
        raise DataError("standardizer needs a non-empty 2-D training matrix")
    return Standardizer(means=values.mean(axis=0), stds=values.std(axis=0))


def apply_standardizer(std: Standardizer, rows: np.ndarray) -> np.ndarray:
    """Z-score transform; constant columns (std 0) map to 0."""
    rows = np.asarray(rows, dtype=float)
    safe = np.where(std.stds > 0, std.stds, 1.0)
    out = (rows - std.means) / safe
    out[..., std.stds == 0] = 0.0
    return out


def split(d: RawDataset, train_fraction: float = 0.8,
          seed: int = 0) -> tuple[RawDataset, RawDataset]:
    """Seeded stratified shuffle split; both splits contain both classes."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train fraction must lie strictly in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in (0, 1):
        idx = np.flatnonzero(d.labels == c)
        if len(idx) < 2:
            raise DataError(f"class {c} has fewer than 2 rows; cannot stratify")
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)

    def take(indices):
        return RawDataset(columns=list(d.columns), values=d.values[indices],
                          labels=d.labels[indices])

    return take(train_idx), take(test_idx)


def window(values: np.ndarray, labels: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Windows starting at every row; each takes its last row's label."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if length < 1:
        raise ConfigError("window length must be at least 1")
    if len(values) < length:
        raise DataError(f"series of {len(values)} rows is shorter than window {length}")
    if len(labels) != len(values):
        raise DataError("label count does not match row count")
    starts = np.arange(len(values) - length + 1)
    windows = np.stack([values[s:s + length] for s in starts])
    return windows, labels[starts + length - 1]


def write_dataset_csv(ticks, features: dict, labels, path) -> None:
    """Write the ``t`` column, one column per ``features`` entry (name ->
    column) and the 0/1 (or boolean) labels; any column may be given as the
    cells ``io_utils.fmt_column`` made of it, to share them with other files."""
    write_columns(path, ["t", *features, "label"], [ticks, *features.values(), labels])


def read_dataset_csv(path) -> RawDataset:
    header, rows = read_csv(path)
    if len(header) < 3 or header[0] != "t" or header[-1] != "label":
        raise DataError(f"{path}: dataset header must be t,<feature...>,label, got {header}")
    feature_cols = header[1:-1]
    parse_column(path, rows, 0, "t")  # every tick must parse; rows keep file order
    values = np.column_stack([
        parse_column(path, rows, j, name, empty_is_missing=True)
        for j, name in enumerate(feature_cols, start=1)
    ])
    labels = parse_column(path, rows, len(header) - 1, "label").astype(int)
    return RawDataset(columns=feature_cols, values=values, labels=labels)
