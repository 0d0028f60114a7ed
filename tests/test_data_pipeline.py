import numpy as np
import pytest

from conftest import make_labeled_dataset
from fdia_lab.data_pipeline import (RawDataset, apply_standardizer, cks_oversample,
                                    fit_standardizer, impute_mean, read_dataset_csv,
                                    split, window)
from fdia_lab.errors import DataError
from fdia_lab.io_utils import fmt_column, write_columns


def small_dataset(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = np.zeros(len(values), dtype=int) if labels is None else labels
    return RawDataset(columns=[f"c{i}" for i in range(values.shape[1])],
                      values=values, labels=np.asarray(labels, dtype=int))


# --- imputation ----------------------------------------------------------------

def test_impute_no_missing_is_identity():
    d = small_dataset([[1.0, 2.0], [3.0, 4.0]])
    out = impute_mean(d)
    np.testing.assert_array_equal(out.values, d.values)


def test_impute_column_mean_hand_case():
    d = small_dataset([[1.0], [np.nan], [3.0]])
    out = impute_mean(d)
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 2.0, 3.0])


def test_impute_preserves_column_mean():
    d = small_dataset([[1.0, 5.0], [np.nan, 7.0], [3.0, np.nan], [5.0, 9.0]])
    out = impute_mean(d)
    np.testing.assert_allclose(out.values[:, 0].mean(), np.nanmean(d.values[:, 0]))
    np.testing.assert_allclose(out.values[:, 1].mean(), np.nanmean(d.values[:, 1]))


def test_impute_all_missing_column_rejected():
    d = small_dataset([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(DataError):
        impute_mean(d)


# --- oversampling ----------------------------------------------------------------

def test_oversample_balanced_input_unchanged():
    d = small_dataset([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 6.0]],
                      labels=[0, 0, 1, 1])
    out = cks_oversample(d, k_clusters=2, seed=0)
    np.testing.assert_array_equal(out.values, d.values)
    np.testing.assert_array_equal(out.labels, d.labels)


def test_oversample_synthetics_on_segment():
    # one 2-point minority cluster: synthetics lie on the connecting segment
    values = [[0.0, 0.0], [2.0, 2.0]] + [[10.0 + i, -5.0] for i in range(8)]
    labels = [1, 1] + [0] * 8
    d = small_dataset(values, labels)
    out = cks_oversample(d, k_clusters=1, seed=3)
    synthetic = out.values[10:]
    assert len(synthetic) == 6
    for row in synthetic:
        # x = u*(2,2) for u in [0,1]
        assert row[0] == pytest.approx(row[1], abs=1e-12)
        assert -1e-12 <= row[0] <= 2.0 + 1e-12


def test_oversample_interpolates_between_nearest_neighbours():
    # one cluster of two far-apart groups of 7 rows: each row's 5 nearest
    # neighbours lie in its own group, and so does every synthetic row
    groups = [np.linspace(0.0, 0.6, 7), np.linspace(100.0, 100.6, 7)]
    values = np.concatenate([*groups, np.linspace(40.0, 60.0, 40)])[:, None]
    d = small_dataset(values, [1] * 14 + [0] * 40)
    synthetic = cks_oversample(d, k_clusters=1, seed=0).values[54:, 0]
    assert len(synthetic) == 26
    for x in synthetic:
        assert any(group[0] <= x <= group[-1] for group in groups)


def test_oversample_balances_90_10(rng):
    values = rng.normal(size=(1000, 3))
    labels = (rng.random(1000) < 0.1).astype(int)
    d = RawDataset(columns=["a", "b", "c"], values=values, labels=labels)
    out = cks_oversample(d, k_clusters=3, seed=5)
    assert int((out.labels == 0).sum()) == int((out.labels == 1).sum())


def test_oversample_keeps_originals_verbatim(rng):
    d = make_labeled_dataset(400, 0.2, seed=8)
    out = cks_oversample(d, k_clusters=3, seed=8)
    np.testing.assert_array_equal(out.values[:400], d.values)
    np.testing.assert_array_equal(out.labels[:400], d.labels)


def test_oversample_synthetics_are_convex_combinations(rng):
    d = make_labeled_dataset(300, 0.15, seed=4)
    out = cks_oversample(d, k_clusters=3, seed=4)
    minority = d.values[d.labels == 1]

    def on_some_segment(row):
        # representable as x_i + u (x_j - x_i), u in [0,1], for some pair
        for i in range(len(minority)):
            rest = minority - minority[i]
            target = row - minority[i]
            norms_sq = np.einsum("ij,ij->i", rest, rest)
            with np.errstate(invalid="ignore", divide="ignore"):
                u = rest @ target / np.where(norms_sq > 0, norms_sq, np.inf)
            residuals = np.linalg.norm(target - u[:, None] * rest, axis=1)
            if ((residuals < 1e-8) & (u > -1e-9) & (u < 1 + 1e-9)).any():
                return True
        return False

    for row in out.values[300:]:
        assert on_some_segment(row)


def test_oversample_single_point_cluster_jitters():
    values = [[0.0, 0.0]] + [[5.0 + i, 1.0] for i in range(5)]
    labels = [1] + [0] * 5
    d = small_dataset(values, labels)
    out = cks_oversample(d, k_clusters=1, seed=0)
    synthetic = out.values[6:]
    assert len(synthetic) == 4
    col_sigma = d.values.std(axis=0)
    for row in synthetic:
        np.testing.assert_allclose(row, [0.0, 0.0], atol=1e-5 * col_sigma.max())


def test_oversample_requires_both_classes():
    d = small_dataset([[1.0], [2.0]], labels=[0, 0])
    with pytest.raises(DataError):
        cks_oversample(d, k_clusters=1, seed=0)


def test_oversample_deterministic(rng):
    d = make_labeled_dataset(300, 0.2, seed=5)
    a = cks_oversample(d, k_clusters=3, seed=7)
    b = cks_oversample(d, k_clusters=3, seed=7)
    np.testing.assert_array_equal(a.values, b.values)


# --- standardization --------------------------------------------------------------

def test_standardize_hand_case():
    # column {1,2,3}: population sigma = sqrt(2/3) -> (-1.2247, 0, 1.2247)
    std = fit_standardizer(np.array([[1.0], [2.0], [3.0]]))
    out = apply_standardizer(std, np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_allclose(out[:, 0],
                               [-1.224744871391589, 0.0, 1.224744871391589])


def test_standardize_constant_column_maps_to_zero():
    std = fit_standardizer(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    out = apply_standardizer(std, np.array([[5.0, 2.0]]))
    assert out[0, 0] == 0.0


def test_standardize_train_stats(rng):
    x = rng.normal(3.0, 2.5, size=(500, 4))
    std = fit_standardizer(x)
    out = apply_standardizer(std, x)
    np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-9)


def test_standardize_invert_roundtrip(rng):
    x = rng.normal(size=(50, 3))
    x[:, 2] = 7.0  # constant column inverts back through the stored mean
    std = fit_standardizer(x)
    back = apply_standardizer(std, x) * std.stds + std.means
    np.testing.assert_allclose(back, x, atol=1e-9)


def test_test_split_statistics_differ_from_unit(rng):
    # fitting on train only: a shifted test set does not standardize to 0/1
    train_x = rng.normal(0.0, 1.0, size=(400, 2))
    test_x = rng.normal(2.0, 3.0, size=(400, 2))
    std = fit_standardizer(train_x)
    out = apply_standardizer(std, test_x)
    assert abs(out.mean()) > 0.5
    assert abs(out.std() - 1.0) > 0.5


# --- split / window ------------------------------------------------------

def test_split_80_20_balanced_ten_rows():
    d = small_dataset([[float(i)] for i in range(10)],
                      labels=[0, 1] * 5)
    train, test = split(d, 0.8, seed=1)
    assert len(train.values) == 8 and len(test.values) == 2


# per class of m rows, n_train = min(max(round(f * m), 1), m - 1) with Python's
# half-even round: 2.5 rounds down and 1.5 and 3.5 up, where int() or a
# half-up rule differ, and 0.05 and 4.95 reach the two clamps
@pytest.mark.parametrize("m,fraction,n_train", [
    (5, 0.5, 2), (5, 0.7, 4), (3, 0.5, 2), (5, 0.01, 1), (5, 0.99, 4), (2, 0.5, 1)])
def test_split_rounds_half_even_and_clamps_per_class(m, fraction, n_train):
    d = small_dataset([[float(i)] for i in range(2 * m)], labels=[0, 1] * m)
    train, test = split(d, fraction, seed=4)
    for c in (0, 1):
        assert np.sum(train.labels == c) == n_train
        assert np.sum(test.labels == c) == m - n_train


def test_split_union_is_disjoint_partition(rng):
    d = make_labeled_dataset(101, 0.3, seed=2)
    train, test = split(d, 0.8, seed=3)
    assert len(train.values) + len(test.values) == len(d.values)
    all_rows = np.concatenate([train.values, test.values])
    np.testing.assert_array_equal(np.unique(all_rows, axis=0), np.unique(d.values, axis=0))
    assert len(np.unique(d.values, axis=0)) == len(d.values)  # rows identify themselves


def test_split_stratified_keeps_both_classes():
    d = make_labeled_dataset(50, 0.1, seed=6)
    train, test = split(d, 0.8, seed=6)
    for part in (train, test):
        assert set(np.unique(part.labels)) == {0, 1}


def test_split_deterministic():
    d = make_labeled_dataset(60, 0.4, seed=0)
    a_train, a_test = split(d, 0.8, seed=5)
    b_train, b_test = split(d, 0.8, seed=5)
    np.testing.assert_array_equal(a_train.values, b_train.values)
    np.testing.assert_array_equal(a_test.values, b_test.values)


def test_window_counts():
    values = np.arange(12.0).reshape(6, 2)
    labels = np.arange(6)
    w, y = window(values, labels, length=6)
    assert w.shape == (1, 6, 2)
    np.testing.assert_array_equal(w[0], values)
    np.testing.assert_array_equal(y, [5])
    w, y = window(values, labels, length=5)
    assert w.shape == (2, 5, 2)
    for start in (0, 1):  # every row keeps its feature columns in order
        np.testing.assert_array_equal(w[start], values[start:start + 5])
    np.testing.assert_array_equal(y, [4, 5])


def test_window_label_alignment_hand_case():
    values = np.arange(5.0).reshape(5, 1)
    labels = np.array([0, 0, 1, 0, 1])
    w, y = window(values, labels, length=2)
    np.testing.assert_array_equal(y, [0, 1, 0, 1])
    np.testing.assert_array_equal(w[1][:, 0], [1.0, 2.0])


def test_window_too_short_rejected():
    with pytest.raises(DataError):
        window(np.zeros((3, 1)), np.zeros(3), length=4)


# --- csv ----------------------------------------------------------------------

def test_dataset_csv_roundtrip_with_missing(tmp_path):
    values = np.array([[1.0, np.nan], [np.nan, 4.0], [5.0, 6.0]])
    d = RawDataset(columns=["a", "b"], values=values,
                   labels=np.array([0, 1, 0]))
    path = tmp_path / "data.csv"
    write_columns(path, ["t", *d.columns, "label"],
                  [fmt_column(c) for c in (np.arange(len(d.values)), *d.values.T, d.labels)])
    assert path.read_text().splitlines()[0] == "t,a,b,label"
    back = read_dataset_csv(path)
    assert back.columns == ["a", "b"]
    np.testing.assert_array_equal(back.labels, d.labels)
    np.testing.assert_array_equal(np.isnan(back.values), np.isnan(values))
    np.testing.assert_array_equal(back.values[~np.isnan(values)],
                                  values[~np.isnan(values)])


def test_dataset_csv_unlabeled(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,z\n0,0.5\n1,0.7\n")
    with pytest.raises(DataError, match=f"{path}: dataset header must be "
                                        r"t,<feature\.\.\.>,label"):
        read_dataset_csv(path)
