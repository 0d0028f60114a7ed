import json
from dataclasses import asdict

import numpy as np
import pytest

from fdia_lab.errors import DataError
from fdia_lab.evaluation import (ConfusionCounts, confusion, detection_latency,
                                 metrics, score)


def test_confusion_perfect_predictions():
    preds = np.array([True, False, True])
    c = confusion(preds, preds)
    assert (c.fp, c.fn) == (0, 0)
    assert (c.tp, c.tn) == (2, 1)


def test_confusion_all_negative_on_positive_labels():
    c = confusion(np.zeros(5, dtype=bool), np.ones(5, dtype=bool))
    assert (c.tp, c.fn) == (0, 5)


def test_confusion_hand_case():
    preds = np.array([1, 1, 0, 0], dtype=bool)
    labels = np.array([1, 0, 0, 1], dtype=bool)
    c = confusion(preds, labels)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)


def test_confusion_length_mismatch():
    with pytest.raises(DataError):
        confusion(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


def test_metrics_perfect():
    report = metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
    assert (report.accuracy, report.precision, report.recall, report.f1) == \
        (1.0, 1.0, 1.0, 1.0)
    assert report.degenerate is False


def test_metrics_hand_case_all_half():
    report = metrics(ConfusionCounts(tp=1, fp=1, tn=1, fn=1))
    assert report.accuracy == pytest.approx(0.5)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(0.5)


def test_metrics_zero_recall_with_positives_present():
    report = metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
    assert report.recall == 0.0
    assert report.degenerate is True  # precision denominator is zero


def test_metrics_accuracy_complement_invariance(rng):
    preds = rng.random(50) < 0.5
    labels = rng.random(50) < 0.5
    a = metrics(confusion(preds, labels)).accuracy
    b = metrics(confusion(~preds, ~labels)).accuracy
    assert a == pytest.approx(b)


def test_latency_flag_at_onset():
    flags = np.array([False, False, True, False])
    assert detection_latency(flags, onset=2) == 0


def test_latency_never_flagged():
    assert detection_latency(np.zeros(10, dtype=bool), onset=4) is None


def test_latency_hand_case_five_ticks():
    flags = np.zeros(20, dtype=bool)
    flags[3] = True   # before the onset: ignored
    flags[15] = True  # first flag after onset 10 -> latency 5
    assert detection_latency(flags, onset=10) == 5


def test_latency_onset_out_of_range():
    with pytest.raises(DataError):
        detection_latency(np.zeros(5, dtype=bool), onset=5)


def test_report_json_schema():
    # tp=8, fp=2, tn=9, fn=1: two false alarms and a miss at the onset tick
    labels = np.array([False] * 11 + [True] * 9)
    flags = labels.copy()
    flags[[0, 1]] = True
    flags[11] = False
    obj = json.loads(json.dumps(score(flags, labels, onset=11)))
    assert set(obj) == {"accuracy", "precision", "recall", "f1", "degenerate",
                        "latency_ticks"}
    assert obj["latency_ticks"] == 1
    assert obj["accuracy"] == pytest.approx(17 / 20)
    assert obj == dict(asdict(metrics(ConfusionCounts(tp=8, fp=2, tn=9, fn=1))),
                       latency_ticks=1)
    # without an onset there is no latency to measure
    assert score(flags, labels)["latency_ticks"] is None
