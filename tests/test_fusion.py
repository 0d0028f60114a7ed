import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdia_lab.evaluation import confusion, metrics
from fdia_lab.fusion import combine, combine_streams, fuse
from fdia_lab.passive_detect import Thresholds

TH = Thresholds(sigma=1.0, k=3.0)  # limit = 3.0


def test_truth_table_exhaustive():
    # (residual below/at threshold) x (active flag) -> OR semantics
    cases = [
        (1.0, False, False),
        (1.0, True, True),
        (5.0, False, True),
        (5.0, True, True),
    ]
    for residual, active, expected in cases:
        assert combine(residual, TH, active).fused is expected


def test_threshold_boundary_counts_as_attack():
    assert combine(3.0, TH, False).fused is True


def test_verdict_invariant_holds():
    v = combine(2.0, TH, True)
    assert v.t == 0
    assert v.fused == ((v.residual >= TH.limit) or v.active_flag)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=60))
def test_fused_recall_dominates_components(rows):
    residuals = [r for r, _, _ in rows]
    actives = [a for _, a, _ in rows]
    labels = np.array([lab for _, _, lab in rows])
    verdicts = combine_streams(residuals, TH, actives)
    fused = np.array([v.fused for v in verdicts])
    passive = np.array([r >= TH.limit for r in residuals])
    active = np.array(actives)

    def recall(preds):
        c = confusion(preds, labels)
        return metrics(c).recall if c.tp + c.fn > 0 else 0.0

    assert recall(fused) >= max(recall(passive), recall(active)) - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=60))
def test_fused_false_positives_bounded_by_sum(rows):
    residuals = [r for r, _, _ in rows]
    actives = [a for _, a, _ in rows]
    labels = np.array([lab for _, _, lab in rows])
    fused = np.array([v.fused for v in combine_streams(residuals, TH, actives)])
    passive = np.array([r >= TH.limit for r in residuals])
    active = np.array(actives)
    fp = lambda preds: confusion(preds, labels).fp
    assert fp(fused) <= fp(passive) + fp(active)


def test_combine_streams_assigns_ticks():
    # a verdict's tick is its row in the streams
    verdicts = combine_streams([0.0, 4.0, 1.0], TH, [False, False, True])
    assert [v.t for v in verdicts] == [0, 1, 2]
    assert [v.fused for v in verdicts] == [False, True, True]



def test_fuse_is_the_rule_for_arrays_and_single_flags():
    residual = np.array([False, False, True, True])
    active = np.array([False, True, False, True])
    np.testing.assert_array_equal(fuse(residual, active), [False, True, True, True])
    for r, a in zip(residual.tolist(), active.tolist()):
        assert fuse(r, a) == (r or a)
        assert combine(3.0 if r else 1.0, TH, a).fused is (r or a)
