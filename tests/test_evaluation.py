"""Label metrics against an independently written counting evaluator."""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from annkit.bench import BenchReport
from annkit.evaluation import (
    LabelMetrics,
    f1_score,
    label_metrics,
    precision_at_k,
    predict_label,
    recall_at_n,
)


def naive_predict(retrieved):
    """Majority vote; ties go to the label seen earliest in the ranking."""
    counts = Counter(retrieved)
    best = max(counts.values())
    for label in retrieved:
        if counts[label] == best:
            return label
    raise AssertionError("unreachable")


def naive_metrics(outcomes):
    """Plain-dict evaluator: per-class tp/fp/fn, then micro and macro averages.

    An empty retrieval predicts nothing: a miss for its class, a false
    positive for none."""
    tp, fp, fn = Counter(), Counter(), Counter()
    classes = set()
    for true_label, retrieved in outcomes:
        pred = naive_predict(retrieved) if retrieved else None
        classes.add(true_label)
        if pred is not None:
            classes.add(pred)
        if pred == true_label:
            tp[true_label] += 1
        else:
            if pred is not None:
                fp[pred] += 1
            fn[true_label] += 1

    def div(a, b):
        return a / b if b else 0.0

    def f1(p, r):
        return div(2 * p * r, p + r)

    n = len(outcomes)
    correct = sum(tp.values())
    micro_p = div(correct, correct + sum(fp.values()))
    micro_r = div(correct, correct + sum(fn.values()))
    scores = []
    for c in sorted(classes):
        p = div(tp[c], tp[c] + fp[c])
        r = div(tp[c], tp[c] + fn[c])
        scores.append((p, r, f1(p, r)))
    return {
        "precision": micro_p,
        "recall": micro_r,
        "f1": f1(micro_p, micro_r),
        "accuracy": div(correct, n),
        "macro_precision": sum(v[0] for v in scores) / len(scores),
        "macro_recall": sum(v[1] for v in scores) / len(scores),
        "macro_f1": sum(v[2] for v in scores) / len(scores),
    }


def random_outcomes(rng, n_queries=30, n_classes=5, k=5, p_empty=0.0):
    """Random (label, retrieved) pairs; a share `p_empty` retrieves nothing."""
    out = []
    for _ in range(n_queries):
        true_label = int(rng.integers(n_classes))
        retrieved = [] if rng.random() < p_empty else rng.integers(n_classes, size=k).tolist()
        out.append((true_label, retrieved))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_label_metrics_match_naive_evaluator(seed):
    """Every field equals the reference exactly, without empty retrievals,
    with some, and with only empty ones (micro precision's 0/0 is 0)."""
    rng = np.random.default_rng(seed)
    for p_empty in (0.0, 0.2, 1.0):
        outcomes = random_outcomes(rng, p_empty=p_empty)
        want = naive_metrics(outcomes)
        assert {name: getattr(label_metrics(outcomes), name) for name in want} == want


@pytest.mark.parametrize("seed", range(20))
def test_micro_precision_recall_accuracy_identity(seed):
    """One prediction per query means micro P, micro R and accuracy coincide."""
    rng = np.random.default_rng(100 + seed)
    m = label_metrics(random_outcomes(rng))
    assert m.precision == pytest.approx(m.recall, abs=1e-12)
    assert m.precision == pytest.approx(m.accuracy, abs=1e-12)


def test_predict_label_majority():
    assert predict_label([1, 2, 2]) == 2
    assert predict_label([7]) == 7
    assert predict_label([4, 4, 1, 1, 1]) == 1


def test_predict_label_tie_goes_to_nearest():
    assert predict_label([3, 1, 1, 3]) == 3
    assert predict_label([5, 9]) == 5


def test_predict_label_empty_raises():
    with pytest.raises(ValueError):
        predict_label([])


def test_perfect_outcomes():
    m = label_metrics([(0, [0, 0]), (1, [1, 1]), (2, [2])])
    assert m.precision == m.recall == m.f1 == m.accuracy == 1.0
    assert m.macro_f1 == 1.0


def test_always_wrong_outcomes():
    m = label_metrics([(0, [1]), (1, [0])])
    assert m.accuracy == 0.0
    assert m.f1 == 0.0


def test_label_metrics_rejects_empty():
    with pytest.raises(ValueError):
        label_metrics([])


def test_f1_score_values():
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)


def test_precision_at_k():
    assert precision_at_k(3, [3, 3, 1, 3]) == pytest.approx(0.75)
    assert precision_at_k(0, [1, 2]) == 0.0
    assert precision_at_k(1, [1]) == 1.0


def test_recall_at_n():
    assert recall_at_n([1, 2, 3], [2, 3, 9]) == pytest.approx(2 / 3)
    assert recall_at_n([], [1]) == 0.0
    assert recall_at_n([5, 6], [5, 6]) == 1.0


def test_label_metrics_fields_are_the_report_label_fields():
    """`run_protocol` passes a LabelMetrics to BenchReport as keywords, so its
    fields are exactly the report's seven label fields."""
    label_fields = ["precision", "recall", "f1", "accuracy",
                    "macro_precision", "macro_recall", "macro_f1"]
    assert [f.name for f in fields(LabelMetrics)] == label_fields
    assert set(label_fields) <= {f.name for f in fields(BenchReport)}
    m = label_metrics([(0, [0]), (1, [1]), (1, [0])])  # the last query is called 0
    assert m.precision == m.accuracy == pytest.approx(2 / 3)
    assert m.macro_precision == m.macro_recall == pytest.approx(0.75)
