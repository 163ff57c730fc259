"""Label-based retrieval metrics: precision/recall/F1 and recall@n.

Retrieval output is scored as classification: a retrieved item is relevant iff
its class label equals the query's. Each query gets one predicted label
(majority vote over the retrieved labels; ties go to the tied label seen
closest to the query). Three per-class counters then give every ratio, as in
scikit-learn's `precision_recall_fscore_support`: the queries whose true class
is c, those called c, and the hits, those both. Class c's precision is
hits/called and its recall hits/true (0 on a zero denominator); micro metrics
divide the sums over classes, and macro metrics average the class values
unweighted. Every query has a true class, so micro recall is accuracy,
hits/n. An empty retrieval calls no class: it is a wrong answer and a miss
for the query's class, so it lowers accuracy and recall and leaves micro
precision at or above them. Without empty retrievals micro precision = micro
recall = accuracy, exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; defined as 0 when precision + recall = 0."""
    total = precision + recall
    return 2.0 * precision * recall / total if total > 0.0 else 0.0


@dataclass
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def predict_label(retrieved_labels: Sequence[int]) -> int:
    """Majority label; among tied counts, the one appearing nearest the query."""
    if not retrieved_labels:
        raise ValueError("cannot predict from zero retrieved labels")
    counts = Counter(retrieved_labels)
    best = max(counts.values())
    for label in retrieved_labels:  # nearest-first order
        if counts[label] == best:
            return label
    raise AssertionError("unreachable")


def label_metrics(outcomes: Sequence[tuple[int, Sequence[int]]]) -> LabelMetrics:
    """Score (query label, retrieved labels) outcomes, micro and macro.

    Micro values are the headline numbers; macro is the unweighted mean of the
    per-class values over every label observed in truths or predictions.
    """
    if not outcomes:
        raise ValueError("cannot compute metrics from zero outcomes")
    preds = [predict_label(retrieved) if len(retrieved) else None for _, retrieved in outcomes]
    truths = Counter(truth for truth, _ in outcomes)
    called = Counter(pred for pred in preds if pred is not None)
    hits = Counter(truth for (truth, _), pred in zip(outcomes, preds) if truth == pred)
    classes = sorted(truths.keys() | called.keys())
    class_p = [hits[c] / called[c] if called[c] else 0.0 for c in classes]
    class_r = [hits[c] / truths[c] if truths[c] else 0.0 for c in classes]
    class_f = [f1_score(p, r) for p, r in zip(class_p, class_r)]
    n_hits, n_called = sum(hits.values()), sum(called.values())
    precision = n_hits / n_called if n_called else 0.0
    accuracy = n_hits / len(outcomes)
    n_classes = len(classes)

    return LabelMetrics(
        precision=precision,
        recall=accuracy,
        f1=f1_score(precision, accuracy),
        accuracy=accuracy,
        macro_precision=sum(class_p) / n_classes,
        macro_recall=sum(class_r) / n_classes,
        macro_f1=sum(class_f) / n_classes,
    )


def precision_at_k(query_label: int, retrieved_labels: Sequence[int]) -> float:
    """Fraction of retrieved items sharing the query's label."""
    if len(retrieved_labels) == 0:
        raise ValueError("retrieved labels must be non-empty")
    return sum(1 for lbl in retrieved_labels if lbl == query_label) / len(retrieved_labels)


def recall_at_n(retrieved_ids: Sequence[int], true_ids: Sequence[int]) -> float:
    """Fraction of the oracle's n true neighbors present in the retrieved list."""
    if len(true_ids) == 0:
        raise ValueError("true neighbor list must be non-empty")
    true_set = set(true_ids)
    return len(true_set.intersection(retrieved_ids)) / len(true_set)
