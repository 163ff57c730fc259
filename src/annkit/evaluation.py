"""Label-based retrieval metrics: confusion counts, precision/recall/F1, recall@n.

Retrieval output is scored as classification: a retrieved item is relevant iff
its class label equals the query's. Each query gets one predicted label
(majority vote over the retrieved labels; ties go to the tied label seen
closest to the query), and per-class one-vs-rest confusion counts are pooled
for micro metrics or averaged unweighted for macro metrics. For single-label
multiclass prediction, micro precision = micro recall = accuracy, exactly.
An empty retrieval predicts no label: it is a wrong answer and a miss for the
query's class, but a false positive for none, so it lowers accuracy and recall
and leaves micro precision at or above them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

TP, FP, FN, TN = "tp", "fp", "fn", "tn"


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0


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
    per_class: dict[int, ConfusionCounts] = field(default_factory=dict)
    aggregated: ConfusionCounts = field(default_factory=ConfusionCounts)


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
    pairs = [
        (query_label, predict_label(retrieved) if len(retrieved) else None)
        for query_label, retrieved in outcomes
    ]

    classes = sorted({t for t, _ in pairs} | {p for _, p in pairs if p is not None})
    per_class = {c: ConfusionCounts() for c in classes}
    for truth, pred in pairs:
        for c in classes:
            if truth == c and pred == c:
                per_class[c].tp += 1
            elif truth != c and pred == c:
                per_class[c].fp += 1
            elif truth == c and pred != c:
                per_class[c].fn += 1
            else:
                per_class[c].tn += 1

    agg = ConfusionCounts(
        tp=sum(c.tp for c in per_class.values()),
        fp=sum(c.fp for c in per_class.values()),
        fn=sum(c.fn for c in per_class.values()),
        tn=sum(c.tn for c in per_class.values()),
    )
    micro_p = agg.precision()
    micro_r = agg.recall()
    accuracy = sum(1 for t, p in pairs if t == p) / len(pairs)

    class_p = [c.precision() for c in per_class.values()]
    class_r = [c.recall() for c in per_class.values()]
    class_f = [f1_score(p, r) for p, r in zip(class_p, class_r)]
    n_classes = len(classes)

    return LabelMetrics(
        precision=micro_p,
        recall=micro_r,
        f1=f1_score(micro_p, micro_r),
        accuracy=accuracy,
        macro_precision=sum(class_p) / n_classes,
        macro_recall=sum(class_r) / n_classes,
        macro_f1=sum(class_f) / n_classes,
        per_class=per_class,
        aggregated=agg,
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
