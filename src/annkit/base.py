"""Shared result type and the uniform index contract."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .distances import Metric, rank_order


@dataclass
class SearchResult:
    """Ranked neighbor list: (id, score) pairs, best first.

    Scores are 32-bit floats; ascending for distance metrics, descending for
    inner-product similarity. Contains no duplicate ids and never the id that
    was excluded from the search.
    """

    neighbors: list[tuple[int, float]] = field(default_factory=list)

    @property
    def ids(self) -> list[int]:
        return [nid for nid, _ in self.neighbors]

    @property
    def scores(self) -> list[float]:
        return [score for _, score in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)

    def __iter__(self):
        return iter(self.neighbors)


def make_result(
    metric: Metric, ids: np.ndarray, scores: np.ndarray, k: int
) -> SearchResult:
    """Rank scored candidates and keep the best k.

    `scores` must be the float64 output of the shared scoring path; they are
    narrowed to float32 only here, after ranking.
    """
    order = rank_order(metric, ids, scores)[:k]
    return SearchResult(
        [(int(ids[i]), float(np.float32(scores[i]))) for i in order]
    )


class VectorIndex(abc.ABC):
    """Uniform search contract implemented by every index family.

    Built indexes are immutable and safe for concurrent searches; construction
    is exclusive.
    """

    family: str
    metric: Metric = Metric.L2  # the metric searches rank by and recall is scored in

    @property
    def label(self) -> str:
        """Report row name; families with a metric variant override this."""
        return self.family

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Return the k best neighbors of `query` under the family's metric."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Deterministic structural footprint: sum of component byte sizes."""

    @abc.abstractmethod
    def config(self) -> dict:
        """Build parameters, echoed into benchmark reports."""
