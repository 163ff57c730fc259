"""The family table: one row per index family.

A row names the family and gives its frozen VIDX tag, its payload reader, its
builder and the build knobs it takes. Every row can be stored, and a built
index's `family` is its row's name. The forest's three metric rows share one
tag and one reader; the payload stores the metric. Persistence, the benchmark
and the CLI all dispatch through this table; no other module lists the
families.

Readers and builders look their classes and functions up when called, so a
patched attribute (a wrapped method, say) is seen through the table too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .base import VectorIndex
from .data import EmbeddingSet
from .distances import Metric
from .flat import FlatIPIndex, FlatL2Index
from .hnsw import HnswIndex
from .ivf import IvfIndex, ivf_build
from .lsh import LshIndex, lsh_build
from .pq import PqIndex
from .rpforest import RpForestIndex, rp_build
from .wire import Reader


@dataclass(frozen=True)
class Family:
    name: str
    tag: int  # VIDX family byte. It is wire format: never renumber a tag.
    read: Callable[[Reader], VectorIndex]  # VIDX payload -> index
    build: Callable[..., VectorIndex]  # (emb_set, seed, **knobs) -> index
    knobs: dict[str, str]  # build keyword -> argparse dest of the CLI flag that sets it
    benched: bool = True  # a row of `bench --family all`
    unit: bool = False  # built and queried on the L2-normalized set


_PQ = {"m": "m", "nbits": "nbits"}
_IVF = {"nlist": "nlist", "nprobe": "nprobe"}
_FOREST = {"n_trees": "trees", "leaf_size": "leaf_size"}


def _ivf(encoding: str, tag: int, knobs: dict[str, str], benched: bool = True) -> Family:
    return Family(f"ivf-{encoding}", tag, lambda r: IvfIndex.read_payload(r, encoding),
                  lambda s, seed, **kw: ivf_build(s, encoding=encoding, seed=seed, **kw),
                  knobs, benched)


def _forest(metric: Metric) -> Family:
    return Family(f"rpforest-{metric.value}", 8, lambda r: RpForestIndex.read_payload(r),
                  lambda s, seed, **kw: rp_build(s, metric=metric, seed=seed, **kw), _FOREST)


# Row order is the `bench --family all` report order.
_ROWS = (
    Family("flat-l2", 0, lambda r: FlatL2Index.read_payload(r),
           lambda s, seed: FlatL2Index.build(s), {}),
    Family("flat-ip", 1, lambda r: FlatIPIndex.read_payload(r),
           lambda s, seed: FlatIPIndex.build(s), {}, unit=True),
    Family("hnsw", 7, lambda r: HnswIndex.read_payload(r),
           lambda s, seed, **kw: HnswIndex.build(s, seed=seed, **kw),
           {"M": "hnsw_m", "ef_construction": "ef_construction", "ef_search": "ef_search"}),
    Family("pq", 2, lambda r: PqIndex.read_payload(r),
           lambda s, seed, **kw: PqIndex.build(s, seed=seed, **kw), _PQ),
    _ivf("flat", 3, _IVF, benched=False),
    _ivf("sq", 5, _IVF),
    _ivf("pq", 4, {**_IVF, **_PQ}),
    Family("lsh", 6, lambda r: LshIndex.read_payload(r),
           lambda s, seed, **kw: lsh_build(s, seed=seed, **kw),
           {"nbits": "lsh_bits", "rerank": "rerank"}),
    _forest(Metric.ANGULAR),
    _forest(Metric.L2),
    _forest(Metric.MANHATTAN),
)

FAMILIES: dict[str, Family] = {row.name: row for row in _ROWS}
BY_TAG: dict[int, Family] = {row.tag: row for row in _ROWS}

# Report rows for `bench --family all`, one per benchmarked configuration.
ALL_FAMILIES = tuple(row.name for row in _ROWS if row.benched)


def family(name: str) -> Family:
    """The table row of a family name; ValueError if there is none."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown index family {name!r}") from None


def build_index(
    emb_set: EmbeddingSet, name: str, seed: int = 0, **overrides
) -> VectorIndex:
    """Construct any family over a set; overrides are the family's knobs."""
    row = family(name)
    unknown = sorted(set(overrides) - set(row.knobs))
    if unknown:
        raise ValueError(f"{name} takes no option(s) {unknown}; it takes {sorted(row.knobs)}")
    return row.build(emb_set, seed=seed, **overrides)
