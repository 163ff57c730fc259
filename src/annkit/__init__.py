"""annkit: approximate nearest-neighbor index families with a shared contract.

Deterministic, numpy-backed implementations of exhaustive, quantization,
inverted-file, graph, hashing, and projection-forest search, plus a labeled
benchmark protocol and binary persistence for sets (VEMB) and indexes (VIDX).
"""

from .base import SearchResult, VectorIndex, search_excluding
from .bench import (
    BenchReport,
    ProtocolConfig,
    run_benchmark,
    write_report,
)
from .data import (
    EmbeddingSet,
    dump_vemb,
    gen_synthetic,
    load_csv,
    load_vemb,
    load_vemb_bytes,
    save_vemb,
)
from .distances import Metric, batch_scores
from .evaluation import (
    ConfusionCounts,
    LabelMetrics,
    label_metrics,
    precision_at_k,
    recall_at_n,
)
from .families import ALL_FAMILIES, build_index
from .flat import FlatIPIndex, FlatL2Index, exact_search, ground_truth
from .hnsw import HnswIndex, HnswParams
from .ivf import IvfIndex, ivf_build
from .kmeans import Centroids, kmeans_fit
from .lsh import LshIndex, lsh_build
from .persist import dump_index, load_index, load_index_bytes, save_index
from .pq import PqCodebook, PqIndex, pq_train
from .rpforest import RpForestIndex, rp_build
from .sq import SqParams, sq_decode_batch, sq_train

__version__ = "0.1.0"

__all__ = [
    "ALL_FAMILIES",
    "BenchReport",
    "Centroids",
    "ConfusionCounts",
    "EmbeddingSet",
    "FlatIPIndex",
    "FlatL2Index",
    "HnswIndex",
    "HnswParams",
    "IvfIndex",
    "LabelMetrics",
    "LshIndex",
    "Metric",
    "PqCodebook",
    "PqIndex",
    "ProtocolConfig",
    "RpForestIndex",
    "SearchResult",
    "SqParams",
    "VectorIndex",
    "batch_scores",
    "build_index",
    "dump_index",
    "dump_vemb",
    "exact_search",
    "gen_synthetic",
    "ground_truth",
    "ivf_build",
    "kmeans_fit",
    "label_metrics",
    "load_csv",
    "load_index",
    "load_index_bytes",
    "load_vemb",
    "load_vemb_bytes",
    "lsh_build",
    "pq_train",
    "precision_at_k",
    "recall_at_n",
    "rp_build",
    "run_benchmark",
    "save_index",
    "save_vemb",
    "search_excluding",
    "sq_decode_batch",
    "sq_train",
    "write_report",
]
