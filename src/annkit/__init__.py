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
from .distances import Metric
from .families import ALL_FAMILIES, build_index
from .flat import FlatIPIndex, FlatL2Index, exact_search, ground_truth
from .hnsw import HnswIndex, HnswParams
from .ivf import IvfIndex, ivf_build
from .lsh import LshIndex, lsh_build
from .persist import dump_index, load_index, load_index_bytes, save_index
from .pq import PqIndex
from .rpforest import RpForestIndex, rp_build
from .sq import sq_decode_batch

__version__ = "0.1.0"

__all__ = [
    "ALL_FAMILIES",
    "BenchReport",
    "EmbeddingSet",
    "FlatIPIndex",
    "FlatL2Index",
    "HnswIndex",
    "HnswParams",
    "IvfIndex",
    "LshIndex",
    "Metric",
    "PqIndex",
    "ProtocolConfig",
    "RpForestIndex",
    "SearchResult",
    "VectorIndex",
    "build_index",
    "dump_index",
    "dump_vemb",
    "exact_search",
    "gen_synthetic",
    "ground_truth",
    "ivf_build",
    "load_csv",
    "load_index",
    "load_index_bytes",
    "load_vemb",
    "load_vemb_bytes",
    "lsh_build",
    "rp_build",
    "run_benchmark",
    "save_index",
    "save_vemb",
    "search_excluding",
    "sq_decode_batch",
    "write_report",
]
