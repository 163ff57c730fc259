"""What the benchmark reads of annkit beyond the search contract.

perfbench/workloads.py's `rescore` settles float32 ties in its order check by
re-scoring stored codes: PQ codes through `PqIndex.ids`/`codes`, IVF codes
through `IvfIndex.list_ids`/`list_payloads`. It runs only when two reported
scores tie, so a renamed attribute would otherwise surface as a crash partway
through a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from annkit.families import build_index
from annkit.persist import dump_index, load_index_bytes

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_KNOBS = {"m": 4, "nbits": 4}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(_PERFBENCH))  # workloads imports its siblings by name
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(_PERFBENCH))


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("fam", ["pq", "ivf-sq", "ivf-pq"])
def test_rescore_agrees_with_reported_scores(workloads, small_set, fam, loaded):
    knobs = {} if fam == "ivf-sq" else _KNOBS
    index = build_index(small_set, fam, seed=0, **knobs)
    if loaded:
        index = load_index_bytes(dump_index(index))
    rng = np.random.default_rng(5)
    for query in rng.standard_normal((4, small_set.dim)):
        res = index.search(query, 10)
        # Quantized families are re-scored from the index alone: no inputs needed.
        got = workloads.rescore(None, fam, index, query, res.ids)
        np.testing.assert_allclose(got, res.scores, rtol=1e-6)
