"""What the benchmark reads of annkit beyond the search contract.

perfbench reads annkit through the package (`annkit.ivf_build`,
`annkit.pq.adc_scores`, ...), and its tracer looks every layer up in
`sys.modules` after `import annkit`. Every such chain must resolve, and every
top-level name it reads must stay in `__all__`, so a cut to the package's
surface cannot break the frozen benchmark unseen.

perfbench/workloads.py's `rescore` settles float32 ties in its order check by
re-scoring stored codes: PQ codes through `PqIndex.ids`/`codes`, IVF codes
through `IvfIndex.list_ids`/`list_payloads`. It runs only when two reported
scores tie, so a renamed attribute would otherwise surface as a crash partway
through a benchmark run.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annkit
from annkit.families import build_index
from annkit.persist import dump_index, load_index_bytes

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_KNOBS = {"m": 4, "nbits": 4}


def _chains() -> set[tuple[str, ...]]:
    """Every `annkit.<name>[.<attr>]` in perfbench's sources, dunders aside."""
    text = "".join(p.read_text() for p in sorted(_PERFBENCH.glob("*.py")))
    found = re.findall(r"\bannkit\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?", text)
    return {tuple(part for part in chain if part) for chain in found}


def test_every_chain_perfbench_reads_resolves_and_is_public():
    chains = _chains()
    assert ("ivf_build",) in chains and ("pq", "adc_scores") in chains
    for chain in sorted(chains):
        obj = annkit
        for part in chain:
            assert hasattr(obj, part), "annkit." + ".".join(chain)
            obj = getattr(obj, part)
        head = chain[0]
        if not isinstance(getattr(annkit, head), type(annkit)):
            assert head in annkit.__all__, head


def test_import_annkit_loads_every_layer_the_tracer_patches():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        layers = importlib.import_module("tracer").LAYERS
    finally:
        sys.path.remove(str(_PERFBENCH))
    code = "import sys, annkit; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(annkit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert [layer for layer in layers if f"annkit.{layer}" not in out] == []


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
