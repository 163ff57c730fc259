"""The uniform search contract: one query gate for every family, and the
public namespace it is exported through."""

import importlib
import inspect
import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import annkit
from annkit.bench import BenchReport, ProtocolConfig, run_benchmark, search_excluding, write_report
from annkit.families import FAMILIES, build_index
from annkit.data import EmbeddingSet, gen_synthetic
from annkit.flat import FlatL2Index, exact_search, ground_truth
from annkit.hnsw import HnswIndex
from annkit.ivf import ivf_build
from annkit.lsh import lsh_build
from annkit.persist import dump_index, load_index_bytes
from annkit.pq import PqIndex, pq_train
from annkit.rpforest import rp_build

# Knobs that fit the 300-row, 16-dim small set; every other family uses its defaults.
_KNOBS = {"pq": {"m": 4, "nbits": 4}, "ivf-pq": {"m": 4, "nbits": 4}}


@pytest.fixture(scope="module")
def indexes(small_set):
    """Family name -> {"built": index, "loaded": its VIDX round trip}."""
    out = {}
    for name in FAMILIES:
        index = build_index(small_set, name, seed=0, **_KNOBS.get(name, {}))
        out[name] = {"built": index, "loaded": load_index_bytes(dump_index(index))}
    return out


# One non-default value per knob, by the CLI flag that sets it.
_NON_DEFAULT = {
    "nlist": 9, "nprobe": 3, "m": 4, "nbits": 4, "trees": 3, "leaf_size": 7,
    "hnsw_m": 5, "ef_construction": 21, "ef_search": 13, "lsh_bits": 24, "rerank": False,
}


def _non_default(name: str) -> dict:
    """The row's build knobs, each at its `_NON_DEFAULT` value."""
    return {kw: _NON_DEFAULT[dest] for kw, dest in FAMILIES[name].knobs.items()}


def _typed(config: dict) -> dict:
    """Each value with its type, so that 4 and np.int64(4), or 1 and True, differ."""
    return {kw: (value, type(value)) for kw, value in config.items()}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_config_survives_a_vidx_round_trip(small_set, name):
    """`config()` is the knobs the index was built with, in value and type,
    before and after a VIDX round trip, and `build_index` given it builds
    the same bytes again."""
    knobs = _non_default(name)
    index = build_index(small_set, name, seed=0, **knobs)
    blob = dump_index(index)
    for config in (index.config(), load_index_bytes(blob).config()):
        assert _typed(config) == _typed(knobs)
        assert dump_index(build_index(small_set, name, seed=0, **config)) == blob


def test_numpy_integer_knobs_and_counts_are_stored_as_ints(small_set, tmp_path):
    """Every row benchmarked with numpy-integer knobs and protocol counts:
    both report formats are written, the counts are echoed as ints, and each
    report's index config equals the loaded index's, an int (or a bool) per
    knob."""
    params = {name: {kw: v if isinstance(v, bool) else np.int64(v)
                     for kw, v in _non_default(name).items()} for name in FAMILIES}
    config = ProtocolConfig(n_queries=np.int64(20), k=np.int32(5), recall_n=np.uint8(4),
                            seed=np.int64(3), params=params)
    reports = run_benchmark(small_set, list(FAMILIES), config)
    write_report(reports, tmp_path / "reports.csv", fmt="csv")
    write_report(reports, tmp_path / "reports.json", fmt="json")
    assert json.loads((tmp_path / "reports.json").read_text()) == [asdict(r) for r in reports]
    for report in reports:
        echo = report.config
        assert _typed({c: echo[c] for c in ("n_queries", "k", "recall_n", "seed")}) == _typed(
            {"n_queries": 20, "k": 5, "recall_n": 4, "seed": 3})
        built = build_index(small_set, report.family, seed=3, **params[report.family])
        loaded = load_index_bytes(dump_index(built))
        assert _typed(echo["index"]) == _typed(loaded.config()) == _typed(_non_default(report.family))


def test_a_report_replays_from_its_stored_config(small_set, tmp_path):
    """A JSON report's config, fed back as `ProtocolConfig` counts, seed and
    `params`, repeats every non-timing field. ivf-pq and rpforest-l2 are the
    shapes whose configs once also held the encoding or the metric, which
    `build_index` refuses as knobs."""
    names = ["ivf-pq", "rpforest-l2"]
    first = ProtocolConfig(n_queries=40, k=5, recall_n=5, seed=9,
                           params={name: _non_default(name) for name in names})
    write_report(run_benchmark(small_set, names, first), tmp_path / "first.json")
    stored = json.loads((tmp_path / "first.json").read_text())
    echo = stored[0]["config"]
    replay = ProtocolConfig(n_queries=echo["n_queries"], k=echo["k"], recall_n=echo["recall_n"],
                            seed=echo["seed"], params={r["family"]: r["config"]["index"] for r in stored})
    again = [asdict(r) for r in run_benchmark(small_set, [r["family"] for r in stored], replay)]
    for row in stored + again:
        for name in BenchReport.TIMING_FIELDS:
            del row[name]
    assert again == stored


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_is_named_and_stored_by_its_row(indexes, name):
    """A built index's family is its row's name, and a VIDX round trip keeps
    the name, the row's tag and the bytes."""
    built, loaded = indexes[name]["built"], indexes[name]["loaded"]
    blob = dump_index(built)
    assert built.family == loaded.family == name
    assert blob[5] == FAMILIES[name].tag
    assert dump_index(loaded) == blob


# Each query-time knob of `search` at a value other than its default, for k.
_QUERY_KNOBS = {
    "search_k": lambda index, k: 1,
    "nprobe": lambda index, k: 1,
    "ef_search": lambda index, k: k,
    "rerank": lambda index, k: not index.rerank,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_loaded_index_answers_like_the_built_one_with_query_knobs_set(indexes, small_set, name):
    """Query-time knobs are `search` arguments, so a VIDX reload answers as
    the built index does with every knob set, not only at the defaults. Where
    the family has a knob, it changes some answer, so it reached `search`."""
    built, loaded = indexes[name]["built"], indexes[name]["loaded"]
    params = list(inspect.signature(built.search).parameters)[2:]  # after query, k
    assert set(params) - {"visited_out"} <= set(_QUERY_KNOBS)
    queries = [*small_set.vectors[::60], *np.random.default_rng(3).standard_normal((3, small_set.dim))]
    changed = False
    for k in (1, 5, 10):
        knobs = {kw: _QUERY_KNOBS[kw](built, k) for kw in params if kw in _QUERY_KNOBS}
        for q in queries:
            got = built.search(q, k, **knobs)
            assert loaded.search(q, k, **knobs) == got
            changed |= got != built.search(q, k)
    assert changed == any(kw in _QUERY_KNOBS for kw in params)


_COUNT_KNOBS = sorted(
    (name, kw) for name, row in FAMILIES.items() for kw in row.knobs if kw != "rerank"
)


@pytest.mark.parametrize("name, knob", _COUNT_KNOBS)
@pytest.mark.parametrize("value", [2.5, True])
def test_every_integer_build_knob_is_a_count(small_set, name, knob, value):
    """ivf-flat nprobe=2.5 once built and failed at its first search and dump,
    hnsw M=True built a graph of M 1, and pq nbits=2.5 raised TypeError."""
    with pytest.raises(ValueError, match=f"{knob} must be .*an integer"):
        build_index(small_set, name, seed=0, **{knob: value})


# Build knobs that VIDX stores as u32 and that no data size bounds.
_U32_KNOBS = [
    (name, knob)
    for name, knob in _COUNT_KNOBS
    if name in ("hnsw", "lsh") or name.startswith("rpforest")
]


@pytest.mark.parametrize("name, knob", _U32_KNOBS)
def test_a_build_knob_past_its_u32_field_fails_before_the_build(small_set, name, knob):
    """hnsw M and ef_search and rpforest leaf_size of 2**32 once built and
    failed only at dump, and rpforest n_trees of 2**32 built trees without end;
    each is now refused before any work starts."""
    message = f"{knob} must be in 1..{2**32 - 1} and an integer, got {2**32}"
    with pytest.raises(ValueError, match=message):
        build_index(small_set, name, seed=0, **{knob: 2**32})


# Each public taker of a seed, called on the tiny set with that seed.
_SEED_TAKERS = {
    "ProtocolConfig": lambda s, seed: ProtocolConfig(seed=seed),
    "pq_train": lambda s, seed: pq_train(s.vectors, 4, 4, seed=seed),
    "ivf_build": lambda s, seed: ivf_build(s, nlist=4, seed=seed),
    "lsh_build": lambda s, seed: lsh_build(s, nbits=16, seed=seed),
    "rp_build": lambda s, seed: rp_build(s, n_trees=2, seed=seed),
    **{f"build_index {name}": lambda s, seed, name=name: build_index(s, name, seed, **_KNOBS.get(name, {}))
       for name in FAMILIES},
}
_BAD_SEEDS = [-1, True, 2.5, "1"]


@pytest.mark.parametrize("taker", sorted(_SEED_TAKERS))
def test_a_seed_is_an_integer_of_at_least_zero(tiny_set, taker):
    """seed=-1 once built flat-l2 in `run_benchmark` before numpy refused it in
    the query sampling, seed=True ran as seed 1, and seed=2.5 built seed 2's
    forest while lsh, ivf and pq raised TypeError. A numpy integer seed is
    the int of the same value."""
    for bad in _BAD_SEEDS:
        with pytest.raises(ValueError, match=f"seed must be >= 0 and an integer, got {bad!r}"):
            _SEED_TAKERS[taker](tiny_set, bad)
    made, same = (_SEED_TAKERS[taker](tiny_set, seed) for seed in (np.int64(3), 3))
    if taker == "ProtocolConfig":
        assert type(made.seed) is int and made.seed == 3
    elif taker == "pq_train":
        assert np.array_equal(made.block, same.block)
    else:
        assert dump_index(made) == dump_index(same)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_no_family_builds_over_an_empty_set(name):
    empty = EmbeddingSet(np.empty(0, np.uint64), np.empty(0, np.uint32), np.empty((0, 8), np.float32))
    with pytest.raises(ValueError, match=r"^vectors must be a non-empty 2-d array, got shape \(0, 8\)$"):
        build_index(empty, name, seed=0)


def test_a_family_name_is_one_row():
    with pytest.raises(ValueError, match="unknown index family 'rpforest'"):
        build_index(gen_synthetic(2, 10, 4, 0.1, seed=0), "rpforest")


@pytest.mark.parametrize("state", ["built", "loaded"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_holds_each_id_once(indexes, small_set, name, state):
    index = indexes[name][state]
    ids = index.ids
    assert ids.dtype == np.uint64
    assert len(index) == len(ids)
    assert len(np.unique(ids)) == len(ids)
    assert sorted(ids.tolist()) == sorted(small_set.ids.tolist())


def _bad_query(small_set, case):
    q = small_set.vectors[0].astype(np.float64)
    if case == "wrong-dim":
        return np.append(q, 0.0)
    q[3] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[case]
    return q


@pytest.mark.parametrize("state", ["built", "loaded"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("case", ["nan", "+inf", "-inf", "wrong-dim"])
def test_every_family_rejects_a_bad_query(indexes, small_set, name, state, case):
    finite = r"^query must be finite \(no NaN or inf\)$"
    form = "^query has dim 17, expected 16$" if case == "wrong-dim" else finite
    with pytest.raises(ValueError, match=form):
        indexes[name][state].search(_bad_query(small_set, case), 5)


@pytest.mark.parametrize("state", ["built", "loaded"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [0, -1, 2.5, True])
def test_every_family_rejects_a_bad_k(indexes, small_set, name, state, k):
    with pytest.raises(ValueError, match="k must be"):
        indexes[name][state].search(small_set.vectors[0], k)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [0, -1, 2.5, True])
def test_search_excluding_rejects_a_bad_k(indexes, small_set, name, k):
    """k passes the search gate before k + 1 is asked for: k=0 once returned
    [], k=True one neighbour, and k=2.5 failed with the message "got 3.5"."""
    with pytest.raises(ValueError, match=f"k must be .*got {re.escape(repr(k))}$"):
        search_excluding(indexes[name]["built"], small_set.vectors[0], k, int(small_set.ids[0]))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize(
    "case, match",
    [("nan", "query must be finite"), ("wrong-dim", "^query has dim 17, expected 16$")],
)
def test_search_excluding_rejects_a_bad_query(indexes, small_set, name, case, match):
    """The query is checked once, by the search's own gate, with its message."""
    with pytest.raises(ValueError, match=match):
        search_excluding(indexes[name]["built"], _bad_query(small_set, case), 5, int(small_set.ids[0]))


@pytest.mark.parametrize(
    "query, k",
    [
        (np.full(8, np.nan), 3),
        (np.full(8, np.inf), 3),
        (np.array([1.0] * 7 + [-np.inf]), 3),
        (np.zeros(7), 3),
        (np.zeros(8), 2.5),
        (np.zeros(8), True),
        (np.zeros(8), 0),
    ],
)
@pytest.mark.parametrize("metric", list(annkit.Metric))
def test_exact_oracle_rejects_what_search_rejects(query, k, metric):
    """exact_search and ground_truth pass the same gate as every search:
    a NaN query used to rank NaN scores and k=2.5 raised TypeError."""
    s = gen_synthetic(4, 50, 8, 0.3, seed=1)
    with pytest.raises(ValueError):
        exact_search(s, query, k, metric)
    if query.shape == (8,) and np.isfinite(query).all():
        with pytest.raises(ValueError, match="k must be"):
            ground_truth(s, s.ids[:3], k, metric)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf])
_KS = st.one_of(
    st.integers(-2, 12),
    st.integers(1, 12).map(np.int64),
    st.floats(-2.0, 12.0, allow_nan=False),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    dim=st.sampled_from([15, 16, 16, 16, 17]),
    data=st.data(),
    k=_KS,
)
def test_query_validation_fuzz(indexes, name, dim, data, k):
    """A search raises ValueError exactly when k or the query is bad; a good
    search returns at most k distinct ids with finite scores."""
    elements = st.one_of(st.floats(-1e3, 1e3), _SPECIAL)
    q = data.draw(hnp.arrays(np.float64, dim, elements=elements))
    index = indexes[name]["built"]
    k_ok = isinstance(k, (int, np.integer)) and k >= 1
    # Angular is undefined where the query's norm is 0 in float64, subnormal underflow included.
    zero_angular = index.metric is annkit.Metric.ANGULAR and np.sum(q * q) == 0.0
    if not k_ok or dim != index.dim or not np.isfinite(q).all() or zero_angular:
        with pytest.raises(ValueError):
            index.search(q, k)
        return
    res = index.search(q, k)
    assert len(res) <= k
    assert len(set(res.ids)) == len(res)
    assert np.isfinite(res.scores).all()


_NO_IDS = np.empty(0, dtype=np.uint64)
_EMPTY = {
    "flat-l2": lambda s: FlatL2Index(_NO_IDS, np.empty((0, s.dim), dtype=np.float32)),
    "pq": lambda s: PqIndex(pq_train(s.vectors, 4, 4), _NO_IDS, np.empty((0, 4), dtype=np.uint8)),
    "hnsw": lambda s: HnswIndex(s.dim),
}


@pytest.mark.parametrize("name", sorted(_EMPTY))
def test_empty_loaded_index_answers_nothing(small_set, name):
    index = load_index_bytes(dump_index(_EMPTY[name](small_set)))
    assert len(index) == 0
    assert index.search(small_set.vectors[0], 3).neighbors == []
    with pytest.raises(ValueError):
        index.search(_bad_query(small_set, "nan"), 3)
    with pytest.raises(ValueError, match="k must be"):
        index.search(small_set.vectors[0], 0)


def test_public_names_are_sorted_unique_and_resolve():
    names = annkit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(annkit, name), name


@pytest.mark.parametrize("module, names", [
    ("kmeans", ["Centroids", "kmeans_fit"]),
    ("pq", ["PqCodebook", "pq_train"]),
    ("sq", ["SqParams", "sq_train"]),
    ("distances", ["batch_scores"]),
    ("evaluation", ["LabelMetrics", "label_metrics", "precision_at_k", "recall_at_n"]),
])
def test_training_and_scoring_internals_live_only_in_their_modules(module, names):
    """No alias APIs: the package does not re-export what a submodule owns."""
    owner = importlib.import_module(f"annkit.{module}")
    for name in names:
        assert hasattr(owner, name) and not hasattr(annkit, name), name


def test_label_metrics_keep_no_confusion_counts():
    """Every label metric comes from three per-class counters (true, called,
    hits); no per-class confusion record is kept."""
    assert not hasattr(importlib.import_module("annkit.evaluation"), "ConfusionCounts")
