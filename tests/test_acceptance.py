"""End-to-end checks on the reference dataset: 32 classes x 300 points, dim 64.

Exact identities are asserted with zero tolerance; statistical recall floors
sit at least 0.02 under the values measured at these exact seeds, so a real
regression trips them while benign float jitter cannot. Each test prints one
line with the measured value (visible with ``pytest -s``).
"""

import dataclasses

import numpy as np
import pytest

from annkit.bench import (
    ProtocolConfig,
    run_benchmark,
    sample_query_rows,
    search_excluding,
)
from annkit.data import gen_synthetic
from annkit.distances import Metric, batch_scores
from annkit.flat import FlatL2Index, exact_search, ground_truth
from annkit.hnsw import HnswIndex
from annkit.ivf import ivf_build
from annkit.kmeans import assign_to_centroids, kmeans_fit
from annkit.lsh import RERANK_POOL_FACTOR, lsh_build
from annkit.persist import dump_index, load_index_bytes
from annkit.pq import PqIndex, adc_scores, pq_train
from annkit.rpforest import rp_build
from annkit.sq import sq_decode_batch, sq_encode_batch, sq_train

N_QUERIES = 500
QUERY_SEED = 11


def note(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def dstar():
    return gen_synthetic(n_classes=32, per_class=300, dim=64, spread=0.05, seed=7)


@pytest.fixture(scope="module")
def query_rows(dstar):
    return sample_query_rows(len(dstar), N_QUERIES, seed=QUERY_SEED)


@pytest.fixture(scope="module")
def query_ids(dstar, query_rows):
    return dstar.ids[query_rows]


@pytest.fixture(scope="module")
def truth10_l2(dstar, query_ids):
    return ground_truth(dstar, query_ids, 10)


@pytest.fixture(scope="module")
def truth5_l2(dstar, query_ids):
    return ground_truth(dstar, query_ids, 5)


@pytest.fixture(scope="module")
def truth10_angular(dstar, query_ids):
    return ground_truth(dstar, query_ids, 10, Metric.ANGULAR)


@pytest.fixture(scope="module")
def truth5_angular(dstar, query_ids):
    return ground_truth(dstar, query_ids, 5, Metric.ANGULAR)


@pytest.fixture(scope="module")
def flat_l2(dstar):
    return FlatL2Index.build(dstar)


@pytest.fixture(scope="module")
def hnsw_index(dstar):
    return HnswIndex.build(dstar, M=32, ef_construction=40, ef_search=128, seed=0)


@pytest.fixture(scope="module")
def rp_angular(dstar):
    return rp_build(dstar, seed=0)  # default knobs, angular


@pytest.fixture(scope="module")
def ivf_flat_full(dstar):
    return ivf_build(dstar, nlist=98, encoding="flat", nprobe=98, seed=0)


def mean_recall(index_search, rows, dstar, truth, n):
    total = 0.0
    for row in rows:
        qid = int(dstar.ids[row])
        ids = index_search(row, qid)
        total += len(set(ids) & set(truth[qid])) / n
    return total / len(rows)


# ------------------------------------------------------- exact identities


def test_flat_families_reach_perfect_recall(dstar):
    cfg = ProtocolConfig(n_queries=N_QUERIES, seed=0)
    reports = run_benchmark(dstar, ["flat-l2", "flat-ip"], cfg)
    values = {r.family: r.recall_at_n for r in reports}
    note(f"flat recall@5: {values}")
    assert values["flat-l2"] == 1.0
    assert values["flat-ip"] == 1.0


def test_ivf_full_probe_is_order_identical_to_flat(
    dstar, flat_l2, ivf_flat_full, query_rows
):
    checked = 0
    for row in query_rows[:60]:
        q = dstar.vectors[row]
        for k in (1, 5, 6, 50):
            assert (
                ivf_flat_full.search(q, k).neighbors == flat_l2.search(q, k).neighbors
            )
            checked += 1
    note(f"ivf-flat nprobe=nlist ordered-identical to flat-l2 on {checked} searches")


@pytest.mark.parametrize(
    "metric", [Metric.ANGULAR, Metric.L2, Metric.MANHATTAN]
)
def test_rp_forest_full_budget_equals_exact(dstar, query_rows, metric):
    forest = rp_build(dstar, metric=metric, seed=0)
    budget = len(dstar) * forest.n_trees
    for row in query_rows[:20]:
        q = dstar.vectors[row]
        got = forest.search(q, 10, search_k=budget)
        want = exact_search(dstar, q, 10, metric)
        assert got.neighbors == want.neighbors
    note(f"rpforest search_k={budget} equals exact under {metric.value}")


def test_lsh_whole_set_pool_equals_flat(dstar, flat_l2, query_rows):
    index = lsh_build(dstar, seed=0)
    k = len(dstar) // RERANK_POOL_FACTOR  # pool of 4k then spans the whole set
    for row in query_rows[:10]:
        q = dstar.vectors[row]
        assert index.search(q, k).neighbors == flat_l2.search(q, k).neighbors
    note(f"lsh rerank pool {RERANK_POOL_FACTOR * k} >= {len(dstar)} equals flat-l2")


# ---------------------------------------------------- quantization numerics


def test_adc_matches_distance_to_decoded(dstar):
    cb = pq_train(dstar.vectors, m=8, nbits=8, seed=0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):  # 100 queries x 10 codes = 1,000 pairs
        q = rng.standard_normal(dstar.dim) * 2.0
        codes = rng.integers(0, cb.ks, size=(10, cb.m)).astype(np.uint8)
        got = adc_scores(cb, codes, q)
        # each code's sub-centroids side by side: the reconstruction ADC approximates
        decoded = np.concatenate([cb.block[j][codes[:, j]] for j in range(cb.m)], axis=1)
        want = batch_scores(Metric.L2, q, decoded)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    note(f"adc vs decoded-l2 worst relative error = {worst:.3e}")
    assert worst <= 1e-4


def test_sq_error_bounded_by_span_over_256(dstar):
    params = sq_train(dstar.vectors)
    spans = params.maxs.astype(np.float64) - params.mins.astype(np.float64)
    decoded = sq_decode_batch(params, sq_encode_batch(params, dstar.vectors.astype(np.float64)))
    err = np.abs(decoded - dstar.vectors.astype(np.float64))
    bound = spans / 256.0
    worst_ratio = float(np.max(err / bound[np.newaxis, :]))
    # a dense per-dimension sweep, not just the stored vectors
    grid = np.linspace(params.mins.astype(np.float64), params.maxs.astype(np.float64), 2001)
    grid_err = np.abs(sq_decode_batch(params, sq_encode_batch(params, grid)) - grid)
    worst_ratio = max(worst_ratio, float(np.max(grid_err / bound[np.newaxis, :])))
    note(f"sq worst error = {worst_ratio:.4f} of the span/256 bound")
    assert worst_ratio <= 1.0


def test_kmeans_distortion_never_increases(dstar):
    """The guard lives inside the training loop; the recorded series proves it."""

    def check(result):
        assert len(result.history) >= 2
        for earlier, later in zip(result.history, result.history[1:]):
            assert later <= earlier + 1e-9 * max(earlier, 1.0)
        _, sq = assign_to_centroids(
            np.asarray(data, dtype=np.float64), result.vectors
        )
        assert float(sq.mean()) == pytest.approx(result.distortion, rel=1e-9)

    runs = 0
    rng = np.random.default_rng(0)
    data = dstar.vectors[rng.choice(len(dstar), 2000, replace=False)]
    for seed in (0, 1, 2):
        check(kmeans_fit(data, 32, seed=seed))
        runs += 1
    data = rng.standard_normal((500, 16))
    for seed in (3, 4):
        check(kmeans_fit(data, 20, seed=seed))
        runs += 1
    note(f"kmeans distortion monotone over {runs} training runs (in-loop assert)")


# ------------------------------------------------------- recall floors
#
# Measured at these exact seeds and query sample (500 queries, seed 11):
#   hnsw  M=32 efc=40 efs=128 seed 0   recall@10 = 0.9902
#   rpforest angular, default knobs    recall@5  = 1.0000 (search_k=50)
#   (6 trees of 48-row leaves) seed 0  recall@5  = 1.0000 (search_k=250)
#                                      recall@10 = 1.0000 (default budget, n_trees x k)
#   ivf-pq nlist=98 m=64 nbits=8 s=0   recall@5  = 0.9376
# (10 trees of 16-row leaves read 0.9748, 1.0000 and 0.9994.)
# Floors sit >= 0.02 below each measured value.


def test_hnsw_recall_floor(dstar, hnsw_index, query_rows, truth10_l2):
    got = mean_recall(
        lambda row, qid: search_excluding(hnsw_index, dstar.vectors[row], 10, qid).ids,
        query_rows,
        dstar,
        truth10_l2,
        10,
    )
    note(f"hnsw recall@10 = {got:.4f} (floor 0.95)")
    assert got >= 0.95
    assert got >= 0.95 + 0.02  # the measured value keeps real headroom


def test_rp_forest_recall_floors(dstar, rp_angular, query_rows, truth5_angular):
    def searcher(search_k):
        def run(row, qid):
            res = rp_angular.search(dstar.vectors[row], 6, search_k=search_k)
            return [i for i in res.ids if i != qid][:5]

        return run

    low = mean_recall(searcher(50), query_rows, dstar, truth5_angular, 5)
    high = mean_recall(searcher(250), query_rows, dstar, truth5_angular, 5)
    note(f"rpforest recall@5 = {low:.4f} at search_k=50, {high:.4f} at search_k=250")
    assert low >= 0.80
    assert high >= 0.95
    assert low >= 0.80 + 0.02 and high >= 0.95 + 0.02


def test_rp_forest_default_budget_recall_floor(dstar, rp_angular, query_rows, truth10_angular):
    got = mean_recall(
        lambda row, qid: search_excluding(rp_angular, dstar.vectors[row], 10, qid).ids,
        query_rows,
        dstar,
        truth10_angular,
        10,
    )
    note(f"rpforest recall@10 = {got:.4f} at the default budget (floor 0.97)")
    assert got >= 0.97
    assert got >= 0.97 + 0.02


def test_ivf_pq_recall_floor(dstar, query_rows, truth5_l2):
    index = ivf_build(dstar, nlist=98, encoding="pq", m=64, nbits=8, nprobe=98, seed=0)

    def run(row, qid):
        res = index.search(dstar.vectors[row], 6)
        return [i for i in res.ids if i != qid][:5]

    got = mean_recall(run, query_rows, dstar, truth5_l2, 5)
    note(f"ivf-pq recall@5 = {got:.4f} (floor 0.90, full probe)")
    assert got >= 0.90
    assert got >= 0.90 + 0.02


# ------------------------------------------------------ trade-off shapes


def test_precision_at_k_declines_gracefully(dstar, flat_l2, hnsw_index, rp_angular):
    rows = sample_query_rows(len(dstar), 200, seed=QUERY_SEED)
    indexes = {"flat-l2": flat_l2, "hnsw": hnsw_index, "rpforest-angular": rp_angular}
    for name, index in indexes.items():
        means = []
        for k in (5, 50, 100, 200):
            vals = []
            for row in rows:
                qid = int(dstar.ids[row])
                res = search_excluding(index, dstar.vectors[row], k, qid)
                got = np.array([dstar.labels[dstar.row_of(i)] for i in res.ids])
                vals.append(float(np.mean(got == dstar.labels[row])))
            means.append(float(np.mean(vals)))
        note(f"{name} precision@k over k=(5,50,100,200): {[round(m, 4) for m in means]}")
        for lo, hi in zip(means, means[1:]):
            assert hi <= lo + 0.01, f"{name}: precision@k rose from {lo} to {hi}"


def test_candidate_sets_nest_exactly(dstar, ivf_flat_full, rp_angular, query_rows):
    """Growing nprobe or search_k only ever adds candidates, never removes."""
    for row in query_rows[:25]:
        q = dstar.vectors[row].astype(np.float64)
        previous: set[int] = set()
        for nprobe in (1, 2, 5, 10, 49, 98):
            ids = set(ivf_flat_full.probe_candidate_ids(q, nprobe).tolist())
            assert previous <= ids
            previous = ids
        assert previous == set(dstar.ids.tolist())
        previous = set()
        for search_k in (10, 50, 250, 1000):
            rows_found = set(rp_angular.candidate_rows(q, search_k).tolist())
            assert previous <= rows_found
            previous = rows_found
    note("ivf nprobe and rpforest search_k candidate sets nest exactly")


# ------------------------------------------------- metrics, persistence


def test_label_metrics_match_naive_reference():
    from collections import Counter

    from annkit.evaluation import label_metrics

    def naive(outcomes):
        preds = []
        for true_label, retrieved in outcomes:
            counts = Counter(retrieved)
            best = max(counts.values())
            preds.append(
                (true_label, next(l for l in retrieved if counts[l] == best))
            )
        classes = sorted({t for t, _ in preds} | {p for _, p in preds})
        div = lambda a, b: a / b if b else 0.0
        tp = {c: sum(1 for t, p in preds if t == p == c) for c in classes}
        fp = {c: sum(1 for t, p in preds if t != c and p == c) for c in classes}
        fn = {c: sum(1 for t, p in preds if t == c and p != c) for c in classes}
        p = {c: div(tp[c], tp[c] + fp[c]) for c in classes}
        r = {c: div(tp[c], tp[c] + fn[c]) for c in classes}
        f = {c: div(2 * p[c] * r[c], p[c] + r[c]) for c in classes}
        micro_p = div(sum(tp.values()), sum(tp.values()) + sum(fp.values()))
        micro_r = div(sum(tp.values()), sum(tp.values()) + sum(fn.values()))
        return {
            "precision": micro_p,
            "recall": micro_r,
            "f1": div(2 * micro_p * micro_r, micro_p + micro_r),
            "accuracy": div(sum(tp.values()), len(preds)),
            "macro_precision": sum(p.values()) / len(classes),
            "macro_recall": sum(r.values()) / len(classes),
            "macro_f1": sum(f.values()) / len(classes),
        }

    for seed in range(20):
        rng = np.random.default_rng(seed)
        outcomes = [
            (int(rng.integers(5)), rng.integers(5, size=5).tolist())
            for _ in range(30)
        ]
        got = label_metrics(outcomes)
        want = naive(outcomes)
        for field, value in want.items():
            assert getattr(got, field) == pytest.approx(value, abs=1e-12), field
        assert got.precision == pytest.approx(got.recall, abs=1e-12)
        assert got.precision == pytest.approx(got.accuracy, abs=1e-12)
    note("label metrics equal the naive evaluator on 20 fixtures; micro P=R=acc")


def test_every_family_round_trips(small_set):
    from annkit.flat import FlatIPIndex

    builders = {
        "flat-l2": lambda s: FlatL2Index.build(s),
        "flat-ip": lambda s: FlatIPIndex.build(s),
        "pq": lambda s: PqIndex.build(s, m=4, nbits=4, seed=0),
        "ivf-flat": lambda s: ivf_build(s, nlist=8, encoding="flat", seed=0),
        "ivf-pq": lambda s: ivf_build(s, nlist=8, encoding="pq", m=4, nbits=4, seed=0),
        "ivf-sq": lambda s: ivf_build(s, nlist=8, encoding="sq", seed=0),
        "lsh": lambda s: lsh_build(s, nbits=64, seed=0),
        "hnsw": lambda s: HnswIndex.build(s, M=8, ef_construction=24, seed=0),
        "rpforest": lambda s: rp_build(s, n_trees=4, seed=0),
    }
    rng = np.random.default_rng(1)
    queries = rng.standard_normal((5, small_set.dim)).astype(np.float32)
    for family, build in builders.items():
        index = build(small_set)
        blob = dump_index(index)
        loaded = load_index_bytes(blob)
        for q in queries:
            assert loaded.search(q, 8).neighbors == index.search(q, 8).neighbors, family
        assert dump_index(loaded) == blob, family
    note(f"{len(builders)} families round-trip byte-identically")


def test_protocol_repeats_exactly_and_qps_is_consistent(dstar):
    cfg = ProtocolConfig(n_queries=N_QUERIES, seed=0)
    (a,) = run_benchmark(dstar, ["flat-l2"], cfg)
    (b,) = run_benchmark(dstar, ["flat-l2"], cfg)
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    for field in type(a).TIMING_FIELDS:
        da.pop(field)
        db.pop(field)
    assert da == db
    for report in (a, b):
        implied = 1e6 / report.avg_query_time_us
        assert report.qps == pytest.approx(implied, rel=0.01)
    note(
        "bench repeats exactly apart from timing; "
        f"qps {a.qps:.0f} vs implied {1e6 / a.avg_query_time_us:.0f}"
    )
