"""The benchmark's workloads: seeded inputs, timed phases, output checks.

Every workload is one client thread in a closed loop: an operation is issued
only when the previous one has returned. It runs three timed phases, each
after a discarded warm-up: ``setup`` builds every index, ``loop`` searches
(and in graph-churn inserts), ``persist`` dumps every index and loads it back
repeatedly. The index contract is called directly, never through
``annkit.bench``.
"""

from __future__ import annotations

import copy
import gc
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import annkit
from oracle import Oracle, exact_scores, failure, order_error, recall
from tracer import Tracer

K = 10
MIN_SAMPLES = 1000  # timed searches per family at least: >= 10 lie beyond p99
WARMUP_QUERIES = 16  # discarded searches per family before a timed loop
CHECK_QUERIES = 32  # sampled queries on which a loaded index must equal the built one
LOAD_SAMPLES = 15  # load-time samples per family
LOAD_SAMPLE_NS = 5_000_000  # each the mean of back-to-back loads lasting this long
TRACE_LOAD_REPS = 3
REFERENCE_NOMINAL_NS = 800_000  # about the reference time on the 2-vCPU Xeon VM that set it
REFERENCE_EVERY_NS = 20_000_000  # one reference sample per 20 ms of searching or loading


@dataclass(frozen=True)
class Family:
    metric: str  # the oracle's metric
    unit: bool  # indexes and queries the L2-normalized copy
    build: Callable  # EmbeddingSet -> VectorIndex, default knobs


# Builders look names up on ``annkit`` at call time, so a traced run sees
# the wrapped callables.
FAMILIES = {
    "flat-l2": Family("l2", False, lambda s: annkit.FlatL2Index.build(s)),
    "flat-ip": Family("ip", True, lambda s: annkit.FlatIPIndex.build(s)),
    "ivf-flat": Family("l2", False, lambda s: annkit.ivf_build(s, encoding="flat")),
    "ivf-sq": Family("l2", False, lambda s: annkit.ivf_build(s, encoding="sq")),
    "lsh": Family("l2", False, lambda s: annkit.lsh_build(s)),
    "rpforest-angular": Family(
        "angular", False, lambda s: annkit.rp_build(s, metric=annkit.Metric.ANGULAR)
    ),
    "pq": Family("l2", False, lambda s: annkit.PqIndex.build(s)),
    "ivf-pq": Family("l2", False, lambda s: annkit.ivf_build(s, encoding="pq")),
    "hnsw": Family("l2", False, lambda s: annkit.HnswIndex.build(s)),
}


@dataclass(frozen=True)
class Shape:
    """Input sizes of a workload; ``gen_synthetic`` rows are split per class."""

    n_classes: int
    per_class: int
    indexed: int  # leading rows of each class that are indexed
    held_out: int  # trailing rows of each class, used as queries
    families: tuple[str, ...]
    setup_reps: int  # setups timed per run; setup_s is their median
    warm_rows: int  # rows of the discarded warm-up build
    initial: int = 0  # graph-churn: rows of the initial graph; the rest are inserted
    dim: int = 64
    spread: float = 0.05


SHAPES = {
    "scan": Shape(
        32, 320, 300, 20,
        ("flat-l2", "flat-ip", "ivf-flat", "ivf-sq", "lsh", "rpforest-angular"),
        setup_reps=3, warm_rows=512,
    ),
    "quantize": Shape(32, 320, 300, 20, ("pq", "ivf-pq"), setup_reps=2, warm_rows=512),
    "graph-churn": Shape(
        16, 320, 250, 20, ("hnsw",), setup_reps=2, warm_rows=200, initial=3000
    ),
}


# ------------------------------------------------------------------ inputs


class Inputs:
    """Everything a workload derives from its seed; the program sees only these."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        data = annkit.gen_synthetic(
            shape.n_classes, shape.per_class, shape.dim, shape.spread, seed
        )
        starts = np.arange(shape.n_classes)[:, None] * shape.per_class
        rows = (starts + np.arange(shape.indexed)).ravel()
        qrows = (starts + np.arange(shape.per_class - shape.held_out, shape.per_class)).ravel()
        self.ids = data.ids[rows]
        self.row_of = {int(i): r for r, i in enumerate(self.ids)}
        self.labels = data.labels[rows]
        self.vectors = data.vectors[rows]
        self.unit_vectors = self.make_set().normalized().vectors
        queries = data.vectors[qrows]
        unit_queries = annkit.EmbeddingSet(
            data.ids[qrows], data.labels[qrows], queries
        ).normalized().vectors
        self.queries = {False: list(queries), True: list(unit_queries)}
        self.rng = np.random.default_rng(seed)
        self.oracles = {
            (fam.metric, fam.unit): Oracle(
                fam.metric, self.ids, self.unit_vectors if fam.unit else self.vectors
            )
            for fam in (FAMILIES[f] for f in shape.families)
        }
        self.keys = {
            key: oracle.keys(unit_queries if key[1] else queries)
            for key, oracle in self.oracles.items()
        }

    def make_set(self, rows=slice(None), unit: bool = False) -> annkit.EmbeddingSet:
        """A fresh set, so no float64 view cached by an earlier build is reused."""
        vectors = self.unit_vectors if unit else self.vectors
        return annkit.EmbeddingSet(self.ids[rows], self.labels[rows], vectors[rows])

    def truth(self, fam: str, qi: int, present: np.ndarray | None = None):
        f = FAMILIES[fam]
        key = (f.metric, f.unit)
        return self.oracles[key].topk(self.queries[f.unit][qi], self.keys[key][qi], K, present)


# --------------------------------------------------------------------- run


class Speed:
    """How fast the machine ran during a workload's timed phases.

    A fixed computation that no annkit code touches (a numpy scan of a 1 MB
    table, a lexsort and a pure-Python loop) is timed between the
    operations of every timed phase. On a host whose cores are shared, speed
    drifts by tens of percent over minutes and slows this reference much as
    it slows annkit. Dividing a phase's times by
    ``factor(phase) = median reference time / REFERENCE_NOMINAL_NS`` states
    them at one fixed machine speed. The reference runs once untimed first,
    so its time does not depend on what the program left in the caches.
    """

    def __init__(self) -> None:
        self._table = np.random.default_rng(0).standard_normal((2048, 64))
        self._ids = np.arange(len(self._table))
        self.samples: dict[str, list[int]] = {}
        self._last = 0

    def _reference(self) -> None:
        dist = np.sqrt(np.sum((self._table - self._table[7]) ** 2, axis=1))
        np.lexsort((self._ids, dist))
        acc = 0
        for i in range(3000):
            acc += i % 7

    def measure(self, phase: str, n: int = 1) -> None:
        samples = self.samples.setdefault(phase, [])
        for _ in range(n):
            self._reference()
            start = time.perf_counter_ns()
            self._reference()
            samples.append(time.perf_counter_ns() - start)
        self._last = time.perf_counter_ns()

    def tick(self, phase: str) -> None:
        """Sample once if REFERENCE_EVERY_NS have passed since the last sample."""
        if time.perf_counter_ns() - self._last >= REFERENCE_EVERY_NS:
            self.measure(phase)

    def factor(self, phase: str | None = None) -> float:
        """Speed over one phase's samples, or over the whole run's."""
        samples = self.samples[phase] if phase else sum(self.samples.values(), [])
        return statistics.median(samples) / REFERENCE_NOMINAL_NS


@dataclass
class Run:
    """Operation counts, failures, check errors, recall and machine speed of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    recall_sum: float = 0.0
    recall_n: int = 0
    speed: Speed = field(default_factory=Speed)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)
        elif len(self.errors) == 20:
            self.errors.append("... further check errors not listed")

    def call(self, what: str, fn, *args):
        """Time one operation: (result, ns), or (None, None) when it raised.

        A raising call is counted as failed and the run goes on.
        """
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is recorded, none aborts
            self.fail(what, repr(exc))
            return None, None
        return out, time.perf_counter_ns() - start

    def search(self, fam: str, index, query):
        res, ns = self.call(f"{fam} search", index.search, query, K)
        if res is not None and (why := failure(res, K)):
            self.fail(f"{fam} search", why)
            return None, None
        return res, ns


@contextmanager
def traced(tracer: Tracer | None, phase: str):
    if tracer is None:
        yield
        return
    tracer.tag = (phase, "")
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _tag(tracer: Tracer | None, phase: str, fam: str) -> None:
    if tracer is not None:
        tracer.tag = (phase, fam)


# ----------------------------------------------------------------- checks


def rescore(inputs: Inputs, fam: str, index, query, ids) -> np.ndarray:
    """float64 scores of stored ids, to settle float32 ties in the order check.

    Exact families are re-scored by the oracle's arithmetic on the stored
    vectors; quantized families through their own public code decoders.
    """
    f = FAMILIES[fam]
    if fam not in ("pq", "ivf-pq", "ivf-sq"):
        vectors = inputs.unit_vectors if f.unit else inputs.vectors
        return exact_scores(f.metric, query, vectors[[inputs.row_of[int(i)] for i in ids]])
    out = []
    for rid in np.asarray(ids, dtype=np.uint64):
        if isinstance(index, annkit.PqIndex):
            code, encoding = index.codes[index.ids == rid], "pq"
        else:
            lists = zip(index.list_ids, index.list_payloads)
            code = next(p[i == rid] for i, p in lists if np.any(i == rid))
            encoding = index.encoding
        if encoding == "pq":
            out.append(annkit.pq.adc_scores(index.codebook, code, query)[0])
        else:
            out.append(exact_scores("l2", query, annkit.sq_decode_batch(index.sq_params, code))[0])
    return np.array(out)


def check_order(run: Run, inputs: Inputs, fam: str, index, qi: int, res) -> None:
    query = inputs.queries[FAMILIES[fam].unit][qi]
    why = order_error(
        res, FAMILIES[fam].metric, lambda ids: rescore(inputs, fam, index, query, ids)
    )
    if why:
        run.error(f"{fam} query {qi}: {why}")


def check_result(run: Run, inputs: Inputs, fam: str, index, qi: int, res, present=None) -> None:
    """Order check, recall against the exact oracle, and for flat-l2 identity."""
    check_order(run, inputs, fam, index, qi, res)
    truth_ids, truth_scores = inputs.truth(fam, qi, present)
    run.recall_sum += recall(res.ids, truth_ids)
    run.recall_n += 1
    if fam == "flat-l2" and (
        res.ids != truth_ids or res.scores != [float(np.float32(s)) for s in truth_scores]
    ):
        run.error(f"flat-l2 query {qi}: result differs from the exact oracle")


def check_loaded(run: Run, inputs: Inputs, fam: str, built, loaded) -> None:
    """A loaded index answers sampled queries exactly as the built one does."""

    def answer(index, query):
        try:
            return index.search(query, K).neighbors
        except Exception as exc:  # noqa: BLE001 - raising alike is answering alike
            return repr(exc)

    queries = inputs.queries[FAMILIES[fam].unit]
    picks = np.random.default_rng(len(queries)).choice(
        len(queries), size=min(CHECK_QUERIES, len(queries)), replace=False
    )
    for qi in picks.tolist():
        if answer(built, queries[qi]) != answer(loaded, queries[qi]):
            run.error(f"{fam}: loaded index answers query {qi} differently")
            return


# ----------------------------------------------------------------- phases

TRACE_CHUNK = 64  # searches or churn steps per untraced/traced alternation


def paired(tracer: Tracer, phase: str, items: list, step, chunk: int) -> tuple[int, int]:
    """Run ``step(item, tracer or None) -> ns`` on each chunk untraced and traced.

    Alternating in small chunks, and which side goes first, lets drift in
    machine speed cancel out of the tracing overhead (traced minus untraced
    time). Returns the untraced and the traced total.
    """
    totals = {None: 0, tracer: 0}
    for n, i in enumerate(range(0, len(items), chunk)):
        for tr in (None, tracer) if n % 2 == 0 else (tracer, None):
            gc.collect()  # both sides start from the same collector state
            with traced(tr, phase):
                for item in items[i : i + chunk]:
                    totals[tr] += step(item, tr)
    return totals[None], totals[tracer]


def build_one(run: Run, inputs: Inputs, fam: str, rows, tracer: Tracer | None = None):
    """Build one family over ``rows`` of a fresh set: (index, ns) or (None, None)."""
    emb_set = inputs.make_set(rows, FAMILIES[fam].unit)
    gc.collect()
    _tag(tracer, "setup", fam)
    return run.call(f"{fam} build", FAMILIES[fam].build, emb_set)


def query_loop(
    run: Run, inputs: Inputs, indexes: dict, seconds: float, min_samples: int = MIN_SAMPLES
):
    """Closed-loop searches, families interleaved in seeded permutations.

    Permutations of (family, query) are walked until at least one has been
    completed, ``seconds`` have passed and every family has had
    ``min_samples`` searches. The first permutation checks each result against
    the oracle; later ones check its order. Returns latencies per family and
    the first permutation.
    """
    fams = list(indexes)
    nq = len(inputs.queries[False])
    for fam in fams:  # warm-up, discarded
        for qi in range(min(WARMUP_QUERIES, nq)):
            run.search(fam, indexes[fam], inputs.queries[FAMILIES[fam].unit][qi])
    latency = {fam: [] for fam in fams}
    tried = [0] * len(fams)
    first = order = inputs.rng.permutation(len(fams) * nq)
    passes = 0

    def done() -> bool:
        return passes > 0 and time.perf_counter() - start >= seconds and min(tried) >= min_samples

    gc.collect()
    start = time.perf_counter()
    while not done():
        for op in order.tolist():
            f, qi = divmod(op, nq)
            fam = fams[f]
            tried[f] += 1
            res, ns = run.search(fam, indexes[fam], inputs.queries[FAMILIES[fam].unit][qi])
            run.speed.tick("loop")
            if res is not None:
                latency[fam].append(ns)
                if passes == 0:
                    check_result(run, inputs, fam, indexes[fam], qi, res)
                else:
                    check_order(run, inputs, fam, indexes[fam], qi, res)
            elif passes == 0:
                run.recall_n += 1  # a failed search retrieves nothing
            if passes and done():
                break
        passes += 1
        order = inputs.rng.permutation(len(fams) * nq)
    return latency, first


@dataclass
class Churn:
    """graph-churn's loop over one graph; ``present`` marks the rows it holds."""

    run: Run
    inputs: Inputs
    graph: object
    inserts: list[int]
    present: np.ndarray
    qorder: list[int]
    check: bool = True
    insert_ns: list[int] = field(default_factory=list)
    search_ns: list[int] = field(default_factory=list)

    def step(self, i: int) -> int:
        """Insert held-back row i, then search one held-out query; returns the ns taken.

        A checked search is compared with the exact oracle over the rows
        present at that moment.
        """
        run, inputs, row = self.run, self.inputs, self.inserts[i]
        _, ins = run.call("hnsw insert", self.graph.insert, int(inputs.ids[row]), inputs.vectors[row])
        if ins is not None:
            self.insert_ns.append(ins)
            self.present[row] = True
        qi = self.qorder[i % len(self.qorder)]
        res, ns = run.search("hnsw", self.graph, inputs.queries[False][qi])
        if self.check:
            run.speed.tick("loop")
        if res is not None:
            self.search_ns.append(ns)
            if self.check:
                check_result(run, inputs, "hnsw", self.graph, qi, res, self.present)
        elif self.check:
            run.recall_n += 1
        return (ins or 0) + (ns or 0)


def round_trip(run: Run, inputs: Inputs, indexes: dict) -> dict:
    """Dump and reload each index once (the warm-up) and check the round trip.

    Returns the dumped bytes per family.
    """
    blobs = {}
    for fam, index in indexes.items():
        blob, _ = run.call(f"{fam} dump", annkit.dump_index, index)
        loaded, _ = run.call(f"{fam} load", annkit.load_index_bytes, blob) if blob else (None, None)
        if loaded is None:
            run.error(f"{fam}: save/load round trip failed")
            continue
        if annkit.dump_index(loaded) != blob:
            run.error(f"{fam}: save -> load -> save is not byte-identical")
        check_loaded(run, inputs, fam, index, loaded)
        blobs[fam] = blob
    return blobs


def persist_timed(run: Run, indexes: dict, blobs: dict, tracer: Tracer | None = None):
    """Dump each index once, then time its loads.

    Untraced, each of LOAD_SAMPLES samples is the mean of enough back-to-back
    loads to last LOAD_SAMPLE_NS, so a load of a few microseconds is timed
    mostly with warm caches, like a slow one. Traced, TRACE_LOAD_REPS single loads run
    untraced and each is repeated traced right after. Returns untraced dump
    and load times per family and the traced total.
    """
    dump_ns, load_ns, traced_ns = {}, {}, 0

    def op(fam: str, what: str, fn, arg):
        nonlocal traced_ns
        _, ns = run.call(f"{fam} {what}", fn, arg)
        if tracer is not None:
            with traced(tracer, "persist"):
                tracer.tag = ("persist", fam)
                traced_ns += run.call(f"{fam} {what}", fn, arg)[1] or 0
        return ns

    def load(blob):
        return annkit.load_index_bytes(blob)

    for fam, blob in blobs.items():
        gc.collect()
        run.speed.measure("persist", 8)
        dump_ns[fam] = op(fam, "dump", lambda i: annkit.dump_index(i), indexes[fam]) or 0
        if tracer is not None:
            load_ns[fam] = [op(fam, "load", load, blob) or 0 for _ in range(TRACE_LOAD_REPS)]
            continue
        once = run.call(f"{fam} load", load, blob)[1] or LOAD_SAMPLE_NS
        batch = max(1, -(-LOAD_SAMPLE_NS // once))
        load_ns[fam] = []
        for _ in range(LOAD_SAMPLES):
            # A load allocates thousands of tracked objects (graph links, tree
            # nodes); starting each sample from an empty collector keeps
            # whether a full collection lands inside it the same every time.
            gc.collect()
            times = [run.call(f"{fam} load", load, blob)[1] for _ in range(batch)]
            times = [ns for ns in times if ns is not None]
            if times:
                load_ns[fam].append(sum(times) / len(times))
            run.speed.tick("persist")
    return dump_ns, load_ns, traced_ns


def resident(blob: bytes) -> tuple[int, int]:
    """Bytes a freshly loaded index retains (tracemalloc) and its memory_bytes()."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = annkit.load_index_bytes(blob)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, index.memory_bytes()


# -------------------------------------------------------------- workloads


@dataclass
class Outcome:
    """What one workload run measured."""

    run: Run
    inputs: Inputs
    indexes: dict
    blobs: dict
    setup_ns: list[int]
    build_ns: dict  # family -> [ns per setup]
    latency_ns: dict  # family -> [ns per timed search]
    insert_ns: list[int]
    load_ns: dict  # family -> [ns per load]
    tracer: Tracer | None = None
    phase_ns: dict = field(default_factory=dict)  # phase -> (untraced, traced) timed ns


def setup_phase(run: Run, inputs: Inputs, rows, tracer: Tracer | None, phase_ns: dict):
    """Build every family: ``setup_reps`` times untraced, or paired with a traced build.

    Returns the indexes of the last untraced setup, the wall time of each
    setup and every family's build times.
    """
    shape = inputs.shape
    warm = slice(0, shape.warm_rows)
    for fam in shape.families:  # warm-up, discarded
        run.call(f"{fam} build", FAMILIES[fam].build, inputs.make_set(warm, FAMILIES[fam].unit))
    indexes, setup_ns = {}, []
    build_ns: dict = {fam: [] for fam in shape.families}

    def build_step(fam, tr):
        index, ns = build_one(run, inputs, fam, rows, tr)
        if tr is None:
            indexes[fam] = index
            if ns is not None:
                build_ns[fam].append(ns)
            run.speed.measure("setup", 8)
        elif index is None:
            run.error(f"{fam}: traced build failed")
        return ns or 0

    if tracer is None:
        for _ in range(shape.setup_reps):
            # Each setup starts from the same heap: earlier indexes are dropped
            # first, since the cost of Python's cyclic GC grows with them.
            indexes.clear()
            setup_ns.append(sum(build_step(fam, None) for fam in shape.families))
    else:
        phase_ns["setup"] = paired(tracer, "setup", list(shape.families), build_step, 1)
        setup_ns.append(phase_ns["setup"][0])
    for fam in shape.families:
        if indexes.get(fam) is None:
            run.error(f"{fam}: build failed")
            indexes.pop(fam, None)
    return indexes, setup_ns, build_ns


def churn_phase(run: Run, inputs: Inputs, graph, rows, inserts, tracer, phase_ns: dict):
    """graph-churn's loop; returns search and insert latencies of the untraced graph."""
    queries = inputs.queries[False]
    for qi in range(min(WARMUP_QUERIES, len(queries))):  # warm-up, discarded
        run.search("hnsw", graph, queries[qi])
    present = np.zeros(len(inputs.ids), dtype=bool)
    present[rows] = True
    qorder = inputs.rng.permutation(len(queries)).tolist()
    churn = Churn(run, inputs, graph, inserts, present.copy(), qorder)
    if tracer is None:
        gc.collect()
        for i in range(len(inserts)):
            churn.step(i)
    else:
        # A deep copy carries the level-drawing RNG state, so the traced twin
        # makes exactly the inserts the untraced graph makes.
        twin = Churn(run, inputs, copy.deepcopy(graph), inserts, present, qorder, check=False)

        def churn_step(i, tr):
            _tag(tr, "loop", "hnsw")
            return (twin if tr else churn).step(i)

        steps = list(range(len(inserts)))
        phase_ns["loop"] = paired(tracer, "loop", steps, churn_step, TRACE_CHUNK)
    return {"hnsw": churn.search_ns}, churn.insert_ns


def search_phase(run: Run, inputs: Inputs, indexes: dict, seconds: float, tracer, phase_ns: dict):
    """scan's and quantize's loop; returns search latencies per family."""
    if tracer is None:
        return query_loop(run, inputs, indexes, seconds)[0]
    latency, first = query_loop(run, inputs, indexes, 0, 0)
    fams, nq = list(indexes), len(inputs.queries[False])

    def search_step(op, tr):
        fam, qi = fams[op // nq], op % nq
        _tag(tr, "loop", fam)
        return run.search(fam, indexes[fam], inputs.queries[FAMILIES[fam].unit][qi])[1] or 0

    phase_ns["loop"] = paired(tracer, "loop", first.tolist(), search_step, TRACE_CHUNK)
    return latency


def run_workload(name: str, seed: int, seconds: float, trace: bool, shape: Shape | None = None):
    """Run one workload.

    Traced, each timed phase pairs every operation (or chunk of searches)
    untraced with the same one traced: per-layer figures come from the
    traced side, everything else from the untraced side.
    """
    shape = shape or SHAPES[name]
    inputs = Inputs(shape, seed)
    run = Run()
    tracer = Tracer() if trace else None
    phase_ns: dict = {}
    rows = np.arange(len(inputs.ids))
    if shape.initial:
        perm = inputs.rng.permutation(rows)
        rows, inserts = np.sort(perm[: shape.initial]), perm[shape.initial :].tolist()
    indexes, setup_ns, build_ns = setup_phase(run, inputs, rows, tracer, phase_ns)

    latency, insert_ns = {fam: [] for fam in shape.families}, []
    if not shape.initial:
        latency = search_phase(run, inputs, indexes, seconds, tracer, phase_ns)
    elif "hnsw" in indexes:
        latency, insert_ns = churn_phase(
            run, inputs, indexes["hnsw"], rows, inserts, tracer, phase_ns
        )

    blobs = round_trip(run, inputs, indexes)
    dump_ns, load_ns, traced_ns = persist_timed(run, indexes, blobs, tracer)
    if tracer is not None:
        phase_ns["persist"] = (sum(dump_ns.values()) + sum(map(sum, load_ns.values())), traced_ns)
    return Outcome(
        run, inputs, indexes, blobs, setup_ns, build_ns, latency, insert_ns, load_ns,
        tracer, phase_ns,
    )
