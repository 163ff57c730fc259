"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported, with its unit, by
every workload in both modes, and that the output checks catch deliberately
corrupted results while failed operations are counted without stopping the
run. Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import run as bench

bench.prepare()

import numpy as np  # noqa: E402  (after the BLAS thread pin)

import annkit  # noqa: E402
import metrics  # noqa: E402
from oracle import order_error  # noqa: E402
from workloads import SHAPES, Shape  # noqa: E402

TINY = {
    # Enough rows that the probed IVF lists always hold k candidates.
    "scan": Shape(8, 104, 100, 4, SHAPES["scan"].families, setup_reps=2, warm_rows=64, dim=8),
    # pq trains 2^8 centroids per subspace, so it needs at least 256 rows.
    "quantize": Shape(4, 84, 80, 4, SHAPES["quantize"].families, setup_reps=1, warm_rows=256, dim=8),
    "graph-churn": Shape(
        4, 40, 32, 4, ("hnsw",), setup_reps=1, warm_rows=16, initial=96, dim=8
    ),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def tiny(workload: str = "scan", trace: bool = False) -> dict:
    return bench.measure(workload, seed=5, seconds=0.0, trace=trace, shape=TINY[workload])


@contextmanager
def patched(owner, name: str, wrap):
    """Replace owner.name by wrap(original) for the duration of the block."""
    had_own = name in vars(owner)
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


def corrupt_results(edit):
    def wrap(search):
        def corrupted(self, query, k, **kw):
            res = search(self, query, k, **kw)
            return annkit.SearchResult(edit(list(res.neighbors)))

        return corrupted

    return wrap


def check_metric_names() -> None:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.per_layer_units())):
        named = {m["name"]: m["unit"] for m in declared[key]}
        expect(named == units, f"BENCHMARK.json {key} names and units match the code")
    for workload in TINY:
        for trace, units in ((False, metrics.END_TO_END), (True, metrics.per_layer_units())):
            report = tiny(workload, trace)
            got = {name: m["unit"] for name, m in report["metrics"].items()}
            expect(report["correct"] and not report["failed"], f"{workload} trace={trace} passes")
            expect(got == units, f"{workload} trace={trace} reports every metric with its unit")
            values = [m["value"] for m in report["metrics"].values()]
            expect(all(np.isfinite(values)), f"{workload} trace={trace} values are finite")
            if not trace:
                expect(all(v > 0 for v in values), f"{workload} end-to-end metrics are non-zero")


def check_corruption_is_caught() -> None:
    swap = corrupt_results(lambda nb: [nb[1], nb[0]] + nb[2:])
    with patched(annkit.FlatL2Index, "search", swap):
        report = tiny()
    expect(not report["correct"], "swapped neighbors fail the run")
    expect(any("exact oracle" in e for e in report["errors"]), "flat-l2 oracle identity catches it")
    expect(any("out of order" in e for e in report["errors"]), "order check catches it")

    dup = corrupt_results(lambda nb: [nb[0], nb[0]] + nb[2:])
    with patched(annkit.LshIndex, "search", dup):
        report = tiny()
    expect(any("duplicate ids" in e for e in report["errors"]), "duplicate ids fail the run")

    def shifted_load(load):
        def wrapped(blob):
            index = load(blob)
            if isinstance(index, annkit.FlatL2Index):
                index.vectors[0] += 1.0
                index._vectors64 = index.vectors.astype(np.float64)
            return index

        return wrapped

    with patched(annkit, "load_index_bytes", shifted_load):
        report = tiny()
    errors = report["errors"]
    expect(any("byte-identical" in e for e in errors), "save -> load -> save mismatch fails the run")
    expect(any("differently" in e for e in errors), "loaded-vs-built mismatch fails the run")

    def flaky(search):
        def sometimes(self, query, k, **kw):
            if int(abs(query[0]) * 1000) % 5 == 0:  # the same queries fail every time
                raise RuntimeError("injected failure")
            return search(self, query, k, **kw)

        return sometimes

    with patched(annkit.IvfIndex, "search", flaky):
        report = tiny()
    expect(
        report["failed"] > 0 and report["attempted"] > report["failed"],
        "raising searches are counted as failed and the run goes on",
    )
    expect(report["correct"], "failed operations alone do not fail the output checks")

    # Scores that tie in float32: the exact float64 scores decide the order.
    tied = annkit.SearchResult([(5, 1.0), (3, 1.0)])
    expect(
        order_error(tied, "l2", lambda ids: np.array([1.0, 1.0])) is not None,
        "an exact tie must be broken by ascending id",
    )
    expect(
        order_error(tied, "l2", lambda ids: np.array([1.0, 1.0 + 1e-12])) is None,
        "a float32 tie of distinct float64 scores keeps score order",
    )


if __name__ == "__main__":
    check_metric_names()
    check_corruption_is_caught()
    print("selftest passed")
