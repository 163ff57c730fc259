"""Check that every index family gives the same bytes and answers as a parent.

    python3 tools/identity.py                    # this checkout's table
    python3 tools/identity.py --parent HEAD~1    # compare with a commit

Every row of ``annkit.families.FAMILIES`` is built on the acceptance corpus
(32 classes x 300 points, dim 64, seed 7; normalized for rows that index the
unit set) and dumped to VIDX. Each row reports the sha256 of the VIDX bytes,
``memory_bytes()`` of the built and of the loaded index, and a sha256 of the
built and of the loaded index's ``SearchResult``s for a fixed query set (64
corpus rows sampled with seed 11 and 16 Gaussian vectors, k = 10, default
knobs), a sha256 of both indexes' ``SearchResult``s with each integer
query-time knob that ``search`` takes (``search_k``, ``nprobe``,
``ef_search``) set to 1 and to 3 (``-`` for a row without one), where small
budgets break ties, the row's knobs: its build keywords, sorted, and the
keyword parameters of ``search`` after ``query, k``, the built index's
``config()`` as sorted JSON, and a sha256 of the built index's
``bench.run_protocol`` report (the same 64 queries, k and recall_n 10, seed
11) without its timing fields and its ``config``, so the label metrics,
precision@k and recall@n are compared too, and a change to what ``config()``
returns shows in the ``config`` field alone. Last, for a family with
``insert``, the 80 queries are inserted, with ids from the largest stored
id + 1 on, into the built index and into its load, and each reports the
sha256 of its VIDX bytes after them (``built_grown_sha256``,
``loaded_grown_sha256``; ``-`` without ``insert``), so save, load, insert
is compared with insert. All 80 are inserted because an hnsw node reaches
level 1 with probability 1/M: the first 16 level draws of ``default_rng(0)``
and the 16 after the corpus's 9,600 are all level 0 at M = 32, so 16 inserts
would not tell a load that restarts the level stream from one that does not.

One more row, ``exact-oracle``, covers the exact oracle that the flat scans'
shortlist also serves: a sha256 of ``exact_search`` on the same 80 queries
(the corpus unnormalized) in each of the four metrics without ``exclude``
(``built_results_sha256``) and with it (``knob_results_sha256``: a query
row's own id, and for the i-th Gaussian query the i-th id), and a sha256 of
``ground_truth`` for the 64 query ids in each metric (``report_sha256``).
Its other fields read ``-``.

With ``--parent`` the parent side is the committed tree of that revision,
extracted as ``tools/bench_pairs.py`` extracts it, and the change side is this
checkout's working tree. Each side runs this script against its own ``src``
in a fresh process with BLAS pinned to one thread, and every field that
differs is listed, a knob added or removed included; the exit code is 1 if
any does. Under the table it prints both sides' ``code_size`` from
``tools/bench_pairs.py`` (src lines, code lines, ``__all__`` names) and,
on one more line, the modules whose code lines changed, neither of which
changes the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIELDS = (
    "vidx_sha256",
    "built_memory_bytes",
    "loaded_memory_bytes",
    "built_results_sha256",
    "loaded_results_sha256",
    "knob_results_sha256",
    "knobs",
    "config",
    "report_sha256",
    "built_grown_sha256",
    "loaded_grown_sha256",
)
K = 10
INTEGER_KNOBS = ("search_k", "nprobe", "ef_search")
KNOB_VALUES = (1, 3)
N_QUERIES = 64
METRICS = ("l2", "ip", "angular", "manhattan")
BLAS_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def results_digest(index, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(repr(index.search(q, K).neighbors).encode())
    return h.hexdigest()


def knob_results_digest(indexes, queries) -> str:
    """sha256 of each index's results with each of its integer query-time
    knobs set to each of KNOB_VALUES; "-" when `search` takes none."""
    taken = [knob for knob in INTEGER_KNOBS if knob in inspect.signature(indexes[0].search).parameters]
    if not taken:
        return "-"
    h = hashlib.sha256()
    for index in indexes:
        for knob in taken:
            for value in KNOB_VALUES:
                for q in queries:
                    h.update(repr(index.search(q, K, **{knob: value}).neighbors).encode())
    return h.hexdigest()


def report_digest(index, emb_set) -> str:
    """sha256 of `index`'s protocol report on `emb_set`, without its timing
    fields and its config (the `config` field shows that)."""
    from annkit.bench import BenchReport, ProtocolConfig, run_protocol

    config = ProtocolConfig(n_queries=min(N_QUERIES, len(emb_set)), k=K, recall_n=K, seed=11)
    report = asdict(run_protocol(index, emb_set, config))
    for name in (*BenchReport.TIMING_FIELDS, "config"):
        del report[name]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def grown_digest(index, vectors) -> str:
    """sha256 of `index`'s VIDX bytes once `vectors` are inserted, ids from
    the largest stored id + 1 on; "-" when the family has no `insert`."""
    from annkit.persist import dump_index

    if not hasattr(index, "insert"):
        return "-"
    first = int(index.ids.max()) + 1
    for i, v in enumerate(vectors):
        index.insert(first + i, v)
    return hashlib.sha256(dump_index(index)).hexdigest()


def knobs(build_keywords, index) -> str:
    """`build(<sorted build keywords>) search(<search keywords after query, k>)`."""
    search = list(inspect.signature(index.search).parameters)[2:]
    return f"build({', '.join(sorted(build_keywords))}) search({', '.join(search)})"


def gaussian_queries(dim: int, n: int) -> np.ndarray:
    return np.random.default_rng(11).standard_normal((n, dim))


def oracle_row(emb_set, query_rows, n_random: int = 16) -> dict:
    """FIELDS of the exact oracle on `emb_set`, queried as `table` queries
    it; see the module docstring."""
    from annkit.flat import exact_search, ground_truth

    queries = [*emb_set.vectors[query_rows], *gaussian_queries(emb_set.dim, n_random)]
    excluded = [*emb_set.ids[query_rows].tolist(), *emb_set.ids[:n_random].tolist()]
    plain, excluding, truth = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for metric in METRICS:
        for q, exclude in zip(queries, excluded):
            plain.update(repr(exact_search(emb_set, q, K, metric).neighbors).encode())
            excluding.update(repr(exact_search(emb_set, q, K, metric, exclude).neighbors).encode())
        truth.update(repr(ground_truth(emb_set, emb_set.ids[query_rows], K, metric)).encode())
    return {
        **dict.fromkeys(FIELDS, "-"),
        "built_results_sha256": plain.hexdigest(),
        "knob_results_sha256": excluding.hexdigest(),
        "report_sha256": truth.hexdigest(),
    }


def table(emb_set, query_rows, n_random: int = 16) -> dict[str, dict]:
    """Family name -> FIELDS, for every FAMILIES row built on `emb_set` and
    queried with its rows `query_rows` and `n_random` Gaussian vectors."""
    from annkit.families import FAMILIES, build_index
    from annkit.persist import dump_index, load_index_bytes

    gauss = gaussian_queries(emb_set.dim, n_random)
    out = {}
    for name, row in FAMILIES.items():
        data = emb_set.normalized() if row.unit else emb_set
        queries = [*data.vectors[query_rows], *gauss]
        built = build_index(data, name, seed=0)
        blob = dump_index(built)
        loaded = load_index_bytes(blob)
        out[name] = {
            "vidx_sha256": hashlib.sha256(blob).hexdigest(),
            "built_memory_bytes": built.memory_bytes(),
            "loaded_memory_bytes": loaded.memory_bytes(),
            "built_results_sha256": results_digest(built, queries),
            "loaded_results_sha256": results_digest(loaded, queries),
            "knob_results_sha256": knob_results_digest([built, loaded], queries),
            "knobs": knobs(row.knobs, built),
            "config": json.dumps(built.config(), sort_keys=True),
            "report_sha256": report_digest(built, data),
            # Last: these grow both indexes.
            "built_grown_sha256": grown_digest(built, queries),
            "loaded_grown_sha256": grown_digest(loaded, queries),
        }
    return out


def acceptance_table() -> dict[str, dict]:
    from annkit.bench import sample_query_rows
    from annkit.data import gen_synthetic

    corpus = gen_synthetic(n_classes=32, per_class=300, dim=64, spread=0.05, seed=7)
    query_rows = sample_query_rows(len(corpus), N_QUERIES, seed=11)
    return {**table(corpus, query_rows), "exact-oracle": oracle_row(corpus, query_rows)}


def side(src: Path) -> dict[str, dict]:
    """`acceptance_table` of the package under `src`, run in its own process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--json"],
        env={**os.environ, **BLAS_ONE_THREAD}, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"identity table for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line per family missing from a side or per field that differs."""
    lines = []
    for name in sorted(set(parent) | set(change)):
        if name not in change or name not in parent:
            lines.append(f"{name}: only in the {'parent' if name in parent else 'change'}")
            continue
        lines += [
            f"{name}: {field} {parent[name][field]} -> {change[name][field]}"
            for field in FIELDS
            if parent[name][field] != change[name][field]
        ]
    return lines


def show(rows: dict[str, dict]) -> str:
    lines = [f"{'family':18s} {'vidx':16s} {'memory built/loaded':>23s}  "
             f"{'results built/loaded':33s}  {'knobs 1, 3':16s}  {'report':16s}  "
             f"{'grown built/loaded':33s}  {'knobs':68s}  config"]
    for name, r in rows.items():
        memory = f"{r['built_memory_bytes']}/{r['loaded_memory_bytes']}"
        results = f"{r['built_results_sha256'][:16]}/{r['loaded_results_sha256'][:16]}"
        grown = f"{r['built_grown_sha256'][:16]}/{r['loaded_grown_sha256'][:16]}"
        lines.append(f"{name:18s} {r['vidx_sha256'][:16]} {memory:>23s}  {results}  "
                     f"{r['knob_results_sha256'][:16]:16s}  {r['report_sha256'][:16]}  "
                     f"{grown:33s}  {r['knobs']:68s}  {r['config']}")
    return "\n".join(lines)


def compare(commit: str, parent: dict[str, dict], change: dict[str, dict], sizes: dict) -> int:
    """Print the change's table, the differences from the parent's, both
    sides' code sizes and the modules whose code lines changed; 1 if any row
    differs, else 0."""
    print(show(change))
    lines = differences(parent, change)
    print(f"\nparent {commit}: ", end="")
    print("\n".join(["differs:", *lines]) if lines else f"all {len(change)} rows identical")
    print("code: " + ", ".join(
        f"{label} {sizes['parent'][key]:,} -> {sizes['change'][key]:,}"
        for label, key in (("src lines", "src_lines"), ("code lines", "src_code_lines"),
                           ("__all__", "all_names"))
    ))
    before, after = (sizes[s]["module_code_lines"] for s in ("parent", "change"))
    moved = [f"{name} {before.get(name, 0):,} -> {after.get(name, 0):,}"
             for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
    if moved:
        print("code lines by module: " + ", ".join(moved))
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare with")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package directory to import")
    parser.add_argument("--json", action="store_true", help="print the table as JSON")
    args = parser.parse_args(argv)

    if args.parent is None:
        sys.path.insert(0, str(args.src.resolve()))
        rows = acceptance_table()
        print(json.dumps(rows) if args.json else show(rows))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import code_size, extract

    with tempfile.TemporaryDirectory(prefix="identity-parent-") as tmp:
        commit = extract(args.parent, Path(tmp))
        parent = side(Path(tmp) / "src")
        sizes = {"parent": code_size(Path(tmp)), "change": code_size(ROOT)}
    return compare(commit, parent, side(ROOT / "src"), sizes)


if __name__ == "__main__":
    sys.exit(main())
