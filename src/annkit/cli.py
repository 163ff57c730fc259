"""Command-line entry point.

Subcommands:
  gen     synthetic labeled set -> VEMB file
  build   VEMB/CSV + family + knobs -> VIDX file
  search  VIDX + (stored id | raw vector) + query-time knobs -> neighbor listing
  truth   VEMB/CSV -> exact nearest-neighbor file (JSON)
  bench   VEMB/CSV + family list (or "all") -> report

All commands exit 0 on success and nonzero with a diagnostic on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .base import search_excluding
from .bench import ProtocolConfig, run_benchmark, write_report
from .data import EmbeddingSet, gen_synthetic, load_csv, load_vemb, save_vemb
from .distances import Metric
from .families import ALL_FAMILIES, FAMILIES, build_index, family
from .flat import ground_truth
from .persist import dump_index, load_index

def _load_any(path: str) -> EmbeddingSet:
    if Path(path).suffix.lower() == ".csv":
        return load_csv(path)
    return load_vemb(path)


def _add_knob_flags(parser: argparse.ArgumentParser) -> None:
    """Family tuning knobs shared by `build` and `bench`."""
    g = parser.add_argument_group("family knobs")
    g.add_argument("--nlist", type=int, help="IVF coarse list count")
    g.add_argument("--nprobe", type=int, help="IVF lists probed per query")
    g.add_argument("--m", type=int, help="PQ subspace count")
    g.add_argument("--nbits", type=int, help="PQ bits per code")
    g.add_argument("--trees", type=int, help="projection-forest tree count")
    g.add_argument("--leaf-size", type=int, help="projection-forest leaf size")
    g.add_argument("--hnsw-m", type=int, help="HNSW links per node")
    g.add_argument("--ef-construction", type=int, help="HNSW build beam width")
    g.add_argument("--ef-search", type=int, help="HNSW query beam width")
    g.add_argument("--lsh-bits", type=int, help="LSH hyperplane count")
    g.add_argument(
        "--no-rerank",
        dest="rerank",
        action="store_const",
        const=False,
        help="LSH: rank by Hamming distance only",
    )


def _flags(dests: list[str]) -> str:
    return ", ".join("--" + dest.replace("_", "-") for dest in dests)


def _family_knobs(args: argparse.Namespace, names: list[str]) -> dict[str, dict]:
    """Each family's knob flags, only where explicitly set; ValueError if a
    flag is set that none of the families takes."""
    rows = [family(name) for name in names]
    taken = {dest for row in rows for dest in row.knobs.values()}
    unused = sorted({dest for row in FAMILIES.values() for dest in row.knobs.values()
                     if dest not in taken and getattr(args, dest) is not None})
    if unused:
        raise ValueError(f"{args.command} --family {','.join(names)} takes no {_flags(unused)}")
    return {row.name: {kw: getattr(args, dest) for kw, dest in row.knobs.items()
                       if getattr(args, dest) is not None} for row in rows}


# The builds that a --seed reaches.
_SEEDED = "pq, ivf, lsh and rpforest builds (flat and hnsw take none)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annkit", description="Approximate nearest-neighbor index toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled embedding set")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.05, help="per-class spread")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="VEMB output path")

    p = sub.add_parser("build", help="build an index over an embedding file")
    p.add_argument("--data", required=True, help="VEMB or CSV input")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--seed", type=int, default=0, help=f"seeds the {_SEEDED}")
    p.add_argument("--out", required=True, help="VIDX output path")
    _add_knob_flags(p)

    p = sub.add_parser("search", help="query a stored index")
    p.add_argument("--index", required=True, help="VIDX input")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--id", type=int, help="query by stored id (excludes itself)")
    p.add_argument("--data", help="embedding file, required with --id")
    p.add_argument("--vector", help="comma-separated query components")
    p.add_argument("--out", help="write neighbors as JSON instead of stdout")
    g = p.add_argument_group("query-time knobs (each only for the families whose search takes it)")
    g.add_argument("--search-k", type=int, help="projection forest: leaves inspected")
    g.add_argument("--nprobe", type=int, help="IVF: lists probed")
    g.add_argument("--ef-search", type=int, help="HNSW: query beam width")
    g.add_argument("--rerank", action=argparse.BooleanOptionalAction,
                   help="LSH: re-rank the Hamming pool by exact L2")

    p = sub.add_parser("truth", help="exact nearest neighbors for stored ids")
    p.add_argument("--data", required=True, help="VEMB or CSV input")
    p.add_argument("--k", type=int, default=5, help="neighbors per query")
    p.add_argument("--metric", choices=[m.value for m in Metric], default=Metric.L2.value)
    p.add_argument(
        "--id", type=int, action="append", help="query id (repeatable; default: all)"
    )
    p.add_argument("--out", help="write the id->neighbors map as JSON")

    p = sub.add_parser("bench", help="run the benchmark protocol")
    p.add_argument("--data", required=True, help="VEMB or CSV input")
    p.add_argument(
        "--family",
        action="append",
        default=None,
        help='family to benchmark (repeatable, comma-separable, or "all")',
    )
    p.add_argument("--queries", type=int, help="query count (default min(1000, n))")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--recall-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help=f"seeds the query sample and the {_SEEDED}")
    p.add_argument("--out", help="report output path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_knob_flags(p)
    return parser


def _cmd_gen(args) -> int:
    emb_set = gen_synthetic(args.classes, args.per_class, args.dim, args.noise, args.seed)
    save_vemb(emb_set, args.out)
    print(f"wrote {args.out}: {len(emb_set)} vectors, dim {emb_set.dim}")
    return 0


def _cmd_build(args) -> int:
    knobs = _family_knobs(args, [args.family])[args.family]
    emb_set = _load_any(args.data)
    index = build_index(emb_set, args.family, seed=args.seed, **knobs)
    blob = dump_index(index)
    Path(args.out).write_bytes(blob)
    print(f"wrote {args.out}: {index.family}, {len(index)} vectors, {len(blob)} bytes")
    return 0


def _print_neighbors(result, out: str | None) -> None:
    pairs = [[nid, score] for nid, score in result.neighbors]
    if out:
        Path(out).write_text(json.dumps(pairs, indent=2) + "\n")
    else:
        for nid, score in pairs:
            print(f"{nid}\t{score:.6f}")


_SEARCH_KNOBS = ("search_k", "nprobe", "ef_search", "rerank")


def _search_knobs(args: argparse.Namespace, index) -> dict:
    """The query-time knobs set on the command line; ValueError if the
    index's `search` does not take one of them."""
    knobs = {kw: getattr(args, kw) for kw in _SEARCH_KNOBS if getattr(args, kw) is not None}
    unknown = [kw for kw in knobs if kw not in inspect.signature(index.search).parameters]
    if unknown:
        raise ValueError(f"{index.family} search takes no {_flags(unknown)}")
    return knobs


def _cmd_search(args) -> int:
    index = load_index(args.index)
    if (args.id is None) == (args.vector is None):
        raise ValueError("provide exactly one of --id or --vector")
    knobs = _search_knobs(args, index)
    if args.id is not None:
        if not args.data:
            raise ValueError("--id requires --data to resolve the query vector")
        emb_set = _load_any(args.data)
        query = emb_set.vector_of(args.id)
        result = search_excluding(index, query, args.k, args.id, **knobs)
    else:
        query = np.array([float(x) for x in args.vector.split(",")], dtype=np.float32)
        result = index.search(query, args.k, **knobs)
    _print_neighbors(result, args.out)
    return 0


def _cmd_truth(args) -> int:
    emb_set = _load_any(args.data)
    ids = args.id or emb_set.ids  # uncast: ground_truth's KeyError names any id the set lacks
    table = ground_truth(emb_set, ids, args.k, Metric(args.metric))
    payload = {str(qid): table[int(qid)] for qid in ids}
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _expand_families(raw: list[str] | None) -> list[str]:
    if not raw:
        return list(ALL_FAMILIES)
    names: list[str] = []
    for item in raw:
        names.extend(part.strip() for part in item.split(",") if part.strip())
    if names == ["all"]:
        return list(ALL_FAMILIES)
    return names


def _cmd_bench(args) -> int:
    families = _expand_families(args.family)
    params = _family_knobs(args, families)
    emb_set = _load_any(args.data)
    n_queries = args.queries if args.queries is not None else min(1000, len(emb_set))
    config = ProtocolConfig(
        n_queries=n_queries,
        k=args.k,
        recall_n=args.recall_n,
        seed=args.seed,
        params=params,
    )
    reports = run_benchmark(
        emb_set, families, config, progress=lambda msg: print(msg, file=sys.stderr)
    )
    if args.out:
        write_report(reports, args.out, fmt=args.format)
        print(f"wrote {args.out}: {len(reports)} report rows")
    else:
        recall = f"recall@{args.recall_n}"
        header = f"{'family':<20} {recall:>9} {'f1':>7} {'p@k':>7} {'us/query':>10} {'qps':>10}"
        print(header)
        for r in reports:
            print(
                f"{r.family:<20} {r.recall_at_n:>9.4f} {r.f1:>7.4f} "
                f"{r.precision_at_k:>7.4f} {r.avg_query_time_us:>10.1f} {r.qps:>10.1f}"
            )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "search": _cmd_search,
    "truth": _cmd_truth,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/diagnostic
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
