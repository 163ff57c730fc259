"""Command-line entry point.

Subcommands:
  gen     synthetic labeled set -> VEMB file
  build   VEMB/CSV + family + knobs -> VIDX file
  search  VIDX + (stored id | raw vector) -> neighbor listing
  truth   VEMB/CSV -> exact nearest-neighbor file (JSON)
  bench   VEMB/CSV + family list (or "all") -> report

All commands exit 0 on success and nonzero with a diagnostic on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import ProtocolConfig, run_benchmark, search_excluding, write_report
from .data import EmbeddingSet, gen_synthetic, load_csv, load_vemb, save_vemb
from .distances import Metric
from .families import ALL_FAMILIES, FAMILIES, build_index, family
from .flat import ground_truth
from .persist import load_index, save_index

_METRIC_CHOICES = [m.value for m in Metric]


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
    g.add_argument("--search-k", type=int, help="projection-forest candidate budget")
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


def _knobs(args: argparse.Namespace, name: str) -> dict:
    """The knob flags that apply to one family, only where explicitly set."""
    knobs = {kw: getattr(args, dest) for kw, dest in family(name).knobs.items()}
    return {kw: value for kw, value in knobs.items() if value is not None}


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
    p.add_argument("--metric", choices=_METRIC_CHOICES, help="rpforest metric")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="VIDX output path")
    _add_knob_flags(p)

    p = sub.add_parser("search", help="query a stored index")
    p.add_argument("--index", required=True, help="VIDX input")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--id", type=int, help="query by stored id (excludes itself)")
    p.add_argument("--data", help="embedding file, required with --id")
    p.add_argument("--vector", help="comma-separated query components")
    p.add_argument("--out", help="write neighbors as JSON instead of stdout")

    p = sub.add_parser("truth", help="exact nearest neighbors for stored ids")
    p.add_argument("--data", required=True, help="VEMB or CSV input")
    p.add_argument("--k", type=int, default=5, help="neighbors per query")
    p.add_argument("--metric", choices=_METRIC_CHOICES, default=Metric.L2.value)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=_METRIC_CHOICES, help="rpforest metric")
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
    emb_set = _load_any(args.data)
    index = build_index(emb_set, args.family, seed=args.seed, **_knobs(args, args.family))
    save_index(index, args.out)
    size = Path(args.out).stat().st_size
    print(f"wrote {args.out}: {index.label}, {len(index)} vectors, {size} bytes")
    return 0


def _print_neighbors(result, out: str | None) -> None:
    pairs = [[nid, score] for nid, score in result.neighbors]
    if out:
        Path(out).write_text(json.dumps(pairs, indent=2) + "\n")
    else:
        for nid, score in pairs:
            print(f"{nid}\t{score:.6f}")


def _cmd_search(args) -> int:
    index = load_index(args.index)
    if (args.id is None) == (args.vector is None):
        raise ValueError("provide exactly one of --id or --vector")
    if args.id is not None:
        if not args.data:
            raise ValueError("--id requires --data to resolve the query vector")
        emb_set = _load_any(args.data)
        query = emb_set.vector_of(args.id)
        result = search_excluding(index, query, args.k, args.id)
    else:
        query = np.array([float(x) for x in args.vector.split(",")], dtype=np.float32)
        result = index.search(query, args.k)
    _print_neighbors(result, args.out)
    return 0


def _cmd_truth(args) -> int:
    emb_set = _load_any(args.data)
    ids = np.array(args.id, dtype=np.uint64) if args.id else emb_set.ids
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
    emb_set = _load_any(args.data)
    families = _expand_families(args.family)
    n_queries = args.queries if args.queries is not None else min(1000, len(emb_set))
    config = ProtocolConfig(
        n_queries=n_queries,
        k=args.k,
        recall_n=args.recall_n,
        seed=args.seed,
        params={fam: _knobs(args, fam) for fam in families},
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
                f"{r.family:<20} {r.recall_at_5:>9.4f} {r.f1:>7.4f} "
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
