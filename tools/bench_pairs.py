"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs scan=3101-3110 \\
        --pairs quantize=3111-3113 --trace scan=3120 --out BENCH_6.json

The parent side is the committed tree of ``--parent``, extracted with
``git archive`` into a temporary directory; the change side is this
checkout's working tree. Both run the command and run length that
BENCHMARK.json declares, one after the other, and which side runs first
alternates from pair to pair. The output holds every run (metrics, the
``raw_*`` figures perfbench prints beside them, per-family rows) and, per
workload and metric, both sides' quartiles, the ratio of medians, the
parent's interquartile range, how many pairs the change won and
``claim_rule_met``: the change won at least 9 in 10 of at least 10 pairs (a
tie is no win) and its median beats the parent's by more than the parent's
interquartile range. Beside them, ``families`` gives the same comparison of
each family's raw (wall clock, not normalized) ``build_s``, ``query_p50_us``
and ``load_ms`` and its ``resident_bytes``, so a claim shows which family
moved: a ``setup_s`` claim, for one, shows each family's build.
``--trace`` adds one traced pair whose per-layer metrics are stored side by
side. ``code`` gives each side's src line count (``src/annkit/*.py``) and
the number of names in ``annkit.__all__``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into `dest`; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    blob = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def code_size(tree: Path) -> dict:
    """Lines in src/annkit/*.py (as `wc -l` counts them) and len(annkit.__all__)."""
    package = tree / "src" / "annkit"
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    init = ast.parse((package / "__init__.py").read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__"
    )
    return {"src_lines": lines, "all_names": len(names)}


def run_once(tree: Path, bench: dict, workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run in `tree`; the report perfbench wrote, plus its exit code."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    report_path = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    if not report_path.exists():
        sys.exit(f"{' '.join(cmd)} in {tree} wrote no report:\n{proc.stdout}\n{proc.stderr}")
    report = json.loads(report_path.read_text())
    return {
        "exit_code": proc.returncode,
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "extras": {name: value for name, (value, _unit) in report["extras"].items()},
        "families": report["families"],
        "env": report["env"],
    }


def run_pair(trees: dict, bench: dict, workload: str, seed: int, parent_first: bool, trace=False):
    order = SIDES if parent_first else SIDES[::-1]
    out = {"seed": seed, "first": order[0]}
    for side in order:
        print(f"{workload} seed {seed} {side}{' traced' if trace else ''}", file=sys.stderr, flush=True)
        out[side] = run_once(trees[side], bench, workload, seed, trace)
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


CLAIM_PAIRS = 10  # fewest pairs that can back a claim; the change must win 9 in 10
FAMILY_METRICS = ("build_s", "query_p50_us", "load_ms", "resident_bytes")  # raw; lower is better


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    """Quartiles of each side, ratio of medians, parent IQR, wins and the claim rule."""
    wins = sum(c < p if direction == "lower" else c > p for p, c in zip(parent, change))
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    base = stats["parent"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    gain = base - stats["change"]["median"]
    if direction != "lower":
        gain = -gain
    return {
        "better": direction,
        "pairs": len(parent),
        "change_wins": wins,
        "equal_pairs": sum(c == p for p, c in zip(parent, change)),
        **stats,
        "change_over_parent": stats["change"]["median"] / base if base else None,
        "parent_iqr": iqr,
        "claim_rule_met": len(parent) >= CLAIM_PAIRS
        and 10 * wins >= 9 * len(parent)
        and gain > iqr,
    }


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """`compare` for every metric in `better` that both sides of a pair report."""
    table = {}
    for name, direction in better.items():
        values = {side: [] for side in SIDES}
        for pair in pairs:
            p, c = (pair[side]["metrics"].get(name, pair[side]["extras"].get(name)) for side in SIDES)
            if p is None or c is None:
                continue
            values["parent"].append(p)
            values["change"].append(c)
        if values["parent"]:
            table[name] = compare(values["parent"], values["change"], direction)
    return table


def summarise_families(pairs: list[dict]) -> dict:
    """`compare` for each family's raw FAMILY_METRICS."""
    return {
        fam: {
            name: compare(
                *([pair[side]["families"][fam][name] for pair in pairs] for side in SIDES),
                "lower",
            )
            for name in FAMILY_METRICS
        }
        for fam in pairs[0]["parent"]["families"]
    }


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition("=")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", action="append", type=seed_range, default=[],
                        metavar="WORKLOAD=FIRST-LAST", help="one pair per seed in the range")
    parser.add_argument("--trace", action="append", type=seed_range, default=[],
                        metavar="WORKLOAD=SEED", help="one traced pair")
    parser.add_argument("--what", default="", help="one line on the change being measured")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update({f"raw_{name}": d for name, d in better.items()
                   if name in ("setup_s", "query_p50_us", "qps", "load_ms")})
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        commit = extract(args.parent, trees["parent"])
        result = {
            "what": args.what,
            "command": " ".join(bench["command"]) + " --workload <workload> --seed <seed>"
                       f" --seconds {bench['run_seconds']} --trace <0|1>",
            "parent_commit": commit,
            "change": "working tree of the checkout",
            "pairs_note": "alternating parent/change pairs; 'first' names the side that ran first",
            "code": {side: code_size(trees[side]) for side in SIDES},
            "summary": {},
            "traced": {},
            "pairs": {},
        }
        n = 0
        for workload, seeds in args.pairs:
            runs = result["pairs"].setdefault(workload, [])
            for seed in seeds:
                runs.append(run_pair(trees, bench, workload, seed, n % 2 == 0))
                n += 1
        for workload, seeds in args.trace:
            for seed in seeds:
                pair = run_pair(trees, bench, workload, seed, n % 2 == 0, trace=True)
                n += 1
                result["traced"][f"{workload}-{seed}"] = {
                    "first": pair["first"],
                    **{side: pair[side]["metrics"] for side in SIDES},
                }
    for workload, runs in result["pairs"].items():
        result["summary"][workload] = {
            "failed_ops": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
            "all_correct": all(r[side]["correct"] for r in runs for side in SIDES),
            **summarise(runs, better),
            "families": summarise_families(runs),
        }
    if result["pairs"]:
        result["env"] = next(iter(result["pairs"].values()))[0]["change"]["env"]
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
