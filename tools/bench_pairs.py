"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs scan=3101-3110 \\
        --pairs quantize=3111-3113 --trace scan=3120 --out BENCH_6.json

The parent side is the committed tree of ``--parent``, extracted with
``git archive`` into a temporary directory. The change side is this
checkout's working tree, extracted the same way from a ``git stash create``
snapshot (``snapshot``; HEAD when no tracked file differs from it), so both
sides are trees of the same kind; untracked files are not in it, so ``git
add`` new ones first. The output's ``change`` names the extracted commit.
Both sides run the command and run length that BENCHMARK.json declares, one
after the other, and which side runs first alternates from pair to pair. The
output holds every run (metrics, the ``raw_*`` figures perfbench prints
beside them, per-family rows) and, per workload and metric, both sides'
quartiles, the ratio of medians, the parent's interquartile range, how many
pairs the change won and ``claim_rule_met``: the change won at least 9 in 10
of at least 10 pairs (a tie is no win) and its median beats the parent's by
more than the parent's interquartile range. Each end-to-end metric (and its
``raw_*`` twin) also carries its ``bound`` from BENCHMARK.json and
``regression``, the no-regression rule: ``"worse"`` when the change's median is worse than the
parent's by more than ``bound`` of the parent's median; ``"unresolved"``
when the parent's interquartile range exceeds ``bound`` of its median and
not every change run beats every parent run; ``"none"`` otherwise. perfbench's
``insert_p50_us`` and ``insert_p99_us`` extras (graph-churn's insert latency)
are compared too, lower being better, without a bound: they are not end-to-end
metrics. Beside them, ``families`` gives the same comparison of each family's
raw (wall clock, not normalized) ``build_s``, ``query_p50_us`` and ``load_ms``
and its ``resident_bytes``, so a claim shows which family moved: a ``setup_s``
claim, for one, shows each family's build.
``--control N`` adds, per workload, N control pairs that run the parent
against a second ``git archive`` extraction of itself, spread among the real
pairs (``pair_plan``) and stored under ``control``; real and control pairs
each alternate their first side on their own. Each compared metric then
carries ``control``: the control's ratio of medians and the range of its
per-pair ratios, the spread that two sides of identical code show; and
``claim_rule_met`` also requires the change's ratio of medians to lie outside
that range.
``--trace`` adds one traced pair whose per-layer metrics are stored side by
side. ``code`` gives each side's src line count (``src/annkit/*.py``), the
part of it that is code (``src_code_lines``: not blank, not comment-only, not
in a module, class or function docstring), those code lines per module
(``module_code_lines``) and the number of names in ``annkit.__all__``.
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
import tokenize
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


def snapshot(root: Path = ROOT) -> str:
    """A commit holding the tracked files of `root`'s working tree and index,
    made by ``git stash create``, which changes neither; HEAD when none of
    them differs from it."""
    stash = subprocess.run(["git", "stash", "create"], cwd=root, check=True,
                           capture_output=True, text=True).stdout.strip()
    return stash or "HEAD"


# Tokens that make no line code: comments, line ends and indentation.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token of code, less the lines of every
    module, class and function docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def code_size(tree: Path) -> dict:
    """Lines in src/annkit/*.py (as `wc -l` counts them), those of them that
    are code (`code_lines`), in all and by module file name, and
    len(annkit.__all__)."""
    package = tree / "src" / "annkit"
    paths = sorted(package.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    modules = {path.name: code_lines(path.read_text()) for path in paths}
    init = ast.parse((package / "__init__.py").read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__"
    )
    return {"src_lines": lines, "src_code_lines": sum(modules.values()), "all_names": len(names),
            "module_code_lines": modules}


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


def run_pair(trees: dict, bench: dict, workload: str, seed: int, parent_first: bool, trace=False,
             label=""):
    order = SIDES if parent_first else SIDES[::-1]
    out = {"seed": seed, "first": order[0]}
    for side in order:
        traced = " traced" if trace else ""
        print(f"{workload} seed {seed} {label}{side}{traced}", file=sys.stderr, flush=True)
        out[side] = run_once(trees[side], bench, workload, seed, trace)
    return out


def pair_plan(seeds: list[int], control: int) -> list[tuple[str, int]]:
    """The order of one workload's pairs: ("change", seed) for each seed and
    `control` ("control", seed) pairs spread evenly among them, each after
    the real pair whose seed it reuses."""
    after = [max((i + 1) * len(seeds) // (control + 1) - 1, 0) for i in range(control)]
    plan = []
    for at, seed in enumerate(seeds):
        plan.append(("change", seed))
        plan += [("control", seed)] * after.count(at)
    return plan


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


# perfbench extras compared beside the end-to-end metrics, with no bound.
EXTRAS = {"insert_p50_us": "lower", "insert_p99_us": "lower"}
CLAIM_PAIRS = 10  # fewest pairs that can back a claim; the change must win 9 in 10
FAMILY_METRICS = ("build_s", "query_p50_us", "load_ms", "resident_bytes")  # raw; lower is better


def compare(parent: list[float], change: list[float], direction: str,
            bound: float | None = None, control: tuple[list, list] = ([], [])) -> dict:
    """Quartiles of each side, ratio of medians, parent IQR, wins, the claim
    rule and, given the metric's bound, the no-regression verdict of the
    module docstring; given the (parent, control) values of control pairs,
    their ratio of medians and per-pair ratio range, outside which the
    change's ratio must lie for the claim rule."""
    wins = sum(c < p if direction == "lower" else c > p for p, c in zip(parent, change))
    stats = {"parent": quartiles(parent), "change": quartiles(change)}
    base = stats["parent"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    gain = base - stats["change"]["median"]
    if direction != "lower":
        gain = -gain
    row = {
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
    if bound is not None:
        scale = bound * abs(base)
        clear = max(change) < min(parent) if direction == "lower" else min(change) > max(parent)
        row["bound"] = bound
        row["regression"] = ("worse" if -gain > scale
                             else "unresolved" if iqr > scale and not clear else "none")
    if control[0]:
        ratios = [c / p for p, c in zip(*control) if p]
        low, high = (min(ratios), max(ratios)) if ratios else (None, None)
        control_base = statistics.median(control[0])
        row["control"] = {
            "pairs": len(control[0]),
            "change_over_parent": statistics.median(control[1]) / control_base if control_base else None,
            "pair_ratio_range": [low, high],
        }
        ratio = row["change_over_parent"]
        row["claim_rule_met"] = (row["claim_rule_met"] and ratio is not None and low is not None
                                 and not low <= ratio <= high)
    return row


def _sides(pairs: list[dict], name: str) -> tuple[list, list]:
    """Metric (or extra) `name` of each pair whose two sides both report it."""
    values = {side: [] for side in SIDES}
    for pair in pairs:
        p, c = (pair[side]["metrics"].get(name, pair[side]["extras"].get(name)) for side in SIDES)
        if p is not None and c is not None:
            values["parent"].append(p)
            values["change"].append(c)
    return values["parent"], values["change"]


def summarise(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None, control: list[dict] = ()) -> dict:
    """`compare` for every metric in `better` that both sides of a pair report,
    with its bound where `bounds` names one and the `control` pairs' values."""
    bounds = bounds or {}
    table = {}
    for name, direction in better.items():
        parent, change = _sides(pairs, name)
        if parent:
            table[name] = compare(parent, change, direction, bounds.get(name), _sides(control, name))
    return table


def summarise_families(pairs: list[dict], control: list[dict] = ()) -> dict:
    """`compare` for each family's raw FAMILY_METRICS, with the `control` pairs' values."""
    def values(runs, fam, name):
        return tuple([pair[side]["families"][fam][name] for pair in runs] for side in SIDES)

    return {
        fam: {
            name: compare(*values(pairs, fam, name), "lower", control=values(control, fam, name))
            for name in FAMILY_METRICS
        }
        for fam in pairs[0]["parent"]["families"]
    }


def directions(bench: dict) -> tuple[dict[str, str], dict[str, float]]:
    """Which way is better for every metric `summarise` compares, and the
    bound of each end-to-end metric of `bench` (BENCHMARK.json) and of its
    ``raw_*`` twin; EXTRAS get none."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in ("setup_s", "query_p50_us", "qps", "load_ms"):
        better[f"raw_{name}"], bounds[f"raw_{name}"] = better[name], bounds[name]
    return {**better, **EXTRAS}, bounds


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition("=")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", action="append", type=seed_range, default=[],
                        metavar="WORKLOAD=FIRST-LAST", help="one pair per seed in the range")
    parser.add_argument("--control", type=int, default=0, metavar="N",
                        help="per workload, N pairs of the parent against a second extraction of itself")
    parser.add_argument("--trace", action="append", type=seed_range, default=[],
                        metavar="WORKLOAD=SEED", help="one traced pair")
    parser.add_argument("--what", default="", help="one line on the change being measured")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better, bounds = directions(bench)
    with (tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp,
          tempfile.TemporaryDirectory(prefix="bench-control-") as control_tmp):
        trees = {"parent": Path(tmp), "change": Path(change_tmp)}
        control_trees = {"parent": Path(tmp), "change": Path(control_tmp)}
        commit = extract(args.parent, trees["parent"])
        change = extract(snapshot(), trees["change"])
        if args.control:
            extract(args.parent, control_trees["change"])
        result = {
            "what": args.what,
            "command": " ".join(bench["command"]) + " --workload <workload> --seed <seed>"
                       f" --seconds {bench['run_seconds']} --trace <0|1>",
            "parent_commit": commit,
            "change": change,
            "pairs_note": "alternating parent/change pairs; 'first' names the side that ran first;"
                          " in a control pair the change side is a second extraction of the parent",
            "code": {side: code_size(trees[side]) for side in SIDES},
            "summary": {},
            "traced": {},
            "pairs": {},
            "control": {},
        }
        n = {"change": 0, "control": 0}  # real and control pairs each alternate their first side
        for workload, seeds in args.pairs:
            for kind, seed in pair_plan(seeds, args.control):
                control = kind == "control"
                pair = run_pair(control_trees if control else trees, bench, workload, seed,
                                n[kind] % 2 == 0, label="control " if control else "")
                result["control" if control else "pairs"].setdefault(workload, []).append(pair)
                n[kind] += 1
        for workload, seeds in args.trace:
            for seed in seeds:
                pair = run_pair(trees, bench, workload, seed, n["change"] % 2 == 0, trace=True)
                n["change"] += 1
                result["traced"][f"{workload}-{seed}"] = {
                    "first": pair["first"],
                    **{side: pair[side]["metrics"] for side in SIDES},
                }
    for workload, runs in result["pairs"].items():
        control = result["control"].get(workload, [])
        result["summary"][workload] = {
            "failed_ops": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
            "all_correct": all(r[side]["correct"] for r in runs + control for side in SIDES),
            **summarise(runs, better, bounds, control),
            "families": summarise_families(runs, control),
        }
    if result["pairs"]:
        result["env"] = next(iter(result["pairs"].values()))[0]["change"]["env"]
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
