"""Run one benchmark workload against the annkit sources of this checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 5 --trace 0

Prints an environment stamp, a per-family table and every metric by name and
unit; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The full report, and
with ``--trace 1`` every recorded span, is written under ``perfbench/out/``.
Exits 1 when an output check fails or the sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("scan", "quantize", "graph-churn")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and import annkit from this checkout's sources.

    One client thread drives every workload, so one BLAS thread keeps the
    measurement to one core of the two-core target and away from thread
    scheduling noise. Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import annkit
    except ImportError as exc:
        sys.exit(f"cannot import annkit from {src}: {exc}")
    if not Path(annkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"annkit was imported from {annkit.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        raise SystemExit(f"BLAS runs {threads} threads on {nproc} CPUs")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "git_rev": git_rev(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "client_threads": 1,
        "loop": "closed",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, shape=None) -> dict:
    """Run a workload and compute its report: metrics, per-family rows, checks."""
    import metrics
    from workloads import run_workload

    out = run_workload(workload, seed, seconds, trace, shape)
    fams = metrics.families(out)
    if trace:
        values, units = metrics.per_layer(out, fams), metrics.per_layer_units()
        extras = {}
    else:
        raw = metrics.end_to_end(out, fams)
        values, units = metrics.at_nominal_speed(raw, out), metrics.END_TO_END
        extras = metrics.extras(out, raw)
    return {
        "correct": not out.run.errors,
        "attempted": out.run.attempted,
        "failed": out.run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "extras": extras,
        "families": fams,
        "setup_s_reps": [ns / 1e9 for ns in out.setup_ns],
        "errors": out.run.errors,
        "failures": out.run.failures,
        "spans": out.tracer.dump() if trace else None,
    }


def print_report(report: dict, env: dict) -> None:
    print("env " + json.dumps(env))
    cols = ("build_s", "searches", "query_p50_us", "query_p99_us", "qps", "load_ms",
            "vidx_bytes", "resident_bytes", "memory_bytes_reported")
    print(f"{'family':18s}" + "".join(f"{c:>22s}" for c in cols))
    for fam, row in report["families"].items():
        print(f"{fam:18s}" + "".join(f"{row[c]:>22.6g}" for c in cols))
    for name, m in report["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report["extras"].items():
        print(f"metric {name} {value:.6g} {unit}")
    for line in report["failures"]:
        print("failed op: " + line)
    for line in report["errors"]:
        print("CHECK FAILED: " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    env = env_stamp(args.workload, args.seed, bool(args.trace))
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, env)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"env": env, **report}, indent=1))
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))

    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
