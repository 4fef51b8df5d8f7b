"""Benchmark of the tcgpn pipeline: one workload per process.

    python3 perfbench/run.py --workload accept_pipeline --seed 1 --seconds 16 --trace 0

Builds seeded input files, then times set-up and the pretrain, finetune,
predict and backtest phases through the package's public functions, checks
the outputs, and prints one JSON result as the last line of standard output.
With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
workload runs twice in this process, untraced and then traced, each with half
the time, and the result holds per-layer self times and counts plus the
tracing overhead. Exits 1 if an operation or check failed, 2 if the package
sources are missing.
"""

from __future__ import annotations

import os

# Pinned before numpy loads BLAS: one caller, one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("accept_pipeline", "paper_pretrain", "paper_infer")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the self-test")
    return p.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def metadata(args, shapes: dict) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(), "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "shapes": shapes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcgpn" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC.name}/ of the checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    plan = workloads.plan_for(args.workload, args.smoke)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(plan, args.seed, work)
        input_s = time.perf_counter() - t0
        sizes = {k: os.path.getsize(v) for k, v in vars(inputs).items() if v is not None}
        if args.trace:
            untraced = workloads.Pass(plan, inputs, args.seed, work, args.seconds / 2).execute()
            run = workloads.Pass(plan, inputs, args.seed, work, args.seconds / 2,
                                 tracer=Tracer()).execute()
            passes = [untraced, run]
        else:
            run = workloads.Pass(plan, inputs, args.seed, work, args.seconds).execute()
            passes = [run]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics: dict = {}
    if failed == 0:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = bench["per_layer" if args.trace else "end_to_end"]
        values = run.per_layer(untraced) if args.trace else run.end_to_end()
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "meta": metadata(args, {
            "nodes": plan.nodes, "dates": plan.dates, "model": plan.model,
            "input_bytes": sizes, "input_s": input_s}),
        "facts": run.facts, "failures": [f for p in passes for f in p.failures],
        "peaks_mb": run.peaks, "setup_times_s": run.setup_times,
        "unit_times_s": dict(run.unit_times),
        "raw_rates": {p: run.raw_rate(p) for p in workloads.PHASES},
        "samples": run.samples, "probes": run.probes,
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1))
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent] for s in run.tracer.spans]
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))

    for f in report["failures"]:
        print(f"FAILED: {f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
