"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Checks the self-time arithmetic on a hand-built span tree and the host-speed
adjustment on hand-built samples, then runs every workload shrunk (--smoke) in
both trace modes and checks the result line against BENCHMARK.json, and checks
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S, adjusted_rate, local_reference  # noqa: E402
from spans import Span, Tracer, self_times, summarize, under  # noqa: E402


def _bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


def test_self_time_arithmetic():
    # root 0..10 holds a 1..4 and b 5..9; b holds c 6..7 and d 6.5..8, which overlap.
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0), Span("b", 5.0, 9.0, 0),
             Span("c", 6.0, 7.0, 2), Span("d", 6.5, 8.0, 2)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.5]
    table = summarize(spans + [Span("a", 11.0, 12.0, -1)])
    assert table["a"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert table["root"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert [s.name for s in under(spans, "d", "root")] == ["d"]
    assert under(spans, "a", "b") == []


def test_tracer_records_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    root = tracer.spans[0]
    assert math.isclose(sum(self_times(tracer.spans)), root.end - root.start)


def test_host_speed_adjustment():
    # Samples (work, seconds, end): rates 10, 20, 30. The reference ran at the
    # nominal time near the first sample and at twice it near the other two.
    samples = [(10, 1.0, 1.0), (20, 1.0, 11.0), (60, 2.0, 21.0)]
    probes = [(0.5, NOMINAL_S), (10.5, 2 * NOMINAL_S), (21.5, 2 * NOMINAL_S), (30.0, 9.0)]
    assert list(local_reference(samples, probes)) == [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    assert adjusted_rate(samples, probes, 0.0) == 20.0
    assert adjusted_rate(samples, probes, 1.0) == 40.0
    assert math.isclose(adjusted_rate(samples, probes, 0.5), 20.0 * math.sqrt(2))


def test_smoke_every_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {k: m["unit"] for k, m in result["metrics"].items()} == \
                {m["name"]: m["unit"] for m in bench[key]}, (workload, trace)


def test_same_seed_same_arithmetic():
    facts = []
    for _ in range(2):
        proc = _bench("--workload", "accept_pipeline", "--seed", "5", "--seconds", "1",
                      "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.splitlines()[-2])
        facts.append({k: report["facts"][k] for k in ("final_pretrain_loss", "scores_sha256")})
    assert facts[0] == facts[1]


def test_refuses_without_sources():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "accept_pipeline", "--seed", "1", "--seconds", "1",
                      "--trace", "0", root=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failed else 0)
