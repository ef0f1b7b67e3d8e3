"""Smoke test of the benchmark itself, at a tiny input size.

Usage: python3 perfbench/smoke.py   (from the root of a source checkout)

It checks that the generator is deterministic, that the reference
clock scales time as documented, that every workload
passes the full check path traced and untraced and reports exactly the
metrics BENCHMARK.json names, that per-layer self times plus
``cli.self_s`` add up to the traced wall time with no negative self
time, that a failed stage is counted rather than dropped, and that the
benchmark refuses to run without the package sources.  It takes about
half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import refclock  # noqa: E402
import run  # noqa: E402
from corpus_gen import generate  # noqa: E402
from spans import SELF_TIMES  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_generator() -> None:
    size = run.SIZES["tiny"]
    check(generate(7, size) == generate(7, size), "same seed gives the same corpus")
    check(generate(7, size) != generate(8, size), "another seed gives another corpus")


def test_workloads(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workloads match")
    for name in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny")
            check(proc.returncode == 0, f"{name} trace {trace} exits 0: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])["details"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace} correct: {details['failures']}")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            check(set(metrics) == (layer if trace else e2e), f"{name} trace {trace} metric names")
            if not trace:
                check(all(v > 0 for v in metrics.values()), f"{name}: end-to-end metrics nonzero")
                continue
            total = math.fsum(metrics[m] for m in SELF_TIMES)
            wall = metrics["trace.wall_s"]
            check(abs(total - wall) <= 1e-3 + 0.01 * wall,
                  f"{name}: self times sum to {total}, traced wall is {wall}")
            check(details["trace"]["min_self_s"] >= 0.0, f"{name}: negative self time")
            ctx = metrics["ctxtree.build_s"]
            check((ctx > 0) == (name == "tree-w2"), f"{name}: ctxtree.build_s is {ctx}")


def test_reference_clock() -> None:
    unit = 2 * refclock.REF_UNIT_S  # a host at half the reference speed
    speed = refclock.Speed([(float(t), unit) for t in range(10)])
    check(math.isclose(speed.scaled(0.0, 10.0), 5.0), "scaled time at half speed")
    check(math.isclose(speed.scaled(-2.0, 0.5), 1.25), "time before the first sample")
    check(math.isclose(speed.scaled(3.25, 3.5), 0.125), "time inside one sample")


def test_failure_is_counted() -> None:
    wl = run.WORKLOADS["mix-score"]
    checks = run.Checks()
    crashed = {"stages": [{"name": "ngram_train", "rc": 1, "seconds": 0.1, "stdout": "error"}],
               "peak_rss_mb": 1.0}
    run._check_iteration(crashed, "iter-0", wl, ROOT, {}, checks)
    check(len(checks.failed) == len(wl.timed),
          "a failed stage and the stages it prevented are all counted")


def test_refuses_without_sources(spec_path: Path) -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    proc = bench("--workload", "tree-w2", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark fails and prints no result")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    test_generator()
    test_reference_clock()
    test_failure_is_counted()
    test_refuses_without_sources(spec_path)
    test_workloads(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
