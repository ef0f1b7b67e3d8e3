"""Pipeline benchmark for clusterlm.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing outside it is read or written
(scratch files go to ``.bench_out/``).

Each workload is a closed loop: one process runs one CLI stage at a time
through ``clusterlm.cli.main``, so every stage parses its arguments,
reads and writes its files and runs its checks as a user's run does.

The run pins itself, and so every process it starts, to one CPU, next
to a reference sampler (see ``refclock.py``).  Times reported as
end-to-end metrics are wall times scaled to reference speed, which
takes out most of the host's own speed changes; the raw wall times are
in the details line.

1. Set-up, timed as ``setup_s``: the seeded corpus is generated and the
   workload's untimed prerequisite artifacts are built.  It is repeated
   at least ``SETUP_REPEATS`` times and, up to ``SETUP_MAX_REPEATS``,
   until ``SETUP_MIN_SECONDS`` have passed; the median is reported and
   every repeat must produce byte-identical files.
2. Timed stages, reported as ``scaled_wall_s``: each iteration runs in a
   fresh child process that did not run the set-up, so its peak RSS is
   the memory of the timed stages only.  Iterations repeat while the
   next one is expected to end within ``--seconds``, at least
   ``MIN_ITERATIONS`` times; medians are reported and every iteration
   must print and write identical bytes.
3. With ``--trace 1`` one more iteration runs with every public call of
   every module wrapped in a span (see ``spans.py``); the per-layer
   metrics come from it (raw wall times), and its wall time minus the
   untraced median is the tracing overhead.

Outputs are checked (exit codes, reload of the clustering, which
re-checks the stored criterion, finite perplexities of at least 1,
sizes against an independent count of the generated text, identical
bytes across repeats).  A failed check marks its stage as failed.  The
last line of standard output is the result object; the line before it
holds the details: environment, kernel path, input sizes, quality
values and per-iteration times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from corpus_gen import CorpusSize, generate, input_sizes  # noqa: E402
from refclock import Sampler  # noqa: E402

ALLOWED_CPUS = sorted(os.sched_getaffinity(0))  # before the run pins itself to one

SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 10
MIN_ITERATIONS = 2
# stop starting iterations once this much of the run is used, so a run
# always ends well inside the 180 s limit
TIME_BUDGET_S = 120.0

SIZES = {
    "full": CorpusSize(train_tokens=190_000, heldout_tokens=30_000, test_tokens=30_000),
    "tiny": CorpusSize(train_tokens=4_000, heldout_tokens=600, test_tokens=600),
}
CONTEXT_SPECS = {"w:-1": 1, "w:-2,w:-1": 2}

S = "../setup-0/"  # set-up artifacts, seen from an iteration directory


def _vocab(corpus: str) -> list[str]:
    return ["vocab_build", "vocab", "build", "--corpus", corpus, "--out", "vocab.txt"]


def _counts(corpus: str, vocab: str, spec: str) -> list[str]:
    return ["counts_collect", "counts", "collect", "--corpus", corpus, "--vocab", vocab,
            "--context", spec, "--out", "counts.txt"]


def _cluster(vocab: str, *extra: str) -> list[str]:
    return ["cluster_run", "cluster", "run", "--counts", "counts.txt",
            "--states", "200", "--categories", "100", *extra,
            "--out", "clustering.txt", "--model-out", "classlm.txt", "--vocab", vocab]


@dataclass(frozen=True)
class Workload:
    why: str
    setup: tuple  # untimed prerequisite stages, run in the set-up directory
    timed: tuple  # timed stages, run in an iteration directory
    clustering: str  # clustering file whose criterion is reported


WORKLOADS = {
    "tree-w2": Workload(
        why="suffix-tree exchange clustering over ~120k mostly rare two-word contexts",
        setup=(),
        timed=(
            _vocab(S + "train.txt"),
            _counts(S + "train.txt", "vocab.txt", "w:-2,w:-1"),
            _cluster("vocab.txt", "--tree", "--min-count", "6"),
        ),
        clustering="clustering.txt",
    ),
    "flat-w1": Workload(
        why="flat clustering over ~4.8k dense one-word contexts; kernel-bound, no suffix tree",
        setup=(_vocab("train.txt"),),
        timed=(
            _counts(S + "train.txt", S + "vocab.txt", "w:-1"),
            ["cluster_run", "cluster", "run", "--counts", "counts.txt",
             "--states", "300", "--categories", "300", "--out", "clustering.txt"],
        ),
        clustering="clustering.txt",
    ),
    "mix-score": Workload(
        why="backoff training, mixture load, EM tuning and scoring; no clustering sweep",
        setup=(
            _vocab("train.txt"),
            _counts("train.txt", "vocab.txt", "w:-2,w:-1"),
            # a quick flat clustering: what the timed stages pay for loading
            # and scoring depends on the counts, not on how the classes
            # were found or how far they converged
            _cluster("vocab.txt", "--min-count", "200", "--max-iterations", "1"),
        ),
        timed=(
            ["ngram_train", "ngram", "train", "--corpus", S + "train.txt",
             "--vocab", S + "vocab.txt", "--order", "3", "--out", "ngram.txt"],
            ["interp_tune", "interp", "tune", "--models", S + "classlm.txt", "ngram.txt",
             "--heldout", S + "heldout.txt", "--vocab", S + "vocab.txt", "--out", "mix.txt"],
            ["eval_ppl", "eval", "ppl", "--model", "mix.txt", "--test", S + "test.txt",
             "--vocab", S + "vocab.txt", "--report", "report.txt"],
        ),
        clustering=S + "clustering.txt",
    ),
}

OUTPUT_FLAGS = ("--out", "--model-out", "--report")


def _outputs(stage: list[str]) -> list[str]:
    return [stage[i + 1] for i, a in enumerate(stage) if a in OUTPUT_FLAGS]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Checks:
    """Failed operations, keyed by (repeat, stage), with reasons."""

    def __init__(self):
        self.failed: dict[tuple[str, str], str] = {}

    def fail(self, where: str, stage: str, why: str) -> None:
        self.failed.setdefault((where, stage), why)

    def expect(self, ok: bool, where: str, stage: str, why: str) -> None:
        if not ok:
            self.fail(where, stage, why)


def _setup(seed: int, size: CorpusSize, wl: Workload, out: Path, checks: Checks, cli, stages):
    """One set-up repeat into ``out``; returns (start, end, splits)."""
    start = time.perf_counter()
    out.mkdir(parents=True)
    splits = generate(seed, size)
    for split, lines in splits.items():
        (out / f"{split}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        done = stages.run_stages(cli, [list(s) for s in wl.setup])
    finally:
        os.chdir(cwd)
    end = time.perf_counter()
    for st in done:
        checks.expect(st["rc"] == 0, out.name, st["name"], f"exit code {st['rc']}: {st['stdout'][-500:]}")
    for st in wl.setup[len(done):]:
        checks.fail(out.name, st[0], "not run after an earlier failure")
    return start, end, splits


def _iteration(run_dir: Path, name: str, wl: Workload, trace: bool, run_id: str) -> dict:
    """Timed stages in a fresh process; returns its result object."""
    cwd = run_dir / name
    cwd.mkdir()
    plan = {
        "src": str(SRC),
        "cwd": str(cwd),
        "trace": int(trace),
        "run_id": run_id,
        "spans": str(OUT / "results" / f"{run_id}.spans.jsonl"),
        "stages": [list(s) for s in wl.timed],
    }
    plan_path = run_dir / f"{name}.plan.json"
    result_path = run_dir / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "stages.py"), str(plan_path), str(result_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0 or not result_path.exists():
        return {"stages": [], "peak_rss_mb": 0.0, "error": proc.stdout[-2000:]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check_iteration(it: dict, name: str, wl: Workload, run_dir: Path, ref: dict, checks: Checks):
    """Exit codes, and printed output and file bytes equal to those of
    the first iteration."""
    done = {st["name"]: st for st in it["stages"]}
    for stage in wl.timed:
        st = done.get(stage[0])
        if st is None:
            checks.fail(name, stage[0], it.get("error") or "not run after an earlier failure")
            continue
        checks.expect(st["rc"] == 0, name, stage[0], f"exit code {st['rc']}: {st['stdout'][-500:]}")
        ref.setdefault(f"stdout:{stage[0]}", st["stdout"])
        checks.expect(st["stdout"] == ref[f"stdout:{stage[0]}"], name, stage[0],
                      "printed output differs from the first iteration")
        for out in _outputs(stage):
            path = run_dir / name / out
            digest = _digest(path) if path.exists() else None
            ref.setdefault(out, digest)
            checks.expect(digest is not None and digest == ref[out], name, stage[0],
                          f"{out} differs from the first iteration")


def _class_mi(clustering_file: Path, train_events: int) -> tuple[float, float]:
    """(stored criterion F, F/N + ln N): the criterion as the average
    mutual information between states and categories, in nats per event."""
    for line in clustering_file.read_text(encoding="utf-8").splitlines():
        if line.startswith("#criterion\t"):
            crit = float(line.split("\t")[1])
            return crit, crit / train_events + math.log(train_events)
        if line == "#G":
            break
    raise ValueError(f"{clustering_file} has no stored criterion")


def _check_outputs(wl: Workload, run_dir: Path, first: dict, sizes: dict, checks: Checks) -> dict:
    """Checks of the first iteration's files against the package's own
    loaders and the independent size count; returns the quality values."""
    from clusterlm.cluster import load_clustering
    from clusterlm.events import load_counts

    it_dir = run_dir / "iter-0"
    stdout = {st["name"]: st["stdout"] for st in first["stages"]}
    quality = {}

    clustering_file = (it_dir / wl.clustering).resolve()
    crit, quality["class_mi"] = _class_mi(clustering_file, sizes["train_events"])
    quality["criterion"] = crit
    if "cluster_run" in stdout:
        printed = stdout["cluster_run"].split("criterion ")[1].split(",")[0]
        checks.expect(printed == f"{crit:.6f}", "iter-0", "cluster_run",
                      f"printed criterion {printed} differs from stored {crit!r}")
        try:
            load_clustering(clustering_file, load_counts(it_dir / "counts.txt"))
        except ValueError as exc:
            checks.fail("iter-0", "cluster_run", f"clustering does not reload: {exc}")

    if "counts_collect" in stdout:
        stage = next(st for st in wl.timed if st[0] == "counts_collect")
        spec = stage[stage.index("--context") + 1]
        text = stdout["counts_collect"]
        want = (f"{sizes[f'contexts[{spec}]']} distinct contexts, "
                f"{sizes['train_events']} events")
        checks.expect(want in text, "iter-0", "counts_collect", f"expected '{want}' in {text!r}")
        with open(it_dir / "counts.txt", encoding="utf-8") as fh:
            body = sum(1 for line in fh if not line.startswith("#"))
        checks.expect(body == sizes[f"nnz[{spec}]"], "iter-0", "counts_collect",
                      f"{body} count lines, expected {sizes[f'nnz[{spec}]']}")
    if "vocab_build" in stdout:
        want = f"vocabulary: {sizes['vocab']} tokens"
        checks.expect(want in stdout["vocab_build"], "iter-0", "vocab_build",
                      f"expected '{want}'")

    if "interp_tune" in stdout:
        text = stdout["interp_tune"]
        ppl = float(text.split("heldout perplexity: ")[1].split()[0])
        quality["heldout_ppl"] = ppl
        checks.expect(math.isfinite(ppl) and ppl >= 1.0, "iter-0", "interp_tune",
                      f"held-out perplexity {ppl}")
    if "eval_ppl" in stdout:
        report = dict(
            line.split("\t", 1)
            for line in (it_dir / "report.txt").read_text(encoding="utf-8").splitlines()
        )
        ppl = float(report["perplexity"])
        quality["test_ppl"] = ppl
        checks.expect(math.isfinite(ppl) and ppl >= 1.0, "iter-0", "eval_ppl",
                      f"test perplexity {ppl}")
        checks.expect(int(report["events"]) == sizes["test_events"], "iter-0", "eval_ppl",
                      f"{report['events']} events scored, expected {sizes['test_events']}")
        checks.expect(f"perplexity  {ppl:.4g}" in stdout["eval_ppl"], "iter-0", "eval_ppl",
                      "printed perplexity differs from the report file")
    return quality


def _environment() -> dict:
    import numpy

    from clusterlm import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(ALLOWED_CPUS),
        "machine": platform.machine(),
        "kernels.USING_NUMBA": bool(_kernels.USING_NUMBA),
        "kernels._HAVE_NUMBA": bool(_kernels._HAVE_NUMBA),
        "kernel_path": "numba" if _kernels.USING_NUMBA else "numpy",
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    """Pin this process (and so the iteration processes it starts) and
    the reference sampler to one CPU, and measure."""
    cpu = ALLOWED_CPUS[-1]
    os.sched_setaffinity(0, {cpu})
    sampler = Sampler(cpu)
    try:
        return _bench(workload, seed, seconds, trace, size_name, sampler)
    finally:
        sampler.close()


def _bench(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
           sampler: Sampler) -> dict:
    import clusterlm.cli as cli

    import stages

    wl = WORKLOADS[workload]
    size = SIZES[size_name]
    run_id = f"{workload}-{size_name}-seed{seed}-trace{int(trace)}"
    run_dir = OUT / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    checks = Checks()
    started = time.perf_counter()

    setup_spans: list[tuple[float, float]] = []
    setup_ref: dict[str, str] = {}
    while len(setup_spans) < SETUP_REPEATS or (
        sum(e - s for s, e in setup_spans) < SETUP_MIN_SECONDS
        and len(setup_spans) < SETUP_MAX_REPEATS
    ):
        k = len(setup_spans)
        out = run_dir / f"setup-{k}"
        start, end, splits = _setup(seed, size, wl, out, checks, cli, stages)
        setup_spans.append((start, end))
        for f in [f"{s}.txt" for s in splits] + [o for st in wl.setup for o in _outputs(st)]:
            path = out / f
            digest = _digest(path) if path.exists() else None
            setup_ref.setdefault(f, digest)
            stage = next((st[0] for st in wl.setup if f in _outputs(st)), "corpus")
            checks.expect(digest is not None and digest == setup_ref[f], out.name, stage,
                          f"{f} differs from the first set-up")
        if k == 0:
            sizes = input_sizes(splits, CONTEXT_SPECS)
            sizes["train_events"] = sizes["train_tokens"] + len(splits["train"])
        else:
            shutil.rmtree(out)

    iterations = []
    ref: dict[str, str] = {}
    loop_start = time.perf_counter()
    while True:
        name = f"iter-{len(iterations)}"
        it = _iteration(run_dir, name, wl, False, run_id)
        _check_iteration(it, name, wl, run_dir, ref, checks)
        iterations.append(it)
        elapsed = time.perf_counter() - loop_start
        next_end = elapsed * (len(iterations) + 1) / len(iterations)
        if len(iterations) >= MIN_ITERATIONS and (
            next_end > seconds or time.perf_counter() - started + next_end - elapsed > TIME_BUDGET_S
        ):
            break

    try:
        quality = _check_outputs(wl, run_dir, iterations[0], sizes, checks)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.fail("iter-0", "outputs", f"outputs could not be read: {exc!r}")
        quality = {"class_mi": 0.0}

    traced = None
    if trace:
        traced = _iteration(run_dir, "iter-traced", wl, True, run_id)
        _check_iteration(traced, "iter-traced", wl, run_dir, ref, checks)
    speed = sampler.stop()

    setup_s = [speed.scaled(s, e) for s, e in setup_spans]
    for it in iterations:
        for st in it["stages"]:
            st["scaled_s"] = speed.scaled(st["start"], st["end"])
    ok = [it for it in iterations if len(it["stages"]) == len(wl.timed)]
    wall_s = _median([_wall(it) for it in ok])
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        "scaled_wall_s": (_median([_wall(it, "scaled_s") for it in ok]), "s"),
        "peak_rss_mb": (_median([it["peak_rss_mb"] for it in ok]), "MB"),
        "class_mi": (quality["class_mi"], "nats"),
    }
    if traced is not None:
        layer = traced.get("trace", {"metrics": {}, "by_stage": {}, "min_self_s": 0.0})
        layer["metrics"]["trace.wall_s"] = _wall(traced)
        layer["metrics"]["trace.overhead_s"] = _wall(traced) - wall_s
        metrics = {k: (v, _unit(k)) for k, v in layer["metrics"].items()}

    attempted = len(setup_spans) * (1 + len(wl.setup)) + (
        len(iterations) + (1 if trace else 0)
    ) * len(wl.timed)
    details = {
        "workload": workload,
        "why": wl.why,
        "seed": seed,
        "size": size_name,
        "environment": _environment(),
        "input_sizes": sizes,
        "quality": quality,
        "printed": {st["name"]: st["stdout"].strip() for st in iterations[0]["stages"]},
        "cpu": sorted(os.sched_getaffinity(0)),
        "ref_unit_ms": speed.unit_ms(started, time.perf_counter()),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "setup_wall_s": [e - s for s, e in setup_spans],
        "iterations": [
            {st["name"]: st["seconds"] for st in it["stages"]}
            | {f"{st['name']}.scaled": st["scaled_s"] for st in it["stages"]}
            | {k: it[k] for k in ("peak_rss_mb", "user_s", "sys_s") if k in it}
            for it in iterations
        ],
        "failures": {f"{w}/{s}": why for (w, s), why in sorted(checks.failed.items())},
        "elapsed_s": time.perf_counter() - started,
    }
    if traced is not None:
        details["trace"] = {
            "wall_s": _wall(traced),
            "stage_s": {st["name"]: st["seconds"] for st in traced["stages"]},
            "self_by_stage": traced.get("trace", {}).get("by_stage", {}),
            "min_self_s": traced.get("trace", {}).get("min_self_s", 0.0),
        }
    if not checks.failed:
        shutil.rmtree(run_dir)
    return {
        "details": details,
        "result": {
            "correct": not checks.failed,
            "attempted": attempted,
            "failed": len(checks.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _wall(it: dict, key: str = "seconds") -> float:
    return sum(st[key] for st in it["stages"])


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "cluster.move_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="clusterlm pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "clusterlm" / "__init__.py").is_file():
        print(f"error: no clusterlm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out, indent=1), encoding="utf-8")
    print(json.dumps({"details": out["details"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
