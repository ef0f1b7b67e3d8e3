"""Spans and counts around the public calls of every clusterlm module.

The package itself is not instrumented.  ``instrument`` replaces each
public name at the place its caller looks it up (a module global such as
``clusterlm.cli.load_counts``, a module attribute such as
``clusterlm._kernels.word_move_deltas``, or a class attribute such as
``Clustering.word_profile``) with a wrapper that records a span.  Spans
carry a name, start, end, parent and run id; they are kept in memory and
written once the run ends.

A span's self time is its duration minus the durations of its direct
children.  Self times summed per layer metric, plus the self time of the
root span of each CLI stage (``cli.self_s``), add up to the traced wall
time exactly, because every span nests inside one root.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import clusterlm.cli as cli
import clusterlm.evaluate as evaluate
import clusterlm.models as models
from clusterlm import _kernels
from clusterlm.cluster import Clustering
from clusterlm.corpus import Vocabulary
from clusterlm.models import BackoffModel, ClassLM, InterpolatedModel

# The layer metric names are the package module names; ``_kernels`` is
# reported as ``kernels`` because metric names must start with a letter.
STAGES = (
    "vocab_build",
    "counts_collect",
    "cluster_run",
    "ngram_train",
    "interp_tune",
    "eval_ppl",
)

SELF_TIMES = (
    "corpus.read_s",
    "corpus.vocab_s",
    "corpus.encode_s",
    "events.extract_s",
    "events.save_s",
    "events.load_s",
    "ctxtree.build_s",
    "cluster.init_s",
    "cluster.profile_s",
    "cluster.delta_s",
    "cluster.apply_s",
    "cluster.criterion_s",
    "cluster.self_s",
    "kernels.word_s",
    "kernels.group_s",
    "models.classlm_build_s",
    "models.load_classlm_s",
    "models.load_backoff_s",
    "models.ngram_counts_s",
    "models.train_backoff_s",
    "models.save_s",
    "models.self_s",
    "evaluate.perplexity_s",
    "evaluate.tune_s",
    "evaluate.em_s",
    "cli.self_s",
)

COUNTS = (
    "corpus.tokens",
    "events.contexts",
    "events.nnz",
    "ctxtree.nodes",
    "cluster.delta_calls",
    "cluster.moves",
    "cluster.sweeps",
    "kernels.calls",
    "kernels.cells",
    "models.prob_calls",
    "evaluate.events",
)

# span names whose whole duration (children included) is also reported
INCLUSIVE = {"models.load_model": "models.load_s"}


def _table_size(counts: Counter, table) -> None:
    nnz = sum(len(row) for row in table.counts.values())
    counts["events.contexts"] = max(counts["events.contexts"], table.n_contexts)
    counts["events.nnz"] = max(counts["events.nnz"], nnz)


def _tokens(counts: Counter, sentences) -> None:
    counts["corpus.tokens"] += sum(len(s) for s in sentences)


def _kernel_cells(axis: int):
    def count(counts: Counter, args) -> None:
        joint, profile = args[0], args[2]
        counts["kernels.calls"] += 1
        counts["kernels.cells"] += int(np.count_nonzero(profile)) * joint.shape[axis]

    return count


# (span name, self-time metric, owner, attribute, counter on (counts, args), counter on result)
_WRAPS = [
    ("corpus.read_corpus_lines", "corpus.read_s", cli, "read_corpus_lines", None, None),
    ("corpus.build_vocabulary", "corpus.vocab_s", cli, "build_vocabulary", None, None),
    ("corpus.Vocabulary.load", "corpus.vocab_s", Vocabulary, "load", None, None),
    ("corpus.Vocabulary.save", "corpus.vocab_s", Vocabulary, "save", None, None),
    ("corpus.encode_corpus", "corpus.encode_s", cli, "encode_corpus", None, _tokens),
    ("events.extract_events", "events.extract_s", cli, "extract_events", None, _table_size),
    ("events.save_counts", "events.save_s", cli, "save_counts", None, None),
    ("events.load_counts", "events.load_s", cli, "load_counts", None, _table_size),
    ("events.load_counts", "events.load_s", models, "load_counts", None, _table_size),
    (
        "ctxtree.build_suffix_tree",
        "ctxtree.build_s",
        cli,
        "build_suffix_tree",
        None,
        lambda c, tree: c.update({"ctxtree.nodes": sum(len(lv) for lv in tree.levels)}),
    ),
    ("cluster.Clustering", "cluster.init_s", Clustering, "__init__", None, None),
    ("cluster.word_profile", "cluster.profile_s", Clustering, "word_profile", None, None),
    ("cluster.group_profile", "cluster.profile_s", Clustering, "group_profile", None, None),
    (
        "cluster.word_move_deltas",
        "cluster.delta_s",
        Clustering,
        "word_move_deltas",
        lambda c, a: c.update({"cluster.delta_calls": 1}),
        None,
    ),
    (
        "cluster.group_move_deltas",
        "cluster.delta_s",
        Clustering,
        "group_move_deltas",
        lambda c, a: c.update({"cluster.delta_calls": 1}),
        None,
    ),
    (
        "cluster.apply_word_move",
        "cluster.apply_s",
        Clustering,
        "apply_word_move",
        lambda c, a: c.update({"cluster.moves": 1}),
        None,
    ),
    (
        "cluster.apply_group_move",
        "cluster.apply_s",
        Clustering,
        "apply_group_move",
        lambda c, a: c.update({"cluster.moves": 1}),
        None,
    ),
    ("cluster.criterion", "cluster.criterion_s", Clustering, "criterion", None, None),
    (
        "cluster.run_flat",
        "cluster.self_s",
        cli,
        "run_flat",
        None,
        lambda c, cl: c.update({"cluster.sweeps": cl.iterations_run}),
    ),
    (
        "cluster.run_tree",
        "cluster.self_s",
        cli,
        "run_tree",
        None,
        lambda c, cl: c.update({"cluster.sweeps": cl.iterations_run}),
    ),
    ("cluster.save_clustering", "cluster.self_s", cli, "save_clustering", None, None),
    ("cluster.load_clustering", "cluster.self_s", cli, "load_clustering", None, None),
    ("cluster.load_clustering", "cluster.self_s", models, "load_clustering", None, None),
    ("kernels.word_move_deltas", "kernels.word_s", _kernels, "word_move_deltas", _kernel_cells(1), None),
    ("kernels.group_move_deltas", "kernels.group_s", _kernels, "group_move_deltas", _kernel_cells(0), None),
    ("models.ClassLM", "models.classlm_build_s", ClassLM, "__init__", None, None),
    ("models.load_model", "models.self_s", cli, "load_model", None, None),
    ("models.load_model", "models.self_s", models, "load_model", None, None),
    ("models.load_interpolated", "models.self_s", models, "load_interpolated", None, None),
    ("models.load_classlm", "models.load_classlm_s", models, "load_classlm", None, None),
    ("models.load_backoff", "models.load_backoff_s", models, "load_backoff", None, None),
    ("models.ngram_counts", "models.ngram_counts_s", cli, "ngram_counts", None, None),
    ("models.train_backoff", "models.train_backoff_s", cli, "train_backoff", None, None),
    ("models.save_backoff", "models.save_s", cli, "save_backoff", None, None),
    ("models.save_classlm", "models.save_s", cli, "save_classlm", None, None),
    ("models.save_interpolated", "models.save_s", cli, "save_interpolated", None, None),
    (
        "evaluate.perplexity",
        "evaluate.perplexity_s",
        cli,
        "perplexity",
        None,
        lambda c, rep: c.update({"evaluate.events": rep.token_count}),
    ),
    ("evaluate.tune_weights_em", "evaluate.tune_s", cli, "tune_weights_em", None, None),
    (
        "evaluate.em_mixture_weights",
        "evaluate.em_s",
        evaluate,
        "em_mixture_weights",
        lambda c, a: c.update({"evaluate.events": len(a[0])}),
        None,
    ),
]

# scoring calls are counted but not timed: their time is the self time
# of the evaluate span that issues them
_COUNTED = [(cls, "prob") for cls in (ClassLM, BackoffModel, InterpolatedModel)]

SPAN_METRIC = {name: metric for name, metric, *_ in _WRAPS}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, fn, on_args, on_result):
        span = self.span
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if on_args is not None:
                on_args(counts, args)
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        """Wrap every traced name; ``restore`` undoes it."""
        for name, _, owner, attr, on_args, on_result in _WRAPS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = staticmethod(self._wrap(name, getattr(owner, attr), on_args, on_result))
            else:
                wrapped = self._wrap(name, raw, on_args, on_result)
            self._patch(owner, attr, wrapped)
        for owner, attr in _COUNTED:
            self._patch(owner, attr, _counting(owner.__dict__[attr], self.counts))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

    def layers(self) -> dict:
        """Per-layer self times (seconds) and counts over all stages, the
        inclusive time of each CLI stage, and the per-stage split of self
        time by layer."""
        duration = {sid: end - start for sid, _, _, start, end in self.spans}
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        name_of = {sid: name for sid, _, name, *_ in self.spans}
        child_ns: Counter = Counter()
        for sid, parent, *_ in self.spans:
            if parent:
                child_ns[parent] += duration[sid]

        def root_of(sid: int) -> int:
            while parent_of[sid]:
                sid = parent_of[sid]
            return sid

        out = {m: 0.0 for m in SELF_TIMES}
        out.update({f"cli.{s}_s": 0.0 for s in STAGES})
        out.update({m: 0.0 for m in INCLUSIVE.values()})
        by_stage: dict[str, Counter] = {}
        for sid, parent, name, _, _ in self.spans:
            self_s = (duration[sid] - child_ns[sid]) / 1e9
            if parent == 0:
                metric = "cli.self_s"
                out[f"{name}_s"] += duration[sid] / 1e9
            else:
                metric = SPAN_METRIC[name]
                if name in INCLUSIVE and name_of[parent].startswith("cli."):
                    out[INCLUSIVE[name]] += duration[sid] / 1e9
            out[metric] += self_s
            by_stage.setdefault(name_of[root_of(sid)], Counter())[metric] += self_s
        for m in COUNTS:
            out[m] = float(self.counts[m])
        calls = self.counts["cluster.delta_calls"]
        out["cluster.move_ratio"] = self.counts["cluster.moves"] / calls if calls else 0.0
        return {
            "metrics": out,
            "by_stage": {k: dict(v) for k, v in by_stage.items()},
            "min_self_s": min(
                ((duration[s] - child_ns[s]) / 1e9 for s in duration), default=0.0
            ),
        }


def _counting(fn, counts: Counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts["models.prob_calls"] += 1
        return fn(*args, **kwargs)

    return counted
