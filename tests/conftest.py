"""Shared corpus builders and fixtures."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import clusterlm
from clusterlm._kernels import _xlogx_scalar, xlogx
from clusterlm._rows import Keys, find_rows, tuples
from clusterlm.cluster import Clustering, ClusterParams, MoveDelta, _ranked_init, _start
from clusterlm.corpus import (
    FeatureMapper,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    identity_mapper,
)
from clusterlm.ctxtree import suffix_level
from clusterlm.evaluate import EvalReport
from clusterlm.events import ContextSpec, EventTable, Slot, extract_events
from clusterlm.models import BackoffModel, ClassLM, InterpolatedModel, _mix


def make_random_corpus(seed: int, n_sentences: int, n_words: int = 12,
                       min_len: int = 2, max_len: int = 9) -> list[str]:
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(n_words)]
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(n_sentences)
    ]


# CPU paths that must not change an output: OpenBLAS's Haswell kernels in
# place of the host's, and numpy without its x86-64-v4 (AVX-512) loops
CPU_PATHS = pytest.mark.parametrize(
    "setting",
    [{"OPENBLAS_CORETYPE": "Haswell"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}],
    ids=["openblas-haswell", "numpy-without-x86-v4"],
)


def skip_unless_another_path(setting: dict) -> None:
    """Skip a ``CPU_PATHS`` case that would run this host's own path."""
    core = getattr(np, "_core", None) or np.core
    has_v4 = core._multiarray_umath.__cpu_features__.get("X86_V4")
    if "NPY_DISABLE_CPU_FEATURES" in setting and not has_v4:
        pytest.skip("this host has no x86-64-v4 path to disable")


def run_under(setting: dict, code: str, *args: str, cwd: Path | None = None) -> str:
    """Standard output of ``python -c code args`` in a fresh process that
    imports this source tree's package, with the CPU path ``setting`` in
    place of any set in this process's environment."""
    src = Path(clusterlm.__file__).resolve().parents[1]
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    }
    env.update(setting, PYTHONPATH=os.pathsep.join([str(src), *sys.path]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    return done.stdout


def make_class_corpus(seed: int, n_sentences: int, n_classes: int = 8,
                      per_class: int = 15) -> list[str]:
    """Sentences from a hidden word-class Markov chain: the class of the
    next word depends on the class of the previous one, and words are
    drawn zipf-like within their class.  Context pairs are then mostly
    rare while single-word suffixes stay informative."""
    rng = random.Random(seed)
    words = [[f"c{c}w{j}" for j in range(per_class)] for c in range(n_classes)]
    norm = sum(1.0 / (1 + j) for j in range(per_class))

    def pick(c: int) -> str:
        r = rng.random() * norm
        acc = 0.0
        for j in range(per_class):
            acc += 1.0 / (1 + j)
            if r <= acc:
                return words[c][j]
        return words[c][-1]

    def next_class(c: int) -> int:
        r = rng.random()
        if r < 0.55:
            return (c + 1) % n_classes
        if r < 0.80:
            return (c + 2) % n_classes
        return rng.randrange(n_classes)

    sents = []
    for _ in range(n_sentences):
        c = rng.randrange(n_classes)
        toks = []
        for _ in range(rng.randint(4, 12)):
            toks.append(pick(c))
            c = next_class(c)
        sents.append(" ".join(toks))
    return sents


def build_table(sentences: list[str], offsets: tuple[int, ...] = (-2, -1)):
    """(vocab, encoded sentences, event table) for word-identity slots."""
    vocab = build_vocabulary(t for s in sentences for t in s.split())
    enc = encode_corpus(sentences, vocab)
    mapper = identity_mapper(vocab)
    spec = ContextSpec(tuple(Slot(o, mapper) for o in sorted(offsets)))
    return vocab, enc, extract_events(enc, spec, vocab)


def random_event_table(rng: random.Random, n_words: int, n_contexts: int,
                       depth: int = 2, max_count: int = 5,
                       n_predicted: int | None = None) -> EventTable:
    """Synthetic sparse counts without going through a corpus.  The
    predicted words are drawn from the first ``n_predicted`` ids (all
    by default), so the others occur only in contexts."""
    if n_contexts > n_words**depth:
        raise ValueError("more contexts asked for than there are distinct tuples")
    n_predicted = n_words if n_predicted is None else n_predicted
    counts = {}
    while len(counts) < n_contexts:
        ctx = tuple(rng.randrange(n_words) for _ in range(depth))
        if ctx in counts:
            continue
        row = {}
        for w in rng.sample(range(n_predicted), rng.randint(1, min(4, n_predicted))):
            row[w] = rng.randint(1, max_count)
        counts[ctx] = row
    return table_from_counts(_placeholder_spec(n_words, depth), counts)


def table_from_counts(spec: ContextSpec,
                      counts: dict[tuple[int, ...], dict[int, int]]) -> EventTable:
    """A table from nested dicts, ``counts[context][word] = n``."""
    rows = [(*ctx, w, n) for ctx in sorted(counts) for w, n in sorted(counts[ctx].items())]
    table = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    return EventTable(spec, table[:, :-1], table[:, -1])


def index_of(table: EventTable, context: tuple[int, ...]) -> int:
    """Row of ``context`` in ``table.contexts``; ValueError if never seen."""
    key = tuple(context)
    # contexts hold int32 values, so any other tuple is unknown
    if len(key) == table.spec.depth and all(0 <= v < 2**31 for v in key):
        at, found = find_rows(Keys(table.contexts), np.array([key], dtype=np.int64))
        if found[0]:
            return int(at[0])
    raise ValueError(f"unknown context {key!r}")


def init_clustering(table: EventTable, params: ClusterParams) -> Clustering:
    """The flat run's starting point: frequency-ranked singleton
    clusters plus one shared remainder cluster, on both axes."""
    return _start(table, params, suffix_level(table.contexts, table.spec.depth, table.ctx_counts))


def delta_move_word(clustering: Clustering, w: int, target: int) -> float:
    """Exact change of F if word ``w`` moved to category ``target``."""
    if not 0 <= target < clustering.n_categories:
        raise ValueError("category id out of range")
    return float(clustering.word_move_deltas(w)[target])


def delta_move_context_group(clustering: Clustering, group, target: int) -> float:
    """Exact change of F if a coherent group of context tuples moved to
    state ``target``.  The contexts must share one state, and none may
    repeat."""
    if not 0 <= target < clustering.n_states:
        raise ValueError("state id out of range")
    idx = np.asarray([index_of(clustering.table, c) for c in group], dtype=np.int64)
    if np.unique(idx).size != idx.size:
        raise ValueError("a context appears more than once in the group")
    return float(clustering.group_move_deltas(idx)[target])


def marginals(table: EventTable) -> tuple[dict[tuple, int], dict[int, int]]:
    """(context -> event count, word -> event count), summed in plain
    Python from the table's nested-dict view."""
    ctx_marg: dict[tuple, int] = {}
    word_marg: dict[int, int] = {}
    for ctx, row in table.counts.items():
        ctx_marg[ctx] = sum(row.values())
        for w, n in row.items():
            word_marg[w] = word_marg.get(w, 0) + n
    return ctx_marg, word_marg


def suffix_groups(table: EventTable, level: int) -> list[tuple[tuple, list[int], int]]:
    """(suffix, context indices, event count) for each distinct
    length-``level`` suffix of the sorted contexts, in suffix order.
    Built with plain dicts so it checks the suffix tree independently."""
    ctx_marg, _ = marginals(table)
    contexts = sorted(ctx_marg)
    members: dict[tuple, list[int]] = {}
    for i, c in enumerate(contexts):
        members.setdefault(c[len(c) - level :], []).append(i)
    return [
        (key, idx, sum(ctx_marg[contexts[i]] for i in idx))
        for key, idx in sorted(members.items())
    ]


def grouped_states(table: EventTable, n_states: int) -> list[int]:
    """Tree start: the count-ranked level-1 suffix groups take the states."""
    level1 = suffix_groups(table, 1)
    ranks = _ranked_init([n for _, _, n in level1], min(n_states, len(level1)))
    S = [0] * table.n_contexts
    for (_, idx, _), st in zip(level1, ranks):
        for i in idx:
            S[i] = int(st)
    return S


def _placeholder_spec(n_words: int, depth: int) -> ContextSpec:
    mapper = FeatureMapper(name="w", table=np.arange(n_words, dtype=np.int32), arity=n_words)
    return ContextSpec(tuple(Slot(-(depth - k), mapper) for k in range(depth)))


def count_arrays(tables: list[dict[tuple[int, ...], int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-order dict counts, ``tables[k-1][k-gram] = n``, as the sorted
    (grams, counts) pairs that ``ngram_counts`` returns."""
    out = []
    for k, table in enumerate(tables, 1):
        keys = sorted(table)
        grams = np.array(keys, dtype=np.int64).reshape(len(keys), len(keys[0]) if keys else k)
        out.append((grams, np.array([table[g] for g in keys], dtype=np.int64)))
    return out


def count_dicts(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[dict[tuple[int, ...], int]]:
    """The inverse of ``count_arrays``."""
    return [dict(zip(tuples(grams), counts.tolist())) for grams, counts in pairs]


def oracle_ngram_counts(sentences, order: int, *, bos_id: int, eos_id: int):
    """Per-order n-gram counts as dicts, one k-gram of every order per
    prediction event, by a plain loop over every position."""
    counts: list[dict[tuple[int, ...], int]] = [{} for _ in range(order)]
    for sent in sentences:
        seq = [bos_id] * (order - 1) + [int(x) for x in sent] + [eos_id]
        for i in range(order - 1, len(seq)):
            for k in range(1, order + 1):
                ng = tuple(seq[i - k + 1 : i + 1])
                counts[k - 1][ng] = counts[k - 1].get(ng, 0) + 1
    return counts


def oracle_backoff(counts, n_words: int, *, discount: float, cutoffs: dict[int, int]):
    """(uni, probs, bows) of the interpolated absolute-discounting model,
    trained from dict counts by scalar recursion over dicts.  Raises
    ``ValueError`` when no unigram survives the cutoffs."""
    order = len(counts)
    kept = [
        {ng: c for ng, c in counts[k - 1].items() if c > cutoffs.get(k, 0)}
        for k in range(1, order + 1)
    ]
    total = sum(kept[0].values())
    if total == 0:
        raise ValueError("no unigrams survive the cutoffs")
    floor = discount * len(kept[0]) / n_words
    uni = np.full(n_words, floor / total, dtype=np.float64)
    for (w,), c in kept[0].items():
        uni[w] = (max(c - discount, 0.0) + floor) / total
    probs: dict[int, dict] = {}
    bows: dict[int, dict] = {}

    def p(k, h, w):
        if k == 1:
            return float(uni[w])
        bow = bows[k].get(h)
        if bow is None:
            return p(k - 1, h[1:], w)
        if h + (w,) in probs[k]:
            return probs[k][h + (w,)]
        return bow * p(k - 1, h[1:], w)

    for k in range(2, order + 1):
        hist_tot: dict[tuple[int, ...], int] = {}
        hist_np: dict[tuple[int, ...], int] = {}
        for ng, c in kept[k - 1].items():
            hist_tot[ng[:-1]] = hist_tot.get(ng[:-1], 0) + c
            hist_np[ng[:-1]] = hist_np.get(ng[:-1], 0) + 1
        bows[k] = {h: discount * hist_np[h] / hist_tot[h] for h in hist_tot}
        probs[k] = {
            ng: (c - discount) / hist_tot[ng[:-1]] + bows[k][ng[:-1]] * p(k - 1, ng[1:-1], ng[-1])
            for ng, c in kept[k - 1].items()
        }
    return uni, probs, bows


def _events(sentences, eos_id, include_eos):
    """(sentence index, position, word, history) for every prediction
    event; the history is the tuple of earlier words in the sentence."""
    for si, sent in enumerate(sentences):
        hist: tuple[int, ...] = ()
        for pos, w in enumerate(sent):
            yield si, pos, int(w), hist
            hist = hist + (int(w),)
        if include_eos:
            yield si, len(sent), int(eos_id), hist


class ClassDicts(NamedTuple):
    """A class model's tables as dicts: N(s, g) by (s, g), the state of
    each training context, and the fallback state of each proper suffix."""

    joint: dict
    state_of: dict
    fallback: dict


class BackoffDicts(NamedTuple):
    """A backoff model's tables as dicts, per order k >= 2: p_k by kept
    k-gram, and bow(h) by seen history."""

    probs: dict
    bows: dict


_DICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def class_dicts(lm) -> ClassDicts:
    """``ClassDicts`` of a class model, built once per model."""
    if lm not in _DICTS:
        # the model keeps each table as packed keys beside its values
        (cells, n), (contexts, states) = lm.joint, lm.tables[-1]
        _DICTS[lm] = ClassDicts(
            dict(zip(tuples(cells.rows()), n.tolist(), strict=True)),
            dict(zip(tuples(contexts.rows()), states.tolist(), strict=True)),
            {
                key: st
                for keys, sts in lm.tables[:-1]
                for key, st in zip(tuples(keys.rows()), sts.tolist(), strict=True)
            },
        )
    return _DICTS[lm]


def full_tables(table: EventTable, S) -> list[dict[tuple[int, ...], int]]:
    """Per suffix length k = 1..depth, the state of every row of a class
    model's unpruned tables: each distinct proper suffix of the training
    contexts with the state holding most of its events (ties to the
    lower id), and each training context with its state in ``S``;
    summed with plain dicts."""
    depth = table.spec.depth
    weights: list[dict] = [{} for _ in range(depth - 1)]
    for (ctx, row), s in zip(sorted(table.counts.items()), [int(s) for s in S], strict=True):
        n = sum(row.values())
        for keep in range(1, depth):
            w = weights[keep - 1].setdefault(ctx[depth - keep :], {})
            w[s] = w.get(s, 0) + n
    return [
        {suf: min(w, key=lambda s: (-w[s], s)) for suf, w in level.items()} for level in weights
    ] + [dict(zip(tuples(table.contexts), [int(s) for s in S], strict=True))]


def unpruned_classlm(clustering: Clustering, vocab: Vocabulary, discount: float = 0.5):
    """The class model of ``clustering`` holding the unpruned
    ``full_tables``, as models were built before their tables kept only
    the rows that differ from their suffix fallback."""
    lm = ClassLM(clustering, vocab, discount)
    lm.tables = [
        (Keys(np.array(sorted(t), dtype=np.int64).reshape(len(t), k)),
         np.array([t[key] for key in sorted(t)], dtype=np.int32))
        for k, t in enumerate(full_tables(clustering.table, clustering.S), 1)
    ]
    return lm


def backoff_dicts(m: BackoffModel) -> BackoffDicts:
    """``BackoffDicts`` of a backoff model, built once per model."""
    if m not in _DICTS:
        _DICTS[m] = BackoffDicts(
            # the model keeps its tables as packed keys beside their values
            {
                k: dict(zip(tuples(grams.rows()), p.tolist(), strict=True))
                for k, (grams, p, _, _) in enumerate(m._tables, 2)
            },
            {
                k: dict(zip(tuples(hists.rows()), b.tolist(), strict=True))
                for k, (_, _, hists, b) in enumerate(m._tables, 2)
            },
        )
    return _DICTS[m]


def oracle_state(lm, context: tuple[int, ...]) -> int:
    """State of a context tuple, through the suffix fallback when the
    exact tuple was never seen."""
    if len(context) != lm.depth:
        raise ValueError("context tuple length does not match the model's slots")
    dicts = class_dicts(lm)
    s = dicts.state_of.get(tuple(context))
    if s is not None:
        return s
    for keep in range(lm.depth - 1, 0, -1):
        s = dicts.fallback.get(tuple(context[lm.depth - keep :]))
        if s is not None:
            return s
    return int(np.argmax(lm.state_totals))


def oracle_class_prob(lm, w: int, context: tuple[int, ...]) -> float:
    """p(w | context) of a class model per the two-step factorization."""
    if not 0 <= w < lm.n_words:
        raise ValueError("word id out of range")
    s = oracle_state(lm, context)
    g = int(lm.G[w])
    n_g = int(lm.cat_totals[g])
    if n_g == 0:
        return 0.0
    n_s = float(lm.state_totals[s])
    d = lm.discount
    p_g = (
        max(float(class_dicts(lm).joint.get((s, g), 0)) - d, 0.0) / n_s
        + (d * float(lm._nplus[s]) / n_s) * (n_g / lm.total)
    )
    return p_g * (float(lm.word_counts[w]) / n_g)


def oracle_context(lm, history) -> tuple[int, ...]:
    """Mapped context tuple of a class model for a prediction following
    ``history``: each slot's mapper applied to the word at its offset,
    or to the begin word before the sentence start."""
    n = len(history)
    return tuple(
        int(sl.mapper.table[history[n + sl.offset] if n + sl.offset >= 0 else lm.bos_id])
        for sl in lm.spec.slots
    )


def oracle_backoff_prob(m: BackoffModel, w: int, history) -> float:
    """p(w | history) of a backoff model by scalar recursion over its
    dicts.  A short history is padded with the begin id."""
    if not 0 <= w < m.n_words:
        raise ValueError("word id out of range")
    probs, bows = backoff_dicts(m)
    h = () if m.order == 1 else tuple(int(x) for x in history[-(m.order - 1) :])
    h = (m.bos_id,) * (m.order - 1 - len(h)) + h

    def p(k: int, h: tuple[int, ...]) -> float:
        if k == 1:
            return float(m.uni[w])
        bow = bows[k].get(h)
        if bow is None:
            return p(k - 1, h[1:])
        got = probs[k].get(h + (w,))
        if got is not None:
            return got
        return bow * p(k - 1, h[1:])

    return p(m.order, h)


def oracle_prob(model, w: int, history) -> float:
    """p(w | history), ``history`` the word ids preceding ``w`` in its
    sentence, by the scalar dict path of each model type: a mixture adds
    ``lam * p`` over its nonzero weights in component order."""
    if isinstance(model, InterpolatedModel):
        total = 0.0
        for lam, comp in zip(model.weights, model.components):
            if lam != 0.0:
                total += float(lam) * oracle_prob(comp, w, history)
        return total
    if isinstance(model, BackoffModel):
        return oracle_backoff_prob(model, w, history)
    return oracle_class_prob(model, w, oracle_context(model, history))


def history_row(model, history) -> list[int]:
    """``history`` right-aligned into the model's ``history_width``
    columns, with -1 before the sentence start."""
    width = model.history_width
    kept = [int(x) for x in history][max(len(history) - width, 0) :]
    return [-1] * (width - len(kept)) + kept


def query(model, w: int, history) -> float:
    """``model.prob`` of word ``w`` after ``history``, as a one-row query."""
    return float(model.prob(np.array([history_row(model, history) + [w]], dtype=np.int64))[0])


def query_words(model, history) -> list[float]:
    """``query`` of every word of the vocabulary after ``history``, in
    one ``prob`` call."""
    h = history_row(model, history)
    return model.prob(np.array([h + [w] for w in range(model.n_words)], dtype=np.int64)).tolist()


def oracle_perplexity(model, sentences, *, eos_id=None, include_eos=True, skip_unknown=False,
                      unk_id=None, model_id="model", per_sentence=False) -> EvalReport:
    """``perplexity`` by a per-event loop: one ``oracle_prob`` call per
    event, the logs summed with ``math.fsum``, and a zero probability
    raising the error that names the first such event."""
    if include_eos and eos_id is None:
        raise ValueError("eos_id is required when sentence ends are scored")
    if skip_unknown and unk_id is None:
        raise ValueError("unk_id is required when unknown words are skipped")
    logs: list[float] = []
    by_sentence: list[list[float]] = [[] for _ in sentences]
    for si, pos, w, hist in _events(sentences, eos_id, include_eos):
        if skip_unknown and w == unk_id:
            continue
        p = oracle_prob(model, w, hist)
        if p <= 0.0:
            msg = f"zero probability for word id {w} (sentence {si}, position {pos})"
            if w == unk_id:
                msg += (
                    "; that is the unknown word, to which a class model gives probability 0"
                    " when it had no training count; skipping unknown words (--skip-unknown)"
                    " leaves such events out"
                )
            raise ValueError(msg)
        logs.append(math.log(p))
        by_sentence[si].append(logs[-1])
    if not logs:
        raise ValueError("no events to evaluate")
    total = math.fsum(logs)
    report = EvalReport(model_id, len(logs), total, math.exp(-total / len(logs)))
    if per_sentence:
        report.per_sentence = [(len(lps), math.fsum(lps)) for lps in by_sentence]
    return report


def oracle_em_mixture_weights(probs, max_iters=100, tol=1e-6):
    """``em_mixture_weights`` with the exactly rounded log-likelihood
    (``math.fsum`` of every event's log) of each iteration in its
    history: the same update and stopping rule, unchecked."""
    P = np.asarray(probs, dtype=np.float64)
    n, k = P.shape
    columns = [np.ascontiguousarray(P[:, j]) for j in range(k)]
    w = np.full(k, 1.0 / k, dtype=np.float64)
    history = []
    mix, inv, term = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(max_iters):
        _mix(w, lambda j: columns[j], mix, term)
        history.append(math.fsum(memoryview(np.log(mix, out=term))))
        np.divide(1.0, mix, out=inv)
        new_w = np.empty(k, dtype=np.float64)
        for j in range(k):
            np.multiply(columns[j], w[j], out=term)
            new_w[j] = np.add.reduce(np.multiply(term, inv, out=term)) / n
        delta = float(np.max(np.abs(new_w - w)))
        w = new_w
        if delta < tol:
            break
    return w / float(w.sum()), history


def oracle_tune_weights_em(components, sentences, *, eos_id=None, include_eos=True,
                           skip_unknown=False, unk_id=None, max_iters=100, tol=1e-6):
    """``tune_weights_em`` by a per-event loop: one ``oracle_prob`` call
    per event and component fills the matrix, then the same EM and the
    same scoring of the tuned mixture."""
    rows = [
        [oracle_prob(comp, w, hist) for comp in components]
        for _, _, w, hist in _events(sentences, eos_id, include_eos)
        if not (skip_unknown and w == unk_id)
    ]
    probs = np.asarray(rows, dtype=np.float64)
    weights, _ = oracle_em_mixture_weights(probs, max_iters=max_iters, tol=tol)
    mix = np.zeros(len(probs), dtype=np.float64)
    for k, lam in enumerate(weights):
        if lam != 0.0:
            mix += float(lam) * probs[:, k]
    total = math.fsum(math.log(p) for p in mix.tolist())
    report = EvalReport("interp", len(mix), total, math.exp(-total / len(mix)))
    return weights, report


def oracle_move_deltas(table, totals, profile, cur, n_elem, f_table, f_totals, scratch):
    """The row kernel as it stood before the tables were bordered, kept
    verbatim: dense ``profile`` and separate ``totals`` with their f
    cache ``f_totals``.  The bordered kernel must match it bit for bit."""
    if n_elem == 0:
        return np.zeros(table.shape[1], dtype=np.float64)
    nz = profile.nonzero()[0]
    p = profile[nz]
    shape = (len(nz), table.shape[1])
    size = shape[0] * shape[1]
    a, b = scratch[:size].reshape(shape), scratch[size : 2 * size].reshape(shape)
    after = table.take(nz, 0, a, "clip")
    after += p[:, None]
    # N - p at the source cells: exact, as every value is an integer below 2**53
    src = after[:, cur] - 2.0 * p
    deltas = np.log(after, out=b)
    deltas *= after
    f_rows = f_table.take(nz, 0, a, "clip")
    src_joint = float(np.add.reduce(xlogx(src) - f_rows[:, cur]))
    deltas -= f_rows
    deltas = np.add.reduce(deltas, 0)

    m = totals + float(n_elem)
    gain = np.log(m)
    gain *= m
    gain -= f_totals
    src_margin = _xlogx_scalar(float(totals[cur]) - n_elem) - _xlogx_scalar(float(totals[cur]))
    deltas += src_joint
    deltas -= gain
    deltas -= src_margin
    deltas[cur] = 0.0
    return deltas


def oracle_group_move_deltas(joint, state_totals, profile, s_cur, n_elem, f_joint, f_state):
    """Group move deltas from column gathers of ``joint`` (states x
    categories), the layout the package's row kernel on ``joint_bt``
    must match bit for bit.  ``joint[:, nz]`` is Fortran-ordered, so
    ``sum(axis=1)`` adds each state's terms in ``nz`` order."""
    if n_elem == 0:
        return np.zeros(joint.shape[0], dtype=np.float64)
    nz = np.nonzero(profile)[0]
    q = profile[nz]
    after = joint[:, nz]
    after += q[None, :]
    deltas = np.log(after)
    deltas *= after
    deltas -= f_joint[:, nz]
    deltas = deltas.sum(axis=1)

    js = joint[s_cur, nz]
    js -= q
    src_joint = float((xlogx(js) - f_joint[s_cur, nz]).sum())

    m = state_totals + float(n_elem)
    gain = np.log(m)
    gain *= m
    gain -= f_state

    def f(x):
        return x * math.log(x) if x > 0 else 0.0

    src_margin = f(float(state_totals[s_cur]) - n_elem) - f(float(state_totals[s_cur]))
    deltas += src_joint
    deltas -= gain
    deltas -= src_margin
    deltas[s_cur] = 0.0
    return deltas


def oracle_run(table, levels, params, on_move=None):
    """``cluster._run`` on the public ``Clustering`` methods: each
    visit takes the deltas from ``word_move_deltas`` or
    ``group_move_deltas`` and moves with ``apply_word_move`` or
    ``apply_group_move``, each of which checks its ids and that a group
    lies in one state, and profiles the unit itself (a group profile
    gathers every member context's row)."""
    cl = _start(table, params, levels[0])
    for level in levels:
        units = [(-int(n), 0, w, "word") for w, n in enumerate(cl.word_counts.tolist())
                 if n >= params.min_count]
        units += [(-int(n), 1, k, "group") for k, n in enumerate(level.counts.tolist())
                  if n >= params.min_count]
        units.sort()
        f_prev = cl.criterion()
        for iterations in range(1, params.max_iterations + 1):
            moved = False
            for _, _, element, kind in units:
                if kind == "word":
                    deltas = cl.word_move_deltas(element)
                    source = int(cl.G[element])
                else:
                    idx = level.group(element)
                    deltas = cl.group_move_deltas(idx)
                    source = int(cl.S[idx[0]])
                target = int(deltas.argmax())
                if not deltas[target] > 0.0:
                    continue
                if kind == "word":
                    cl.apply_word_move(element, target)
                    key = element
                else:
                    cl.apply_group_move(idx, target)
                    key = level.key(element)
                moved = True
                if on_move is not None:
                    on_move(cl, MoveDelta(kind, key, source, target, float(deltas[target])))
            if not moved:
                break  # the next pass would see the same tables and move nothing either
            f_now = cl.criterion()
            rel = (f_now - f_prev) / abs(f_prev) if f_prev != 0.0 else 0.0
            f_prev = f_now
            if rel < params.convergence:
                break
        cl.iterations_per_level.append(iterations)
    return cl


class ScriptedClustering:
    """Stands in for a Clustering in ``cluster._sweep``: its criterion
    follows a script, and ``units()`` is one unit that moves in every
    pass, so that only the relative gain or the pass cap ends a level."""

    def __init__(self, values):
        self.values = list(values)

    def criterion(self):
        return self.values.pop(0)

    def _deltas(self, word, source, nz, p):
        return np.array([1.0])

    def _move(self, word, source, target, nz, p):
        pass

    @staticmethod
    def units():
        rows = SimpleNamespace(profile=lambda element, labels, n_labels, n: (None, None))
        return [(-1, 0, 0, (True, rows, None, 1, [0], None))]


def oracle_write_rows(fh, keys: np.ndarray, *values: np.ndarray) -> None:
    """``_rows.write_rows`` digit by digit: each field's digit count
    found by ``np.searchsorted`` among the powers of 10, then one masked
    store per digit position, 4,096 rows at a time."""
    n_cols = keys.shape[1] + len(values)
    seps = np.full(n_cols, ord(" "), dtype=np.uint8)
    seps[keys.shape[1] - 1 :] = ord("\t")
    seps[-1] = ord("\n")
    for lo in range(0, len(keys), 1 << 12):
        hi = lo + (1 << 12)
        flat = np.column_stack([keys[lo:hi], *(v[lo:hi] for v in values)]).astype(np.int64).ravel()
        n_digits = np.searchsorted(10 ** np.arange(1, 19, dtype=np.int64), flat, side="right") + 1
        ends = np.cumsum(n_digits + 1) - 1  # the separator after each field
        out = np.empty(int(ends[-1]) + 1, dtype=np.uint8)
        out[ends] = np.tile(seps, len(flat) // n_cols)
        for j in range(int(n_digits.max())):
            live = n_digits > j
            out[(ends - 1 - j)[live]] = ord("0") + flat[live] % 10
            flat //= 10
        fh.write(out.tobytes())


def assert_prob_matches_oracle(model, histories, extra_width: int = 0) -> None:
    """``model.prob`` equals ``oracle_prob`` bit for bit on every word
    after every history.  The rows hold ``extra_width`` more history
    columns than the model reads, -1 before the sentence start."""
    width = model.history_width + extra_width
    rows, want = [], []
    for h in map(list, histories):
        kept = h[max(len(h) - width, 0):]
        for w in range(model.n_words):
            rows.append([-1] * (width - len(kept)) + kept + [w])
            want.append(float.hex(oracle_prob(model, w, h)))
    got = model.prob(np.array(rows, dtype=np.int64).reshape(len(rows), width + 1))
    assert [float.hex(p) for p in got.tolist()] == want


def tiny_vocab(tokens: list[str]) -> Vocabulary:
    corpus = " ".join(tokens)
    return build_vocabulary(corpus.split())


CHECKLIST = {
    "test_01_criterion_equals_loglik_identity":
        "clustering criterion equals factored log-likelihood minus the word term",
    "test_02_move_deltas_match_scratch":
        "incremental move deltas match from-scratch recomputation",
    "test_03_greedy_matches_exhaustive_search":
        "greedy runs apply exactly the exhaustive best-improving move",
    "test_04_monotone_criterion_and_stopping_rule":
        "criterion never decreases; sweeps stop below the relative-gain threshold",
    "test_05_tree_grouping_beats_flat_on_sparse_contexts":
        "tree-grouped clustering beats flat on criterion and held-out perplexity",
    "test_06_distributions_normalize":
        "every model type sums to one over the vocabulary, unseen contexts included",
    "test_07_identity_clustering_reproduces_ml":
        "identity clustering with zero discount reproduces ML probabilities",
    "test_08_backoff_hand_case_and_exact_backoff":
        "discounted backoff hand case exact; unseen history gives lower order",
    "test_09_tuned_mixture_beats_components":
        "EM-tuned mixture is no worse than its best component, likelihood monotone",
    "test_10_cli_pipeline_reproducible":
        "full CLI pipeline byte-reproducible across runs from different directories",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per checklist item so the summary shows which end-to-end
    guarantees held."""
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "").split("::")[-1]
            if name in CHECKLIST:
                seen[name] = seen.get(name, True) and outcome == "passed"
    if not seen:
        return
    terminalreporter.write_sep("-", "behaviour checklist")
    for i, (name, desc) in enumerate(sorted(CHECKLIST.items()), 1):
        if name in seen:
            tag = "PASS" if seen[name] else "FAIL"
            terminalreporter.write_line(f"[{tag}] {i:2d}. {desc}")
