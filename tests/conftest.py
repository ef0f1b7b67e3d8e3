"""Shared corpus builders and fixtures."""

from __future__ import annotations

import math
import random

import numpy as np

from clusterlm._rows import tuples
from clusterlm.cluster import MoveDelta, _ranked_init, _start
from clusterlm.corpus import Vocabulary, build_vocabulary, encode_corpus, identity_mapper
from clusterlm.evaluate import EvalReport, _events, em_mixture_weights
from clusterlm.events import ContextSpec, EventTable, Slot, extract_events


def make_random_corpus(seed: int, n_sentences: int, n_words: int = 12,
                       min_len: int = 2, max_len: int = 9) -> list[str]:
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(n_words)]
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(n_sentences)
    ]


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
    mapper_holder = _placeholder_spec(n_words, depth)
    return EventTable.from_counts(mapper_holder, n_words, counts)


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
    from clusterlm.corpus import FeatureMapper

    mapper = FeatureMapper(
        name="w",
        table=np.arange(n_words, dtype=np.int32),
        arity=n_words,
        value_names=[f"w{i}" for i in range(n_words)],
    )
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


def oracle_tune_weights_em(components, sentences, *, eos_id=None, include_eos=True,
                           max_iters=100, tol=1e-6):
    """``tune_weights_em`` by a per-event loop: one scalar ``prob`` call
    per event and component fills the matrix, then the same EM and the
    same scoring of the tuned mixture."""
    rows = [
        [comp.prob(w, hist) for comp in components]
        for _, _, w, hist in _events(sentences, eos_id, include_eos)
    ]
    probs = np.asarray(rows, dtype=np.float64)
    weights, _ = em_mixture_weights(probs, max_iters=max_iters, tol=tol)
    mix = np.zeros(len(probs), dtype=np.float64)
    for k, lam in enumerate(weights):
        if lam != 0.0:
            mix += float(lam) * probs[:, k]
    total = math.fsum(math.log(p) for p in mix.tolist())
    report = EvalReport("interp", len(mix), total, math.exp(-total / len(mix)))
    return weights, report


def oracle_run(table, levels, params, on_move=None):
    """``cluster._run`` on the public ``Clustering`` methods: each
    visit profiles its unit with ``word_profile`` or ``group_profile``
    (which gathers every member context's row), takes the deltas from
    ``word_move_deltas`` or ``group_move_deltas`` and moves with
    ``apply_word_move`` or ``apply_group_move``, all of which check
    their ids and that a group lies in one state."""
    cl = _start(table, params, levels[0])
    for level in levels:
        units = [(-int(n), 0, w, "word") for w, n in enumerate(cl.word_counts.tolist())
                 if n >= params.min_count]
        units += [(-int(n), 1, k, "group") for k, n in enumerate(level.counts.tolist())
                  if n >= params.min_count]
        units.sort()
        f_prev = cl.criterion()
        for iterations in range(1, params.max_iterations + 1):
            for _, _, element, kind in units:
                if kind == "word":
                    prof = cl.word_profile(element)
                    deltas = cl.word_move_deltas(element, prof)
                    source = int(cl.G[element])
                else:
                    idx = level.group(element)
                    prof = cl.group_profile(idx)
                    deltas = cl.group_move_deltas(idx, prof)
                    source = int(cl.S[idx[0]])
                target = int(deltas.argmax())
                if not deltas[target] > 0.0:
                    continue
                if kind == "word":
                    cl.apply_word_move(element, target, prof)
                    key = element
                else:
                    cl.apply_group_move(idx, target, prof)
                    key = level.key(element)
                if on_move is not None:
                    on_move(cl, MoveDelta(kind, key, source, target, float(deltas[target])))
            f_now = cl.criterion()
            rel = (f_now - f_prev) / abs(f_prev) if f_prev != 0.0 else 0.0
            f_prev = f_now
            if rel < params.convergence:
                break
        cl.iterations_per_level.append(iterations)
    return cl


def assert_array_matches_scalar(model, histories, extra_width: int = 0) -> None:
    """``prob_array`` equals the scalar ``prob`` bit for bit on every
    word after every history.  The rows hold ``extra_width`` more
    history columns than the model reads, -1 before the sentence start."""
    width = model.history_width + extra_width
    rows, want = [], []
    for h in map(list, histories):
        kept = h[max(len(h) - width, 0):]
        for w in range(model.n_words):
            rows.append([-1] * (width - len(kept)) + kept + [w])
            want.append(float.hex(model.prob(w, h)))
    got = model.prob_array(np.array(rows, dtype=np.int64).reshape(len(rows), width + 1))
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
