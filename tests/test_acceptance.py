"""Behaviour checklist for the whole package: ten guarantees, one test
each, every one checked against an independent oracle or a hand-worked
value.  conftest's terminal-summary hook prints one [PASS]/[FAIL] line
per item after the run.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

from clusterlm.cluster import (
    ClusterParams,
    Clustering,
    _ranked_init,
    _sweep,
    run_flat,
    run_tree,
)
from clusterlm.corpus import encode_corpus
from clusterlm.ctxtree import build_suffix_tree
from clusterlm.evaluate import em_mixture_weights, perplexity
from clusterlm.models import (
    BackoffModel,
    ClassLM,
    InterpolatedModel,
    ngram_counts,
    train_backoff,
)

from conftest import (
    ScriptedClustering,
    _events,
    backoff_dicts,
    build_table,
    count_arrays,
    grouped_states,
    make_class_corpus,
    marginals,
    make_random_corpus,
    oracle_context,
    query,
    query_words,
    random_event_table,
    suffix_groups,
)
from test_cluster import Shadow


def random_instance(rng):
    """Random sparse count table plus a random (not greedy-initial)
    assignment, so oracle identities are checked off the optimization
    path too."""
    n_words = rng.randint(5, 14)
    depth = rng.randint(1, 3)
    # the context space has n_words**depth points; do not ask for more
    max_ctx = min(40, n_words ** depth)
    table = random_event_table(
        rng, n_words=n_words, n_contexts=rng.randint(min(6, max_ctx), max_ctx),
        depth=depth, max_count=7,
    )
    n_cats = rng.randint(2, 5)
    n_states = rng.randint(2, 6)
    G = [rng.randrange(n_cats) for _ in range(n_words)]
    S = [rng.randrange(n_states) for _ in range(table.n_contexts)]
    return Clustering(table, n_cats, n_states, G, S)


def factored_loglik(clustering):
    """Training log-likelihood of the factored model under ML estimates,
    summed directly over the raw events: each event with count n
    contributes n * ln[ p(category|state) * p(word|category) ]."""
    table = clustering.table
    _, word_marg = marginals(table)
    counts = table.counts
    contexts = sorted(counts)
    G, S = clustering.G, clustering.S
    joint = {}
    state_tot = {}
    cat_tot = {}
    for i, c in enumerate(contexts):
        s = int(S[i])
        for w, n in counts[c].items():
            g = int(G[w])
            joint[s, g] = joint.get((s, g), 0) + n
            state_tot[s] = state_tot.get(s, 0) + n
            cat_tot[g] = cat_tot.get(g, 0) + n
    terms = []
    for i, c in enumerate(contexts):
        s = int(S[i])
        for w, n in counts[c].items():
            g = int(G[w])
            p = (joint[s, g] / state_tot[s]) * (word_marg[w] / cat_tot[g])
            terms.append(n * math.log(p))
    return math.fsum(terms)


class TestChecklist:
    def test_01_criterion_equals_loglik_identity(self):
        """F == factored training log-likelihood minus the assignment-
        independent word term sum_w N(w) ln N(w), on >= 100 random
        instances."""
        t0 = time.monotonic()
        rng = random.Random(20260815)
        for _ in range(120):
            cl = random_instance(rng)
            word_term = math.fsum(
                n * math.log(n) for n in marginals(cl.table)[1].values()
            )
            expect = factored_loglik(cl) - word_term
            assert math.isclose(cl.criterion(), expect, rel_tol=1e-9, abs_tol=1e-9)
        assert time.monotonic() - t0 < 10.0

    def test_02_move_deltas_match_scratch(self):
        """1000 word-moves and 1000 group-moves per instance: the
        incremental delta equals criterion-after minus criterion-before,
        recomputed from scratch."""
        t0 = time.monotonic()
        rng = random.Random(4242)
        for _ in range(3):
            cl = random_instance(rng)
            states_of = {}
            for i in range(cl.table.n_contexts):
                states_of.setdefault(int(cl.S[i]), []).append(i)
            for _ in range(1000):
                w = rng.randrange(cl.n_words)
                src = int(cl.G[w])
                t = rng.randrange(cl.n_categories)
                delta = cl.word_move_deltas(w)[t]
                if t == src:
                    assert delta == 0.0
                    continue
                before = cl.criterion()
                cl.apply_word_move(w, t)
                after = cl.criterion()
                assert math.isclose(delta, after - before, rel_tol=1e-9, abs_tol=1e-9)
                if rng.random() < 0.7:
                    cl.apply_word_move(w, src)
            for _ in range(1000):
                members = states_of[rng.choice(list(states_of))]
                group = rng.sample(members, rng.randint(1, min(3, len(members))))
                idx = np.asarray(sorted(group))
                src = int(cl.S[idx[0]])
                t = rng.randrange(cl.n_states)
                delta = cl.group_move_deltas(idx)[t]
                if t == src:
                    assert delta == 0.0
                    continue
                before = cl.criterion()
                cl.apply_group_move(idx, t)
                after = cl.criterion()
                assert math.isclose(delta, after - before, rel_tol=1e-9, abs_tol=1e-9)
                cl.apply_group_move(idx, src)
        assert time.monotonic() - t0 < 30.0

    def test_03_greedy_matches_exhaustive_search(self):
        """On tiny instances (<= 10 words, <= 12 contexts, 3 categories,
        3 states) every applied move equals the move an exhaustive
        from-scratch search over all targets would pick, ties broken
        toward the lowest-numbered target."""
        t0 = time.monotonic()
        params = ClusterParams(
            n_categories=3, n_states=3, min_count=1, convergence=0.001
        )
        for seed in range(6):
            sents = make_random_corpus(seed, n_sentences=10, n_words=7,
                                       min_len=2, max_len=5)
            vocab, enc, table = build_table(sents, offsets=(-1,))
            assert len(vocab) <= 10 and table.n_contexts <= 12
            trace = []
            cl = run_flat(table, params, on_move=lambda c, m: trace.append(
                (m.kind, m.element, m.source, m.target)))
            expect, sh = exhaustive_greedy(table, params)
            assert trace and trace == expect
            assert list(cl.G) == sh.G and list(cl.S) == sh.S
        for seed in (1000, 1012, 1019, 1022, 1025, 1026):
            sents = make_random_corpus(seed, n_sentences=7, n_words=4,
                                       min_len=2, max_len=4)
            vocab, enc, table = build_table(sents, offsets=(-2, -1))
            assert len(vocab) <= 10 and table.n_contexts <= 12
            tree = build_suffix_tree(table)
            trace = []
            cl = run_tree(table, tree, params, on_move=lambda c, m: trace.append(
                (m.kind, m.element, m.source, m.target)))
            expect, sh = exhaustive_greedy(table, params, tree=True)
            assert trace and trace == expect
            assert list(cl.G) == sh.G and list(cl.S) == sh.S
        assert time.monotonic() - t0 < 10.0

    def test_04_monotone_criterion_and_stopping_rule(self, directional):
        """Every applied move strictly improves the criterion; sweeping
        stops at the first pass whose relative gain falls below the
        convergence threshold; sweeps per level stay small on natural
        corpora (soft check)."""
        sents = make_random_corpus(77, n_sentences=60, n_words=12)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = ClusterParams(n_categories=4, n_states=6, min_count=2)
        for run in (lambda cb: run_flat(table, params, on_move=cb),
                    lambda cb: run_tree(table, tree, params, on_move=cb)):
            values = []
            cl = run(lambda c, m: values.append((m.delta, c.criterion())))
            assert values
            assert all(d > 0.0 for d, _ in values)
            for (_, f1), (_, f2) in zip(values, values[1:]):
                assert f2 >= f1 - 1e-9

        stop_params = ClusterParams(n_categories=1, n_states=1,
                                    max_iterations=50, convergence=0.01)
        # 10% gain -> sweep again; then 5/900 < 1% -> stop after pass 2
        # (each pass moves the scripted clustering's one unit)
        sc = ScriptedClustering([-1000.0, -900.0, -895.0])
        assert _sweep(sc, sc.units(), stop_params, None) == 2
        sc = ScriptedClustering([-1000.0, -900.0, -891.0, -890.9])
        assert _sweep(sc, sc.units(), stop_params, None) == 3

        for label, iters in (("tree", directional["tree"].iterations_per_level),
                             ("flat", [directional["flat"].iterations_run])):
            if any(n > 3 for n in iters):
                warnings.warn(f"{label} clustering used {iters} sweeps per level")

    def test_05_tree_grouping_beats_flat_on_sparse_contexts(self, directional):
        """On a corpus where most distinct contexts are rare, clustering
        with suffix-grouped moves reaches a higher criterion and a lower
        held-out perplexity than flat per-context moves."""
        d = directional
        below = sum(1 for n in marginals(d["table"])[0].values() if n < 6)
        assert below / d["table"].n_contexts >= 0.80
        assert d["tree"].criterion() >= d["flat"].criterion()
        assert d["pp_tree"] <= d["pp_flat"]
        assert d["elapsed"] < 120.0

    def test_06_distributions_normalize(self, directional):
        """Every model type sums to 1 over the vocabulary on random
        contexts, including contexts never seen in training."""
        t0 = time.monotonic()
        d = directional
        vocab = d["vocab"]
        n = len(vocab)
        tri = train_backoff(
            ngram_counts(d["enc_train"], 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
            n, bos_id=vocab.bos_id)
        uni = train_backoff(
            ngram_counts(d["enc_train"], 1, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
            n, bos_id=vocab.bos_id)
        models = [
            ClassLM(d["tree"], vocab, discount=0.5),
            ClassLM(d["flat"], vocab, discount=0.3),
            tri,
            uni,
            InterpolatedModel([ClassLM(d["tree"], vocab), tri], [0.4, 0.6]),
        ]
        rng = random.Random(99)
        histories = [
            tuple(rng.randrange(n) for _ in range(rng.randint(0, 4)))
            for _ in range(100)
        ]
        for model in models:
            for hist in histories:
                total = math.fsum(query_words(model, hist))
                assert abs(total - 1.0) <= 1e-6
        assert time.monotonic() - t0 < 30.0

    def test_07_identity_clustering_reproduces_ml(self):
        """One state per context, one category per word, zero discount:
        the class model degenerates to the ML context n-gram, seen-event
        probabilities bitwise and training perplexity to 1e-9."""
        sents = make_random_corpus(31, n_sentences=80, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        cl = Clustering(
            table, table.n_words, table.n_contexts,
            np.arange(table.n_words), np.arange(table.n_contexts),
        )
        model = ClassLM(cl, vocab, discount=0.0)
        ctx_marg, _ = marginals(table)
        counts = table.counts
        for c, row in counts.items():
            total = ctx_marg[c]
            for w, n in row.items():
                # the mapper is the identity, so the context is a history
                assert query(model, w, c) == n / total
        logs = []
        for _, _, w, hist in _events(enc, vocab.eos_id, True):
            c = oracle_context(model, hist)
            logs.append(math.log(counts[c][w] / ctx_marg[c]))
        pp_ml = math.exp(-math.fsum(logs) / len(logs))
        report = perplexity(model, enc, eos_id=vocab.eos_id)
        assert report.token_count == len(logs)
        assert math.isclose(report.perplexity, pp_ml, rel_tol=1e-9)

    def test_08_backoff_hand_case_and_exact_backoff(self):
        """Counts a:3 b:2, aa:2 ab:1 with discount 0.5 give p(a|a)=0.7
        and p(b|a)=0.3 exactly; an unseen history falls through to the
        lower-order distribution bitwise."""
        # every query below gives a full history, so the begin id is never read
        model = train_backoff(count_arrays([{(0,): 3, (1,): 2}, {(0, 0): 2, (0, 1): 1}]),
                              n_words=2, discount=0.5, bos_id=1)
        assert query(model, 0, [0]) == 0.7
        assert query(model, 1, [0]) == 0.3
        for w in range(2):
            assert query(model, w, [1]) == model.uni[w]

        sents = make_random_corpus(13, n_sentences=50, n_words=8)
        vocab, enc, _ = build_table(sents)
        counts = ngram_counts(enc, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
        tri = train_backoff(counts, len(vocab), bos_id=vocab.bos_id)
        bi = train_backoff(counts[:2], len(vocab), bos_id=vocab.bos_id)
        unseen = [h for a in range(len(vocab)) for b in range(len(vocab))
                  if (h := (a, b)) not in backoff_dicts(tri).bows[3]][:40]
        assert unseen
        for h in unseen:
            for w in range(len(vocab)):
                assert query(tri, w, h) == query(bi, w, [h[1]])

    def test_09_tuned_mixture_beats_components(self, directional):
        """EM weights tuned on held-out data: the mixture's held-out
        perplexity is no worse than the best single component, and the
        held-out likelihood climbs monotonically."""
        d = directional
        vocab = d["vocab"]
        class_tree = ClassLM(d["tree"], vocab, discount=0.5)
        tri = train_backoff(
            ngram_counts(d["enc_train"], 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
            len(vocab), bos_id=vocab.bos_id)
        components = [class_tree, tri]
        rows = np.array([
            [query(m, w, hist) for m in components]
            for _, _, w, hist in _events(d["enc_held"], vocab.eos_id, True)
        ])
        weights, history = em_mixture_weights(rows, max_iters=200)
        for a, b in zip(history, history[1:]):
            assert b >= a - 1e-9
        mix = InterpolatedModel(components, weights)
        pps = [perplexity(m, d["enc_held"], eos_id=vocab.eos_id).perplexity
               for m in components + [mix]]
        assert pps[-1] <= min(pps[:-1]) * (1 + 1e-6)

    def test_10_cli_pipeline_reproducible(self, tmp_path, monkeypatch, capsys):
        """The whole command pipeline (vocabulary, word-context counts,
        tree clustering + class model, class export, class-context
        counts, second clustering + model, n-gram training, weight
        tuning, evaluation) writes byte-identical artifacts, manifests
        included, when run twice from different directories."""
        from clusterlm.cli import main

        t0 = time.monotonic()
        train = "\n".join(make_class_corpus(11, 600)) + "\n"
        held = "\n".join(make_class_corpus(12, 100)) + "\n"
        assert len(train.split()) <= 100_000

        def run(args):
            rc = main([str(a) for a in args])
            out, err = capsys.readouterr()
            assert rc == 0, err or out

        def pipeline(root):
            root.mkdir()
            (root / "train.txt").write_text(train)
            (root / "held.txt").write_text(held)
            monkeypatch.chdir(root)
            run(["vocab", "build", "--corpus", "train.txt", "--out", "vocab.txt",
                 "--manifest", "m1.tsv"])
            run(["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
                 "--context", "w:-2,w:-1", "--out", "wcounts.tsv",
                 "--manifest", "m2.tsv"])
            run(["cluster", "run", "--counts", "wcounts.tsv", "--tree",
                 "--states", "20", "--categories", "10", "--min-count", "6",
                 "--out", "wclusters.tsv", "--vocab", "vocab.txt",
                 "--model-out", "classtree.model", "--manifest", "m3.tsv"])
            run(["classes", "export", "--clustering", "wclusters.tsv",
                 "--counts", "wcounts.tsv", "--vocab", "vocab.txt",
                 "--out", "classes.tsv", "--manifest", "m4.tsv"])
            run(["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
                 "--context", "g:-2,w:-1", "--classmap", "classes.tsv",
                 "--out", "gcounts.tsv", "--manifest", "m5.tsv"])
            run(["cluster", "run", "--counts", "gcounts.tsv", "--tree",
                 "--states", "20", "--categories", "10", "--min-count", "6",
                 "--out", "gclusters.tsv", "--vocab", "vocab.txt",
                 "--model-out", "classg.model",
                 "--manifest", "m6.tsv"])
            run(["ngram", "train", "--corpus", "train.txt", "--vocab", "vocab.txt",
                 "--order", "3", "--out", "backoff.model", "--manifest", "m7.tsv"])
            run(["interp", "tune", "--models", "classtree.model", "classg.model",
                 "backoff.model", "--heldout", "held.txt", "--vocab", "vocab.txt",
                 "--out", "mix.model", "--manifest", "m8.tsv"])
            run(["eval", "ppl", "--model", "mix.model", "--test", "held.txt",
                 "--vocab", "vocab.txt", "--report", "eval.tsv"])
            return {
                p.name: p.read_bytes()
                for p in sorted(root.iterdir())
                if p.name not in ("train.txt", "held.txt")
            }

        first = pipeline(tmp_path / "run_a")
        second = pipeline(tmp_path / "run_b")
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        assert len(first) >= 17
        assert time.monotonic() - t0 < 300.0


@pytest.fixture(scope="module")
def directional():
    """Shared sparse-context corpus, both clustering runs, and held-out
    class-model perplexities."""
    t0 = time.monotonic()
    train = make_class_corpus(11, 600)
    held = make_class_corpus(12, 100)
    vocab, enc_train, table = build_table(train, offsets=(-2, -1))
    enc_held = encode_corpus(held, vocab)
    params = ClusterParams(n_categories=10, n_states=20, min_count=6)
    flat = run_flat(table, params)
    tree = run_tree(table, build_suffix_tree(table), params)
    pp = {
        name: perplexity(ClassLM(cl, vocab, discount=0.5), enc_held,
                         eos_id=vocab.eos_id).perplexity
        for name, cl in (("flat", flat), ("tree", tree))
    }
    return {
        "vocab": vocab,
        "enc_train": enc_train,
        "enc_held": enc_held,
        "table": table,
        "flat": flat,
        "tree": tree,
        "pp_flat": pp["flat"],
        "pp_tree": pp["tree"],
        "elapsed": time.monotonic() - t0,
    }


def exhaustive_greedy(table, params, tree=False):
    """Reference greedy loop whose move choice recomputes the full
    criterion from scratch for every candidate target: visit units by
    descending count (words before context groups at equal count),
    apply the best strictly-improving move, lowest target on ties."""
    ctx_marg, word_marg = marginals(table)
    word_counts = [word_marg.get(w, 0) for w in range(table.n_words)]
    ctx_counts = [ctx_marg[c] for c in sorted(ctx_marg)]
    G = list(_ranked_init(word_counts, params.n_categories))
    depth = table.spec.depth
    if tree:
        S = grouped_states(table, params.n_states)
        level_groups = [suffix_groups(table, level) for level in range(1, depth + 1)]
    else:
        S = list(_ranked_init(ctx_counts, params.n_states))
        level_groups = [suffix_groups(table, depth)]
    sh = Shadow(table, params.n_categories, params.n_states, G, S)
    trace = []

    def scratch_deltas(n_targets, src, apply):
        base = sh.criterion()
        deltas = []
        for t in range(n_targets):
            if t == src:
                deltas.append(0.0)
                continue
            apply(t)
            deltas.append(sh.criterion() - base)
            apply(src)
        return deltas

    for groups in level_groups:
        units = [(-word_counts[w], 0, w, "word", w, None)
                 for w in range(table.n_words)
                 if word_counts[w] >= params.min_count]
        units += [(-n, 1, ordinal, "group", key, idx)
                  for ordinal, (key, idx, n) in enumerate(groups)
                  if n >= params.min_count]
        units.sort(key=lambda u: u[:3])
        f_prev = sh.criterion()
        for _ in range(params.max_iterations):
            for _, _, _, kind, element, idx in units:
                if kind == "word":
                    src = sh.G[element]
                    deltas = scratch_deltas(params.n_categories, src,
                                            lambda t: sh.apply_word(element, t))
                    target = deltas.index(max(deltas))
                    if deltas[target] > 0.0:
                        trace.append(("word", element, src, target))
                        sh.apply_word(element, target)
                else:
                    src = sh.S[idx[0]]
                    deltas = scratch_deltas(params.n_states, src,
                                            lambda t: sh.apply_group(idx, t))
                    target = deltas.index(max(deltas))
                    if deltas[target] > 0.0:
                        trace.append(("group", element, src, target))
                        sh.apply_group(idx, target)
            f_now = sh.criterion()
            gain = f_now - f_prev
            rel = gain / abs(f_prev) if f_prev != 0.0 else 0.0
            f_prev = f_now
            if rel < params.convergence:
                break
    return trace, sh
