"""Class-factored, backoff and interpolated language models."""

import functools
import itertools
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm._rows import Keys, Reader, sum_rows, tuples
from clusterlm.cluster import (
    Clustering,
    ClusterParams,
    load_clustering,
    run_flat,
    run_tree,
    save_clustering,
)
from clusterlm.corpus import (
    FeatureMapper,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    identity_mapper,
    load_feature_map,
)
from clusterlm.ctxtree import build_suffix_tree
from clusterlm.events import (
    ContextSpec,
    EventTable,
    Slot,
    event_rows,
    extract_events,
    load_counts,
    save_counts,
)
from clusterlm.models import (
    BackoffModel,
    ClassLM,
    InterpolatedModel,
    load_backoff,
    load_classlm,
    load_interpolated,
    load_model,
    ngram_counts,
    save_backoff,
    save_classlm,
    save_interpolated,
    train_backoff,
)

from conftest import (
    assert_prob_matches_oracle,
    backoff_dicts,
    build_table,
    class_dicts,
    count_arrays,
    count_dicts,
    full_tables,
    make_random_corpus,
    marginals,
    oracle_backoff,
    oracle_backoff_prob,
    oracle_class_prob,
    oracle_context,
    oracle_ngram_counts,
    oracle_prob,
    oracle_state,
    query,
    query_words,
    random_event_table,
    table_from_counts,
    tiny_vocab,
    unpruned_classlm,
)


def identity_clustering(table):
    """Each word its own category, each context its own state."""
    G = np.arange(table.n_words, dtype=np.int32)
    S = np.arange(table.n_contexts, dtype=np.int32)
    return Clustering(table, table.n_words, table.n_contexts, G, S)


def hand_table(vocab, counts, depth=1, arity=16):
    # the mapper maps exactly the vocabulary's words; its arity leaves
    # room for hand-written context values beyond them
    mapper = FeatureMapper("w", np.arange(len(vocab), dtype=np.int32), arity)
    spec = ContextSpec(slots=tuple(Slot(offset=o, mapper=mapper) for o in range(-depth, 0)))
    return table_from_counts(spec, counts)


class TestClassLM:
    def test_identity_clustering_gives_ml_conditional(self):
        # two contexts, two words: p(a | c1) must come out 2/3 exactly
        vocab = build_vocabulary("a b".split())
        a, b = vocab.ids["a"], vocab.ids["b"]
        table = hand_table(vocab, {(0,): {a: 2, b: 1}, (1,): {a: 1, b: 2}})
        G = np.zeros(len(vocab), dtype=np.int32)
        G[a], G[b] = 0, 1
        G[vocab.bos_id] = G[vocab.eos_id] = G[vocab.unk_id] = 2
        cl = Clustering(table, 3, 2, G, np.asarray([0, 1], dtype=np.int32))
        lm = ClassLM(cl, vocab, discount=0.0)
        # the mapper is the identity, so a one-word history is its context
        assert query(lm, a, [0]) == 2.0 / 3.0
        assert query(lm, b, [0]) == 1.0 / 3.0
        assert query(lm, a, [1]) == 1.0 / 3.0

    def test_identity_collapse_matches_relative_frequencies_bitwise(self):
        sents = make_random_corpus(21, n_sentences=40, n_words=10)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        lm = ClassLM(identity_clustering(table), vocab, discount=0.0)
        for ctx, row in table.counts.items():
            n_c = sum(row.values())
            for w, n in row.items():
                assert query(lm, w, ctx) == n / n_c

    def test_zero_count_category_probability_is_zero(self):
        vocab = build_vocabulary("a b".split())
        a, b = vocab.ids["a"], vocab.ids["b"]
        table = hand_table(vocab, {(0,): {a: 2, b: 1}})
        G = np.zeros(len(vocab), dtype=np.int32)
        G[b] = 1
        G[vocab.unk_id] = 2  # never observed
        cl = Clustering(table, 3, 1, G, np.zeros(1, dtype=np.int32))
        lm = ClassLM(cl, vocab, discount=0.5)
        assert query(lm, vocab.unk_id, [0]) == 0.0

    @pytest.mark.parametrize("discount", [0.0, 0.25, 0.5, 0.9])
    def test_distribution_normalizes_over_vocabulary(self, discount):
        rng = random.Random(31)
        sents = make_random_corpus(33, n_sentences=50, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        clu = run_tree(table, tree, ClusterParams(n_categories=4, n_states=5, min_count=2))
        lm = ClassLM(clu, vocab, discount=discount)
        contexts = list(table.counts)[:5]
        # unseen: the end token never occurs inside a context, so these
        # resolve through the suffix (contexts[0][1],) and to the default
        eos = vocab.eos_id
        contexts += [(eos, contexts[0][1]), (eos, eos)]
        for ctx in contexts:
            s = math.fsum(query_words(lm, ctx))
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_probabilities_positive_for_observed_words(self):
        sents = make_random_corpus(35, n_sentences=30, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        clu = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
        lm = ClassLM(clu, vocab, discount=0.5)
        counts = table.counts
        word_marg = marginals(table)[1]
        for ctx in counts:
            probs = query_words(lm, ctx)
            for w, n in word_marg.items():
                if n > 0:
                    assert probs[w] > 0.0

    def test_suffix_fallback_prefers_heaviest_state(self):
        vocab = build_vocabulary("a".split())
        a = vocab.ids["a"]
        table = hand_table(
            vocab,
            {(0, 5): {a: 4}, (1, 5): {a: 1}, (2, 6): {a: 9}},
            depth=2,
        )
        G = np.zeros(len(vocab), dtype=np.int32)
        cl = Clustering(table, 1, 2, G, np.asarray([0, 0, 1], dtype=np.int32))
        lm = ClassLM(cl, vocab, discount=0.0)
        probes = {
            (0, 5): 0,  # seen exactly
            (3, 5): 0,  # suffix (5,) lives in state 0
            (3, 6): 1,  # suffix (6,) lives in state 1
            (9, 9): 1,  # nothing seen: heaviest state
        }
        assert states_of(lm, list(probes)) == list(probes.values())
        assert [oracle_state(lm, c) for c in probes] == list(probes.values())

    def test_suffix_fallback_tie_takes_lower_state(self):
        vocab = build_vocabulary("a".split())
        a = vocab.ids["a"]
        table = hand_table(vocab, {(0, 5): {a: 4}, (1, 5): {a: 4}}, depth=2)
        G = np.zeros(len(vocab), dtype=np.int32)
        cl = Clustering(table, 1, 2, G, np.asarray([1, 0], dtype=np.int32))
        lm = ClassLM(cl, vocab, discount=0.0)
        # suffix (5,) is split 4/4 between states 1 and 0
        assert states_of(lm, [(3, 5)]) == [oracle_state(lm, (3, 5))] == [0]

    def test_context_tuple_length_checked(self):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        lm = ClassLM(identity_clustering(table), vocab)
        with pytest.raises(ValueError, match="length"):
            oracle_state(lm, (0, 0))
        # a query row without the one history column the model reads
        with pytest.raises(ValueError, match="at least 1 history column"):
            lm.prob(np.array([[0]]))

    def test_history_mapping_pads_with_begin_token(self):
        vocab, enc, table = build_table(["a b a", "b a"], offsets=(-2, -1))
        a, b = vocab.ids["a"], vocab.ids["b"]
        lm = ClassLM(identity_clustering(table), vocab)
        bos = vocab.bos_id
        for history, context in (([], (bos, bos)), ([a], (bos, a)), ([a, b], (a, b)),
                                 ([b, a, b], (a, b))):
            assert oracle_context(lm, history) == context
            # the identity mapper maps a history of begin tokens as the padding
            assert query_words(lm, history) == query_words(lm, list(context))
        assert query(lm, a, [b, a, b]) == oracle_class_prob(lm, a, (a, b))

    def test_word_range_and_discount_validation(self):
        vocab, enc, table = build_table(["a b"], offsets=(-1,))
        lm = ClassLM(identity_clustering(table), vocab)
        with pytest.raises(ValueError, match="word id"):
            query(lm, table.n_words, [])
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="discount"):
                ClassLM(identity_clustering(table), vocab, discount=bad)

    def test_save_load_round_trip(self, tmp_path):
        sents = make_random_corpus(41, n_sentences=40, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        clu = run_tree(table, tree, ClusterParams(n_categories=4, n_states=4, min_count=2))
        lm = ClassLM(clu, vocab, discount=0.3)

        save_classlm(lm, tmp_path / "model.classlm")
        loaded = load_classlm(tmp_path / "model.classlm")
        assert loaded.discount == lm.discount
        assert len(loaded.tables) == len(lm.tables) == lm.depth
        for (keys, values), (keys_lm, values_lm) in zip(
            [loaded.joint, *loaded.tables], [lm.joint, *lm.tables]
        ):
            assert np.array_equal(keys.rows(), keys_lm.rows())
            assert np.array_equal(values, values_lm)
        assert_same_probs(lm, loaded, probe_contexts(table, vocab))
        rng = random.Random(1)
        a, b = vocab.ids["w0"], vocab.ids["w1"]
        for _ in range(50):
            w = rng.randrange(table.n_words)
            hist = [rng.choice([a, b]) for _ in range(rng.randint(0, 3))]
            assert query(loaded, w, hist) == query(lm, w, hist)

    def test_load_rejects_v1_file(self, tmp_path):
        p = tmp_path / "model.classlm"
        p.write_text("#clusterlm-classlm v1\n#discount\t0.5\n#vocab\tvocab.txt\n")
        for load in (load_classlm, load_model):
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))} is a v1 .* re-run"):
                load(p)

    def test_load_rejects_v2_file_with_a_rerun_hint(self, tmp_path):
        p = tmp_path / "model.classlm"
        p.write_text("#clusterlm-classlm v2\n#discount\t0.5\n#n_words\t5\n")
        hint = f"{p} is a v2 class model, which kept its own copy of the context slots; " \
            "re-run `clusterlm cluster run --model-out` to write a v3 model"
        for load in (load_classlm, load_model):
            with pytest.raises(ValueError, match=f"^{re.escape(hint)}$"):
                load(p)

    def test_mapper_table_must_cover_vocabulary(self):
        # a hand-built table whose mapper covers only the first few words:
        # the table has that many words, so a later word id is out of its
        # range, and a model of the vocabulary rejects a clustering of it
        sents = make_random_corpus(43, n_sentences=20, n_words=6)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        short = FeatureMapper("w", np.arange(3), len(vocab))
        spec = ContextSpec((Slot(-2, short), Slot(-1, short)))
        with pytest.raises(ValueError, match=r"word ids outside \[0, 3\)"):
            table_from_counts(spec, table.counts)
        few = {c: {w: n for w, n in row.items() if w < 3} for c, row in table.counts.items()}
        hand = table_from_counts(spec, {c: row for c, row in few.items() if row})
        clu = run_flat(hand, ClusterParams(n_categories=3, n_states=3, min_count=1))
        with pytest.raises(ValueError, match="^clustering and vocabulary differ in size$"):
            ClassLM(clu, vocab)


def states_of(lm, contexts):
    """The class model's state of each mapped context tuple."""
    return lm._resolve_states(np.array(contexts, dtype=np.int64)).tolist()


def probe_contexts(table, vocab):
    """The training contexts of the counts ``table``, contexts resolved
    through each suffix length, and fully unseen ones.  The end token
    never occurs inside a context."""
    eos, depth = vocab.eos_id, table.spec.depth
    seen = [tuple(c) for c in table.contexts.tolist()]
    probes = list(seen)
    for keep in range(1, depth):
        probes += [(eos,) * (depth - keep) + c[depth - keep :] for c in seen[::3]]
    probes.append((eos,) * depth)
    return probes


def assert_same_probs(a, b, contexts):
    """Bit-identical state and probability of every word in every
    context, and the states equal the oracle's."""
    states = states_of(a, contexts)
    assert states == states_of(b, contexts) == [oracle_state(a, c) for c in contexts]
    for ctx in contexts:
        for w in range(a.n_words):
            assert oracle_class_prob(a, w, ctx) == oracle_class_prob(b, w, ctx)


class TestClassLMFile:
    """The self-contained v2 class model file."""

    @staticmethod
    @functools.cache
    def model(depth, seed=47):
        sents = make_random_corpus(seed, n_sentences=60, n_words=8)
        vocab, enc, table = build_table(sents, offsets=tuple(range(-depth, 0)))
        params = ClusterParams(n_categories=4, n_states=5, min_count=2)
        if depth > 1:
            clu = run_tree(table, build_suffix_tree(table), params)
        else:
            clu = run_flat(table, params)
        return ClassLM(clu, vocab, discount=0.4), vocab, enc, table

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_round_trip_is_bit_identical(self, tmp_path, depth):
        lm, vocab, enc, table = self.model(depth)
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        loaded = load_classlm(path)
        probes = probe_contexts(table, vocab)
        assert any(c not in class_dicts(lm).state_of for c in probes)
        assert_same_probs(lm, loaded, probes)
        for sent in enc[:10]:
            for i in range(len(sent) + 1):
                assert query_words(loaded, sent[:i]) == query_words(lm, sent[:i])
        # a reloaded model writes the same bytes
        save_classlm(loaded, tmp_path / "again.classlm")
        assert (tmp_path / "again.classlm").read_bytes() == path.read_bytes()
        # no view that keeps the whole parsed #words section alive
        for array in (loaded.word_counts, loaded.G):
            assert array.base is None

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), n_states=st.integers(1, 4))
    def test_fallback_matches_dict_oracle(self, seed, n_states):
        rng = random.Random(seed)
        vocab = tiny_vocab(["a", "b", "c"])
        table = random_event_table(rng, len(vocab), rng.randint(n_states, 25), depth=3, max_count=3)
        G = [rng.randrange(2) for _ in range(len(vocab))]
        S = [rng.randrange(n_states) for _ in range(table.n_contexts)]
        lm = ClassLM(Clustering(table, 2, n_states, G, S), vocab)
        # each proper suffix resolves to its event-weighted majority state,
        # ties to the lower id, and each training context to its own state
        for keep, expected in enumerate(full_tables(table, S), 1):
            rows = np.array(list(expected), dtype=np.int64).reshape(len(expected), keep)
            assert states_of(lm, rows) == list(expected.values())

    def test_cli_model_loads_without_its_training_files(self, tmp_path, capsys):
        from clusterlm.cli import main

        d = tmp_path
        (d / "train.txt").write_text("\n".join(make_random_corpus(59, 80, n_words=10)) + "\n")

        def run(*args):
            assert main([str(a) for a in args]) == 0, capsys.readouterr()

        run("vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt")
        run("counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
            "--context", "w:-1", "--out", d / "c1.tsv")
        run("cluster", "run", "--counts", d / "c1.tsv", "--states", "4", "--categories", "4",
            "--min-count", "2", "--out", d / "cl1.tsv")
        run("classes", "export", "--clustering", d / "cl1.tsv", "--counts", d / "c1.tsv",
            "--vocab", d / "v.txt", "--out", d / "classes.tsv")
        run("counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
            "--context", "g:-2,w:-1", "--classmap", d / "classes.tsv", "--out", d / "c2.tsv")
        run("cluster", "run", "--counts", d / "c2.tsv", "--tree", "--states", "5",
            "--categories", "4", "--min-count", "2", "--out", d / "cl2.tsv",
            "--vocab", d / "v.txt", "--model-out", d / "m.classlm")

        vocab = Vocabulary.load(d / "v.txt")
        mappers = {"w": identity_mapper(vocab),
                   "g": load_feature_map(d / "classes.tsv", vocab, "g")}
        table = load_counts(d / "c2.tsv")  # the counts carry the class map
        for slot, name in zip(table.spec.slots, "gw"):
            assert slot.mapper.name == name and slot.mapper.arity == mappers[name].arity
            np.testing.assert_array_equal(slot.mapper.table, mappers[name].table)
        built = ClassLM(load_clustering(d / "cl2.tsv", table), vocab, discount=0.5)
        g = built.spec.slots[0].mapper
        assert g.name == "g" and g.table[built.bos_id] != vocab.bos_id == built.bos_id
        for name in ("v.txt", "c1.tsv", "cl1.tsv", "classes.tsv", "c2.tsv", "cl2.tsv", "train.txt"):
            (d / name).unlink()
        loaded = load_model(d / "m.classlm")
        assert_same_probs(built, loaded, probe_contexts(table, vocab))
        hist = [vocab.ids["w3"], vocab.ids["w1"]]
        for i in range(3):
            assert query_words(loaded, hist[:i]) == query_words(built, hist[:i])

    def test_truncation_at_every_line_is_rejected(self, tmp_path):
        lm, vocab, enc, table = self.model(2)
        save_classlm(lm, tmp_path / "m.classlm")
        lines = (tmp_path / "m.classlm").read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.classlm"
        for k in range(len(lines)):
            cut.write_text("".join(lines[:k]))
            with pytest.raises(ValueError):
                load_classlm(cut)
            cut.write_text("".join(lines[:k]) + lines[k][: len(lines[k]) // 2])
            with pytest.raises(ValueError):
                load_classlm(cut)

    CORRUPTIONS = {
        "v1 header": lambda L: ["#clusterlm-classlm v1"] + L[1:],
        "v2 header": lambda L: ["#clusterlm-classlm v2"] + L[1:],
        "other header": lambda L: ["#clusterlm-classlm v4"] + L[1:],
        "discount one": lambda L: set_line(L, "#discount", "#discount\t1.0"),
        "discount negative": lambda L: set_line(L, "#discount", "#discount\t-0.1"),
        "discount nan": lambda L: set_line(L, "#discount", "#discount\tnan"),
        "discount text": lambda L: set_line(L, "#discount", "#discount\thalf"),
        "no slot": lambda L: [x for x in L if not x.startswith("#slot")],
        "slot more than the tables": lambda L: before(
            "#slot", L[find(L, "#slot")].replace("\t-2\t", "\t-3\t"))(L),
        "n_words off": lambda L: set_line(L, "#n_words", "#n_words\t7"),
        "n_states above the word count": lambda L: set_line(L, "#n_states", "#n_states\t100000"),
        "n_categories above words": lambda L: set_line(L, "#n_categories", "#n_categories\t100000"),
        "begin id out of range": lambda L: set_line(
            L, "#bos", "#bos\t" + L[find(L, "#n_words")].split("\t")[1]),
        "begin id negative": lambda L: set_line(L, "#bos", "#bos\t-1"),
        "offsets out of order": lambda L: edit_slot(L, offset=-1),
        "map value out of range": lambda L: before("#joint", "#map\tw\t" + " ".join(
            ["99999"] + ["0"] * (int(L[find(L, "#n_words")].split("\t")[1]) - 1)))(L),
        "map value with a sign": lambda L: before("#joint", "#map\tw\t" + " ".join(
            ["-0"] + [str(w) for w in range(1, int(L[find(L, "#n_words")].split("\t")[1]))]))(L),
        "slot arity without a map": lambda L: [
            x.replace("\tw\t", "\tw\t1") if x.startswith("#slot") else x for x in L
        ],
        "category out of range": lambda L: edit_row(L, "#words", 0, "4\t1"),
        "negative word count": lambda L: edit_row(L, "#words", 0, "0\t-1"),
        "word count changed": lambda L: edit_row(L, "#words", 3, bump_last(L, "#words", 3)),
        "joint state out of range": lambda L: edit_row(L, "#joint", 0, "5 0\t1"),
        "joint count zero": lambda L: edit_row(L, "#joint", 0, "0 0\t0"),
        "joint cells unsorted": lambda L: swap_rows(L, "#joint", 0, 1),
        "joint count short": lambda L: recount(L, "#joint", -1),
        "joint count long": lambda L: recount(L, "#joint", +1),
        "suffix state out of range": lambda L: edit_row(L, "#suffix", 0, "0\t9"),
        "suffix state without events": lambda L: edit_row(
            set_line(L, "#n_states", "#n_states\t6"), "#suffix", 0,
            L[find(L, "#suffix") + 1].rpartition("\t")[0] + "\t5"),
        "suffix rows unsorted": lambda L: swap_rows(L, "#suffix", 0, 1),
        "suffix length wrong": lambda L: set_line(
            L, "#suffix", "#suffix\t2\t" + L[find(L, "#suffix")].split("\t")[2]
        ),
        "context value out of range": lambda L: edit_row(L, "#contexts", 0, "0 99999\t0"),
        "context state out of range": lambda L: edit_row(L, "#contexts", 0, "0 0\t99999"),
        "negative context state": lambda L: edit_row(L, "#contexts", 0, "0 0\t-1"),
        "context state without events": lambda L: edit_row(
            set_line(L, "#n_states", "#n_states\t6"), "#contexts", 0,
            L[find(L, "#contexts") + 1].rpartition("\t")[0] + "\t5"),
        "context rows unsorted": lambda L: swap_rows(L, "#contexts", 0, 1),
        "duplicate context row": lambda L: edit_row(L, "#contexts", 1, L[find(L, "#contexts") + 1]),
        "context count short": lambda L: recount(L, "#contexts", -1),
        "context count long": lambda L: recount(L, "#contexts", +1),
        "missing section": lambda L: [x for x in L if not x.startswith("#suffix")],
        "non-integer field": lambda L: edit_row(L, "#contexts", 0, "0 x\t0"),
        "float field": lambda L: edit_row(L, "#words", 0, "0\t1.5"),
        "huge field": lambda L: edit_row(L, "#words", 0, "0\t" + "9" * 25),
        "extra field": lambda L: edit_row(L, "#contexts", 0, "0 0 0\t0"),
        "space for tab": lambda L: edit_row(
            L, "#contexts", 0, L[find(L, "#contexts") + 1].replace("\t", " ")
        ),
        "blank line": lambda L: L[:-1] + ["", L[-1]],
        "trailing section": lambda L: L + ["#extra\t0"],
    }

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruption_is_rejected(self, tmp_path, name):
        lm, vocab, enc, table = self.model(2)
        save_classlm(lm, tmp_path / "m.classlm")
        lines = (tmp_path / "m.classlm").read_text().splitlines()
        bad = tmp_path / "bad.classlm"
        bad.write_text("\n".join(self.CORRUPTIONS[name](lines)) + "\n")
        with pytest.raises(ValueError):
            load_classlm(bad)

    @pytest.mark.parametrize("total", [2**62 - 1, 2**62])
    def test_word_counts_may_add_up_to_just_below_2_62(self, tmp_path, total):
        # five words, each its own category, seen in one context: four of
        # the largest 18-digit counts and the rest of ``total``
        counts = [10**18 - 1] * 4 + [total - 4 * (10**18 - 1)]
        path = tmp_path / "big.classlm"
        path.write_text("\n".join([
            "#clusterlm-classlm v3", "#discount\t0.4", "#n_words\t5", "#n_categories\t5",
            "#n_states\t1", "#bos\t0", "#words\t5", *(f"{w}\t{c}" for w, c in enumerate(counts)),
            "#slot\t-1\tw\t5",
            "#joint\t5", *(f"0 {w}\t{c}" for w, c in enumerate(counts)),
            "#contexts\t1", "0\t0",
        ]) + "\n")
        if total < 2**62:
            assert int(load_classlm(path).word_counts.sum()) == total
        else:
            want = f"corrupt class model file {path}: word counts must add up to a total in (0, 2**62)"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                load_classlm(path)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_byte_damage_never_escapes_as_another_error(self, data):
        lm, vocab, enc, table = self.model(2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.classlm"
            save_classlm(lm, path)
            raw = bytearray(path.read_bytes())
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(raw) - 1))
                if data.draw(st.booleans()):
                    raw[at] = data.draw(st.sampled_from(b"0123456789 \t\n#-x"))
                else:
                    del raw[at]
            path.write_bytes(bytes(raw))
            try:
                loaded = load_classlm(path)
            except ValueError:
                return
            for ctx in probe_contexts(table, vocab)[:20]:
                for w in range(loaded.n_words):
                    assert 0.0 <= oracle_class_prob(loaded, w, ctx) <= 1.0 + 1e-12
            for sent in enc[:3]:
                for i in range(len(sent) + 1):
                    assert all(0.0 <= p <= 1.0 + 1e-12 for p in query_words(loaded, sent[:i]))


class TestClassLMSectionLine:
    """A section whose rows fail a range, state or order check is named
    by the file and the section's # line."""

    @pytest.mark.parametrize("name, key, message", [
        ("category out of range", "#words", "word categories outside"),
        ("joint state out of range", "#joint", "joint states outside"),
        ("joint count zero", "#joint", "joint counts outside"),
        ("joint cells unsorted", "#joint", "#joint rows are not strictly sorted"),
        ("suffix state out of range", "#suffix", "#suffix 1 states outside"),
        ("suffix state without events", "#suffix", "#suffix 1 maps to a state without events"),
        ("suffix rows unsorted", "#suffix", "#suffix 1 rows are not strictly sorted"),
        ("context value out of range", "#contexts", "#contexts slot -1 values outside"),
        ("context state out of range", "#contexts", "#contexts states outside"),
        ("context state without events", "#contexts", "#contexts maps to a state without events"),
        ("context rows unsorted", "#contexts", "#contexts rows are not strictly sorted"),
    ])
    def test_the_error_names_the_section_line(self, tmp_path, name, key, message):
        lm, vocab, enc, table = TestClassLMFile.model(2)
        save_classlm(lm, tmp_path / "m.classlm")
        lines = (tmp_path / "m.classlm").read_text().splitlines()
        bad = tmp_path / "bad.classlm"
        bad.write_text("\n".join(TestClassLMFile.CORRUPTIONS[name](lines)) + "\n")
        want = f"corrupt class model file {bad}: line {find(lines, key) + 1}: {message}"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_classlm(bad)

    def test_a_state_fault_is_named_before_trailing_content(self, tmp_path):
        # each table's states are checked as its section is read, before
        # the file's end is
        lm, vocab, enc, table = TestClassLMFile.model(2)
        save_classlm(lm, tmp_path / "m.classlm")
        lines = (tmp_path / "m.classlm").read_text().splitlines()
        bad = tmp_path / "bad.classlm"
        corrupt = TestClassLMFile.CORRUPTIONS["context state without events"]
        bad.write_text("\n".join(corrupt(lines) + ["#extra\t0"]) + "\n")
        want = (f"corrupt class model file {bad}: line {find(lines, '#contexts') + 1}: "
                "#contexts maps to a state without events")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(bad)

    @pytest.mark.parametrize("name, key", [
        ("negative word count", "#words"),
        ("negative context state", "#contexts"),
    ])
    def test_a_signed_field_is_a_malformed_row_at_its_line(self, tmp_path, name, key):
        # a signed field is no row field at all, so the row, the first of
        # its section, is named, not the section's # line
        lm, vocab, enc, table = TestClassLMFile.model(2)
        save_classlm(lm, tmp_path / "m.classlm")
        lines = (tmp_path / "m.classlm").read_text().splitlines()
        bad = tmp_path / "bad.classlm"
        bad.write_text("\n".join(TestClassLMFile.CORRUPTIONS[name](lines)) + "\n")
        want = f"corrupt class model file {bad}: line {find(lines, key) + 2}: malformed {key} rows"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(bad)

    def test_a_map_value_out_of_range_names_the_map_line(self, tmp_path):
        lm, vocab, enc, clu = tagged_model()
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        lines = path.read_text().splitlines()
        k = find(lines, "#map")
        key, name, values = lines[k].split("\t")
        lines[k] = "\t".join([key, name, "3 " + values.split(" ", 1)[1]])
        path.write_text("\n".join(lines) + "\n")
        want = f"corrupt class model file {path}: line {k + 1}: #map t values outside [0, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(path)

    def test_a_signed_map_value_names_the_map_line(self, tmp_path):
        # no row field carries a sign, so "-0" is not read as 0
        lm, vocab, enc, clu = tagged_model()
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        lines = path.read_text().splitlines()
        k = find(lines, "#map")
        key, name, values = lines[k].split("\t")
        lines[k] = "\t".join([key, name, "-0 " + values.split(" ", 1)[1]])
        path.write_text("\n".join(lines) + "\n")
        want = (f"corrupt class model file {path}: line {k + 1}: "
                "#map t value is not 1 to 18 digits: '-0'")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(path)

    def test_a_slot_without_its_map_asks_for_a_new_model(self, tmp_path):
        lm, vocab, enc, clu = tagged_model()
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        lines = path.read_text().splitlines()
        k = find(lines, "#map")
        path.write_text("\n".join(lines[:k] + lines[k + 1 :]) + "\n")
        # the line where the #map line should be
        want = (f"corrupt class model file {path}: line {k + 1}: "
                "slot -2 (t) has no #map line; re-run clusterlm cluster run --model-out")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(path)

    def test_a_w_slot_of_another_arity_than_the_words_names_its_slot_line(self, tmp_path):
        # the file needs no #map w line, so the error asks for no new model
        lm, vocab, enc, table = TestClassLMFile.model(1)
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        lines = path.read_text().splitlines()
        k = find(lines, "#slot")
        assert lines[k] == f"#slot\t-1\tw\t{lm.n_words}" and lm.n_words != 7
        lines[k] = "#slot\t-1\tw\t7"
        path.write_text("\n".join(lines) + "\n")
        want = (f"corrupt class model file {path}: line {k + 1}: "
                f"slot -1 (w) has arity 7, but the file has {lm.n_words} words")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_classlm(path)


def tagged_model(seed=47):
    """(class model, vocab, encoded sentences, clustering) over the
    context ``t:-2,w:-1``: a three-value tag of each word id, then the
    word."""
    sents = make_random_corpus(seed, n_sentences=60, n_words=8)
    vocab = build_vocabulary(t for s in sents for t in s.split())
    enc = encode_corpus(sents, vocab)
    tags = FeatureMapper("t", np.arange(len(vocab)) % 3, 3)
    spec = ContextSpec((Slot(-2, tags), Slot(-1, identity_mapper(vocab))))
    table = extract_events(enc, spec, vocab)
    params = ClusterParams(n_categories=4, n_states=5, min_count=2)
    clu = run_tree(table, build_suffix_tree(table), params)
    return ClassLM(clu, vocab, discount=0.4), vocab, enc, clu


class TestOneContextSpec:
    """A class model keeps the context spec of its counts and writes it
    as the counts file does; every model reads the sentence start as its
    begin word."""

    @staticmethod
    @functools.cache
    def models():
        word, vocab, enc, table = TestClassLMFile.model(2)
        tagged = tagged_model()[0]
        counts = ngram_counts(enc, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
        backoff = train_backoff(counts, len(vocab), discount=0.5, bos_id=vocab.bos_id)
        return {"w:-2,w:-1": word, "t:-2,w:-1": tagged, "order 3": backoff}

    @pytest.mark.parametrize("name", ["w:-2,w:-1", "t:-2,w:-1", "order 3"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_sentence_start_scores_as_the_begin_word(self, name, data):
        model = self.models()[name]
        n, width = model.n_words, model.history_width + data.draw(st.integers(0, 2))
        rows = []
        for _ in range(data.draw(st.integers(1, 30))):
            before_start = data.draw(st.integers(0, width))
            words = data.draw(st.lists(st.integers(0, n - 1), min_size=width - before_start + 1,
                                       max_size=width - before_start + 1))
            rows.append([-1] * before_start + words)
        rows = np.array(rows, dtype=np.int64)
        begun = np.where(rows < 0, model.bos_id, rows)
        assert model.prob(rows).tobytes() == model.prob(begun).tobytes()

    @pytest.mark.parametrize("tagged", [False, True])
    def test_the_slot_block_is_the_counts_files(self, tmp_path, tagged):
        if tagged:
            lm, vocab, enc, clu = tagged_model()
            table = clu.table
        else:
            sents = make_random_corpus(47, n_sentences=60, n_words=8)
            vocab, enc, table = build_table(sents, offsets=(-2, -1))
            clu = run_flat(table, ClusterParams(n_categories=4, n_states=5, min_count=2))
            lm = ClassLM(clu, vocab)
        save_counts(table, tmp_path / "counts.tsv")
        save_classlm(lm, tmp_path / "m.classlm")

        def block(path):
            lines = path.read_bytes().split(b"\n")
            at = [i for i, x in enumerate(lines) if x.startswith((b"#slot\t", b"#map\t"))]
            assert at == list(range(at[0], at[-1] + 1))  # one run of lines
            return b"\n".join(lines[at[0] : at[-1] + 1])

        assert block(tmp_path / "m.classlm") == block(tmp_path / "counts.tsv")
        assert (b"#map\tt\t" in block(tmp_path / "counts.tsv")) == tagged

    def test_a_header_sizes_no_array(self, tmp_path):
        # the slot block comes after the #words rows, so a w slot's
        # identity table is built only for words the file holds
        lm, vocab, enc, table = TestClassLMFile.model(2)
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        big = 2_000_000
        saved = path.read_text().splitlines()
        lines = set_line(saved, "#n_words", f"#n_words\t{big}")
        lines = [f"#slot\t{x.split(chr(9))[1]}\tw\t{big}" if x.startswith("#slot") else x
                 for x in lines]
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"#words declares {lm.n_words} rows"):
                load_classlm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

        # nor does #n_states: the per-state sums end at the joint's last
        # state.  The pruned file loads with #n_states at 2,000,000 once
        # one joint cell and a word of its category have that many events
        # more, so that the header stays within the word count.
        assert len(lm.tables[-1][1]) < table.n_contexts
        s_g, _, n = saved[find(saved, "#joint") + 1].partition("\t")
        g = s_g.split(" ")[1]
        w = next(i for i, x in enumerate(saved[find(saved, "#words") + 1 :]) if x.split("\t")[0] == g)
        lines = edit_row(saved, "#joint", 0, f"{s_g}\t{int(n) + big}")
        lines = edit_row(lines, "#words", w, f"{g}\t{int(saved[find(saved, '#words') + 1 + w].split(chr(9))[1]) + big}")
        lines = set_line(lines, "#n_states", f"#n_states\t{big}")
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            loaded = load_classlm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert loaded.n_states == big and len(loaded.state_totals) == len(lm.state_totals)

    def test_n_states_above_the_word_count_is_rejected(self, tmp_path):
        # each state held a training context, seen at least once
        lm, vocab, enc, table = TestClassLMFile.model(2)
        path = tmp_path / "m.classlm"
        save_classlm(lm, path)
        lines = path.read_text().splitlines()
        for n_states, ok in ((lm.total, True), (lm.total + 1, False), (0, False)):
            path.write_text("\n".join(set_line(lines, "#n_states", f"#n_states\t{n_states}")) + "\n")
            if ok:
                assert load_classlm(path).n_states == lm.total
                continue
            want = f"corrupt class model file {path}: n_states must lie in [1, total word count]"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                load_classlm(path)


def every_query(model):
    """Query rows of every history a model of ``model.history_width``
    reads, each position a word or, before the sentence start, -1, with
    every word after it."""
    n, width = model.n_words, model.history_width
    rows = [
        (-1,) * start + words + (w,)
        for start in range(width + 1)
        for words in itertools.product(range(n), repeat=width - start)
        for w in range(n)
    ]
    return np.array(rows, dtype=np.int64)


class TestLosslessTables:
    """A class model keeps a suffix or context row only where its state
    differs from the one its next-shorter suffix resolves to, so every
    query resolves and scores as through the unpruned tables."""

    @staticmethod
    def check(clu, vocab):
        lm, full = ClassLM(clu, vocab, discount=0.4), unpruned_classlm(clu, vocab, discount=0.4)
        table, expected = clu.table, full_tables(clu.table, clu.S)
        assert states_of(lm, table.contexts) == clu.S.tolist()
        # seen contexts, each suffix length and unseen ones resolve to the
        # unpruned tables' states, and every query scores bit-identically
        assert_same_probs(lm, full, probe_contexts(table, vocab))
        rows = every_query(lm)
        assert lm.prob(rows).tobytes() == full.prob(rows).tobytes()
        for keep, ((keys, states), rows_k) in enumerate(zip(lm.tables, expected, strict=True), 1):
            kept = keys.rows()
            # a kept row is the unpruned table's, with its state, and not
            # the state its next-shorter suffix resolves to
            assert [rows_k[c] for c in tuples(kept)] == states.tolist()
            assert (states != lm._resolve_states(kept[:, 1:])).all()
        # an unpruned file loads, scores the same and re-saves to its bytes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "full.classlm"
            save_classlm(full, path)
            loaded = load_classlm(path)
            assert [len(s) for _, s in loaded.tables] == [len(t) for t in expected]
            assert loaded.prob(rows).tobytes() == lm.prob(rows).tobytes()
            save_classlm(loaded, Path(tmp) / "again.classlm")
            assert (Path(tmp) / "again.classlm").read_bytes() == path.read_bytes()
        return lm

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), depth=st.integers(1, 3),
           how=st.sampled_from(["tree", "flat", "random states"]), n_states=st.integers(1, 6))
    def test_pruned_tables_resolve_as_the_full_ones(self, seed, depth, how, n_states):
        sents = make_random_corpus(seed, n_sentences=25, n_words=5)
        vocab, enc, table = build_table(sents, offsets=tuple(range(-depth, 0)))
        n_states = min(n_states, table.n_contexts)
        if how == "random states":  # ties and empty states too
            rng = random.Random(seed)
            G = [rng.randrange(3) for _ in range(len(vocab))]
            clu = Clustering(table, 3, n_states, G, [rng.randrange(n_states) for _ in table.contexts])
        elif how == "tree":
            params = ClusterParams(n_categories=3, n_states=n_states, min_count=2)
            clu = run_tree(table, build_suffix_tree(table), params)
        else:
            clu = run_flat(table, ClusterParams(n_categories=3, n_states=n_states, min_count=2))
        self.check(clu, vocab)

    def test_a_tag_slot_model_resolves_as_the_full_one(self):
        lm, vocab, enc, clu = tagged_model()
        assert sum(len(s) for _, s in self.check(clu, vocab).tables) < clu.table.n_contexts

    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_model_of_one_state_keeps_no_rows(self, tmp_path, depth):
        # every context and suffix sits in the default state
        sents = make_random_corpus(5, n_sentences=20, n_words=5)
        vocab, enc, table = build_table(sents, offsets=tuple(range(-depth, 0)))
        clu = run_flat(table, ClusterParams(n_categories=3, n_states=1, min_count=1))
        lm = self.check(clu, vocab)
        assert [len(s) for _, s in lm.tables] == [0] * depth
        save_classlm(lm, tmp_path / "m.classlm")
        assert (tmp_path / "m.classlm").read_text().endswith("#contexts\t0\n")
        loaded = load_classlm(tmp_path / "m.classlm")
        rows = every_query(lm)
        assert loaded.prob(rows).tobytes() == lm.prob(rows).tobytes()


def find(lines, key):
    return next(i for i, x in enumerate(lines) if x.split("\t")[0] == key)


def set_line(lines, key, new):
    out = list(lines)
    out[find(lines, key)] = new
    return out


def edit_row(lines, key, row, new):
    out = list(lines)
    out[find(lines, key) + 1 + row] = new
    return out


def swap_rows(lines, key, a, b):
    at = find(lines, key) + 1
    out = list(lines)
    out[at + a], out[at + b] = out[at + b], out[at + a]
    return out


def recount(lines, key, change):
    at = find(lines, key)
    head, _, n = lines[at].rpartition("\t")
    return set_line(lines, key, f"{head}\t{int(n) + change}")


def edit_slot(lines, offset=None, arity=None):
    at = find(lines, "#slot")
    key, off, name, n = lines[at].split("\t")
    out = list(lines)
    out[at] = "\t".join([key, str(off if offset is None else offset), name,
                         str(n if arity is None else arity)])
    return out


def bump_last(lines, key, row):
    head, _, n = lines[find(lines, key) + 1 + row].rpartition("\t")
    return f"{head}\t{int(n) + 1}"


class TestNgramCounts:
    def test_hand_computed_trigram_counts(self):
        a, b, bos, eos = 0, 1, 9, 8
        counts = count_dicts(ngram_counts([[a, b]], 3, bos_id=bos, eos_id=eos))
        assert counts[0] == {(a,): 1, (b,): 1, (eos,): 1}
        assert counts[1] == {(bos, a): 1, (a, b): 1, (b, eos): 1}
        assert counts[2] == {(bos, bos, a): 1, (bos, a, b): 1, (a, b, eos): 1}

    def test_every_order_counts_every_event_once(self):
        rng = random.Random(5)
        sents = [[rng.randrange(4) for _ in range(rng.randint(1, 6))] for _ in range(25)]
        n_events = sum(len(s) + 1 for s in sents)
        for order in (1, 2, 3, 4):
            counts = count_dicts(ngram_counts(sents, order, bos_id=5, eos_id=6))
            assert len(counts) == order
            for k in range(order):
                assert sum(counts[k].values()) == n_events

    def test_unigram_order_has_no_padding(self):
        counts = count_dicts(ngram_counts([[0, 1]], 1, bos_id=5, eos_id=6))
        assert counts[0] == {(0,): 1, (1,): 1, (6,): 1}

    @pytest.mark.parametrize("order", [1, 2, 3, 8])
    def test_unigrams_equal_the_sorted_marginal(self, order):
        """The unigrams, which the one loop over the orders derives from
        the order above, equal the ``sum_rows`` marginal of the bigrams
        and of the event rows, to the dtype and shape.  Ids 5-271 put the
        8-grams in two key chunks."""
        rng = random.Random(order)
        sents = [[rng.randrange(5, 265) for _ in range(rng.randint(0, 12))] for _ in range(300)]
        counts = ngram_counts(sents, order, bos_id=271, eos_id=270)
        wants = [sum_rows(event_rows(sents, range(0), 271, 270))]
        if order > 1:
            wants.append(sum_rows(counts[1][0][:, 1:], counts[1][1]))
        for grams, c in wants:
            assert grams.dtype == counts[0][0].dtype and c.dtype == counts[0][1].dtype
            assert np.array_equal(grams, counts[0][0]) and np.array_equal(c, counts[0][1])
        if order == 8:
            assert Keys(counts[-1][0]).key.shape[1] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            ngram_counts([[0]], 0, bos_id=1, eos_id=2)
        with pytest.raises(ValueError, match="empty corpus"):
            ngram_counts([], 2, bos_id=1, eos_id=2)


def hexed(tables):
    """Per-order tables of floats with every value as its exact hex form."""
    return {k: {key: v.hex() for key, v in t.items()} for k, t in tables.items()}


class TestBackoffOracle:
    """The array counting and training paths against the dict oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 4),
        sents=st.lists(st.lists(st.integers(0, 5), max_size=8), min_size=1, max_size=25),
        cutoffs=st.none() | st.dictionaries(st.integers(1, 4), st.integers(0, 3)),
        discount=st.floats(0.01, 0.99),
    )
    def test_arrays_equal_the_dict_oracle_bit_for_bit(self, order, sents, cutoffs, discount):
        eos, bos, n_words = 6, 7, 8
        counts = ngram_counts(sents, order, bos_id=bos, eos_id=eos)
        oracle = oracle_ngram_counts(sents, order, bos_id=bos, eos_id=eos)
        assert count_dicts(counts) == oracle
        for k, (grams, c) in enumerate(counts, 1):
            assert grams.shape == (len(c), k) and c.dtype == np.int64
            assert [tuple(g) for g in grams.tolist()] == sorted(oracle[k - 1])

        cuts = {k: 1 for k in range(3, order + 1)} if cutoffs is None else cutoffs
        try:
            uni, probs, bows = oracle_backoff(oracle, n_words, discount=discount, cutoffs=cuts)
        except ValueError:
            with pytest.raises(ValueError, match="survive"):
                train_backoff(counts, n_words, discount=discount, cutoffs=cutoffs, bos_id=bos)
            return
        m = train_backoff(counts, n_words, discount=discount, cutoffs=cutoffs, bos_id=bos)
        assert m.uni.tobytes() == uni.tobytes()
        assert hexed(backoff_dicts(m).probs) == hexed(probs)
        assert hexed(backoff_dicts(m).bows) == hexed(bows)
        # unseen histories included: every word id at every position
        for h in ([], [0], [eos], [bos, 2], [5, 4, 3], [0, 1, 2, 3, 4]):
            assert math.fsum(query_words(m, h)) == pytest.approx(1.0, abs=1e-9)


    def test_an_order_8_model_packs_its_n_grams_in_two_key_chunks(
        self, tmp_path, monkeypatch, capsys
    ):
        """Eight columns over more than about 215 word ids span 2**62 or
        more, so the 8-gram table of ``ngram train --order 8`` is packed
        in two int64 chunks; counting, training, loading and scoring
        still agree with the oracles."""
        from clusterlm.cli import main

        lines = make_random_corpus(8, 150, n_words=260, min_len=6, max_len=12) * 2
        held = make_random_corpus(9, 40, n_words=270, min_len=6, max_len=12)
        monkeypatch.chdir(tmp_path)
        Path("train.txt").write_text("\n".join(lines) + "\n")
        for stage in (
            "vocab build --corpus train.txt --out v.txt",
            "ngram train --corpus train.txt --vocab v.txt --order 8 --out m.txt",
        ):
            assert main(stage.split()) == 0, capsys.readouterr()
        vocab = Vocabulary.load("v.txt")
        assert len(vocab) > 215
        enc = encode_corpus(lines, vocab)
        oracle = oracle_ngram_counts(enc, 8, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
        assert count_dicts(ngram_counts(enc, 8, bos_id=vocab.bos_id, eos_id=vocab.eos_id)) == oracle

        m = load_backoff("m.txt")
        save_backoff(m, "again.txt")
        assert Path("again.txt").read_bytes() == Path("m.txt").read_bytes()
        gram_keys, _, hist_keys, _ = m._tables[-1]
        assert gram_keys is m.grams[-1]
        assert gram_keys.key.shape == (len(m.counts[-1]), 2) and len(m.counts[-1]) > 0
        assert hist_keys.key.shape[1] == 1
        uni, probs, bows = oracle_backoff(
            oracle, len(vocab), discount=0.5, cutoffs={k: 1 for k in range(3, 9)}
        )
        assert m.uni.tobytes() == uni.tobytes()
        assert hexed(backoff_dicts(m).probs) == hexed(probs)
        assert hexed(backoff_dicts(m).bows) == hexed(bows)
        # the training events find their 8-grams; held-out ones mostly back off
        rows = event_rows(enc + encode_corpus(held, vocab), range(-7, 0), -1, vocab.eos_id)
        want = [
            float.hex(oracle_backoff_prob(m, row[-1], [h for h in row[:-1] if h >= 0]))
            for row in rows.tolist()
        ]
        assert [float.hex(p) for p in m.prob(rows).tolist()] == want


class TestBackoffModel:
    def _hand_model(self):
        # unigrams a:3 b:2; bigrams aa:2 ab:1; D = 0.5.  Every query of this
        # model gives a full history, so the begin id is never read.
        counts = count_arrays([{(0,): 3, (1,): 2}, {(0, 0): 2, (0, 1): 1}])
        return train_backoff(counts, 2, discount=0.5, cutoffs={}, bos_id=1)

    def test_hand_computed_bigram_probabilities(self):
        m = self._hand_model()
        assert m.uni[0] == pytest.approx(0.6, abs=1e-15)
        assert m.uni[1] == pytest.approx(0.4, abs=1e-15)
        assert query(m, 0, [0]) == pytest.approx(0.7, abs=1e-12)
        assert query(m, 1, [0]) == pytest.approx(0.3, abs=1e-12)

    def test_unseen_history_equals_lower_order_exactly(self):
        m = self._hand_model()
        # history b never observed: the bigram level contributes nothing
        assert query(m, 0, [1]) == float(m.uni[0])
        assert query(m, 1, [1]) == float(m.uni[1])

    def test_unigram_floor_covers_unseen_words(self):
        counts = count_arrays([{(0,): 3, (1,): 2}])
        m = train_backoff(counts, 4, discount=0.5, cutoffs={}, bos_id=3)
        # words 2 and 3 share the uniform floor mass
        assert m.uni[2] == m.uni[3] > 0.0
        assert math.fsum(m.uni) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_distribution_normalizes(self, order):
        rng = random.Random(order)
        sents = [[rng.randrange(6) for _ in range(rng.randint(1, 7))] for _ in range(40)]
        counts = ngram_counts(sents, order, bos_id=7, eos_id=6)
        m = train_backoff(counts, 8, discount=0.4, bos_id=7)
        histories = [[], [0], [1, 2], [5, 5, 5], [3, 0]]
        for h in histories:
            s = math.fsum(query_words(m, h))
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_discards_rare_ngrams(self):
        sents = [[0, 1, 2], [0, 1, 3], [0, 1, 2]]
        counts = ngram_counts(sents, 3, bos_id=5, eos_id=4)
        m_all = train_backoff(counts, 6, discount=0.5, cutoffs={}, bos_id=5)
        m_cut = train_backoff(counts, 6, discount=0.5, cutoffs={3: 1}, bos_id=5)
        assert (0, 1, 3) in backoff_dicts(m_all).probs[3]
        assert (0, 1, 3) not in backoff_dicts(m_cut).probs[3]
        # surviving mass still normalizes
        s = math.fsum(query_words(m_cut, [0, 1]))
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_fully_cut_history_backs_off_with_weight_one(self):
        counts = count_arrays([
            {(0,): 4, (1,): 4},
            {(0, 1): 1, (1, 0): 4},
        ])
        m = train_backoff(counts, 2, discount=0.5, cutoffs={2: 1}, bos_id=1)
        # (0, 1) was the only bigram for history (0,): cutting it makes the
        # history unseen, so prediction drops straight to the unigram
        assert (0,) not in backoff_dicts(m).bows[2]
        assert query(m, 1, [0]) == float(m.uni[1])

    def test_history_padding_uses_begin_token(self):
        sents = [[0, 1], [0, 2]]
        counts = ngram_counts(sents, 2, bos_id=4, eos_id=3)
        m = train_backoff(counts, 5, discount=0.5, bos_id=4, cutoffs={})
        # empty history behaves as if preceded by the begin token
        assert query(m, 0, []) == query(m, 0, [4])
        assert (4,) in backoff_dicts(m).bows[2]

    def test_validation(self):
        counts = count_arrays([{(0,): 1}])
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError, match="discount"):
                train_backoff(counts, 1, discount=bad, bos_id=0)
        with pytest.raises(ValueError, match="at least one order"):
            train_backoff([], 1, bos_id=0)
        with pytest.raises(ValueError, match="length"):
            train_backoff(count_arrays([{(0, 1): 1}]), 2, bos_id=0)
        with pytest.raises(ValueError, match="survive"):
            train_backoff(count_arrays([{(0,): 1}]), 1, cutoffs={1: 1}, bos_id=0)
        m = self._hand_model()
        with pytest.raises(ValueError, match="word id"):
            query(m, 2, [0])

    def test_parameter_count(self):
        m = self._hand_model()
        assert m.n_parameters == 2 + 2 + 1  # unigram row, two bigrams, one bow
        m = train_backoff(ngram_counts([[0, 1, 2], [1, 2]], 3, bos_id=3, eos_id=4), 5,
                          discount=0.5, cutoffs={}, bos_id=3)
        probs, bows = backoff_dicts(m)
        assert m.n_parameters == m.n_words + sum(len(t) for t in probs.values()) + sum(
            len(t) for t in bows.values()
        )

    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(77)
        sents = [[rng.randrange(5) for _ in range(rng.randint(1, 6))] for _ in range(30)]
        counts = ngram_counts(sents, 3, bos_id=6, eos_id=5)
        for cutoffs in (None, {3: 5}):
            m = train_backoff(counts, 7, discount=0.5, bos_id=6, cutoffs=cutoffs)
            path = tmp_path / "model.arpa"
            save_backoff(m, path)
            loaded = load_backoff(path)
            assert loaded.order == m.order
            assert loaded.discount == m.discount
            assert loaded.bos_id == m.bos_id
            assert loaded.uni.tobytes() == m.uni.tobytes()
            assert backoff_dicts(loaded) == backoff_dicts(m)
            for _ in range(100):
                w = rng.randrange(7)
                h = [rng.randrange(5) for _ in range(rng.randint(0, 3))]
                assert query(loaded, w, h) == query(m, w, h)
            # a reloaded model writes the same bytes
            save_backoff(loaded, tmp_path / "again.arpa")
            assert (tmp_path / "again.arpa").read_bytes() == path.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        m = self._hand_model()
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        save_backoff(m, p1)
        save_backoff(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "x"
        p.write_text("not a model\n")
        with pytest.raises(ValueError, match="not a backoff model"):
            load_backoff(p)

    def test_counts_may_add_up_to_just_below_2_62(self):
        # a float64 sum rounds 2**62 - 1 up to 2**62; the bound is exact
        m = train_backoff([(np.array([[0], [1]]), np.array([2**62 - 2, 1]))], 3, bos_id=2)
        assert int(m.counts[0].sum()) == 2**62 - 1
        with pytest.raises(ValueError, match=r"^order-1 counts must add up to less than 2\*\*62$"):
            train_backoff([(np.array([[0], [1]]), np.array([2**62 - 1, 1]))], 3, bos_id=2)


def backoff_lines(tmp_path):
    """A saved order-3 model with kept n-grams of every order, and its lines."""
    rng = random.Random(21)
    sents = [[rng.randrange(4) for _ in range(rng.randint(2, 6))] for _ in range(40)]
    m = train_backoff(ngram_counts(sents, 3, bos_id=5, eos_id=4), 6, discount=0.5, bos_id=5)
    assert backoff_dicts(m).probs[3] and backoff_dicts(m).bows[3]
    path = tmp_path / "backoff.model"
    save_backoff(m, path)
    return path, path.read_text().splitlines()


def in_section(key, fn, offset=0):
    """An edit replacing row ``offset`` of ``key``'s section by the rows
    ``fn`` returns for it, keeping the section's declared row count in
    step so that the damage itself is what gets rejected."""
    def edit(lines):
        head = find(lines, key)
        at = head + 1 + offset
        new = fn(lines[at])
        n = int(lines[head].split("\t")[1]) + len(new) - 1
        return lines[:head] + [f"{key}\t{n}"] + lines[head + 1 : at] + new + lines[at + 1 :]
    return edit


def header_as(key, line):
    """An edit replacing every ``key`` header line by ``line``."""
    return lambda lines: [line if x.split("\t")[0] == key else x for x in lines]


def with_word(row, word):
    """The row with its last word id replaced."""
    ids, _, count = row.partition("\t")
    return [" ".join(ids.split()[:-1] + [word]) + "\t" + count]


def with_count(row, count):
    return [row.partition("\t")[0] + "\t" + count]


def every_count(key, count):
    """An edit setting every count of ``key``'s section to ``count``."""
    def edit(lines):
        head = find(lines, key)
        end = head + 1 + int(lines[head].split("\t")[1])
        return lines[: head + 1] + [with_count(x, count)[0] for x in lines[head + 1 : end]] + lines[end:]
    return edit


def declared(key, change):
    """An edit changing the declared row count of ``key``'s section."""
    def edit(lines):
        n = int(lines[find(lines, key)].split("\t")[1])
        return set_line(lines, key, f"{key}\t{n + change}")
    return edit


def before(key, extra):
    """An edit inserting the line ``extra`` before the ``key`` line."""
    return lambda lines: lines[: find(lines, key)] + [extra] + lines[find(lines, key) :]


class TestBackoffFileCorruption:
    """A damaged backoff model file raises ValueError, never another error."""

    def test_truncation_at_every_line_and_mid_line_is_rejected(self, tmp_path):
        path, lines = backoff_lines(tmp_path)
        cut = tmp_path / "cut.model"
        for k in range(len(lines)):
            head = "".join(line + "\n" for line in lines[:k])
            cut.write_text(head)
            with pytest.raises(ValueError):
                load_backoff(cut)
            cut.write_text(head + lines[k][: len(lines[k]) // 2])
            with pytest.raises(ValueError):
                load_backoff(cut)

    @pytest.mark.parametrize("name, edit", [
        ("unigram id past the vocabulary",
         in_section("#1-grams", lambda x: ["99999\t" + x.split("\t")[1]], 4)),
        ("unigram id -1", in_section("#1-grams", lambda x: ["-1\t" + x.split("\t")[1]])),
        ("repeated unigram", in_section("#1-grams", lambda x: ["0\t" + x.split("\t")[1]], 1)),
        ("bare #order", header_as("#order", "#order")),
        ("bare #bow", header_as("#2-grams", "#bow")),
        ("order text", header_as("#order", "#order\tthree")),
        ("order beyond its sections", header_as("#order", "#order\t4")),
        ("order 0", header_as("#order", "#order\t0")),
        ("huge order", header_as("#order", "#order\t" + "9" * 18)),
        ("discount 1", header_as("#discount", "#discount\t1.0")),
        ("discount text", header_as("#discount", "#discount\thalf")),
        ("huge n_words", header_as("#n_words", "#n_words\t" + "9" * 18)),
        ("begin id past the vocabulary", header_as("#bos", "#bos\t6")),
        ("begin id -1", header_as("#bos", "#bos\t-1")),
        ("begin id none", header_as("#bos", "#bos\tnone")),
        ("n-gram word id past the vocab", in_section("#2-grams", lambda x: with_word(x, "99999"))),
        ("n-gram word id -1", in_section("#2-grams", lambda x: with_word(x, "-1"))),
        ("huge n-gram word id", in_section("#2-grams", lambda x: with_word(x, "9" * 25))),
        ("history too long", in_section("#2-grams", lambda x: ["0 " + x])),
        ("history too short", in_section("#3-grams", lambda x: [x.split(" ", 1)[1]])),
        ("missing field", in_section("#2-grams", lambda x: [x.rpartition("\t")[0]])),
        ("extra field", in_section("#2-grams", lambda x: [x + "\t1"])),
        ("space for tab", in_section("#2-grams", lambda x: [x.replace("\t", " ")])),
        ("count text", in_section("#2-grams", lambda x: with_count(x, "x"))),
        ("zero count", in_section("#2-grams", lambda x: with_count(x, "0"))),
        ("negative count", in_section("#3-grams", lambda x: with_count(x, "-3"))),
        ("counts past 2**62", every_count("#1-grams", "9" * 18)),
        ("repeated n-gram", in_section("#2-grams", lambda x: [x, x])),
        ("unsorted n-grams", in_section("#2-grams", lambda x: [x.replace("0 0", "0 3")])),
        ("row count too high", declared("#2-grams", 1)),
        ("row count too low", declared("#3-grams", -1)),
        ("row count text", header_as("#2-grams", "#2-grams\tmany")),
        ("repeated section", before("#3-grams", "#2-grams\t0")),
        ("unknown section", lambda L: L + ["#4-gramz"]),
        ("blank line", lambda L: L[:-1] + ["", L[-1]]),
        ("trailing header", lambda L: L + ["#n_words\t6"]),
        ("row after the last section", lambda L: L + ["0 0 0\t1"]),
        ("body before the headers", lambda L: [L[0], "0\t1"] + L[1:]),
    ])
    def test_corruption_is_rejected(self, tmp_path, name, edit):
        path, lines = backoff_lines(tmp_path)
        load_backoff(path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError):
            load_backoff(path)

    def test_v1_file_is_rejected_with_a_rerun_hint(self, tmp_path):
        path = tmp_path / "old.model"
        path.write_text("#clusterlm-backoff v1\n#order\t1\n#1-grams\n\t0\t-0.5\n")
        for load in (load_backoff, load_model):
            hint = f"^{re.escape(str(path))} is a v1 .* re-run `clusterlm ngram train`"
            with pytest.raises(ValueError, match=hint):
                load(path)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_byte_damage_never_escapes_as_another_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, _ = backoff_lines(Path(tmp))
            raw = bytearray(path.read_bytes())
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(raw) - 1))
                if data.draw(st.booleans()):
                    raw[at] = data.draw(st.sampled_from(b"0123456789 \t\n#-.ex"))
                else:
                    del raw[at]
            path.write_bytes(bytes(raw))
            try:
                loaded = load_backoff(path)
            except ValueError:
                return
            assert np.isfinite(loaded.uni).all() and (loaded.uni > 0).all()
            assert query(loaded, 0, [1, 2]) > 0.0


def mixture_lines(tmp_path):
    """A saved two-component mixture of backoff models, and its lines."""
    for name, order in (("a.model", 1), ("b.model", 2)):
        counts = ngram_counts([[0, 1, 2], [1, 2]], order, bos_id=4, eos_id=3)
        save_backoff(train_backoff(counts, 5, discount=0.5, bos_id=4), tmp_path / name)
    components = [load_backoff(tmp_path / n) for n in ("a.model", "b.model")]
    mix = InterpolatedModel(components, [0.25, 0.75])
    path = tmp_path / "mix.model"
    save_interpolated(mix, path, ["a.model", "b.model"])
    return path, path.read_text().splitlines()


class TestInterpolatedFileCorruption:
    """A damaged mixture file raises ValueError, never another error."""

    def test_truncation_at_every_line_and_mid_line_is_rejected(self, tmp_path):
        path, lines = mixture_lines(tmp_path)
        cut = tmp_path / "cut.model"
        for k in range(len(lines)):
            head = "".join(line + "\n" for line in lines[:k])
            cut.write_text(head)
            with pytest.raises(ValueError):
                load_interpolated(cut)
            cut.write_text(head + lines[k][: len(lines[k]) // 2])
            with pytest.raises(ValueError):
                load_interpolated(cut)

    @pytest.mark.parametrize("name, edit", [
        ("bare #weights", lambda L: [L[0], "#weights"] + L[2:]),
        ("no #weights", lambda L: [L[0]] + L[2:]),
        ("weights after the components", lambda L: [L[0]] + L[2:] + [L[1]]),
        ("weight text", lambda L: [L[0], "#weights\t0.25 x"] + L[2:]),
        ("weights not summing to one", lambda L: [L[0], "#weights\t0.25 0.5"] + L[2:]),
        ("nan weight", lambda L: [L[0], "#weights\tnan 1.0"] + L[2:]),
        ("one weight too many", lambda L: [L[0], L[1] + " 0.0"] + L[2:]),
        ("bare #component", lambda L: L[:-1] + ["#component"]),
        ("unknown line", lambda L: L + ["#note\tx"]),
        ("blank line", lambda L: L[:-1] + ["", L[-1]]),
    ])
    def test_corruption_is_rejected(self, tmp_path, name, edit):
        path, lines = mixture_lines(tmp_path)
        load_interpolated(path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError):
            load_interpolated(path)


    @pytest.mark.parametrize("load", [load_interpolated, load_model])
    def test_a_component_path_that_is_not_utf8_names_the_file_and_line(self, tmp_path, load):
        path, lines = mixture_lines(tmp_path)
        raw = "\n".join(lines).encode() + b"\n#component\tb\xff.model\n"
        path.write_bytes(raw)
        want = f"corrupt mixture file {path}: line {len(lines) + 1} is not UTF-8"
        with pytest.raises(ValueError, match=re.escape(want)):
            load(path)

    @pytest.mark.parametrize("load", [load_interpolated, load_model])
    def test_a_mixture_that_lists_itself_is_rejected(self, tmp_path, load):
        path, lines = mixture_lines(tmp_path)
        path.write_text("\n".join(lines[:-1] + ["#component\t./mix.model"]) + "\n")
        with pytest.raises(ValueError, match=r"mixture file .*mix\.model contains itself"):
            load(path)

    @pytest.mark.parametrize("load", [load_interpolated, load_model])
    def test_two_mixtures_that_list_each_other_are_rejected(self, tmp_path, load):
        path, lines = mixture_lines(tmp_path)
        (tmp_path / "sub").mkdir()
        path.write_text("\n".join(lines[:-1] + ["#component\tsub/other.model"]) + "\n")
        (tmp_path / "sub" / "other.model").write_text(
            f"{lines[0]}\n#weights\t1.0\n#component\t../mix.model\n"
        )
        with pytest.raises(ValueError, match=r"mixture file .*mix\.model contains itself"):
            load(path)
        with pytest.raises(ValueError, match=r"mixture file .*other\.model contains itself"):
            load(tmp_path / "sub" / "other.model")

    @pytest.mark.parametrize("weights, message", [
        ("0.5 0.6", "weights must be finite, non-negative and sum to 1"),
        ("1.0", "one weight per component required"),
        # float() reads the first as 0.25 and 0.75, split() the second
        ("0.2_5 0.7_5", "line 2: a weight is not a number: '0.2_5'"),
        ("0.25  0.75", "line 2: a weight is not a number: ''"),
        ("0.25 inf", "line 2: a weight is not a number: 'inf'"),
    ])
    def test_weights_that_do_not_fit_name_the_mixture(self, tmp_path, weights, message):
        path, lines = mixture_lines(tmp_path)
        path.write_text("\n".join([lines[0], f"#weights\t{weights}"] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"corrupt mixture file {path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("load", [load_interpolated, load_model])
    def test_a_component_that_cannot_be_opened_names_the_mixture_and_component(
        self, tmp_path, load
    ):
        path, lines = mixture_lines(tmp_path)
        path.write_text("\n".join(lines[:-1] + ["#component\tgone.model"]) + "\n")
        want = (
            f"corrupt mixture file {path}: line {len(lines)}: "
            "cannot open component gone.model: No such file or directory"
        )
        with pytest.raises(ValueError, match=re.escape(want)):
            load(path)
        (tmp_path / "dir.model").mkdir()
        path.write_text("\n".join(lines[:-1] + ["#component\tdir.model"]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {len(lines)}: cannot open")):
            load(path)

    def test_a_nested_component_error_is_not_wrapped_again(self, tmp_path):
        path, lines = mixture_lines(tmp_path)
        inner = tmp_path / "inner.model"
        inner.write_text(f"{lines[0]}\n#weights\t1.0\n#component\tgone.model\n")
        path.write_text("\n".join(lines[:-1] + ["#component\tinner.model"]) + "\n")
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == (
            f"corrupt mixture file {inner}: line 3: "
            "cannot open component gone.model: No such file or directory"
        )
        # a damaged backoff component is named by its own loader alone
        inner.write_text((tmp_path / "a.model").read_text().replace("#order\t1", "#order\tx"))
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"corrupt backoff model file {inner}: line 2: order is not an integer: 'x'"

    def test_a_component_shared_without_a_cycle_is_loaded(self, tmp_path):
        path, lines = mixture_lines(tmp_path)
        shared = tmp_path / "shared.model"
        shared.write_text(f"{lines[0]}\n#weights\t0.5 0.5\n{lines[2]}\n{lines[2]}\n")
        top = tmp_path / "top.model"
        top.write_text(
            f"{lines[0]}\n#weights\t0.5 0.5\n#component\tshared.model\n#component\tmix.model\n"
        )
        path.write_text("\n".join(lines[:-1] + ["#component\tshared.model"]) + "\n")
        loaded = load_model(top)
        assert [type(c) for c in loaded.components] == [InterpolatedModel] * 2
        assert type(loaded.components[1].components[1]) is InterpolatedModel


class TestLoaderContract:
    """Every loader rejects a file of another type, an empty file and a
    first line that is not UTF-8 with a ValueError that names the file.
    The retired v1 files are checked by the class and backoff file tests."""

    LOADERS = {
        "load_counts": lambda path, table: load_counts(path),
        "load_clustering": load_clustering,
        "load_classlm": lambda path, table: load_classlm(path),
        "load_backoff": lambda path, table: load_backoff(path),
        "load_interpolated": lambda path, table: load_interpolated(path),
        "load_model": lambda path, table: load_model(path),
    }

    @pytest.mark.parametrize("loader", list(LOADERS))
    @pytest.mark.parametrize("content", ["another format", "empty", "invalid utf-8"])
    def test_a_file_of_another_type_is_rejected_by_name(self, tmp_path, loader, content):
        table = build_table(["a b a", "b a b"], offsets=(-1,))[2]
        path = tmp_path / "input.txt"
        if content == "empty":
            path.write_bytes(b"")
        elif content == "invalid utf-8":
            path.write_bytes(b"\xff\xfe#clusterlm\n#vocab\t5\n")
        elif loader == "load_counts":
            backoff = train_backoff(count_arrays([{(0,): 2, (1,): 1}]), 2, discount=0.5, bos_id=1)
            save_backoff(backoff, path)
        else:
            save_counts(table, path)
        with pytest.raises(ValueError) as err:
            self.LOADERS[loader](str(path), table)
        assert str(path) in str(err.value)

    FILES = {
        "load_counts": "counts", "load_clustering": "clustering", "load_classlm": "classlm",
        "load_backoff": "backoff", "load_interpolated": "mixture", "load_model": "mixture",
    }

    @pytest.mark.parametrize("loader", list(LOADERS))
    def test_what_a_loader_returns_keeps_no_view_of_the_parsed_rows(
        self, tmp_path, monkeypatch, loader
    ):
        table, paths = saved_files(tmp_path)
        parsed, rows = [], Reader.rows

        def recorded(self, *args):
            parsed.append(rows(self, *args))
            return parsed[-1]

        monkeypatch.setattr(Reader, "rows", recorded)
        # the clustering's counts are loaded too, so that its table is checked
        loaded = self.LOADERS[loader](paths[self.FILES[loader]], load_counts(paths["counts"]))
        kept = kept_arrays(loaded)
        assert parsed and kept
        assert [name for name, a in kept if any(np.shares_memory(a, b) for b in parsed)] == []

    @pytest.mark.parametrize("build", ["EventTable", "extract_events", "ClassLM", "train_backoff"])
    def test_a_built_table_or_model_keeps_no_array_of_its_inputs(self, build):
        vocab, enc, table = build_table(make_random_corpus(61, n_sentences=40, n_words=8))
        if build == "EventTable":
            rows = np.column_stack([np.repeat(table.contexts, np.diff(table.ptr), axis=0),
                                    table.words, table.freqs])
            inputs, built = rows, EventTable(table.spec, rows[:, :-1], rows[:, -1])
        elif build == "extract_events":
            inputs = [np.array(sentence) for sentence in enc]
            built = extract_events(inputs, table.spec, vocab)
        elif build == "ClassLM":
            clu = run_flat(table, ClusterParams(n_categories=3, n_states=4, min_count=2))
            inputs, built = (clu, vocab), ClassLM(clu, vocab, discount=0.5)
        else:
            inputs = ngram_counts(enc, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
            built = train_backoff(inputs, len(vocab), cutoffs={}, bos_id=vocab.bos_id)
        given = [a for _, a in kept_arrays(inputs)]
        kept = kept_arrays(built, skip=[table.spec])  # the context spec is shared by design
        assert given and kept
        assert [name for name, a in kept if any(np.shares_memory(a, b) for b in given)] == []


def kept_arrays(obj, skip=()) -> list[tuple[str, np.ndarray]]:
    """(path, array) of every numpy array reachable from ``obj`` through
    the attributes of package objects (a ``Keys``, a spec's mappers),
    lists, tuples and dicts, but not through an object of ``skip``."""
    out, seen = [], {id(x) for x in skip}

    def walk(x, path):
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            out.append((path, x))
        elif isinstance(x, (list, tuple)):
            for i, y in enumerate(x):
                walk(y, f"{path}[{i}]")
        elif isinstance(x, dict):
            for k, y in x.items():
                walk(y, f"{path}[{k!r}]")
        elif type(x).__module__.startswith("clusterlm."):
            for k, y in vars(x).items():
                walk(y, f"{path}.{k}")

    walk(obj, type(obj).__name__)
    return out


def saved_files(tmp_path):
    """The event table, and a path to each type of file ``Reader`` opens,
    saved from it: counts, clustering, class model, backoff model and a
    mixture of the two models."""
    sents = make_random_corpus(61, n_sentences=40, n_words=8)
    vocab, enc, table = build_table(sents, offsets=(-1,))
    clu = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=2))
    lm = ClassLM(clu, vocab, discount=0.5)
    counts = ngram_counts(enc, 2, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
    bo = train_backoff(counts, len(vocab), discount=0.5, bos_id=vocab.bos_id)
    paths = {k: tmp_path / f"{k}.txt" for k in ("counts", "clustering", "classlm", "backoff")}
    paths["mixture"] = tmp_path / "mix.txt"
    save_counts(table, paths["counts"])
    save_clustering(clu, paths["clustering"])
    save_classlm(lm, paths["classlm"])
    save_backoff(bo, paths["backoff"])
    save_interpolated(
        InterpolatedModel([lm, bo], [0.4, 0.6]), paths["mixture"], ["classlm.txt", "backoff.txt"]
    )
    return table, paths


def cut_off(lines: list[bytes], k: int) -> list[bytes]:
    """Line ``k``, the last, loses its second half and its newline."""
    assert k == len(lines) - 1
    return lines[:k] + [lines[k][: len(lines[k]) // 2]]


def byte_ff(lines: list[bytes], k: int) -> list[bytes]:
    line = lines[k]
    return lines[:k] + [line[: len(line) // 2] + b"\xff" + line[len(line) // 2 :]] + lines[k + 1 :]


def long_field(lines: list[bytes], k: int) -> list[bytes]:
    """The last field of line ``k`` becomes a 19-digit number."""
    head, _, _ = lines[k].rpartition(b"\t")
    return lines[:k] + [head + b"\t" + b"9" * 19] + lines[k + 1 :]


class TestDamagedBodyLine:
    """Beside ``TestLoaderContract``: a damaged line in the body of a file
    that ``Reader`` opens raises a ``ValueError`` naming the file and the
    damaged line."""

    LOADERS = {
        "counts": lambda path, table: load_counts(path),
        "clustering": load_clustering,
        "classlm": lambda path, table: load_classlm(path),
        "backoff": lambda path, table: load_backoff(path),
        "mixture": lambda path, table: load_model(path),
    }

    @pytest.mark.parametrize("kind", list(LOADERS))
    @pytest.mark.parametrize("damage, from_end", [
        (cut_off, 1), (byte_ff, 1), (byte_ff, 2), (long_field, 1), (long_field, 2)
    ])
    def test_the_error_names_the_file_and_line(self, tmp_path, kind, damage, from_end):
        table, paths = saved_files(tmp_path)
        path = paths[kind]
        self.LOADERS[kind](path, table)
        lines = path.read_bytes().split(b"\n")[:-1]
        k = len(lines) - from_end
        damaged = damage(lines, k)
        path.write_bytes(b"\n".join(damaged) + (b"" if damage is cut_off else b"\n"))
        with pytest.raises(ValueError) as err:
            self.LOADERS[kind](path, table)
        message = str(err.value)
        assert str(path) in message
        assert re.search(rf"\bline {k + 1}\b", message), message


def fingerprint(loaded) -> dict[str, bytes]:
    """The bytes of every array a loaded file holds, and of a model's
    probabilities for every row of its history width plus one."""
    out = {k: v.tobytes() for k, v in vars(loaded).items() if isinstance(v, np.ndarray)}
    if hasattr(loaded, "prob"):
        width = loaded.history_width + 1
        rows = np.array(list(itertools.product(range(loaded.n_words), repeat=width)))
        out["prob"] = loaded.prob(rows).tobytes()
    return out


class TestLineRule:
    r"""Every file ``Reader`` opens ends its lines as the text inputs do:
    at ``\n``, with one ``\r`` before it dropped, so a CRLF copy loads
    as its LF twin; any other ``\r`` is an error naming the file and
    its line."""

    LOADERS = TestDamagedBodyLine.LOADERS

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_a_crlf_copy_loads_as_its_lf_twin(self, tmp_path, kind):
        table, paths = saved_files(tmp_path)
        want = fingerprint(self.LOADERS[kind](paths[kind], table))
        for path in paths.values():  # a mixture's components too
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        got = fingerprint(self.LOADERS[kind](paths[kind], table))
        assert want and got == want

    @pytest.mark.parametrize("kind", list(LOADERS))
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_a_lone_cr_names_its_line(self, tmp_path, kind, where):
        table, paths = saved_files(tmp_path)
        path = paths[kind]
        lines = path.read_bytes().split(b"\n")[:-1]
        k = 1 if where == "header" else len(lines) - 1  # the last line is a row but in a mixture
        half = len(lines[k]) // 2
        lines[k] = lines[k][:half] + b"\r" + lines[k][half:]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError) as err:
            self.LOADERS[kind](path, table)
        message = str(err.value)
        assert str(path) in message
        assert re.search(rf"\bline {k + 1}\b", message), message


class TestDiscountLine:
    """A ``#discount`` out of range is named by its file and line."""

    @pytest.mark.parametrize("kind, value, message", [
        ("classlm", "1.5", "discount must lie in [0, 1)"),
        ("classlm", "-0.1", "discount must lie in [0, 1)"),
        ("classlm", "nan", "discount is not a number: 'nan'"),
        ("backoff", "1.0", "discount must lie in (0, 1)"),
        ("backoff", "0.0", "discount must lie in (0, 1)"),
        ("backoff", "nan", "discount is not a number: 'nan'"),
        # float() reads these as 0.5
        ("classlm", "\u0660.\u0665", "discount is not a number: '\u0660.\u0665'"),
        ("backoff", "\u0660.\u0665", "discount is not a number: '\u0660.\u0665'"),
        ("backoff", "+0.5", "discount is not a number: '+0.5'"),
    ])
    def test_the_error_names_the_file_and_line(self, tmp_path, kind, value, message):
        table, paths = saved_files(tmp_path)
        path = paths[kind]
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("#discount\t"))
        lines[k] = f"#discount\t{value}"
        path.write_text("\n".join(lines) + "\n")
        what = {"classlm": "class model", "backoff": "backoff model"}[kind]
        want = f"corrupt {what} file {path}: line {k + 1}: {message}"
        for load in (load_classlm if kind == "classlm" else load_backoff, load_model):
            with pytest.raises(ValueError, match=re.escape(want)):
                load(path)


class Fixed:
    """Stub component with hand-set probabilities, which reads no
    history."""

    history_width = 0

    def __init__(self, table, n_words=4):
        self.table = table
        self.n_words = n_words

    def prob(self, rows):
        return np.array([self.table[w] for w in np.asarray(rows)[:, -1].tolist()])


class TestInterpolatedModel:
    def test_weight_validation(self):
        c = Fixed({0: 1.0})
        with pytest.raises(ValueError, match="one weight per component"):
            InterpolatedModel([c], [0.5, 0.5])
        with pytest.raises(ValueError, match="at least one component"):
            InterpolatedModel([], [])
        with pytest.raises(ValueError, match="sum to 1"):
            InterpolatedModel([c, c], [0.5, 0.6])
        with pytest.raises(ValueError, match="non-negative"):
            InterpolatedModel([c, c], [1.5, -0.5])
        for weights in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="non-negative and sum to 1"):
                InterpolatedModel([c, c], weights)
        with pytest.raises(ValueError, match="share one vocabulary"):
            InterpolatedModel([Fixed({}, 3), Fixed({}, 4)], [0.5, 0.5])

    def test_degenerate_weight_reproduces_component_bitwise(self):
        a = Fixed({0: 0.123456789, 1: 0.876543211})
        b = Fixed({0: 0.999, 1: 0.001})
        m = InterpolatedModel([a, b], [1.0, 0.0])
        assert query(m, 0, []) == query(a, 0, [])
        assert query(m, 1, []) == query(a, 1, [])

    def test_hand_mixture_arithmetic(self):
        a = Fixed({0: 0.5})
        b = Fixed({0: 0.25})
        m = InterpolatedModel([a, b], [0.3, 0.7])
        assert query(m, 0, []) == 0.3 * 0.5 + 0.7 * 0.25

    def test_mixture_lies_between_components(self):
        rng = random.Random(3)
        for _ in range(50):
            pa, pb = rng.random(), rng.random()
            lam = rng.random()
            m = InterpolatedModel([Fixed({0: pa}), Fixed({0: pb})], [lam, 1.0 - lam])
            p = query(m, 0, [])
            assert min(pa, pb) - 1e-15 <= p <= max(pa, pb) + 1e-15

    def test_save_load_round_trip_with_relative_paths(self, tmp_path):
        rng = random.Random(55)
        sents = make_random_corpus(61, n_sentences=40, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        clu = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=2))
        lm = ClassLM(clu, vocab, discount=0.5)
        counts = ngram_counts(enc, 2, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
        bo = train_backoff(counts, len(vocab), discount=0.5, bos_id=vocab.bos_id)

        save_classlm(lm, tmp_path / "class.model")
        save_backoff(bo, tmp_path / "backoff.model")
        mix = InterpolatedModel([lm, bo], [0.4, 0.6])
        save_interpolated(mix, tmp_path / "mix.model", ["class.model", "backoff.model"])

        loaded = load_interpolated(tmp_path / "mix.model")
        assert list(loaded.weights) == [0.4, 0.6]
        a = vocab.ids["w0"]
        assert query_words(loaded, [a]) == pytest.approx(query_words(mix, [a]), rel=1e-12)

    def test_load_model_dispatch(self, tmp_path):
        m = train_backoff(count_arrays([{(0,): 2, (1,): 1}]), 2, discount=0.5, bos_id=1)
        save_backoff(m, tmp_path / "any.model")
        assert isinstance(load_model(tmp_path / "any.model"), BackoffModel)
        bad = tmp_path / "bad.model"
        bad.write_text("#mystery v9\n")
        with pytest.raises(ValueError, match="unrecognized model file"):
            load_model(bad)


class TestNormalisation:
    """The class model, its saved copy, and its mixture with a backoff
    model sum to one over the vocabulary however a history resolves: to
    a training context, through each suffix-fallback length, or to the
    default state; and each probability equals the oracle's."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_every_resolution_sums_to_one(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vocab = tiny_vocab(["a", "b", "c", "d"])
        n_words = len(vocab)
        depth = data.draw(st.integers(1, 3), label="depth")
        # fewer contexts than words leave, after every seen suffix, a value
        # that extends it to an unseen one, so every resolution occurs
        table = random_event_table(
            rng, n_words, rng.randint(1, n_words - 1), depth=depth, max_count=6
        )
        params = ClusterParams(
            n_categories=data.draw(st.integers(1, n_words), label="categories"),
            n_states=data.draw(st.integers(1, table.n_contexts), label="states"),
            min_count=data.draw(st.integers(1, 3), label="min count"),
        )
        if data.draw(st.booleans(), label="tree"):
            clu = run_tree(table, build_suffix_tree(table), params)
        else:
            clu = run_flat(table, params)
        discount = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="discount")
        lm = ClassLM(clu, vocab, discount=discount)
        with tempfile.TemporaryDirectory() as d:
            save_classlm(lm, Path(d) / "m.classlm")
            loaded = load_classlm(Path(d) / "m.classlm")
        words = [vocab.ids[t] for t in "abcd"]
        sents = [[rng.choice(words) for _ in range(rng.randint(1, 6))] for _ in range(20)]
        backoff = train_backoff(
            ngram_counts(sents, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
            n_words,
            discount=data.draw(st.floats(0.01, 0.99), label="backoff discount"),
            bos_id=vocab.bos_id,
        )
        weight = data.draw(st.floats(0.0, 1.0), label="class weight")
        mix = InterpolatedModel([lm, backoff], [weight, 1.0 - weight])

        seen = {tuple(c) for c in table.contexts.tolist()}
        resolutions = set()
        for ctx in itertools.product(range(n_words), repeat=depth):
            # longest suffix shared with a training context: depth is an
            # exact hit, 0 the default state
            resolutions.add(max(
                k for k in range(depth + 1) for c in seen if c[depth - k :] == ctx[depth - k :]
            ))
            # the mapper is the identity, so each context is also a history
            for model in (lm, loaded, mix):
                probs = query_words(model, list(ctx))
                assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)
                assert probs == [oracle_prob(model, w, list(ctx)) for w in range(n_words)]
        assert resolutions == set(range(depth + 1))


class TestProbArray:
    """``prob(rows)`` equals the scalar oracle ``oracle_prob`` bit for
    bit for every model type, and rejects ids outside the vocabulary."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_backoff_matches_scalar(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        order = data.draw(st.integers(1, 4), label="order")
        n_words = 7
        sents = [[rng.randrange(5) for _ in range(rng.randint(0, 6))] for _ in range(25)]
        cutoffs = {
            k: data.draw(st.integers(0, 2), label=f"cutoff {k}") for k in range(2, order + 1)
        }
        counts = ngram_counts(sents, order, bos_id=5, eos_id=6)
        try:
            m = train_backoff(counts, n_words, cutoffs=cutoffs, bos_id=5,
                              discount=data.draw(st.floats(0.01, 0.99), label="discount"))
        except ValueError:
            return  # no unigram survives the cutoffs
        # every history of the corpus, also the empty one and one of one word
        histories = {tuple(s[:i]) for s in sents for i in range(len(s) + 1)} | {(), (4,)}
        assert_prob_matches_oracle(m, sorted(histories), data.draw(st.integers(0, 2)))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_class_model_and_mixture_match_scalar(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vocab = tiny_vocab(["a", "b", "c", "d"])
        n_words = len(vocab)
        depth = data.draw(st.integers(1, 3), label="depth")
        # <unk>, the last id, is never predicted, so its category can be empty
        table = random_event_table(rng, n_words, rng.randint(1, n_words - 1), depth=depth,
                                   max_count=6, n_predicted=n_words - 1)
        params = ClusterParams(
            n_categories=data.draw(st.integers(1, n_words - 1), label="categories"),
            n_states=data.draw(st.integers(1, table.n_contexts), label="states"),
            min_count=data.draw(st.integers(1, 3), label="min count"),
        )
        if data.draw(st.booleans(), label="tree"):
            clu = run_tree(table, build_suffix_tree(table), params)
        else:
            clu = run_flat(table, params)
        if data.draw(st.booleans(), label="empty category"):
            G = clu.G.copy()
            G[vocab.unk_id] = clu.n_categories
            clu = Clustering(table, clu.n_categories + 1, clu.n_states, G, clu.S)
        lm = ClassLM(clu, vocab, discount=data.draw(st.floats(0.0, 0.99), label="discount"))
        with tempfile.TemporaryDirectory() as d:
            save_classlm(lm, Path(d) / "m.classlm")
            loaded = load_classlm(Path(d) / "m.classlm")
        # every history up to the model's width: exact contexts, each
        # suffix fallback, the default state and the sentence start
        histories = [
            h for k in range(depth + 1) for h in itertools.product(range(n_words), repeat=k)
        ]
        extra = data.draw(st.integers(0, 1), label="extra width")
        for model in (lm, loaded):
            assert_prob_matches_oracle(model, histories, extra)
        sents = [[rng.randrange(n_words) for _ in range(rng.randint(0, 4))] for _ in range(10)]
        backoff = train_backoff(ngram_counts(sents, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
                                n_words, discount=0.5, bos_id=vocab.bos_id)
        weight = data.draw(st.sampled_from([0.0, 1.0, 0.25]), label="class weight")
        mix = InterpolatedModel([loaded, backoff], [weight, 1.0 - weight])
        assert_prob_matches_oracle(mix, histories, extra)

    @pytest.mark.parametrize("rows, message", [
        ([[0, 5]], "query word ids"),
        ([[0, -1]], "query word ids"),
        ([[5, 0]], "query history ids"),
        ([[-2, 0]], "query history ids"),
        ([[0]], "at least 1 history column"),
    ])
    def test_ids_outside_the_vocabulary_are_rejected(self, rows, message):
        vocab, enc, table = build_table(["a b a", "b a"], offsets=(-1,))
        lm = ClassLM(identity_clustering(table), vocab)
        bo = train_backoff(ngram_counts(enc, 2, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
                           len(vocab), bos_id=vocab.bos_id)
        mix = InterpolatedModel([lm, bo], [0.5, 0.5])
        rows = np.where(np.array(rows) == 5, len(vocab), rows)
        for model in (lm, bo, mix):
            with pytest.raises(ValueError, match=message):
                model.prob(rows)

    def test_a_word_before_the_sentence_start_is_rejected(self):
        m = train_backoff(ngram_counts([[0, 1, 2]], 3, bos_id=3, eos_id=4), 5, bos_id=3)
        with pytest.raises(ValueError, match="before the sentence start"):
            m.prob(np.array([[0, -1, 1]]))
