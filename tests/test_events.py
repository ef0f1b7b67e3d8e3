"""Context specs and prediction-event count tables."""

import random

import numpy as np
import pytest

from clusterlm.corpus import build_vocabulary, identity_mapper
from clusterlm.events import (
    ContextSpec,
    EventTable,
    Slot,
    distinct_context_count,
    extract_events,
    load_counts,
    save_counts,
)

from conftest import build_table


def word_spec(vocab, offsets):
    m = identity_mapper(vocab)
    return ContextSpec(slots=tuple(Slot(offset=o, mapper=m) for o in offsets))


class TestSpecValidation:
    def test_nonnegative_offset_rejected(self):
        vocab = build_vocabulary("a".split())
        m = identity_mapper(vocab)
        with pytest.raises(ValueError, match="negative"):
            Slot(offset=0, mapper=m)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one slot"):
            ContextSpec(slots=())

    def test_offsets_must_increase_farthest_first(self):
        vocab = build_vocabulary("a".split())
        m = identity_mapper(vocab)
        with pytest.raises(ValueError, match="increasing"):
            ContextSpec(slots=(Slot(-1, m), Slot(-2, m)))
        with pytest.raises(ValueError, match="increasing"):
            ContextSpec(slots=(Slot(-1, m), Slot(-1, m)))

    def test_depth_and_arities(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-3, -1))
        assert spec.depth == 2
        assert spec.arities == (len(vocab), len(vocab))


class TestExtractEvents:
    def test_hand_computed_bigram_counts(self):
        vocab = build_vocabulary("a b a a".split())
        a, b = vocab.id_of("a"), vocab.id_of("b")
        bos, eos = vocab.bos_id, vocab.eos_id
        spec = word_spec(vocab, (-1,))
        sents = [[a, b, a], [a]]
        table = extract_events(sents, spec, vocab)
        assert table.counts == {
            (bos,): {a: 2},
            (a,): {b: 1, eos: 2},
            (b,): {a: 1},
        }
        assert table.total == 6
        assert table.context_marginals == {(bos,): 2, (a,): 3, (b,): 1}
        assert table.word_marginals == {a: 3, b: 1, eos: 2}

    def test_trigram_padding_uses_begin_value_per_slot(self):
        vocab = build_vocabulary("a b".split())
        a, b = vocab.id_of("a"), vocab.id_of("b")
        bos, eos = vocab.bos_id, vocab.eos_id
        spec = word_spec(vocab, (-2, -1))
        table = extract_events([[a, b]], spec, vocab)
        assert table.counts == {
            (bos, bos): {a: 1},
            (bos, a): {b: 1},
            (a, b): {eos: 1},
        }

    def test_end_token_never_inside_context(self):
        rng = random.Random(7)
        vocab = build_vocabulary("a b c".split())
        ids = [vocab.id_of(t) for t in "abc"]
        sents = [[rng.choice(ids) for _ in range(rng.randint(1, 5))] for _ in range(30)]
        table = extract_events(sents, word_spec(vocab, (-2, -1)), vocab)
        for ctx in table.counts:
            assert vocab.eos_id not in ctx

    def test_event_count_matches_tokens_plus_sentences(self):
        vocab, enc, table = build_table(["a b c", "b b", "c"])
        assert table.total == 6 + 3

    def test_mapper_size_mismatch_rejected(self):
        vocab = build_vocabulary("a b".split())
        other = build_vocabulary("a b c d e".split())
        spec = word_spec(other, (-1,))
        with pytest.raises(ValueError, match="mapper arity mismatch"):
            extract_events([[0]], spec, vocab)

    def test_empty_corpus_rejected(self):
        vocab = build_vocabulary("a".split())
        with pytest.raises(ValueError, match="empty corpus"):
            extract_events([], word_spec(vocab, (-1,)), vocab)


class TestFromCounts:
    def test_wrong_tuple_length_rejected(self):
        vocab = build_vocabulary("a".split())
        spec = word_spec(vocab, (-2, -1))
        with pytest.raises(ValueError, match="length"):
            EventTable.from_counts(spec, len(vocab), {(0,): {0: 1}})

    def test_nonpositive_count_rejected(self):
        vocab = build_vocabulary("a".split())
        spec = word_spec(vocab, (-1,))
        with pytest.raises(ValueError, match="positive"):
            EventTable.from_counts(spec, len(vocab), {(0,): {0: 0}})

    def test_marginals_derived_consistently(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        counts = {(0,): {1: 2, 2: 3}, (1,): {2: 4}}
        t = EventTable.from_counts(spec, len(vocab), counts)
        assert t.total == 9
        assert t.context_marginals == {(0,): 5, (1,): 4}
        assert t.word_marginals == {1: 2, 2: 7}
        assert t.n_contexts == 2


class TestDistinctContextCount:
    def test_threshold_counts(self):
        vocab, enc, table = build_table(["a a a a a a a b"], offsets=(-1,))
        total, below = distinct_context_count(table, min_count=3)
        assert total == table.n_contexts
        # every context marginal below 3 is counted
        assert below == sum(1 for n in table.context_marginals.values() if n < 3)


class TestCountsRoundTrip:
    def test_save_load_preserves_table(self, tmp_path):
        vocab, enc, table = build_table(["a b c a", "c b", "a"], offsets=(-2, -1))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        m = identity_mapper(vocab)
        loaded = load_counts(path, {"w": m})
        assert loaded.counts == table.counts
        assert loaded.total == table.total
        assert loaded.n_words == table.n_words
        assert [s.offset for s in loaded.spec.slots] == [-2, -1]

    def test_save_is_deterministic(self, tmp_path):
        vocab, enc, table = build_table(["b a", "a b a"], offsets=(-1,))
        p1, p2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
        save_counts(table, p1)
        save_counts(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_without_mappers_uses_placeholders(self, tmp_path):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        loaded = load_counts(path)
        assert loaded.counts == table.counts
        assert loaded.spec.arities == table.spec.arities

    def test_load_rejects_arity_mismatch(self, tmp_path):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        small = build_vocabulary("a".split())
        with pytest.raises(ValueError, match="arity"):
            load_counts(path, {"w": identity_mapper(small)})

    def test_load_rejects_unknown_mapper_name(self, tmp_path):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(path=path, table=table)
        text = path.read_text().replace("\tw\t", "\tq\t")
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown mapper"):
            load_counts(path, {"w": identity_mapper(vocab)})

    @pytest.mark.parametrize("bad_id", [99, -1])
    def test_load_rejects_out_of_range_word_id(self, tmp_path, bad_id):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        lines = path.read_text().splitlines()
        ctx, _, n = lines[-1].split("\t")
        path.write_text("\n".join(lines + [f"{ctx}\t{bad_id}\t{n}"]) + "\n")
        with pytest.raises(ValueError, match="word ids outside"):
            load_counts(path)

    def test_load_rejects_non_counts_file(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="not a counts file"):
            load_counts(path)
