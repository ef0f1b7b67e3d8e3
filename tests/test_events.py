"""Context specs and prediction-event count tables."""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm.corpus import FeatureMapper, build_vocabulary, identity_mapper
from clusterlm.events import (
    ContextSpec,
    EventTable,
    Slot,
    extract_events,
    load_counts,
    save_counts,
)

from conftest import build_table, make_random_corpus


def word_spec(vocab, offsets):
    m = identity_mapper(vocab)
    return ContextSpec(slots=tuple(Slot(offset=o, mapper=m) for o in offsets))


def context_counts(table):
    """Context tuple -> event count, from the table's arrays."""
    return dict(zip(map(tuple, table.contexts.tolist()), table.ctx_counts.tolist()))


def seen_word_counts(table):
    """Word id -> event count for the words the table has seen."""
    return {w: n for w, n in enumerate(table.word_counts.tolist()) if n}


def counts_lines(tmp_path, sentences=("a b c a", "c b", "a b"), offsets=(-2, -1)):
    """(path, lines) of a saved counts file of a small corpus."""
    vocab, enc, table = build_table(list(sentences), offsets=offsets)
    path = tmp_path / "counts.tsv"
    save_counts(table, path)
    return path, path.read_text().splitlines()


def n_header(lines):
    return sum(1 for line in lines if line.startswith("#"))


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
        assert [s.mapper.arity for s in spec.slots] == [len(vocab), len(vocab)]


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
        assert context_counts(table) == {(bos,): 2, (a,): 3, (b,): 1}
        assert seen_word_counts(table) == {a: 3, b: 1, eos: 2}
        assert table.word_counts.shape == (len(vocab),)

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

    def test_counts_too_large_to_sum_rejected(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        huge = 4 * 10**18  # fits int64 alone, but not three of them summed
        with pytest.raises(ValueError, match="add up"):
            EventTable.from_counts(spec, len(vocab), {(0,): {1: huge, 2: huge, 3: huge}})

    def test_marginals_derived_consistently(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        counts = {(0,): {1: 2, 2: 3}, (1,): {2: 4}}
        t = EventTable.from_counts(spec, len(vocab), counts)
        assert t.total == 9
        assert context_counts(t) == {(0,): 5, (1,): 4}
        assert seen_word_counts(t) == {1: 2, 2: 7}
        assert t.n_contexts == 2


    def test_constructor_checks_ranges_then_order(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        n = len(vocab)
        ok = np.array([[0, 1], [1, 2]])
        EventTable(spec, n, ok, [1, 1])
        with pytest.raises(ValueError, match="word ids outside"):
            EventTable(spec, n, [[1, 2], [0, n]], [1, 1])
        with pytest.raises(ValueError, match="slot -1 values outside"):
            EventTable(spec, n, [[1, 2], [-1, 0]], [1, 1])
        with pytest.raises(ValueError, match="not strictly sorted"):
            EventTable(spec, n, ok[::-1], [1, 1])
        with pytest.raises(ValueError, match="not strictly sorted"):
            EventTable(spec, n, [[0, 1], [0, 1]], [1, 1])
        with pytest.raises(ValueError, match="empty event table"):
            EventTable(spec, n, np.zeros((0, 2)), [])

    def test_arrays_are_read_only(self):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        for a in (table.contexts, table.ptr, table.words, table.freqs,
                  table.ctx_counts, table.word_counts):
            with pytest.raises(ValueError):
                a[0] = 0


class TestIndexOf:
    def test_every_context_is_found_at_its_row(self):
        vocab, enc, table = build_table(["a b c a", "c b", "a b"], offsets=(-2, -1))
        for i, ctx in enumerate(table.contexts.tolist()):
            assert table.index_of(tuple(ctx)) == i

    @pytest.mark.parametrize(
        "context", [(0, 0), (0,), (0, 1, 2), (-1, 0), (0, 2**31), (2**32, 0), (2**70, 1)]
    )
    def test_unknown_wrong_length_and_out_of_range_contexts_raise(self, context):
        vocab, enc, table = build_table(["a b c a", "c b", "a b"], offsets=(-2, -1))
        assert tuple(table.contexts[0].tolist()) != (0, 0)  # (0, 0) would sort first
        with pytest.raises(ValueError, match="unknown context"):
            table.index_of(context)


class TestArrayOracle:
    """extract_events against a plain-dict count of every prediction."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), depth=st.integers(1, 3))
    def test_extract_matches_dict_count(self, tmp_path_factory, seed, depth):
        rng = random.Random(seed)
        vocab = build_vocabulary(f"w{i}" for i in range(rng.randint(1, 8)))
        n = len(vocab)
        classes = FeatureMapper(
            name="g", arity=3, value_names=["0", "1", "2"],
            table=np.array([rng.randrange(3) for _ in range(n)], dtype=np.int32),
        )
        mappers = {"w": identity_mapper(vocab), "g": classes}
        offsets = sorted(rng.sample(range(-4, 0), depth))
        spec = ContextSpec(tuple(Slot(o, mappers[rng.choice("wg")]) for o in offsets))
        sents = [[rng.randrange(n) for _ in range(rng.randint(0, 7))]
                 for _ in range(rng.randint(1, 12))]
        table = extract_events(sents, spec, vocab)

        bos = vocab.bos_id
        counts = {}
        for sent in sents:
            for i in range(len(sent) + 1):
                w = sent[i] if i < len(sent) else vocab.eos_id
                ctx = tuple(
                    int(sl.mapper.table[sent[i + sl.offset] if i + sl.offset >= 0 else bos])
                    for sl in spec.slots
                )
                row = counts.setdefault(ctx, {})
                row[w] = row.get(w, 0) + 1
        contexts = sorted(counts)
        rows = [sorted(counts[c].items()) for c in contexts]
        word_counts = [0] * n
        for row in rows:
            for w, k in row:
                word_counts[w] += k
        assert table.contexts.dtype == np.int32 and table.words.dtype == np.int32
        assert table.ptr.dtype == table.freqs.dtype == np.int64
        assert table.ctx_counts.dtype == table.word_counts.dtype == np.int64
        assert table.contexts.tolist() == [list(c) for c in contexts]
        assert table.ptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
        assert table.words.tolist() == [w for row in rows for w, _ in row]
        assert table.freqs.tolist() == [k for row in rows for _, k in row]
        assert table.ctx_counts.tolist() == [sum(k for _, k in row) for row in rows]
        assert table.word_counts.tolist() == word_counts
        assert table.total == sum(len(s) + 1 for s in sents)
        assert table.counts == counts

        out = tmp_path_factory.mktemp("rt")
        save_counts(table, out / "a.tsv")
        loaded = load_counts(out / "a.tsv", mappers)
        save_counts(loaded, out / "b.tsv")
        assert (out / "a.tsv").read_bytes() == (out / "b.tsv").read_bytes()
        for name in ("contexts", "ptr", "words", "freqs", "ctx_counts", "word_counts"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(table, name))


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
        arities = [[s.mapper.arity for s in t.spec.slots] for t in (loaded, table)]
        assert arities[0] == arities[1]

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

    @pytest.mark.parametrize("value", [999, -5])
    def test_load_rejects_out_of_range_slot_value(self, tmp_path, value):
        path, lines = counts_lines(tmp_path, offsets=(-1,))
        at = n_header(lines)
        _, w, n = lines[at].split("\t")
        lines[at] = f"{value}\t{w}\t{n}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="slot -1 values outside"):
            load_counts(path)

    def test_load_rejects_duplicate_line(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        path.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(ValueError, match="not strictly sorted"):
            load_counts(path)

    def test_load_rejects_duplicate_event_with_other_count(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        ctx, w, n = lines[-1].split("\t")
        path.write_text("\n".join(lines + [f"{ctx}\t{w}\t{int(n) + 1}"]) + "\n")
        with pytest.raises(ValueError, match="not strictly sorted"):
            load_counts(path)

    def test_load_rejects_unsorted_rows(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        at = n_header(lines)
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not strictly sorted"):
            load_counts(path)

    def test_load_rejects_file_without_events(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        path.write_text("\n".join(lines[: n_header(lines)]) + "\n")
        with pytest.raises(ValueError, match="empty event table"):
            load_counts(path)


class TestCountsFileCorruption:
    """A damaged counts file loads as a valid table or raises ValueError."""

    def test_truncation_at_every_line(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        header = n_header(lines)
        cut = tmp_path / "cut.tsv"
        for k in range(len(lines)):
            head = "".join(line + "\n" for line in lines[:k])
            cut.write_text(head)
            if k <= header:
                with pytest.raises(ValueError):
                    load_counts(cut)
            else:
                # a cut between event lines leaves a valid, smaller table
                assert len(load_counts(cut).words) == k - header
            cut.write_text(head + lines[k][: len(lines[k]) // 2])
            with pytest.raises(ValueError):
                load_counts(cut)

    @pytest.mark.parametrize("name, edit", [
        ("no version", lambda L: L[1:]),
        ("no vocab", lambda L: [L[0]] + L[2:]),
        ("vocab text", lambda L: [L[0], "#vocab\tmany"] + L[2:]),
        ("no slots", lambda L: [x for x in L if not x.startswith("#slot")]),
        ("slot fields", lambda L: [x + "\tx" if x.startswith("#slot") else x for x in L]),
        ("slot offset zero", lambda L: [x.replace("#slot\t-1", "#slot\t0") for x in L]),
        ("slots out of order", lambda L: L[:2] + [L[3], L[2]] + L[4:]),
        ("missing field", lambda L: L[:-1] + [L[-1].rpartition("\t")[0]]),
        ("extra field", lambda L: L[:-1] + [L[-1] + "\t1"]),
        ("space for tab", lambda L: L[:-1] + [L[-1].replace("\t", " ")]),
        ("zero count", lambda L: L[:-1] + [L[-1].rpartition("\t")[0] + "\t0"]),
        ("float count", lambda L: L[:-1] + [L[-1] + ".5"]),
        ("huge count", lambda L: L[:-1] + [L[-1].rpartition("\t")[0] + "\t" + "9" * 25]),
        ("inner minus", lambda L: L[:-1] + [L[-1] + "-1"]),
        ("blank line", lambda L: L[:-1] + ["", L[-1]]),
        ("trailing header", lambda L: L + ["#vocab\t3"]),
    ])
    def test_corruption_is_rejected(self, tmp_path, name, edit):
        path, lines = counts_lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError):
            load_counts(path)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_byte_damage_never_escapes_as_another_error(self, data):
        vocab, enc, table = build_table(make_random_corpus(3, 12, n_words=5), offsets=(-2, -1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.tsv"
            save_counts(table, path)
            raw = bytearray(path.read_bytes())
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(raw) - 1))
                if data.draw(st.booleans()):
                    raw[at] = data.draw(st.sampled_from(b"0123456789 \t\n#-x"))
                else:
                    del raw[at]
            path.write_bytes(bytes(raw))
            try:
                loaded = load_counts(path)
            except ValueError:
                return
            assert loaded.total == int(loaded.freqs.sum()) > 0
            assert int(loaded.word_counts.sum()) == loaded.total
