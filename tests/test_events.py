"""Context specs and prediction-event count tables."""

import random
import re
import tempfile
import tracemalloc
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

from conftest import (
    build_table,
    index_of,
    make_random_corpus,
    random_event_table,
    table_from_counts,
)


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


def malformed_row(path, line: int) -> str:
    """The whole message, as a pattern, of a malformed event row at the
    1-based ``line`` of the counts file ``path``."""
    return f"^{re.escape(f'corrupt counts file {path}: line {line}: malformed event rows')}$"


def n_header(lines):
    return sum(1 for line in lines if line.startswith("#"))


def assert_same_mappers(loaded, table):
    for got, want in zip(loaded.spec.slots, table.spec.slots, strict=True):
        assert (got.offset, got.mapper.name, got.mapper.arity) == (
            want.offset, want.mapper.name, want.mapper.arity)
        np.testing.assert_array_equal(got.mapper.table, want.mapper.table)


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
        assert spec.depth == 2 and spec.n_words == len(vocab)
        assert [s.mapper.arity for s in spec.slots] == [len(vocab), len(vocab)]

    @pytest.mark.parametrize("name, make, arity, message", [
        ("t", np.ones, 2, "slot -1: mapper 't' differs from another slot's of that name"),
        ("t", np.zeros, 3, "slot -1: mapper 't' differs from another slot's of that name"),
        ("g", lambda n: np.zeros(n - 1), 2, "slot -1 (g) maps 4 words, slot -2 (t) 5"),
        ("t", lambda n: np.zeros(n + 1), 2, "slot -1 (t) maps 6 words, slot -2 (t) 5"),
    ], ids=["other table", "other arity", "other size", "namesake of other size"])
    def test_mappers_must_agree(self, name, make, arity, message):
        """Every mapper maps the spec's ``n_words`` words, and slots of
        one name share one table and arity."""
        n = len(build_vocabulary("a b".split()))
        first = Slot(-2, FeatureMapper("t", np.zeros(n), 2))
        assert ContextSpec((first, Slot(-1, FeatureMapper("t", np.zeros(n), 2)))).n_words == n
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ContextSpec((first, Slot(-1, FeatureMapper(name, make(n), arity))))


class TestExtractEvents:
    def test_hand_computed_bigram_counts(self):
        vocab = build_vocabulary("a b a a".split())
        a, b = vocab.ids["a"], vocab.ids["b"]
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
        a, b = vocab.ids["a"], vocab.ids["b"]
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
        ids = [vocab.ids[t] for t in "abc"]
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
        with pytest.raises(ValueError, match="the context's mappers map 8 words, the "
                           "vocabulary has 5"):
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
            table_from_counts(spec, {(0,): {0: 1}})

    def test_nonpositive_count_rejected(self):
        vocab = build_vocabulary("a".split())
        spec = word_spec(vocab, (-1,))
        with pytest.raises(ValueError, match=r"^event counts outside \[1, 2\*\*62\)$"):
            table_from_counts(spec, {(0,): {0: 0}})

    def test_counts_too_large_to_sum_rejected(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        huge = 4 * 10**18  # fits int64 alone, but not three of them summed
        with pytest.raises(ValueError, match="add up"):
            table_from_counts(spec, {(0,): {1: huge, 2: huge, 3: huge}})

    @pytest.mark.parametrize("counts", [[2**62 - 1], [2**62 - 2, 1], [1, 2**61, 2**61 - 2]])
    def test_a_total_just_below_2_62_is_kept(self, counts):
        vocab = build_vocabulary("a b c".split())
        spec = word_spec(vocab, (-1,))
        table = table_from_counts(spec, {(0,): dict(enumerate(counts, 1))})
        assert table.total == 2**62 - 1 and type(table.total) is int

    @pytest.mark.parametrize("counts", [[2**62], [2**62 - 1, 1], [2**61, 2**61], [2**63 - 1]])
    def test_a_total_of_2_62_or_more_is_rejected(self, counts):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        # one count of 2**62 or more fails the count rule before the total's
        rule = r"outside \[1, 2\*\*62\)" if max(counts) >= 2**62 else r"must add up to less than 2\*\*62"
        with pytest.raises(ValueError, match=f"^event counts {rule}$"):
            table_from_counts(spec, {(0,): dict(enumerate(counts, 1))})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 2**31), st.integers(1, 2**62), st.just(2**63 - 1)),
                    min_size=1, max_size=12))
    def test_the_total_is_the_exact_sum(self, counts):
        vocab = build_vocabulary(" ".join(map(str, range(12))).split())
        spec = word_spec(vocab, (-1,))
        build = lambda: table_from_counts(spec, {(0,): dict(enumerate(counts))})
        if sum(counts) < 2**62:
            assert build().total == sum(counts)
        else:
            rule = r"outside \[1, 2\*\*62\)" if max(counts) >= 2**62 else "must add up"
            with pytest.raises(ValueError, match=f"^event counts {rule}"):
                build()

    def test_marginals_derived_consistently(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        counts = {(0,): {1: 2, 2: 3}, (1,): {2: 4}}
        t = table_from_counts(spec, counts)
        assert t.total == 9
        assert context_counts(t) == {(0,): 5, (1,): 4}
        assert seen_word_counts(t) == {1: 2, 2: 7}
        assert t.n_contexts == 2


    def test_constructor_checks_ranges_then_order(self):
        vocab = build_vocabulary("a b".split())
        spec = word_spec(vocab, (-1,))
        n = len(vocab)
        ok = np.array([[0, 1], [1, 2]])
        EventTable(spec, ok, [1, 1])
        with pytest.raises(ValueError, match="word ids outside"):
            EventTable(spec, [[1, 2], [0, n]], [1, 1])
        with pytest.raises(ValueError, match="slot -1 values outside"):
            EventTable(spec, [[1, 2], [-1, 0]], [1, 1])
        with pytest.raises(ValueError, match="not strictly sorted"):
            EventTable(spec, ok[::-1], [1, 1])
        with pytest.raises(ValueError, match="not strictly sorted"):
            EventTable(spec, [[0, 1], [0, 1]], [1, 1])
        with pytest.raises(ValueError, match="empty event table"):
            EventTable(spec, np.zeros((0, 2)), [])

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
            assert index_of(table, tuple(ctx)) == i

    @pytest.mark.parametrize(
        "context", [(0, 0), (0,), (0, 1, 2), (-1, 0), (0, 2**31), (2**32, 0), (2**70, 1)]
    )
    def test_unknown_wrong_length_and_out_of_range_contexts_raise(self, context):
        vocab, enc, table = build_table(["a b c a", "c b", "a b"], offsets=(-2, -1))
        assert tuple(table.contexts[0].tolist()) != (0, 0)  # (0, 0) would sort first
        with pytest.raises(ValueError, match="unknown context"):
            index_of(table, context)


class TestArrayOracle:
    """extract_events against a plain-dict count of every prediction."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), depth=st.integers(1, 3))
    def test_extract_matches_dict_count(self, tmp_path_factory, seed, depth):
        rng = random.Random(seed)
        vocab = build_vocabulary(f"w{i}" for i in range(rng.randint(1, 8)))
        n = len(vocab)
        classes = FeatureMapper(
            name="g", arity=3,
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
        loaded = load_counts(out / "a.tsv")
        save_counts(loaded, out / "b.tsv")
        assert (out / "a.tsv").read_bytes() == (out / "b.tsv").read_bytes()
        for name in ("contexts", "ptr", "words", "freqs", "ctx_counts", "word_counts"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(table, name))
        assert_same_mappers(loaded, table)


class TestCountsRoundTrip:
    def test_save_load_preserves_table(self, tmp_path):
        vocab, enc, table = build_table(["a b c a", "c b", "a"], offsets=(-2, -1))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        assert not [line for line in path.read_text().splitlines() if line.startswith("#map")]
        loaded = load_counts(path)
        assert loaded.counts == table.counts
        assert loaded.total == table.total
        assert loaded.n_words == table.n_words
        assert [s.offset for s in loaded.spec.slots] == [-2, -1]
        assert_same_mappers(loaded, table)

    def test_save_is_deterministic(self, tmp_path):
        vocab, enc, table = build_table(["b a", "a b a"], offsets=(-1,))
        p1, p2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
        save_counts(table, p1)
        save_counts(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_arity_mismatch(self, tmp_path):
        # a w slot without a #map line is the identity, of the vocabulary's arity
        path, lines = counts_lines(tmp_path, offsets=(-1,))
        n = int(lines[1].split("\t")[1])
        path.write_text("\n".join(lines).replace(f"\tw\t{n}\n", f"\tw\t{n - 1}\n") + "\n")
        want = f"corrupt counts file {path}: line 3: slot -1 (w) has arity {n - 1}, but the file"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_counts(path)

    @pytest.mark.parametrize("vocab", [1, 5, 7])
    def test_a_vocab_unlike_the_w_arity_names_the_slot_line(self, tmp_path, vocab):
        # the file needs no #map w line, so the error asks for no re-run; a
        # #vocab outside [1, 2**31) fails on its own line, before the slots
        path, lines = counts_lines(tmp_path, offsets=(-1,))
        n = int(lines[1].split("\t")[1])
        assert lines[2] == f"#slot\t-1\tw\t{n}" and vocab != n
        lines[1] = f"#vocab\t{vocab}"
        path.write_text("\n".join(lines) + "\n")
        want = (f"corrupt counts file {path}: line 3: "
                f"slot -1 (w) has arity {n}, but the file has {vocab} words")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_counts(path)

    def test_slots_of_one_name_and_two_arities_name_the_second_slot_line(self, tmp_path):
        path, lines = counts_lines(tmp_path, offsets=(-2, -1))
        n = int(lines[1].split("\t")[1])
        assert lines[2:4] == [f"#slot\t-2\tw\t{n}", f"#slot\t-1\tw\t{n}"]
        lines[2] = f"#slot\t-2\tw\t{n - 1}"
        path.write_text("\n".join(lines) + "\n")
        want = f"corrupt counts file {path}: line 4: slots named 'w' differ in arity"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_counts(path)

    def test_load_rejects_unknown_mapper_name(self, tmp_path):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(path=path, table=table)
        text = path.read_text().replace("\tw\t", "\tq\t")
        path.write_text(text)
        with pytest.raises(ValueError, match=r"slot -1 \(q\) has no #map line"):
            load_counts(path)

    @pytest.mark.parametrize("bad_id", [99, -1])
    def test_load_rejects_out_of_range_word_id(self, tmp_path, bad_id):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        path = tmp_path / "counts.tsv"
        save_counts(table, path)
        lines = path.read_text().splitlines()
        ctx, _, n = lines[-1].split("\t")
        path.write_text("\n".join(lines + [f"{ctx}\t{bad_id}\t{n}"]) + "\n")
        # a signed field is no row field at all: a malformed row at its line
        want = "word ids outside" if bad_id >= 0 else malformed_row(path, len(lines) + 1)
        with pytest.raises(ValueError, match=want):
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
        want = "slot -1 values outside" if value >= 0 else malformed_row(path, at + 1)
        with pytest.raises(ValueError, match=want):
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


def mapped_lines(tmp_path):
    """(table, path, lines) of a saved ``t:-2,g:-1`` counts file, its tag
    map of arity 3 and its class map of arity 2."""
    vocab = build_vocabulary("a b c a b".split())
    n = len(vocab)
    spec = ContextSpec((Slot(-2, FeatureMapper("t", np.arange(n) % 3, 3)),
                        Slot(-1, FeatureMapper("g", np.arange(n) // 2 % 2, 2))))
    enc = [[vocab.ids[t] for t in s.split()] for s in ("a b c a", "c b", "a b")]
    table = extract_events(enc, spec, vocab)
    path = tmp_path / "counts.tsv"
    save_counts(table, path)
    return table, path, path.read_text().splitlines()


class TestMapLines:
    """Every slot mapper but the word identity is saved as a ``#map`` line
    and rebuilt from it."""

    def test_maps_round_trip(self, tmp_path):
        table, path, lines = mapped_lines(tmp_path)
        n = table.n_words
        maps = [line.split("\t") for line in lines if line.startswith("#map")]
        assert [m[1] for m in maps] == ["t", "g"] and [len(m[2].split()) for m in maps] == [n, n]
        loaded = load_counts(path)
        assert loaded.counts == table.counts
        assert_same_mappers(loaded, table)
        save_counts(loaded, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_a_short_table_alone_sizes_its_table(self, tmp_path):
        """A lone mapper of fewer words than the vocabulary has sizes the
        table built on it, which saves and loads as that many words;
        counting a corpus of the vocabulary rejects it."""
        vocab = build_vocabulary("a b".split())
        n = len(vocab)
        spec = ContextSpec((Slot(-1, FeatureMapper("t", np.zeros(n - 1), 2)),))
        table = table_from_counts(spec, {(0,): {2: 1}})
        assert table.n_words == spec.n_words == n - 1
        save_counts(table, tmp_path / "c.tsv")
        loaded = load_counts(tmp_path / "c.tsv")
        assert loaded.n_words == n - 1 and loaded.counts == table.counts
        with pytest.raises(ValueError, match=f"word ids outside \\[0, {n - 1}\\)"):
            table_from_counts(spec, {(0,): {n - 1: 1}})
        with pytest.raises(ValueError, match=f"mappers map {n - 1} words, the vocabulary has {n}"):
            extract_events([[0]], spec, vocab)

    @pytest.mark.parametrize("damage, message", [
        ("cut off", "cut-off #map line"),
        ("one value too few", "#map t has {m} values for {n} words"),
        ("value equal to the arity", "#map t values outside [0, 3)"),
        ("value not an integer", "#map t value is not 1 to 18 digits: 'x'"),
        ("value with a sign", "#map t value is not 1 to 18 digits: '-0'"),
        ("two spaces", "#map t value is not 1 to 18 digits: ''"),
        ("no #map lines", "slot -2 (t) has no #map line; re-run clusterlm counts collect"),
    ])
    def test_a_damaged_map_line_names_the_file_and_line(self, tmp_path, damage, message):
        table, path, lines = mapped_lines(tmp_path)
        k = next(i for i, line in enumerate(lines) if line.startswith("#map\tt\t"))
        head, _, values = lines[k].rpartition("\t")
        values = values.split()
        if damage == "cut off":
            lines, end = lines[:k] + [lines[k][: len(lines[k]) // 2]], ""
        else:
            end = "\n"
            if damage == "one value too few":
                lines[k] = head + "\t" + " ".join(values[:-1])
            elif damage == "value equal to the arity":
                lines[k] = head + "\t" + " ".join(["3"] + values[1:])
            elif damage == "value not an integer":
                lines[k] = head + "\t" + " ".join(["x"] + values[1:])
            elif damage == "value with a sign":
                lines[k] = head + "\t" + " ".join(["-0"] + values[1:])
            elif damage == "two spaces":
                lines[k] = head + "\t" + "  ".join(values)
            else:
                lines = [line for line in lines if not line.startswith("#map")]
        path.write_text("\n".join(lines) + end)
        message = message.format(n=table.n_words, m=table.n_words - 1)
        want = f"corrupt counts file {path}: line {k + 1}: {message}"
        with pytest.raises(ValueError, match=re.escape(want)):
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
        ("map of no slot", lambda L: L[:4] + ["#map\tq\t" + " ".join(["0"] * 6)] + L[4:]),
        ("map twice", lambda L: L[:4] + ["#map\tw\t" + " ".join(["0"] * 6)] * 2 + L[4:]),
        ("map value with a sign", lambda L: L[:4] + ["#map\tw\t-0 1 2 3 4 5"] + L[4:]),
    ])
    def test_corruption_is_rejected(self, tmp_path, name, edit):
        path, lines = counts_lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError):
            load_counts(path)

    @pytest.mark.parametrize("damage, message", [
        ("zero count", "event counts outside [1, 2**62)"),
        ("swapped rows", "event rows are not strictly sorted"),
    ])
    def test_a_bad_event_row_names_the_file_and_line(self, tmp_path, damage, message):
        path, lines = counts_lines(tmp_path)
        if damage == "zero count":
            lines[-1] = lines[-1].rpartition("\t")[0] + "\t0"
            k = len(lines) - 1
        else:
            k = n_header(lines) + 2  # the first row below the row before it
            lines[k - 1], lines[k] = lines[k], lines[k - 1]
        path.write_text("\n".join(lines) + "\n")
        want = f"corrupt counts file {path}: line {k + 1}: {message}"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_counts(path)

    @pytest.mark.parametrize("text", ["3_3", "+33", " 33", "\u0663\u0663", "-0x1"])
    def test_a_header_integer_is_read_as_a_row_field(self, tmp_path, text):
        # int() takes all but the last; the vocabulary size is 6 words
        path, lines = counts_lines(tmp_path)
        assert lines[1] == "#vocab\t6"
        path.write_text("\n".join([lines[0], f"#vocab\t{text}", *lines[2:]]) + "\n")
        want = f"corrupt counts file {path}: line 2: vocab is not an integer: {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_counts(path)

    @pytest.mark.parametrize("n_words", [0, -3, 2**31, 10**12])
    def test_a_vocab_size_outside_the_int32_ids_names_its_line(self, tmp_path, n_words):
        # checked before the w slot's identity map of n_words ids is built
        path = tmp_path / "counts.tsv"
        path.write_text(f"#clusterlm-counts v1\n#vocab\t{n_words}\n#slot\t-1\tw\t{n_words}\n0\t1\t2\n")
        want = f"corrupt counts file {path}: line 2: #vocab outside [1, 2**31)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_counts(path)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_the_first_bad_row_is_named(self, data):
        vocab, enc, table = build_table(make_random_corpus(5, 30, n_words=6), offsets=(-2, -1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.tsv"
            save_counts(table, path)
            lines = path.read_text().splitlines()
            head = n_header(lines)
            bad = data.draw(st.sets(st.integers(head, len(lines) - 1), min_size=1, max_size=4))
            counts = {k: data.draw(st.sampled_from(["0", "-1"])) for k in bad}
            for k, count in counts.items():
                lines[k] = lines[k].rpartition("\t")[0] + "\t" + count
            path.write_text("\n".join(lines) + "\n")
            # a signed count fails the row grammar, before any count check
            signed = [k for k, count in counts.items() if count == "-1"]
            if signed:
                want = malformed_row(path, min(signed) + 1)
            else:
                zero = f"corrupt counts file {path}: line {min(bad) + 1}: event counts"
                want = f"^{re.escape(zero)} outside {re.escape('[1, 2**62)')}$"
            with pytest.raises(ValueError, match=want):
                load_counts(path)

    @pytest.mark.parametrize("edit, k, message", [
        (lambda L: [x.replace("#slot\t-1", "#slot\t0") for x in L], 3,
         "slot offsets must be negative"),
        (lambda L: L[:2] + [L[3], L[2]] + L[4:], 3,
         "slot offsets must be strictly increasing (farthest first)"),
        (lambda L: [x for x in L if not x.startswith("#slot")], 2, "expected a #slot line"),
    ], ids=["offset zero", "slots out of order", "no slots"])
    def test_a_rejected_slot_names_the_file_and_its_line(self, tmp_path, edit, k, message):
        path, lines = counts_lines(tmp_path)
        assert [x.split("\t")[:2] for x in lines[2:4]] == [["#slot", "-2"], ["#slot", "-1"]]
        path.write_text("\n".join(edit(lines)) + "\n")
        want = f"corrupt counts file {path}: line {k + 1}: {message}"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_counts(path)

    def test_a_slot_name_that_is_not_utf8_names_the_file_and_line(self, tmp_path):
        path, lines = counts_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith("#slot\t"))
        raw = [line.encode() for line in lines]
        raw[at] = raw[at].replace(b"\tw\t", b"\t\xff\t")
        path.write_bytes(b"\n".join(raw) + b"\n")
        want = f"corrupt counts file {path}: line {at + 1} is not UTF-8"
        with pytest.raises(ValueError, match=re.escape(want)):
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


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="the bound needs a tracemalloc of its own")
def test_load_counts_peaks_near_what_it_keeps(tmp_path):
    # the loader parses in blocks: beside the table it returns, the file's
    # bytes and the one int64 matrix of the parsed rows, which the table
    # does not keep, it holds only temporaries of a fraction of the table
    path = tmp_path / "counts.txt"
    save_counts(random_event_table(random.Random(3), 300, 20000, max_count=9), path)
    tracemalloc.start()
    try:
        table = load_counts(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.freqs) > 40000
    parsed = 8 * len(table.freqs) * (table.spec.depth + 2)
    assert kept < parsed  # no view of the parsed rows is kept
    assert peak <= kept + path.stat().st_size + parsed + kept // 2, (peak, kept)
