"""Vocabulary construction, corpus encoding and feature maps."""

import random

import numpy as np
import pytest

from clusterlm.corpus import (
    BOS,
    EOS,
    UNK,
    FeatureMapper,
    Vocabulary,
    build_vocabulary,
    decode_corpus,
    encode_corpus,
    identity_mapper,
    iter_tokens,
    load_feature_map,
    read_corpus_lines,
    save_feature_map,
)


class TestBuildVocabulary:
    def test_frequency_ranking_with_first_occurrence_ties(self):
        vocab = build_vocabulary("b a a c b".split())
        # a and b both occur twice; b appeared first
        assert vocab.tokens[:3] == ["b", "a", "c"]
        assert vocab.freq[:3] == [2, 2, 1]

    def test_specials_appended_when_absent(self):
        vocab = build_vocabulary("x y".split())
        for tok in (BOS, EOS, UNK):
            assert tok in vocab
        assert vocab.tokens[vocab.bos_id] == BOS
        assert vocab.freq[vocab.unk_id] == 0

    def test_truncation_folds_oov_mass_into_unk(self):
        stream = "a a a b b c d".split()
        vocab = build_vocabulary(stream, max_size=2)
        assert vocab.tokens[:2] == ["a", "b"]
        assert "c" not in vocab and "d" not in vocab
        assert vocab.freq[vocab.unk_id] == 2
        # total over non-boundary entries equals the stream length
        assert sum(vocab.freq) == len(stream)

    def test_special_seen_in_stream_keeps_single_count(self):
        stream = f"a a {UNK} b".split()
        vocab = build_vocabulary(stream, max_size=1)
        # unk itself was truncated out of the top slice but is re-added;
        # its own occurrence must not be double counted
        assert vocab.freq[vocab.unk_id] == 1 + 1  # own occurrence + truncated b

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary(iter(()))

    def test_bad_max_size_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary("a".split(), max_size=0)


class TestVocabularyRoundTrip:
    def test_save_load_preserves_ids_and_specials(self, tmp_path):
        vocab = build_vocabulary("the cat sat on the mat".split())
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.specials == vocab.specials
        assert all(f == 0 for f in loaded.freq)

    def test_load_rejects_missing_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n")
        with pytest.raises(ValueError, match="special"):
            Vocabulary.load(path)

    def test_truncation_at_every_line_and_mid_line_is_rejected(self, tmp_path):
        vocab = build_vocabulary("the cat sat on the mat".split())
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        data = path.read_bytes()
        line_ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
        cuts = sorted(set(line_ends[:-1]) | {end - 2 for end in line_ends} | {0, len(data) - 1})
        for cut in cuts:
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                Vocabulary.load(path)
        # a cut after the tokens names the special whose token is gone
        path.write_bytes(data[: line_ends[-2]])
        with pytest.raises(ValueError, match=r"unk special token '<unk>'"):
            Vocabulary.load(path)

    def test_load_rejects_malformed_special_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for line in ("#special bos", "#special tab <t>"):
            path.write_text(f"{line}\n#special eos </s>\n#special unk <unk>\n</s>\n<unk>\n")
            with pytest.raises(ValueError, match="malformed special line"):
                Vocabulary.load(path)

    def test_load_rejects_duplicates(self, tmp_path):
        vocab = build_vocabulary("a b".split())
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        path.write_text(path.read_text() + "a\n")
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary.load(path)


class TestEncoding:
    def test_oov_maps_to_unk(self):
        vocab = build_vocabulary("a b".split())
        enc = encode_corpus(["a z b"], vocab)
        assert enc == [[vocab.id_of("a"), vocab.unk_id, vocab.id_of("b")]]

    def test_blank_lines_skipped(self):
        vocab = build_vocabulary("a".split())
        assert encode_corpus(["", "a", "   "], vocab) == [[vocab.id_of("a")]]

    def test_decode_inverts_encode_in_vocabulary(self):
        rng = random.Random(3)
        sents = [
            " ".join(rng.choice("a b c d".split()) for _ in range(rng.randint(1, 6)))
            for _ in range(20)
        ]
        vocab = build_vocabulary(t for s in sents for t in s.split())
        assert decode_corpus(encode_corpus(sents, vocab), vocab) == sents

    def test_corpus_file_reading(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\n\nc\n")
        lines = read_corpus_lines(p)
        assert lines == ["a b", "c"]
        assert list(iter_tokens(lines)) == ["a", "b", "c"]


class TestFeatureMaps:
    def _vocab(self):
        return build_vocabulary("dog cat runs jumps dog".split())

    def test_identity_mapper_is_identity(self):
        vocab = self._vocab()
        m = identity_mapper(vocab)
        assert m.arity == len(vocab)
        assert list(m.table) == list(range(len(vocab)))
        assert m.value_names == vocab.tokens

    def test_tag_map_with_explicit_coverage(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "tag-map", "t")
        assert m.kind == "tag-map"
        # lexicographic value order for non-numeric tags
        assert m.value_names[:2] == ["N", "V"]
        assert m.value_of(vocab.id_of("dog")) == m.value_of(vocab.id_of("cat"))
        assert m.value_of(vocab.id_of("runs")) != m.value_of(vocab.id_of("dog"))

    def test_specials_get_dedicated_fresh_values(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "tag-map")
        vals = {m.value_of(w) for w in vocab.specials}
        assert len(vals) == 3
        assert vals.isdisjoint({m.value_of(vocab.id_of("dog")), m.value_of(vocab.id_of("runs"))})
        assert m.arity == 2 + 3

    def test_default_value_fills_gaps(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("#default\tX\ndog\tN\n")
        m = load_feature_map(p, vocab, "tag-map")
        assert m.value_names[m.value_of(vocab.id_of("cat"))] == "X"
        assert m.value_names[m.value_of(vocab.id_of("dog"))] == "N"

    def test_missing_word_without_default_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\n")
        with pytest.raises(ValueError, match="incomplete feature map"):
            load_feature_map(p, vocab, "tag-map")

    def test_conflicting_duplicate_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ndog\tV\n")
        with pytest.raises(ValueError, match="ambiguous feature map"):
            load_feature_map(p, vocab, "tag-map")

    def test_numeric_values_sorted_numerically(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "classes.tsv"
        p.write_text("dog\t10\ncat\t2\nruns\t2\njumps\t10\n")
        m = load_feature_map(p, vocab, "class-map", "g")
        assert m.value_names[:2] == ["2", "10"]

    def test_save_load_round_trip(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "tag-map", "t")
        q = tmp_path / "saved.tsv"
        save_feature_map(m, vocab, q)
        m2 = load_feature_map(q, vocab, "tag-map", "t")
        assert list(m2.table) == list(m.table)
        assert m2.value_names == m.value_names

    def test_mapper_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FeatureMapper("x", "nope", np.zeros(1, dtype=np.int32), 1, ["a"])
        with pytest.raises(ValueError, match="arity"):
            FeatureMapper("x", "identity", np.asarray([3], dtype=np.int32), 2, ["a", "b"])
