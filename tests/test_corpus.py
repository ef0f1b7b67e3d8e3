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
    encode_corpus,
    identity_mapper,
    iter_tokens,
    load_feature_map,
    read_corpus_lines,
)


class TestBuildVocabulary:
    def test_frequency_ranking_with_first_occurrence_ties(self):
        vocab = build_vocabulary("b a a c b".split())
        # a and b both occur twice; b appeared first
        assert vocab.tokens[:3] == ["b", "a", "c"]

    def test_specials_appended_when_absent(self):
        vocab = build_vocabulary("x y".split())
        assert vocab.tokens == ["x", "y", BOS, EOS, UNK]
        assert vocab.tokens[vocab.bos_id] == BOS
        assert vocab.ids == {t: i for i, t in enumerate(vocab.tokens)}

    def test_truncation_keeps_the_most_frequent_tokens(self):
        vocab = build_vocabulary("a a a b b c d".split(), max_size=2)
        assert vocab.tokens == ["a", "b", BOS, EOS, UNK]
        assert "c" not in vocab.ids and "d" not in vocab.ids
        assert vocab.id_of("c") == vocab.unk_id

    def test_truncated_special_is_appended_once(self):
        vocab = build_vocabulary(f"a a {UNK} b {UNK}".split(), max_size=1)
        # unk was seen in the stream but truncated out of the top slice
        assert vocab.tokens == ["a", BOS, EOS, UNK]
        kept = build_vocabulary(f"{UNK} {UNK} a".split(), max_size=1)
        assert kept.tokens == [UNK, BOS, EOS]

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
        assert loaded.ids == vocab.ids

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

    def test_load_rejects_a_special_role_given_two_tokens(self, tmp_path):
        path = tmp_path / "vocab.txt"
        header = "#special bos <s>\n#special eos </s>\n#special unk <unk>\n"
        tokens = "a\nb\nc\n<s>\n</s>\n<unk>\n"
        path.write_text(header + "#special bos <s>\n" + tokens)
        assert Vocabulary.load(path).bos_id == 3  # the same token twice is no conflict
        path.write_text(header + "#special bos a\n" + tokens)
        with pytest.raises(ValueError, match="two bos special tokens"):
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
        encoded = encode_corpus(sents, vocab)
        assert encoded == [[vocab.ids[t] for t in s.split()] for s in sents]
        assert [" ".join(vocab.tokens[i] for i in s) for s in encoded] == sents

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

    def test_tag_map_with_explicit_coverage(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "t")
        assert m.name == "t"
        # lexicographic value order for non-numeric tags: N is 0, V is 1
        assert m.table[vocab.id_of("dog")] == 0 and m.table[vocab.id_of("runs")] == 1
        assert m.table[vocab.id_of("dog")] == m.table[vocab.id_of("cat")]
        assert m.table[vocab.id_of("runs")] != m.table[vocab.id_of("dog")]

    def test_specials_get_dedicated_fresh_values(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "t")
        vals = {int(m.table[w]) for w in vocab.specials}
        assert len(vals) == 3
        assert vals.isdisjoint({m.table[vocab.id_of("dog")], m.table[vocab.id_of("runs")]})
        assert m.arity == 2 + 3

    def test_default_value_fills_gaps(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("#default\tX\ndog\tN\n")
        m = load_feature_map(p, vocab, "t")
        # values N and X, in that order, then the three specials
        assert m.table[vocab.id_of("cat")] == 1
        assert m.table[vocab.id_of("dog")] == 0
        assert m.arity == 2 + 3

    def test_missing_word_without_default_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\n")
        with pytest.raises(ValueError, match="incomplete feature map"):
            load_feature_map(p, vocab, "t")

    def test_conflicting_duplicate_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ndog\tV\n")
        with pytest.raises(ValueError, match="ambiguous feature map"):
            load_feature_map(p, vocab, "t")

    def test_conflicting_default_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tX\n#default\tY\n#default\tY\n")
        assert load_feature_map(p, vocab, "t").arity == 2 + 3  # a repeat agrees
        p.write_text("dog\tX\n#default\tY\n#default\tZ\n")
        with pytest.raises(ValueError, match="ambiguous feature map"):
            load_feature_map(p, vocab, "t")

    def test_numeric_values_sorted_numerically(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "classes.tsv"
        p.write_text("dog\t10\ncat\t2\nruns\t2\njumps\t10\n")
        m = load_feature_map(p, vocab, "g")
        # 2 is value 0, 10 is value 1
        assert m.table[vocab.id_of("cat")] == 0 and m.table[vocab.id_of("dog")] == 1

    def test_mapper_validation(self):
        with pytest.raises(ValueError, match="arity"):
            FeatureMapper("x", np.asarray([3], dtype=np.int32), 2)
        with pytest.raises(ValueError, match="one-dimensional"):
            FeatureMapper("x", np.zeros((1, 1), dtype=np.int32), 1)
