"""Vocabulary construction, corpus encoding and feature maps."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clusterlm
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
        assert encode_corpus(["c"], vocab) == [[vocab.unk_id]]

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
            with pytest.raises(ValueError, match=f"^vocabulary file {re.escape(str(path))}"):
                Vocabulary.load(path)
        # a cut after the tokens names the special whose token is gone
        path.write_bytes(data[: line_ends[-2]])
        with pytest.raises(ValueError, match=r"unk special token '<unk>'"):
            Vocabulary.load(path)

    def test_load_rejects_malformed_special_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for line in ("#special bos", "#special tab <t>"):
            path.write_text(f"#special eos </s>\n{line}\n#special unk <unk>\n</s>\n<unk>\n")
            want = f"vocabulary file {path}: line 2: malformed special line {line!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                Vocabulary.load(path)

    def test_load_rejects_a_special_role_given_two_tokens(self, tmp_path):
        path = tmp_path / "vocab.txt"
        header = "#special bos <s>\n#special eos </s>\n#special unk <unk>\n"
        tokens = "a\nb\nc\n<s>\n</s>\n<unk>\n"
        path.write_text(header + "#special bos <s>\n" + tokens)
        assert Vocabulary.load(path).bos_id == 3  # the same token twice is no conflict
        path.write_text(header + "#special bos a\n" + tokens)
        want = f"vocabulary file {path}: line 4: a second bos special token 'a'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("header, problem", [
        ("#special bos \n", "empty bos special token"),
        ("#special bos <s> x\n", "bos special token '<s> x' holds whitespace"),
        ("#special bos <s>\r#special eos </s>\n",
         "bos special token '<s>\\r#special eos </s>' holds whitespace"),
    ])
    def test_load_checks_a_special_token_at_its_line(self, tmp_path, header, problem):
        path = tmp_path / "vocab.txt"
        path.write_text(header + "#special unk <unk>\n<s>\n</s>\n<unk>\n", newline="")
        want = f"vocabulary file {path}: line 1: {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            Vocabulary.load(path)

    def test_load_names_the_first_fault_in_file_order(self, tmp_path):
        path = tmp_path / "vocab.txt"
        specials = "#special bos <s>\n#special eos </s>\n"
        for text, detail in [
            (specials + "a\na\nb c\n", "line 4: duplicate token 'a'"),
            (specials + "b c\na\na\n", "line 3: token 'b c' holds whitespace"),
            (specials + "a\na\n#special unk \n", "line 4: duplicate token 'a'"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                Vocabulary.load(path)
            assert str(err.value) == f"vocabulary file {path}: {detail}"

    def test_every_error_names_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        specials = "#special bos <s>\n#special eos </s>\n#special unk <unk>\n"
        for data, detail in [
            (b"a\nb", ": the last line is cut off"),
            (b"#special bos\n", ": line 1: malformed special line '#special bos'"),
            (b"#special bos <s>\n#special bos a\n", ": line 2: a second bos special token 'a'"),
            (b"a\n", " lacks special tokens: ['bos', 'eos', 'unk']"),
            (specials.encode() + b"<s>\n</s>\n", " lacks the unk special token '<unk>'"),
            (specials.encode() + b"<s>\n</s>\n<unk>\n<s>\n", ": line 7: duplicate token '<s>'"),
            (specials.encode() + b"<s>\n</s>\n\xff<unk>\n", " is not UTF-8 at line 6, byte 63"),
        ]:
            path.write_bytes(data)
            with pytest.raises(ValueError) as err:
                Vocabulary.load(path)
            assert str(err.value) == f"vocabulary file {path}{detail}"

    @pytest.mark.parametrize("line, problem", [
        ("the\tx\ty", "token 'the\\tx\\ty' holds whitespace"),
        ("a b", "token 'a b' holds whitespace"),
        (" a", "token ' a' holds whitespace"),
        ("a\x0bb", "token 'a\\x0bb' holds whitespace"),
        ("a\xa0b", "token 'a\\xa0b' holds whitespace"),
        ("", "empty token"),
    ])
    def test_load_rejects_a_token_line_that_is_not_one_token(self, tmp_path, line, problem):
        # a token line with whitespace would load as a token no corpus
        # token can equal, and its words would silently become <unk>
        path = tmp_path / "vocab.txt"
        build_vocabulary("the cat sat".split()).save(path)
        lines = path.read_text().split("\n")
        lines.insert(5, line)  # after the three #special lines and two tokens
        path.write_text("\n".join(lines), newline="")
        with pytest.raises(ValueError) as err:
            Vocabulary.load(path)
        assert str(err.value) == f"vocabulary file {path}: line 6: {problem}"

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
        assert enc == [[vocab.ids["a"], vocab.unk_id, vocab.ids["b"]]]

    def test_blank_lines_skipped(self):
        vocab = build_vocabulary("a".split())
        assert encode_corpus(["", "a", "   "], vocab) == [[vocab.ids["a"]]]

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

    @pytest.mark.parametrize("text, lines", [
        ("a\x85b c\nd e\n", ["a\x85b c", "d e"]),
        ("a\u2028b c\nd e\n", ["a\u2028b c", "d e"]),
        ("a\x0cb c\x1e\nd e\n", ["a\x0cb c\x1e", "d e"]),
        ("a b\r\nc\n", ["a b", "c"]),
        ("a b\r\n\x85\r\n\nc", ["a b", "c"]),
    ])
    def test_lines_end_at_newline_only(self, tmp_path, text, lines):
        # any other line break separates two tokens of one sentence
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode())
        assert read_corpus_lines(p) == lines

    @pytest.mark.parametrize("text, line", [
        ("a b\rc d\n", 1), ("a\n\nb c\r\r\n", 3), ("a b\r\nc d\r", 2), ("\r", 1)
    ])
    def test_a_carriage_return_inside_a_line_names_the_line(self, tmp_path, text, line):
        # a lone \r would otherwise join two sentences into one
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError) as err:
            read_corpus_lines(p)
        assert str(err.value) == f"corpus file {p}: line {line}: a \\r inside the line"

    def test_corpus_that_is_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"a b\nc \xe9\n")
        with pytest.raises(ValueError) as err:
            read_corpus_lines(p)
        assert str(err.value) == f"corpus file {p} is not UTF-8 at line 2, byte 6"


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
        assert m.table[vocab.ids["dog"]] == 0 and m.table[vocab.ids["runs"]] == 1
        assert m.table[vocab.ids["dog"]] == m.table[vocab.ids["cat"]]
        assert m.table[vocab.ids["runs"]] != m.table[vocab.ids["dog"]]

    def test_specials_get_dedicated_fresh_values(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ncat\tN\nruns\tV\njumps\tV\n")
        m = load_feature_map(p, vocab, "t")
        vals = {int(m.table[w]) for w in vocab.specials}
        assert len(vals) == 3
        assert vals.isdisjoint({m.table[vocab.ids["dog"]], m.table[vocab.ids["runs"]]})
        assert m.arity == 2 + 3

    def test_default_value_fills_gaps(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("#default\tX\ndog\tN\n")
        m = load_feature_map(p, vocab, "t")
        # values N and X, in that order, then the three specials
        assert m.table[vocab.ids["cat"]] == 1
        assert m.table[vocab.ids["dog"]] == 0
        assert m.arity == 2 + 3

    def test_missing_word_without_default_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\n")
        # the first word of the vocabulary, in id order, that the map misses
        want = f"incomplete feature map {p}: no value for 'cat' and no #default line"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(p, vocab, "t")

    def test_conflicting_duplicate_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tN\ndog\tV\n")
        want = f"ambiguous feature map {p}: line 2: 'dog' is given 'N' and 'V'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(p, vocab, "t")

    def test_conflicting_default_rejected(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text("dog\tX\n#default\tY\n#default\tY\n")
        assert load_feature_map(p, vocab, "t").arity == 2 + 3  # a repeat agrees
        p.write_text("dog\tX\n#default\tY\n#default\tZ\n")
        want = f"ambiguous feature map {p}: line 3: '#default' is given 'Y' and 'Z'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(p, vocab, "t")

    def test_malformed_or_undecodable_map_names_the_file(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        for data, want in [
            (b"dog\tN\ncat\tN\tV\n", f"feature map {p}: malformed line 2: 'cat\\tN\\tV'"),
            (b"dog\tN\ncat\t\xff\n", f"feature map {p} is not UTF-8 at line 2, byte 10"),
        ]:
            p.write_bytes(data)
            with pytest.raises(ValueError) as err:
                load_feature_map(p, vocab, "t")
            assert str(err.value) == want

    @pytest.mark.parametrize("line, problem", [
        ("cat\t", "empty value"),
        ("\tN", "empty word"),
        ("cat\tN V", "value 'N V' holds whitespace"),
        ("cat\t N", "value ' N' holds whitespace"),
        ("c at\tN", "word 'c at' holds whitespace"),
        ("#default\t", "empty value"),
    ])
    def test_an_empty_or_blank_field_names_its_line(self, tmp_path, line, problem):
        # a line cut off after its tab among them; ``classes export``
        # writes none of these
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_text(f"# tags\ndog\tN\n{line}\nruns\tV\n")
        want = f"feature map {p}: line 3: {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(p, vocab, "t")

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\x0c", "\r"])
    def test_a_line_break_other_than_newline_keeps_the_line_numbers(self, tmp_path, brk):
        # str.splitlines would split the comment in two and shift
        # every later line number by one
        vocab = self._vocab()
        p = tmp_path / "tags.tsv"
        p.write_bytes(f"# tags{brk}# more\ncat\t\nruns\tV\n".encode())
        want = f"feature map {p}: line 2: empty value"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(p, vocab, "t")

    def test_a_crlf_map_loads_as_its_lf_twin(self, tmp_path):
        vocab = self._vocab()
        text = "# tags\ndog\tN\ncat\tN\nruns\tV\n#default\tX\n"
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        want, got = load_feature_map(lf, vocab, "t"), load_feature_map(crlf, vocab, "t")
        assert got.table.tolist() == want.table.tolist() and got.arity == want.arity == 3 + 3
        # one \r is dropped, a second is a value's whitespace
        crlf.write_bytes(b"dog\tN\r\r\n")
        want = f"feature map {crlf}: line 1: value 'N\\r' holds whitespace"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_feature_map(crlf, vocab, "t")

    def test_value_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        # 2 and 02, and 10 and 010, are one integer each; their ids must
        # not follow the iteration order of a set of strings
        p = tmp_path / "classes.tsv"
        p.write_text("dog\t10\ncat\t010\nruns\t2\njumps\t02\n")
        check = (
            "import sys\n"
            "from clusterlm.corpus import build_vocabulary, load_feature_map\n"
            "vocab = build_vocabulary('dog cat runs jumps dog'.split())\n"
            "print(load_feature_map(sys.argv[1], vocab, 'g').table.tolist())\n"
        )
        src = Path(clusterlm.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), *sys.path])
        tables = set()
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", check, str(p)], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            tables.add(done.stdout)
        vocab = self._vocab()
        m = load_feature_map(p, vocab, "g")
        assert tables == {f"{m.table.tolist()}\n"}
        # 02 < 2 < 010 < 10
        ids = {w: int(m.table[vocab.ids[w]]) for w in ("jumps", "runs", "cat", "dog")}
        assert ids == {"jumps": 0, "runs": 1, "cat": 2, "dog": 3}

    def test_numeric_values_sorted_numerically(self, tmp_path):
        vocab = self._vocab()
        p = tmp_path / "classes.tsv"
        p.write_text("dog\t10\ncat\t2\nruns\t2\njumps\t10\n")
        m = load_feature_map(p, vocab, "g")
        # 2 is value 0, 10 is value 1
        assert m.table[vocab.ids["cat"]] == 0 and m.table[vocab.ids["dog"]] == 1

    def test_mapper_validation(self):
        with pytest.raises(ValueError, match="arity"):
            FeatureMapper("x", np.asarray([3], dtype=np.int32), 2)
        with pytest.raises(ValueError, match="one-dimensional"):
            FeatureMapper("x", np.zeros((1, 1), dtype=np.int32), 1)


def cut_off(data: bytes, k: int) -> tuple[bytes, bytes]:
    return data[:-1], data


def not_utf8(data: bytes, k: int) -> tuple[bytes, None]:
    lines = data.split(b"\n")
    lines[k - 1] = b"\xff" + lines[k - 1]
    return b"\n".join(lines), None


def crlf(data: bytes, k: int) -> tuple[bytes, bytes]:
    return data.replace(b"\n", b"\r\n"), data


def inner_break(brk: str):
    """Line ``k`` gets ``brk`` after its first character; its twin gets
    a space there."""
    def damage(data: bytes, k: int) -> tuple[bytes, bytes]:
        lines = data.split(b"\n")
        head, tail = lines[k - 1][:1], lines[k - 1][1:]
        twin = lines.copy()
        lines[k - 1], twin[k - 1] = head + brk.encode() + tail, head + b" " + tail
        return b"\n".join(lines), b"\n".join(twin)
    damage.__name__ = f"break_{ord(brk):x}"
    return damage


def lone_cr(data: bytes, k: int) -> tuple[bytes, None]:
    r"""Line ``k`` ends at a ``\r`` in place of its ``\n``."""
    lines = data.split(b"\n")
    return b"\n".join(lines[: k - 1] + [lines[k - 1] + b"\r" + lines[k]] + lines[k + 1 :]), None


def malformed(data: bytes, k: int) -> tuple[bytes, bytes]:
    """Line ``k`` becomes two words and no tab: no vocabulary token and
    no feature-map entry, and a corpus sentence like any other."""
    lines = data.split(b"\n")
    lines[k - 1] = b"x y"
    damaged = b"\n".join(lines)
    return damaged, damaged


class TestTextLoaderContract:
    """The loader contract of the model files, for the three text
    readers: damage at line 4 of a vocabulary, a feature map or a corpus
    that a reader rejects raises a ValueError naming the file and the
    line (a cut-off last line has none); a damaged file that a reader
    takes reads as its twin, the LF file it stands for."""

    VOCAB = build_vocabulary("the cat sat on the mat".split())
    ALL = {"vocabulary", "feature map", "corpus"}
    CASES = [  # damage, the readers that reject it
        (cut_off, {"vocabulary"}),
        (not_utf8, ALL),
        (crlf, set()),
        *[(inner_break(brk), {"vocabulary", "feature map"}) for brk in "\x85\u2028\x0c"],
        (lone_cr, ALL),
        (malformed, {"vocabulary", "feature map"}),
    ]

    def saved(self, kind: str, path: Path) -> None:
        if kind == "vocabulary":
            self.VOCAB.save(path)
        elif kind == "feature map":
            path.write_text("# classes\nthe\tD\ncat\tN\nsat\tV\non\tP\nmat\tN\n#default\tX\n")
        else:
            path.write_text("the cat sat\non the mat\n\nthe mat sat\non the cat\n")

    def read(self, kind: str, path: Path):
        if kind == "vocabulary":
            vocab = Vocabulary.load(path)
            return vocab.tokens, vocab.specials
        if kind == "feature map":
            mapper = load_feature_map(path, self.VOCAB, "g")
            return mapper.table.tolist(), mapper.arity
        return [line.split() for line in read_corpus_lines(path)]

    @pytest.mark.parametrize("kind", sorted(ALL))
    @pytest.mark.parametrize("damage, rejected_by", CASES, ids=[d.__name__ for d, _ in CASES])
    def test_damage_is_named_and_the_rest_reads_as_its_twin(
        self, tmp_path, kind, damage, rejected_by
    ):
        path, twin = tmp_path / "input.txt", tmp_path / "twin.txt"
        self.saved(kind, path)
        damaged, twin_data = damage(path.read_bytes(), 4)
        path.write_bytes(damaged)
        if kind not in rejected_by:
            twin.write_bytes(twin_data)
            assert self.read(kind, path) == self.read(kind, twin)
            return
        with pytest.raises(ValueError) as err:
            self.read(kind, path)
        message = str(err.value)
        assert str(path) in message
        assert damage is cut_off or re.search(r"\bline 4\b", message), message
