r"""Corpus ingestion: vocabularies, corpus encoding, per-word feature maps.

Input text is assumed pre-tokenized, one sentence per line, tokens
separated by whitespace.  No normalization is applied.  Every text
input, vocabulary, feature map or corpus, is split into lines by
``_read_lines``: a line ends at ``\n``, and one ``\r`` before it is
dropped, as in every file ``_rows.Reader`` reads.  Every token a
vocabulary or feature map lists passes ``_check_token``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_SPECIAL_ROLES = ("bos", "eos", "unk")


@dataclass
class Vocabulary:
    """Token/id bijection with boundary/unknown specials.

    Ids are dense and 0-based; ``tokens[i]`` is the token with id ``i``
    and ``ids`` the inverse map.
    """

    tokens: list[str]
    ids: dict[str, int] = field(repr=False)
    bos_id: int
    eos_id: int
    unk_id: int

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def specials(self) -> tuple[int, int, int]:
        return (self.bos_id, self.eos_id, self.unk_id)

    def save(self, path: str | Path) -> None:
        """One token per line; the 0-based line number (headers excluded)
        is the id.  Specials are recorded in a ``#special`` header block."""
        lines = [f"#special {r} {self.tokens[i]}" for r, i in zip(_SPECIAL_ROLES, self.specials)]
        lines.extend(self.tokens)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by ``save``.  A damaged file raises
        ``ValueError`` naming the file: not UTF-8, a cut-off last line, a
        special role missing, or a special token missing.  Each line is
        checked once, in file order, and the first fault at a line names
        the 1-based line: a malformed ``#special`` line, a token that
        breaks ``_check_token``'s rule (no corpus token could equal it,
        and ``vocab build`` writes none), a second token for one special,
        or a duplicate token.  The lines are those of ``_read_lines``, so
        a CRLF file loads as its LF twin."""
        what = f"vocabulary file {path}"
        lines = _read_lines(path, what)
        if lines.pop():
            raise ValueError(f"{what}: the last line is cut off")
        specials: dict[str, str] = {}
        ids: dict[str, int] = {}
        for number, line in enumerate(lines, 1):
            if line.startswith("#special "):
                fields = line.split(" ", 2)
                if len(fields) != 3 or fields[1] not in _SPECIAL_ROLES:
                    raise ValueError(f"{what}: line {number}: malformed special line {line!r}")
                role, token = fields[1:]
                _check_token(token, f"{role} special token", what, number)
                if specials.setdefault(role, token) != token:
                    raise ValueError(
                        f"{what}: line {number}: a second {role} special token {token!r}"
                    )
                continue
            _check_token(line, "token", what, number)
            if line in ids:
                raise ValueError(f"{what}: line {number}: duplicate token {line!r}")
            ids[line] = len(ids)
        missing = [r for r in _SPECIAL_ROLES if r not in specials]
        if missing:
            raise ValueError(f"{what} lacks special tokens: {missing}")
        for role in _SPECIAL_ROLES:
            if specials[role] not in ids:
                raise ValueError(f"{what} lacks the {role} special token {specials[role]!r}")
        return cls(list(ids), ids, *(ids[specials[r]] for r in _SPECIAL_ROLES))


def build_vocabulary(token_stream: Iterable[str], max_size: int | None = None) -> Vocabulary:
    """Build a vocabulary from the ``max_size`` most frequent tokens
    (all of them when ``max_size`` is None).

    Ties are broken by first occurrence in the stream.  The boundary and
    unknown specials are appended if absent from the kept tokens.
    """
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    counts = Counter(token_stream)
    if not counts:
        raise ValueError("empty corpus")

    # Counter preserves first-insertion order, so a stable sort on count
    # alone realizes the first-occurrence tie-break.
    ranked = sorted(counts, key=lambda t: -counts[t])
    tokens = ranked[:max_size]
    tokens += [special for special in (BOS, EOS, UNK) if special not in tokens]
    ids = {t: i for i, t in enumerate(tokens)}
    return Vocabulary(
        tokens=tokens,
        ids=ids,
        bos_id=ids[BOS],
        eos_id=ids[EOS],
        unk_id=ids[UNK],
    )


def _read_lines(path: str | Path, what: str, reject_cr: bool = False) -> list[str]:
    r"""The lines of a UTF-8 file.  Lines end at ``\n`` only, and one
    ``\r`` before a ``\n`` is dropped, so a CRLF file reads as its LF
    twin; the last item is what follows the last ``\n``, empty unless the
    last line is cut off.  ``what`` names the file in the errors: the
    1-based line and the byte offset of the first byte that is not
    UTF-8, and, with ``reject_cr``, the line of the first ``\r`` left."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{what} is not UTF-8 at line {line}, byte {exc.start}") from None
    if "\r" in text:  # a file without one pays this test alone
        text = text.replace("\r\n", "\n")
        if reject_cr and "\r" in text:
            line = text.count("\n", 0, text.index("\r")) + 1
            raise ValueError(f"{what}: line {line}: a \\r inside the line")
    return text.split("\n")


def _check_token(text: str, name: str, what: str, number: int) -> None:
    """The one token rule: ``text`` is exactly what ``str.split`` gives
    back, not empty and with no whitespace, or a ``ValueError`` names
    the file ``what``, its line ``number`` and the token's ``name``."""
    if text.split() != [text]:
        problem = f"{name} {text!r} holds whitespace" if text else f"empty {name}"
        raise ValueError(f"{what}: line {number}: {problem}")


def read_corpus_lines(path: str | Path) -> list[str]:
    r"""Non-blank lines of a one-sentence-per-line UTF-8 corpus file, read
    by ``_read_lines``: a ``\r`` left inside a line is an error, and any
    other line break, such as ``\x85`` or ``\u2028``, separates two
    tokens of one sentence, as ``str.split`` reads it."""
    return [ln for ln in _read_lines(path, f"corpus file {path}", reject_cr=True) if ln.strip()]


def iter_tokens(lines: Iterable[str]) -> Iterable[str]:
    """The whitespace-separated tokens of ``lines``, in order."""
    return chain.from_iterable(map(str.split, lines))


def encode_corpus(lines: Iterable[str], vocab: Vocabulary) -> list[list[int]]:
    """Encode one sentence per line into word-id sequences.

    Out-of-vocabulary tokens map to the unknown id.  Sentence framing
    (begin padding, end prediction) is not materialized here; it is
    applied by event extraction and evaluation, which know the context
    width.  Blank lines are skipped.  Each token is one lookup in
    ``vocab.ids``, through the dict's bound ``get``.
    """
    get, unk = vocab.ids.get, vocab.unk_id
    return [[get(t, unk) for t in toks] for toks in map(str.split, lines) if toks]


@dataclass(frozen=True)
class FeatureMapper:
    """Total map from word ids to dense feature-value ids.

    ``table[w]`` is the value of word ``w``: the word id itself for an
    identity mapper, or a value loaded from a word/value file (a tag map
    or an exported class map).  Values lie in ``[0, arity)``.  The
    mapper is frozen and keeps its own read-only int32 copy of the
    table, so a context spec's check of it holds for good.
    """

    name: str
    table: np.ndarray
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "table", np.array(self.table, dtype=np.int32))
        self.table.flags.writeable = False
        if self.table.ndim != 1:
            raise ValueError("mapper table must be one-dimensional")
        if self.table.size and not (0 <= self.table.min() and self.table.max() < self.arity):
            raise ValueError("mapper values outside [0, arity)")


def identity_mapper(vocab: Vocabulary) -> FeatureMapper:
    """The word identity ``w``: each word id is its own value."""
    n = len(vocab)
    return FeatureMapper(name="w", table=np.arange(n, dtype=np.int32), arity=n)


def _value_order(values: set[str]) -> list[str]:
    # Numeric sort when every value is an integer literal (class maps),
    # lexicographic otherwise (tag sets).  Literals of one integer, such
    # as 10 and 010, are ordered as strings, so the order does not
    # depend on the set's iteration order.
    try:
        return sorted(values, key=lambda v: (int(v), v))
    except ValueError:
        return sorted(values)


def load_feature_map(path: str | Path, vocab: Vocabulary, name: str) -> FeatureMapper:
    """Load a ``word<TAB>value`` file as a feature mapper ``name`` over
    ``vocab``.

    Every line with one tab is a ``word<TAB>value`` entry, even when the
    word starts with ``#``, except that a ``#default<TAB>value`` line
    supplies the value for words missing from the file.  A ``#`` line
    with no tab is a comment.  A word, or ``#default``, listed twice
    with conflicting values is an error, and so is a word of ``vocab``
    the file gives no value when there is no ``#default``; each error
    names the file.  So does an entry whose word or value breaks
    ``_check_token``'s rule, as a line cut off after its tab, which also
    names its 1-based line: ``classes export`` never writes one.  A
    conflicting entry names its line too.  The lines are those of
    ``_read_lines``, so a CRLF file loads as its LF twin and no other
    line break inside a comment moves the line numbers.  The boundary
    and unknown specials, when not listed explicitly, each receive a
    dedicated fresh value so that padding stays distinguishable from
    real-word features.
    """
    raw: dict[str, str] = {}
    default: str | None = None
    for lineno, line in enumerate(_read_lines(path, f"feature map {path}"), 1):
        if not line.strip() or (line.startswith("#") and "\t" not in line):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"feature map {path}: malformed line {lineno}: {line!r}")
        word, value = parts
        _check_token(word, "word", f"feature map {path}", lineno)
        _check_token(value, "value", f"feature map {path}", lineno)
        known = default if word == "#default" else raw.get(word)
        if known not in (None, value):
            raise ValueError(
                f"ambiguous feature map {path}: line {lineno}: "
                f"{word!r} is given {known!r} and {value!r}"
            )
        if word == "#default":
            default = value
        else:
            raw[word] = value

    values = {raw[t] for t in vocab.tokens if t in raw}
    if default is not None:
        values.add(default)
    value_id = {v: i for i, v in enumerate(_value_order(values))}
    arity = len(value_id)

    table = np.empty(len(vocab), dtype=np.int32)
    special_ids = set(vocab.specials)
    for wid, token in enumerate(vocab.tokens):
        if token in raw:
            table[wid] = value_id[raw[token]]
        elif wid in special_ids:
            table[wid] = arity
            arity += 1
        elif default is not None:
            table[wid] = value_id[default]
        else:
            raise ValueError(
                f"incomplete feature map {path}: no value for {token!r} and no #default line"
            )
    return FeatureMapper(name=name, table=table, arity=arity)
