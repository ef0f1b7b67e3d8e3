"""Corpus ingestion: vocabularies, corpus encoding, per-word feature maps.

Input text is assumed pre-tokenized, one sentence per line, tokens
separated by whitespace.  No normalization is applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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

    def id_of(self, token: str) -> int:
        """Id of ``token``, mapping out-of-vocabulary tokens to unknown."""
        return self.ids.get(token, self.unk_id)

    def save(self, path: str | Path) -> None:
        """One token per line; the 0-based line number (headers excluded)
        is the id.  Specials are recorded in a ``#special`` header block."""
        lines = [
            f"#special bos {self.tokens[self.bos_id]}",
            f"#special eos {self.tokens[self.eos_id]}",
            f"#special unk {self.tokens[self.unk_id]}",
        ]
        lines.extend(self.tokens)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by ``save``.  A damaged file (a cut-off
        last line, a malformed ``#special`` line, a special role missing
        or given two tokens, a special token missing, a duplicate token)
        raises ``ValueError``."""
        text = Path(path).read_text(encoding="utf-8")
        if text and not text.endswith("\n"):
            raise ValueError("vocabulary file: the last line is cut off")
        specials: dict[str, str] = {}
        tokens: list[str] = []
        for line in text.splitlines():
            if line.startswith("#special "):
                fields = line.split(" ", 2)
                if len(fields) != 3 or fields[1] not in _SPECIAL_ROLES:
                    raise ValueError(f"vocabulary file: malformed special line {line!r}")
                if specials.setdefault(fields[1], fields[2]) != fields[2]:
                    raise ValueError(f"vocabulary file gives two {fields[1]} special tokens")
                continue
            tokens.append(line)
        missing = [r for r in _SPECIAL_ROLES if r not in specials]
        if missing:
            raise ValueError(f"vocabulary file lacks special tokens: {missing}")
        ids = {t: i for i, t in enumerate(tokens)}
        if len(ids) != len(tokens):
            raise ValueError("vocabulary file contains duplicate tokens")
        for role in _SPECIAL_ROLES:
            if specials[role] not in ids:
                raise ValueError(
                    f"vocabulary file lacks the {role} special token {specials[role]!r}"
                )
        return cls(
            tokens=tokens,
            ids=ids,
            bos_id=ids[specials["bos"]],
            eos_id=ids[specials["eos"]],
            unk_id=ids[specials["unk"]],
        )


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


def read_corpus_lines(path: str | Path) -> list[str]:
    """Non-blank lines of a one-sentence-per-line UTF-8 corpus file."""
    return [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]


def iter_tokens(lines: Iterable[str]) -> Iterable[str]:
    for line in lines:
        yield from line.split()


def encode_corpus(lines: Iterable[str], vocab: Vocabulary) -> list[list[int]]:
    """Encode one sentence per line into word-id sequences.

    Out-of-vocabulary tokens map to the unknown id.  Sentence framing
    (begin padding, end prediction) is not materialized here; it is
    applied by event extraction and evaluation, which know the context
    width.  Blank lines are skipped.
    """
    sentences = []
    for line in lines:
        toks = line.split()
        if toks:
            sentences.append([vocab.id_of(t) for t in toks])
    return sentences


@dataclass
class FeatureMapper:
    """Total map from word ids to dense feature-value ids.

    ``table[w]`` is the value of word ``w``: the word id itself for an
    identity mapper, or a value loaded from a word/value file (a tag map
    or an exported class map).  Values lie in ``[0, arity)``.
    """

    name: str
    table: np.ndarray
    arity: int

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int32)
        if self.table.ndim != 1:
            raise ValueError("mapper table must be one-dimensional")
        if self.table.size and not (0 <= self.table.min() and self.table.max() < self.arity):
            raise ValueError("mapper values outside [0, arity)")


def identity_mapper(vocab: Vocabulary, name: str = "w") -> FeatureMapper:
    n = len(vocab)
    return FeatureMapper(name=name, table=np.arange(n, dtype=np.int32), arity=n)


def _value_order(values: set[str]) -> list[str]:
    # Numeric sort when every value is an integer literal (class maps),
    # lexicographic otherwise (tag sets).
    try:
        return sorted(values, key=lambda v: int(v))
    except ValueError:
        return sorted(values)


def load_feature_map(path: str | Path, vocab: Vocabulary, name: str) -> FeatureMapper:
    """Load a ``word<TAB>value`` file as a feature mapper ``name`` over
    ``vocab``.

    Every line with one tab is a ``word<TAB>value`` entry, even when the
    word starts with ``#``, except that a ``#default<TAB>value`` line
    supplies the value for words missing from the file.  A ``#`` line
    with no tab is a comment.  A word, or ``#default``, listed twice
    with conflicting values is an error.  The boundary and unknown
    specials, when not listed explicitly, each receive a dedicated fresh
    value so that padding stays distinguishable from real-word features.
    """
    raw: dict[str, str] = {}
    default: str | None = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or (line.startswith("#") and "\t" not in line):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"malformed feature-map line {lineno}: {line!r}")
        word, value = parts
        if word == "#default":
            if default not in (None, value):
                raise ValueError("ambiguous feature map")
            default = value
            continue
        if word in raw and raw[word] != value:
            raise ValueError("ambiguous feature map")
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
            raise ValueError("incomplete feature map")
    return FeatureMapper(name=name, table=table, arity=arity)
