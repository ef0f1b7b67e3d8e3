"""Context definitions and sparse joint counts of (context, next word).

A context is an L-tuple of mapped feature values taken at fixed negative
offsets from the predicted position.  Tuples are stored farthest-first,
``(v_L, ..., v_1)``, matching the printed form; the nearest position
(offset -1) supplies the last tuple element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from clusterlm._rows import (
    Keys,
    Reader,
    check_range,
    check_strictly_sorted,
    row_starts,
    sum_rows,
    tuples,
    write_rows,
)
from clusterlm.corpus import FeatureMapper, Vocabulary

ContextTuple = tuple[int, ...]


@dataclass(frozen=True)
class Slot:
    """One context position: a negative offset and the feature mapper
    applied to the word found there."""

    offset: int
    mapper: FeatureMapper

    def __post_init__(self):
        if self.offset >= 0:
            raise ValueError("slot offsets must be negative")


@dataclass(frozen=True)
class ContextSpec:
    """Ordered context slots, farthest offset first."""

    slots: tuple[Slot, ...]

    def __post_init__(self):
        if not self.slots:
            raise ValueError("context spec needs at least one slot")
        offsets = [s.offset for s in self.slots]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("slot offsets must be strictly increasing (farthest first)")

    @property
    def depth(self) -> int:
        return len(self.slots)


class EventTable:
    """Sparse counts N(context, word) as sorted compressed-row arrays.

    ``contexts[i]`` is the i-th distinct context, rows in ascending
    tuple order; its words are ``words[ptr[i]:ptr[i + 1]]``, ascending,
    with counts ``freqs`` at the same positions.  ``ctx_counts`` and
    ``word_counts`` are the exact marginals (0 for a word never seen).
    The arrays are read-only; clustering and the models share them.
    """

    def __init__(self, spec: ContextSpec, n_words: int, keys: np.ndarray, freqs: np.ndarray):
        """Build the table from one row per distinct event, ``keys`` =
        (context values..., word id) in strictly increasing order, with
        their positive counts ``freqs``."""
        keys = np.asarray(keys, dtype=np.int64)
        freqs = np.asarray(freqs, dtype=np.int64)
        if len(freqs) == 0:
            raise ValueError("empty event table")
        if keys.shape != (len(freqs), spec.depth + 1):
            raise ValueError("context tuple length does not match spec depth")
        check_range(keys[:, -1], 0, n_words, "word ids")
        for k, slot in enumerate(spec.slots):
            check_range(keys[:, k], 0, slot.mapper.arity, f"slot {slot.offset} values")
        if int(freqs.min()) <= 0:
            raise ValueError("stored counts must be strictly positive")
        total = sum(freqs.tolist())  # exact, so the int64 sums below cannot wrap
        if total >= 2**62:
            raise ValueError("stored counts must add up to less than 2**62")
        check_strictly_sorted(Keys(keys).key, "(context, word)")

        first = np.flatnonzero(row_starts(Keys(keys[:, :-1]).key))
        self.spec = spec
        self.n_words = int(n_words)
        self.contexts = keys.take(first, axis=0)[:, :-1].astype(np.int32)
        self.ptr = np.append(first, len(keys))
        self.words = keys[:, -1].astype(np.int32)
        self.freqs = freqs
        self.ctx_counts = np.add.reduceat(freqs, first)
        self.word_counts = np.zeros(self.n_words, dtype=np.int64)
        np.add.at(self.word_counts, self.words, freqs)
        self.total = total
        for name in ("contexts", "ptr", "words", "freqs", "ctx_counts", "word_counts"):
            getattr(self, name).flags.writeable = False

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    @property
    def counts(self) -> dict[ContextTuple, dict[int, int]]:
        # nested dicts for the benchmark tracer and tests; package code reads the arrays
        words, freqs, ptr = self.words.tolist(), self.freqs.tolist(), self.ptr.tolist()
        return {
            ctx: dict(zip(words[lo:hi], freqs[lo:hi]))
            for ctx, lo, hi in zip(tuples(self.contexts), ptr, ptr[1:])
        }


def event_rows(
    sentences: Iterable[Sequence[int]], offsets: Sequence[int], bos_id: int, eos_id: int
) -> np.ndarray:
    """One int64 row per prediction event of the corpus: the word ids at
    the negative ``offsets`` (farthest first) from the predicted
    position, then the predicted word.

    Each sentence contributes one event per token plus one for the
    sentence-end token.  Positions before the sentence start hold the
    begin token; the end token never appears at an offset.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("empty corpus")
    # The corpus becomes one stream of blocks: `pad` begin tokens, the
    # sentence and its end token.  Every position after a block's padding
    # is predicted, and no offset reaches back past that padding.
    pad = -offsets[0] if len(offsets) else 0
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    block_ends = np.cumsum(lengths + pad + 1) - 1
    stream = np.full(int(block_ends[-1]) + 1, bos_id, dtype=np.int64)
    is_word = np.ones(len(stream), dtype=bool)
    is_word[(block_ends - lengths - pad)[:, None] + np.arange(pad)] = False
    is_word[block_ends] = False
    stream[is_word] = np.fromiter(
        itertools.chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum())
    )
    stream[block_ends] = eos_id
    is_word[block_ends] = True  # the end token is predicted too
    at = np.flatnonzero(is_word)
    return np.column_stack([stream[at + off] for off in offsets] + [stream[at]])


def extract_events(
    sentences: Iterable[Sequence[int]], spec: ContextSpec, vocab: Vocabulary
) -> EventTable:
    """Accumulate N(c, w) over every prediction position of the corpus
    (see ``event_rows``), each context position mapped by its slot's
    feature mapper."""
    for slot in spec.slots:
        if slot.mapper.table.size != len(vocab):
            raise ValueError(
                f"mapper arity mismatch: slot {slot.offset} maps {slot.mapper.table.size} "
                f"words, vocabulary has {len(vocab)}"
            )
    rows = event_rows(sentences, [s.offset for s in spec.slots], vocab.bos_id, vocab.eos_id)
    for k, slot in enumerate(spec.slots):
        rows[:, k] = slot.mapper.table[rows[:, k]]
    return EventTable(spec, len(vocab), *sum_rows(rows))


def save_counts(table: EventTable, path: str | Path) -> None:
    """Text dump: header with slot metadata, then one line per event,
    ``v_L ... v_1<TAB>word-id<TAB>count`` sorted by tuple then word."""
    header = ["#clusterlm-counts v1", f"#vocab\t{table.n_words}"]
    for slot in table.spec.slots:
        header.append(f"#slot\t{slot.offset}\t{slot.mapper.name}\t{slot.mapper.arity}")
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n")
        rows = np.repeat(table.contexts, np.diff(table.ptr), axis=0)
        write_rows(fh, rows, table.words, table.freqs)


def _counts_header(
    path: str | Path, data: bytes | None = None
) -> tuple[Reader, int, list[tuple[int, str, int]]]:
    """A ``Reader`` after the header lines of the counts file ``path``,
    the vocabulary size, and each slot's (offset, mapper name, arity).
    ``data`` is the file's bytes; without it only the header is read."""
    if data is None:
        with open(path, "rb") as fh:
            data = b"".join(itertools.takewhile(lambda line: line.startswith(b"#"), fh))
    r = Reader(path, "#clusterlm-counts v1", "counts", data)
    n_words = r.int_line("#vocab")
    slots = []
    while r.at("#slot"):
        off, name, arity = r.line("#slot", 3)
        slots.append((r.int(off, "slot offset"), name, r.int(arity, "slot arity")))
    return r, n_words, slots


def load_counts(path: str | Path, mappers: dict[str, FeatureMapper] | None = None) -> EventTable:
    """Read a counts file back into an EventTable.

    When ``mappers`` is given, slot names are resolved against it and
    arities are checked; otherwise placeholder mappers of the recorded
    arity with empty tables are synthesized (sufficient for clustering,
    which only consumes value ids).  The event lines are parsed in one numpy
    pass; they must be sorted and unique, with every word id and slot
    value in range, or ``ValueError`` is raised.
    """
    r, n_words, header = _counts_header(path, Path(path).read_bytes())
    slots: list[Slot] = []
    for off, name, arity in header:
        if mappers is not None:
            if name not in mappers:
                raise ValueError(f"counts file references unknown mapper {name!r}")
            mapper = mappers[name]
            if mapper.arity != arity:
                raise ValueError(
                    f"mapper arity mismatch for {name!r}: file says {arity}, got {mapper.arity}"
                )
        else:
            mapper = FeatureMapper(name, np.zeros(0, dtype=np.int32), arity)
        slots.append(Slot(offset=off, mapper=mapper))
    spec = ContextSpec(slots=tuple(slots))
    rows = r.rows("event", spec.depth, 2)
    r.end("the event lines")
    return EventTable(spec, n_words, rows[:, :-1], rows[:, -1])
