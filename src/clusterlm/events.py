"""Context definitions and sparse joint counts of (context, next word).

A context is an L-tuple of mapped feature values taken at fixed negative
offsets from the predicted position.  Tuples are stored farthest-first,
``(v_L, ..., v_1)``, matching the printed form; the nearest position
(offset -1) supplies the last tuple element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from clusterlm._rows import (
    Keys,
    Reader,
    check_range,
    check_strictly_sorted,
    exact_sum,
    row_starts,
    sum_ids,
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
    """Ordered context slots, farthest offset first.

    Every slot's mapper maps the same words, ``n_words`` of them, and
    slots of one name share one mapper (the same table and arity), so a
    table or model built on the spec reads its word count here; anything
    else raises ``ValueError``."""

    slots: tuple[Slot, ...]
    n_words: int = field(init=False)

    def __post_init__(self):
        if not self.slots:
            raise ValueError("context spec needs at least one slot")
        offsets = [s.offset for s in self.slots]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("slot offsets must be strictly increasing (farthest first)")
        first, named = self.slots[0].mapper, {}
        for slot in self.slots:
            m, same = slot.mapper, named.setdefault(slot.mapper.name, slot.mapper)
            if m.table.size != first.table.size:
                raise ValueError(f"slot {slot.offset} ({m.name}) maps {m.table.size} words, "
                                 f"slot {self.slots[0].offset} ({first.name}) {first.table.size}")
            if same.arity != m.arity or not np.array_equal(same.table, m.table):
                raise ValueError(f"slot {slot.offset}: mapper {m.name!r} differs from another "
                                 "slot's of that name")
        object.__setattr__(self, "n_words", first.table.size)

    @property
    def depth(self) -> int:
        return len(self.slots)


class EventTable:
    """Sparse counts N(context, word) as sorted compressed-row arrays.

    ``contexts[i]`` is the i-th distinct context, rows in ascending
    tuple order; its words are ``words[ptr[i]:ptr[i + 1]]``, ascending,
    with counts ``freqs`` at the same positions.  ``ctx_counts`` and
    ``word_counts`` are the exact marginals (0 for a word never seen).
    The word ids run over ``spec.n_words``, the words its mappers map,
    which is the table's ``n_words``.  The table owns these read-only
    arrays, each built or copied here; clustering and the models share
    them.
    """

    def __init__(self, spec: ContextSpec, keys: np.ndarray, freqs: np.ndarray):
        """Build the table from one row per distinct event, ``keys`` =
        (context values..., word id) in strictly increasing order, with
        their positive counts ``freqs``."""
        keys = np.asarray(keys, dtype=np.int64)
        freqs = np.array(freqs, dtype=np.int64)
        if len(freqs) == 0:
            raise ValueError("empty event table")
        if keys.shape != (len(freqs), spec.depth + 1):
            raise ValueError("context tuple length does not match spec depth")
        check_range(keys[:, -1], 0, spec.n_words, "word ids")
        for k, slot in enumerate(spec.slots):
            check_range(keys[:, k], 0, slot.mapper.arity, f"slot {slot.offset} values")
        if int(freqs.min()) <= 0:
            raise ValueError("stored counts must be strictly positive")
        total = exact_sum(freqs)  # so that the int64 sums below cannot wrap
        if total >= 2**62:
            raise ValueError("stored counts must add up to less than 2**62")
        check_strictly_sorted(Keys(keys).key, "(context, word)")

        first = np.flatnonzero(row_starts(Keys(keys[:, :-1]).key))
        self.spec = spec
        self.n_words = spec.n_words
        self.contexts = keys[first, :-1].astype(np.int32)
        self.ptr = np.append(first, len(keys))
        self.words = keys[:, -1].astype(np.int32)
        self.freqs = freqs
        self.ctx_counts = np.add.reduceat(freqs, first)
        self.word_counts = sum_ids(self.words, freqs, self.n_words)
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
    feature mapper.  The mappers must map exactly the vocabulary's
    words."""
    if spec.n_words != len(vocab):
        raise ValueError(
            f"the context's mappers map {spec.n_words} words, the vocabulary has {len(vocab)}"
        )
    rows = event_rows(sentences, [s.offset for s in spec.slots], vocab.bos_id, vocab.eos_id)
    for k, slot in enumerate(spec.slots):
        rows[:, k] = slot.mapper.table[rows[:, k]]
    return EventTable(spec, *sum_rows(rows))


def slot_lines(spec: ContextSpec) -> list[str]:
    """The slot block of a counts or class model file: one
    ``#slot<TAB>offset<TAB>name<TAB>arity`` line per slot, then a
    ``#map<TAB>name<TAB>v_0 ... v_{n-1}`` line of every word's value per
    slot mapper but the word identity ``w``, one line per name."""
    lines = [f"#slot\t{s.offset}\t{s.mapper.name}\t{s.mapper.arity}" for s in spec.slots]
    maps = {s.mapper.name: s.mapper for s in spec.slots}  # namesakes share one mapper
    w = maps.get("w")
    if w is not None and w.arity == spec.n_words and np.array_equal(w.table, np.arange(w.arity)):
        del maps["w"]
    return lines + [f"#map\t{name}\t{' '.join(map(str, m.table.tolist()))}"
                    for name, m in maps.items()]


def read_slots(r: Reader, n_words: int, rerun: str) -> ContextSpec:
    """The slot block that ``slot_lines`` writes, read at the cursor of
    ``r``: each slot mapper rebuilt from its ``#map`` line, and a ``w``
    slot without one the identity, of arity ``n_words``.  A fault names
    the file and its line; a slot without a ``#map`` line asks for the
    file to be written again by ``rerun``, the command that writes it."""
    header, arity_of = [], {}
    while r.at("#slot"):
        off, name, arity = r.line("#slot", 3)
        off, arity = r.int(off, "slot offset"), r.int(arity, "slot arity")
        if arity_of.setdefault(name, arity) != arity:
            raise r.error(f"slots named {name!r} differ in arity", 0)
        header.append((off, name, arity, r.pos))
    mappers = {}  # one per name, shared by its slots
    while r.at("#map"):
        name, text = r.line("#map", 2)
        values = r.ints(text, f"#map {name} value")
        if name in mappers or name not in arity_of:
            raise r.error(f"#map line of a repeated name or one no slot has: {name!r}", 0)
        if len(values) != n_words:
            raise r.error(f"#map {name} has {len(values)} values for {n_words} words", 0)
        try:  # every value fits the int32 table
            check_range(values, 0, min(arity_of[name], 2**31), f"#map {name} values")
        except ValueError as exc:
            raise r.error(str(exc), 0) from None
        mappers[name] = FeatureMapper(name, values, arity_of[name])
    slots = []
    for off, name, arity, pos in header:
        if name == "w" and "w" not in mappers:  # without a #map line, the identity
            if arity != n_words:
                message = f"slot {off} (w) has arity {arity}, but the file has {n_words} words"
                raise r.error(message, 0, pos)
            mappers["w"] = FeatureMapper("w", np.arange(n_words), arity)
        if name not in mappers:
            raise r.error(f"slot {off} ({name}) has no #map line; re-run {rerun}", 1)
        try:
            slots.append(Slot(off, mappers[name]))
            spec = ContextSpec(tuple(slots))  # each prefix, so that a fault names its line
        except ValueError as exc:
            raise r.error(str(exc), 0, pos) from None
    if not slots:
        raise r.error("expected a #slot line", 1)
    return spec


def save_counts(table: EventTable, path: str | Path) -> None:
    """Text dump: the version line, ``#vocab``, the slot block of
    ``slot_lines``, then one ``v_L ... v_1<TAB>word-id<TAB>count`` line
    per event, sorted by tuple then word."""
    header = ["#clusterlm-counts v1", f"#vocab\t{table.n_words}"]
    header += slot_lines(table.spec)
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n")
        rows = np.repeat(table.contexts, np.diff(table.ptr), axis=0)
        write_rows(fh, rows, table.words, table.freqs)


def load_counts(path: str | Path) -> EventTable:
    """A counts file back as an EventTable, its slots read by
    ``read_slots``.  A damaged file raises ``ValueError`` naming the file
    and, where it can, the line: for event rows, the first row at
    fault."""
    r = Reader(path, "#clusterlm-counts v1", "counts")
    n_words = r.int_line("#vocab")
    if not 0 < n_words < 2**31:  # the int32 word ids of the table and its mappers
        raise r.error("#vocab outside [1, 2**31)", 0)
    spec = read_slots(r, n_words, "clusterlm counts collect")
    rows = r.rows("event", spec.depth, 2)
    r.end("the event lines")
    try:
        return EventTable(spec, rows[:, :-1], rows[:, -1])
    except ValueError as exc:
        # a failing prefix of the rows fails when longer: bisect for the shortest
        lo, hi, message = 0, len(rows), str(exc)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                EventTable(spec, rows[:mid, :-1], rows[:mid, -1])
                lo = mid
            except ValueError as short:
                hi, message = mid, str(short)
        raise r.error(message, hi - len(rows)) from None  # the rows end the file
