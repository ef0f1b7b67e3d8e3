"""Context definitions and sparse joint counts of (context, next word).

A context is an L-tuple of mapped feature values taken at fixed negative
offsets from the predicted position.  Tuples are stored farthest-first,
``(v_L, ..., v_1)``, matching the printed form; the nearest position
(offset -1) supplies the last tuple element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

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

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(s.mapper.arity for s in self.slots)


@dataclass
class EventTable:
    """Sparse counts N(context, word) with exact integer marginals."""

    spec: ContextSpec
    n_words: int
    counts: dict[ContextTuple, dict[int, int]] = field(repr=False)
    context_marginals: dict[ContextTuple, int] = field(repr=False)
    word_marginals: dict[int, int] = field(repr=False)
    total: int

    @classmethod
    def from_counts(
        cls, spec: ContextSpec, n_words: int, counts: dict[ContextTuple, dict[int, int]]
    ) -> "EventTable":
        """Build a table (with marginals) from raw sparse counts."""
        ctx_marg: dict[ContextTuple, int] = {}
        word_marg: dict[int, int] = {}
        total = 0
        for ctx, row in counts.items():
            if len(ctx) != spec.depth:
                raise ValueError("context tuple length does not match spec depth")
            n_c = 0
            for w, n in row.items():
                if n <= 0:
                    raise ValueError("stored counts must be strictly positive")
                n_c += n
                word_marg[w] = word_marg.get(w, 0) + n
            ctx_marg[ctx] = n_c
            total += n_c
        if word_marg and (min(word_marg) < 0 or max(word_marg) >= n_words):
            raise ValueError(f"word ids outside the {n_words}-word vocabulary")
        return cls(
            spec=spec,
            n_words=n_words,
            counts=counts,
            context_marginals=ctx_marg,
            word_marginals=word_marg,
            total=total,
        )

    @property
    def n_contexts(self) -> int:
        return len(self.counts)


def extract_events(
    sentences: Iterable[Sequence[int]], spec: ContextSpec, vocab: Vocabulary
) -> EventTable:
    """Accumulate N(c, w) over every prediction position of the corpus.

    Each sentence contributes one event per token plus one for the
    sentence-end token.  Positions before the sentence start take the
    mapped sentence-begin value; sentence-end never appears inside a
    context.
    """
    for slot in spec.slots:
        if slot.mapper.table.size != len(vocab):
            raise ValueError(
                f"mapper arity mismatch: slot {slot.offset} maps {slot.mapper.table.size} "
                f"words, vocabulary has {len(vocab)}"
            )
    bos_values = tuple(int(s.mapper.table[vocab.bos_id]) for s in spec.slots)
    tables = [s.mapper.table for s in spec.slots]
    offsets = [s.offset for s in spec.slots]
    eos = vocab.eos_id

    counts: dict[ContextTuple, dict[int, int]] = {}
    for sent in sentences:
        n = len(sent)
        for i in range(n + 1):
            w = sent[i] if i < n else eos
            ctx = tuple(
                int(tables[k][sent[i + offsets[k]]]) if i + offsets[k] >= 0 else bos_values[k]
                for k in range(len(offsets))
            )
            row = counts.setdefault(ctx, {})
            row[w] = row.get(w, 0) + 1
    if not counts:
        raise ValueError("empty corpus")
    return EventTable.from_counts(spec, len(vocab), counts)


def distinct_context_count(table: EventTable, min_count: int) -> tuple[int, int]:
    """(number of distinct contexts, number occurring fewer than
    ``min_count`` times)."""
    below = sum(1 for n in table.context_marginals.values() if n < min_count)
    return len(table.context_marginals), below


def save_counts(table: EventTable, path: str | Path) -> None:
    """Text dump: header with slot metadata, then one line per event,
    ``v_L ... v_1<TAB>word-id<TAB>count`` sorted by tuple then word."""
    lines = ["#clusterlm-counts v1", f"#vocab\t{table.n_words}"]
    for slot in table.spec.slots:
        lines.append(f"#slot\t{slot.offset}\t{slot.mapper.name}\t{slot.mapper.arity}")
    for ctx in sorted(table.counts):
        row = table.counts[ctx]
        ctx_str = " ".join(str(v) for v in ctx)
        for w in sorted(row):
            lines.append(f"{ctx_str}\t{w}\t{row[w]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_counts(path: str | Path, mappers: dict[str, FeatureMapper] | None = None) -> EventTable:
    """Read a counts file back into an EventTable.

    When ``mappers`` is given, slot names are resolved against it and
    arities are checked; otherwise placeholder identity-kind mappers of
    the recorded arity are synthesized (sufficient for clustering, which
    only consumes value ids).
    """
    import numpy as np

    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "#clusterlm-counts v1":
        raise ValueError(f"not a counts file: {path}")
    n_words = None
    slots: list[Slot] = []
    body_start = 0
    for idx, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = idx
            break
        if line.startswith("#vocab\t"):
            n_words = int(line.split("\t")[1])
        elif line.startswith("#slot\t"):
            _, off, name, arity = line.split("\t")
            off, arity = int(off), int(arity)
            if mappers is not None:
                if name not in mappers:
                    raise ValueError(f"counts file references unknown mapper {name!r}")
                mapper = mappers[name]
                if mapper.arity != arity:
                    raise ValueError(
                        f"mapper arity mismatch for {name!r}: file says {arity}, got {mapper.arity}"
                    )
            else:
                mapper = FeatureMapper(
                    name=name,
                    kind="identity",
                    table=np.zeros(0, dtype=np.int32),
                    arity=arity,
                    value_names=[],
                )
            slots.append(Slot(offset=off, mapper=mapper))
    else:
        body_start = len(lines)
    if n_words is None:
        raise ValueError("counts file lacks #vocab header")
    spec = ContextSpec(slots=tuple(slots))

    counts: dict[ContextTuple, dict[int, int]] = {}
    for line in lines[body_start:]:
        if not line:
            continue
        ctx_str, w_str, n_str = line.split("\t")
        ctx = tuple(int(v) for v in ctx_str.split(" "))
        counts.setdefault(ctx, {})[int(w_str)] = int(n_str)
    return EventTable.from_counts(spec, n_words, counts)
