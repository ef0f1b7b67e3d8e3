"""Probability models over the vocabulary.

Three model families share one query protocol, ``model.prob(w, history)``
with ``history`` the tuple of word ids preceding ``w`` in its sentence;
each model derives the conditioning view it needs (mapped context tuple
or padded n-gram history) from that common input.

``model.prob_array(rows)`` answers many queries in one call, bit for bit
as ``prob`` does.  A query row holds the history at offsets -W..-1, then
the word, with -1 at the positions before the sentence start (the rows
``events.event_rows`` builds with -1 as the begin token); W must be at
least the model's ``history_width``.  The array path reads the model's
sorted tables.  ``prob`` reads dict indexes (``BackoffModel.probs`` and
``bows``, ``ClassLM.state_of`` and friends) that are built from those
tables on the first scalar query, so training or loading a model that
is only scored in batches, or only saved, never builds them.

* ``ClassLM``: the two-step clustered model
  p(w | c) = p(G(w) | S(c)) * p(w | G(w)), with the category-given-state
  distribution smoothed by absolute discounting toward the category
  marginal, and a suffix-fallback policy for unseen contexts.
* ``BackoffModel``: interpolated absolute-discounting n-gram model with
  per-order count cutoffs and a uniform-floor unigram.
* ``InterpolatedModel``: a fixed convex combination of other models.

All trained models are immutable and their queries are pure.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from clusterlm._rows import (
    Reader,
    check_range,
    check_strictly_sorted,
    find_rows,
    row_starts,
    sum_rows,
    tuples,
    write_rows,
)

# load_counts and load_clustering are unused here but stay importable:
# the benchmark tracer patches them in this module's namespace.
from clusterlm.cluster import Clustering, load_clustering  # noqa: F401
from clusterlm.corpus import Vocabulary
from clusterlm.events import ContextTuple, event_rows, load_counts  # noqa: F401


# ---------------------------------------------------------------------------
# clustered class model
# ---------------------------------------------------------------------------

CLASSLM_VERSION = "#clusterlm-classlm v2"
_CORRUPT = "corrupt class model file"


class ClassSlot(NamedTuple):
    """One context position of a class model: its negative offset, the
    name of its feature mapper, the mapper's arity, and the value the
    sentence-begin token maps to."""

    offset: int
    name: str
    arity: int
    bos: int


class ClassLM:
    """Word probabilities from a word/context clustering.

    p(w | c) factors into p(g | s) * p(w | g) with g the word's category
    and s the context's state.  p(w | g) = N(w)/N(g) is the exact
    relative frequency; p(g | s) discounts each seen joint cell by
    ``discount`` and redistributes the collected mass proportionally to
    the category marginals:

        p(g | s) = max(N(s,g) - D, 0)/N(s) + D*n+(s)/N(s) * N(g)/N.

    A context never seen in training falls back to the state most
    frequent among contexts sharing its longest seen suffix; with no
    seen suffix at all, to the heaviest state.

    The model is a handful of tables: ``maps`` (the value of every word
    at every slot), ``G`` and ``word_counts`` per word, the nonzero joint
    cells ``joint_cells`` (rows s, g, N(s,g), sorted), the training
    ``contexts`` (sorted rows) with their ``states``, and per proper
    suffix length k the sorted ``suffix_tables[k-1]`` = (keys, states).
    ``save_classlm`` writes exactly these, so a saved model loads on its
    own.
    """

    def __init__(self, clustering: Clustering, vocab: Vocabulary, discount: float = 0.5):
        _check_discount(discount)
        slots = clustering.table.spec.slots
        n_words = len(vocab)
        if clustering.n_words != n_words:
            raise ValueError("clustering and vocabulary differ in size")
        for slot in slots:
            if slot.mapper.table.size < n_words:
                raise ValueError(
                    f"slot {slot.offset} ({slot.mapper.name}): its mapper table covers "
                    f"{slot.mapper.table.size} words but the vocabulary has {n_words}; "
                    "load the counts with the feature maps they were collected with"
                )
        table = clustering.table
        s, g = np.nonzero(clustering.joint)
        self._setup(
            discount,
            [
                ClassSlot(
                    sl.offset, sl.mapper.name, sl.mapper.arity, int(sl.mapper.table[vocab.bos_id])
                )
                for sl in slots
            ],
            np.stack([sl.mapper.table[:n_words] for sl in slots], axis=1),
            clustering.G.copy(),
            clustering.word_counts.copy(),
            np.stack([s, g, clustering.joint[s, g].astype(np.int64)], axis=1),
            clustering.n_categories,
            clustering.n_states,
            table.contexts,
            clustering.S.copy(),
            [
                _suffix_states(table.contexts, clustering.S, table.ctx_counts, keep)
                for keep in range(1, table.spec.depth)
            ],
        )

    def _setup(
        self,
        discount: float,
        slots: Sequence[ClassSlot],
        maps: np.ndarray,
        G: np.ndarray,
        word_counts: np.ndarray,
        joint_cells: np.ndarray,
        n_categories: int,
        n_states: int,
        contexts: np.ndarray,
        states: np.ndarray,
        suffix_tables: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Keep the tables and derive the marginals."""
        self.discount = float(discount)
        self.slots = tuple(slots)
        self.depth = len(self.slots)
        self.maps = maps
        self.G = G
        self.word_counts = word_counts
        self.joint_cells = joint_cells
        self.suffix_tables = suffix_tables
        self.n_words = len(G)
        self.n_categories = int(n_categories)
        self.n_states = int(n_states)

        s, g, n = joint_cells.T
        self.state_totals = _sums(s, n, self.n_states)
        self.cat_totals = _sums(g, n, self.n_categories)
        self.total = int(word_counts.sum())
        self._nplus = np.bincount(s, minlength=self.n_states).astype(np.int64)
        self.contexts = contexts
        self.states = states
        self._default_state = int(np.argmax(self.state_totals))
        self._offsets = [sl.offset for sl in self.slots]
        self._tables = list(maps.T)
        self._bos_values = tuple(sl.bos for sl in self.slots)

    # The dict indexes of the scalar queries, built on the first one.

    @cached_property
    def _joint(self) -> dict[tuple[int, int], int]:
        s, g, n = self.joint_cells.T
        return dict(zip(zip(s.tolist(), g.tolist()), n.tolist()))

    @cached_property
    def state_of(self) -> dict[ContextTuple, int]:
        return dict(zip(tuples(self.contexts), self.states.tolist()))

    @cached_property
    def _fallback(self) -> dict[ContextTuple, int]:
        return {
            key: st
            for keys, sts in self.suffix_tables
            for key, st in zip(tuples(keys), sts.tolist())
        }

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return -self.slots[0].offset

    def resolve_state(self, context: ContextTuple) -> int:
        """State of a context tuple, through the suffix fallback when
        the exact tuple was never seen."""
        if len(context) != self.depth:
            raise ValueError("context tuple length does not match the model's slots")
        s = self.state_of.get(tuple(context))
        if s is not None:
            return s
        depth = self.depth
        for keep in range(depth - 1, 0, -1):
            s = self._fallback.get(tuple(context[depth - keep :]))
            if s is not None:
                return s
        return self._default_state

    def prob_given_context(self, w: int, context: ContextTuple) -> float:
        """p(w | context) per the two-step factorization."""
        if not 0 <= w < self.n_words:
            raise ValueError("word id out of range")
        s = self.resolve_state(context)
        g = int(self.G[w])
        n_g = int(self.cat_totals[g])
        if n_g == 0:
            return 0.0
        n_s = float(self.state_totals[s])
        d = self.discount
        p_g = (
            max(float(self._joint.get((s, g), 0)) - d, 0.0) / n_s
            + (d * float(self._nplus[s]) / n_s) * (n_g / self.total)
        )
        p_w = float(self.word_counts[w]) / n_g
        return p_g * p_w

    def context_of(self, history: Sequence[int]) -> ContextTuple:
        """Mapped context tuple for a prediction following ``history``
        (positions before the sentence start take the begin token)."""
        n = len(history)
        return tuple(
            int(table[history[n + off]]) if n + off >= 0 else bos
            for off, table, bos in zip(self._offsets, self._tables, self._bos_values)
        )

    def prob(self, w: int, history: Sequence[int]) -> float:
        return self.prob_given_context(w, self.context_of(history))

    def prob_array(self, rows: np.ndarray) -> np.ndarray:
        """``prob`` of every query row (see the module docstring).

        States resolve by row lookups in ``contexts``, then in each
        suffix table from the longest, then to the default state; the
        probability is evaluated in the operation order of
        ``prob_given_context``."""
        rows = _query_rows(rows, self.n_words, self.history_width)
        words = rows[:, -1]
        ctx = np.empty((len(rows), self.depth), dtype=np.int64)
        for k, sl in enumerate(self.slots):
            h = rows[:, rows.shape[1] - 1 + sl.offset]
            ctx[:, k] = np.where(h >= 0, self.maps[np.maximum(h, 0), k], sl.bos)
        s = self._resolve_states(ctx)

        out = np.zeros(len(rows), dtype=np.float64)
        g = self.G[words]
        live = np.flatnonzero(self.cat_totals[g] > 0)  # an empty category gives 0.0
        s, g, words = s[live], g[live], words[live]
        at, seen = find_rows(self.joint_cells[:, :2], np.column_stack([s, g]))
        joint = np.zeros(len(live), dtype=np.float64)
        joint[seen] = self.joint_cells[at[seen], 2]
        # N(g)/N as Python divides the two exact integers
        share = np.array([n / self.total for n in self.cat_totals.tolist()], dtype=np.float64)
        n_s = self.state_totals[s].astype(np.float64)
        n_g = self.cat_totals[g].astype(np.float64)
        d = self.discount
        nplus = self._nplus[s].astype(np.float64)
        p_g = np.maximum(joint - d, 0.0) / n_s + (d * nplus / n_s) * share[g]
        out[live] = p_g * (self.word_counts[words].astype(np.float64) / n_g)
        return out

    def _resolve_states(self, ctx: np.ndarray) -> np.ndarray:
        """``resolve_state`` of every row of mapped context values."""
        at, found = find_rows(self.contexts, ctx)
        out = np.full(len(ctx), self._default_state, dtype=np.int64)
        out[found] = self.states[at[found]]
        todo = np.flatnonzero(~found)
        for keep in range(self.depth - 1, 0, -1):
            keys, states = self.suffix_tables[keep - 1]
            at, found = find_rows(keys, ctx[todo, self.depth - keep :])
            out[todo[found]] = states[at[found]]
            todo = todo[~found]
        return out


def _query_rows(rows: np.ndarray, n_words: int, width: int) -> np.ndarray:
    """``rows`` as int64 query rows, checked where a model of
    ``history_width`` ``width`` reads them: the word in ``[0, n_words)``,
    and each history position a word id or, before the sentence start,
    -1.  Anything else raises ``ValueError``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] < width + 1:
        raise ValueError(f"query rows need at least {width} history columns and the word")
    check_range(rows[:, -1], 0, n_words, "query word ids")
    hist = rows[:, rows.shape[1] - 1 - width : -1]
    check_range(hist, -1, n_words, "query history ids")
    if ((hist[:, :-1] >= 0) & (hist[:, 1:] < 0)).any():
        raise ValueError("query history holds a word before the sentence start")
    return rows


def _check_discount(discount: float) -> None:
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Exact int64 per-index sums of ``weights``."""
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, index, weights)
    return out


def _suffix_states(
    contexts: np.ndarray, states: np.ndarray, counts: np.ndarray, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, states): every distinct length-``keep`` suffix of the
    context rows, sorted, with the state holding most of its events
    (ties to the lower state id)."""
    suffix = contexts[:, contexts.shape[1] - keep :]
    pairs, weight = sum_rows(np.column_stack([suffix, states]), counts)
    suffix, states = pairs[:, :-1], pairs[:, -1]
    # heaviest state first within each suffix, the lower id among equals
    order = np.lexsort((states, -weight, *suffix.T[::-1]))
    suffix, states = suffix[order], states[order]
    first = row_starts(suffix)
    return suffix[first], states[first].astype(np.int32)


def save_classlm(model: ClassLM, path: str | Path) -> None:
    """Write the model as one self-contained text file.

    After the version line come ``#discount``, ``#n_words``,
    ``#n_categories``, ``#n_states``, ``#depth`` and one
    ``#slot<TAB>offset<TAB>name<TAB>arity<TAB>begin-value`` line per
    slot.  Then the sections, each opened by its row count: ``#maps``
    (the slot values of each word), ``#words`` (category and count of
    each word), ``#joint`` (``s g<TAB>N(s,g)`` for every nonzero cell),
    one ``#suffix<TAB>k`` per proper suffix length k (``suffix<TAB>state``)
    and ``#contexts`` (``context<TAB>state``).  Rows are sorted, so equal
    models give equal bytes.
    """
    header = [
        CLASSLM_VERSION,
        f"#discount\t{model.discount!r}",
        f"#n_words\t{model.n_words}",
        f"#n_categories\t{model.n_categories}",
        f"#n_states\t{model.n_states}",
        f"#depth\t{model.depth}",
    ]
    header += [f"#slot\t{sl.offset}\t{sl.name}\t{sl.arity}\t{sl.bos}" for sl in model.slots]
    sections = [
        ("#maps", model.maps, ()),
        ("#words", model.G[:, None], (model.word_counts,)),
        ("#joint", model.joint_cells[:, :2], (model.joint_cells[:, 2],)),
    ]
    sections += [
        (f"#suffix\t{keep}", keys, (states,))
        for keep, (keys, states) in enumerate(model.suffix_tables, 1)
    ]
    sections.append(("#contexts", model.contexts, (model.states,)))
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n")
        for key, keys, values in sections:
            fh.write(f"{key}\t{len(keys)}\n".encode("ascii"))
            write_rows(fh, keys, *values)


def load_classlm(path: str | Path) -> ClassLM:
    """Read a class model file written by ``save_classlm``.

    The file alone defines the model.  Every section is parsed in one
    numpy pass, and shapes, id ranges, sort orders and the joint's
    column sums (they must equal the per-category word counts) are
    checked; any inconsistency raises ``ValueError``.
    """
    data = Path(path).read_bytes()
    first, _, _ = data.partition(b"\n")
    if first == b"#clusterlm-classlm v1":
        raise ValueError(
            f"{path} is a v1 class model, which only referenced its training files; "
            "re-run `clusterlm cluster run --model-out` to write a self-contained model"
        )
    if first != CLASSLM_VERSION.encode():
        raise ValueError(f"not a class model file: {path}")
    r = Reader(data, len(first) + 1, _CORRUPT)
    discount = r.float_line("#discount")
    _check_discount(discount)
    n_words = r.int_line("#n_words")
    n_categories = r.int_line("#n_categories")
    n_states = r.int_line("#n_states")
    depth = r.int_line("#depth")
    if depth < 1:
        raise ValueError(f"{_CORRUPT}: depth must be at least 1")
    slots = []
    for _ in range(depth):
        off, name, arity, bos = r.line("#slot", 4)
        off, arity, bos = r.int(off, "offset"), r.int(arity, "arity"), r.int(bos, "begin value")
        slots.append(ClassSlot(off, name, arity, bos))
    offsets = [sl.offset for sl in slots]
    if offsets[-1] >= 0 or any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise ValueError(f"{_CORRUPT}: slot offsets must be negative and increasing")
    for sl in slots:
        if not 0 < sl.arity < 2**31:
            raise ValueError(f"{_CORRUPT}: slot {sl.offset} arity outside [1, 2**31)")
        if not 0 <= sl.bos < sl.arity:
            raise ValueError(f"{_CORRUPT}: slot {sl.offset} begin value outside [0, {sl.arity})")

    def section(key: str, n_key: int, n_value: int, n_rows: int | None = None) -> np.ndarray:
        declared = r.int(r.line(key, 1)[0], f"{key} row count")
        if n_rows is not None and declared != n_rows:
            raise ValueError(f"{_CORRUPT}: {key} declares {declared} rows, expected {n_rows}")
        return r.rows(key, n_key, n_value, declared)

    maps = section("#maps", depth, 0, n_words)
    words = section("#words", 1, 1, n_words)
    cells = section("#joint", 2, 1)
    suffix_rows = []
    for keep in range(1, depth):
        got, declared = r.line("#suffix", 2)
        if r.int(got, "suffix length") != keep:
            raise ValueError(f"{_CORRUPT}: expected the #suffix table of length {keep}")
        suffix_rows.append(r.rows("#suffix", keep, 1, r.int(declared, "#suffix row count")))
    ctx_rows = section("#contexts", depth, 1)
    r.end("#contexts")

    if not 1 <= n_categories <= n_words:
        raise ValueError(f"{_CORRUPT}: n_categories must lie in [1, n_words]")
    if not 1 <= n_states <= len(ctx_rows):
        raise ValueError(f"{_CORRUPT}: n_states must lie in [1, number of contexts]")
    for k, sl in enumerate(slots):
        check_range(maps[:, k], 0, sl.arity, f"{_CORRUPT}: slot {sl.offset} values")
    G, word_counts = words[:, 0], words[:, 1]
    check_range(G, 0, n_categories, f"{_CORRUPT}: word categories")
    check_range(word_counts, 0, 2**62, f"{_CORRUPT}: word counts")
    G = G.astype(np.int32)
    if not 0 < sum(word_counts.tolist()) < 2**62:
        raise ValueError(f"{_CORRUPT}: word counts must add up to a total in (0, 2**62)")
    check_range(cells[:, 0], 0, n_states, f"{_CORRUPT}: joint states")
    check_range(cells[:, 1], 0, n_categories, f"{_CORRUPT}: joint categories")
    check_range(cells[:, 2], 1, 2**62, f"{_CORRUPT}: joint counts")
    check_strictly_sorted(cells[:, :2], f"{_CORRUPT}: #joint")
    if not np.array_equal(
        _sums(cells[:, 1], cells[:, 2], n_categories), _sums(G, word_counts, n_categories)
    ):
        raise ValueError(f"{_CORRUPT}: joint column sums differ from the category word counts")
    state_totals = _sums(cells[:, 0], cells[:, 2], n_states)

    def table(rows: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        keys, states = rows[:, :-1], rows[:, -1]
        for k, sl in enumerate(slots[depth - keys.shape[1] :]):
            check_range(keys[:, k], 0, sl.arity, f"{_CORRUPT}: {what} slot {sl.offset} values")
        check_strictly_sorted(keys, f"{_CORRUPT}: {what}")
        check_range(states, 0, n_states, f"{_CORRUPT}: {what} states")
        if (state_totals[states] == 0).any():
            raise ValueError(f"{_CORRUPT}: {what} maps to a state without events")
        return keys.astype(np.int32), states.astype(np.int32)

    contexts, states = table(ctx_rows, "#contexts")
    model = ClassLM.__new__(ClassLM)
    model._setup(
        discount,
        slots,
        maps.astype(np.int32),
        G,
        word_counts,
        cells,
        n_categories,
        n_states,
        contexts,
        states,
        [table(rows, f"#suffix {keep}") for keep, rows in enumerate(suffix_rows, 1)],
    )
    return model


# ---------------------------------------------------------------------------
# backoff n-gram model
# ---------------------------------------------------------------------------


class BackoffModel:
    """Interpolated absolute-discounting n-gram model.

    For each order k >= 2 with kept counts c and history total c(h):

        p_k(w|h) = max(c(hw) - D, 0)/c(h) + bow(h) * p_{k-1}(w|h'),
        bow(h)   = D * n+(h) / c(h),

    where h' drops the farthest word.  An unseen history backs off with
    weight 1.  The unigram adds a uniform floor over the whole
    vocabulary, so every word has positive probability:

        p_1(w) = (max(c(w) - D, 0) + D * n+ / |V|) / N.

    The model is defined by its kept counts: ``grams[k-1]`` holds the
    kept k-grams as strictly sorted rows of word ids and ``counts[k-1]``
    their counts, as ``train_backoff`` checks and cuts them.  From them
    it derives ``uni`` and, per order k >= 2, the sorted tables of the
    kept k-grams with their full interpolated p_k and of the seen
    histories with their bow(h).  The scalar query index, ``probs[k]``
    (k-gram to p_k) and ``bows[k]`` (history to bow(h)), is built from
    those tables on the first scalar query.
    """

    def __init__(
        self,
        n_words: int,
        discount: float,
        counts: Sequence[tuple[np.ndarray, np.ndarray]],
        bos_id: int | None = None,
    ):
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not counts:
            raise ValueError("counts for at least one order required")
        if bos_id is not None and not 0 <= bos_id < n_words:
            raise ValueError("begin id outside [0, n_words)")
        self.order = len(counts)
        self.n_words = int(n_words)
        self.discount = d = float(discount)
        self.bos_id = None if bos_id is None else int(bos_id)
        self.grams = [g for g, _ in counts]
        self.counts = [c for _, c in counts]

        words, uni_counts = self.grams[0][:, 0], self.counts[0]
        total = int(uni_counts.sum())
        if total == 0:
            raise ValueError("no unigrams survive the cutoffs")
        floor = d * len(uni_counts) / self.n_words
        self.uni = np.full(self.n_words, floor / total, dtype=np.float64)
        self.uni[words] = (np.maximum(uni_counts - d, 0.0) + floor) / total

        # per order k >= 2: kept k-grams, their p_k, seen histories, their bows
        tables: list[tuple[np.ndarray, ...]] = []
        for k in range(2, self.order + 1):
            grams, c = self.grams[k - 1], self.counts[k - 1]
            starts = np.flatnonzero(row_starts(grams[:, :-1]))
            hists = grams[starts, :-1]
            hist_tot = np.add.reduceat(c, starts)
            nplus = np.diff(starts, append=len(grams))
            bows = d * nplus / hist_tot
            h = np.repeat(np.arange(len(starts)), nplus)
            lower = _interpolated(self.uni, tables, k - 1, grams[:, 1:])
            probs = (c - d) / hist_tot[h] + bows[h] * lower
            tables.append((grams, probs, hists, bows))
        self._tables = tables

    @cached_property
    def probs(self) -> dict[int, dict[tuple[int, ...], float]]:
        return self._index([(grams, probs) for grams, probs, _, _ in self._tables])

    @cached_property
    def bows(self) -> dict[int, dict[tuple[int, ...], float]]:
        return self._index([(hists, bows) for _, _, hists, bows in self._tables])

    def _index(self, tables) -> dict[int, dict[tuple[int, ...], float]]:
        """``tables[k-2]`` = (rows, values) of order k as a dict per order."""
        # the keys share one int object per word id rather than one per entry
        ids = np.arange(self.n_words).astype(object)
        return {
            k: dict(zip(tuples(ids[keys]), values.tolist()))
            for k, (keys, values) in enumerate(tables, 2)
        }

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return self.order - 1

    def _padded(self, history: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        h = tuple(int(x) for x in history[-(self.order - 1) :])
        if self.bos_id is not None and len(h) < self.order - 1:
            h = (self.bos_id,) * (self.order - 1 - len(h)) + h
        return h

    def _p(self, k: int, h: tuple[int, ...], w: int) -> float:
        if k == 1:
            return float(self.uni[w])
        if len(h) < k - 1:
            return self._p(k - 1, h, w)
        bow = self.bows[k].get(h)
        if bow is None:
            return self._p(k - 1, h[1:], w)
        p = self.probs[k].get(h + (w,))
        if p is not None:
            return p
        return bow * self._p(k - 1, h[1:], w)

    def prob(self, w: int, history: Sequence[int]) -> float:
        if not 0 <= w < self.n_words:
            raise ValueError("word id out of range")
        return self._p(self.order, self._padded(history), w)

    def prob_array(self, rows: np.ndarray) -> np.ndarray:
        """``prob`` of every query row (see the module docstring).
        Positions before the sentence start take the begin id; without
        one, a row backs off to the order its known history reaches, as
        ``_p`` does."""
        grams = _query_rows(rows, self.n_words, self.history_width)[:, -self.order :]
        if self.bos_id is not None:
            grams = np.where(grams < 0, self.bos_id, grams)
            return _interpolated(self.uni, self._tables, self.order, grams)
        known = (grams[:, :-1] >= 0).sum(axis=1)
        out = np.empty(len(grams), dtype=np.float64)
        for j in range(self.order):
            at = np.flatnonzero(known == j)
            out[at] = _interpolated(self.uni, self._tables, j + 1, grams[at, self.order - 1 - j :])
        return out

    @property
    def n_parameters(self) -> int:
        """Raw stored-entry count: unigram row plus every kept n-gram
        probability and history weight."""
        return self.n_words + sum(len(grams) + len(hists) for grams, _, hists, _ in self._tables)


def _interpolated(
    uni: np.ndarray, tables: Sequence[tuple[np.ndarray, ...]], k: int, rows: np.ndarray
) -> np.ndarray:
    """p_k(w | h) of each row (h, w) of k word ids, by the recursion of
    ``BackoffModel._p``; ``tables[j-2]`` holds the kept grams, their
    probabilities, the seen histories and their bows of order j."""
    if k == 1:
        return uni[rows[:, 0]]
    grams, probs, hists, bows = tables[k - 2]
    at, kept = find_rows(grams, rows)
    out = np.empty(len(rows), dtype=np.float64)
    out[kept] = probs[at[kept]]
    rest = _interpolated(uni, tables, k - 1, rows[~kept, 1:])
    at, seen = find_rows(hists, rows[~kept, :-1])
    rest[seen] = bows[at[seen]] * rest[seen]
    out[~kept] = rest
    return out


def ngram_counts(
    sentences: Iterable[Sequence[int]],
    order: int,
    *,
    bos_id: int,
    eos_id: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-order n-gram counts with one k-gram of every order per
    prediction event: histories are padded with the begin token and the
    end token is predicted once per sentence.

    Entry k-1 is the pair (grams, counts): the distinct k-grams as
    strictly sorted rows of k word ids, and their int64 counts.  The
    order-``order`` rows come from ``event_rows``, as the context counts
    do; each lower order is the suffix marginal of the order above.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    out = [sum_rows(event_rows(sentences, range(1 - order, 0), bos_id, eos_id))]
    for _ in range(order - 1):
        grams, counts = out[-1]
        out.append(sum_rows(grams[:, 1:], counts))
    return out[::-1]


def train_backoff(
    counts: Sequence[tuple[np.ndarray, np.ndarray]],
    n_words: int,
    *,
    discount: float = 0.5,
    cutoffs: dict[int, int] | None = None,
    bos_id: int | None = None,
) -> BackoffModel:
    """Build a BackoffModel from per-order n-gram counts.

    ``counts[k-1]`` is the order-k pair (grams, counts) that
    ``ngram_counts`` returns: strictly sorted rows of k word ids in
    ``[0, n_words)`` and positive counts; anything else raises
    ``ValueError``.  ``cutoffs`` maps an order to the count at or below
    which its n-grams are discarded; by default every order >= 3
    discards singletons.  A history whose k-grams are all discarded
    becomes unseen and backs off fully.
    """
    if cutoffs is None:
        cutoffs = {k: 1 for k in range(3, len(counts) + 1)}
    kept = []
    for k, (grams, c) in enumerate(counts, 1):
        grams, c = np.asarray(grams, dtype=np.int64), np.asarray(c, dtype=np.int64)
        if grams.ndim != 2 or grams.shape[1] != k or c.shape != (len(grams),):
            raise ValueError(f"order-{k} rows must have length {k} and one count each")
        check_range(grams, 0, n_words, f"order-{k} word ids")
        check_strictly_sorted(grams, f"order-{k}")
        check_range(c, 1, 2**62, f"order-{k} counts")
        if c.sum(dtype=np.float64) >= 2.0**62:
            raise ValueError(f"order-{k} counts must add up to less than 2**62")
        keep = c > cutoffs.get(k, 0)
        kept.append((grams[keep], c[keep]))
    return BackoffModel(n_words, discount, kept, bos_id=bos_id)


_BACKOFF_VERSION = "#clusterlm-backoff v2"
_BACKOFF_CORRUPT = "corrupt backoff model file"


def save_backoff(model: BackoffModel, path: str | Path) -> None:
    """Write the model's kept counts as one text file.

    After the version line come ``#order``, ``#discount``, ``#n_words``
    and ``#bos`` (a word id or ``none``), then per order k one
    ``#k-grams<TAB>rows`` section of ``w_1 ... w_k<TAB>count`` lines in
    sorted order, so equal models give equal bytes.
    """
    header = [
        _BACKOFF_VERSION,
        f"#order\t{model.order}",
        f"#discount\t{model.discount!r}",
        f"#n_words\t{model.n_words}",
        f"#bos\t{'none' if model.bos_id is None else model.bos_id}",
    ]
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n")
        for k, (grams, counts) in enumerate(zip(model.grams, model.counts), 1):
            fh.write(f"#{k}-grams\t{len(grams)}\n".encode("ascii"))
            write_rows(fh, grams, counts)


def load_backoff(path: str | Path) -> BackoffModel:
    """Read a backoff model file written by ``save_backoff``.

    The sections are parsed in one numpy pass each, then handed to
    ``train_backoff`` without cutoffs, so the loaded model equals the
    saved one bit for bit.  A damaged file (bad header, row count, id,
    sort order or count, or a cut-off last line) raises ``ValueError``.
    """
    data = Path(path).read_bytes()
    first, _, _ = data.partition(b"\n")
    if first == b"#clusterlm-backoff v1":
        raise ValueError(
            f"{path} is a v1 backoff model, which stored rounded log probabilities; "
            "re-run `clusterlm ngram train` to write a v2 model"
        )
    if first != _BACKOFF_VERSION.encode():
        raise ValueError(f"not a backoff model file: {path}")
    r = Reader(data, len(first) + 1, _BACKOFF_CORRUPT)
    order = r.int_line("#order")
    discount = r.float_line("#discount")
    n_words = r.int_line("#n_words")
    bos = r.line("#bos", 1)[0]
    bos_id = None if bos == "none" else r.int(bos, "begin id")
    if order < 1:
        raise r.error("order must be at least 1")
    if not 0 < n_words < 2**31:
        raise r.error("n_words outside [1, 2**31)")
    counts = []
    for k in range(1, order + 1):
        key = f"#{k}-grams"
        rows = r.rows(key, k, 1, r.int(r.line(key, 1)[0], f"{key} row count"))
        counts.append((rows[:, :-1], rows[:, -1]))
    r.end(f"#{order}-grams")
    try:
        return train_backoff(counts, n_words, discount=discount, cutoffs={}, bos_id=bos_id)
    except ValueError as exc:
        raise r.error(str(exc)) from None


# ---------------------------------------------------------------------------
# linear interpolation
# ---------------------------------------------------------------------------


class InterpolatedModel:
    """Fixed convex combination of component models over one
    vocabulary: p(w|.) = sum_k weight_k * p_k(w|.)."""

    def __init__(self, components: Sequence, weights: Sequence[float]):
        if len(components) != len(weights):
            raise ValueError("one weight per component required")
        if not components:
            raise ValueError("at least one component required")
        w = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(w).all() or (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be finite, non-negative and sum to 1")
        sizes = {getattr(c, "n_words") for c in components}
        if len(sizes) != 1:
            raise ValueError("components must share one vocabulary")
        self.components = tuple(components)
        self.weights = w
        self.n_words = sizes.pop()

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return max(c.history_width for c in self.components)

    def prob(self, w: int, history: Sequence[int]) -> float:
        total = 0.0
        for lam, comp in zip(self.weights, self.components):
            if lam != 0.0:
                total += float(lam) * comp.prob(w, history)
        return total

    def prob_array(self, rows: np.ndarray) -> np.ndarray:
        """``prob`` of every query row: ``lam * p_k`` added in component
        order over the nonzero weights, as ``prob`` does."""
        total = np.zeros(len(rows), dtype=np.float64)
        for lam, comp in zip(self.weights, self.components):
            if lam != 0.0:
                total += float(lam) * comp.prob_array(rows)
        return total


def save_interpolated(
    model: InterpolatedModel, path: str | Path, component_paths: Sequence[str]
) -> None:
    """Write weights plus component model file paths (resolved against
    the model file at load time when relative)."""
    if len(component_paths) != len(model.components):
        raise ValueError("one path per component required")
    lines = ["#clusterlm-interp v1"]
    lines.append("#weights\t" + " ".join(repr(float(x)) for x in model.weights))
    for p in component_paths:
        lines.append(f"#component\t{p}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_interpolated(path: str | Path) -> InterpolatedModel:
    """Read a mixture file written by ``save_interpolated`` and load its
    components.  One ``#weights`` line and then ``#component`` lines are
    required; any other line, or a cut-off last line, raises
    ``ValueError``."""
    base = Path(path).parent
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines[0].strip() != "#clusterlm-interp v1":
        raise ValueError("not an interpolated model file")
    if lines.pop() != "":
        raise ValueError("corrupt interpolated model file: the last line is cut off")
    if len(lines) < 2 or not lines[1].startswith("#weights\t"):
        raise ValueError("corrupt interpolated model file: expected a #weights line")
    try:
        weights = [float(x) for x in lines[1].partition("\t")[2].split()]
    except ValueError:
        raise ValueError("corrupt interpolated model file: a weight is not a number") from None
    comp_paths: list[Path] = []
    for line in lines[2:]:
        key, _, value = line.partition("\t")
        if key != "#component" or not value:
            raise ValueError(f"corrupt interpolated model file: unexpected line {line!r}")
        q = Path(value)
        comp_paths.append(q if q.is_absolute() else base / q)
    components = [load_model(p) for p in comp_paths]
    return InterpolatedModel(components, weights)


def load_model(path: str | Path):
    """Open any saved model, dispatching on its version line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first.startswith("#clusterlm-backoff "):
        return load_backoff(path)
    if first.startswith("#clusterlm-classlm "):
        return load_classlm(path)
    if first == "#clusterlm-interp v1":
        return load_interpolated(path)
    raise ValueError(f"unrecognized model file: {path}")
