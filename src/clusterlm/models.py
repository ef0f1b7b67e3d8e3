"""Probability models over the vocabulary.

Three model families share one query protocol: ``model.prob(rows)``
returns the probability of every query row.  A row holds the history at
offsets -W..-1, then the predicted word, with -1 at the positions before
the sentence start (the rows ``events.event_rows`` builds with -1 as the
begin token); W must be at least the model's ``history_width``.  Each
model derives the conditioning view it needs (mapped context values or
a padded n-gram history) from those columns and answers by lookups in
its sorted tables.  One word after one history is a one-row query:
``model.prob(np.array([[-1, a, w]]))`` scores ``w`` after the sentence
start and ``a``, for a model of ``history_width`` 2.

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

from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from clusterlm._rows import (
    Reader,
    check_range,
    check_strictly_sorted,
    find_rows,
    row_starts,
    sum_rows,
    write_rows,
)

# load_counts and load_clustering are unused here but stay importable:
# the benchmark tracer patches them in this module's namespace.
from clusterlm.cluster import Clustering, load_clustering  # noqa: F401
from clusterlm.corpus import Vocabulary
from clusterlm.events import event_rows, load_counts  # noqa: F401


# ---------------------------------------------------------------------------
# clustered class model
# ---------------------------------------------------------------------------


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
    cells ``joint_cells`` (rows s, g, N(s,g), sorted), and per suffix
    length k = 1..depth ``tables[k-1]`` = (keys, states), sorted: the
    training contexts and their states for k = depth, else their distinct
    length-k suffixes, each with the state holding most of its events.
    ``save_classlm`` writes exactly these, so a saved model loads on its own.
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
            [
                _suffix_states(table.contexts, clustering.S, table.ctx_counts, keep)
                for keep in range(1, table.spec.depth)
            ]
            + [(table.contexts, clustering.S.copy())],
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
        tables: list[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Keep the tables and derive the marginals."""
        self.discount = float(discount)
        self.slots = tuple(slots)
        self.depth = len(self.slots)
        self.maps = maps
        self.G = G
        self.word_counts = word_counts
        self.joint_cells = joint_cells
        self.tables = tables
        self.n_words = len(G)
        self.n_categories = int(n_categories)
        self.n_states = int(n_states)

        s, g, n = joint_cells.T
        self.state_totals = _sums(s, n, self.n_states)
        self.cat_totals = _sums(g, n, self.n_categories)
        self.total = int(word_counts.sum())
        self._nplus = np.bincount(s, minlength=self.n_states).astype(np.int64)
        self._default_state = int(np.argmax(self.state_totals))

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return -self.slots[0].offset

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """Probability of every query row (see the module docstring).

        Each row's history maps to context values, with a slot's begin
        value before the sentence start.  Its state is that of the exact
        training context, else of its longest seen proper suffix, else
        the default state.  A word of an empty category gets 0."""
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
        """State of every row of mapped context values: that of its
        longest suffix found in ``tables``, else the default state."""
        out = np.full(len(ctx), self._default_state, dtype=np.int64)
        todo = np.arange(len(ctx))
        for keep in range(self.depth, 0, -1):
            keys, states = self.tables[keep - 1]
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
        "#clusterlm-classlm v2",
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
        (f"#suffix\t{keep}" if keep < model.depth else "#contexts", keys, (states,))
        for keep, (keys, states) in enumerate(model.tables, 1)
    ]
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
    r = Reader(path, "#clusterlm-classlm v2", "class model")
    discount = r.float_line("#discount")
    _check_discount(discount)
    n_words = r.int_line("#n_words")
    n_categories = r.int_line("#n_categories")
    n_states = r.int_line("#n_states")
    depth = r.int_line("#depth")
    if depth < 1:
        raise r.error("depth must be at least 1")
    slots = []
    for _ in range(depth):
        off, name, arity, bos = r.line("#slot", 4)
        off, arity, bos = r.int(off, "offset"), r.int(arity, "arity"), r.int(bos, "begin value")
        slots.append(ClassSlot(off, name, arity, bos))
    offsets = [sl.offset for sl in slots]
    if offsets[-1] >= 0 or any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise r.error("slot offsets must be negative and increasing")
    for sl in slots:
        if not 0 < sl.arity < 2**31:
            raise r.error(f"slot {sl.offset} arity outside [1, 2**31)")
        if not 0 <= sl.bos < sl.arity:
            raise r.error(f"slot {sl.offset} begin value outside [0, {sl.arity})")

    def section(key: str, n_key: int, n_value: int, n_rows: int | None = None) -> np.ndarray:
        declared = r.int(r.line(key, 1)[0], f"{key} row count")
        if n_rows is not None and declared != n_rows:
            raise r.error(f"{key} declares {declared} rows, expected {n_rows}")
        return r.rows(key, n_key, n_value, declared)

    maps = section("#maps", depth, 0, n_words)
    words = section("#words", 1, 1, n_words)
    cells = section("#joint", 2, 1)
    table_rows = []
    for keep in range(1, depth):
        got, declared = r.line("#suffix", 2)
        if r.int(got, "suffix length") != keep:
            raise r.error(f"expected the #suffix table of length {keep}")
        table_rows.append(r.rows("#suffix", keep, 1, r.int(declared, "#suffix row count")))
    table_rows.append(section("#contexts", depth, 1))
    r.end("#contexts")

    if not 1 <= n_categories <= n_words:
        raise r.error("n_categories must lie in [1, n_words]")
    if not 1 <= n_states <= len(table_rows[-1]):
        raise r.error("n_states must lie in [1, number of contexts]")
    for k, sl in enumerate(slots):
        check_range(maps[:, k], 0, sl.arity, f"{r.corrupt}: slot {sl.offset} values")
    G, word_counts = words[:, 0], words[:, 1]
    check_range(G, 0, n_categories, f"{r.corrupt}: word categories")
    check_range(word_counts, 0, 2**62, f"{r.corrupt}: word counts")
    G = G.astype(np.int32)
    if not 0 < sum(word_counts.tolist()) < 2**62:
        raise r.error("word counts must add up to a total in (0, 2**62)")
    check_range(cells[:, 0], 0, n_states, f"{r.corrupt}: joint states")
    check_range(cells[:, 1], 0, n_categories, f"{r.corrupt}: joint categories")
    check_range(cells[:, 2], 1, 2**62, f"{r.corrupt}: joint counts")
    check_strictly_sorted(cells[:, :2], f"{r.corrupt}: #joint")
    if not np.array_equal(
        _sums(cells[:, 1], cells[:, 2], n_categories), _sums(G, word_counts, n_categories)
    ):
        raise r.error("joint column sums differ from the category word counts")
    state_totals = _sums(cells[:, 0], cells[:, 2], n_states)

    def table(rows: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        keys, states = rows[:, :-1], rows[:, -1]
        for k, sl in enumerate(slots[depth - keys.shape[1] :]):
            check_range(keys[:, k], 0, sl.arity, f"{r.corrupt}: {what} slot {sl.offset} values")
        check_strictly_sorted(keys, f"{r.corrupt}: {what}")
        check_range(states, 0, n_states, f"{r.corrupt}: {what} states")
        if (state_totals[states] == 0).any():
            raise r.error(f"{what} maps to a state without events")
        return keys.astype(np.int32), states.astype(np.int32)

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
        [
            table(rows, f"#suffix {keep}" if keep < depth else "#contexts")
            for keep, rows in enumerate(table_rows, 1)
        ],
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

    where h' drops the farthest word and a history is padded with the
    begin id ``bos_id``.  An unseen history backs off with weight 1.  The
    unigram adds a uniform floor over the whole vocabulary, so every word
    has positive probability:

        p_1(w) = (max(c(w) - D, 0) + D * n+ / |V|) / N.

    The model is defined by its kept counts: ``grams[k-1]`` holds the
    kept k-grams as strictly sorted rows of word ids and ``counts[k-1]``
    their counts, as ``train_backoff`` checks and cuts them.  From them
    it derives ``uni`` and, per order k >= 2, the sorted tables of the
    kept k-grams with their full interpolated p_k and of the seen
    histories with their bow(h).
    """

    def __init__(
        self,
        n_words: int,
        discount: float,
        counts: Sequence[tuple[np.ndarray, np.ndarray]],
        bos_id: int,
    ):
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not counts:
            raise ValueError("counts for at least one order required")
        if not 0 <= bos_id < n_words:
            raise ValueError("begin id outside [0, n_words)")
        self.order = len(counts)
        self.n_words = int(n_words)
        self.discount = d = float(discount)
        self.bos_id = int(bos_id)
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

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return self.order - 1

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """Probability of every query row (see the module docstring);
        positions before the sentence start take the begin id."""
        grams = _query_rows(rows, self.n_words, self.history_width)[:, -self.order :]
        grams = np.where(grams < 0, self.bos_id, grams)
        return _interpolated(self.uni, self._tables, self.order, grams)

    @property
    def n_parameters(self) -> int:
        """Raw stored-entry count: unigram row plus every kept n-gram
        probability and history weight."""
        return self.n_words + sum(len(grams) + len(hists) for grams, _, hists, _ in self._tables)


def _interpolated(
    uni: np.ndarray, tables: Sequence[tuple[np.ndarray, ...]], k: int, rows: np.ndarray
) -> np.ndarray:
    """p_k(w | h) of each row (h, w) of k word ids: the stored p_k of a
    kept k-gram, else bow(h) * p_{k-1}(w | h') for a seen history h and
    p_{k-1}(w | h') for an unseen one.  ``tables[j-2]`` holds the kept
    grams, their probabilities, the seen histories and their bows of
    order j."""
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
    bos_id: int,
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


def save_backoff(model: BackoffModel, path: str | Path) -> None:
    """Write the model's kept counts as one text file.

    After the version line come ``#order``, ``#discount``, ``#n_words``
    and ``#bos`` (the begin word id), then per order k one
    ``#k-grams<TAB>rows`` section of ``w_1 ... w_k<TAB>count`` lines in
    sorted order, so equal models give equal bytes.
    """
    header = [
        "#clusterlm-backoff v2",
        f"#order\t{model.order}",
        f"#discount\t{model.discount!r}",
        f"#n_words\t{model.n_words}",
        f"#bos\t{model.bos_id}",
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
    r = Reader(path, "#clusterlm-backoff v2", "backoff model")
    order = r.int_line("#order")
    discount = r.float_line("#discount")
    n_words = r.int_line("#n_words")
    bos_id = r.int(r.line("#bos", 1)[0], "begin id")
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

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """Probability of every query row (see the module docstring);
        only the components of nonzero weight are queried."""
        return _mix(self.weights, lambda k: self.components[k].prob(rows), len(rows))


def _mix(weights: np.ndarray, column: Callable[[int], np.ndarray], n: int) -> np.ndarray:
    """``lam * column(k)`` summed over the nonzero weights ``lam`` in
    component order ``k``, for ``n`` events.  ``column`` is called only
    for a nonzero weight.  ``InterpolatedModel.prob`` and the tuning
    report both mix this way, so the two agree to the last bit."""
    total = np.zeros(n, dtype=np.float64)
    for k, lam in enumerate(weights):
        if lam != 0.0:
            total += float(lam) * column(k)
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
    """Read a mixture file written by ``save_interpolated`` and load its components.
    One ``#weights`` line and then ``#component`` lines are required; any other line,
    a cut-off last line, or a component that contains the mixture raises ``ValueError``."""
    return _load_interpolated(path, ())


def _load_interpolated(path: str | Path, opened: tuple[Path, ...]) -> InterpolatedModel:
    """``load_interpolated`` inside the mixture files ``opened``."""
    r = Reader(path, "#clusterlm-interp v1", "mixture")
    text = r.line("#weights", 1)[0]
    names = []
    while r.pos < len(r.data):
        names.append(r.line("#component", 1)[0])
    if "" in names:
        raise r.error("a #component line names no file")
    try:
        weights = [float(x) for x in text.split()]
    except ValueError:
        raise r.error(f"a weight is not a number: {text!r}") from None
    opened += (Path(path).resolve(),)
    if opened[-1] in opened[:-1]:
        raise ValueError(f"mixture file {path} contains itself")
    return InterpolatedModel([_load_model(Path(path).parent / q, opened) for q in names], weights)


def load_model(path: str | Path):
    """Open any saved model, dispatching on its version line."""
    return _load_model(path, ())


def _load_model(path: str | Path, opened: tuple[Path, ...]):
    """``load_model`` inside the mixture files ``opened``."""
    with open(path, "rb") as fh:
        kind = fh.readline().partition(b" ")[0]
    if kind == b"#clusterlm-backoff":
        return load_backoff(path)
    if kind == b"#clusterlm-classlm":
        return load_classlm(path)
    if kind == b"#clusterlm-interp":
        return _load_interpolated(path, opened)
    raise ValueError(f"unrecognized model file: {path}")
