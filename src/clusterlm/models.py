"""Probability models over the vocabulary.

Three model families share one query protocol: ``model.prob(rows)``
returns the probability of every query row.  A row holds the history at
offsets -W..-1, then the predicted word, with -1 at the positions before
the sentence start (the rows ``events.event_rows`` builds with -1 as the
begin token); W must be at least the model's ``history_width``.  Each
model reads its begin word id ``bos_id`` at those positions
(``_query_rows``), derives the conditioning view it needs (mapped
context values or an n-gram history) from those columns and answers by
lookups in its sorted tables.  One word after one history is a one-row query:
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
from typing import Callable, Iterable, Sequence

import numpy as np

from clusterlm._rows import (
    Keys,
    Reader,
    check_range,
    check_strictly_sorted,
    exact_sum,
    find_rows,
    row_starts,
    sum_ids,
    sum_rows,
    write_rows,
)

# load_counts and load_clustering are unused here but stay importable:
# the benchmark tracer patches them in this module's namespace.
from clusterlm.cluster import Clustering, load_clustering  # noqa: F401
from clusterlm.corpus import Vocabulary
from clusterlm.events import (  # noqa: F401
    ContextSpec,
    Slot,
    event_rows,
    load_counts,
    read_slots,
    slot_lines,
)


# ---------------------------------------------------------------------------
# clustered class model
# ---------------------------------------------------------------------------


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

    The model keeps the ``events.ContextSpec`` of the counts it was
    trained on, whose slot mappers give every word's value at every
    slot, and the begin word id ``bos_id``.  The spec checks that its
    mappers map one number of words, the counts' ``n_words``; the
    constructor checks only that the clustering, and so that number,
    has the vocabulary's size.  Beside them it is a handful
    of tables: ``G`` and ``word_counts`` per word, the nonzero joint
    cells ``joint`` = (keys of (s, g), N(s,g)), and per suffix length
    k = 1..depth ``tables[k-1]`` = (keys, states): training contexts and
    their states for k = depth, else distinct length-k suffixes of them,
    each with the state holding most of its events.  A table holds only
    the rows whose state differs from the one their next-shorter suffix
    resolves to (the default state below length 1); the others are
    dropped shortest suffix first, so every context resolves to the
    state the full tables give, and every probability is unchanged
    (lossless backoff pruning).  Each lookup table is kept once, as the
    ``_rows.Keys`` its queries search, its rows strictly sorted, beside
    its value column; ``save_classlm`` unpacks the keys and writes
    exactly these tables, so a saved model loads on its own.  The model
    owns every array it keeps: each is built or copied as it is set up.
    """

    def __init__(self, clustering: Clustering, vocab: Vocabulary, discount: float = 0.5):
        _check_discount(discount)
        table = clustering.table
        if clustering.n_words != len(vocab):
            raise ValueError("clustering and vocabulary differ in size")
        s, g = np.nonzero(clustering.joint)
        self._setup(discount, table.spec, vocab.bos_id, clustering.G, clustering.word_counts,
                    np.column_stack([s, g]), clustering.joint[s, g],
                    clustering.n_categories, clustering.n_states, [])
        # shortest suffix first, each row kept only where its state is not
        # the one its next-shorter suffix resolves to through the rows kept
        depth = table.spec.depth
        for keep in range(1, depth + 1):
            if keep < depth:
                rows, states = _suffix_states(table.contexts, clustering.S, table.ctx_counts, keep)
            else:
                rows, states = table.contexts, clustering.S
            kept = np.flatnonzero(states != self._resolve_states(rows[:, 1:]))
            self.tables.append((Keys(rows.take(kept, axis=0)), states.take(kept)))

    def _setup(
        self,
        discount: float,
        spec: ContextSpec,
        bos_id: int,
        G: np.ndarray,
        word_counts: np.ndarray,
        cells: np.ndarray,
        cell_counts: np.ndarray,
        n_categories: int,
        n_states: int,
        tables: list[tuple[Keys, np.ndarray]],
    ) -> None:
        """Keep copies of ``G``, ``word_counts`` and ``cell_counts``, the
        joint cells' (s, g) rows packed and ``tables``, which each caller
        builds, and derive the marginals."""
        self.discount = float(discount)
        self.spec = spec
        self.depth = spec.depth
        self.bos_id = int(bos_id)
        self.G = np.array(G, dtype=np.int32)
        self.word_counts = np.array(word_counts, dtype=np.int64)
        self.joint = (Keys(cells), np.array(cell_counts, dtype=np.int64))
        self.tables = tables
        self.n_words = len(G)
        self.n_categories = int(n_categories)
        self.n_states = int(n_states)

        s, g, n = cells[:, 0], cells[:, 1], self.joint[1]
        # the per-state sums end at the joint's last state, so that the
        # #n_states header sizes no array of a loaded model
        n_live = int(s.max(initial=0)) + 1
        self.state_totals = sum_ids(s, n, n_live)
        self.cat_totals = sum_ids(g, n, self.n_categories)
        self.total = int(word_counts.sum())
        self._nplus = np.bincount(s, minlength=n_live).astype(np.int64)
        self._default_state = int(np.argmax(self.state_totals))

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return -self.spec.slots[0].offset

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """Probability of every query row (see the module docstring).

        Each row's history maps to context values through the slot
        mappers.  Its state is that of the exact training context, else
        of its longest seen proper suffix, else the default state.  A
        word of an empty category gets 0."""
        rows = _query_rows(rows, self.n_words, self.history_width, self.bos_id)
        words = rows[:, -1]
        s = self._resolve_states(
            np.column_stack([sl.mapper.table[rows[:, sl.offset - 1]] for sl in self.spec.slots])
        )

        out = np.zeros(len(rows), dtype=np.float64)
        g = self.G[words]
        live = np.flatnonzero(self.cat_totals[g] > 0)  # an empty category gives 0.0
        s, g, words = s[live], g[live], words[live]
        cells, cell_counts = self.joint
        at, seen = find_rows(cells, np.column_stack([s, g]))
        joint = np.zeros(len(live), dtype=np.float64)
        joint[seen] = cell_counts[at[seen]]
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
        """State of every row of mapped context values of the last
        ``ctx.shape[1]`` slots: that of its longest suffix found in
        ``tables``, else the default state.  The one walk down the suffix
        tables, for ``prob``'s queries and ``__init__``'s fallbacks."""
        width = ctx.shape[1]
        out = np.full(len(ctx), self._default_state, dtype=np.int64)
        todo = np.arange(len(ctx))
        for keep in range(width, 0, -1):
            rows = ctx.take(todo, axis=0)[:, width - keep :]
            keys, states = self.tables[keep - 1]
            at, found = find_rows(keys, rows)
            out[todo[found]] = states[at[found]]
            todo = todo[~found]
        return out


def _query_rows(rows: np.ndarray, n_words: int, width: int, bos_id: int) -> np.ndarray:
    """The last ``width`` + 1 columns of ``rows``, as int64 query rows of
    a model of ``history_width`` ``width`` and begin word id ``bos_id``:
    checked, the word in ``[0, n_words)`` and each history position a
    word id or, before the sentence start, -1, which becomes ``bos_id``.
    Anything else raises ``ValueError``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] < width + 1:
        raise ValueError(f"query rows need at least {width} history columns and the word")
    check_range(rows[:, -1], 0, n_words, "query word ids")
    hist = rows[:, rows.shape[1] - 1 - width : -1]
    check_range(hist, -1, n_words, "query history ids")
    if ((hist[:, :-1] >= 0) & (hist[:, 1:] < 0)).any():
        raise ValueError("query history holds a word before the sentence start")
    rows = rows[:, rows.shape[1] - 1 - width :]
    return np.where(rows < 0, bos_id, rows)


def _check_discount(discount: float) -> None:
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")


def _suffix_states(
    contexts: np.ndarray, states: np.ndarray, counts: np.ndarray, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """(suffixes, states): every distinct length-``keep`` suffix of the
    context rows, sorted, with the state holding most of its events
    (ties to the lower state id)."""
    suffix = contexts[:, contexts.shape[1] - keep :]
    pairs, weight = sum_rows(np.column_stack([suffix, states]), counts)
    keys, states = Keys(pairs[:, :-1]), pairs[:, -1]
    # heaviest state first within each suffix, the lower id among equals
    order = np.lexsort((states, -weight, *keys.key.T[::-1]))
    pick = order[row_starts(keys.key.take(order, axis=0))]
    return pairs[pick, :-1], states[pick].astype(np.int32)


def save_classlm(model: ClassLM, path: str | Path) -> None:
    """Write the model as one self-contained text file.

    After the version line come ``#discount``, ``#n_words``,
    ``#n_categories``, ``#n_states`` and ``#bos`` (the begin word id).
    Then the sections, each opened by its row count: ``#words`` (category
    and count of each word), the slot block of the counts file the model
    was trained on (``events.slot_lines``), ``#joint`` (``s g<TAB>N(s,g)``
    for every nonzero cell), one ``#suffix<TAB>k`` per proper suffix
    length k (``suffix<TAB>state``) and ``#contexts`` (``context<TAB>state``),
    the last two holding only the rows whose state differs from their
    suffix fallback (see ``ClassLM``); either may be empty.  Rows are
    sorted, so equal models give equal bytes.
    """
    header = [
        "#clusterlm-classlm v3",
        f"#discount\t{model.discount!r}",
        f"#n_words\t{model.n_words}",
        f"#n_categories\t{model.n_categories}",
        f"#n_states\t{model.n_states}",
        f"#bos\t{model.bos_id}",
        f"#words\t{model.n_words}",
    ]
    slots = slot_lines(model.spec)
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n")
        write_rows(fh, model.G[:, None], model.word_counts)
        fh.write("\n".join(slots).encode("utf-8") + b"\n")
        keys = ["#joint", *(f"#suffix\t{keep}" for keep in range(1, model.depth)), "#contexts"]
        for key, (packed, values) in zip(keys, [model.joint, *model.tables]):
            fh.write(f"{key}\t{len(values)}\n".encode("ascii"))
            write_rows(fh, packed.rows(), values)  # one table's rows at a time


def load_classlm(path: str | Path) -> ClassLM:
    """Read a class model file written by ``save_classlm``.

    The file alone defines the model.  Each section is read by
    ``Reader.section``, then checked and packed before the next is read:
    id ranges, sort orders, the joint's column sums (they must equal
    the per-category word counts) and, in each suffix and context
    table, that every state has a joint cell; its slots are read by
    ``events.read_slots`` after the ``#words`` rows, so that no header
    value sizes an array before the rows it counts are found; the
    per-state sums end at the joint's last state, and ``#n_states`` need
    only lie in [1, total word count].  The model owns its arrays, none
    a view of the rows read, and keeps the suffix and context rows as
    read: a file with every row, as models were written before their
    tables were pruned, loads, scores the same as its pruned model and
    saves to the same bytes.  Any inconsistency raises ``ValueError``.
    """
    r = Reader(path, "#clusterlm-classlm v3", "class model")
    discount = r.float_line("#discount")
    if not 0.0 <= discount < 1.0:
        raise r.error("discount must lie in [0, 1)", 0)
    n_words = r.int_line("#n_words")
    n_categories = r.int_line("#n_categories")
    n_states = r.int_line("#n_states")
    bos_id = r.int(r.line("#bos", 1)[0], "begin id")
    if not 0 <= bos_id < n_words:
        raise r.error("begin id outside [0, n_words)", 0)
    if not 1 <= n_categories <= n_words:
        raise r.error("n_categories must lie in [1, n_words]")

    words = r.section("#words", 1, 1, n_words)
    r.check(check_range, words[:, 0], 0, n_categories, "word categories")
    total = exact_sum(words[:, 1])
    if not 0 < total < 2**62:
        raise r.error("word counts must add up to a total in (0, 2**62)")
    if not 1 <= n_states <= total:  # each state held a context, seen at least once
        raise r.error("n_states must lie in [1, total word count]")
    spec = read_slots(r, n_words, "clusterlm cluster run --model-out")

    cells = r.section("#joint", 2, 1)
    r.check(check_range, cells[:, 0], 0, n_states, "joint states")
    r.check(check_range, cells[:, 1], 0, n_categories, "joint categories")
    r.check(check_range, cells[:, 2], 1, 2**62, "joint counts")
    joint_sums = sum_ids(cells[:, 1], cells[:, 2], n_categories)
    if not np.array_equal(joint_sums, sum_ids(words[:, 0], words[:, 1], n_categories)):
        raise r.error("joint column sums differ from the category word counts")
    r.check(check_strictly_sorted, cells[:, :2], "#joint")

    live = np.bincount(cells[:, 0]) > 0  # the states with events, up to the joint's last
    keys = [f"#suffix\t{keep}" for keep in range(1, spec.depth)] + ["#contexts"]
    tables = [_read_table(r, key, spec.slots[spec.depth - keep :], n_states, live)
              for keep, key in enumerate(keys, 1)]
    r.end("#contexts")

    model = ClassLM.__new__(ClassLM)
    model._setup(discount, spec, bos_id, words[:, 0], words[:, 1], cells[:, :2], cells[:, 2],
                 n_categories, n_states, tables)
    return model


def _read_table(
    r: Reader, key: str, slots: Sequence[Slot], n_states: int, live: np.ndarray
) -> tuple[Keys, np.ndarray]:
    """The (keys, states) table of a class model file's section ``key``,
    whose context columns are the values of ``slots``: each column in
    its slot's range, each state in ``[0, n_states)`` and one with
    events (``live``, indexed by state) and the rows strictly sorted,
    packed as they are checked."""
    rows = r.section(key, len(slots), 1)
    what = key.replace("\t", " ")
    for k, sl in enumerate(slots):
        r.check(check_range, rows[:, k], 0, sl.mapper.arity, f"{what} slot {sl.offset} values")
    states = rows[:, -1]
    r.check(check_range, states, 0, n_states, f"{what} states")
    r.check(_check_live, states, live, what)
    keys = Keys(rows[:, :-1])
    r.check(check_strictly_sorted, keys.key, what)
    return keys, states.astype(np.int32)


def _check_live(states: np.ndarray, live: np.ndarray, what: str) -> None:
    if states.size and (int(states.max()) >= len(live) or not live[states].all()):
        raise ValueError(f"{what} maps to a state without events")


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

    The model is defined by its kept counts, given as strictly sorted
    rows of word ids (else ``ValueError``) with their counts, as
    ``train_backoff`` checks and cuts them.  It keeps them once, packed:
    ``grams[k-1]`` is the ``_rows.Keys`` of the kept k-grams and
    ``counts[k-1]`` their counts.  From them it derives ``uni`` and, per
    order k >= 2, the lookup tables of the kept k-grams (the same keys)
    with their full interpolated p_k and of the seen histories, packed
    once, with their bow(h).  ``save_backoff`` unpacks the keys to write
    the kept counts.  The model owns every array it keeps, each built or
    copied here.
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
        self.counts = [np.array(c, dtype=np.int64) for _, c in counts]

        words, uni_counts = counts[0][0][:, 0], self.counts[0]
        total = int(uni_counts.sum())
        if total == 0:
            raise ValueError("no unigrams survive the cutoffs")
        floor = d * len(uni_counts) / self.n_words
        self.uni = np.full(self.n_words, floor / total, dtype=np.float64)
        self.uni[words] = (np.maximum(uni_counts - d, 0.0) + floor) / total

        # each order's k-grams packed once and checked sorted; per order
        # k >= 2 their keys, their p_k, the seen histories and their bows
        self.grams = [Keys(grams) for grams, _ in counts]
        for k, keys in enumerate(self.grams, 1):
            check_strictly_sorted(keys.key, f"order-{k}")
        tables: list[tuple] = []
        for k in range(2, self.order + 1):
            (grams, c), gram_keys = counts[k - 1], self.grams[k - 1]
            hists = Keys(grams[:, :-1])
            starts = np.flatnonzero(row_starts(hists.key))
            hists.key = hists.key[starts]  # the distinct histories span what all of them do
            hist_tot = np.add.reduceat(c, starts)
            nplus = np.diff(starts, append=len(grams))
            bows = d * nplus / hist_tot
            h = np.repeat(np.arange(len(starts)), nplus)
            lower = _interpolated(self.uni, tables, k - 1, grams[:, 1:])
            probs = (c - d) / hist_tot[h] + bows[h] * lower
            tables.append((gram_keys, probs, hists, bows))
        self._tables = tables

    @property
    def history_width(self) -> int:
        """How many preceding words a query reads."""
        return self.order - 1

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """Probability of every query row (see the module docstring)."""
        grams = _query_rows(rows, self.n_words, self.history_width, self.bos_id)
        return _interpolated(self.uni, self._tables, self.order, grams)

    @property
    def n_parameters(self) -> int:
        """Raw stored-entry count: unigram row plus every kept n-gram
        probability and history weight."""
        return self.n_words + sum(len(probs) + len(bows) for _, probs, _, bows in self._tables)


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
    missed = rows.take(np.flatnonzero(~kept), axis=0)
    rest = _interpolated(uni, tables, k - 1, missed[:, 1:])
    at, seen = find_rows(hists, missed[:, :-1])
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
    do; each lower order, the unigrams too, is the ``sum_rows`` suffix
    marginal of the order above.
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
        check_range(c, 1, 2**62, f"order-{k} counts")
        if exact_sum(c) >= 2**62:
            raise ValueError(f"order-{k} counts must add up to less than 2**62")
        keep = c > cutoffs.get(k, 0)
        if not keep.all():  # the model checks, and packs, the rows it keeps
            check_strictly_sorted(grams, f"order-{k}")
            grams, c = grams[keep], c[keep]
        kept.append((grams, c))
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
            fh.write(f"#{k}-grams\t{len(counts)}\n".encode("ascii"))
            write_rows(fh, grams.rows(), counts)


def load_backoff(path: str | Path) -> BackoffModel:
    """Read a backoff model file written by ``save_backoff``.

    The sections are read by ``Reader.section``, then handed to
    ``train_backoff`` without cutoffs, so the loaded model equals the
    saved one bit for bit and owns its arrays.  A damaged file (bad
    header, row count, id, sort order or count, or a cut-off last line)
    raises ``ValueError``.
    """
    r = Reader(path, "#clusterlm-backoff v2", "backoff model")
    order = r.int_line("#order")
    discount = r.float_line("#discount")
    if not 0.0 < discount < 1.0:
        raise r.error("discount must lie in (0, 1)", 0)
    n_words = r.int_line("#n_words")
    bos_id = r.int(r.line("#bos", 1)[0], "begin id")
    if order < 1:
        raise r.error("order must be at least 1")
    if not 0 < n_words < 2**31:
        raise r.error("n_words outside [1, 2**31)")
    sections = [r.section(f"#{k}-grams", k, 1) for k in range(1, order + 1)]
    counts = [(rows[:, :-1], rows[:, -1]) for rows in sections]
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
        mix = np.empty(len(rows), dtype=np.float64)
        return _mix(self.weights, lambda k: self.components[k].prob(rows), mix)


def _mix(
    weights: np.ndarray,
    column: Callable[[int], np.ndarray],
    out: np.ndarray,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``out``, one float64 per event, set to ``lam * column(k)`` summed
    over the nonzero weights ``lam`` in component order ``k``; each
    product goes into ``scratch`` when given.  ``column`` is called only
    for a nonzero weight.  ``InterpolatedModel.prob``, the EM loop and
    the tuning report all mix this way, so they agree to the last bit,
    and no BLAS kernel, which differs from CPU to CPU, takes part."""
    out.fill(0.0)
    for k, lam in enumerate(weights):
        if lam != 0.0:
            out += np.multiply(column(k), float(lam), out=scratch)
    return out


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
    a cut-off last line, a component that cannot be opened or that contains the
    mixture, or weights that do not fit the components raise ``ValueError``, which
    names the mixture file."""
    return _load_interpolated(path, ())


def _load_interpolated(path: str | Path, opened: tuple[Path, ...]) -> InterpolatedModel:
    """``load_interpolated`` inside the mixture files ``opened``.  A component's
    own loader names the component's file in its errors."""
    r = Reader(path, "#clusterlm-interp v1", "mixture")
    weights = [r.float(x, "a weight") for x in r.line("#weights", 1)[0].split(" ")]
    opened += (Path(path).resolve(),)
    if opened[-1] in opened[:-1]:
        raise ValueError(f"mixture file {path} contains itself")
    components = []
    while r.pos < len(r.data):
        name = r.line("#component", 1)[0]
        if not name:
            raise r.error("a #component line names no file", 0)
        try:
            components.append(_load_model(Path(path).parent / name, opened))
        except OSError as exc:
            raise r.error(f"cannot open component {name}: {exc.strerror}", 0) from None
    try:
        return InterpolatedModel(components, weights)
    except ValueError as exc:
        raise r.error(str(exc)) from None


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
