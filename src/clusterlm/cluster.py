"""Greedy exchange clustering of words and contexts.

Words are partitioned into categories and contexts into states so that
the aggregated table N(state, category) scores well under the maximum
likelihood criterion

    F = sum_{s,g} f(N(s,g)) - sum_s f(N(s)) - sum_g f(N(g)),  f(x) = x ln x,

which equals the log-likelihood of the two-step model
p(w | c) = p(G(w) | S(c)) * p(w | G(w)) up to the constant sum_w f(N(w)).
Optimization is hill climbing: elements are visited by decreasing count
and moved to whichever cluster improves F the most, using exact
incremental deltas.  One driver sweeps a schedule of suffix levels:
``run_tree`` coarsens context moves level by level along a suffix-grouping
tree so sparse contexts ride along with their siblings until enough
structure is fixed; ``run_flat`` is the leaf-only schedule, where every
distinct context is its own movable unit.

A word move and a group move are one exchange step on two layouts of
the joint table, so the sweep has one visit body, one kernel dispatch
and one table update for both.  Each level is swept on rows of its own:
one (group, word) row of summed counts per context group, its (word,
group) transpose and one state per group, built once when the level
starts.  Every unit's profile is then a single ``bincount`` over one
contiguous row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from clusterlm import _kernels
from clusterlm._rows import Reader, sum_rows, write_rows
from clusterlm.corpus import Vocabulary
from clusterlm.ctxtree import ContextTree, Level, suffix_level
from clusterlm.events import EventTable


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for the exchange optimization."""

    n_categories: int
    n_states: int
    min_count: int = 6
    max_iterations: int = 20
    convergence: float = 0.01

    def __post_init__(self):
        if self.n_categories < 1:
            raise ValueError("n_categories must be at least 1")
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 <= self.convergence < math.inf:
            raise ValueError("convergence threshold must be a finite non-negative number")


@dataclass(frozen=True)
class MoveDelta:
    """One applied exchange move and its exact criterion improvement."""

    kind: str  # "word" or "group"
    element: object  # word id, or the group's context suffix
    source: int
    target: int
    delta: float


OnMove = Callable[["Clustering", MoveDelta], None]

_FRAGMENTED = "fragmented node: member contexts span multiple states"


class Clustering:
    """Joint assignment of words to categories and contexts to states,
    with the count statistics needed for O(nonzero) move deltas.

    ``S[i]`` is the state of the table's ``contexts[i]`` and ``G[w]`` the
    category of word ``w``.  The counts are one bordered table
    ``joint_b``, (n_states + 1) x (n_categories + 1) float64 of exact
    integers (the table's total must lie below 2**53): the state totals
    are its last column, the category totals its last row, and the
    corner is the grand total.  ``f_joint_b`` holds f(x) = x ln x of
    every entry, so a move delta need not recompute the cells the move
    leaves alone.  ``joint_bt`` and ``f_joint_bt`` are row-major copies
    of their transposes, so that a group move reads the rows of its
    categories as a word move reads the rows of its states (see
    ``_kernels``).  ``joint``, ``state_totals`` and ``cat_totals`` are
    views into ``joint_b``.

    A unit's profile is sparse and bordered (``_sparse``), so a move's
    writes at its ``nz`` update the totals too.  ``_layouts`` names for
    each kind of unit the layout whose columns are its clusters, the
    one whose rows they are, and a view of the kernels' scratch buffer;
    ``_deltas`` and ``_move`` read it.

    The public methods check every id and that a context group shares
    one state, and each computes the profile it needs.  The exchange
    sweep does not go through them: it profiles each unit once from its
    level's rows and hands that profile to the same kernel dispatch and
    table update, ``_deltas`` and ``_move`` (see ``_LevelRows``).
    """

    def __init__(
        self,
        table: EventTable,
        n_categories: int,
        n_states: int,
        G: Sequence[int],
        S: Sequence[int],
    ):
        if table.total >= 2**53:
            raise ValueError(
                "counts must add up to less than 2**53 for clustering (float64 is exact below it)"
            )
        self.table = table
        self.n_categories = int(n_categories)
        self.n_states = int(n_states)
        self.n_words = table.n_words

        G, S = np.asarray(G), np.asarray(S)
        if G.shape != (self.n_words,):
            raise ValueError("category assignment length does not match vocabulary")
        if S.shape != (table.n_contexts,):
            raise ValueError("state assignment length does not match context count")
        if G.size and not (0 <= G.min() and G.max() < self.n_categories):
            raise ValueError("category id out of range")
        if S.size and not (0 <= S.min() and S.max() < self.n_states):
            raise ValueError("state id out of range")
        self.G = G.astype(np.int32)
        self.S = S.astype(np.int32)

        # the table's arrays, shared rather than copied
        self.word_counts = table.word_counts
        self.ctx_counts = table.ctx_counts

        # the context index of each of the table's (context, word) rows
        self.ctx_of = np.repeat(np.arange(table.n_contexts, dtype=np.int32), np.diff(table.ptr))
        self._build_stats()
        self.iterations_per_level: list[int] = []

    @property
    def iterations_run(self) -> int:
        """Exchange passes over all levels."""
        return sum(self.iterations_per_level)

    # -- construction ----------------------------------------------------

    def _build_stats(self) -> None:
        # float64 bincount sums are exact for counts below 2**53, and so
        # are the table sums below, whose partial sums are all integers
        S, C = self.n_states, self.n_categories
        cells = self.S[self.ctx_of].astype(np.int64) * C + self.G[self.table.words]
        joint = np.bincount(cells, weights=self.table.freqs, minlength=S * C).reshape(S, C)
        col, row = joint.sum(axis=1, keepdims=True), joint.sum(axis=0, keepdims=True)
        self.joint_b = b = np.block([[joint, col], [row, row.sum()]])
        # f(x) = x ln x of every entry, for the move deltas; the moves
        # refresh the entries they change
        self.f_joint_b = fb = _kernels.xlogx(b)
        # the group moves' rows: (category, state) tables
        self.joint_bt = bt = np.ascontiguousarray(b.T)
        self.f_joint_bt = fbt = np.ascontiguousarray(fb.T)
        self.joint, self.state_totals, self.cat_totals = b[:S, :C], b[:S, C], b[S, :C]
        # per kind of unit, a word (True) or a group (False): the layout
        # whose columns are its clusters and the layout whose rows they
        # are, each with its f cache, and the kernels' temporaries
        scratch = np.empty(2 * b.size)
        self._layouts = {
            True: (b, fb, bt, fbt, scratch.reshape(2, S + 1, C + 1)),
            False: (bt, fbt, b, fb, scratch.reshape(2, C + 1, S + 1)),
        }

    # -- statistics ------------------------------------------------------

    def criterion(self) -> float:
        """Exact value of F from the current tables (order-independent
        correctly rounded sum)."""
        flat = self.joint.ravel()
        terms = [x * math.log(x) for x in flat[flat > 0].tolist()]
        for margin in (self.state_totals, self.cat_totals):
            terms += [-x * math.log(x) for x in margin[margin > 0].tolist()]
        return math.fsum(terms)

    def word_profile(self, w: int) -> np.ndarray:
        """Event counts of word ``w`` per state, summing to N(w)."""
        self._check_word(w)
        at = self.table.words == w
        if not at.any():  # np.bincount of no values is int64
            return np.zeros(self.n_states)
        return np.bincount(
            self.S[self.ctx_of[at]], weights=self.table.freqs[at], minlength=self.n_states
        )

    def group_profile(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Event counts of a set of contexts per category."""
        idx = self._check_group(leaf_indices)
        table = self.table
        lo = table.ptr[idx]
        n = table.ptr[idx + 1] - lo
        pos = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return np.bincount(
            self.G[table.words[pos]], weights=table.freqs[pos], minlength=self.n_categories
        )

    # -- moves -----------------------------------------------------------

    def word_move_deltas(self, w: int) -> np.ndarray:
        """Criterion change for moving word ``w`` into every category
        (entry for its current category is exactly 0)."""
        profile = np.append(self.word_profile(w), self.word_counts[w])
        return self._deltas(True, int(self.G[w]), *_sparse(profile))

    def group_move_deltas(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Criterion change for moving a coherent context group into
        every state (entry for its current state is exactly 0)."""
        idx, s_cur = self._group_state(leaf_indices)
        profile = np.append(self.group_profile(idx), self.ctx_counts[idx].sum())
        return self._deltas(False, s_cur, *_sparse(profile))

    def _deltas(self, word: bool, source: int, nz: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Criterion change for moving the sparse profile ``nz``, ``p``
        from category (``word``) or state ``source`` into every one."""
        table, f_table, _, _, scratch = self._layouts[word]
        # looked up at each call, so that a patched kernel is the one run
        kernel = _kernels.word_move_deltas if word else _kernels.group_move_deltas
        return kernel(table, f_table, p, nz, source, scratch)

    def _check_word(self, w: int) -> None:
        if not 0 <= w < self.n_words:
            raise ValueError("word id out of range")

    def _check_group(self, leaf_indices: np.ndarray) -> np.ndarray:
        """The group's context indices as one integer array."""
        idx = np.asarray(leaf_indices)
        if idx.size == 0:
            raise ValueError("empty context group")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError("a context group must be a flat list of integer indices")
        if idx.min() < 0 or idx.max() >= self.table.n_contexts:
            raise ValueError("context index out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("context index listed twice in a group")
        return idx

    def _group_state(self, leaf_indices: np.ndarray) -> tuple[np.ndarray, int]:
        """The group's context indices and the one state they share."""
        idx = self._check_group(leaf_indices)
        states = self.S[idx]
        s = int(states[0])
        if (states != s).any():
            raise ValueError(_FRAGMENTED)
        return idx, s

    def apply_word_move(self, w: int, target: int) -> None:
        """Move word ``w`` into category ``target``."""
        self._check_word(w)
        if not 0 <= target < self.n_categories:
            raise ValueError("category id out of range")
        g = int(self.G[w])
        if target == g:
            return
        self._move(True, g, target, *_sparse(np.append(self.word_profile(w), self.word_counts[w])))
        self.G[w] = target

    def apply_group_move(self, leaf_indices: np.ndarray, target: int) -> None:
        """Move a coherent context group into state ``target``."""
        if not 0 <= target < self.n_states:
            raise ValueError("state id out of range")
        idx, s = self._group_state(leaf_indices)
        if target == s:
            return
        profile = np.append(self.group_profile(idx), self.ctx_counts[idx].sum())
        self._move(False, s, target, *_sparse(profile))
        self.S[idx] = target

    def _move(self, word: bool, source: int, target: int, nz: np.ndarray, p: np.ndarray) -> None:
        """Move the sparse profile ``nz``, ``p`` from category (``word``)
        or state ``source`` to ``target``: two rows of the layout whose
        rows are those clusters, the matching columns of the other, and
        their f caches, totals included."""
        cols, f_cols, rows, f_rows, _ = self._layouts[word]
        # a row view indexed by nz costs a third of a two-index gather
        for row, counts in ((source, rows[source][nz] - p), (target, rows[target][nz] + p)):
            rows[row][nz] = cols[:, row][nz] = counts
            f_rows[row][nz] = f_cols[:, row][nz] = _kernels.xlogx(counts)


def _sparse(profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``nz`` and ``p``, the indices and the values of the nonzero
    entries of ``profile``: a unit's counts per cluster of the other
    axis, then, at the border, its own count."""
    nz = profile.nonzero()[0]
    return nz, profile[nz]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def _ranked_init(counts: Sequence[int], n_clusters: int) -> np.ndarray:
    """Most frequent ``n_clusters - 1`` elements get their own cluster,
    everything else shares the last one.  Ties break toward lower id."""
    order = np.argsort(-np.asarray(counts, dtype=np.int64), kind="stable")
    out = np.full(len(order), n_clusters - 1, dtype=np.int32)
    out[order[: n_clusters - 1]] = np.arange(min(n_clusters - 1, len(order)), dtype=np.int32)
    return out


def _start(table: EventTable, params: ClusterParams, level: Level) -> Clustering:
    """Frequency-ranked singletons plus one shared remainder cluster, for
    the words and for the groups of ``level``, whose contexts share a state."""
    if params.n_categories > table.n_words:
        raise ValueError("n_categories exceeds vocabulary size")
    if params.n_states > table.n_contexts:
        raise ValueError("n_states exceeds distinct context count")
    G = _ranked_init(table.word_counts, params.n_categories)
    S = _ranked_init(level.counts, min(params.n_states, len(level)))[level.group_of]
    return Clustering(table, params.n_categories, params.n_states, G, S)


# ---------------------------------------------------------------------------
# optimization sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rows:
    """Compressed rows: row ``k`` holds the ids ``idx[ptr[k]:ptr[k + 1]]``
    with their counts ``freqs`` at the same positions."""

    ptr: np.ndarray
    idx: np.ndarray
    freqs: np.ndarray

    def profile(self, k: int, label: np.ndarray, n_labels: int, n: int) -> tuple:
        """Row ``k``'s counts summed by ``label`` of their ids, as float64,
        then the row's total ``n``, as a sparse profile (``_sparse``)."""
        lo, hi, m = self.ptr[k], self.ptr[k + 1], n_labels + 1
        prof = np.bincount(label[self.idx[lo:hi]], weights=self.freqs[lo:hi], minlength=m)
        prof[n_labels] = n
        return _sparse(prof)


@dataclass(frozen=True)
class _LevelRows:
    """One level's movable units as rows: ``groups`` holds each context
    group's counts per word, ``words`` each word's counts per group, and
    ``state[k]`` is group ``k``'s state."""

    level: Level
    groups: _Rows
    words: _Rows
    state: np.ndarray


def _level_rows(clustering: Clustering, level: Level) -> _LevelRows:
    """The rows of ``level``'s units, after checking that each of its
    groups lies in one state.  The (group, word) rows are the table's
    rows summed by group, except at the leaf level, whose groups are the
    contexts in table order and whose rows are the table's as they
    stand; the (word, group) rows are those sorted by word."""
    table = clustering.table
    state = clustering.S[level.members[level.bounds[:-1]]]
    if (clustering.S != state[level.group_of]).any():
        raise ValueError(_FRAGMENTED)
    if np.array_equal(level.group_of, np.arange(table.n_contexts)):
        group, word, freqs = clustering.ctx_of, table.words, table.freqs
    else:  # int32 pairs halve the stacked and summed rows
        pairs = (level.group_of.astype(np.int32)[clustering.ctx_of], table.words)
        keys, freqs = sum_rows(np.column_stack(pairs), table.freqs)
        group, word = keys.T
    order = np.argsort(word, kind="stable")
    groups = _Rows(_ptr(group, len(level)), word, freqs)
    words = _Rows(_ptr(word, clustering.n_words), group[order], freqs[order])
    return _LevelRows(level, groups, words, state)


def _ptr(ids: np.ndarray, n: int) -> np.ndarray:
    """Pointers of ``n`` compressed rows, row ``k`` as long as the
    count of ``k`` in ``ids``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=ptr[1:])
    return ptr


def _visit_units(clustering: Clustering, rows: _LevelRows, min_count: int) -> list[tuple]:
    """Merged visit order: words and the level's context groups by
    decreasing count, ties preferring words, then lower id.  Units below
    ``min_count`` are left wherever initialization put them.  Each unit
    is (-count, kind order, id, kind), and its kind holds what a visit
    reads: whether it is a word, its rows, its counterpart's labels and
    their number, its own assignment array, and the level."""
    cl, level = clustering, rows.level
    word = (True, rows.words, rows.state, cl.n_states, cl.G, level)
    group = (False, rows.groups, cl.G, cl.n_categories, rows.state, level)
    units = [
        (-int(counts[k]), order, int(k), kind)
        for order, (kind, counts) in enumerate(((word, cl.word_counts), (group, level.counts)))
        for k in np.flatnonzero(counts >= min_count)
    ]
    units.sort(key=lambda u: u[:3])
    return units


def _sweep(
    clustering: Clustering,
    units: list[tuple],
    params: ClusterParams,
    on_move: OnMove | None,
) -> int:
    """Iterate best-improvement exchange passes until the relative gain
    of a full pass drops below the convergence threshold, or a pass
    moves nothing: it leaves the next pass the same tables, so that pass
    could not move anything either.  Each visit profiles its unit from
    one row, calls its kernel once, and moves the unit if the best
    target raises the criterion."""
    cl = clustering
    f_prev = cl.criterion()
    for iterations in range(1, params.max_iterations + 1):
        moved = False
        for neg_n, _, element, (word, rows, labels, n_labels, assign, level) in units:
            nz, p = rows.profile(element, labels, n_labels, -neg_n)
            source = int(assign[element])
            deltas = cl._deltas(word, source, nz, p)
            target = int(deltas.argmax())
            if not deltas[target] > 0.0:
                continue
            cl._move(word, source, target, nz, p)
            assign[element] = target
            moved = True
            if not word:
                cl.S[level.group(element)] = target
            if on_move is not None:
                kind, key = ("word", element) if word else ("group", level.key(element))
                on_move(cl, MoveDelta(kind, key, source, target, float(deltas[target])))
        if not moved:
            break
        f_now = cl.criterion()
        rel = (f_now - f_prev) / abs(f_prev) if f_prev != 0.0 else 0.0
        f_prev = f_now
        if rel < params.convergence:
            break
    return iterations


def _run(
    table: EventTable, levels: Sequence[Level], params: ClusterParams, on_move: OnMove | None
) -> Clustering:
    """Sweep each of ``levels`` in turn, from a start on the first one's groups."""
    clustering = _start(table, params, levels[0])
    for level in levels:
        units = _visit_units(clustering, _level_rows(clustering, level), params.min_count)
        clustering.iterations_per_level.append(_sweep(clustering, units, params, on_move))
    return clustering


def run_flat(
    table: EventTable, params: ClusterParams, on_move: OnMove | None = None
) -> Clustering:
    """Exchange clustering with every distinct context as its own
    movable unit."""
    leaves = suffix_level(table.contexts, table.spec.depth, table.ctx_counts)
    return _run(table, [leaves], params, on_move)


def run_tree(
    table: EventTable,
    tree: ContextTree,
    params: ClusterParams,
    on_move: OnMove | None = None,
) -> Clustering:
    """Exchange clustering with context moves coarsened level by level
    along a suffix-grouping tree.

    At level l the movable context units are the level-l suffix groups,
    so contexts too rare to support their own statistics move together
    with the siblings sharing their length-l suffix.  Each level starts
    from the previous level's assignment, which keeps every unit coherent
    (all member contexts in one state); the final level moves individual
    contexts and a depth-1 tree therefore reduces to the flat run.
    """
    if len(tree.levels) != table.spec.depth + 1:
        raise ValueError("tree depth does not match context spec depth")
    if tree.levels[0].group_of.size != table.n_contexts:
        raise ValueError("tree context count does not match the event table")
    return _run(table, tree.levels[1:], params, on_move)


# ---------------------------------------------------------------------------
# export and persistence
# ---------------------------------------------------------------------------


def export_categories(clustering: Clustering, vocab: Vocabulary) -> dict[int, list[str]]:
    """Category id -> member tokens, most frequent first."""
    by_cat: dict[int, list[int]] = {g: [] for g in range(clustering.n_categories)}
    order = sorted(
        range(clustering.n_words), key=lambda w: (-int(clustering.word_counts[w]), w)
    )
    for w in order:
        by_cat[int(clustering.G[w])].append(w)
    return {g: [vocab.tokens[w] for w in ws] for g, ws in by_cat.items()}


def save_clustering(clustering: Clustering, path: str | Path) -> None:
    """Text dump: header, word-to-category lines, context-to-state lines."""
    header = [
        "#clusterlm-clustering v1",
        f"#n_categories\t{clustering.n_categories}",
        f"#n_states\t{clustering.n_states}",
        f"#n_words\t{clustering.n_words}",
        f"#depth\t{clustering.table.spec.depth}",
        f"#criterion\t{clustering.criterion()!r}",
    ]
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("utf-8") + b"\n#G\n")
        write_rows(fh, np.arange(clustering.n_words)[:, None], clustering.G)
        fh.write(b"#S\n")
        write_rows(fh, clustering.table.contexts, clustering.S)


def load_clustering(path: str | Path, table: EventTable) -> Clustering:
    """Rebuild a Clustering from a saved assignment plus the counts it
    was trained on.  The rows must be those ``save_clustering`` writes:
    words 0 to n-1, then the table's contexts in order; where they do
    not fit ``table``, the error says that the clustering file does not
    match the counts.  A stored criterion is checked against the rebuilt
    tables."""
    r = Reader(path, "#clusterlm-clustering v1", "clustering")
    n_categories = r.int_line("#n_categories")
    n_states = r.int_line("#n_states")
    at = r.pos  # the #n_words line, which counts the #G rows
    n_words = r.int_line("#n_words")
    depth = r.int_line("#depth")
    mismatch = f"clustering file {path} does not match counts:"
    if n_words != table.n_words:
        raise ValueError(f"{mismatch} {n_words} words, the counts {table.n_words}")
    if depth != table.spec.depth:
        raise ValueError(f"{mismatch} context depth {depth}, the counts {table.spec.depth}")
    stored = r.float_line("#criterion") if r.at("#criterion") else None
    r.line("#G", 0)
    words = r.rows("#G", 1, 1)
    if len(words) != n_words:
        raise r.error(f"#n_words declares {n_words} words, {len(words)} #G rows found", 1, at)
    if not np.array_equal(words[:, 0], np.arange(n_words)):
        raise r.error("the #G word ids must run from 0 to n_words - 1 in order")
    r.line("#S", 0)
    contexts = r.rows("#S", depth, 1)
    r.end("the #S rows")
    if len(contexts) != table.n_contexts:
        raise ValueError(f"{mismatch} {len(contexts)} contexts, the counts {table.n_contexts}")
    if not np.array_equal(contexts[:, :-1], table.contexts):
        raise ValueError(f"{mismatch} the #S rows are not its contexts")
    if not (1 <= n_categories <= n_words and 1 <= n_states <= table.n_contexts):
        raise r.error("n_categories must lie in [1, n_words], n_states in [1, n_contexts]")
    try:
        clustering = Clustering(table, n_categories, n_states, words[:, 1], contexts[:, -1])
    except ValueError as exc:
        raise r.error(str(exc)) from None
    if stored is not None:
        got = clustering.criterion()
        if abs(got - stored) > 1e-6 * max(1.0, abs(stored)):
            raise r.error("criterion mismatch")
    return clustering
