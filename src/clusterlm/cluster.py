"""Greedy exchange clustering of words and contexts.

Words are partitioned into categories and contexts into states so that
the aggregated table N(state, category) scores well under the maximum
likelihood criterion

    F = sum_{s,g} f(N(s,g)) - sum_s f(N(s)) - sum_g f(N(g)),  f(x) = x ln x,

which equals the log-likelihood of the two-step model
p(w | c) = p(G(w) | S(c)) * p(w | G(w)) up to the constant sum_w f(N(w)).
Optimization is hill climbing: elements are visited by decreasing count
and moved to whichever cluster improves F the most, using exact
incremental deltas.  ``run_flat`` treats every distinct context as its
own movable unit; ``run_tree`` coarsens context moves level by level
along a suffix-grouping tree so sparse contexts ride along with their
siblings until enough structure is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from clusterlm import _kernels
from clusterlm.corpus import Vocabulary
from clusterlm.ctxtree import ContextTree, Level, suffix_level
from clusterlm.events import ContextTuple, EventTable


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
        if self.convergence < 0:
            raise ValueError("convergence threshold must be non-negative")


@dataclass(frozen=True)
class MoveDelta:
    """One applied exchange move and its exact criterion improvement."""

    kind: str  # "word" or "group"
    element: object  # word id, or the group's context suffix
    source: int
    target: int
    delta: float


OnMove = Callable[["Clustering", MoveDelta], None]


class Clustering:
    """Joint assignment of words to categories and contexts to states,
    with the count statistics needed for O(nonzero) move deltas.

    Contexts are indexed by their sorted order; ``S[i]`` is the state of
    ``contexts[i]`` and ``G[w]`` the category of word ``w``.
    """

    def __init__(
        self,
        table: EventTable,
        n_categories: int,
        n_states: int,
        G: Sequence[int],
        S: Sequence[int],
    ):
        self.table = table
        self.n_categories = int(n_categories)
        self.n_states = int(n_states)
        self.n_words = table.n_words
        self.contexts: list[ContextTuple] = sorted(table.counts)
        self.ctx_index = {c: i for i, c in enumerate(self.contexts)}

        self.G = np.asarray(G, dtype=np.int32).copy()
        self.S = np.asarray(S, dtype=np.int32).copy()
        if self.G.shape != (self.n_words,):
            raise ValueError("category assignment length does not match vocabulary")
        if self.S.shape != (len(self.contexts),):
            raise ValueError("state assignment length does not match context count")
        if self.G.size and not (0 <= self.G.min() and self.G.max() < self.n_categories):
            raise ValueError("category id out of range")
        if self.S.size and not (0 <= self.S.min() and self.S.max() < self.n_states):
            raise ValueError("state id out of range")

        self.word_counts = np.zeros(self.n_words, dtype=np.int64)
        for w, n in table.word_marginals.items():
            self.word_counts[w] = n
        self.ctx_counts = np.fromiter(
            (table.context_marginals[c] for c in self.contexts),
            dtype=np.int64,
            count=len(self.contexts),
        )

        self._build_csr()
        self._build_stats()
        self.iterations_run = 0
        self.iterations_per_level: list[int] = []

    # -- construction ----------------------------------------------------

    def _build_csr(self) -> None:
        counts = self.table.counts
        nnz = sum(len(counts[c]) for c in self.contexts)
        self.ctx_ptr = np.zeros(len(self.contexts) + 1, dtype=np.int64)
        self.ctx_words = np.zeros(nnz, dtype=np.int32)
        self.ctx_wcounts = np.zeros(nnz, dtype=np.int64)
        pos = 0
        for i, c in enumerate(self.contexts):
            row = counts[c]
            for w in sorted(row):
                self.ctx_words[pos] = w
                self.ctx_wcounts[pos] = row[w]
                pos += 1
            self.ctx_ptr[i + 1] = pos

        # transpose: per-word lists of (context index, count)
        order = np.argsort(self.ctx_words, kind="stable")
        self.ctx_of = np.repeat(
            np.arange(len(self.contexts), dtype=np.int32), np.diff(self.ctx_ptr)
        )
        self.w_ctxs = self.ctx_of[order]
        self.w_ccounts = self.ctx_wcounts[order]
        self.w_ptr = np.zeros(self.n_words + 1, dtype=np.int64)
        np.add.at(self.w_ptr[1:], self.ctx_words, 1)
        np.cumsum(self.w_ptr, out=self.w_ptr)

    def _build_stats(self) -> None:
        self.joint = np.zeros((self.n_states, self.n_categories), dtype=np.int64)
        np.add.at(self.joint, (self.S[self.ctx_of], self.G[self.ctx_words]), self.ctx_wcounts)
        self.state_totals = self.joint.sum(axis=1)
        self.cat_totals = self.joint.sum(axis=0)

    # -- statistics ------------------------------------------------------

    def criterion(self) -> float:
        """Exact value of F from the current tables (order-independent
        correctly rounded sum)."""
        terms = []
        flat = self.joint.ravel()
        for v in flat[flat > 0]:
            x = float(v)
            terms.append(x * math.log(x))
        for v in self.state_totals[self.state_totals > 0]:
            x = float(v)
            terms.append(-x * math.log(x))
        for v in self.cat_totals[self.cat_totals > 0]:
            x = float(v)
            terms.append(-x * math.log(x))
        return math.fsum(terms)

    def word_profile(self, w: int) -> np.ndarray:
        """Event counts of word ``w`` per state, summing to N(w)."""
        lo, hi = self.w_ptr[w], self.w_ptr[w + 1]
        prof = np.zeros(self.n_states, dtype=np.int64)
        np.add.at(prof, self.S[self.w_ctxs[lo:hi]], self.w_ccounts[lo:hi])
        return prof

    def group_profile(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Event counts of a set of contexts per category."""
        lo = self.ctx_ptr[leaf_indices]
        n = self.ctx_ptr[leaf_indices + 1] - lo
        pos = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        prof = np.zeros(self.n_categories, dtype=np.int64)
        np.add.at(prof, self.G[self.ctx_words[pos]], self.ctx_wcounts[pos])
        return prof

    # -- moves -----------------------------------------------------------

    def word_move_deltas(self, w: int) -> np.ndarray:
        """Criterion change for moving word ``w`` into every category
        (entry for its current category is exactly 0)."""
        if not 0 <= w < self.n_words:
            raise ValueError("word id out of range")
        prof = self.word_profile(w)
        return _kernels.word_move_deltas(
            self.joint, self.cat_totals, prof, int(self.G[w]), int(self.word_counts[w])
        )

    def group_move_deltas(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Criterion change for moving a coherent context group into
        every state (entry for its current state is exactly 0)."""
        s_cur = self._group_state(leaf_indices)
        prof = self.group_profile(leaf_indices)
        n = int(self.ctx_counts[leaf_indices].sum())
        return _kernels.group_move_deltas(self.joint, self.state_totals, prof, s_cur, n)

    def _group_state(self, leaf_indices: np.ndarray) -> int:
        states = self.S[leaf_indices]
        if states.size == 0:
            raise ValueError("empty context group")
        s = int(states[0])
        if (states != s).any():
            raise ValueError("fragmented node: member contexts span multiple states")
        return s

    def apply_word_move(self, w: int, target: int) -> None:
        if not 0 <= target < self.n_categories:
            raise ValueError("category id out of range")
        g = int(self.G[w])
        if target == g:
            return
        prof = self.word_profile(w)
        self.joint[:, g] -= prof
        self.joint[:, target] += prof
        n = self.word_counts[w]
        self.cat_totals[g] -= n
        self.cat_totals[target] += n
        self.G[w] = target

    def apply_group_move(self, leaf_indices: np.ndarray, target: int) -> None:
        if not 0 <= target < self.n_states:
            raise ValueError("state id out of range")
        s = self._group_state(leaf_indices)
        if target == s:
            return
        prof = self.group_profile(leaf_indices)
        self.joint[s, :] -= prof
        self.joint[target, :] += prof
        n = self.ctx_counts[leaf_indices].sum()
        self.state_totals[s] -= n
        self.state_totals[target] += n
        self.S[leaf_indices] = target


def criterion(clustering: Clustering) -> float:
    """Maximum likelihood clustering criterion F of the current tables."""
    return clustering.criterion()


def delta_move_word(clustering: Clustering, w: int, target: int) -> float:
    """Exact change of F if word ``w`` moved to category ``target``."""
    if not 0 <= target < clustering.n_categories:
        raise ValueError("category id out of range")
    return float(clustering.word_move_deltas(w)[target])


def delta_move_context_group(
    clustering: Clustering, group: Iterable[ContextTuple], target: int
) -> float:
    """Exact change of F if a coherent group of contexts moved to state
    ``target``.  All context tuples in ``group`` must currently share
    one state."""
    if not 0 <= target < clustering.n_states:
        raise ValueError("state id out of range")
    try:
        idx = [clustering.ctx_index[c] for c in group]
    except KeyError as exc:
        raise ValueError(f"unknown context {exc.args[0]!r}") from None
    return float(clustering.group_move_deltas(np.asarray(idx, dtype=np.int64))[target])


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


def init_clustering(table: EventTable, params: ClusterParams) -> Clustering:
    """Starting point for the flat optimization: frequency-ranked
    singleton clusters plus one shared remainder cluster, on both axes."""
    if params.n_categories > table.n_words:
        raise ValueError("n_categories exceeds vocabulary size")
    if params.n_states > table.n_contexts:
        raise ValueError("n_states exceeds distinct context count")
    contexts = sorted(table.counts)
    word_counts = [table.word_marginals.get(w, 0) for w in range(table.n_words)]
    ctx_counts = [table.context_marginals[c] for c in contexts]
    G = _ranked_init(word_counts, params.n_categories)
    S = _ranked_init(ctx_counts, params.n_states)
    return Clustering(table, params.n_categories, params.n_states, G, S)


def _grouped_init(table: EventTable, tree: ContextTree, params: ClusterParams) -> Clustering:
    """Starting point for the tree optimization: states are assigned to
    whole level-1 groups so every group is coherent from the start."""
    if params.n_categories > table.n_words:
        raise ValueError("n_categories exceeds vocabulary size")
    if params.n_states > table.n_contexts:
        raise ValueError("n_states exceeds distinct context count")
    level1 = tree.levels[1]
    S = _ranked_init(level1.counts, min(params.n_states, len(level1)))[level1.group_of]
    word_counts = [table.word_marginals.get(w, 0) for w in range(table.n_words)]
    G = _ranked_init(word_counts, params.n_categories)
    return Clustering(table, params.n_categories, params.n_states, G, S)


# ---------------------------------------------------------------------------
# optimization sweeps
# ---------------------------------------------------------------------------


def _visit_units(clustering: Clustering, level: Level, min_count: int) -> list[tuple]:
    """Merged visit order: words and the level's context groups by
    decreasing count, ties preferring words, then lower id.  Units below
    ``min_count`` are left wherever initialization put them."""
    words = np.flatnonzero(clustering.word_counts >= min_count)
    groups = np.flatnonzero(level.counts >= min_count)
    units = [(-int(clustering.word_counts[w]), 0, int(w), "word", None) for w in words]
    units += [(-int(level.counts[k]), 1, int(k), "group", level) for k in groups]
    units.sort(key=lambda u: u[:3])
    return units


def _sweep(
    clustering: Clustering,
    units: list[tuple],
    params: ClusterParams,
    on_move: OnMove | None,
) -> int:
    """Iterate best-improvement exchange passes until the relative gain
    of a full pass drops below the convergence threshold."""
    f_prev = clustering.criterion()
    iterations = 0
    for _ in range(params.max_iterations):
        iterations += 1
        for _, _, element, kind, level in units:
            if kind == "word":
                deltas = clustering.word_move_deltas(element)
                target = int(np.argmax(deltas))
                if deltas[target] > 0.0:
                    source = int(clustering.G[element])
                    clustering.apply_word_move(element, target)
                    if on_move is not None:
                        on_move(
                            clustering,
                            MoveDelta("word", element, source, target, float(deltas[target])),
                        )
            else:
                idx = level.group(element)
                deltas = clustering.group_move_deltas(idx)
                target = int(np.argmax(deltas))
                if deltas[target] > 0.0:
                    source = int(clustering.S[idx[0]])
                    clustering.apply_group_move(idx, target)
                    if on_move is not None:
                        key = level.key(element)
                        on_move(
                            clustering,
                            MoveDelta("group", key, source, target, float(deltas[target])),
                        )
        f_now = clustering.criterion()
        gain = f_now - f_prev
        rel = gain / abs(f_prev) if f_prev != 0.0 else 0.0
        f_prev = f_now
        if rel < params.convergence:
            break
    return iterations


def run_flat(
    table: EventTable, params: ClusterParams, on_move: OnMove | None = None
) -> Clustering:
    """Exchange clustering with every distinct context as its own
    movable unit."""
    clustering = init_clustering(table, params)
    mat = np.array(clustering.contexts, dtype=np.int64)
    leaves = suffix_level(mat, table.spec.depth, clustering.ctx_counts)
    units = _visit_units(clustering, leaves, params.min_count)
    n_iter = _sweep(clustering, units, params, on_move)
    clustering.iterations_run = n_iter
    clustering.iterations_per_level = [n_iter]
    return clustering


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
    if tree.depth != table.spec.depth:
        raise ValueError("tree depth does not match context spec depth")
    if tree.levels[0].group_of.size != table.n_contexts:
        raise ValueError("tree context count does not match the event table")
    clustering = _grouped_init(table, tree, params)
    clustering.iterations_per_level = []
    for level in tree.levels[1:]:
        units = _visit_units(clustering, level, params.min_count)
        clustering.iterations_per_level.append(_sweep(clustering, units, params, on_move))
    clustering.iterations_run = sum(clustering.iterations_per_level)
    return clustering


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
    lines = [
        "#clusterlm-clustering v1",
        f"#n_categories\t{clustering.n_categories}",
        f"#n_states\t{clustering.n_states}",
        f"#n_words\t{clustering.n_words}",
        f"#depth\t{clustering.table.spec.depth}",
        f"#criterion\t{clustering.criterion()!r}",
        "#G",
    ]
    for w in range(clustering.n_words):
        lines.append(f"{w}\t{int(clustering.G[w])}")
    lines.append("#S")
    for i, c in enumerate(clustering.contexts):
        lines.append(f"{' '.join(str(v) for v in c)}\t{int(clustering.S[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_clustering(path: str | Path, table: EventTable) -> Clustering:
    """Rebuild a Clustering from a saved assignment plus the counts it
    was trained on.  The stored criterion is checked against the rebuilt
    tables."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "#clusterlm-clustering v1":
        raise ValueError("not a clustering file")
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#") and lines[i] != "#G":
        key, _, value = lines[i][1:].partition("\t")
        meta[key] = value
        i += 1
    if i >= len(lines) or lines[i] != "#G":
        raise ValueError("corrupt clustering file: missing assignment sections")
    n_categories = int(meta["n_categories"])
    n_states = int(meta["n_states"])
    n_words = int(meta["n_words"])
    depth = int(meta["depth"])
    if n_words != table.n_words:
        raise ValueError("clustering does not match counts: vocabulary size differs")
    if depth != table.spec.depth:
        raise ValueError("clustering does not match counts: context depth differs")

    G = np.zeros(n_words, dtype=np.int32)
    i += 1
    seen_words = 0
    while i < len(lines) and lines[i] != "#S":
        wid_s, _, cat_s = lines[i].partition("\t")
        wid = int(wid_s)
        if not 0 <= wid < n_words:
            raise ValueError(f"corrupt clustering file: word id {wid} outside the vocabulary")
        G[wid] = int(cat_s)
        seen_words += 1
        i += 1
    if seen_words != n_words:
        raise ValueError("corrupt clustering file: word section incomplete")
    if i >= len(lines):
        raise ValueError("corrupt clustering file: missing state section")

    S_map: dict[ContextTuple, int] = {}
    for line in lines[i + 1 :]:
        if not line.strip():
            continue
        ctx_s, _, st_s = line.partition("\t")
        S_map[tuple(int(v) for v in ctx_s.split())] = int(st_s)
    contexts = sorted(table.counts)
    if set(S_map) != set(contexts):
        raise ValueError("clustering does not match counts: context sets differ")
    S = np.fromiter((S_map[c] for c in contexts), dtype=np.int32, count=len(contexts))
    clustering = Clustering(table, n_categories, n_states, G, S)
    stored = float(meta.get("criterion", "nan"))
    if math.isfinite(stored):
        got = clustering.criterion()
        if abs(got - stored) > 1e-6 * max(1.0, abs(stored)):
            raise ValueError("corrupt clustering file: criterion mismatch")
    return clustering
