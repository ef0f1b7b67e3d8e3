"""Exchange clustering: criterion, move deltas, greedy sweeps, persistence.

The oracle here is a deliberately naive reimplementation on plain dicts
and lists: the criterion is recomputed from scratch with math.fsum, and
the greedy driver is mirrored step by step so visit order, tie breaking
and stopping can be compared against the optimized implementation.
"""

import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm import _kernels as K
from clusterlm import cluster
from clusterlm.cluster import (
    Clustering,
    ClusterParams,
    _ranked_init,
    _sweep,
    delta_move_context_group,
    delta_move_word,
    export_categories,
    init_clustering,
    load_clustering,
    run_flat,
    run_tree,
    save_clustering,
)
from clusterlm.ctxtree import build_suffix_tree, suffix_level
from clusterlm.events import EventTable

from conftest import (
    _placeholder_spec,
    build_table,
    grouped_states,
    make_random_corpus,
    marginals,
    oracle_run,
    random_event_table,
    suffix_groups,
)


def f(x):
    return x * math.log(x) if x > 0 else 0.0


class Shadow:
    """Dict-based mirror of the clustering statistics."""

    def __init__(self, table, n_categories, n_states, G, S):
        self.table = table
        self.n_categories = n_categories
        self.n_states = n_states
        self.counts = table.counts
        self.contexts = sorted(self.counts)
        self.ctx_index = {c: i for i, c in enumerate(self.contexts)}
        self.G = [int(g) for g in G]
        self.S = [int(s) for s in S]
        ctx_marg, word_marg = marginals(table)
        self.word_counts = [word_marg.get(w, 0) for w in range(table.n_words)]
        self.ctx_counts = [ctx_marg[c] for c in self.contexts]
        self.joint = [[0] * n_categories for _ in range(n_states)]
        for i, c in enumerate(self.contexts):
            for w, n in self.counts[c].items():
                self.joint[self.S[i]][self.G[w]] += n
        self.state_tot = [sum(row) for row in self.joint]
        self.cat_tot = [sum(self.joint[s][g] for s in range(n_states)) for g in range(n_categories)]

    def criterion(self):
        terms = [f(v) for row in self.joint for v in row]
        terms += [-f(v) for v in self.state_tot]
        terms += [-f(v) for v in self.cat_tot]
        return math.fsum(terms)

    def word_profile(self, w):
        prof = [0] * self.n_states
        for i, c in enumerate(self.contexts):
            n = self.counts[c].get(w, 0)
            if n:
                prof[self.S[i]] += n
        return prof

    def group_profile(self, idx):
        prof = [0] * self.n_categories
        for i in idx:
            for w, n in self.counts[self.contexts[i]].items():
                prof[self.G[w]] += n
        return prof

    def word_deltas(self, w):
        prof = self.word_profile(w)
        g_cur = self.G[w]
        n = self.word_counts[w]
        out = []
        for t in range(self.n_categories):
            if t == g_cur:
                out.append(0.0)
                continue
            d = 0.0
            for s in range(self.n_states):
                p = prof[s]
                if p:
                    d += f(self.joint[s][t] + p) - f(self.joint[s][t])
                    d += f(self.joint[s][g_cur] - p) - f(self.joint[s][g_cur])
            d -= f(self.cat_tot[t] + n) - f(self.cat_tot[t])
            d -= f(self.cat_tot[g_cur] - n) - f(self.cat_tot[g_cur])
            out.append(d)
        return out

    def group_deltas(self, idx):
        prof = self.group_profile(idx)
        s_cur = self.S[idx[0]]
        n = sum(self.ctx_counts[i] for i in idx)
        out = []
        for t in range(self.n_states):
            if t == s_cur:
                out.append(0.0)
                continue
            d = 0.0
            for g in range(self.n_categories):
                p = prof[g]
                if p:
                    d += f(self.joint[t][g] + p) - f(self.joint[t][g])
                    d += f(self.joint[s_cur][g] - p) - f(self.joint[s_cur][g])
            d -= f(self.state_tot[t] + n) - f(self.state_tot[t])
            d -= f(self.state_tot[s_cur] - n) - f(self.state_tot[s_cur])
            out.append(d)
        return out

    def apply_word(self, w, target):
        prof = self.word_profile(w)
        g = self.G[w]
        for s in range(self.n_states):
            self.joint[s][g] -= prof[s]
            self.joint[s][target] += prof[s]
        n = self.word_counts[w]
        self.cat_tot[g] -= n
        self.cat_tot[target] += n
        self.G[w] = target

    def apply_group(self, idx, target):
        prof = self.group_profile(idx)
        s = self.S[idx[0]]
        for g in range(self.n_categories):
            self.joint[s][g] -= prof[g]
            self.joint[target][g] += prof[g]
        n = sum(self.ctx_counts[i] for i in idx)
        self.state_tot[s] -= n
        self.state_tot[target] += n
        for i in idx:
            self.S[i] = target


def shadow_greedy(table, params, tree=False):
    """Mirror of run_flat (or run_tree, with ``tree``) returning (trace,
    shadow).  Suffix groups come from ``suffix_groups``, not the tree."""
    ctx_marg, word_marg = marginals(table)
    word_counts = [word_marg.get(w, 0) for w in range(table.n_words)]
    ctx_counts = [ctx_marg[c] for c in sorted(ctx_marg)]
    G = list(_ranked_init(word_counts, params.n_categories))

    depth = table.spec.depth
    if tree:
        S = grouped_states(table, params.n_states)
        level_groups = [suffix_groups(table, level) for level in range(1, depth + 1)]
    else:
        S = list(_ranked_init(ctx_counts, params.n_states))
        level_groups = [suffix_groups(table, depth)]

    sh = Shadow(table, params.n_categories, params.n_states, G, S)
    trace = []
    for groups in level_groups:
        units = []
        for w in range(table.n_words):
            if word_counts[w] >= params.min_count:
                units.append((-word_counts[w], 0, w, "word", w, None))
        for ordinal, (key, idx, n) in enumerate(groups):
            if n >= params.min_count:
                units.append((-n, 1, ordinal, "group", key, idx))
        units.sort(key=lambda u: u[:3])

        f_prev = sh.criterion()
        for _ in range(params.max_iterations):
            for unit in units:
                kind, element, idx = unit[3], unit[4], unit[5]
                if kind == "word":
                    deltas = sh.word_deltas(element)
                    target = deltas.index(max(deltas))
                    if deltas[target] > 0.0:
                        trace.append(("word", element, sh.G[element], target))
                        sh.apply_word(element, target)
                else:
                    deltas = sh.group_deltas(idx)
                    target = deltas.index(max(deltas))
                    if deltas[target] > 0.0:
                        trace.append(("group", element, sh.S[idx[0]], target))
                        sh.apply_group(idx, target)
            f_now = sh.criterion()
            gain = f_now - f_prev
            rel = gain / abs(f_prev) if f_prev != 0.0 else 0.0
            f_prev = f_now
            if rel < params.convergence:
                break
    return trace, sh


def random_clustering(rng, depth=2, n_words=10, n_contexts=12):
    table = random_event_table(rng, n_words=n_words, n_contexts=n_contexts, depth=depth)
    n_cats = rng.randint(2, max(2, n_words - 1))
    n_states = rng.randint(2, max(2, table.n_contexts - 1))
    n_states = min(n_states, table.n_contexts)
    G = np.asarray([rng.randrange(n_cats) for _ in range(n_words)], dtype=np.int32)
    S = np.asarray([rng.randrange(n_states) for _ in range(table.n_contexts)], dtype=np.int32)
    return table, Clustering(table, n_cats, n_states, G, S)


class TestCriterion:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scratch_recomputation(self, seed):
        rng = random.Random(seed)
        table, cl = random_clustering(rng)
        sh = Shadow(table, cl.n_categories, cl.n_states, cl.G, cl.S)
        assert cl.criterion() == pytest.approx(sh.criterion(), abs=1e-9)

    def test_single_cluster_criterion_is_minus_total_entropy_term(self):
        vocab, enc, table = build_table(["a b a", "b b"], offsets=(-1,))
        n = table.n_contexts
        cl = Clustering(
            table, 1, 1, np.zeros(table.n_words, dtype=np.int32), np.zeros(n, dtype=np.int32)
        )
        # one cell: F = f(N) - f(N) - f(N) = -f(N)
        assert cl.criterion() == pytest.approx(-f(table.total), abs=1e-12)


class TestMoveDeltas:
    @pytest.mark.parametrize("seed", range(10))
    def test_word_delta_equals_scratch_difference(self, seed):
        rng = random.Random(50 + seed)
        table, cl = random_clustering(rng)
        for _ in range(10):
            w = rng.randrange(table.n_words)
            t = rng.randrange(cl.n_categories)
            d = delta_move_word(cl, w, t)
            sh = Shadow(table, cl.n_categories, cl.n_states, cl.G, cl.S)
            before = sh.criterion()
            sh.apply_word(w, t)
            assert d == pytest.approx(sh.criterion() - before, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_group_delta_equals_scratch_difference(self, seed):
        rng = random.Random(80 + seed)
        table, cl = random_clustering(rng)
        sh = Shadow(table, cl.n_categories, cl.n_states, cl.G, cl.S)
        for ctx in sh.contexts:
            # single contexts are always coherent
            t = rng.randrange(cl.n_states)
            d = delta_move_context_group(cl, [ctx], t)
            idx = [sh.ctx_index[ctx]]
            before = sh.criterion()
            sh.apply_group(idx, t)
            assert d == pytest.approx(sh.criterion() - before, abs=1e-9)
            sh.apply_group(idx, cl.S[idx[0]])  # revert

    def test_delta_to_current_cluster_is_exact_zero(self):
        rng = random.Random(7)
        table, cl = random_clustering(rng)
        for w in range(table.n_words):
            assert delta_move_word(cl, w, int(cl.G[w])) == 0.0

    def test_apply_then_delta_back_negates(self):
        rng = random.Random(9)
        table, cl = random_clustering(rng)
        w = 0
        src = int(cl.G[w])
        tgt = (src + 1) % cl.n_categories
        d_fwd = delta_move_word(cl, w, tgt)
        cl.apply_word_move(w, tgt)
        d_back = delta_move_word(cl, w, src)
        assert d_fwd == pytest.approx(-d_back, abs=1e-9)

    def test_fragmented_group_rejected(self):
        vocab, enc, table = build_table(["a b c a b c", "b c a"], offsets=(-1,))
        n = table.n_contexts
        assert n >= 3
        S = np.arange(n, dtype=np.int32) % 2
        cl = Clustering(table, 2, 2, np.zeros(table.n_words, dtype=np.int32), S)
        both = sorted(table.counts)[:2]
        with pytest.raises(ValueError, match="fragmented"):
            delta_move_context_group(cl, both, 0)

    def test_range_and_membership_errors(self):
        rng = random.Random(11)
        table, cl = random_clustering(rng)
        with pytest.raises(ValueError, match="word id"):
            cl.word_move_deltas(table.n_words)
        with pytest.raises(ValueError, match="category id"):
            delta_move_word(cl, 0, cl.n_categories)
        with pytest.raises(ValueError, match="state id"):
            delta_move_context_group(cl, [min(table.counts)], cl.n_states)
        with pytest.raises(ValueError, match="unknown context"):
            delta_move_context_group(cl, [(99, 99)], 0)
        with pytest.raises(ValueError, match="empty context group"):
            delta_move_context_group(cl, [], 0)

    def test_repeated_context_is_rejected(self):
        rng = random.Random(12)
        table, cl = random_clustering(rng)
        ctx = min(table.counts)
        t = (int(cl.S[table.index_of(ctx)]) + 1) % cl.n_states
        delta_move_context_group(cl, [ctx], t)
        with pytest.raises(ValueError, match="more than once"):
            delta_move_context_group(cl, [ctx, ctx], t)


class TestCachedF:
    """The f = x ln x tables a Clustering keeps across moves cannot drift
    from the tables they cache."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_moves_leave_caches_and_deltas_as_a_fresh_build(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table seed"))
        table, cl = random_clustering(rng)
        for _ in range(data.draw(st.integers(0, 25), label="moves")):
            if data.draw(st.booleans(), label="word move"):
                w = data.draw(st.integers(0, cl.n_words - 1))
                cl.apply_word_move(w, data.draw(st.integers(0, cl.n_categories - 1)))
            else:
                i = data.draw(st.integers(0, table.n_contexts - 1))
                mates = np.flatnonzero(cl.S == cl.S[i])
                mates = data.draw(st.lists(st.sampled_from(mates.tolist())))
                group = np.union1d([i], np.asarray(mates, dtype=np.int64))
                cl.apply_group_move(group, data.draw(st.integers(0, cl.n_states - 1)))
        fresh = Clustering(table, cl.n_categories, cl.n_states, cl.G, cl.S)
        np.testing.assert_array_equal(cl.joint, fresh.joint)
        for cached, table_ in (
            (cl.f_joint, cl.joint), (cl.f_state, cl.state_totals), (cl.f_cat, cl.cat_totals)
        ):
            assert cached.tobytes() == K.xlogx(table_).tobytes()
        for w in range(cl.n_words):
            assert cl.word_move_deltas(w).tobytes() == fresh.word_move_deltas(w).tobytes()
        for i in range(table.n_contexts):
            one = np.array([i])
            assert cl.group_move_deltas(one).tobytes() == fresh.group_move_deltas(one).tobytes()


class TestMoveIdValidation:
    """The moves and profiles check their ids as the deltas do, and a
    rejected call leaves the state as it was."""

    def test_out_of_range_ids_are_rejected_without_a_change(self):
        rng = random.Random(14)
        table, cl = random_clustering(rng)
        before = [a.copy() for a in (cl.joint, cl.state_totals, cl.cat_totals, cl.G, cl.S)]
        for w in (-2, -1, cl.n_words, cl.n_words + 3):
            for call in (
                lambda: cl.apply_word_move(w, 0),
                lambda: cl.word_move_deltas(w),
                lambda: cl.word_profile(w),
            ):
                with pytest.raises(ValueError, match="word id out of range"):
                    call()
        n = table.n_contexts
        for idx in ([-1], [n], [0, -1], [0, n], [n + 5, 1]):
            for call in (
                lambda: cl.apply_group_move(np.asarray(idx), 0),
                lambda: cl.group_move_deltas(np.asarray(idx)),
                lambda: cl.group_profile(np.asarray(idx)),
            ):
                with pytest.raises(ValueError, match="context index out of range"):
                    call()
        none = np.array([], dtype=np.int64)
        for call in (
            lambda: cl.apply_group_move(none, 0),
            lambda: cl.group_move_deltas(none),
            lambda: cl.group_profile(none),
        ):
            with pytest.raises(ValueError, match="empty context group"):
                call()
        with pytest.raises(ValueError, match="context index out of range"):
            cl.apply_group_move([-1], 0)
        after = (cl.joint, cl.state_totals, cl.cat_totals, cl.G, cl.S)
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()

    def test_profiles_are_float64_also_for_a_word_without_events(self):
        table, cl = random_clustering(random.Random(2), n_words=6, n_contexts=3)
        assert cl.word_counts[0] == 0
        for w in range(cl.n_words):
            assert cl.word_profile(w).dtype == np.float64
        for i in range(table.n_contexts):
            assert cl.group_profile(np.array([i])).dtype == np.float64


class TestSweepPath:
    """The sweep hands each unit's profile from its delta to its move and
    refreshes the f caches at the touched cells only; neither may leave
    the state apart from a fresh build of the same assignment."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.booleans())
    def test_swept_state_equals_a_fresh_build(self, data, tree):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table seed"))
        n_words = rng.randint(3, 12)
        table = random_event_table(
            rng, n_words=n_words, n_contexts=rng.randint(3, min(16, n_words**2)), max_count=9
        )
        params = ClusterParams(
            n_categories=data.draw(st.integers(1, table.n_words), label="categories"),
            n_states=data.draw(st.integers(1, table.n_contexts), label="states"),
            min_count=data.draw(st.integers(1, 3), label="min count"),
            max_iterations=data.draw(st.integers(1, 4), label="iterations"),
            convergence=0.0,
        )
        if tree:
            cl = run_tree(table, build_suffix_tree(table), params)
        else:
            cl = run_flat(table, params)
        fresh = Clustering(table, cl.n_categories, cl.n_states, cl.G, cl.S)
        for got, want in (
            (cl.joint, fresh.joint),
            (cl.state_totals, fresh.state_totals),
            (cl.cat_totals, fresh.cat_totals),
        ):
            assert got.tobytes() == want.tobytes()
        for cached, table_ in (
            (cl.f_joint, cl.joint), (cl.f_state, cl.state_totals), (cl.f_cat, cl.cat_totals)
        ):
            assert cached.tobytes() == K.xlogx(table_).tobytes()

    @pytest.mark.parametrize("tree", [False, True])
    def test_each_visit_computes_one_profile(self, tree, monkeypatch):
        sents = make_random_corpus(31, n_sentences=60, n_words=12)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        calls = {"profile": 0, "delta": 0, "move": 0}

        def counted(owner, name, key):
            raw = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return raw(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(cluster._Rows, "profile", "profile")
        for name in ("word_move_deltas", "group_move_deltas"):
            counted(K, name, "delta")
        counted(cluster, "_move", "move")
        params = ClusterParams(n_categories=4, n_states=5, min_count=1, max_iterations=4)
        if tree:
            suffix_tree = build_suffix_tree(table)
            levels = suffix_tree.levels[1:]
            cl = run_tree(table, suffix_tree, params)
        else:
            levels = [suffix_level(table.contexts, table.spec.depth, table.ctx_counts)]
            cl = run_flat(table, params)
        n_words = int((table.word_counts >= params.min_count).sum())
        visits = sum(
            passes * (n_words + int((level.counts >= params.min_count).sum()))
            for passes, level in zip(cl.iterations_per_level, levels, strict=True)
        )
        assert 0 < calls["move"] <= visits
        assert calls["profile"] == calls["delta"] == visits


def one_context_per_suffix(rng, n_words, depth):
    """A table whose contexts all end in different values: every
    level-1 group is one context, the groups in suffix order and the
    contexts in tuple order."""
    counts = {}
    for v in rng.sample(range(n_words), rng.randint(2, n_words)):
        ctx = tuple(rng.randrange(n_words) for _ in range(depth - 1)) + (v,)
        words = rng.sample(range(n_words), rng.randint(1, min(4, n_words)))
        counts[ctx] = {w: rng.randint(1, 9) for w in words}
    return EventTable.from_counts(_placeholder_spec(n_words, depth), n_words, counts)


class TestLevelRows:
    """The sweep profiles each unit from its level's rows and calls the
    kernels directly; it must make the moves the public methods make."""

    @staticmethod
    def _compare(table, params, tree):
        got, want = [], []
        record = lambda trace: lambda c, m: trace.append(
            (m.kind, m.element, m.source, m.target, m.delta.hex()))
        if tree:
            suffix_tree = build_suffix_tree(table)
            levels = suffix_tree.levels[1:]
            cl = run_tree(table, suffix_tree, params, on_move=record(got))
        else:
            cl = run_flat(table, params, on_move=record(got))
            levels = [suffix_level(table.contexts, table.spec.depth, table.ctx_counts)]
        ref = oracle_run(table, levels, params, on_move=record(want))
        assert got == want
        assert cl.G.tobytes() == ref.G.tobytes()
        assert cl.S.tobytes() == ref.S.tobytes()
        assert cl.iterations_per_level == ref.iterations_per_level

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_runs_equal_the_driver_on_the_public_methods(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table seed"))
        depth = data.draw(st.integers(1, 3), label="depth")
        n_words = rng.randint(3, 10)
        if depth > 1 and data.draw(st.booleans(), label="one context per suffix"):
            table = one_context_per_suffix(rng, n_words, depth)
        else:
            n_contexts = rng.randint(2, min(18, n_words**depth))
            table = random_event_table(rng, n_words, n_contexts, depth=depth, max_count=9)
        params = ClusterParams(
            n_categories=data.draw(st.integers(1, table.n_words), label="categories"),
            n_states=data.draw(st.integers(1, table.n_contexts), label="states"),
            min_count=data.draw(st.integers(1, 4), label="min count"),
            max_iterations=data.draw(st.integers(1, 5), label="iterations"),
            convergence=data.draw(st.sampled_from([0.0, 0.001, 0.01]), label="convergence"),
        )
        self._compare(table, params, data.draw(st.booleans(), label="tree"))

    def test_singleton_groups_out_of_table_order(self):
        counts = {(1, 0): {0: 3, 1: 2}, (0, 1): {2: 4}, (3, 2): {1: 2, 3: 5}, (2, 3): {0: 1, 2: 6}}
        table = EventTable.from_counts(_placeholder_spec(4, 2), 4, counts)
        level1 = build_suffix_tree(table).levels[1]
        assert len(level1) == table.n_contexts
        assert level1.group_of.tolist() == [1, 0, 3, 2]
        for n_states in (2, 3):
            params = ClusterParams(n_categories=2, n_states=n_states, min_count=1)
            self._compare(table, params, tree=True)

    def test_a_fragmented_level_is_rejected_when_it_is_swept(self):
        sents = make_random_corpus(41, n_sentences=60, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        level1 = build_suffix_tree(table).levels[1]
        k = int(np.argmax(np.diff(level1.bounds)))
        members = level1.group(k)
        assert len(members) > 1
        S = np.zeros(table.n_contexts, dtype=np.int32)
        S[members[0]] = 1
        cl = Clustering(table, 2, 2, np.zeros(table.n_words, dtype=np.int32), S)
        with pytest.raises(ValueError, match="fragmented"):
            cluster._level_rows(cl, level1)
        S[members] = 1
        cl = Clustering(table, 2, 2, np.zeros(table.n_words, dtype=np.int32), S)
        assert cluster._level_rows(cl, level1).state.tolist() == [
            int(S[level1.group(j)[0]]) for j in range(len(level1))
        ]


class TestFloatRange:
    """The tables are float64, exact only below 2**53."""

    @staticmethod
    def _table_with_total(total):
        vocab, enc, small = build_table(["a b a", "b b c"], offsets=(-1,))
        ctx_of = np.repeat(np.arange(small.n_contexts), np.diff(small.ptr))
        keys = np.column_stack([small.contexts[ctx_of], small.words])
        freqs = np.ones(len(keys), dtype=np.int64)
        freqs[0] = total - (len(keys) - 1)
        return EventTable(small.spec, small.n_words, keys, freqs)

    def test_total_of_2_53_is_rejected(self):
        for total in (2**53, 2**53 + 7, 2**60):
            table = self._table_with_total(total)
            with pytest.raises(ValueError, match="2\\*\\*53"):
                init_clustering(table, ClusterParams(n_categories=2, n_states=2))

    def test_largest_exact_total_is_kept_exactly(self):
        table = self._table_with_total(2**53 - 1)
        cl = init_clustering(table, ClusterParams(n_categories=2, n_states=2))
        assert int(cl.joint.sum()) == table.total
        np.testing.assert_array_equal(cl.cat_totals, cl.joint.sum(axis=0))
        assert [int(cl.word_profile(w).sum()) for w in range(cl.n_words)] == (
            table.word_counts.tolist()
        )
        assert math.isfinite(cl.criterion())


class TestClusteringConstruction:
    def test_assignment_validation(self):
        vocab, enc, table = build_table(["a b"], offsets=(-1,))
        n, V = table.n_contexts, table.n_words
        good_g = np.zeros(V, dtype=np.int32)
        good_s = np.zeros(n, dtype=np.int32)
        with pytest.raises(ValueError, match="length"):
            Clustering(table, 1, 1, good_g[:-1], good_s)
        with pytest.raises(ValueError, match="length"):
            Clustering(table, 1, 1, good_g, good_s[:-1])
        with pytest.raises(ValueError, match="category id"):
            Clustering(table, 1, 1, good_g + 1, good_s)
        with pytest.raises(ValueError, match="state id"):
            Clustering(table, 1, 1, good_g, good_s + 1)

    def test_marginal_tables_consistent(self):
        rng = random.Random(13)
        table, cl = random_clustering(rng)
        assert int(cl.joint.sum()) == table.total
        np.testing.assert_array_equal(cl.joint.sum(axis=1), cl.state_totals)
        np.testing.assert_array_equal(cl.joint.sum(axis=0), cl.cat_totals)

    def test_ranked_init_hand_case(self):
        out = _ranked_init([5, 3, 5, 1], 3)
        # counts rank elements 0 and 2 first (tie toward lower id)
        assert list(out) == [0, 2, 1, 2]

    def test_init_bounds(self):
        vocab, enc, table = build_table(["a b"], offsets=(-1,))
        with pytest.raises(ValueError, match="vocabulary size"):
            init_clustering(table, ClusterParams(n_categories=table.n_words + 1, n_states=1))
        with pytest.raises(ValueError, match="context count"):
            init_clustering(table, ClusterParams(n_categories=1, n_states=table.n_contexts + 1))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(n_categories=0, n_states=1)
        with pytest.raises(ValueError):
            ClusterParams(n_categories=1, n_states=0)
        with pytest.raises(ValueError):
            ClusterParams(n_categories=1, n_states=1, min_count=0)
        with pytest.raises(ValueError):
            ClusterParams(n_categories=1, n_states=1, max_iterations=0)
        for conv in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite non-negative"):
                ClusterParams(n_categories=1, n_states=1, convergence=conv)


class TestGreedyAgainstShadow:
    def _params(self, table, rng):
        return ClusterParams(
            n_categories=rng.randint(2, max(2, table.n_words // 2)),
            n_states=rng.randint(2, max(2, table.n_contexts // 2)),
            min_count=rng.choice([1, 2, 3]),
            max_iterations=8,
            convergence=0.001,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_trace_matches(self, seed):
        rng = random.Random(300 + seed)
        sents = make_random_corpus(rng.randrange(10**6), n_sentences=25, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        params = self._params(table, rng)
        trace = []
        cl = run_flat(table, params, on_move=lambda c, m: trace.append(
            (m.kind, m.element, m.source, m.target)))
        strace, sh = shadow_greedy(table, params)
        assert trace == strace
        assert list(cl.G) == sh.G
        assert list(cl.S) == sh.S
        assert cl.criterion() == pytest.approx(sh.criterion(), abs=1e-9)

    # seeds picked to avoid exact criterion ties between two target states,
    # where the winner depends on float summation order rather than logic;
    # test_every_move_is_optimal below covers those seeds too
    @pytest.mark.parametrize("seed", [400, 402, 403, 404, 405])
    def test_tree_trace_matches(self, seed):
        rng = random.Random(seed)
        sents = make_random_corpus(rng.randrange(10**6), n_sentences=30, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = self._params(table, rng)
        trace = []
        cl = run_tree(table, tree, params, on_move=lambda c, m: trace.append(
            (m.kind, m.element, m.source, m.target)))
        strace, sh = shadow_greedy(table, params, tree=True)
        assert trace == strace
        assert list(cl.G) == sh.G
        assert list(cl.S) == sh.S

    @pytest.mark.parametrize("seed", range(400, 410))
    def test_every_move_is_optimal(self, seed):
        # replay the recorded moves through the shadow: each one must carry
        # the exact criterion change and be within float noise of the best
        # available target, regardless of how ties were broken
        rng = random.Random(seed)
        sents = make_random_corpus(rng.randrange(10**6), n_sentences=30, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = self._params(table, rng)
        trace = []
        run_tree(table, tree, params, on_move=lambda c, m: trace.append(
            (m.kind, m.element, m.source, m.target, m.delta)))
        assert trace

        members = {
            key: idx
            for level in range(1, table.spec.depth + 1)
            for key, idx, _ in suffix_groups(table, level)
        }
        word_marg = marginals(table)[1]
        word_counts = [word_marg.get(w, 0) for w in range(table.n_words)]
        G = list(_ranked_init(word_counts, params.n_categories))
        sh = Shadow(table, params.n_categories, params.n_states, G,
                    grouped_states(table, params.n_states))

        for kind, element, source, target, delta in trace:
            if kind == "word":
                deltas = sh.word_deltas(element)
                assert sh.G[element] == source
            else:
                idx = members[element]
                deltas = sh.group_deltas(idx)
                assert sh.S[idx[0]] == source
            assert deltas[target] == pytest.approx(delta, abs=1e-9)
            assert deltas[target] > 0.0
            assert deltas[target] >= max(deltas) - 1e-9
            if kind == "word":
                sh.apply_word(element, target)
            else:
                sh.apply_group(idx, target)

    def test_every_applied_move_strictly_improves(self):
        rng = random.Random(17)
        sents = make_random_corpus(99, n_sentences=40, n_words=10)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = ClusterParams(n_categories=4, n_states=4, min_count=1, convergence=0.0005)
        deltas = []
        run_tree(table, tree, params, on_move=lambda c, m: deltas.append(m.delta))
        assert deltas and all(d > 0.0 for d in deltas)

    def test_moves_raise_criterion_exactly(self):
        # replay the recorded moves and compare the recorded delta with a
        # full recomputation at every step
        rng = random.Random(23)
        sents = make_random_corpus(7, n_sentences=30, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        params = ClusterParams(n_categories=3, n_states=3, min_count=1)
        steps = []
        run_flat(
            table,
            params,
            on_move=lambda c, m: steps.append((m.delta, c.criterion())),
        )
        replay = init_clustering(table, params)
        f_prev = replay.criterion()
        for delta, f_recorded in steps:
            assert f_recorded - f_prev == pytest.approx(delta, abs=1e-9)
            f_prev = f_recorded


class TestSweepControl:
    class Scripted:
        """Stands in for a Clustering; only criterion() is consulted when
        there are no movable units."""

        def __init__(self, values):
            self.values = list(values)

        def criterion(self):
            return self.values.pop(0)

    def _params(self, max_iterations=20):
        return ClusterParams(
            n_categories=1, n_states=1, max_iterations=max_iterations, convergence=0.01
        )

    def test_stops_when_relative_gain_drops_below_threshold(self):
        # pass 1: gain 100/1000 = 10%; pass 2: gain 5/900 < 1% -> stop
        sc = self.Scripted([-1000.0, -900.0, -895.0])
        assert _sweep(sc, [], self._params(), None) == 2

    def test_boundary_gain_continues(self):
        # rel == threshold exactly: not an improvement shortfall yet
        sc = self.Scripted([-1000.0, -990.0, -990.0])
        assert _sweep(sc, [], self._params(), None) == 2

    def test_iteration_cap(self):
        sc = self.Scripted([-1000.0 * 0.9**k for k in range(10)])
        assert _sweep(sc, [], self._params(max_iterations=3), None) == 3

    def test_zero_start_stops_immediately(self):
        sc = self.Scripted([0.0, 0.0])
        assert _sweep(sc, [], self._params(), None) == 1


class TestRunBehaviour:
    def test_depth_one_tree_reduces_to_flat(self):
        sents = make_random_corpus(5, n_sentences=40, n_words=10)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        tree = build_suffix_tree(table)
        params = ClusterParams(n_categories=4, n_states=3, min_count=1)
        t1, t2 = [], []
        c_flat = run_flat(table, params, on_move=lambda c, m: t1.append(
            (m.kind, m.element, m.source, m.target)))
        c_tree = run_tree(table, tree, params, on_move=lambda c, m: t2.append(
            (m.kind, m.element, m.source, m.target)))
        assert t1 == t2
        assert list(c_flat.G) == list(c_tree.G)
        assert list(c_flat.S) == list(c_tree.S)
        assert c_tree.iterations_per_level == [c_flat.iterations_run]

    def test_tree_depth_mismatch_rejected(self):
        vocab, enc, table = build_table(["a b a"], offsets=(-1,))
        vocab2, enc2, table2 = build_table(["a b a"], offsets=(-2, -1))
        tree2 = build_suffix_tree(table2)
        with pytest.raises(ValueError, match="depth"):
            run_tree(table, tree2, ClusterParams(n_categories=2, n_states=1))

    def test_rare_units_never_move(self):
        sents = make_random_corpus(31, n_sentences=25, n_words=10)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        params = ClusterParams(n_categories=4, n_states=4, min_count=6)
        init = init_clustering(table, params)
        moved = []
        cl = run_flat(table, params, on_move=lambda c, m: moved.append((m.kind, m.element)))
        ctx_marg, word_marg = marginals(table)
        for w in range(table.n_words):
            if word_marg.get(w, 0) < params.min_count:
                assert ("word", w) not in moved
                assert cl.G[w] == init.G[w]
        for i, c in enumerate(sorted(ctx_marg)):
            if ctx_marg[c] < params.min_count:
                assert ("group", c) not in moved
                assert cl.S[i] == init.S[i]

    def test_tree_groups_stay_coherent_throughout(self):
        sents = make_random_corpus(41, n_sentences=60, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = ClusterParams(n_categories=3, n_states=4, min_count=1)

        def check(cl, move):
            for _, idx, _ in suffix_groups(table, 1):
                states = {int(cl.S[i]) for i in idx}
                # level-1 units fragment only after the sweep moves on to
                # finer levels; while they are the move unit they stay whole
                if move.kind == "group" and len(move.element) == 1:
                    assert len(states) == 1

        run_tree(table, tree, params, on_move=check)


class TestExportAndPersistence:
    def test_export_orders_members_by_count_then_id(self):
        vocab, enc, table = build_table(["b a a c b a"], offsets=(-1,))
        a, b, c = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("c")
        G = np.zeros(table.n_words, dtype=np.int32)
        G[a] = G[b] = G[c] = 1
        cl = Clustering(table, 2, 1, G, np.zeros(table.n_contexts, dtype=np.int32))
        cats = export_categories(cl, vocab)
        assert cats[1][:3] == ["a", "b", "c"]
        # remaining words sort by count (the end marker has one event)
        # before falling back to id order
        rest = cats[0]
        expect = sorted(
            (w for w in range(table.n_words) if G[w] == 0),
            key=lambda w: (-marginals(table)[1].get(w, 0), w),
        )
        assert rest == [vocab.tokens[w] for w in expect]

    def test_save_load_round_trip(self, tmp_path):
        sents = make_random_corpus(3, n_sentences=30, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        tree = build_suffix_tree(table)
        params = ClusterParams(n_categories=4, n_states=3, min_count=2)
        cl = run_tree(table, tree, params)
        path = tmp_path / "clusters.tsv"
        save_clustering(cl, path)
        loaded = load_clustering(path, table)
        assert list(loaded.G) == list(cl.G)
        assert list(loaded.S) == list(cl.S)
        assert loaded.criterion() == pytest.approx(cl.criterion(), abs=1e-9)

    def test_save_is_deterministic(self, tmp_path):
        sents = make_random_corpus(4, n_sentences=20, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        cl = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_clustering(cl, p1)
        save_clustering(cl, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_wrong_header(self, tmp_path):
        vocab, enc, table = build_table(["a b"], offsets=(-1,))
        p = tmp_path / "x.tsv"
        p.write_text("#something-else v1\n")
        with pytest.raises(ValueError, match="not a clustering file"):
            load_clustering(p, table)

    def test_load_rejects_tampered_assignment(self, tmp_path):
        sents = make_random_corpus(6, n_sentences=25, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        cl = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
        p = tmp_path / "clusters.tsv"
        save_clustering(cl, p)
        lines = p.read_text().splitlines()
        i = lines.index("#G") + 1  # assignment line of word 0
        wid, cat = lines[i].split("\t")
        lines[i] = f"{wid}\t{(int(cat) + 1) % cl.n_categories}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="criterion mismatch"):
            load_clustering(p, table)

    @pytest.mark.parametrize("bad_id", [99999, -1])
    def test_load_rejects_out_of_range_word_id(self, tmp_path, bad_id):
        sents = make_random_corpus(6, n_sentences=25, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        cl = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
        p = tmp_path / "clusters.tsv"
        save_clustering(cl, p)
        lines = p.read_text().splitlines()
        i = lines.index("#G") + 1
        lines[i] = f"{bad_id}\t{lines[i].split()[1]}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="word id"):
            load_clustering(p, table)

    def test_load_rejects_mismatched_counts(self, tmp_path):
        sents = make_random_corpus(8, n_sentences=25, n_words=8)
        vocab, enc, table = build_table(sents, offsets=(-1,))
        cl = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
        p = tmp_path / "clusters.tsv"
        save_clustering(cl, p)
        vocab2, enc2, other = build_table(["a b c d e f g a b c"], offsets=(-1,))
        with pytest.raises(ValueError, match="does not match counts"):
            load_clustering(p, other)


def saved_clustering(tmp_path, seed=6, offsets=(-1,)):
    """(table, path, lines) of a saved flat clustering of a small corpus."""
    sents = make_random_corpus(seed, n_sentences=25, n_words=8)
    vocab, enc, table = build_table(sents, offsets=offsets)
    cl = run_flat(table, ClusterParams(n_categories=3, n_states=3, min_count=1))
    path = tmp_path / "clusters.tsv"
    save_clustering(cl, path)
    return table, path, path.read_text().splitlines()


def without_criterion(lines):
    return [x for x in lines if not x.startswith("#criterion")]


class TestClusteringFile:
    """The loader accepts exactly the rows save_clustering writes."""

    @pytest.mark.parametrize(
        "key", ["#n_categories", "#n_states", "#n_words", "#depth", "#G", "#S"]
    )
    def test_missing_header_line_is_a_value_error(self, tmp_path, key):
        table, path, lines = saved_clustering(tmp_path)
        path.write_text("\n".join(x for x in lines if x.split("\t")[0] != key) + "\n")
        with pytest.raises(ValueError):
            load_clustering(path, table)

    def test_header_value_not_an_integer(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path)
        lines[lines.index("#n_states\t3")] = "#n_states\tthree"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="n_states is not an integer"):
            load_clustering(path, table)

    def test_repeated_word_row_is_rejected_without_a_criterion(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path)
        lines = without_criterion(lines)
        i = lines.index("#G") + 1
        lines[i] = "0\t1"
        lines[i + 1] = "0\t1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="word id"):
            load_clustering(path, table)

    def test_reordered_context_rows_are_rejected_without_a_criterion(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path)
        lines = without_criterion(lines)
        i = lines.index("#S") + 1
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not its contexts"):
            load_clustering(path, table)

    def test_loads_without_a_criterion(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path)
        reference = load_clustering(path, table)
        path.write_text("\n".join(without_criterion(lines)) + "\n")
        loaded = load_clustering(path, table)
        assert loaded.G.tolist() == reference.G.tolist()
        assert loaded.S.tolist() == reference.S.tolist()

    def test_cluster_count_above_the_table_is_rejected(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path)
        lines[lines.index("#n_states\t3")] = f"#n_states\t{table.n_contexts + 1}"
        path.write_text("\n".join(without_criterion(lines)) + "\n")
        with pytest.raises(ValueError, match="n_states in"):
            load_clustering(path, table)

    def test_truncation_at_every_line_is_rejected(self, tmp_path):
        table, path, lines = saved_clustering(tmp_path, offsets=(-2, -1))
        cut = tmp_path / "cut.tsv"
        for k in range(len(lines)):
            head = "".join(line + "\n" for line in lines[:k])
            for text in (head, head + lines[k][: len(lines[k]) // 2]):
                cut.write_text(text)
                with pytest.raises(ValueError):
                    load_clustering(cut, table)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_byte_damage_never_escapes_as_another_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            table, path, _ = saved_clustering(Path(tmp), offsets=(-2, -1))
            raw = bytearray(path.read_bytes())
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(raw) - 1))
                if data.draw(st.booleans()):
                    raw[at] = data.draw(st.sampled_from(b"0123456789 \t\n#-x"))
                else:
                    del raw[at]
            path.write_bytes(bytes(raw))
            try:
                loaded = load_clustering(path, table)
            except ValueError:
                return
            assert loaded.G.shape == (table.n_words,)
            assert loaded.S.shape == (table.n_contexts,)
