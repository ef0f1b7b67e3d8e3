"""Suffix grouping of context tuples into per-level group arrays."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm.ctxtree import build_suffix_tree

from conftest import build_table, marginals, random_event_table


def check_levels(table, tree):
    """Structural invariants every level of a suffix tree must hold."""
    ctx_marg, _ = marginals(table)
    contexts = sorted(ctx_marg)
    depth = table.spec.depth
    assert len(tree.levels) == depth + 1
    for lvl, level in enumerate(tree.levels):
        keys = [level.key(k) for k in range(len(level))]
        # unique, sorted, suffixes of length lvl
        assert keys == sorted(set(keys))
        assert all(len(k) == lvl for k in keys)
        # counts at every level partition the event total
        assert level.counts.dtype == np.int64
        assert int(level.counts.sum()) == table.total
        assert level.bounds[0] == 0 and level.bounds[-1] == len(contexts)
        for k, key in enumerate(keys):
            members = level.group(k)
            assert members.size > 0
            assert all(contexts[i][depth - lvl :] == key for i in members)
            assert all(level.group_of[i] == k for i in members)
            assert level.counts[k] == sum(ctx_marg[contexts[i]] for i in members)
        if lvl:
            # a level-lvl key drops its farthest value to a level-(lvl-1) key,
            # and the children's counts sum to their parent's
            parent = tree.levels[lvl - 1]
            parent_of = {parent.key(p): p for p in range(len(parent))}
            sums = np.zeros(len(parent), dtype=np.int64)
            for k, key in enumerate(keys):
                sums[parent_of[key[1:]]] += level.counts[k]
            np.testing.assert_array_equal(sums, parent.counts)
    leaves = tree.levels[depth]
    assert [leaves.key(k) for k in range(len(leaves))] == contexts


class TestHandBuiltTree:
    def _table(self):
        # contexts over offsets (-2, -1); nearest slot is the LAST element
        vocab, enc, table = build_table(["a b a b", "b a", "a a b"], offsets=(-2, -1))
        return vocab, table

    def test_depth_and_level_keys(self):
        vocab, table = self._table()
        tree = build_suffix_tree(table)
        assert len(tree.levels) == 3
        lvl1 = tree.levels[1]
        # level-1 keys are the distinct nearest-slot values
        expected = sorted({ctx[-1:] for ctx in table.counts})
        assert [lvl1.key(k) for k in range(len(lvl1))] == expected

    def test_leaf_level_matches_contexts(self):
        vocab, table = self._table()
        tree = build_suffix_tree(table)
        leaves = tree.levels[2]
        contexts = sorted(table.counts)
        assert [leaves.key(k) for k in range(len(leaves))] == contexts
        for k, ctx in enumerate(contexts):
            assert leaves.counts[k] == sum(table.counts[ctx].values())
            assert list(leaves.group(k)) == [k]

    def test_node_counts_sum_children(self):
        vocab, table = self._table()
        tree = build_suffix_tree(table)
        lvl1, leaves = tree.levels[1], tree.levels[2]
        for k in range(len(lvl1)):
            children = [j for j in range(len(leaves)) if leaves.key(j)[1:] == lvl1.key(k)]
            assert lvl1.counts[k] == sum(leaves.counts[j] for j in children)

    def test_contexts_enumerates_sorted_leaves(self):
        vocab, table = self._table()
        tree = build_suffix_tree(table)
        contexts = sorted(table.counts)
        lvl1 = tree.levels[1]
        for k in range(len(lvl1)):
            ctxs = [contexts[i] for i in lvl1.group(k)]
            assert ctxs == sorted(ctxs)
            assert all(c[-1:] == lvl1.key(k) for c in ctxs)
        assert sum(lvl1.group(k).size for k in range(len(lvl1))) == table.n_contexts

    def test_root_spans_everything(self):
        vocab, table = self._table()
        tree = build_suffix_tree(table)
        root = tree.levels[0]
        assert len(root) == 1 and root.key(0) == ()
        assert root.counts[0] == table.total
        assert list(root.group(0)) == list(range(table.n_contexts))


class TestRandomTrees:
    @pytest.mark.parametrize("seed", range(6))
    def test_structural_invariants(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 4)
        table = random_event_table(rng, n_words=8, n_contexts=rng.randint(3, 25), depth=depth)
        check_levels(table, build_suffix_tree(table))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 4),
        n_words=st.integers(2, 9),
        n_contexts=st.integers(1, 30),
    )
    def test_levels_hold_invariants(self, seed, depth, n_words, n_contexts):
        n_contexts = min(n_contexts, n_words**depth)
        table = random_event_table(
            random.Random(seed), n_words=n_words, n_contexts=n_contexts, depth=depth
        )
        check_levels(table, build_suffix_tree(table))

    @pytest.mark.parametrize("seed", range(4))
    def test_children_sorted_by_key(self, seed):
        # the children of a group, taken in group order, have ascending
        # keys and their members partition the parent's members
        rng = random.Random(100 + seed)
        table = random_event_table(rng, n_words=6, n_contexts=20, depth=3)
        tree = build_suffix_tree(table)
        for parent, level in zip(tree.levels, tree.levels[1:]):
            for p in range(len(parent)):
                kids = [k for k in range(len(level)) if level.key(k)[1:] == parent.key(p)]
                assert [level.key(k) for k in kids] == sorted(level.key(k) for k in kids)
                merged = sorted(i for k in kids for i in level.group(k))
                assert merged == sorted(parent.group(p))

    def test_depth_one_tree_has_leaf_roots(self):
        rng = random.Random(42)
        table = random_event_table(rng, n_words=5, n_contexts=4, depth=1)
        tree = build_suffix_tree(table)
        assert len(tree.levels) == 2
        lvl1 = tree.levels[1]
        assert [lvl1.key(k) for k in range(len(lvl1))] == sorted(table.counts)
