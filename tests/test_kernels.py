"""The numpy move-delta kernels against a from-scratch recompute of F."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm import _kernels as K

from conftest import oracle_group_move_deltas, oracle_move_deltas


def f(x):
    return x * math.log(x) if x > 0 else 0.0


def scratch_F(joint) -> float:
    """F = sum f(N(s,g)) - sum f(N(s)) - sum f(N(g)), correctly rounded."""
    cells = [f(int(v)) for v in joint.ravel()]
    cells += [-f(int(v)) for v in joint.sum(axis=1)]
    cells += [-f(int(v)) for v in joint.sum(axis=0)]
    return math.fsum(cells)


def random_instance(rng, n_states=4, n_cats=5):
    joint = np.zeros((n_states, n_cats), dtype=np.int64)
    n_fill = rng.integers(4, n_states * n_cats, endpoint=True)
    for _ in range(int(n_fill)):
        joint[rng.integers(n_states), rng.integers(n_cats)] += int(rng.integers(1, 40))
    return joint


def bordered(table):
    """``table`` as float64 with its column sums as one more row, its
    row sums as one more column and its total in the corner, as
    ``Clustering`` keeps its tables."""
    table = np.asarray(table, dtype=np.float64)
    out = np.zeros((table.shape[0] + 1, table.shape[1] + 1))
    out[:-1, :-1] = table
    out[-1, :-1], out[:-1, -1], out[-1, -1] = table.sum(axis=0), table.sum(axis=1), table.sum()
    return out


def sparse(profile):
    """(p, nz) of ``profile`` bordered by its sum: the values and the
    indices of its nonzero entries, as the kernels take a profile."""
    full = np.append(np.asarray(profile, dtype=np.float64), profile.sum())
    nz = np.flatnonzero(full)
    return full[nz], nz


def run_kernel(kernel, table, profile, cur):
    """``kernel`` on ``table`` bordered, with its f cache and scratch
    built from scratch."""
    table_b = bordered(table)
    return kernel(table_b, K.xlogx(table_b), *sparse(profile), cur, np.empty((2, *table_b.shape)))


def word_deltas(joint, profile, g):
    """The word kernel on the bordered ``joint``, as ``Clustering``
    keeps it."""
    return run_kernel(K.word_move_deltas, joint, profile, g)


def group_deltas(joint, profile, s):
    """The group kernel on the bordered transpose of ``joint``, as
    ``Clustering`` keeps it."""
    return run_kernel(K.group_move_deltas, joint.T, profile, s)


def check_word_deltas(joint, profile, g):
    """``profile`` (events per state) is a word inside category ``g`` of
    ``joint``; every delta must equal F(after) - F(before)."""
    deltas = word_deltas(joint, profile, g)
    assert deltas[g] == 0.0
    before = scratch_F(joint)
    for t in range(joint.shape[1]):
        moved = joint.copy()
        moved[:, g] -= profile
        moved[:, t] += profile
        assert deltas[t] == pytest.approx(scratch_F(moved) - before, rel=1e-9, abs=1e-9)


def check_group_deltas(joint, profile, s):
    """``profile`` (events per category) is a context group inside state
    ``s`` of ``joint``; every delta must equal F(after) - F(before)."""
    deltas = group_deltas(joint, profile, s)
    assert deltas[s] == 0.0
    before = scratch_F(joint)
    for t in range(joint.shape[0]):
        moved = joint.copy()
        moved[s, :] -= profile
        moved[t, :] += profile
        assert deltas[t] == pytest.approx(scratch_F(moved) - before, rel=1e-9, abs=1e-9)


class TestPathsAgree:
    """The incremental kernel path agrees with the from-scratch path."""

    @pytest.mark.parametrize("seed", range(8))
    def test_criterion_value(self, seed):
        # a sequence of best moves: the kernel deltas, summed, reach the
        # criterion value recomputed from scratch at the end
        rng = np.random.default_rng(seed)
        joint = random_instance(rng)
        profiles = []
        for _ in range(3):
            prof = np.zeros(joint.shape[0], dtype=np.int64)
            prof[rng.integers(joint.shape[0])] = int(rng.integers(1, 10))
            g = int(rng.integers(joint.shape[1]))
            joint[:, g] += prof
            profiles.append([prof, g])
        start, total = scratch_F(joint), 0.0
        for entry in profiles * 2:
            prof, g = entry
            deltas = word_deltas(joint, prof, g)
            t = int(np.argmax(deltas))
            total += float(deltas[t])
            joint[:, g] -= prof
            joint[:, t] += prof
            entry[1] = t
        assert start + total == pytest.approx(scratch_F(joint), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_word_move_deltas(self, seed):
        rng = np.random.default_rng(100 + seed)
        joint = random_instance(rng)
        n_states, n_cats = joint.shape
        profile = np.zeros(n_states, dtype=np.int64)
        for _ in range(n_states):
            profile[rng.integers(n_states)] += int(rng.integers(0, 5))
        g = int(rng.integers(n_cats))
        # embed the word inside its current category
        joint[:, g] += profile
        check_word_deltas(joint, profile, g)

    @pytest.mark.parametrize("seed", range(8))
    def test_group_move_deltas(self, seed):
        rng = np.random.default_rng(200 + seed)
        joint = random_instance(rng)
        n_states, n_cats = joint.shape
        profile = np.zeros(n_cats, dtype=np.int64)
        for _ in range(n_cats):
            profile[rng.integers(n_cats)] += int(rng.integers(0, 5))
        s = int(rng.integers(n_states))
        joint[s] += profile
        check_group_deltas(joint, profile, s)


def draw_joint(data):
    n_s, n_g = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(0, 60), min_size=n_s * n_g, max_size=n_s * n_g))
    return np.asarray(cells, dtype=np.int64).reshape(n_s, n_g)


def draw_profile(data, size):
    return np.asarray(
        data.draw(st.lists(st.integers(0, 20), min_size=size, max_size=size)), dtype=np.int64
    )


class TestDeltaProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_word_deltas_equal_scratch_difference(self, data):
        joint = draw_joint(data)
        profile = draw_profile(data, joint.shape[0])
        g = data.draw(st.integers(0, joint.shape[1] - 1))
        joint[:, g] += profile
        check_word_deltas(joint, profile, g)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_group_deltas_equal_scratch_difference(self, data):
        joint = draw_joint(data)
        profile = draw_profile(data, joint.shape[1])
        s = data.draw(st.integers(0, joint.shape[0] - 1))
        joint[s, :] += profile
        check_group_deltas(joint, profile, s)


class TestRowKernelOnTheTranspose:
    """The group kernel reads rows of ``joint_bt``; its deltas equal the
    column gathers of ``joint`` bit for bit, at every profile width."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_the_column_oracle_bit_for_bit(self, data):
        n_states = data.draw(st.integers(1, 40), label="states")
        n_cats = data.draw(st.integers(1, 300), label="categories")
        k = data.draw(st.integers(1, n_cats), label="nonzero categories")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        top = data.draw(st.sampled_from([3, 60, 10**6]), label="largest count")
        # about half the cells are 0, and the profile is 0 off its k categories
        joint = rng.integers(0, top, size=(n_states, n_cats)) * rng.integers(0, 2, (n_states, n_cats))
        profile = np.zeros(n_cats, dtype=np.int64)
        profile[rng.choice(n_cats, size=k, replace=False)] = rng.integers(1, top + 1, size=k)
        s = int(rng.integers(n_states))
        joint[s] += profile
        joint = joint.astype(np.float64)
        profile = profile.astype(np.float64)
        state_totals = joint.sum(axis=1)
        n = int(profile.sum())
        want = oracle_group_move_deltas(
            joint.copy(), state_totals, profile, s, n, K.xlogx(joint), K.xlogx(state_totals)
        )
        got = group_deltas(joint, profile, s)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBorderedKernel:
    """The kernel on a bordered table and a sparse bordered profile
    equals, bit for bit, the kernel as it stood before the tables were
    bordered, which took the margins as separate arrays."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_frozen_kernel_bit_for_bit(self, data):
        n_rows = data.draw(st.integers(1, 40), label="rows")
        n_cols = data.draw(st.integers(1, 150), label="columns")
        k = data.draw(st.integers(1, n_rows), label="nonzero rows")
        word = data.draw(st.booleans(), label="word layout")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        top = data.draw(st.sampled_from([3, 60, 10**6]), label="largest count")
        # a (states x categories) table; a group move reads the rows of
        # its row-major transpose
        shape = (n_rows, n_cols) if word else (n_cols, n_rows)
        joint = rng.integers(0, top, size=shape) * rng.integers(0, 2, shape)
        table = np.ascontiguousarray(joint if word else joint.T, dtype=np.float64)
        profile = np.zeros(n_rows)
        profile[rng.choice(n_rows, size=k, replace=False)] = rng.integers(1, top + 1, size=k)
        cur = data.draw(st.integers(0, n_cols - 1), label="source")
        table[:, cur] += profile
        totals = table.sum(axis=0)
        want = oracle_move_deltas(
            table, totals, profile, cur, int(profile.sum()), K.xlogx(table), K.xlogx(totals),
            np.empty(2 * table.size),
        )
        got = run_kernel(K.word_move_deltas if word else K.group_move_deltas, table, profile, cur)
        assert got.tobytes() == want.tobytes()


class TestXlogx:
    """``xlogx`` on its domain, nonnegative integer counts, against the
    masked form ``where(a > 0, a * log(a), 0)``, bit for bit."""

    @staticmethod
    def masked(a):
        a = np.asarray(a, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0, a * np.log(a), 0.0)

    def test_integer_counts_match_the_masked_form(self):
        rng = np.random.default_rng(53)
        top = 2**53 - 1
        a = np.concatenate(
            [
                [0, 1, 2, 3],
                rng.integers(0, 50, 300),
                rng.integers(0, 2**31, 300),
                rng.integers(0, 2**53, 300),
                np.arange(top - 64, top + 1),
            ]
        )
        for counts in (a, a.astype(np.float64), a.reshape(-1, 3)[:, ::-1].T):
            got = K.xlogx(counts)
            want = self.masked(counts)
            assert got.dtype == np.float64 and got.shape == counts.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=40))
    def test_property_on_integer_counts(self, values):
        a = np.asarray(values, dtype=np.int64)
        assert K.xlogx(a).tobytes() == self.masked(a).tobytes()


class TestDispatch:
    def test_active_path_is_bound(self):
        # one kernel path: run reports read these flags
        assert K.USING_NUMBA is False and K._HAVE_NUMBA is False

    def test_zero_inputs_give_zero_terms(self):
        # moving an element without events changes nothing
        joint = np.zeros((2, 3), dtype=np.int64)
        zeros = np.zeros(2, dtype=np.int64)
        assert not word_deltas(joint, zeros, 0).any()
        assert not group_deltas(joint.T, zeros, 1).any()
