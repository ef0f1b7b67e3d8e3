"""The numpy move-delta kernels against a from-scratch recompute of F."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm import _kernels as K


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


def word_deltas(joint, profile, g):
    """The word kernel on float64 counts, as ``Clustering`` keeps them,
    with its f caches and scratch built from scratch."""
    joint = joint.astype(np.float64)
    cat_totals = joint.sum(axis=0)
    f_joint, f_cat = K.xlogx(joint), K.xlogx(cat_totals)
    scratch = np.empty(2 * joint.size)
    return K.word_move_deltas(
        joint, cat_totals, profile, g, int(profile.sum()), f_joint, f_cat, scratch
    )


def group_deltas(joint, profile, s):
    """The group kernel with its f caches built from scratch."""
    state_totals = joint.sum(axis=1)
    return K.group_move_deltas(
        joint, state_totals, profile, s, int(profile.sum()), K.xlogx(joint), K.xlogx(state_totals)
    )


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
