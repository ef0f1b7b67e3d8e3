"""The shared row lookup and row count against dict and Counter oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm._rows import find_rows, sum_rows

# table values: a few small ones, so queries hit and share prefixes,
# and the largest int32
TABLE_VALUES = st.one_of(st.integers(0, 3), st.just(2**31 - 1))
# query values also reach outside every table: below 0, at or above
# 2**32, and at both ends of int64
QUERY_VALUES = st.one_of(
    TABLE_VALUES,
    st.sampled_from([-1, 2**31, 2**32, 2**62, -(2**63), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


def shifted(row: tuple, j: int, k: int) -> tuple:
    """``row`` with ``k * 2**32`` added to column ``j``: a query whose
    lookup keys can collide with those of another row."""
    return row[:j] + (row[j] + (k << 32),) + row[j + 1 :]


def lookup_oracle(table: np.ndarray, queries: np.ndarray) -> list[int]:
    index = {tuple(row): i for i, row in enumerate(table.tolist())}
    return [index.get(tuple(q), -1) for q in queries.tolist()]


@st.composite
def tables_and_queries(draw):
    width = draw(st.integers(1, 4))
    rows = sorted(draw(st.lists(st.tuples(*[TABLE_VALUES] * width), max_size=25, unique=True)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    table = np.array(rows, dtype=dtype).reshape(len(rows), width)
    query = st.tuples(*[QUERY_VALUES] * width)
    if rows:
        near = st.builds(
            shifted, st.sampled_from(rows), st.integers(0, width - 1), st.integers(-3, 3)
        )
        query = st.one_of(query, st.sampled_from(rows), near)
    queries = draw(st.lists(query, max_size=25))
    if queries:  # repeat some
        queries += draw(st.lists(st.sampled_from(queries), max_size=5))
    return table, np.array(queries, dtype=np.int64).reshape(len(queries), width)


class TestFindRows:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_queries())
    def test_matches_a_dict_lookup(self, case):
        table, queries = case
        at, found = find_rows(table, queries)
        assert at.tolist() == lookup_oracle(table, queries)
        assert found.tolist() == (at >= 0).tolist()

    def test_empty_table_and_empty_queries(self):
        at, found = find_rows(np.zeros((0, 2), dtype=np.int64), np.array([[0, 0], [1, 2]]))
        assert at.tolist() == [-1, -1] and found.tolist() == [False, False]
        at, found = find_rows(np.array([[0, 1]]), np.zeros((0, 2), dtype=np.int64))
        assert at.shape == found.shape == (0,)

    def test_values_outside_the_table_range_are_not_found(self):
        table = np.array([[0, 0], [0, 2**31 - 2], [1, 0], [1, 5]], dtype=np.int32)
        queries = np.array(
            [[-1, 0], [0, -1], [2**31 - 1, 0], [0, 2**31 - 1], [2**32, 0], [0, 2**32], [1, 5]]
        )
        at, found = find_rows(table, queries)
        assert at.tolist() == [-1] * 6 + [3]

    def test_a_key_collision_is_not_a_match(self):
        # (0, 2**32) narrows to the key of row (1, 0), and (1, -1) to the
        # key of row (0, 2**32 - 1); the final comparison rejects both
        table = np.array([[0, 2**32 - 1], [1, 0]], dtype=np.int64)
        at, found = find_rows(table, np.array([[0, 2**32], [1, -1], [1, 0]]))
        assert at.tolist() == [-1, -1, 1]


@st.composite
def rows_and_weights(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width), max_size=40))
    weights = draw(
        st.none() | st.lists(st.integers(0, 2**40), min_size=len(rows), max_size=len(rows))
    )
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return rows, None if weights is None else np.array(weights, dtype=np.int64)


class TestSumRows:
    @settings(max_examples=200, deadline=None)
    @given(rows_and_weights())
    def test_matches_a_counter(self, case):
        rows, weights = case
        expected = Counter()
        ones = [1] * len(rows)
        for row, w in zip(map(tuple, rows.tolist()), ones if weights is None else weights.tolist()):
            expected[row] += w
        keys, sums = sum_rows(rows, weights)
        assert list(map(tuple, keys.tolist())) == sorted(expected)
        assert sums.tolist() == [expected[k] for k in sorted(expected)]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_no_rows(self, weighted):
        rows = np.zeros((0, 2), dtype=np.int64)
        keys, sums = sum_rows(rows, np.zeros(0, dtype=np.int64) if weighted else None)
        assert keys.shape == (0, 2) and sums.shape == (0,)
