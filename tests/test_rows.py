"""The shared row operations on packed keys (lookup, count, grouping and
the sort check) against dict, Counter, lexsort and tuple-order oracles,
the line numbers in ``Reader``'s errors, the blocked passes against
the same passes made in one block, and the text codec against its
digit-by-digit writer and a line-by-line reading of the row grammar."""

import io
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm import _rows
from clusterlm._rows import (
    Keys,
    Reader,
    check_strictly_sorted,
    exact_sum,
    find_rows,
    group_rows,
    sum_rows,
    write_rows,
)

from conftest import oracle_write_rows

ONE_BLOCK = 1 << 40  # a block size no test input reaches


def blocks_of(n_bytes: int):
    """Run the blocked passes with ``n_bytes`` as their largest temporary."""
    return mock.patch.object(_rows, "_BLOCK_BYTES", n_bytes)


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
        at, found = find_rows(Keys(table), queries)
        assert at.tolist() == lookup_oracle(table, queries)
        assert found.tolist() == (at >= 0).tolist()

    def test_empty_table_and_empty_queries(self):
        at, found = find_rows(Keys(np.zeros((0, 2), dtype=np.int64)), np.array([[0, 0], [1, 2]]))
        assert at.tolist() == [-1, -1] and found.tolist() == [False, False]
        at, found = find_rows(Keys(np.array([[0, 1]])), np.zeros((0, 2), dtype=np.int64))
        assert at.shape == found.shape == (0,)

    def test_values_outside_the_table_range_are_not_found(self):
        table = np.array([[0, 0], [0, 2**31 - 2], [1, 0], [1, 5]], dtype=np.int32)
        queries = np.array(
            [[-1, 0], [0, -1], [2**31 - 1, 0], [0, 2**31 - 1], [2**32, 0], [0, 2**32], [1, 5]]
        )
        at, found = find_rows(Keys(table), queries)
        assert at.tolist() == [-1] * 6 + [3]

    def test_a_key_collision_is_not_a_match(self):
        # packed as the table is, x0 * 2**32 + x1, (0, 2**32) would get the
        # key of row (1, 0) and (1, -1) that of row (0, 2**32 - 1); each has
        # a value outside its column's range, so neither is packed or found
        table = np.array([[0, 2**32 - 1], [1, 0]], dtype=np.int64)
        at, found = find_rows(Keys(table), np.array([[0, 2**32], [1, -1], [1, 0]]))
        assert at.tolist() == [-1, -1, 1]


# row values: a few small ones, so rows repeat, negative ones, the ends
# of int32, whose columns span 2**32 so that two of them need a second
# key chunk, and the ends of int64, whose column is a chunk of its own
ROW_VALUES = st.one_of(
    st.integers(0, 3),
    st.integers(-3, 3),
    st.sampled_from([2**31 - 1, -(2**31), 2**62, -(2**63), 2**63 - 1]),
)


@st.composite
def rows_and_weights(draw):
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[ROW_VALUES] * width), max_size=40))
    weights = draw(
        st.none() | st.lists(st.integers(0, 2**40), min_size=len(rows), max_size=len(rows))
    )
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return rows, None if weights is None else np.array(weights, dtype=np.int64)


@st.composite
def maybe_sorted_rows(draw):
    """Rows in any order, or strictly sorted, or sorted with repeats."""
    rows, _ = draw(rows_and_weights())
    order = draw(st.sampled_from(["any", "sorted", "unique"]))
    rows = rows.tolist()
    if order != "any":
        rows = sorted(set(map(tuple, rows)) if order == "unique" else map(tuple, rows))
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 1)


def test_wide_columns_take_more_than_one_chunk():
    rows = np.array([[2**31 - 1, -(2**31), 0], [-(2**31), 2**31 - 1, 1]])
    assert Keys(rows).key.shape == (2, 2)
    assert Keys(rows[:, 1:]).key.shape == (2, 1)
    lone = np.array([[-(2**63), 0], [2**63 - 1, 5]])
    assert Keys(lone).key.tolist() == [[-(2**63), 0], [2**63 - 1, 5]]
    # and each unpacks to its rows, as does a table of no columns
    for table in (rows, rows[:, 1:], lone, np.zeros((3, 0), dtype=np.int64)):
        unpacked = Keys(table).rows()
        assert unpacked.dtype == np.int64 and unpacked.shape == table.shape
        assert unpacked.tolist() == table.tolist()


class TestKeysRows:
    @settings(max_examples=300, deadline=None)
    @given(rows_and_weights(), st.data())
    def test_unpacks_what_pack_packed(self, case, data):
        """Whole, and trimmed to a subset of its rows as a model trims a
        table it packed, a key unpacks to the rows it holds: one chunk,
        several (columns spanning 2**32 each), or a lone column spanning
        2**64."""
        rows, _ = case
        keys = Keys(rows)
        assert keys.rows().shape == rows.shape and keys.rows().tolist() == rows.tolist()
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        keep = np.array(keep, dtype=bool)
        keys.key = keys.key[keep]
        assert keys.rows().tolist() == rows[keep].tolist()


class TestSumRows:
    @settings(max_examples=300, deadline=None)
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


class TestGroupRows:
    @settings(max_examples=300, deadline=None)
    @given(rows_and_weights())
    def test_order_is_a_stable_lexsort(self, case):
        rows, _ = case
        order, starts = group_rows(rows)
        assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()
        ordered = list(map(tuple, rows[order].tolist()))
        assert starts.tolist() == [
            i for i, row in enumerate(ordered) if i == 0 or row != ordered[i - 1]
        ]


class TestCheckStrictlySorted:
    @settings(max_examples=300, deadline=None)
    @given(maybe_sorted_rows(), st.sampled_from([1, 2, 5, ONE_BLOCK]))
    def test_matches_tuple_order(self, rows, block):
        # blocks of a few row pairs, which overlap by one row, or one block
        tuples = list(map(tuple, rows.tolist()))
        key = Keys(rows).key
        with blocks_of(block):
            if all(a < b for a, b in zip(tuples, tuples[1:])):
                check_strictly_sorted(key, "drawn")
            else:
                with pytest.raises(ValueError, match="drawn rows are not strictly sorted"):
                    check_strictly_sorted(key, "drawn")


# one way to damage a row of two key fields and one value field, each
# breaking another part of the row grammar that ``Reader.rows`` checks
ROW_DAMAGE = {
    "a tab for a space": lambda row: row.replace(b" ", b"\t"),
    "a field missing": lambda row: row.rpartition(b"\t")[0],
    "a letter": lambda row: row + b"x",
    "a byte 0xff": lambda row: b"\xff" + row,
    "a minus sign inside a field": lambda row: row + b"-1",
    "a signed field": lambda row: b"-" + row,
    "an empty field": lambda row: b" " + row.partition(b" ")[2],
    "a 19-digit field": lambda row: row + b"0" * 18,
}


def sectioned(rows: list[bytes]) -> bytes:
    """A file of three header lines, then ``#rows`` (line 4) and the rows
    from line 5 on."""
    head = [b"#v", b"#n\t7", b"#x\t0.5", b"#rows\t%d" % len(rows)]
    return b"\n".join(head + rows) + b"\n"


def opened(data: bytes) -> Reader:
    return Reader("f.txt", "#v", "test", data)


def read(data: bytes) -> np.ndarray:
    r = opened(data)
    assert (r.int_line("#n"), r.float_line("#x")) == (7, 0.5)
    rows = r.rows("#rows", 2, 1, r.int_line("#rows"))
    r.end("the rows")
    return rows


class TestReaderLines:
    """Every error at a place in a ``Reader`` file names its 1-based line."""

    ROWS = [b"%d %d\t%d" % (i, i + 1, 10 * i) for i in range(6)]

    def test_good_rows_are_read(self):
        assert read(sectioned(self.ROWS)).tolist() == [[i, i + 1, 10 * i] for i in range(6)]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([4, 24, 64, ONE_BLOCK]))
    def test_the_first_damaged_row_is_named(self, data, block):
        # in blocks of one or a few lines, or in one block: the first
        # damaged row lies in the first block that fails a check
        rows = list(self.ROWS)
        damaged = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1), label="rows")
        for i in damaged:
            rows[i] = ROW_DAMAGE[data.draw(st.sampled_from(sorted(ROW_DAMAGE)))](rows[i])
        want = f"corrupt test file f.txt: line {5 + min(damaged)}: malformed #rows rows"
        with blocks_of(block):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                read(sectioned(rows))

    def test_a_cut_off_last_row_is_named(self):
        data = sectioned(self.ROWS)
        with pytest.raises(ValueError, match="line 10: malformed #rows rows"):
            read(data[:-3])

    @pytest.mark.parametrize("declared, found", [(5, 6), (7, 6)])
    def test_a_row_count_mismatch_names_the_section_line(self, declared, found):
        data = sectioned(self.ROWS).replace(b"#rows\t6", b"#rows\t%d" % declared)
        with pytest.raises(ValueError, match=f"line 4: #rows declares {declared} rows, {found} found"):
            read(data)

    @pytest.mark.parametrize("old, new, message", [
        (b"#n\t7", b"#n\tseven", "line 2: n is not an integer: 'seven'"),
        (b"#x\t0.5", b"#x\thalf", "line 3: x is not a number: 'half'"),
        (b"#x\t0.5", b"#y\t0.5", "line 3: expected a #x line with 1 field(s)"),
        (b"#rows\t6", b"#rows\tsix", "line 4: #rows row count is not an integer: 'six'"),
        # what int() takes beyond the row grammar: underscores, a plus
        # sign, blanks, non-ASCII digits, 19 digits
        (b"#n\t7", b"#n\t3_3", "line 2: n is not an integer: '3_3'"),
        (b"#n\t7", b"#n\t+33", "line 2: n is not an integer: '+33'"),
        (b"#n\t7", b"#n\t 33", "line 2: n is not an integer: ' 33'"),
        (b"#n\t7", "#n\t\u0663\u0663".encode(), "line 2: n is not an integer: '\u0663\u0663'"),
        (b"#n\t7", b"#n\t" + b"1" * 19, f"line 2: n is not an integer: '{'1' * 19}'"),
        (b"#rows\t6", b"#rows\t6 ", "line 4: #rows row count is not an integer: '6 '"),
        # what float() takes beyond what repr writes for a finite float
        *[(b"#x\t0.5", b"#x\t" + x.encode(), f"line 3: x is not a number: {x!r}")
          for x in ["\u0660.\u0665", "1_0.5", "+0.5", ".5", "5.", " 0.5", "0.5 ", "5E-01",
                    "infinity", "inf", "nan", "1e+999", "0x1p-1", ""]],
    ])
    def test_a_bad_header_line_is_named(self, old, new, message):
        data = sectioned(self.ROWS).replace(old, new)
        r = opened(data)
        with pytest.raises(ValueError, match=re.escape(f"corrupt test file f.txt: {message}")):
            r.int_line("#n")
            r.float_line("#x")
            r.int(r.line("#rows", 1)[0], "#rows row count")

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_a_header_number_reads_back_what_repr_wrote(self, x):
        r = opened(b"#v\n#x\t%s\n" % repr(x).encode())
        assert repr(r.float_line("#x")) == repr(x)

    def test_missing_cut_off_and_extra_lines_are_named(self):
        with pytest.raises(ValueError, match="line 2: missing #n line"):
            opened(b"#v\n").int_line("#n")
        with pytest.raises(ValueError, match="line 2: cut-off #n line"):
            opened(b"#v\n#n\t7").int_line("#n")
        with pytest.raises(ValueError, match="line 11: unexpected content after the rows"):
            read(sectioned(self.ROWS) + b"#more\n")


# fields of 1 to 18 digits, and the ends of that range
FIELDS = st.one_of(st.integers(0, 12), st.integers(0, 10**18 - 1), st.sampled_from([10**18 - 1]))


@st.composite
def sections(draw):
    """(text, n_key, n_value, rows): a ``sectioned`` file of rows."""
    n_key, n_value = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rows = draw(st.lists(st.tuples(*[FIELDS] * (n_key + n_value)), max_size=30))
    lines = [
        b" ".join(b"%d" % v for v in row[:n_key]) + b"".join(b"\t%d" % v for v in row[n_key:])
        for row in rows
    ]
    return sectioned(lines), n_key, n_value, rows


def parse(data: bytes, n_key: int, n_value: int) -> np.ndarray:
    r = opened(data)
    r.int_line("#n"), r.float_line("#x")
    return r.rows("#rows", n_key, n_value, r.int_line("#rows"))


class TestBlockedPasses:
    """Each blocked pass, run with blocks of a few bytes so that its input
    spans many of them, gives what one block gives."""

    @settings(max_examples=200, deadline=None)
    @given(sections(), st.sampled_from([4, 8, 24, 64, 160]))
    def test_rows_parse_as_in_one_block(self, case, block):
        data, n_key, n_value, rows = case
        with blocks_of(ONE_BLOCK):
            whole = parse(data, n_key, n_value)
        with blocks_of(block):
            blocked = parse(data, n_key, n_value)
        assert blocked.shape == whole.shape == (len(rows), n_key + n_value)
        assert blocked.tolist() == whole.tolist() == [list(row) for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(tables_and_queries(), st.sampled_from([8, 16, 24, 64]))
    def test_lookups_match_one_shot_lookups(self, case, block):
        table, queries = case
        keys = Keys(table)
        with blocks_of(ONE_BLOCK):
            whole = find_rows(keys, queries)
        with blocks_of(block):
            at, found = find_rows(keys, queries)
        assert at.tolist() == whole[0].tolist() == lookup_oracle(table, queries)
        assert found.tolist() == whole[1].tolist()

    @pytest.mark.parametrize("damage", sorted(ROW_DAMAGE))
    def test_a_damaged_row_in_a_later_block_is_named_by_its_line(self, damage):
        # about 120 KB of rows: text blocks of the real size are a quarter
        # of _BLOCK_BYTES, so row 7000 lies in the seventh of them
        rows = [b"%d %d\t%d" % (i, i + 1, 10 * i) for i in range(8000)]
        k = 7000
        rows[k] = ROW_DAMAGE[damage](rows[k])
        data = sectioned(rows)
        assert data.index(rows[k]) > 6 * (_rows._BLOCK_BYTES // 4)
        with pytest.raises(ValueError) as blocked:
            read(data)
        with blocks_of(ONE_BLOCK), pytest.raises(ValueError) as whole:
            read(data)
        assert str(blocked.value) == str(whole.value)
        assert str(blocked.value) == f"corrupt test file f.txt: line {5 + k}: malformed #rows rows"


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**31),
                st.integers(0, 2**63 - 1),
                st.sampled_from([2**31 - 1, 2**31, 2**62, 2**63 - 1]),
            ),
            max_size=40,
        ),
        st.sampled_from([8, 16, 64, ONE_BLOCK]),
    )
    def test_matches_a_python_sum(self, values, block):
        # blocks of 1, 2 or 8 values, or one block
        with blocks_of(block):
            total = exact_sum(np.array(values, dtype=np.int64))
        assert total == sum(values) and type(total) is int


# field values at each digit count's edges: 0, 9, 10, 10**k - 1, 10**k
# and 10**k + 1, up to the largest 18-digit value
EDGE_VALUES = np.array(
    sorted({0, 9, 10} | {10**k + d for k in range(1, 18) for d in (-1, 0, 1)} | {10**18 - 1}),
    dtype=np.int64,
)


@st.composite
def row_matrices(draw):
    """(keys, values): 1-3 key columns and 0-2 value columns of 4,095 to
    4,097 rows (about one write block), each column's values drawn from
    the edge values below a drawn bound, keys as int32 where they fit."""
    n_key, n_value = draw(st.integers(1, 3), label="keys"), draw(st.integers(0, 2), label="values")
    n_rows = draw(st.sampled_from([1, 4095, 4096, 4097]), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    cols = [
        rng.choice(EDGE_VALUES[: draw(st.integers(1, len(EDGE_VALUES)), label="bound")], n_rows)
        for _ in range(n_key + n_value)
    ]
    keys = np.column_stack(cols[:n_key])
    if keys.max() < 2**31 and draw(st.booleans(), label="int32 keys"):
        keys = keys.astype(np.int32)
    return keys, cols[n_key:]


def written(writer, keys, values) -> bytes:
    fh = io.BytesIO()
    writer(fh, keys, *values)
    return fh.getvalue()


def grammar_rows(text: bytes, n_key: int, n_value: int) -> list[list[int]] | int:
    r"""The rows of section ``text`` read a line at a time by the row
    grammar, or the 0-based index of the first line it rejects: each line
    ends in a newline, one ``\r`` before it dropped, and is ``n_key``
    fields joined by spaces, then ``n_value`` more after tabs, each field
    1 to 18 ASCII digits."""
    rows = []
    for i, line in enumerate(text.split(b"\n")):
        if i == text.count(b"\n"):  # what follows the last newline
            return rows if line == b"" else i
        line = line.removesuffix(b"\r")
        keys, *values = line.split(b"\t")
        fields = keys.split(b" ") + values
        if len(fields) - len(values) != n_key or len(values) != n_value:
            return i
        if not all(1 <= len(f) <= 18 and all(48 <= c <= 57 for c in f) for f in fields):
            return i
        rows.append([int(f) for f in fields])


class TestCodec:
    """The digit-matrix writer against the digit-by-digit one, and the
    reader and its header integers against the row grammar."""

    @settings(max_examples=60, deadline=None)
    @given(row_matrices())
    def test_rows_are_written_as_by_the_digit_by_digit_writer(self, case):
        keys, values = case
        text = written(write_rows, keys, values)
        assert text == written(oracle_write_rows, keys, values)
        section = b"#v\n#n\t7\n#x\t0.5\n#rows\t%d\n" % len(keys) + text
        parsed = parse(section, keys.shape[1], len(values))
        assert parsed.tolist() == np.column_stack([keys, *values]).tolist()

    def test_fields_of_19_digits_are_written_as_by_the_digit_by_digit_writer(self):
        keys = np.array([[10**18, 0], [2**63 - 1, 9], [10**18 - 1, 10**18]], dtype=np.int64)
        values = [np.array([2**62, 1, 10**18 + 1])]
        assert written(write_rows, keys, values) == written(oracle_write_rows, keys, values)

    # each mutation at a drawn position of a section's text: ``at`` is
    # a byte offset, ``sep_at`` the offset of a separator
    MUTATIONS = {
        "a minus sign": lambda text, at, sep_at: text[:at] + b"-" + text[at:],
        "a carriage return": lambda text, at, sep_at: text[:at] + b"\r" + text[at:],
        "a plus sign": lambda text, at, sep_at: text[:at] + b"+" + text[at:],
        "an underscore": lambda text, at, sep_at: text[:at] + b"_" + text[at:],
        "a letter": lambda text, at, sep_at: text[:at] + b"e" + text[at:],
        "a 19-digit field": lambda text, at, sep_at: text[:sep_at] + b"1" * 19 + text[sep_at:],
        "a doubled separator": lambda text, at, sep_at: text[: sep_at + 1] + text[sep_at:],
        "a deleted separator": lambda text, at, sep_at: text[:sep_at] + text[sep_at + 1 :],
    }

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([4, 24, 64, ONE_BLOCK]))
    def test_mutated_rows_are_read_as_by_the_row_grammar(self, data, block):
        # in blocks of a line or a few, or in one block: the rows, or
        # malformed rows at the first line the grammar rejects
        n_key, n_value = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        field = st.one_of(st.integers(0, 999), st.integers(0, 10**18 - 1))
        rows = data.draw(st.lists(st.tuples(*[field] * (n_key + n_value)), min_size=1, max_size=12))
        text = b"".join(
            b" ".join(b"%d" % v for v in row[:n_key])
            + b"".join(b"\t%d" % v for v in row[n_key:]) + b"\n"
            for row in rows
        )
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            seps = [i for i, b in enumerate(text) if b in b" \t\n"]
            mutate = self.MUTATIONS[data.draw(st.sampled_from(sorted(self.MUTATIONS)))]
            text = mutate(
                text,
                data.draw(st.integers(0, len(text)), label="at"),
                data.draw(st.sampled_from(seps), label="separator") if seps else 0,
            )
        want = grammar_rows(text, n_key, n_value)
        if text.endswith(b"\n"):  # whole lines, as Reader.rows passes them
            pattern = np.array([32] * (n_key - 1) + [9] * n_value + [10], dtype=np.uint8)
            lines = text.replace(b"\r\n", b"\n")  # as Reader reads the file
            faulty = _rows._fault(np.frombuffer(lines, dtype=np.uint8), pattern)
            assert faulty == isinstance(want, int)
        if isinstance(want, int):
            want = f"corrupt test file f.txt: line {5 + want}: malformed #rows rows"

        section = b"#v\n#n\t7\n#x\t0.5\n#rows\t%d\n" % text.count(b"\n") + text
        with blocks_of(block):
            try:
                got = parse(section, n_key, n_value).tolist()
            except ValueError as exc:
                got = str(exc)
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.integers(-(10**19), 10**19).map(str),
        st.text(st.sampled_from("0123456789-+_ \t.ex\u0663\u00a0"), max_size=21),
        st.text(max_size=4),
    ))
    def test_a_header_integer_is_a_row_field_with_an_optional_minus_sign(self, text):
        field = text[1:] if text.startswith("-") else text
        one_row = (field + "\n").encode()
        pattern = np.array([10], dtype=np.uint8)
        accepted = one_row.count(b"\n") == 1 and not _rows._fault(
            np.frombuffer(one_row, dtype=np.uint8), pattern
        )
        r = opened(b"#v\n#n\t7\n")
        r.int_line("#n")
        if accepted:
            assert r.int(text, "n") == int(text)
        else:
            want = f"corrupt test file f.txt: line 2: n is not an integer: {text!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                r.int(text, "n")
