"""Integer row sections: the text codec of the counts, clustering,
class model and backoff model files, and the row operations they share.
``Reader`` opens each of these files, and the mixture file, and is the
one check of their version lines.

A section is a run of lines, one per row of an integer matrix: the
row's key fields separated by spaces, then each value field after a
tab, as in ``3 17<TAB>5<TAB>2``.  Rows are formatted and parsed a whole
array at a time with numpy, and formatting a parsed section gives back
its bytes.

Rows are compared lexicographically.  ``find_rows`` is the one row
lookup: it searches a strictly sorted table without sorting it.
``sum_rows`` is the one count: the distinct rows of an unsorted array,
sorted, with how often each occurs or the sum of its weights.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

_ROWS_PER_WRITE = 1 << 12

# version lines of formats no loader reads any more, and how to replace such a file
_RETIRED = {
    b"#clusterlm-classlm v1": "is a v1 class model, which only referenced its training "
    "files; re-run `clusterlm cluster run --model-out` to write a self-contained model",
    b"#clusterlm-backoff v1": "is a v1 backoff model, which stored rounded log "
    "probabilities; re-run `clusterlm ngram train` to write a v2 model",
}


def write_rows(fh: BinaryIO, keys: np.ndarray, *values: np.ndarray) -> None:
    """Write one ASCII line per row of non-negative integers: the
    columns of ``keys`` separated by spaces, then a tab before the row's
    entry of each of ``values``.  Formatted with numpy digit position by
    digit position, a block of rows at a time so the temporaries stay
    small."""
    n_cols = keys.shape[1] + len(values)
    seps = np.full(n_cols, ord(" "), dtype=np.uint8)
    seps[keys.shape[1] - 1 :] = ord("\t")
    seps[-1] = ord("\n")
    for lo in range(0, len(keys), _ROWS_PER_WRITE):
        hi = lo + _ROWS_PER_WRITE
        flat = np.column_stack([keys[lo:hi], *(v[lo:hi] for v in values)]).astype(np.int64).ravel()
        n_digits = np.searchsorted(10 ** np.arange(1, 19, dtype=np.int64), flat, side="right") + 1
        ends = np.cumsum(n_digits + 1) - 1  # the separator after each field
        out = np.empty(int(ends[-1]) + 1, dtype=np.uint8)
        out[ends] = np.tile(seps, len(flat) // n_cols)
        for j in range(int(n_digits.max())):
            live = n_digits > j
            out[(ends - 1 - j)[live]] = ord("0") + flat[live] % 10
            flat //= 10
        fh.write(out.tobytes())


class Reader:
    """Cursor over the bytes of a file of header lines and row sections,
    after its version line.  Every error is a ``ValueError`` opened by
    ``corrupt``."""

    def __init__(self, path: str | Path, version: str, what: str, data: bytes | None = None):
        """Open the ``what`` file ``path``, whose bytes are ``data`` (all of
        the file's by default).  A first line other than ``version`` raises
        ``ValueError``, with a re-run hint for a retired version."""
        self.data = Path(path).read_bytes() if data is None else data
        first, _, _ = self.data.partition(b"\n")
        if first in _RETIRED:
            raise ValueError(f"{path} {_RETIRED[first]}")
        if first != version.encode():
            raise ValueError(f"not a {what} file: {path}")
        self.pos = len(first) + 1
        self.corrupt = f"corrupt {what} file"

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.corrupt}: {message}")

    def at(self, key: str) -> bool:
        """Whether the next line is a ``key`` line with fields."""
        return self.data.startswith(key.encode() + b"\t", self.pos)

    def line(self, key: str, n_fields: int) -> list[str]:
        """Fields of the next line, which must be ``key`` plus
        ``n_fields`` tab-separated fields."""
        end = self.data.find(b"\n", self.pos)
        if end < 0:
            raise self.error(f"missing {key} line")
        fields = self.data[self.pos : end].decode("utf-8").split("\t")
        if fields[0] != key or len(fields) != n_fields + 1:
            raise self.error(f"expected a {key} line with {n_fields} field(s)")
        self.pos = end + 1
        return fields[1:]

    def int(self, text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise self.error(f"{what} is not an integer: {text!r}") from None

    def int_line(self, key: str) -> int:
        """The integer of the next line, ``key<TAB>n``."""
        return self.int(self.line(key, 1)[0], key[1:])

    def float_line(self, key: str) -> float:
        """The number of the next line, ``key<TAB>x``."""
        text = self.line(key, 1)[0]
        try:
            return float(text)
        except ValueError:
            raise self.error(f"{key[1:]} is not a number: {text!r}") from None

    def rows(self, what: str, n_key: int, n_value: int, n_rows: int | None = None) -> np.ndarray:
        """The integer rows up to the next ``#`` line or the end, each
        ``n_key`` space-separated fields and ``n_value`` more after tabs,
        parsed in one pass.  A field is an optionally negative integer
        of 1 to 18 digits.  When ``n_rows`` is given there must be
        exactly that many rows."""
        data, pos = self.data, self.pos
        if pos >= len(data) or data.startswith(b"#", pos):
            end = pos
        else:
            nxt = data.find(b"\n#", pos)
            end = len(data) if nxt < 0 else nxt + 1
        body = data[pos:end]
        found = body.count(b"\n")
        if n_rows is not None and found != n_rows:
            raise self.error(f"{what} declares {n_rows} rows, {found} found")
        n_cols = n_key + n_value
        buf = np.frombuffer(body, dtype=np.uint8)
        is_sep = (buf == 32) | (buf == 9) | (buf == 10)
        sep_at = np.flatnonzero(is_sep)
        pattern = np.array([32] * (n_key - 1) + [9] * n_value + [10], dtype=np.uint8)
        cut = body and not body.endswith(b"\n")  # a last line without its newline
        if cut or sep_at.size != found * n_cols or (
            buf[sep_at].reshape(found, n_cols) != pattern
        ).any():
            raise self.error(f"malformed {what} rows")
        is_minus = buf == 45
        if not (is_sep | is_minus | ((buf >= 48) & (buf <= 57))).all():
            raise self.error(f"{what} holds a field that is not an integer")
        widths = np.diff(sep_at, prepend=-1) - 1
        signed = is_minus[sep_at - widths]
        if int(signed.sum()) != int(is_minus.sum()):
            raise self.error(f"{what} holds a minus sign inside a field")
        # every field is 1 to 18 digits, so the parse below is exact
        widths -= signed
        if widths.size and (widths.min() < 1 or widths.max() > 18):
            raise self.error(f"{what} holds an empty or oversized field")
        values = np.fromstring(body, dtype=np.int64, sep=" ")
        self.pos = end
        return values.reshape(found, n_cols)

    def end(self, after: str) -> None:
        if self.pos != len(self.data):
            raise self.error(f"unexpected content after {after}")


def check_range(values: np.ndarray, lo: int, hi: int, what: str) -> None:
    if values.size and (int(values.min()) < lo or int(values.max()) >= hi):
        raise ValueError(f"{what} outside [{lo}, {hi})")


def check_strictly_sorted(rows: np.ndarray, what: str) -> None:
    """Rows must increase strictly in lexicographic order."""
    if len(rows) < 2:
        return
    before, after = rows[:-1], rows[1:]
    differ = before != after
    first = differ.argmax(axis=1)
    at = np.arange(len(first))
    if not (differ.any(axis=1) & (after[at, first] > before[at, first])).all():
        raise ValueError(f"{what} rows are not strictly sorted")


def row_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before them."""
    out = np.ones(len(rows), dtype=bool)
    out[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return out


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the stable permutation that sorts ``rows``
    lexicographically, and the positions in that order where a new
    distinct row begins.  Rows without columns form one group."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    return order, np.flatnonzero(row_starts(rows[order]))


def sum_rows(rows: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` in sorted order, and the sum of
    ``weights`` over each (how often each occurs without ``weights``)."""
    order, starts = group_rows(rows)
    if weights is None:
        return rows[order[starts]], np.diff(starts, append=len(rows))
    return rows[order[starts]], np.add.reduceat(weights[order], starts)


def find_rows(table: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found): for each query row, the index of the equal row of
    the strictly sorted ``table`` (-1 if there is none), and whether
    there is one.

    The table's values must lie in [0, 2**32).  Column by column, a
    table row's key is the index of the first row sharing its earlier
    columns, shifted left by 32 bits, plus its value in that column.
    The keys ascend, so one ``np.searchsorted`` per column narrows each
    query to the first row sharing its columns so far.  A query value
    outside the table's range can only narrow to a wrong row, which the
    final comparison turns into not found, so any int64 query works."""
    queries = np.asarray(queries, dtype=np.int64)
    n = len(table)
    at = np.zeros(len(queries), dtype=np.int64)
    found = np.full(len(queries), n > 0)
    first = np.zeros(n, dtype=np.int64)  # first row sharing the columns so far
    for j in range(table.shape[1] if n else 0):
        keys = (first << 32) + table[:, j]
        want = (at << 32) + queries[:, j]
        at = np.minimum(np.searchsorted(keys, want), n - 1)
        found &= keys[at] == want
        if j + 1 < table.shape[1]:
            new = np.ones(n, dtype=bool)
            new[1:] = keys[1:] != keys[:-1]
            first = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    found[found] = (table[at[found]] == queries[found]).all(axis=1)
    at[~found] = -1
    return at, found


def tuples(rows: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Rows of a 2-D integer array as tuples of Python ints."""
    return zip(*rows.T.tolist())
