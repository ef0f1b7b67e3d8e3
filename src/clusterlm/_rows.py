"""Integer row sections: the text codec of the counts, clustering,
class model and backoff model files, and the row operations they share.
``Reader`` opens each of these files, and the mixture file, and is the
one check of their version lines and of where their lines end.

A section is a run of lines, one per row of an integer matrix: the
row's key fields separated by spaces, then each value field after a
tab, as in ``3 17<TAB>5<TAB>2``.  Formatting a parsed section gives
back its bytes.

A field is 1 to 18 ASCII digits, which ``np.fromstring`` parses
exactly; no row holds a sign.  ``Reader.rows`` checks and parses a block
of whole lines at a time, and its one check is ``_fault``'s few array
passes: the bytes below ``b"0"`` are exactly the separators, tiled row
by row, no byte is above ``b"9"``, and every field has 1 to 18 digits.
A block that fails it is ``malformed <what> rows`` at its first line
that is not a row.  ``Reader.int`` reads a header integer as the same
field, with an optional minus sign, and ``Reader.float`` reads a header
number only as ``repr`` writes a finite float.  ``write_rows`` formats
a block of rows as a matrix of right-aligned digits, one floor division
by 10 per digit position, and drops each field's leading zeros in one
compaction.

Every pass over rows here but the sorts and ``write_rows`` works in
blocks whose largest temporary array stays under ``_BLOCK_BYTES``: below
glibc's 128 KiB mmap threshold, which ``cli`` fixes so that each larger
array is a fresh mapping, paged in anew.  Block temporaries come from
the heap and are reused; only a pass's output is allocated at full size.
``write_rows`` keeps its blocks of ``_ROWS_PER_WRITE`` rows, whose widest
temporaries are mapped: writing from heap blocks saved few page faults,
but left the heap of a process that runs several commands larger.

Rows are compared lexicographically, through ``Keys``: each row packed
into one int64 key, its number in mixed radix (each column shifted by
its minimum and scaled by the later columns' spans), so that sorting,
comparing and searching keys does so to rows.  Where the spans multiply
to 2**62 or more, the columns are packed into as few int64 chunks as
needed, and the same functions compare the chunks in turn.
``group_rows`` and ``sum_rows`` pack the rows they are given;
``find_rows``, the one row lookup, searches a table packed once by its
owner for a block of queries at a time, in key order so that
consecutive searches share their path through the table,
``check_table`` is the one check of a table of counted rows (events,
n-grams, the class model's cells and tables): each column's range read
off the pack's own ``lo`` and ``hi``, each count in [1, 2**62) with an
exact total below 2**62, and the rows strictly sorted, on the same keys
(``check_strictly_sorted``); ``Keys.rows`` unpacks a table again for the
owner's writer.
``sum_rows`` is the one count of rows: the distinct rows of an unsorted
array, sorted, with how often each occurs or the sum of its weights.
``sum_ids`` is the one exact int64 sum of weights per dense id.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

_ROWS_PER_WRITE = 1 << 12
_BLOCK_BYTES = 1 << 16  # the largest temporary array of a blocked pass
_KEY_LIMIT = 1 << 62  # the spans of one key chunk multiply to less
_FIELD = "[0-9]{1,18}"  # a row field; a header integer may have a minus sign before it
INT = re.compile("-?" + _FIELD)  # a header integer, and a context spec's offset
_FIELDS = re.compile(f"{_FIELD}( {_FIELD})*")  # row fields, one space apart
_FLOAT = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")  # as repr(float) writes one

# version lines of formats no loader reads any more, and how to replace such a file
_RETIRED = {
    b"#clusterlm-classlm v1": "is a v1 class model, which only referenced its training "
    "files; re-run `clusterlm cluster run --model-out` to write a self-contained model",
    b"#clusterlm-classlm v2": "is a v2 class model, which kept its own copy of the "
    "context slots; re-run `clusterlm cluster run --model-out` to write a v3 model",
    b"#clusterlm-backoff v1": "is a v1 backoff model, which stored rounded log "
    "probabilities; re-run `clusterlm ngram train` to write a v2 model",
}


def _blocks(n: int, row_bytes: int) -> Iterator[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive blocks of ``n`` rows, sized so that
    a temporary of ``row_bytes`` per row stays within ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def write_rows(fh: BinaryIO, keys: np.ndarray, *values: np.ndarray) -> None:
    """Write one ASCII line per row of non-negative integers: the
    columns of ``keys`` separated by spaces, then a tab before the row's
    entry of each of ``values``.

    A block of rows at a time becomes a matrix of one line per field:
    its digits right-aligned in the width of the block's largest field,
    then its separator.  Each digit position takes one floor division by
    10, in the smallest unsigned type that holds the block's largest
    field, whose division numpy vectorises; a field's leading zeros are
    marked as its quotient reaches 0, and one compaction drops them."""
    n_cols = keys.shape[1] + len(values)
    seps = np.full(n_cols, ord(" "), dtype=np.uint8)
    seps[keys.shape[1] - 1 :] = ord("\t")
    seps[-1] = ord("\n")
    for lo in range(0, len(keys), _ROWS_PER_WRITE):
        hi = lo + _ROWS_PER_WRITE
        q = np.column_stack([keys[lo:hi], *(v[lo:hi] for v in values)])
        top = int(q.max())
        q = q.astype(np.min_scalar_type(top)).ravel()
        width = len(str(top))
        text = np.empty((len(q), width + 1), dtype=np.uint8)
        keep = np.ones((len(q), width + 1), dtype=bool)
        text[:, width] = np.tile(seps, len(q) // n_cols)
        for j in range(width - 1, 0, -1):
            nxt = q // 10
            text[:, j] = q - 10 * nxt + 48  # the digit, as a byte
            np.greater(nxt, 0, out=keep[:, j - 1])  # digit j - 1 is no leading zero
            q = nxt
        text[:, 0] = q + 48
        fh.write(text[keep].tobytes())


class Reader:
    """Cursor over the bytes of a file of header lines and row sections,
    after its version line.  Every error is a ``ValueError`` opened by
    ``corrupt``, which names the file; an error at a place in the file
    also names its 1-based line."""

    def __init__(self, path: str | Path, version: str, what: str, data: bytes | None = None):
        r"""Open the ``what`` file ``path``, whose bytes are ``data`` (all of
        the file's by default).  A first line other than ``version`` raises
        ``ValueError``, with a re-run hint for a retired version.  One
        ``\r`` before a ``\n`` is dropped, as by ``corpus._read_lines``."""
        data = Path(path).read_bytes() if data is None else data
        self.data = data.replace(b"\r\n", b"\n") if b"\r" in data else data  # no copy without one
        cut = self.data.find(b"\n")
        first = self.data if cut < 0 else self.data[:cut]
        if first in _RETIRED:
            raise ValueError(f"{path} {_RETIRED[first]}")
        if first != version.encode():
            raise ValueError(f"not a {what} file: {path}")
        self.pos = self.opened = len(first) + 1
        self.corrupt = f"corrupt {what} file {path}"

    def error(self, message: str, ahead: int | None = None, pos: int | None = None) -> ValueError:
        """``message`` about the file, or about its line ``ahead`` lines
        past the line read last (0 for that line itself), or past the
        line read last when the cursor stood at ``pos``."""
        if ahead is None:
            return ValueError(f"{self.corrupt}: {message}")
        line = self.data.count(b"\n", 0, self.pos if pos is None else pos) + ahead
        return ValueError(f"{self.corrupt}: line {line}: {message}")

    def at(self, key: str) -> bool:
        """Whether the next line is a ``key`` line with fields."""
        return self.data.startswith(key.encode() + b"\t", self.pos)

    def line(self, key: str, n_fields: int) -> list[str]:
        """Fields of the next line, which must be ``key`` plus
        ``n_fields`` tab-separated fields."""
        end = self.data.find(b"\n", self.pos)
        if end < 0:
            cut = self.pos < len(self.data)  # a last line without its newline
            raise self.error(f"cut-off {key} line" if cut else f"missing {key} line", 1)
        try:
            fields = self.data[self.pos : end].decode("utf-8").split("\t")
        except UnicodeDecodeError:
            line = self.data.count(b"\n", 0, self.pos) + 1
            raise self.error(f"line {line} is not UTF-8") from None
        if fields[0] != key or len(fields) != n_fields + 1:
            raise self.error(f"expected a {key} line with {n_fields} field(s)", 1)
        self.pos = self.opened = end + 1
        return fields[1:]

    def int(self, text: str, what: str) -> int:
        """``text``, a field of the line read last, as an integer: a row
        field with an optional minus sign."""
        if not INT.fullmatch(text):
            raise self.error(f"{what} is not an integer: {text!r}", 0)
        return int(text)

    def ints(self, text: str, what: str) -> np.ndarray:
        """``text``, a field of the line read last, as the int64 values of
        row fields one space apart; a fault names the first bad value."""
        if not _FIELDS.fullmatch(text):
            bad = next(v for v in text.split(" ") if not re.fullmatch(_FIELD, v))
            raise self.error(f"{what} is not 1 to 18 digits: {bad!r}", 0)
        return np.fromstring(text, dtype=np.int64, sep=" ")

    def int_line(self, key: str) -> int:
        """The integer of the next line, ``key<TAB>n``."""
        return self.int(self.line(key, 1)[0], key[1:])

    def float(self, text: str, what: str) -> float:
        """``text``, a field of the line read last, as a finite number
        written as ``repr`` writes a float."""
        if _FLOAT.fullmatch(text) and math.isfinite(value := float(text)):
            return value
        raise self.error(f"{what} is not a number: {text!r}", 0)

    def float_line(self, key: str) -> float:
        """The number of the next line, ``key<TAB>x``."""
        return self.float(self.line(key, 1)[0], key[1:])

    def rows(self, what: str, n_key: int, n_value: int, n_rows: int | None = None) -> np.ndarray:
        """The integer rows up to the next ``#`` line or the end, each
        ``n_key`` space-separated fields and ``n_value`` more after tabs,
        each field 1 to 18 digits.  When ``n_rows`` is given there must be
        exactly that many rows, as the section's ``#`` line, read last,
        declares.  The rows are counted first, then checked by ``_fault``
        and parsed in blocks of whole lines into one array.  Any fault is
        ``malformed <what> rows`` at the first line of the first failing
        block that is not a row."""
        data, pos = self.data, self.pos
        if pos >= len(data) or data.startswith(b"#", pos):
            end = pos
        else:
            nxt = data.find(b"\n#", pos)
            end = len(data) if nxt < 0 else nxt + 1

        def bad(lo: int, hi: int, row: int) -> ValueError:
            """The error at the first line of ``data[lo:hi]``, which
            starts at row ``row``, that is not a row, found by a scan that
            runs only once the check has failed."""
            field = _FIELD.encode()
            line = re.compile(field + (b" " + field) * (n_key - 1) + (b"\t" + field) * n_value)
            lines = data[lo:hi].split(b"\n")  # the last item is what follows the last newline
            at = next((i for i, x in enumerate(lines[:-1]) if not line.fullmatch(x)), len(lines) - 1)
            return self.error(f"malformed {what} rows", 1 + row + at)

        if end > pos and data[end - 1] != ord("\n"):  # a last line without its newline
            raise bad(pos, end, 0)
        found = data.count(b"\n", pos, end)
        if n_rows is not None and found != n_rows:
            raise self.error(f"{what} declares {n_rows} rows, {found} found", 0)
        pattern = np.array([32] * (n_key - 1) + [9] * n_value + [10], dtype=np.uint8)
        out = np.empty((found, len(pattern)), dtype=np.int64)
        lo, row = pos, 0
        while lo < end:
            # whole lines of at most a quarter of _BLOCK_BYTES, or one longer
            # line: one-digit fields give an int64 separator per two bytes
            cut = data.rfind(b"\n", lo, min(lo + _BLOCK_BYTES // 4, end))
            hi = (cut if cut >= 0 else data.find(b"\n", lo, end)) + 1
            block = data[lo:hi]
            if _fault(np.frombuffer(block, dtype=np.uint8), pattern):
                raise bad(lo, hi, row)
            fields = np.fromstring(block, dtype=np.int64, sep=" ")
            n = len(fields) // len(pattern)
            out[row : row + n] = fields.reshape(n, -1)
            lo, row = hi, row + n
        self.pos = end
        return out

    def section(self, key: str, n_key: int, n_value: int, n_rows: int | None = None) -> np.ndarray:
        """The rows of the section opened by the next line: ``key``, which
        may hold fixed fields after tabs (``#suffix<TAB>2``), then the
        section's row count, which must be ``n_rows`` when that is given.
        The rows are those of ``rows``; ``check`` names the opening line."""
        head, *fixed = key.split("\t")
        *got, count = self.line(head, len(fixed) + 1)
        if got != fixed:
            raise self.error(f"expected a {' '.join([head, *fixed])} line", 0)
        declared = self.int(count, f"{head} row count")
        if n_rows is not None and declared != n_rows:
            raise self.error(f"{head} declares {declared} rows, expected {n_rows}", 0)
        return self.rows(head, n_key, n_value, declared)

    def check(self, check: Callable[..., object], *args) -> None:
        """``check(*args)``, its ``ValueError`` naming the ``#`` line read
        last: a header line, or the line that opened the section read
        last."""
        try:
            check(*args)
        except ValueError as exc:
            raise self.error(str(exc), 0, self.opened) from None

    def end(self, after: str) -> None:
        if self.pos != len(self.data):
            raise self.error(f"unexpected content after {after}", 1)


def _fault(buf: np.ndarray, pattern: np.ndarray) -> bool:
    """Whether ``buf``, whole lines, is not rows whose separators are
    ``pattern``: rows are when the bytes below ``b"0"`` are exactly the
    separators, tiled as in ``pattern``, none is above ``b"9"``, and
    each field, between two separators or before the first, has 1 to
    18 digits."""
    sep_at = np.flatnonzero(buf < 48)
    tiled = pattern.tobytes() * (sep_at.size // len(pattern))
    if buf[sep_at].tobytes() != tiled or buf.max() > 57:
        return True
    gaps = np.diff(sep_at)  # each field's width plus 1, but the first field's
    return not (0 < sep_at[0] <= 18 and gaps.min(initial=2) > 1 and gaps.max(initial=2) <= 19)


class Keys:
    """The rows of an integer matrix packed into sortable int64 keys.

    Each column is shifted by its minimum and scaled by the product of
    the later columns' spans (maximum - minimum + 1), and the row's key
    is the sum: its number in mixed radix, so keys order as the rows do
    and equal keys are equal rows.  While the spans multiply to less than
    2**62 that is one int64 per row; beyond, consecutive columns are
    packed into as few int64 chunks as needed, compared in turn.  A
    column spanning 2**62 or more is a chunk of its own, unshifted.

    ``key`` holds one row of chunks per packed row; ``lo`` and ``hi``
    are each column's range, which ``pack`` requires of its rows, and
    ``chunks`` lists each chunk's (column, shift, span) in order.
    """

    def __init__(self, rows: np.ndarray):
        n = len(rows)
        self.lo = [int(rows[:, j].min()) if n else 0 for j in range(rows.shape[1])]
        self.hi = [int(rows[:, j].max()) if n else 0 for j in range(rows.shape[1])]
        self.chunks: list[list[tuple[int, int, int]]] = []
        product = _KEY_LIMIT
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            span = hi - lo + 1
            if product * span >= _KEY_LIMIT:
                self.chunks.append([])
                product = 1
            product *= span
            self.chunks[-1].append((j, lo if span < _KEY_LIMIT else 0, span))
        self.key = self.pack(rows)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The (len(rows), chunks) int64 keys of ``rows``, whose values
        must lie in the columns' ranges (one zero chunk for no columns).
        Each chunk is packed in place by Horner's rule; a step may wrap
        around int64, but the key it ends at fits, so the key is exact."""
        if not self.chunks:
            return np.zeros((len(rows), 1), dtype=np.int64)
        out = np.empty((len(rows), len(self.chunks)), dtype=np.int64)
        for c, ((j, shift, _), *rest) in enumerate(self.chunks):
            key = out[:, c]
            np.subtract(rows[:, j], np.int64(shift), out=key)
            for j, shift, span in rest:
                key *= np.int64(span)
                key += rows[:, j]
                key -= np.int64(shift)
        return out

    def rows(self) -> np.ndarray:
        """The (len(key), columns) int64 rows that ``key`` holds, the
        inverse of ``pack``: per chunk, ``np.divmod`` by each later
        column's span peels that column off, last first, and each column
        gets its shift back."""
        out = np.empty((len(self.key), len(self.lo)), dtype=np.int64)
        for c, ((first, shift, _), *rest) in enumerate(self.chunks):
            key = self.key[:, c]
            for j, later_shift, span in rest[::-1]:
                key, out[:, j] = np.divmod(key, np.int64(span))
                out[:, j] += np.int64(later_shift)
            np.add(key, np.int64(shift), out=out[:, first])
        return out


def exact_sum(values: np.ndarray) -> int:
    """The sum of non-negative int64 ``values`` as an exact Python int:
    the int64 sums of their high and low 31-bit halves, a block at a
    time, joined.  A block's sum of either half cannot wrap."""
    high = low = 0
    for lo, hi in _blocks(len(values), 8):
        block = values[lo:hi]
        high += int(np.sum(block >> 31))
        low += int(np.sum(block & (2**31 - 1)))
    return (high << 31) + low


def check_range(values: np.ndarray, lo: int, hi: int, what: str) -> None:
    if values.size and (int(values.min()) < lo or int(values.max()) >= hi):
        raise ValueError(f"{what} outside [{lo}, {hi})")


def check_strictly_sorted(key: np.ndarray, what: str) -> None:
    """Key rows (``Keys.key``) must increase strictly: each row is larger
    than the one before it in the first chunk where the two differ;
    ``check_table`` checks every table's order here."""
    for lo, hi in _blocks(len(key) - 1, 1):  # the pairs (i, i + 1) for lo <= i < hi
        before, after = key[lo:hi], key[lo + 1 : hi + 1]
        ok = after[:, -1] > before[:, -1]
        for c in range(key.shape[1] - 2, -1, -1):  # an earlier chunk decides where it differs
            ok = (after[:, c] > before[:, c]) | ((after[:, c] == before[:, c]) & ok)
        if not ok.all():
            raise ValueError(f"{what} rows are not strictly sorted")


def check_table(keys: Keys, counts: np.ndarray | None, columns: Sequence, what: str) -> int:
    """The one check of the ``what`` table of rows packed as ``keys``,
    with ``counts`` (one per row) or none: column j's values lie in
    [0, hi) for ``columns[j]`` = (name, hi), as the pack's own ``lo`` and
    ``hi`` tell, each count lies in [1, 2**62) and their exact total,
    which is returned (0 without counts), below 2**62, and the rows
    increase strictly.  A fault raises ``ValueError`` naming ``what``
    and the column or the rule."""
    for (name, hi), first, last in zip(columns, keys.lo, keys.hi):
        if len(keys.key) and (first < 0 or last >= hi):
            raise ValueError(f"{what} {name} outside [0, {hi})")
    if counts is not None and counts.size and not 1 <= counts.min() <= counts.max() < _KEY_LIMIT:
        raise ValueError(f"{what} counts outside [1, 2**62)")
    total = 0 if counts is None else exact_sum(counts)
    if total >= _KEY_LIMIT:
        raise ValueError(f"{what} counts must add up to less than 2**62")
    check_strictly_sorted(keys.key, what)
    return total


def row_starts(key: np.ndarray) -> np.ndarray:
    """Mask of the sorted key rows (``Keys.key``) that differ from the
    row before them."""
    out = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:, 0], key[:-1, 0], out=out[1:])
    for c in range(1, key.shape[1]):
        out[1:] |= key[1:, c] != key[:-1, c]
    return out


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the stable permutation that sorts ``rows``
    lexicographically, and the positions in that order where a new
    distinct row begins.  Rows without columns form one group."""
    key = Keys(rows).key
    order = _order(key, "stable")
    return order, np.flatnonzero(row_starts(key[order]))


def sum_rows(rows: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` in sorted order, and the sum of
    ``weights`` over each (how often each occurs without ``weights``).
    Equal keys are equal rows, so the order within a tie changes no sum
    and the sort need not be stable."""
    key = Keys(rows).key
    order = _order(key, None)
    starts = np.flatnonzero(row_starts(key[order]))
    distinct = rows.take(order[starts], axis=0)  # a row gather, many times faster than rows[...]
    if weights is None:
        return distinct, np.diff(starts, append=len(rows))
    return distinct, np.add.reduceat(weights[order], starts)


def sum_ids(ids: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The exact int64 sum of ``weights`` at each id in ``[0, size)``
    (0 for an id not in ``ids``)."""
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, ids, weights)
    return out


def find_rows(table: Keys, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found): for each query row, the index of the equal row of
    the strictly sorted packed ``table`` (-1 if there is none), and
    whether there is one.

    A query with a value outside its column's range in the table is not
    found and never packed, so any int64 query works; the others are
    packed as the table was and searched for with ``np.searchsorted``,
    a block of queries at a time.  Each block's keys are searched in key
    order, and the hits scattered back through the sorting permutation:
    given sorted needles, ``np.searchsorted`` starts each search no lower
    than where the one before it ended, and consecutive needles probe
    nearly the same path through the table, so most probes hit cache
    lines the search before read, where searches in query order would
    each start cold."""
    queries = np.asarray(queries, dtype=np.int64)
    keys = _searchable(table.key)
    out = np.full(len(queries), -1, dtype=np.int64)
    width = max(queries.shape[1], table.key.shape[1])
    for lo, hi in _blocks(len(queries) if len(keys) else 0, 8 * width):
        block = queries[lo:hi]
        live = np.ones(hi - lo, dtype=bool)
        for j, (first, last) in enumerate(zip(table.lo, table.hi)):
            live &= (block[:, j] >= first) & (block[:, j] <= last)
        live = np.flatnonzero(live)
        want = table.pack(block.take(live, axis=0))
        order = _order(want, None)
        want = _searchable(want.take(order, axis=0))
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = keys[at] == want
        out[lo + live[order[hit]]] = at[hit]
    return out, out >= 0


def _order(key: np.ndarray, kind: str | None) -> np.ndarray:
    """The permutation that sorts the key rows: ``np.argsort`` of the
    one chunk with ``kind``, else a (stable) ``np.lexsort`` of the
    chunks."""
    return np.argsort(key[:, 0], kind=kind) if key.shape[1] == 1 else np.lexsort(key.T[::-1])


def _searchable(key: np.ndarray) -> np.ndarray:
    """The key rows as one array that ``==`` and ``np.searchsorted``
    take in row order: the one chunk, else a record of the chunks."""
    if key.shape[1] == 1:
        return key[:, 0]
    fields = np.dtype([(f"c{c}", np.int64) for c in range(key.shape[1])])
    return np.ascontiguousarray(key).view(fields)[:, 0]


def tuples(rows: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Rows of a 2-D integer array as tuples of Python ints."""
    return zip(*rows.T.tolist())
