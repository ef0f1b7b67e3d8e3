"""Hot numeric kernels for the exchange clustering inner loop.

Everything here operates on dense float64 count arrays holding exact
integers (``Clustering`` keeps its totals below 2**53).  The criterion is

    F = sum f(N(s,g)) - sum f(N(s)) - sum f(N(g)),   f(x) = x ln x

and a move delta is F(after) - F(before) assembled from the cells the
move touches, evaluated for every candidate target cluster at once with
numpy.  The arrays are gathered as they are, with no casts, and the
terms are built in place in the gathered temporaries.

The table is bordered: its last row holds the column sums and its last
column the row sums (see ``Clustering``).  The moved element's profile
is sparse and bordered too: ``nz``, the rows where it has events, then
the border row, and ``p``, its counts there, then its total n.  So the
gather of rows ``nz`` brings the totals row along, and the add, log,
multiply and subtract that give the joint cells' terms give in the last
gathered row each column's margin gain f(N(g) + n) - f(N(g)).  The
border column rides along and is dropped.

The "before" terms are not recomputed: ``f_table`` holds f of every
table entry, built with ``xlogx`` and refreshed where a move changes
the table.  The "after" terms of the target cells, ``N + p``, are
positive, so they take a plain ``v * log(v)``; the source cells, which
can fall to 0, go through ``xlogx``, and the source margin's two terms
are scalars taken with ``math.log``.  Every value is computed by the
same elementwise expression whether it comes from a cache or not, so
the deltas are bit-identical to recomputing f over the touched cells.

There is one kernel, ``move_deltas``, over the rows of a table: the
element's profile runs along the rows and the candidate targets are the
columns.  A word move is that kernel on the bordered ``joint`` (states
x categories).  A group move changes states, the rows of ``joint``; on
the row-major bordered transpose ``Clustering`` keeps beside it, it is
the same computation.  Either way the gathered rows are contiguous.

A group delta read from the transpose is bit-identical to one read from
the columns of ``joint``: the column gather's per-state sum over its k
columns and the row gather's per-state sum down its k joint rows add
the same terms in the same ``nz`` order.  The source cells' N - p is
read off the gathered rows as (N + p) - 2p, which is exact for integers
below 2**53.

The temporaries go into ``scratch``, of shape (2, rows, columns) of the
table, which ``Clustering`` keeps as one buffer with one view per
layout: the command line has glibc map every array of 128 KiB or more
afresh (``cli._fix_mmap_threshold``), so a temporary of that size would
cost new pages on every call.
"""

from __future__ import annotations

import math

import numpy as np

# There is one kernel path, numpy; these record that for run reports.
USING_NUMBA = False
_HAVE_NUMBA = False


def xlogx(a: np.ndarray) -> np.ndarray:
    """f(a) = a ln a elementwise as float64, with f(0) = 0.

    The domain is nonnegative integer counts, held as integers or as
    exact float64 values.  There ``a * log(max(a, 1))`` is the same
    value, bit for bit, as ``a * log(a)`` masked to 0 at a = 0: it
    differs only at a = 0, where it is 0 * log(1) = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.maximum(a, 1.0)
    np.log(out, out=out)
    out *= a
    return out


def _xlogx_scalar(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def word_move_deltas(joint_b, f_joint_b, p, nz, g_cur, scratch):
    """Criterion deltas for moving one word to every category: the row
    kernel on the bordered ``joint`` (states x categories), ``p`` being
    the word's event counts in states ``nz``."""
    return move_deltas(joint_b, f_joint_b, p, nz, g_cur, scratch)


def group_move_deltas(joint_bt, f_joint_bt, p, nz, s_cur, scratch):
    """Criterion deltas for moving a coherent context group to every
    state: the row kernel on the bordered transpose (categories x
    states), ``p`` being the group's event counts in categories ``nz``."""
    return move_deltas(joint_bt, f_joint_bt, p, nz, s_cur, scratch)


def move_deltas(table, f_table, p, nz, cur, scratch):
    """Criterion deltas for moving the element with counts ``p`` in rows
    ``nz`` (the border row last) from column ``cur`` of the bordered
    ``table`` to every column but the border.  ``f_table`` is ``xlogx``
    of ``table``.  Entry ``cur`` is exactly 0, and so is every entry
    when the element has no events (``nz`` is empty)."""
    c, k = table.shape[1] - 1, len(nz) - 1
    if k < 0:
        return np.zeros(c, dtype=np.float64)
    a, b = scratch[:, : k + 1]
    after = table.take(nz, 0, a, "clip")
    after += p[:, None]
    # N - p at the source cells: exact, as every value is an integer below 2**53
    src = after[:k, cur] - 2.0 * p[:k]
    block = np.log(after, out=b)
    block *= after
    f_rows = f_table.take(nz, 0, a, "clip")
    src_f = xlogx(src)
    src_f -= f_rows[:k, cur]
    src_joint = float(np.add.reduce(src_f))
    block -= f_rows
    # the last row is each column's margin gain f(N(g) + n) - f(N(g))
    deltas = np.add.reduce(block[:k, :c], 0)
    n, total = float(p[k]), float(table[-1, cur])
    src_margin = _xlogx_scalar(total - n) - _xlogx_scalar(total)
    deltas += src_joint
    deltas -= block[k, :c]
    deltas -= src_margin
    deltas[cur] = 0.0
    return deltas
