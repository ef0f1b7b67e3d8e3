"""Hot numeric kernels for the exchange clustering inner loop.

Everything here operates on dense float64 count arrays holding exact
integers (``Clustering`` keeps its totals below 2**53): the joint table
N(state, category), its two marginals, and an element's count profile
over the counterpart axis.  The criterion is

    F = sum f(N(s,g)) - sum f(N(s)) - sum f(N(g)),   f(x) = x ln x

and a move delta is F(after) - F(before) assembled from the cells the
move touches, evaluated for every candidate target cluster at once with
numpy.  The arrays are gathered as they are, with no casts, and the
terms are built in place in the gathered temporaries.

The "before" terms are not recomputed: the caller keeps f of every
table entry in float64 caches, ``f_joint = f(joint)`` (and its
transpose ``f_joint_t``), ``f(state_totals)`` and ``f(cat_totals)`` (see
``Clustering``), built with
``xlogx`` and refreshed at the cells a move changes, which are the
cells where the moved element's profile is nonzero.  The "after" terms
of the target cells, ``N + profile`` and ``N(margin) + n``, are
positive whenever the element has events, so they take a plain
``v * log(v)``; only the source-cell terms, which can fall to 0, go
through ``xlogx``.  Every value is computed by the same elementwise
expression whether it comes from a cache or not, so the deltas are
bit-identical to recomputing f over the touched cells.

There is one kernel, ``move_deltas``, over the rows of a table: the
element's profile runs along the rows and the candidate targets are the
columns.  A word move on ``joint`` (states x categories) is that kernel
as it stands.  A group move changes states, the rows of ``joint``; on
``joint_t``, the row-major transpose ``Clustering`` keeps beside it
(categories x states, with its f cache ``f_joint_t``), it is the same
computation, so ``word_move_deltas`` and ``group_move_deltas`` are one
call each of ``move_deltas``.  Either way the kernel gathers the rows of
the profile's nonzero entries, which are contiguous.

A group delta read from the transpose is bit-identical to one read from
the columns of ``joint``.  Fancy indexing of the ``nz`` columns of
``joint`` gives a Fortran-ordered (states x k) array, whose per-state
sum over its k columns adds the terms one after another in ``nz``
order; the row gather of ``joint_t`` is a C-ordered (k x states) array,
whose per-state sum down its k rows adds the same terms in the same
order.  The source cells' N - p is read off the gathered rows as
(N + p) - 2p, which is exact for integers below 2**53, and every other
value is the same elementwise expression on the same numbers.

The (k x columns) temporaries go into ``scratch``, a float64 array of at
least twice the table's size that the caller keeps: the command line
has glibc map every array of 128 KiB or more afresh
(``cli._fix_mmap_threshold``), so a temporary of that size would cost
new pages on every call.
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


def word_move_deltas(joint, cat_totals, profile, g_cur, n_elem, f_joint, f_cat, scratch):
    """Criterion deltas for moving one word to every category: the row
    kernel on ``joint`` (states x categories), ``profile[s]`` being the
    word's event count within state ``s``."""
    return move_deltas(joint, cat_totals, profile, g_cur, n_elem, f_joint, f_cat, scratch)


def group_move_deltas(joint_t, state_totals, profile, s_cur, n_elem, f_joint_t, f_state, scratch):
    """Criterion deltas for moving a coherent context group to every
    state: the row kernel on ``joint_t`` (categories x states),
    ``profile[g]`` being the group's event count within category ``g``."""
    return move_deltas(joint_t, state_totals, profile, s_cur, n_elem, f_joint_t, f_state, scratch)


def move_deltas(table, totals, profile, cur, n_elem, f_table, f_totals, scratch):
    """Criterion deltas for moving one element, whose counts over the
    rows of ``table`` are ``profile`` (summing to ``n_elem``), from column
    ``cur`` to every column.  ``totals`` are the column sums of
    ``table``; ``f_table`` and ``f_totals`` are ``xlogx`` of ``table`` and
    ``totals``; ``scratch`` holds the temporaries.  Entry ``cur`` of the
    result is exactly 0, and so is every entry when the element has no
    events.
    """
    if n_elem == 0:
        return np.zeros(table.shape[1], dtype=np.float64)
    nz = profile.nonzero()[0]
    p = profile[nz]
    shape = (len(nz), table.shape[1])
    size = shape[0] * shape[1]
    a, b = scratch[:size].reshape(shape), scratch[size : 2 * size].reshape(shape)
    after = table.take(nz, 0, a, "clip")
    after += p[:, None]
    # N - p at the source cells: exact, as every value is an integer below 2**53
    src = after[:, cur] - 2.0 * p
    deltas = np.log(after, out=b)
    deltas *= after
    f_rows = f_table.take(nz, 0, a, "clip")
    src_joint = float(np.add.reduce(xlogx(src) - f_rows[:, cur]))
    deltas -= f_rows
    deltas = np.add.reduce(deltas, 0)

    m = totals + float(n_elem)
    gain = np.log(m)
    gain *= m
    gain -= f_totals
    src_margin = _xlogx_scalar(float(totals[cur]) - n_elem) - _xlogx_scalar(float(totals[cur]))
    deltas += src_joint
    deltas -= gain
    deltas -= src_margin
    deltas[cur] = 0.0
    return deltas
