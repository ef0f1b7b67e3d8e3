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
table entry in three float64 caches, ``f_joint = f(joint)`` and
``f(state_totals)``, ``f(cat_totals)`` (see ``Clustering``), built with
``xlogx`` and refreshed at the cells a move changes, which are the
cells where the moved element's profile is nonzero.  The "after" terms
of the target cells, ``N + profile`` and ``N(margin) + n``, are
positive whenever the element has events, so they take a plain
``v * log(v)``; only the source-cell terms, which can fall to 0, go
through ``xlogx``.  Every value is computed by the same elementwise
expression whether it comes from a cache or not, so the deltas are
bit-identical to recomputing f over the touched cells.

The word kernel's (states x categories) temporaries go into
``scratch``, a float64 array of at least twice their size that the
caller keeps.  The command line has glibc map every array of 128 KiB
or more afresh (``cli._fix_mmap_threshold``), so a temporary of that
size would cost new pages on every call.  The group
kernel gathers columns, which ``np.take`` into a buffer copies at
about half the speed of fancy indexing, so it allocates.
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
    """Criterion deltas for moving one word to every category.

    ``profile[s]`` is the word's event count within state ``s`` and
    sums to ``n_elem``; ``f_joint`` and ``f_cat`` are ``xlogx`` of
    ``joint`` and ``cat_totals``; ``scratch`` holds the temporaries.
    Entry ``g_cur`` of the result is exactly 0, and so is every entry
    when the word has no events.
    """
    if n_elem == 0:
        return np.zeros(joint.shape[1], dtype=np.float64)
    nz = np.nonzero(profile)[0]
    p = profile[nz]
    shape = (len(nz), joint.shape[1])
    size = shape[0] * shape[1]
    a, b = scratch[:size].reshape(shape), scratch[size : 2 * size].reshape(shape)
    after = np.take(joint, nz, axis=0, out=a, mode="clip")
    after += p[:, None]
    deltas = np.log(after, out=b)
    deltas *= after
    deltas -= np.take(f_joint, nz, axis=0, out=a, mode="clip")
    deltas = deltas.sum(axis=0)

    jg = joint[nz, g_cur]
    jg -= p
    src_joint = float((xlogx(jg) - f_joint[nz, g_cur]).sum())

    m = cat_totals + float(n_elem)
    gain = np.log(m)
    gain *= m
    gain -= f_cat
    src_margin = _xlogx_scalar(float(cat_totals[g_cur]) - n_elem) - _xlogx_scalar(
        float(cat_totals[g_cur])
    )
    deltas += src_joint
    deltas -= gain
    deltas -= src_margin
    deltas[g_cur] = 0.0
    return deltas


def group_move_deltas(joint, state_totals, profile, s_cur, n_elem, f_joint, f_state):
    """Criterion deltas for moving a coherent context group to every
    state.  ``profile[g]`` is the group's event count within category
    ``g``; ``f_joint`` and ``f_state`` are ``xlogx`` of ``joint`` and
    ``state_totals``."""
    if n_elem == 0:
        return np.zeros(joint.shape[0], dtype=np.float64)
    nz = np.nonzero(profile)[0]
    q = profile[nz]
    after = joint[:, nz]
    after += q[None, :]
    deltas = np.log(after)
    deltas *= after
    deltas -= f_joint[:, nz]
    deltas = deltas.sum(axis=1)

    js = joint[s_cur, nz]
    js -= q
    src_joint = float((xlogx(js) - f_joint[s_cur, nz]).sum())

    m = state_totals + float(n_elem)
    gain = np.log(m)
    gain *= m
    gain -= f_state
    src_margin = _xlogx_scalar(float(state_totals[s_cur]) - n_elem) - _xlogx_scalar(
        float(state_totals[s_cur])
    )
    deltas += src_joint
    deltas -= gain
    deltas -= src_margin
    deltas[s_cur] = 0.0
    return deltas
