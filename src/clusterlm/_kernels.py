"""Hot numeric kernels for the exchange clustering inner loop.

Everything here operates on dense integer count arrays: the joint table
N(state, category), its two marginals, and an element's count profile
over the counterpart axis.  The criterion is

    F = sum f(N(s,g)) - sum f(N(s)) - sum f(N(g)),   f(x) = x ln x

and a move delta is F(after) - F(before) assembled from the cells the
move touches, evaluated for every candidate target cluster at once with
numpy.

The "before" terms are not recomputed: the caller keeps f of every
table entry in three float64 caches, ``f_joint = f(joint)`` and
``f(state_totals)``, ``f(cat_totals)`` (see ``Clustering``), built with
``xlogx`` and refreshed for the two rows or columns a move changes.
The "after" terms of the target cells, ``N + profile`` and
``N(margin) + n``, are positive whenever the element has events, so
they take a plain ``v * log(v)``; only the source-cell terms, which can
fall to 0, go through the masked ``xlogx``.  Every value is computed by
the same elementwise expression whether it comes from a cache or not,
so the deltas are bit-identical to recomputing f over the touched cells.
"""

from __future__ import annotations

import math

import numpy as np

# There is one kernel path, numpy; these record that for run reports.
USING_NUMBA = False
_HAVE_NUMBA = False


def xlogx(a: np.ndarray) -> np.ndarray:
    """f(a) = a ln a elementwise as float64, with f(0) = 0."""
    out = np.zeros(a.shape, dtype=np.float64)
    mask = a > 0
    vals = a[mask].astype(np.float64)
    out[mask] = vals * np.log(vals)
    return out


def _xlogx_scalar(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def word_move_deltas(joint, cat_totals, profile, g_cur, n_elem, f_joint, f_cat):
    """Criterion deltas for moving one word to every category.

    ``profile[s]`` is the word's event count within state ``s`` and
    sums to ``n_elem``; ``f_joint`` and ``f_cat`` are ``xlogx`` of
    ``joint`` and ``cat_totals``.  Entry ``g_cur`` of the result is
    exactly 0, and so is every entry when the word has no events.
    """
    if n_elem == 0:
        return np.zeros(joint.shape[1], dtype=np.float64)
    nz = np.nonzero(profile)[0]
    p = profile[nz].astype(np.float64)[:, None]
    after = joint[nz, :].astype(np.float64) + p
    deltas = (after * np.log(after) - f_joint[nz, :]).sum(axis=0)

    jg = joint[nz, g_cur].astype(np.float64)
    src_joint = float((xlogx(jg - p[:, 0]) - f_joint[nz, g_cur]).sum())

    m = cat_totals.astype(np.float64) + float(n_elem)
    gain = m * np.log(m) - f_cat
    src_margin = _xlogx_scalar(float(cat_totals[g_cur]) - n_elem) - _xlogx_scalar(
        float(cat_totals[g_cur])
    )
    out = deltas + src_joint - gain - src_margin
    out[g_cur] = 0.0
    return out


def group_move_deltas(joint, state_totals, profile, s_cur, n_elem, f_joint, f_state):
    """Criterion deltas for moving a coherent context group to every
    state.  ``profile[g]`` is the group's event count within category
    ``g``; ``f_joint`` and ``f_state`` are ``xlogx`` of ``joint`` and
    ``state_totals``."""
    if n_elem == 0:
        return np.zeros(joint.shape[0], dtype=np.float64)
    nz = np.nonzero(profile)[0]
    q = profile[nz].astype(np.float64)[None, :]
    after = joint[:, nz].astype(np.float64) + q
    deltas = (after * np.log(after) - f_joint[:, nz]).sum(axis=1)

    js = joint[s_cur, nz].astype(np.float64)
    src_joint = float((xlogx(js - q[0, :]) - f_joint[s_cur, nz]).sum())

    m = state_totals.astype(np.float64) + float(n_elem)
    gain = m * np.log(m) - f_state
    src_margin = _xlogx_scalar(float(state_totals[s_cur]) - n_elem) - _xlogx_scalar(
        float(state_totals[s_cur])
    )
    out = deltas + src_joint - gain - src_margin
    out[s_cur] = 0.0
    return out
