"""Hot numeric kernels for the exchange clustering inner loop.

Everything here operates on dense integer count arrays: the joint table
N(state, category), its two marginals, and an element's count profile
over the counterpart axis.  The criterion is

    F = sum f(N(s,g)) - sum f(N(s)) - sum f(N(g)),   f(x) = x ln x

and a move delta is F(after) - F(before) assembled from the cells the
move touches, evaluated for every candidate target cluster at once with
numpy.
"""

from __future__ import annotations

import math

import numpy as np

# There is one kernel path, numpy; these record that for run reports.
USING_NUMBA = False
_HAVE_NUMBA = False


def _xlogx_arr(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape, dtype=np.float64)
    mask = a > 0
    vals = a[mask].astype(np.float64)
    out[mask] = vals * np.log(vals)
    return out


def _xlogx_scalar(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def word_move_deltas(joint, cat_totals, profile, g_cur, n_elem):
    """Criterion deltas for moving one word to every category.

    ``profile[s]`` is the word's event count within state ``s`` and
    sums to ``n_elem``.  Entry ``g_cur`` of the result is exactly 0.
    """
    nz = np.nonzero(profile)[0]
    p = profile[nz].astype(np.float64)[:, None]
    rows = joint[nz, :].astype(np.float64)
    deltas = (_xlogx_arr(rows + p) - _xlogx_arr(rows)).sum(axis=0)

    jg = joint[nz, g_cur].astype(np.float64)
    src_joint = float((_xlogx_arr(jg - p[:, 0]) - _xlogx_arr(jg)).sum())

    m = cat_totals.astype(np.float64)
    gain = _xlogx_arr(m + float(n_elem)) - _xlogx_arr(m)
    src_margin = _xlogx_scalar(float(cat_totals[g_cur]) - n_elem) - _xlogx_scalar(
        float(cat_totals[g_cur])
    )
    out = deltas + src_joint - gain - src_margin
    out[g_cur] = 0.0
    return out


def group_move_deltas(joint, state_totals, profile, s_cur, n_elem):
    """Criterion deltas for moving a coherent context group to every
    state.  ``profile[g]`` is the group's event count within category
    ``g``."""
    nz = np.nonzero(profile)[0]
    q = profile[nz].astype(np.float64)[None, :]
    cols = joint[:, nz].astype(np.float64)
    deltas = (_xlogx_arr(cols + q) - _xlogx_arr(cols)).sum(axis=1)

    js = joint[s_cur, nz].astype(np.float64)
    src_joint = float((_xlogx_arr(js - q[0, :]) - _xlogx_arr(js)).sum())

    m = state_totals.astype(np.float64)
    gain = _xlogx_arr(m + float(n_elem)) - _xlogx_arr(m)
    src_margin = _xlogx_scalar(float(state_totals[s_cur]) - n_elem) - _xlogx_scalar(
        float(state_totals[s_cur])
    )
    out = deltas + src_joint - gain - src_margin
    out[s_cur] = 0.0
    return out
