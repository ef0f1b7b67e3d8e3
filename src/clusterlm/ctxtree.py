"""Suffix grouping of observed contexts, one array set per level.

Contexts are indexed in sorted tuple order, the order ``Clustering``
uses.  Level ``l`` groups them by their last ``l`` values
``(v_l, ..., v_1)``: level 0 is one group holding every context, and the
leaf level L has one group per distinct context.  Moving a whole group
at once gives the clustering reliable statistics for contexts that are
individually rare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clusterlm._rows import group_rows
from clusterlm.events import ContextTuple, EventTable


@dataclass(frozen=True)
class Level:
    """The groups of one suffix length.

    ``keys[k]`` is group ``k``'s suffix (rows in sorted order), ``counts[k]``
    its event count, and ``members[bounds[k]:bounds[k + 1]]`` the indices
    of its contexts; ``group_of[i]`` is the group of context ``i``.
    """

    keys: np.ndarray
    counts: np.ndarray
    group_of: np.ndarray
    members: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def group(self, k: int) -> np.ndarray:
        return self.members[self.bounds[k] : self.bounds[k + 1]]

    def key(self, k: int) -> ContextTuple:
        return tuple(int(v) for v in self.keys[k])


@dataclass(frozen=True)
class ContextTree:
    levels: list[Level]


def suffix_level(mat: np.ndarray, level: int, ctx_counts: np.ndarray) -> Level:
    """Group the rows of the sorted context matrix ``mat`` by their last
    ``level`` columns; ``ctx_counts[i]`` is the event count of row ``i``."""
    suffix = mat[:, mat.shape[1] - level :]
    members, starts = group_rows(suffix)
    sizes = np.diff(starts, append=len(mat))
    group_of = np.empty(len(mat), dtype=np.int64)
    group_of[members] = np.repeat(np.arange(len(starts)), sizes)
    return Level(
        keys=suffix.take(members[starts], axis=0),
        counts=np.add.reduceat(ctx_counts[members], starts),
        group_of=group_of,
        members=members,
        bounds=np.append(starts, len(mat)),
    )


def build_suffix_tree(table: EventTable) -> ContextTree:
    """Group the table's contexts by shared suffixes of every length."""
    return ContextTree(
        [
            suffix_level(table.contexts, lvl, table.ctx_counts)
            for lvl in range(table.spec.depth + 1)
        ]
    )
