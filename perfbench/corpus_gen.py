"""Seeded synthetic corpus for the pipeline benchmark.

Words belong to hidden classes.  The class of each next word follows a
Markov chain over the classes, and the word is then drawn Zipf-like
within its class.  Word pairs are therefore mostly rare while the
previous word stays informative, which is the regime suffix-tree
scheduled clustering is built for.

The hidden language (class Markov chain, class members and their Zipf
ranks) is fixed; the seed only draws the sample of text from it, so
runs with different seeds see the same kind of input.  The same seed
gives byte-identical text.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

LANGUAGE_SEED = 20260  # fixes the hidden language; --seed only draws the sample
# With these, 190k training tokens give a vocabulary of about 4.8k words
# and about 120k distinct two-word contexts, most of them seen once.
N_CLASSES = 64
WORDS_PER_CLASS = 76
ZIPF = 1.15
SUCCESSORS = 0.12  # Dirichlet concentration of class transitions
MIN_LEN, MAX_LEN = 5, 25  # sentence length range, in tokens


@dataclass(frozen=True)
class CorpusSize:
    """Exact token counts of the three splits."""

    train_tokens: int
    heldout_tokens: int
    test_tokens: int


def _model(rng: np.random.Generator):
    n_words = N_CLASSES * WORDS_PER_CLASS
    # word ids are shuffled so the class is not readable from the token
    names = [f"w{i}" for i in rng.permutation(n_words)]
    by_class = [names[k * WORDS_PER_CLASS : (k + 1) * WORDS_PER_CLASS] for k in range(N_CLASSES)]
    zipf = 1.0 / np.arange(1, WORDS_PER_CLASS + 1) ** ZIPF
    word_cum = list(accumulate((zipf / zipf.sum()).tolist()))
    trans = rng.dirichlet(np.full(N_CLASSES, SUCCESSORS), size=N_CLASSES)
    trans_cum = [list(accumulate(row.tolist())) for row in trans]
    start_cum = list(accumulate(np.full(N_CLASSES, 1.0 / N_CLASSES).tolist()))
    return by_class, word_cum, trans_cum, start_cum


def _draw(cum: list[float], u: float) -> int:
    return min(bisect.bisect_left(cum, u), len(cum) - 1)


def _sentences(rng: np.random.Generator, model, n_tokens: int) -> list[str]:
    by_class, word_cum, trans_cum, start_cum = model
    lengths: list[int] = []
    left = n_tokens
    while left > 0:
        n = int(rng.integers(MIN_LEN, MAX_LEN + 1))
        n = left if left - n < MIN_LEN else n
        lengths.append(n)
        left -= n
    u_class = rng.random(n_tokens).tolist()
    u_word = rng.random(n_tokens).tolist()
    out = []
    pos = 0
    for n in lengths:
        c = _draw(start_cum, u_class[pos])
        toks = []
        for i in range(pos, pos + n):
            if i > pos:
                c = _draw(trans_cum[c], u_class[i])
            toks.append(by_class[c][_draw(word_cum, u_word[i])])
        out.append(" ".join(toks))
        pos += n
    return out


def generate(seed: int, size: CorpusSize) -> dict[str, list[str]]:
    """Train, held-out and test sentences for ``seed``."""
    model = _model(np.random.default_rng(LANGUAGE_SEED))
    rng = np.random.default_rng(seed)
    return {
        "train": _sentences(rng, model, size.train_tokens),
        "heldout": _sentences(rng, model, size.heldout_tokens),
        "test": _sentences(rng, model, size.test_tokens),
    }


def input_sizes(splits: dict[str, list[str]], specs: dict[str, int]) -> dict[str, int]:
    """Sizes the pipeline sees, computed independently of the package:
    tokens, vocabulary (types plus the three specials), distinct contexts
    and nonzero (context, word) cells for each context width, and the
    scored events (tokens plus one sentence end per sentence) of the
    held-out and test text."""
    train = [s.split() for s in splits["train"]]
    sizes = {
        "train_tokens": sum(len(s) for s in train),
        "vocab": len({t for s in train for t in s}) + 3,
    }
    for name, width in specs.items():
        contexts: set = set()
        cells: set = set()
        for sent in train:
            padded = ["<s>"] * width + sent + ["</s>"]
            for i in range(width, len(padded)):
                ctx = tuple(padded[i - width : i])
                contexts.add(ctx)
                cells.add((ctx, padded[i]))
        sizes[f"contexts[{name}]"] = len(contexts)
        sizes[f"nnz[{name}]"] = len(cells)
    for split in ("heldout", "test"):
        lines = splits[split]
        sizes[f"{split}_events"] = sum(len(s.split()) + 1 for s in lines)
    return sizes
