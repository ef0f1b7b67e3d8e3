"""Perplexity over a test stream and EM tuning of mixture weights.

All log-probability accumulation uses exactly rounded compensated
summation, so totals are independent of sentence order to the last bit.

``tune_weights_em`` scores the held-out events with one ``prob_array``
call per component.  ``perplexity`` still makes one scalar ``prob`` call
per event, so it is what builds a model's dict indexes (see
``clusterlm.models``), on its first query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from clusterlm.events import event_rows


@dataclass
class EvalReport:
    """Perplexity evaluation result.

    ``perplexity == exp(-logprob_sum / token_count)`` by construction;
    ``per_sentence`` optionally holds (event count, logprob sum) per
    test sentence, in input order, with (0, 0.0) for a sentence none of
    whose events was scored.
    """

    model_id: str
    token_count: int
    logprob_sum: float
    perplexity: float
    per_sentence: list[tuple[int, float]] | None = None


def _events(
    sentences: Iterable[Sequence[int]],
    eos_id: int | None,
    include_eos: bool,
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """(sentence index, position, word, history) for every prediction
    event; the history is the tuple of earlier words in the sentence."""
    for si, sent in enumerate(sentences):
        hist: tuple[int, ...] = ()
        for pos, w in enumerate(sent):
            yield si, pos, int(w), hist
            hist = hist + (int(w),)
        if include_eos:
            yield si, len(sent), int(eos_id), hist


def perplexity(
    model,
    sentences: Sequence[Sequence[int]],
    *,
    eos_id: int | None = None,
    include_eos: bool = True,
    skip_unknown: bool = False,
    unk_id: int | None = None,
    model_id: str = "model",
    per_sentence: bool = False,
) -> EvalReport:
    """PP = exp(-(1/N) * sum of ln p(w | history)) over every prediction
    event.  Sentence ends are scored by default; unknown-word events can
    be excluded from scoring (they stay visible inside histories).

    A zero probability raises an error naming the event: smoothed models
    must cover the vocabulary, so a zero is a model defect rather than a
    data problem.  The one expected zero is the unknown word under a
    class model built from a vocabulary that never saw it in training;
    the error says so when ``unk_id`` is given.
    """
    if include_eos and eos_id is None:
        raise ValueError("eos_id is required when sentence ends are scored")
    if skip_unknown and unk_id is None:
        raise ValueError("unk_id is required when unknown words are skipped")
    logs: list[float] = []
    by_sentence: list[list[float]] = [[] for _ in sentences] if per_sentence else []
    for si, pos, w, hist in _events(sentences, eos_id, include_eos):
        if skip_unknown and w == unk_id:
            continue
        p = model.prob(w, hist)
        if p <= 0.0:
            msg = f"zero probability for word id {w} (sentence {si}, position {pos})"
            if w == unk_id:
                msg += (
                    "; that is the unknown word, to which a class model gives probability 0"
                    " when it had no training count; skipping unknown words (--skip-unknown)"
                    " leaves such events out"
                )
            raise ValueError(msg)
        lp = math.log(p)
        logs.append(lp)
        if per_sentence:
            by_sentence[si].append(lp)
    if not logs:
        raise ValueError("no events to evaluate")
    total = math.fsum(logs)
    count = len(logs)
    report = EvalReport(
        model_id=model_id,
        token_count=count,
        logprob_sum=total,
        perplexity=math.exp(-total / count),
    )
    if per_sentence:
        report.per_sentence = [(len(lps), math.fsum(lps)) for lps in by_sentence]
    return report


def format_report(report: EvalReport) -> str:
    """Aligned human-readable table; perplexity shown to 4 significant
    figures (internal precision is full double)."""
    rows = [
        ("model", report.model_id),
        ("events", str(report.token_count)),
        ("logprob", f"{report.logprob_sum:.6f}"),
        ("perplexity", f"{report.perplexity:.4g}"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def report_lines(report: EvalReport) -> list[str]:
    """Machine-readable ``metric<TAB>value`` lines at full precision."""
    return [
        f"model\t{report.model_id}",
        f"events\t{report.token_count}",
        f"logprob\t{report.logprob_sum!r}",
        f"perplexity\t{report.perplexity!r}",
    ]


def em_mixture_weights(
    probs: np.ndarray, max_iters: int = 100, tol: float = 1e-6
) -> tuple[np.ndarray, list[float]]:
    """EM fixed point for mixture weights on a fixed event/component
    probability matrix (one row per held-out event).

    Starting from uniform weights, the update is
    w_k <- (1/N) sum_i w_k p_ik / sum_j w_j p_ij.  Stops when
    max |delta w| < tol (a non-negative number) or after ``max_iters``.
    Returns the weights and the held-out log-likelihood before each
    update; the sequence is checked to be non-decreasing (EM guarantee)
    to 1e-9.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not tol >= 0.0:
        raise ValueError("tol must be a non-negative number")
    P = np.asarray(probs, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("probability matrix must have at least one event row")
    n, k = P.shape
    w = np.full(k, 1.0 / k, dtype=np.float64)
    history: list[float] = []
    # event-length buffers, reused by every iteration
    mix, scratch, weighted = np.empty(n), np.empty(n), np.empty_like(P)
    for _ in range(max_iters):
        np.matmul(P, w, out=mix)
        if (mix <= 0.0).any():
            raise ValueError("mixture assigns zero probability to a held-out event")
        ll = math.fsum(np.log(mix, out=scratch).tolist())
        if history and ll < history[-1] - 1e-9:
            raise RuntimeError("EM log-likelihood decreased")
        history.append(ll)
        new_w = np.multiply(P, w, out=weighted).T @ np.divide(1.0, mix, out=scratch) / n
        delta = float(np.max(np.abs(new_w - w)))
        w = new_w
        if delta < tol:
            break
    return w / float(w.sum()), history


def tune_weights_em(
    components: Sequence,
    sentences: Sequence[Sequence[int]],
    *,
    eos_id: int | None = None,
    include_eos: bool = True,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, EvalReport]:
    """Tune mixture weights for ``components`` on held-out sentences.

    The event rows are built once (``events.event_rows``, -1 before the
    sentence start) and each component scores them in one
    ``prob_array`` call; the EM fixed point then runs on that fixed
    matrix.  Returns the weights and the held-out report of the tuned
    mixture, scored from the same matrix with the arithmetic of
    ``InterpolatedModel.prob``, so it equals ``perplexity`` of that
    mixture to the last bit.
    """
    if len(components) < 2:
        raise ValueError("at least two components required")
    if include_eos and eos_id is None:
        raise ValueError("eos_id is required when sentence ends are scored")
    sentences = list(sentences)
    if sum(map(len, sentences)) + (len(sentences) if include_eos else 0) == 0:
        raise ValueError("degenerate held-out corpus: no events")
    width = max(comp.history_width for comp in components)
    # with ends not scored the end token's id is never read
    rows = event_rows(sentences, range(-width, 0), -1, -1 if eos_id is None else eos_id)
    if not include_eos:
        ends = np.cumsum([len(s) + 1 for s in sentences]) - 1
        rows = np.delete(rows, ends, axis=0)
    probs = np.column_stack([comp.prob_array(rows) for comp in components])
    weights, _ = em_mixture_weights(probs, max_iters=max_iters, tol=tol)
    # per event: total += lam * p over the nonzero weights, in component
    # order; elementwise float64 numpy rounds exactly as the scalar loop
    mix = np.zeros(len(probs), dtype=np.float64)
    for k, lam in enumerate(weights):
        if lam != 0.0:
            mix += float(lam) * probs[:, k]
    zero = np.flatnonzero(mix <= 0.0)
    if zero.size:
        raise ValueError(f"tuned mixture gives zero probability to held-out event {zero[0]}")
    total = math.fsum(math.log(p) for p in mix.tolist())
    count = len(mix)
    report = EvalReport(
        model_id="interp",
        token_count=count,
        logprob_sum=total,
        perplexity=math.exp(-total / count),
    )
    return weights, report
