"""Perplexity over a test stream and EM tuning of mixture weights.

Both score a corpus through ``_score_events``: it builds the event rows
once, with -1 before the sentence start, and each model scores all of
them in one call of the models' one query, ``model.prob(rows)`` (see
``clusterlm.models``).  Each log is taken with ``math.log``.  Every
report and perplexity total, and the EM's first log-likelihood, is an
exactly rounded sum (``math.fsum``), so totals are independent of
sentence order to the last bit; the EM follows its later log-likelihoods
by their gains (see ``em_mixture_weights``).  ``format_report`` and
``report_lines`` write a report's per-sentence lines when it has them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from clusterlm.events import event_rows
from clusterlm.models import _mix


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


def _query_events(
    sentences: Sequence[Sequence[int]], width: int, eos_id: int | None, include_eos: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, sentence, position) of every prediction event, in corpus
    order: the query rows with ``width`` history columns, and each row's
    sentence index and position in it (a sentence end is at the
    sentence's length).  Sentence ends are left out unless
    ``include_eos``."""
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    # with ends not scored the end token's id is never read
    rows = event_rows(sentences, range(-width, 0), -1, -1 if eos_id is None else eos_id)
    sentence = np.repeat(np.arange(len(sentences)), lengths + 1)
    position = np.arange(len(rows)) - np.repeat(np.cumsum(lengths + 1) - lengths - 1, lengths + 1)
    if not include_eos:
        keep = position < lengths[sentence]
        rows, sentence, position = rows[keep], sentence[keep], position[keep]
    return rows, sentence, position


def _check_nonzero(
    probs: np.ndarray,
    words: np.ndarray,
    sentence: np.ndarray,
    position: np.ndarray,
    unk_id: int | None,
) -> None:
    """Raise ``ValueError`` naming the first event of probability 0.
    When its word is ``unk_id`` the message says why a class model gives
    the unknown word 0 and that skipping unknown words leaves it out."""
    zero = np.flatnonzero(probs <= 0.0)
    if zero.size:
        i = zero[0]
        w = int(words[i])
        msg = f"zero probability for word id {w} (sentence {sentence[i]}, position {position[i]})"
        if w == unk_id:
            msg += (
                "; that is the unknown word, to which a class model gives probability 0"
                " when it had no training count; skipping unknown words (--skip-unknown)"
                " leaves such events out"
            )
        raise ValueError(msg)


def _report(model_id: str, logs: list[float]) -> EvalReport:
    """The report of events with log probabilities ``logs``."""
    total = math.fsum(logs)
    return EvalReport(model_id, len(logs), total, math.exp(-total / len(logs)))


def _score_events(
    models: Sequence, sentences: Sequence[Sequence[int]], *, eos_id: int | None,
    include_eos: bool, skip_unknown: bool, unk_id: int | None, no_events: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The events that ``perplexity`` and ``tune_weights_em`` score: their
    rows at the widest history of ``models``, less unknown-word events for
    ``skip_unknown``.  Returns the (event, model) probability matrix, from
    one ``prob`` call per model, each event's word, sentence and position,
    and the number of sentences.  No events raise ``no_events``, and an
    event that every model scores 0 raises an error naming it."""
    if include_eos and eos_id is None:
        raise ValueError("eos_id is required when sentence ends are scored")
    if skip_unknown and unk_id is None:
        raise ValueError("unk_id is required when unknown words are skipped")
    sentences = list(sentences)
    if not sentences:
        raise ValueError(no_events)
    width = max(model.history_width for model in models)
    rows, sentence, position = _query_events(sentences, width, eos_id, include_eos)
    if skip_unknown:
        keep = rows[:, -1] != unk_id
        rows, sentence, position = rows[keep], sentence[keep], position[keep]
    if not len(rows):
        raise ValueError(no_events)
    probs, words = np.column_stack([model.prob(rows) for model in models]), rows[:, -1]
    _check_nonzero(probs.max(axis=1), words, sentence, position, unk_id)
    return probs, words, sentence, position, len(sentences)


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

    Sentences are numbered from 0 in input order, in the error and in
    ``per_sentence``.  The CLI's corpus reader drops blank lines, which
    predict nothing, so there a sentence index counts the corpus's
    non-blank lines.
    """
    probs, _, sentence, _, n_sentences = _score_events(
        [model], sentences, eos_id=eos_id, include_eos=include_eos,
        skip_unknown=skip_unknown, unk_id=unk_id, no_events="no events to evaluate",
    )
    logs = [math.log(p) for p in probs[:, 0].tolist()]
    report = _report(model_id, logs)
    if per_sentence:
        bounds = np.searchsorted(sentence, np.arange(n_sentences + 1)).tolist()
        report.per_sentence = [
            (hi - lo, math.fsum(logs[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
        ]
    return report


def format_report(report: EvalReport) -> str:
    """Aligned human-readable table, then any per-sentence lines;
    perplexity to 4 significant figures (internal precision is full double)."""
    rows = [
        ("model", report.model_id),
        ("events", str(report.token_count)),
        ("logprob", f"{report.logprob_sum:.6f}"),
        ("perplexity", f"{report.perplexity:.4g}"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    for i, (n, lp) in enumerate(report.per_sentence or ()):
        lines.append(f"sentence {i}: events {n}, logprob {lp:.6f}")
    return "\n".join(lines)


def report_lines(report: EvalReport) -> list[str]:
    """Machine-readable ``metric<TAB>value`` lines at full precision, then
    any ``sentence<TAB>index<TAB>events<TAB>logprob`` lines."""
    return [
        f"model\t{report.model_id}",
        f"events\t{report.token_count}",
        f"logprob\t{report.logprob_sum!r}",
        f"perplexity\t{report.perplexity!r}",
    ] + [f"sentence\t{i}\t{n}\t{lp!r}" for i, (n, lp) in enumerate(report.per_sentence or ())]


def em_mixture_weights(
    probs: np.ndarray, max_iters: int = 100, tol: float = 1e-6
) -> tuple[np.ndarray, list[float]]:
    """EM fixed point for mixture weights on a fixed event/component
    probability matrix (one row per held-out event).

    Starting from uniform weights, the update is
    w_k <- (1/N) sum_i w_k p_ik / sum_j w_j p_ij.  Stops when
    max |delta w| < tol (a non-negative number) or after ``max_iters``.
    Returns the weights and the held-out log-likelihood before each
    update.  The first is the exactly rounded sum of the events' logs;
    each later one is the one before plus the iteration's gain,
    sum_i log(mix_i / previous mix_i).  A gain below -1e-9 raises
    ``RuntimeError``: EM never lowers the likelihood.  The gain's terms
    shrink as EM converges, and so does its rounding error, whereas a
    difference of two rounded totals cannot resolve less than one ulp
    of the total.

    The mixture is ``models._mix``'s, and each weight's sum over the
    events is one ``np.add.reduce``: no BLAS call, whose kernel OpenBLAS
    picks per CPU, so the weights do not depend on that pick.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not tol >= 0.0:
        raise ValueError("tol must be a non-negative number")
    P = np.asarray(probs, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("probability matrix must have at least one event row")
    n, k = P.shape
    columns = [np.ascontiguousarray(P[:, j]) for j in range(k)]
    w = np.full(k, 1.0 / k, dtype=np.float64)
    history: list[float] = []
    # event-length buffers, reused by every iteration; mix and prev swap
    mix, prev, inv, term = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for _ in range(max_iters):
        _mix(w, lambda j: columns[j], mix, term)
        if (mix <= 0.0).any():
            raise ValueError("mixture assigns zero probability to a held-out event")
        if history:
            gain = float(np.add.reduce(np.log(np.divide(mix, prev, out=term), out=term)))
            if gain < -1e-9:
                raise RuntimeError("EM log-likelihood decreased")
            history.append(history[-1] + gain)
        else:
            history.append(math.fsum(memoryview(np.log(mix, out=term))))
        np.divide(1.0, mix, out=inv)
        new_w = np.empty(k, dtype=np.float64)
        for j in range(k):
            np.multiply(columns[j], w[j], out=term)
            new_w[j] = np.add.reduce(np.multiply(term, inv, out=term)) / n
        delta = float(np.max(np.abs(new_w - w)))
        w = new_w
        mix, prev = prev, mix
        if delta < tol:
            break
    return w / float(w.sum()), history


def tune_weights_em(
    components: Sequence,
    sentences: Sequence[Sequence[int]],
    *,
    eos_id: int | None = None,
    include_eos: bool = True,
    skip_unknown: bool = False,
    unk_id: int | None = None,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, EvalReport]:
    """Tune mixture weights for ``components`` on held-out sentences.

    The events are selected and scored as ``perplexity`` scores them,
    and the EM fixed point runs on the components' fixed probability
    matrix.  Returns the weights and the held-out report of the tuned
    mixture, mixed from that matrix as ``InterpolatedModel.prob`` mixes,
    so it equals ``perplexity`` of that mixture to the last bit.
    """
    if len(components) < 2:
        raise ValueError("at least two components required")
    probs, words, sentence, position, _ = _score_events(
        components, sentences, eos_id=eos_id, include_eos=include_eos,
        skip_unknown=skip_unknown, unk_id=unk_id,
        no_events="degenerate held-out corpus: no events",
    )
    weights, _ = em_mixture_weights(probs, max_iters=max_iters, tol=tol)
    mix = _mix(weights, lambda k: probs[:, k], np.empty(len(probs)))
    _check_nonzero(mix, words, sentence, position, unk_id)
    return weights, _report("interp", [math.log(p) for p in mix.tolist()])
