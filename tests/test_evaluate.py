"""Perplexity evaluation and EM mixture-weight tuning."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlm import evaluate
from clusterlm.evaluate import (
    EvalReport,
    em_mixture_weights,
    format_report,
    perplexity,
    report_lines,
    tune_weights_em,
)
from clusterlm.cluster import ClusterParams, run_flat, run_tree
from clusterlm.corpus import identity_mapper
from clusterlm.ctxtree import build_suffix_tree
from clusterlm.events import ContextSpec, Slot, extract_events
from clusterlm.models import ClassLM, InterpolatedModel, ngram_counts, train_backoff

from conftest import (
    CPU_PATHS,
    build_table,
    make_random_corpus,
    oracle_em_mixture_weights,
    oracle_perplexity,
    oracle_tune_weights_em,
    run_under,
    skip_unless_another_path,
    tiny_vocab,
)


class DictModel:
    """Probabilities looked up by (truncated history, word); the history
    holds the known words of the row's last ``order - 1`` positions."""

    def __init__(self, table, order=2, n_words=8):
        self.table = table
        self.order = order
        self.n_words = n_words
        self.history_width = order - 1

    def prob(self, rows):
        return np.array([
            self.table.get((tuple(x for x in r[-self.order : -1] if x >= 0), r[-1]), 0.0)
            for r in np.asarray(rows).tolist()
        ])


class Uniform:
    history_width = 0

    def __init__(self, n_words):
        self.n_words = n_words

    def prob(self, rows):
        return np.full(len(rows), 1.0 / self.n_words)


EOS = 7


class TestPerplexity:
    def test_deterministic_corpus_scores_one(self):
        # a bigram that reproduces its training corpus exactly
        a, b = 0, 1
        model = DictModel({
            ((), a): 1.0,
            ((a,), b): 1.0,
            ((b,), EOS): 1.0,
        })
        rep = perplexity(model, [[a, b], [a, b]], eos_id=EOS)
        assert rep.perplexity == 1.0
        assert rep.logprob_sum == 0.0
        assert rep.token_count == 6

    def test_uniform_model_scores_vocabulary_size(self):
        rng = random.Random(2)
        sents = [[rng.randrange(7) for _ in range(rng.randint(1, 5))] for _ in range(10)]
        rep = perplexity(Uniform(8), sents, eos_id=EOS)
        assert rep.perplexity == pytest.approx(8.0, rel=1e-12)

    def test_hand_computed_fractional_power(self):
        # events scored 1, 1/2, 1/2 -> PP = (1/4)^(-1/3) = 2^(2/3)
        a, b = 0, 1
        model = DictModel({
            ((), a): 1.0,
            ((a,), a): 0.5,
            ((a,), b): 0.5,
        })
        rep = perplexity(model, [[a, a, b]], include_eos=False)
        assert rep.perplexity == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
        assert rep.token_count == 3

    def test_identity_between_fields(self):
        rng = random.Random(3)
        sents = [[rng.randrange(7) for _ in range(rng.randint(1, 6))] for _ in range(12)]
        rep = perplexity(Uniform(8), sents, eos_id=EOS)
        assert rep.perplexity == math.exp(-rep.logprob_sum / rep.token_count)

    def test_sentence_order_does_not_change_total_bitwise(self):
        rng = random.Random(5)
        sents = [[rng.randrange(6) for _ in range(rng.randint(1, 6))] for _ in range(30)]
        counts = ngram_counts(sents, 2, bos_id=6, eos_id=EOS)
        model = train_backoff(counts, 8, discount=0.5, bos_id=6)
        rep1 = perplexity(model, sents, eos_id=EOS)
        shuffled = sents[:]
        rng.shuffle(shuffled)
        rep2 = perplexity(model, shuffled, eos_id=EOS)
        assert rep1.logprob_sum == rep2.logprob_sum
        assert rep1.perplexity == rep2.perplexity

    def test_per_sentence_breakdown(self):
        rng = random.Random(7)
        sents = [[rng.randrange(7) for _ in range(rng.randint(1, 5))] for _ in range(9)]
        rep = perplexity(Uniform(8), sents, eos_id=EOS, per_sentence=True)
        assert len(rep.per_sentence) == len(sents)
        for (n, lp), sent in zip(rep.per_sentence, sents):
            assert n == len(sent) + 1
            assert lp == pytest.approx((len(sent) + 1) * math.log(1 / 8), rel=1e-12)
        assert sum(n for n, _ in rep.per_sentence) == rep.token_count
        assert math.fsum(lp for _, lp in rep.per_sentence) == pytest.approx(
            rep.logprob_sum, abs=1e-9
        )

    def test_per_sentence_keeps_input_positions_when_a_sentence_is_skipped(self):
        unk = 6
        sents = [[0, 1], [unk, unk], [2]]
        rep = perplexity(Uniform(8), sents, include_eos=False, skip_unknown=True,
                         unk_id=unk, per_sentence=True)
        assert rep.per_sentence == [(2, 2 * math.log(1 / 8)), (0, 0.0), (1, math.log(1 / 8))]
        assert rep.token_count == 3

    def test_eos_events_scored_by_default(self):
        model = DictModel({((), 0): 0.5, ((0,), EOS): 0.25})
        rep = perplexity(model, [[0]], eos_id=EOS)
        assert rep.token_count == 2
        assert rep.logprob_sum == pytest.approx(math.log(0.5) + math.log(0.25), abs=1e-12)
        rep2 = perplexity(model, [[0]], include_eos=False)
        assert rep2.token_count == 1

    def test_skip_unknown_excludes_events_but_keeps_history(self):
        unk = 3
        model = DictModel({
            ((), 0): 0.5,
            ((unk,), 1): 0.25,  # reached only if unk stayed in the history
            ((1,), EOS): 0.125,
        })
        rep = perplexity(
            model, [[0, unk, 1]], eos_id=EOS, skip_unknown=True, unk_id=unk
        )
        assert rep.token_count == 3  # unk event itself not scored
        assert rep.logprob_sum == pytest.approx(
            math.log(0.5) + math.log(0.25) + math.log(0.125), abs=1e-12
        )

    def test_zero_probability_names_the_event(self):
        model = DictModel({((), 0): 1.0, ((6,), 0): 1.0})
        with pytest.raises(ValueError, match=r"word id 5 \(sentence 1, position 1\)"):
            perplexity(model, [[0], [0, 5]], include_eos=False)
        # the position counts the skipped unknown word before it
        with pytest.raises(ValueError, match=r"word id 5 \(sentence 1, position 2\)"):
            perplexity(model, [[0], [6, 0, 5]], include_eos=False, skip_unknown=True, unk_id=6)

    def test_each_log_is_taken_with_math_log(self):
        # np.log(p) is one ulp above math.log(p) for this p (numpy 2.4, x86-64)
        p = 0.9833347065534214
        rep = perplexity(DictModel({((), 0): p}), [[0]], include_eos=False, per_sentence=True)
        assert rep.logprob_sum.hex() == math.log(p).hex()
        assert rep.per_sentence == [(1, math.log(p))]

    def test_zero_probability_for_the_unknown_word_says_so(self):
        model = DictModel({((), 0): 1.0, ((0,), 0): 1.0})
        with pytest.raises(ValueError, match=r"word id 5 .*unknown word.*--skip-unknown"):
            perplexity(model, [[0], [0, 5]], include_eos=False, unk_id=5)
        with pytest.raises(ValueError, match="word id 4") as known:
            perplexity(model, [[0, 4]], include_eos=False, unk_id=5)
        assert "unknown" not in str(known.value)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="eos_id is required"):
            perplexity(Uniform(4), [[0]])
        with pytest.raises(ValueError, match="unk_id is required"):
            perplexity(Uniform(4), [[0]], include_eos=False, skip_unknown=True)
        with pytest.raises(ValueError, match="no events"):
            perplexity(Uniform(4), [[], []], include_eos=False)


class TestPerplexityOracle:
    """``perplexity`` scores all events in one ``prob`` call; it equals
    the per-event loop over ``oracle_prob`` bit for bit, errors included."""

    @staticmethod
    def class_model(data, vocab, train):
        depth = data.draw(st.integers(1, 2), label="depth")
        spec = ContextSpec(tuple(Slot(o, identity_mapper(vocab)) for o in range(-depth, 0)))
        table = extract_events(train, spec, vocab)
        params = ClusterParams(
            n_categories=data.draw(st.integers(1, 4), label="categories"),
            n_states=data.draw(st.integers(1, table.n_contexts), label="states"),
            min_count=data.draw(st.integers(1, 3), label="min count"),
        )
        if depth > 1 and data.draw(st.booleans(), label="tree"):
            clu = run_tree(table, build_suffix_tree(table), params)
        else:
            clu = run_flat(table, params)
        return ClassLM(clu, vocab, discount=data.draw(st.sampled_from([0.0, 0.5]), label="D"))

    @staticmethod
    def backoff_model(data, vocab, train):
        order = data.draw(st.integers(1, 3), label="order")
        counts = ngram_counts(train, order, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
        return train_backoff(counts, len(vocab), discount=0.5, bos_id=vocab.bos_id)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_perplexity_equals_the_oracle_bit_for_bit(self, data):
        vocab = tiny_vocab(["a", "b", "c", "d"])
        words = [vocab.ids[t] for t in "abcd"]
        unk = vocab.unk_id
        # a word left out of training gets probability 0 from a class model
        trained = words[: data.draw(st.integers(3, 4), label="trained words")]
        train = data.draw(st.lists(st.lists(st.sampled_from(trained), min_size=1, max_size=6),
                                   min_size=2, max_size=10), label="train")
        kind = data.draw(st.sampled_from(["class", "backoff", "mixture"]), label="model")
        if kind == "class":
            model = self.class_model(data, vocab, train)
        elif kind == "backoff":
            model = self.backoff_model(data, vocab, train)
        else:
            weight = data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="class weight")
            model = InterpolatedModel(
                [self.class_model(data, vocab, train), self.backoff_model(data, vocab, train)],
                [weight, 1.0 - weight],
            )
        pool = words + [unk] if data.draw(st.booleans(), label="unknown words") else trained
        test = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=6),
                                  min_size=1, max_size=8), label="test")
        # an empty sentence, and one made only of unknown words
        test += [[], [unk, unk]] if unk in pool else [[]]
        kwargs = dict(
            eos_id=vocab.eos_id,
            unk_id=unk,
            include_eos=data.draw(st.booleans(), label="include eos"),
            skip_unknown=data.draw(st.booleans(), label="skip unknown"),
            per_sentence=data.draw(st.booleans(), label="per sentence"),
        )
        try:
            want = oracle_perplexity(model, test, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                perplexity(model, test, **kwargs)
            assert str(got.value) == str(exc)
            return
        got = perplexity(model, test, **kwargs)
        assert got.token_count == want.token_count
        assert got.logprob_sum.hex() == want.logprob_sum.hex()
        assert got.perplexity.hex() == want.perplexity.hex()
        hexed = lambda rep: rep.per_sentence and [(n, lp.hex()) for n, lp in rep.per_sentence]
        assert hexed(got) == hexed(want)


class TestReports:
    def _report(self):
        return EvalReport(
            model_id="demo", token_count=100, logprob_sum=-230.2585092994046,
            perplexity=9.999999999999998,
        )

    def test_human_format_is_aligned_and_rounded(self):
        text = format_report(self._report())
        lines = text.splitlines()
        assert lines[0].split() == ["model", "demo"]
        assert lines[1].split() == ["events", "100"]
        assert lines[2].split() == ["logprob", "-230.258509"]
        assert lines[3].split() == ["perplexity", "10"]
        # keys are padded to one column
        assert len({line.index(line.split()[1]) for line in lines}) == 1

    def test_machine_lines_round_trip_at_full_precision(self):
        rep = self._report()
        lines = report_lines(rep)
        values = dict(line.split("\t") for line in lines)
        assert values["model"] == "demo"
        assert int(values["events"]) == rep.token_count
        assert float(values["logprob"]) == rep.logprob_sum
        assert float(values["perplexity"]) == rep.perplexity


class TestEMWeights:
    def test_single_update_matches_hand_computation(self):
        # one event: p = (0.5, 0.25), uniform start
        # mix = 0.375; new weights = (0.5*0.5/0.375, 0.25*0.5/0.375)
        P = np.asarray([[0.5, 0.25]])
        w, hist = em_mixture_weights(P, max_iters=1)
        assert w[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert w[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert hist == [pytest.approx(math.log(0.375), rel=1e-12)]

    def test_identical_components_keep_uniform_weights(self):
        rng = np.random.default_rng(1)
        col = rng.uniform(0.01, 1.0, size=50)
        P = np.stack([col, col], axis=1)
        w, hist = em_mixture_weights(P)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_dominant_component_takes_all_weight(self):
        rng = np.random.default_rng(2)
        n = 200
        good = rng.uniform(0.5, 1.0, size=n)
        bad = rng.uniform(1e-6, 1e-3, size=n)
        P = np.stack([good, bad], axis=1)
        w, hist = em_mixture_weights(P, max_iters=500, tol=1e-12)
        assert w[0] > 0.999
        assert abs(w.sum() - 1.0) < 1e-12

    def test_loglik_history_non_decreasing(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(1e-4, 1.0, size=(100, 4))
        w, hist = em_mixture_weights(P)
        assert len(hist) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_mixture_beats_components_on_likelihood(self):
        rng = np.random.default_rng(4)
        P = rng.uniform(1e-4, 1.0, size=(150, 3))
        w, hist = em_mixture_weights(P, max_iters=300, tol=1e-10)
        ll_mix = float(np.log(P @ w).sum())
        for k in range(3):
            ll_k = float(np.log(P[:, k]).sum())
            assert ll_mix >= ll_k - 1e-9

    def test_input_validation(self):
        P = np.asarray([[0.5, 0.5]])
        with pytest.raises(ValueError, match="at least one event"):
            em_mixture_weights(np.zeros((0, 2)))
        for iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                em_mixture_weights(P, max_iters=iters)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_nan_or_negative_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            em_mixture_weights(np.asarray([[0.5, 0.25], [0.25, 0.5]]), tol=tol)

    def test_zero_tol_runs_every_iteration(self):
        P = np.asarray([[0.9, 0.1], [0.2, 0.6], [0.3, 0.3]])
        _, hist = em_mixture_weights(P, max_iters=7, tol=0.0)
        assert len(hist) == 7

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2000),
        k=st.integers(2, 4),
        floor=st.sampled_from([1e-12, 1e-6, 1e-2]),
        power=st.floats(0.5, 8.0),
        tol=st.sampled_from([0.0, 1e-6]),
        max_iters=st.integers(1, 50),
    )
    def test_weights_equal_the_exact_sum_oracle(self, seed, n, k, floor, power, tol, max_iters):
        """The gain check changes no weight bit and no iteration count,
        and its history follows the exactly rounded sums to 1e-9."""
        P = floor + np.random.default_rng(seed).random((n, k)) ** power
        w, hist = em_mixture_weights(P, max_iters=max_iters, tol=tol)
        want_w, want_hist = oracle_em_mixture_weights(P, max_iters=max_iters, tol=tol)
        assert w.tobytes() == want_w.tobytes()
        assert len(hist) == len(want_hist)
        assert hist[0] == want_hist[0]
        assert all(abs(a - b) <= 1e-9 for a, b in zip(hist, want_hist))

    @pytest.mark.parametrize("drop, raises", [(1e-6, True), (1e-10, False)])
    def test_a_lowered_mixture_is_caught(self, monkeypatch, drop, raises):
        """Two identical columns keep the mixture, so the true gain is 0;
        lowering one event's mixture by the relative ``drop`` on the
        second iteration lowers the log-likelihood by about ``drop``,
        which must raise beyond the 1e-9 tolerance and not within it."""
        real, calls = evaluate._mix, []

        def lowered(*args):
            out = real(*args)
            calls.append(None)
            if len(calls) == 2:
                out[0] *= 1.0 - drop
            return out

        monkeypatch.setattr(evaluate, "_mix", lowered)
        col = np.random.default_rng(5).uniform(0.01, 1.0, size=500)
        P = np.stack([col, col], axis=1)
        if raises:
            with pytest.raises(RuntimeError, match="EM log-likelihood decreased"):
                em_mixture_weights(P, max_iters=5, tol=0.0)
        else:
            assert len(em_mixture_weights(P, max_iters=5, tol=0.0)[1]) == 5
        assert len(calls) >= 2

    def test_zero_mixture_event_rejected(self):
        P = np.asarray([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero probability"):
            em_mixture_weights(P)

    @CPU_PATHS
    def test_weights_are_the_same_bytes_on_every_cpu_path(self, setting):
        """A BLAS kernel, which OpenBLAS picks per CPU, or a numpy loop
        dispatched per CPU feature, must not change the tuned weights."""
        skip_unless_another_path(setting)
        assert em_weights_under(setting) == em_weights_under({})


def em_weights_under(setting: dict) -> str:
    """``float.hex`` of the EM weights of a seeded 30,000 x 3 probability
    matrix, from a fresh process with the environment ``setting``."""
    return run_under(
        setting,
        "import numpy as np\n"
        "from clusterlm.evaluate import em_mixture_weights\n"
        "P = np.random.default_rng(7).random((30000, 3))\n"
        "print(*(x.hex() for x in em_mixture_weights(P)[0].tolist()))\n",
    )


class TestTuneWeights:
    @pytest.mark.parametrize("skip_unknown", [False, True])
    @pytest.mark.parametrize("include_eos", [True, False])
    def test_tuned_mixture_not_worse_than_best_component(self, include_eos, skip_unknown):
        rng = random.Random(11)
        train = [[rng.randrange(5) for _ in range(rng.randint(2, 7))] for _ in range(80)]
        held = [[rng.randrange(5) for _ in range(rng.randint(2, 7))] for _ in range(25)]
        m2 = train_backoff(ngram_counts(train, 2, bos_id=6, eos_id=5), 7,
                           discount=0.5, bos_id=6)
        m3 = train_backoff(ngram_counts(train, 3, bos_id=6, eos_id=5), 7,
                           discount=0.5, bos_id=6)
        # skipping a word that occurs, as if it were the unknown word
        options = dict(eos_id=5, include_eos=include_eos, skip_unknown=skip_unknown,
                       unk_id=held[0][0])
        w, report = tune_weights_em([m2, m3], held, **options)
        assert abs(float(w.sum()) - 1.0) < 1e-9
        mix = InterpolatedModel([m2, m3], w)
        rescored = perplexity(mix, held, **options)
        # the report comes from the EM matrix, bit-identical to rescoring
        assert (report.token_count, report.logprob_sum, report.perplexity) == (
            rescored.token_count, rescored.logprob_sum, rescored.perplexity
        )
        pp_mix = rescored.perplexity
        pp_best = min(
            perplexity(m, held, **options).perplexity for m in (m2, m3)
        )
        assert pp_mix <= pp_best * (1 + 1e-6)

    @pytest.mark.parametrize("skip_unknown", [False, True])
    @pytest.mark.parametrize("include_eos", [True, False])
    def test_array_matrix_equals_the_per_event_oracle(self, include_eos, skip_unknown):
        sents = make_random_corpus(13, n_sentences=60, n_words=9)
        vocab, enc, table = build_table(sents, offsets=(-2, -1))
        lm = ClassLM(run_flat(table, ClusterParams(n_categories=3, n_states=4, min_count=2)),
                     vocab, discount=0.5)
        bo = train_backoff(ngram_counts(enc, 3, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
                           len(vocab), discount=0.5, bos_id=vocab.bos_id)
        uni = train_backoff(ngram_counts(enc, 1, bos_id=vocab.bos_id, eos_id=vocab.eos_id),
                            len(vocab), discount=0.5, bos_id=vocab.bos_id)
        # sentences of length 0 and 1 among longer ones
        held = [[], [enc[0][0]], *enc[1:15], [], [enc[1][0]]]
        # skipping a word that occurs, as if it were the unknown word
        skip = dict(skip_unknown=skip_unknown, unk_id=enc[1][0])
        for components in ([lm, bo], [bo, uni, lm], [uni, bo]):
            got = tune_weights_em(components, held, eos_id=vocab.eos_id,
                                  include_eos=include_eos, **skip)
            want = oracle_tune_weights_em(components, held, eos_id=vocab.eos_id,
                                          include_eos=include_eos, **skip)
            assert got[0].tolist() == want[0].tolist()
            assert got[1] == want[1]

    def test_validation(self):
        m = Uniform(4)
        with pytest.raises(ValueError, match="at least two components"):
            tune_weights_em([m], [[0]], eos_id=3)
        with pytest.raises(ValueError, match="eos_id is required"):
            tune_weights_em([m, m], [[0]])
        with pytest.raises(ValueError, match="degenerate held-out corpus"):
            tune_weights_em([m, m], [[], []], include_eos=False)
        with pytest.raises(ValueError, match="unk_id is required"):
            tune_weights_em([m, m], [[0]], include_eos=False, skip_unknown=True)
        with pytest.raises(ValueError, match="degenerate held-out corpus"):
            tune_weights_em([m, m], [[2, 2], []], include_eos=False, skip_unknown=True, unk_id=2)
