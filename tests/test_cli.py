"""Command-line interface: spec parsing, subcommands, atomicity."""

import ctypes
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clusterlm
from clusterlm.cli import _atomic_write, format_context_spec, main, parse_context_spec
from clusterlm.cluster import load_clustering
from clusterlm.corpus import Vocabulary, encode_corpus, load_feature_map, read_corpus_lines
from clusterlm.events import ContextSpec, Slot, extract_events
from clusterlm.models import ClassLM, save_classlm

from conftest import CPU_PATHS, make_random_corpus, run_under, skip_unless_another_path


class TestContextSpecStrings:
    def test_parse_canonicalizes_farthest_first(self):
        assert parse_context_spec("w:-1,t:-2") == [("t", -2), ("w", -1)]
        assert parse_context_spec(" w:-2 , w:-1 ") == [("w", -2), ("w", -1)]

    def test_format_round_trip(self):
        for s in ("w:-1", "w:-2,w:-1", "g:-3,t:-2,w:-1"):
            slots = parse_context_spec(s)
            assert parse_context_spec(format_context_spec(slots)) == slots

    def test_parse_rejects_malformed_slots(self):
        for bad in ("w", "x:-1", "w:one", "w:0", "w:1", ""):
            with pytest.raises(ValueError):
                parse_context_spec(bad)

    def test_parse_rejects_duplicate_offsets(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_context_spec("w:-1,t:-1")


@pytest.fixture()
def workdir(tmp_path):
    """Corpus files plus a helper asserting no temp leftovers."""
    train = tmp_path / "train.txt"
    held = tmp_path / "held.txt"
    rng = random.Random(5150)
    train.write_text("\n".join(make_random_corpus(5150, n_sentences=120, n_words=10)) + "\n")
    held.write_text("\n".join(make_random_corpus(5151, n_sentences=25, n_words=10)) + "\n")
    return tmp_path


def run_ok(args, capsys):
    rc = main([str(a) for a in args])
    out, err = capsys.readouterr()
    assert rc == 0, err or out
    return out


def run_fail(args, capsys, expect_rc=1):
    rc = main([str(a) for a in args])
    out, err = capsys.readouterr()
    assert rc == expect_rc
    return err


def no_tmp_leftovers(root):
    assert not list(root.rglob("*.tmp"))


class TestPipeline:
    def test_full_workflow(self, workdir, capsys):
        d = workdir
        out = run_ok(["vocab", "build", "--corpus", d / "train.txt",
                      "--out", d / "vocab.txt"], capsys)
        assert "vocabulary" in out

        out = run_ok(["counts", "collect", "--corpus", d / "train.txt",
                      "--vocab", d / "vocab.txt", "--context", "w:-2,w:-1",
                      "--out", d / "counts.tsv"], capsys)
        assert "distinct contexts" in out

        out = run_ok(["cluster", "run", "--counts", d / "counts.tsv",
                      "--states", "6", "--categories", "5", "--min-count", "2",
                      "--tree", "--out", d / "clusters.tsv",
                      "--model-out", d / "class.model",
                      "--vocab", d / "vocab.txt"], capsys)
        assert "criterion" in out and "class model" in out

        out = run_ok(["classes", "export", "--clustering", d / "clusters.tsv",
                      "--counts", d / "counts.tsv", "--vocab", d / "vocab.txt",
                      "--out", d / "classes.tsv", "--show", "3"], capsys)
        assert "class 0:" in out
        lines = (d / "classes.tsv").read_text().splitlines()
        vocab_size = len((d / "vocab.txt").read_text().splitlines()) - 3  # specials header
        assert len(lines) == vocab_size
        assert all("\t" in line for line in lines)

        run_ok(["ngram", "train", "--corpus", d / "train.txt",
                "--vocab", d / "vocab.txt", "--order", "3",
                "--out", d / "backoff.model"], capsys)

        out = run_ok(["interp", "tune", "--models", d / "class.model",
                      d / "backoff.model", "--heldout", d / "held.txt",
                      "--vocab", d / "vocab.txt", "--out", d / "mix.model"], capsys)
        assert "weights:" in out and "heldout perplexity" in out

        out = run_ok(["eval", "ppl", "--model", d / "mix.model",
                      "--test", d / "held.txt", "--vocab", d / "vocab.txt",
                      "--per-sentence", "--report", d / "eval.tsv"], capsys)
        assert "perplexity" in out
        assert "sentence 0:" in out
        report = dict(
            line.split("\t")[:2] for line in (d / "eval.tsv").read_text().splitlines()
        )
        assert float(report["perplexity"]) > 1.0
        assert int(report["events"]) == sum(
            len(l.split()) + 1 for l in (d / "held.txt").read_text().splitlines() if l.strip()
        )
        no_tmp_leftovers(d)

    def test_deterministic_corpus_reaches_perplexity_one(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\na b\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        # default min-count leaves the frequency-ranked singleton start
        # untouched; a zero discount then gives exact relative frequencies
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "3",
                "--categories", "5", "--discount", "0",
                "--out", d / "cl.tsv", "--model-out", d / "m.model",
                "--vocab", d / "v.txt"], capsys)
        run_ok(["eval", "ppl", "--model", d / "m.model", "--test", d / "train.txt",
                "--vocab", d / "v.txt", "--report", d / "r.tsv"], capsys)
        report = dict(line.split("\t") for line in (d / "r.tsv").read_text().splitlines())
        assert float(report["perplexity"]) == 1.0
        assert float(report["logprob"]) == 0.0

    def test_skip_unknown_flag(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\na b\n")
        (d / "test.txt").write_text("a zzz b\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "3",
                "--categories", "5", "--discount", "0",
                "--out", d / "cl.tsv", "--model-out", d / "m.model",
                "--vocab", d / "v.txt"], capsys)
        # the unmapped token gets zero probability under a zero discount
        err = run_fail(["eval", "ppl", "--model", d / "m.model",
                        "--test", d / "test.txt", "--vocab", d / "v.txt"], capsys)
        assert err.startswith("error:") and "zero probability" in err
        out = run_ok(["eval", "ppl", "--model", d / "m.model", "--test", d / "test.txt",
                      "--vocab", d / "v.txt", "--skip-unknown"], capsys)
        assert "perplexity" in out

    def test_zero_probability_for_the_unknown_word_says_so(self, tmp_path, capsys):
        # a vocabulary built from the training text gives <unk> no
        # training count, so the class model gives it probability 0
        d = tmp_path
        (d / "train.txt").write_text("a b c\nb c a\nc a b\n")
        (d / "test.txt").write_text("a b\nb zzz\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "2",
                "--categories", "2", "--out", d / "cl.tsv", "--model-out", d / "m.model",
                "--vocab", d / "v.txt"], capsys)
        unk = Vocabulary.load(d / "v.txt").unk_id
        err = run_fail(["eval", "ppl", "--model", d / "m.model",
                        "--test", d / "test.txt", "--vocab", d / "v.txt"], capsys)
        assert err.startswith(f"error: zero probability for word id {unk} (sentence 1, position 1)")
        assert "unknown word" in err and "--skip-unknown" in err
        out = run_ok(["eval", "ppl", "--model", d / "m.model", "--test", d / "test.txt",
                      "--vocab", d / "v.txt", "--skip-unknown"], capsys)
        assert "perplexity" in out

    @staticmethod
    def two_class_models(d, capsys):
        """Two class models that both give <unk> probability 0 (see
        above), and held-out text with an unknown word."""
        (d / "train.txt").write_text("a b c\nb c a\nc a b\n")
        (d / "held.txt").write_text("a b\nb zzz\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        for k, spec in ((1, "w:-1"), (2, "w:-2,w:-1")):
            run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--context", spec, "--out", d / f"c{k}.tsv"], capsys)
            run_ok(["cluster", "run", "--counts", d / f"c{k}.tsv", "--states", "2",
                    "--categories", "2", "--out", d / f"cl{k}.tsv",
                    "--model-out", d / f"m{k}.model", "--vocab", d / "v.txt"], capsys)

    def test_tuning_names_an_event_that_every_component_scores_zero(self, tmp_path, capsys):
        d = tmp_path
        self.two_class_models(d, capsys)
        unk = Vocabulary.load(d / "v.txt").unk_id
        err = run_fail(["interp", "tune", "--models", d / "m1.model", d / "m2.model",
                        "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                        "--out", d / "mix.model"], capsys)
        assert err.startswith(f"error: zero probability for word id {unk} (sentence 1, position 1)")
        assert "unknown word" in err and "--skip-unknown" in err
        assert not (d / "mix.model").exists()

    def test_tuning_class_models_alone_skips_unknown_words(self, tmp_path, capsys):
        d = tmp_path
        self.two_class_models(d, capsys)
        out = run_ok(["interp", "tune", "--models", d / "m1.model", d / "m2.model",
                      "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                      "--out", d / "mix.model", "--skip-unknown"], capsys)
        weights = [float(x) for x in out.splitlines()[0].split()[1:]]
        assert len(weights) == 2 and sum(weights) == pytest.approx(1.0, abs=1e-5)
        tuned = out.splitlines()[1].split()[2]
        # the mixture scores the same five events that were tuned on
        report = run_ok(["eval", "ppl", "--model", d / "mix.model", "--test", d / "held.txt",
                         "--vocab", d / "v.txt", "--skip-unknown"], capsys)
        values = dict(line.split() for line in report.splitlines())
        assert values["events"] == "5" and values["perplexity"] == tuned


class TestPerSentence:
    # a blank line predicts nothing, so it takes no sentence index
    @pytest.mark.parametrize("text", ["a b\nzzz yyy\nb a\n", "a b\n\nzzz yyy\nb a\n"])
    def test_sentences_are_numbered_by_non_blank_line(self, tmp_path, capsys, text):
        d = tmp_path
        (d / "train.txt").write_text("a b\na b a\n")
        (d / "test.txt").write_text(text)
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--order", "2", "--out", d / "ngram.model"], capsys)
        out = run_ok(["eval", "ppl", "--model", d / "ngram.model", "--test", d / "test.txt",
                      "--vocab", d / "v.txt", "--skip-unknown", "--no-eos", "--per-sentence",
                      "--report", d / "r.tsv"], capsys)
        lines = [x for x in out.splitlines() if x.startswith("sentence")]
        assert [x.split(":")[0] for x in lines] == ["sentence 0", "sentence 1", "sentence 2"]
        assert lines[1] == "sentence 1: events 0, logprob 0.000000"
        assert lines[2].startswith("sentence 2: events 2,")
        report = [x.split("\t") for x in (d / "r.tsv").read_text().splitlines()]
        rows = [x[1:] for x in report if x[0] == "sentence"]
        assert [r[:2] for r in rows] == [["0", "2"], ["1", "0"], ["2", "2"]]


class TestTagAndClassSlots:
    def test_tag_slots_need_tagmap(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        err = run_fail(["counts", "collect", "--corpus", d / "train.txt",
                        "--vocab", d / "v.txt", "--context", "t:-1",
                        "--out", d / "c.tsv"], capsys)
        assert err.startswith("error:") and "--tagmap" in err
        assert not (d / "c.tsv").exists()
        no_tmp_leftovers(d)

    def test_class_map_round_trips_through_counts(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c1.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c1.tsv", "--states", "4",
                "--categories", "4", "--min-count", "2", "--out", d / "cl1.tsv"], capsys)
        run_ok(["classes", "export", "--clustering", d / "cl1.tsv", "--counts", d / "c1.tsv",
                "--vocab", d / "v.txt", "--out", d / "classes.tsv"], capsys)
        # exported categories feed a second, class-conditioned count pass
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "g:-2,w:-1", "--classmap", d / "classes.tsv",
                "--out", d / "c2.tsv"], capsys)
        head = (d / "c2.tsv").read_text().splitlines()[:6]
        assert any(line.startswith("#slot\t-2\tg") for line in head)

    def test_the_counts_file_carries_its_maps_to_the_class_model(self, workdir, capsys):
        # the model equals one built from the maps themselves, without a file between
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        (d / "tags.tsv").write_text("w0\tA\nw1\tB\nw2\tA\nw3\tC\n#default\tD\n")
        (d / "classes.tsv").write_text("w0\t1\nw1\t1\nw4\t2\n#default\t0\n")
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "t:-2,g:-1", "--tagmap", d / "tags.tsv",
                "--classmap", d / "classes.tsv", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--tree", "--states", "6",
                "--categories", "4", "--min-count", "2", "--out", d / "cl.tsv",
                "--model-out", d / "m.model", "--vocab", d / "v.txt"], capsys)
        vocab = Vocabulary.load(d / "v.txt")
        spec = ContextSpec((Slot(-2, load_feature_map(d / "tags.tsv", vocab, "t")),
                            Slot(-1, load_feature_map(d / "classes.tsv", vocab, "g"))))
        table = extract_events(encode_corpus(read_corpus_lines(d / "train.txt"), vocab), spec, vocab)
        save_classlm(ClassLM(load_clustering(d / "cl.tsv", table), vocab), d / "direct.model")
        assert (d / "direct.model").read_bytes() == (d / "m.model").read_bytes()

    @pytest.mark.parametrize("lines", [
        ["#x a b #x", "a #default b a", "#x b a #x", "b a #default c"],
        ["#x a b #x", "a b a", "#x b a #x", "b a c"],
    ])
    def test_exported_class_map_keeps_words_that_start_with_a_hash(self, tmp_path, capsys,
                                                                    lines):
        d = tmp_path
        (d / "train.txt").write_text("\n".join(lines) + "\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c1.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c1.tsv", "--states", "3",
                "--categories", "3", "--min-count", "1", "--out", d / "cl1.tsv"], capsys)
        run_ok(["classes", "export", "--clustering", d / "cl1.tsv", "--counts", d / "c1.tsv",
                "--vocab", d / "v.txt", "--out", d / "classes.tsv"], capsys)
        exported = dict(line.split("\t") for line in (d / "classes.tsv").read_text().splitlines())
        vocab = Vocabulary.load(d / "v.txt")
        assert "#x" in exported and set(exported) == set(vocab.tokens)
        # every word, those starting with # included, loads with its exported class
        mapper = load_feature_map(d / "classes.tsv", vocab, "g")
        values = sorted(set(exported.values()), key=int)
        assert {t: values[mapper.table[w]] for w, t in enumerate(vocab.tokens)} == exported
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "g:-1", "--classmap", d / "classes.tsv",
                "--out", d / "c2.tsv"], capsys)

    def test_cluster_model_out_requires_vocab(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                        "--categories", "4", "--out", d / "cl.tsv",
                        "--model-out", d / "m.model"], capsys)
        assert "requires --vocab" in err
        assert not (d / "m.model").exists()


CUT_SLOT = "corrupt counts file {bad}: line 3: expected a #slot line with 3 field(s)"


class TestFailureModes:
    def test_missing_input_file(self, tmp_path, capsys):
        err = run_fail(["vocab", "build", "--corpus", tmp_path / "nope.txt",
                        "--out", tmp_path / "v.txt"], capsys)
        assert err.startswith("error:")
        assert not (tmp_path / "v.txt").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["vocab", "build", "--corpus", "x", "--out", "y", "--bogus"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        rc = main(["vocab", "build"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--order", "2", "--cutoff3", "7"], "--cutoff3 needs --order 3"),
        (["--order", "3", "--cutoff3", "-1"], "--cutoff3 must not be negative"),
    ])
    def test_ngram_cutoff3_is_checked(self, workdir, capsys, flags, message):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        err = run_fail(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                        *flags, "--out", d / "ngram.model"], capsys)
        assert err.startswith("error:") and message in err
        assert not (d / "ngram.model").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--order", "0"], "--order must be at least 1"),
        (["--discount", "1"], "--discount must lie in (0, 1)"),
        (["--discount", "nan"], "--discount must lie in (0, 1)"),
    ])
    def test_ngram_order_and_discount_are_checked_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        d = tmp_path
        # the corpus and vocabulary do not exist: the flags are checked first
        err = run_fail(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                        *flags, "--out", d / "ngram.model"], capsys)
        assert err.startswith("error:") and message in err
        assert not (d / "ngram.model").exists()

    @pytest.mark.parametrize("flags", [
        ["--discount", "0.3"],
        ["--vocab", "v.txt"],
    ])
    def test_cluster_model_flags_need_model_out(self, workdir, capsys, flags):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                        "--categories", "4", *flags, "--out", d / "cl.tsv"], capsys)
        assert err.startswith("error:") and f"{flags[0]} is used only with --model-out" in err
        assert not (d / "cl.tsv").exists()

    @pytest.mark.parametrize("flag", ["--tagmap", "--classmap"])
    def test_cluster_run_takes_no_feature_map(self, tmp_path, capsys, flag):
        # the counts file carries the maps it was collected with
        d = tmp_path
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", flag, d / "map.tsv",
                        "--out", d / "cl.tsv", "--model-out", d / "m.model", "--vocab", d / "v.txt"],
                       capsys, expect_rc=2)
        assert f"unrecognized arguments: {flag}" in err
        assert not list(d.iterdir())

    def test_cluster_discount_is_checked_before_clustering(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                        "--categories", "4", "--discount", "7", "--out", d / "cl.tsv",
                        "--model-out", d / "m.model", "--vocab", d / "v.txt"], capsys)
        assert err.startswith("error:") and "discount must lie in [0, 1)" in err
        assert not (d / "cl.tsv").exists() and not (d / "m.model").exists()

    def test_map_without_its_slot_is_rejected(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        (d / "tags.tsv").write_text("")
        err = run_fail(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                        "--context", "w:-1", "--tagmap", d / "tags.tsv",
                        "--out", d / "c.tsv"], capsys)
        assert err.startswith("error:") and "--tagmap is given but the context has no t:" in err
        assert not (d / "c.tsv").exists()

    def test_negative_show_is_rejected(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                "--categories", "4", "--out", d / "cl.tsv"], capsys)
        err = run_fail(["classes", "export", "--clustering", d / "cl.tsv", "--counts", d / "c.tsv",
                        "--vocab", d / "v.txt", "--out", d / "classes.tsv",
                        "--show", "-4847"], capsys)
        assert err.startswith("error:") and "--show must not be negative" in err
        assert not (d / "classes.tsv").exists()

    def test_interp_max_iters_is_checked(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        for order in (2, 3):
            run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--order", order, "--out", d / f"ngram{order}.model"], capsys)
        err = run_fail(["interp", "tune", "--models", d / "ngram2.model", d / "ngram3.model",
                        "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                        "--max-iters", "-3", "--out", d / "mix.model"], capsys)
        assert err.startswith("error:") and "--max-iters must be at least 1" in err
        assert not (d / "mix.model").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_interp_tol_is_checked_before_loading(self, tmp_path, capsys, tol):
        d = tmp_path
        # the model files do not exist: the flag is checked first
        err = run_fail(["interp", "tune", "--models", d / "a.model", d / "b.model",
                        "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                        "--tol", tol, "--out", d / "mix.model"], capsys)
        assert err.startswith("error:") and "--tol must be a non-negative number" in err
        assert not (d / "mix.model").exists()

    @pytest.mark.parametrize("conv", ["nan", "inf", "-0.5"])
    def test_cluster_conv_is_checked(self, workdir, capsys, conv):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                        "--categories", "4", "--conv", conv, "--out", d / "cl.tsv"], capsys)
        assert err.startswith("error:")
        assert "convergence threshold must be a finite non-negative number" in err
        assert not (d / "cl.tsv").exists()

    def test_vocabulary_of_another_size_is_rejected(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--max-size", "4",
                "--out", d / "small.txt"], capsys)
        for order in (2, 3):
            run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--order", order, "--out", d / f"ngram{order}.model"], capsys)
        n_words = len((d / "v.txt").read_text().splitlines()) - 3  # specials header
        n_small = len((d / "small.txt").read_text().splitlines()) - 3
        # the model is checked before the text is read
        err = run_fail(["interp", "tune", "--models", d / "ngram2.model", d / "ngram3.model",
                        "--heldout", d / "no-such-heldout.txt", "--vocab", d / "small.txt",
                        "--out", d / "mix.model"], capsys)
        assert err.startswith("error:") and f"{n_words} words" in err and f"has {n_small}" in err
        assert not (d / "mix.model").exists()
        run_ok(["interp", "tune", "--models", d / "ngram2.model", d / "ngram3.model",
                "--heldout", d / "held.txt", "--vocab", d / "v.txt", "--out", d / "mix.model"],
               capsys)
        for model in ("ngram3.model", "mix.model"):
            err = run_fail(["eval", "ppl", "--model", d / model, "--test", d / "no-such-test.txt",
                            "--vocab", d / "small.txt", "--report", d / "r.tsv"], capsys)
            assert err.startswith("error:") and f"{n_words} words" in err
            assert f"has {n_small}" in err
        assert not (d / "r.tsv").exists()
        # a class map is written for the words of the clustering's vocabulary
        (d / "more.txt").write_text((d / "train.txt").read_text() + "x1 x2\n")
        run_ok(["vocab", "build", "--corpus", d / "more.txt", "--out", d / "big.txt"], capsys)
        n_big = len((d / "big.txt").read_text().splitlines()) - 3
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                "--categories", "4", "--out", d / "cl.tsv"], capsys)
        for vocab, n in (("small.txt", n_small), ("big.txt", n_big)):
            err = run_fail(["classes", "export", "--clustering", d / "cl.tsv", "--counts",
                            d / "c.tsv", "--vocab", d / vocab, "--out", d / "g.txt"], capsys)
            assert err.startswith("error:") and f"{n_words} words" in err and f"has {n}" in err
        assert not (d / "g.txt").exists()

    def test_a_huge_counts_vocab_is_a_counts_error(self, tmp_path, capsys):
        # not the MemoryError of a 10**12-word identity map
        d = tmp_path
        (d / "c.tsv").write_text("#clusterlm-counts v1\n#vocab\t1000000000000\n"
                                 "#slot\t-1\tw\t1000000000000\n0\t1\t2\n")
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "2",
                        "--categories", "2", "--out", d / "cl.tsv"], capsys)
        assert err.startswith("error:")
        assert f"corrupt counts file {d / 'c.tsv'}: line 2: #vocab outside [1, 2**31)" in err
        assert not (d / "cl.tsv").exists()

    @pytest.mark.parametrize("model_out, damage, message", [
        (False, lambda line: "#slot\t-2", CUT_SLOT),
        (True, lambda line: "#slot\t-2", CUT_SLOT),
        (True, lambda line: line.replace("\tw\t", "\tx\t"),
         "corrupt counts file {bad}: line 5: slot -2 (x) has no #map line; "
         "re-run clusterlm counts collect"),
    ], ids=["cut-off", "cut-off-model-out", "unknown-name-model-out"])
    def test_damaged_slot_line_is_a_counts_error(self, workdir, capsys, model_out, damage, message):
        # a slot other than w is rebuilt from its #map line, which this file lacks
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-2,w:-1", "--out", d / "c.tsv"], capsys)
        lines = (d / "c.tsv").read_text().splitlines()
        (d / "bad.tsv").write_text("\n".join(
            damage(line) if line.startswith("#slot\t-2\t") else line for line in lines
        ) + "\n")
        flags = ["--model-out", d / "m.model", "--vocab", d / "v.txt"] if model_out else []
        err = run_fail(["cluster", "run", "--counts", d / "bad.tsv", "--states", "4",
                        "--categories", "4", "--out", d / "cl.tsv", *flags], capsys)
        assert err.startswith("error:") and message.format(bad=d / "bad.tsv") in err
        assert not (d / "cl.tsv").exists() and not (d / "m.model").exists()

    @pytest.mark.parametrize("weights, second, message", [
        ("0.5 0.6", "n3.model", "weights must be finite, non-negative and sum to 1"),
        ("1.0", "n3.model", "one weight per component required"),
        ("0.5 0.5", "xcm2.txt", "line 4: cannot open component xcm2.txt: "
         "No such file or directory"),
    ], ids=["weights-sum", "weight-count", "missing-component"])
    def test_a_mixture_error_names_the_mixture_file(
        self, workdir, capsys, weights, second, message
    ):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        for order in (2, 3):
            run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--order", order, "--out", d / f"n{order}.model"], capsys)
        (d / "m.model").write_text(
            f"#clusterlm-interp v1\n#weights\t{weights}\n"
            f"#component\tn2.model\n#component\t{second}\n"
        )
        err = run_fail(["eval", "ppl", "--model", d / "m.model", "--test", d / "held.txt",
                        "--vocab", d / "v.txt"], capsys)
        assert err == f"error: corrupt mixture file {d / 'm.model'}: {message}\n"

    def test_out_of_range_word_ids_are_errors(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        run_ok(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                "--categories", "4", "--out", d / "cl.tsv"], capsys)
        counts = (d / "c.tsv").read_text()
        (d / "bad_c.tsv").write_text(counts + "3\t99\t1\n")
        err = run_fail(["cluster", "run", "--counts", d / "bad_c.tsv", "--states", "4",
                        "--categories", "4", "--out", d / "cl2.tsv"], capsys)
        assert err.startswith("error:") and "word ids" in err
        assert not (d / "cl2.tsv").exists()
        lines = (d / "cl.tsv").read_text().splitlines()
        i = lines.index("#G") + 1
        lines[i] = "99999\t0"
        (d / "bad_cl.tsv").write_text("\n".join(lines) + "\n")
        err = run_fail(["classes", "export", "--clustering", d / "bad_cl.tsv",
                        "--counts", d / "c.tsv", "--vocab", d / "v.txt",
                        "--out", d / "classes.tsv"], capsys)
        assert err.startswith("error:") and "word id" in err

    def test_counts_float64_cannot_hold_are_errors(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        lines = (d / "c.tsv").read_text().splitlines()
        rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
        for i in rows[:2]:
            ctx, word, _ = lines[i].split("\t")
            lines[i] = f"{ctx}\t{word}\t{2**53 + 1}"
        (d / "big_c.tsv").write_text("\n".join(lines) + "\n")
        err = run_fail(["cluster", "run", "--counts", d / "big_c.tsv", "--states", "4",
                        "--categories", "4", "--out", d / "cl.tsv"], capsys)
        assert err.startswith("error:") and "2**53" in err
        assert not (d / "cl.tsv").exists()

    @pytest.mark.parametrize("weights", ["nan 1.0", "1.0 nan"])
    def test_mixture_with_a_nan_weight_is_rejected(self, workdir, capsys, weights):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--order", "2", "--out", d / "b.model"], capsys)
        (d / "mix.model").write_text(
            f"#clusterlm-interp v1\n#weights\t{weights}\n#component\tb.model\n"
            "#component\tb.model\n"
        )
        err = run_fail(["eval", "ppl", "--model", d / "mix.model", "--test", d / "held.txt",
                        "--vocab", d / "v.txt"], capsys)
        assert err.startswith("error:") and "line 2: a weight is not a number: 'nan'" in err

    def test_mixture_that_contains_itself_is_rejected(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--order", "2", "--out", d / "b.model"], capsys)
        (d / "mix.model").write_text(
            "#clusterlm-interp v1\n#weights\t0.5 0.5\n#component\tb.model\n"
            "#component\tmix.model\n"
        )
        err = run_fail(["eval", "ppl", "--model", d / "mix.model", "--test", d / "held.txt",
                        "--vocab", d / "v.txt"], capsys)
        assert err == f"error: mixture file {d / 'mix.model'} contains itself\n"

    @pytest.mark.parametrize("command", ["interp tune", "cluster run"])
    def test_an_output_that_would_overwrite_an_input_is_rejected(
        self, workdir, capsys, monkeypatch, command
    ):
        """``interp tune --out`` naming one of its ``--models``, or ``cluster
        run --model-out`` naming its ``--out``, is rejected before anything
        is read or written, however the path is spelled."""
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        cluster = ["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                   "--categories", "4", "--min-count", "2", "--vocab", d / "v.txt"]
        run_ok(cluster + ["--out", d / "cl.tsv", "--model-out", d / "m.model"], capsys)
        run_ok(["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--order", "2", "--out", d / "b.model"], capsys)
        monkeypatch.chdir(d)
        if command == "interp tune":
            kept, args = "m.model", ["interp", "tune", "--models", d / "m.model", d / "b.model",
                                     "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                                     "--out", "m.model"]
            message = "--out m.model would overwrite one of its --models"
        else:
            kept, args = "cl.tsv", cluster + ["--out", d / "cl.tsv", "--model-out", "cl.tsv"]
            message = "--model-out cl.tsv would overwrite the --out clustering"
        before = (d / kept).read_bytes()
        assert run_fail(args, capsys) == f"error: {message}\n"
        assert (d / kept).read_bytes() == before
        no_tmp_leftovers(d)

    def test_non_model_file_rejected_by_interp(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\n")
        (d / "junk.model").write_text("not a model\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        err = run_fail(["interp", "tune", "--models", d / "junk.model", d / "junk.model",
                        "--heldout", d / "train.txt", "--vocab", d / "v.txt",
                        "--out", d / "mix.model"], capsys)
        assert "unrecognized model file" in err
        assert not (d / "mix.model").exists()


class TestManifest:
    def test_manifest_records_inputs_and_argv(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\nb a\n")
        argv = ["vocab", "build", "--corpus", str(d / "train.txt"),
                "--out", str(d / "v.txt"), "--manifest", str(d / "m1.tsv")]
        run_ok(argv, capsys)
        lines = (d / "m1.tsv").read_text().splitlines()
        assert lines[0] == "#clusterlm-manifest v1"
        assert lines[1].startswith("#argv\t")
        digest, path = lines[2].split("\t")
        assert len(digest) == 64 and path.endswith("train.txt")

    def test_manifest_is_deterministic(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\nb a\n")
        base = ["vocab", "build", "--corpus", str(d / "train.txt"), "--out", str(d / "v.txt")]
        run_ok(base + ["--manifest", str(d / "m1.tsv")], capsys)
        run_ok(base + ["--manifest", str(d / "m2.tsv")], capsys)
        m1 = (d / "m1.tsv").read_text().replace("m1.tsv", "MAN")
        m2 = (d / "m2.tsv").read_text().replace("m2.tsv", "MAN")
        assert m1 == m2


class TestReproducibility:
    def test_repeated_runs_write_identical_bytes(self, workdir, capsys):
        d = workdir
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        for out in ("c1.tsv", "c2.tsv"):
            run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--context", "w:-2,w:-1", "--out", d / out], capsys)
        assert (d / "c1.tsv").read_bytes() == (d / "c2.tsv").read_bytes()
        for out in ("cl1.tsv", "cl2.tsv"):
            run_ok(["cluster", "run", "--counts", d / "c1.tsv", "--states", "5",
                    "--categories", "5", "--min-count", "2", "--tree",
                    "--out", d / out], capsys)
        assert (d / "cl1.tsv").read_bytes() == (d / "cl2.tsv").read_bytes()

    @CPU_PATHS
    def test_the_pipeline_writes_the_same_bytes_on_every_cpu_path(
        self, setting, cpu_path_pipeline, tmp_path
    ):
        """No file a pipeline writes, and no line it prints, depends on
        the BLAS kernel OpenBLAS picks for the CPU or on numpy's SIMD
        level."""
        skip_unless_another_path(setting)
        assert pipeline_under(setting, tmp_path) == cpu_path_pipeline


# every stage: tree and flat class models of one counts file, mixed with a trigram
CPU_PATH_PIPELINE = [
    ["vocab", "build", "--corpus", "train.txt", "--out", "vocab.txt"],
    ["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
     "--context", "w:-2,w:-1", "--out", "counts.tsv"],
    ["cluster", "run", "--counts", "counts.tsv", "--states", "6", "--categories", "5",
     "--min-count", "2", "--tree", "--out", "tree.tsv", "--model-out", "tree.model",
     "--vocab", "vocab.txt"],
    ["cluster", "run", "--counts", "counts.tsv", "--states", "6", "--categories", "5",
     "--min-count", "2", "--out", "flat.tsv", "--model-out", "flat.model",
     "--vocab", "vocab.txt"],
    ["ngram", "train", "--corpus", "train.txt", "--vocab", "vocab.txt", "--order", "3",
     "--out", "ngram.model"],
    ["interp", "tune", "--models", "tree.model", "flat.model", "ngram.model",
     "--heldout", "held.txt", "--vocab", "vocab.txt", "--out", "mix.model"],
    ["eval", "ppl", "--model", "mix.model", "--test", "test.txt", "--vocab", "vocab.txt",
     "--report", "report.txt"],
]


def pipeline_under(setting: dict, root: Path) -> dict[str, bytes]:
    """Every file of ``CPU_PATH_PIPELINE``, and what it printed, run in
    ``root`` by a fresh process with the CPU path ``setting``."""
    for name, seed, n in (("train", 91, 300), ("held", 92, 60), ("test", 93, 60)):
        (root / f"{name}.txt").write_text("\n".join(make_random_corpus(seed, n, 30)) + "\n")
    printed = run_under(
        setting,
        "import json, sys\n"
        "from clusterlm.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert main(args) == 0, args\n",
        json.dumps(CPU_PATH_PIPELINE),
        cwd=root,
    )
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return {"<stdout>": printed.encode(), **files}


@pytest.fixture(scope="module")
def cpu_path_pipeline(tmp_path_factory):
    """``pipeline_under`` this host's own CPU path, run once."""
    return pipeline_under({}, tmp_path_factory.mktemp("default"))


# every stage and slot kind: word, tag and exported-class contexts, flat and
# tree class models, two backoff orders, a mixture and its per-sentence report
GOLDEN_PIPELINE = [
    ["vocab", "build", "--corpus", "train.txt", "--out", "vocab.txt"],
    ["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
     "--context", "w:-1", "--out", "c1.tsv"],
    ["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
     "--context", "w:-2,w:-1", "--out", "c2.tsv"],
    ["cluster", "run", "--counts", "c1.tsv", "--states", "8", "--categories", "6",
     "--min-count", "2", "--out", "flat.tsv", "--model-out", "flat.model",
     "--vocab", "vocab.txt"],
    ["cluster", "run", "--counts", "c2.tsv", "--states", "10", "--categories", "6",
     "--min-count", "2", "--tree", "--out", "tree.tsv", "--model-out", "tree.model",
     "--vocab", "vocab.txt"],
    ["classes", "export", "--clustering", "flat.tsv", "--counts", "c1.tsv",
     "--vocab", "vocab.txt", "--out", "classes.tsv"],
    ["counts", "collect", "--corpus", "train.txt", "--vocab", "vocab.txt",
     "--context", "t:-2,g:-1", "--tagmap", "tags.tsv", "--classmap", "classes.tsv",
     "--out", "ctg.tsv"],
    ["cluster", "run", "--counts", "ctg.tsv", "--states", "8", "--categories", "6",
     "--min-count", "2", "--tree", "--out", "tg.tsv", "--model-out", "tg.model",
     "--vocab", "vocab.txt"],
    ["ngram", "train", "--corpus", "train.txt", "--vocab", "vocab.txt", "--order", "3",
     "--out", "ng3.model"],
    ["ngram", "train", "--corpus", "train.txt", "--vocab", "vocab.txt", "--order", "8",
     "--out", "ng8.model"],
    ["interp", "tune", "--models", "tree.model", "flat.model", "tg.model", "ng3.model",
     "--heldout", "held.txt", "--vocab", "vocab.txt", "--out", "mix.model"],
    ["eval", "ppl", "--model", "mix.model", "--test", "test.txt", "--vocab", "vocab.txt",
     "--per-sentence", "--report", "report.txt"],
    ["eval", "ppl", "--model", "ng8.model", "--test", "test.txt", "--vocab", "vocab.txt",
     "--report", "report8.txt"],
]

# sha256 of every file GOLDEN_PIPELINE reads or writes, and of what it printed
GOLDEN_DIGESTS = {
    "<stdout>": "ce9d61f39ebf9f9c38403cbd2e21cea7efdc470544066b977c37d7eb1ce561c5",
    "c1.tsv": "b738bb3180ca00fafba3876b1b775fd245cbe67987265598e4b28166af3b0ee3",
    "c2.tsv": "e4febe6b9edf0f7cbe0835e47ce74a03c218ee1cdb2513a9a9cc2752ebf0f1d0",
    "classes.tsv": "c6f2ecd6d3fd7b6c318b037aca586d0aa72b3d5e66a06fc965ec22a8f080f3b8",
    "ctg.tsv": "9dfab2d8b1d2f97989d9d110fa2df28cab27521af5054cbeb507217d9f032f8c",
    "flat.model": "1f699b0966e7d2e4cf082337b134d83c7336c311d223890612ecb3c3207cfffd",
    "flat.tsv": "f83733412adcf65c05a6878e8aeba44121f4ba57069aace9dc48ce65462b513a",
    "held.txt": "bb9fd2d11a3034b33e795595c18650f8f52837371136c2b3f726e808b15eb925",
    "mix.model": "5f419295c9b40832371b45eda83a69a63dbdd84f6c7ac234a60e5bb9d8cf468f",
    "ng3.model": "3980efa2ffd9b020a0658bed5b0a5c516ad9806248ff535237bdb6515d3079d7",
    "ng8.model": "15dfdf4281878ce799fd29484471810b5a379fa9782a28dec6817ff0608ac739",
    "report.txt": "698a0536aacf6f5c05eee245a5c39f490d1fbc3d81b2f71f2a2370c599708652",
    "report8.txt": "04809b702f7035d7c8084a9640b7c250386d13120e0554e0f441fad7bd7ba520",
    "tags.tsv": "aadaca277948781c4faf2ca2f47714505969f122ac67e511d344abc2eb446a90",
    "test.txt": "9f682842fd025d514207880b1b843985508826bfb480e9ee6aef996e27efec8a",
    "tg.model": "dd69cee491fa903e4ee49b04750350d66c7178307be567fe041d5e6e95fe977a",
    "tg.tsv": "709b78db35001ddf31814f152dd137ca6ecbed0d48b22ce8415c748221cf65bf",
    "train.txt": "6816b4743a22a0810bb302cd5a639bde3d80bbfe33d119240c2a9f15459f7a94",
    "tree.model": "150b540db73504d4452ddd5bc2e05b850189ff6325cb4016ee3ae3b9ddde9c50",
    "tree.tsv": "0565050cf41a0f59c3c1b0a0e40c33c31fc675cbee43f11651038df670f2ac93",
    "vocab.txt": "4fafa6a2c040325f4462ccbeb9aba3b799ced3434a876da7272483fa2224c8b3",
}


def _reproducible_host() -> bool:
    """x86-64 with AVX2 and FMA, the floor for reproducible bytes."""
    core = getattr(np, "_core", None) or np.core
    features = core._multiarray_umath.__cpu_features__
    return platform.machine().lower() in ("x86_64", "amd64") and all(
        features.get(f) for f in ("AVX2", "FMA3")
    )


@pytest.mark.skipif(not _reproducible_host(), reason="bytes are pinned on x86-64-v3 and up")
def test_the_pipeline_writes_its_recorded_bytes(tmp_path, monkeypatch, capsys):
    """Every file of ``GOLDEN_PIPELINE`` and every line it prints has the
    digest recorded in ``GOLDEN_DIGESTS``: a change that alters an output
    byte fails here, and must say so and record the new digests."""
    monkeypatch.chdir(tmp_path)
    for name, seed, n in (("train", 71, 400), ("held", 72, 80), ("test", 73, 60)):
        Path(f"{name}.txt").write_text("\n".join(make_random_corpus(seed, n, 40)) + "\n")
    Path("tags.tsv").write_text("".join(f"w{i}\tT{i % 5}\n" for i in range(0, 40, 2))
                                + "#default\tX\n")
    printed = []
    for args in GOLDEN_PIPELINE:
        printed.append(run_ok(args, capsys))
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    files["<stdout>"] = "".join(printed).encode()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == GOLDEN_DIGESTS


class TestAtomicWrite:
    def test_failed_writer_leaves_no_temp_file_and_no_target(self, tmp_path):
        target = tmp_path / "out.txt"

        def writer(p):
            p.write_text("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError):
            _atomic_write(target, writer)
        assert list(tmp_path.iterdir()) == []
        target.write_text("previous")
        with pytest.raises(RuntimeError):
            _atomic_write(target, writer)
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_text() == "previous"

    def test_interleaved_writers_keep_their_own_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        seen = {}

        def second(p):
            p.write_text("second")

        def first(p):
            p.write_text("first")
            # another run writes the same output while this one is mid-write
            _atomic_write(target, second)
            seen["after_second"] = target.read_text()
            seen["own_temp"] = p.read_text()

        _atomic_write(target, first)
        assert seen == {"after_second": "second", "own_temp": "first"}
        assert target.read_text() == "first"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_output_mode_matches_a_plain_write(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        _atomic_write(tmp_path / "atomic.txt", lambda p: p.write_text("x"))
        assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the mmap threshold is a glibc setting")
class TestAllocator:
    # run in a fresh interpreter, so that no heap state left by other tests decides it
    CHECK = """
import numpy as np
from clusterlm.cli import main

assert main(["--help"]) == 0
# freeing a mapped block is what raises glibc's default threshold
big = np.ones(8 << 20, dtype=np.uint8)
del big
arr = np.ones(1 << 20, dtype=np.uint8)
with open("/proc/self/maps") as fh:
    heaps = [line.split()[0].split("-") for line in fh if line.rstrip().endswith("[heap]")]
assert not any(int(lo, 16) <= arr.ctypes.data < int(hi, 16) for lo, hi in heaps)
"""

    # glibc 2.33 or later: the free top of the heap after a command and
    # many small blocks freed, which the trim threshold bounds
    KEEPCOST = """
import ctypes
import numpy as np
from clusterlm.cli import main

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = Mallinfo2
big = np.ones(8 << 20, dtype=np.uint8)
del big
assert main(["vocab", "build", "--corpus", "corpus.txt", "--out", "vocab.txt"]) == 0
blocks = [bytes(2000) for _ in range(5000)]
del blocks
print(mallinfo2().keepcost)
"""

    @staticmethod
    def run(check: str, cwd: Path | None = None) -> str:
        src = Path(clusterlm.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *sys.path])}
        done = subprocess.run(
            [sys.executable, "-c", check], env=env, cwd=cwd, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_large_arrays_keep_their_own_mapping_after_a_command(self):
        self.run(self.CHECK)

    @pytest.mark.skipif(
        _glibc() and not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="glibc before 2.33"
    )
    def test_the_free_heap_top_is_given_back_after_a_command(self, tmp_path):
        # the freed 8 MiB array raises glibc's default trim threshold to
        # about 8 MiB, and so much free heap top would stay resident
        (tmp_path / "corpus.txt").write_text("\n".join(make_random_corpus(3, 2000)) + "\n")
        keepcost = int(self.run(self.KEEPCOST, tmp_path).split()[-1])
        assert keepcost < 1 << 20
