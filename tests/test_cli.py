"""Command-line interface: spec parsing, subcommands, atomicity."""

import os
import random

import numpy as np
import pytest

from clusterlm.cli import _atomic_write, format_context_spec, main, parse_context_spec
from clusterlm.corpus import Vocabulary, load_feature_map

from conftest import make_random_corpus


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

    def test_tuning_names_an_event_that_every_component_scores_zero(self, tmp_path, capsys):
        # two class models both give <unk> probability 0 (see above)
        d = tmp_path
        (d / "train.txt").write_text("a b c\nb c a\nc a b\n")
        (d / "held.txt").write_text("a b\nb zzz\n")
        run_ok(["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"], capsys)
        for k, spec in ((1, "w:-1"), (2, "w:-2,w:-1")):
            run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                    "--context", spec, "--out", d / f"c{k}.tsv"], capsys)
            run_ok(["cluster", "run", "--counts", d / f"c{k}.tsv", "--states", "2",
                    "--categories", "2", "--out", d / f"cl{k}.tsv",
                    "--model-out", d / f"m{k}.model", "--vocab", d / "v.txt"], capsys)
        unk = Vocabulary.load(d / "v.txt").unk_id
        err = run_fail(["interp", "tune", "--models", d / "m1.model", d / "m2.model",
                        "--heldout", d / "held.txt", "--vocab", d / "v.txt",
                        "--out", d / "mix.model"], capsys)
        assert err.startswith(f"error: zero probability for word id {unk} (sentence 1, position 1)")
        # interp tune has no --skip-unknown to advise
        assert "unknown word" in err and "--skip-unknown" not in err
        assert not (d / "mix.model").exists()


class TestPerSentence:
    def test_sentences_are_numbered_by_input_line(self, tmp_path, capsys):
        d = tmp_path
        (d / "train.txt").write_text("a b\na b a\n")
        (d / "test.txt").write_text("a b\nzzz yyy\nb a\n")
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


CUT_SLOT = "corrupt counts file: expected a #slot line with 3 field(s)"


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
        ["--tagmap", "no-such-tags.tsv"],
        ["--classmap", "no-such-classes.tsv"],
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
        run_ok(["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
                "--context", "w:-1", "--out", d / "c.tsv"], capsys)
        err = run_fail(["cluster", "run", "--counts", d / "c.tsv", "--states", "4",
                        "--categories", "4", "--classmap", d / "tags.tsv", "--out", d / "cl.tsv",
                        "--model-out", d / "m.model", "--vocab", d / "v.txt"], capsys)
        assert err.startswith("error:") and "--classmap is given but the context has no g:" in err
        assert not (d / "cl.tsv").exists()

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

    @pytest.mark.parametrize("model_out, damage, message", [
        (False, lambda line: "#slot\t-2", CUT_SLOT),
        (True, lambda line: "#slot\t-2", CUT_SLOT),
        (True, lambda line: line.replace("\tw\t", "\tx\t"), "unknown mapper 'x'"),
    ], ids=["cut-off", "cut-off-model-out", "unknown-name-model-out"])
    def test_damaged_slot_line_is_a_counts_error(self, workdir, capsys, model_out, damage, message):
        # with --model-out the slot names are read before the counts
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
        assert err.startswith("error:") and message in err
        assert not (d / "cl.tsv").exists() and not (d / "m.model").exists()

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
        assert err.startswith("error:") and "non-negative and sum to 1" in err

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


def _in_heap(address: int) -> bool:
    """Whether ``address`` lies in the process's brk heap."""
    with open("/proc/self/maps") as fh:
        for line in fh:
            if line.rstrip().endswith("[heap]"):
                lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
                if lo <= address < hi:
                    return True
    return False


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the mmap threshold is a glibc setting")
class TestAllocator:
    def test_large_arrays_keep_their_own_mapping_after_a_command(self, capsys):
        assert main(["--help"]) == 0
        # freeing a mapped block is what raises glibc's default threshold
        big = np.ones(8 << 20, dtype=np.uint8)
        del big
        arr = np.ones(1 << 20, dtype=np.uint8)
        assert not _in_heap(arr.ctypes.data)
