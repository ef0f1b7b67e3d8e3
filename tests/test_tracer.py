"""The benchmark's tracer (``perfbench/spans.py``) wraps public names of
the package where their callers look them up.  A rename in the package
that would break a traced benchmark run fails here instead."""

from pathlib import Path

from clusterlm.cli import main

from conftest import make_random_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_instruments_a_pipeline_and_restores(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [(owner, attr, owner.__dict__[attr]) for *_, owner, attr, _, _ in spans._WRAPS]
    tracer = spans.Tracer("contract")
    tracer.instrument()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in originals)
        d = tmp_path
        (d / "train.txt").write_text("\n".join(make_random_corpus(7, 40, n_words=8)) + "\n")
        stages = [
            ["vocab", "build", "--corpus", d / "train.txt", "--out", d / "v.txt"],
            ["counts", "collect", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
             "--context", "w:-2,w:-1", "--out", d / "c.tsv"],
            ["cluster", "run", "--counts", d / "c.tsv", "--states", "4", "--categories", "4",
             "--min-count", "2", "--tree", "--out", d / "cl.tsv", "--vocab", d / "v.txt",
             "--model-out", d / "class.model"],
            ["ngram", "train", "--corpus", d / "train.txt", "--vocab", d / "v.txt",
             "--out", d / "ngram.model"],
            ["interp", "tune", "--models", d / "class.model", d / "ngram.model",
             "--heldout", d / "train.txt", "--vocab", d / "v.txt", "--out", d / "mix.model"],
            ["eval", "ppl", "--model", d / "mix.model", "--test", d / "train.txt",
             "--vocab", d / "v.txt"],
        ]
        for stage in stages:
            with tracer.span("cli." + "_".join(stage[:2])):
                assert main([str(a) for a in stage]) == 0, capsys.readouterr()
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)
    metrics = tracer.layers()["metrics"]
    assert metrics["models.load_classlm_s"] > 0 and metrics["models.prob_calls"] > 0
    assert metrics["cluster.sweeps"] > 0 and metrics["events.contexts"] > 0
