"""The README's Python API example and CLI pipeline run as printed."""

import math
import shlex
from pathlib import Path

from clusterlm.cli import main

from conftest import make_random_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_example() -> str:
    """The first ```python block under the README's ``## Python API``."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def cli_pipeline() -> list[list[str]]:
    """The argv of each ``clusterlm`` command of the first ```sh block
    under the README's ``## CLI pipeline``, its ``\\`` continuations
    joined and its words split as a shell splits them."""
    section = README.read_text(encoding="utf-8").split("\n## CLI pipeline\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").split("\n")]
    assert all(words[0] == "clusterlm" for words in commands if words)
    return [words[1:] for words in commands if words]


def write_corpora(root: Path) -> None:
    """Training, held-out and test text with enough words and contexts
    for the README's 100 categories and 200 states."""
    for name, seed, n in (("train", 3, 1500), ("held", 4, 100), ("test", 5, 100)):
        sentences = make_random_corpus(seed, n, n_words=150)
        (root / f"{name}.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    write_corpora(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(python_api_example(), str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
    assert (tmp_path / "class.model").is_file() and (tmp_path / "backoff.model").is_file()


def test_cli_pipeline_runs(tmp_path, monkeypatch, capsys):
    write_corpora(tmp_path)
    monkeypatch.chdir(tmp_path)
    commands = cli_pipeline()
    assert len(commands) == 9
    for argv in commands:
        rc = main(argv)
        assert rc == 0, (argv, capsys.readouterr().err)
        for flag in ("--out", "--model-out", "--report"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).is_file(), (argv, flag)
