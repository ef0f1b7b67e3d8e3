"""The README's Python API example runs as printed."""

import math
from pathlib import Path

from conftest import make_random_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_example() -> str:
    """The first ```python block under the README's ``## Python API``."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    # enough words and contexts for the example's 100 categories and 200 states
    sentences = make_random_corpus(3, 1500, n_words=150)
    (tmp_path / "train.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(python_api_example(), str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
    assert (tmp_path / "class.model").is_file() and (tmp_path / "backoff.model").is_file()
