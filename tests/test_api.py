"""The package exports only what its own code or the benchmark uses."""

import ast
import sys
from pathlib import Path

import clusterlm
from clusterlm.cli import main

from conftest import make_random_corpus

ROOT = Path(__file__).resolve().parents[1]


def references(path: Path) -> set[str]:
    """Names the code of ``path`` reads: identifiers, attribute names and
    string constants (the benchmark tracer patches attributes by name).
    Imports do not count, nor does a top-level definition's use of its
    own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: set[str] = set()

    def visit(node: ast.AST, inside: str | None) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name) and node.id != inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, own)
    return found


def test_every_exported_name_is_used_outside_the_tests():
    files = sorted((ROOT / "src" / "clusterlm").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    used = set().union(*(references(p) for p in files if p.name != "__init__.py"))
    assert sorted(set(clusterlm.__all__) - used) == []


# the benchmark tracer patches these in the models module's namespace
PATCHED_IMPORTS = {("models", "load_counts"), ("models", "load_clustering")}


def unused_imports(path: Path) -> set[str]:
    """Names that ``path`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def test_every_import_is_used_in_its_module():
    found = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "clusterlm").glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert sorted(found - PATCHED_IMPORTS) == []


def test_only_the_row_codec_reads_a_version_line():
    """A loader opens its file through ``_rows.Reader``, which checks the
    version line, rather than slicing that line off with ``partition``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "clusterlm").glob("*.py"))
        if path.name != "_rows.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "partition"
        and [ast.dump(a) for a in node.args] == [ast.dump(ast.Constant(b"\n"))]
    ]
    assert found == []


# Functions that no stage of a valid pipeline calls, and why each stays.
UNCALLED = {
    **dict.fromkeys(
        [
            "cluster.Clustering.word_profile",
            "cluster.Clustering.group_profile",
            "cluster.Clustering.word_move_deltas",
            "cluster.Clustering.group_move_deltas",
            "cluster.Clustering._check_word",
            "cluster.Clustering._check_group",
            "cluster.Clustering._group_state",
            "cluster.Clustering.apply_word_move",
            "cluster.Clustering.apply_group_move",
        ],
        "per-unit moves: the oracle and the benchmark tracer use them; the sweep calls "
        "the kernels itself",
    ),
    "cluster.Clustering.iterations_run": "the benchmark tracer reads it",
    "events.EventTable.counts": "the benchmark tracer reads it",
    "_rows.tuples": "the benchmark tracer reads it, through EventTable.counts",
    "ctxtree.Level.key": "only an on_move callback reaches it",
    "_rows.Reader.error": "only damaged files reach it",
    "models.load_interpolated": "public loader of a mixture file alone; the CLI opens a "
    "mixture through load_model, which shares its parser",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """``module.qualname`` of every function defined in the imported
    package, keyed by its resolved file and the first line of its code
    object (the first decorator's, for a decorated function)."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, path, name)

    for path in sorted(Path(clusterlm.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def run_pipeline() -> None:
    """Every CLI stage, in the working directory, on a tiny corpus: word,
    tag and class contexts, flat and tree clusterings, a three-component
    mixture and each scoring flag."""
    for name, seed, lines in (("train", 3, 60), ("held", 4, 15), ("test", 5, 15)):
        sents = make_random_corpus(seed, lines, n_words=8)
        Path(f"{name}.txt").write_text("\n".join(sents) + "\n")
    with open("test.txt", "a") as fh:
        fh.write("w0 zzz w1\n")  # an unknown word
    Path("tags.txt").write_text("w0\tA\nw1\tB\nw2\tA\n#default\tC\n")
    stages = [
        "vocab build --corpus train.txt --out v.txt",
        "counts collect --corpus train.txt --vocab v.txt --context w:-2,w:-1 --out c.tsv",
        "cluster run --counts c.tsv --states 4 --categories 3 --min-count 1 --out cl.tsv"
        " --model-out flat.model --vocab v.txt",
        "classes export --clustering cl.tsv --counts c.tsv --vocab v.txt --out g.txt --show 2",
        "counts collect --corpus train.txt --vocab v.txt --context t:-2,g:-1 --tagmap tags.txt"
        " --classmap g.txt --out tg.tsv",
        "cluster run --counts tg.tsv --states 4 --categories 3 --min-count 1 --tree --out tgcl.tsv"
        " --model-out tree.model --vocab v.txt --tagmap tags.txt --classmap g.txt",
        "ngram train --corpus train.txt --vocab v.txt --cutoff3 0 --out ngram.model",
        "interp tune --models flat.model tree.model ngram.model --heldout held.txt --vocab v.txt"
        " --out mix.model",
        "eval ppl --model mix.model --test test.txt --vocab v.txt --per-sentence --report r.tsv",
        "eval ppl --model mix.model --test test.txt --vocab v.txt --skip-unknown --no-eos",
    ]
    for stage in stages:
        assert main(stage.split()) == 0, stage


def test_every_function_in_the_package_is_called(tmp_path, monkeypatch, capsys):
    """A pipeline run calls every function in ``src/clusterlm`` but those
    of ``UNCALLED``, so code that no stage needs shows up here."""
    defined = defined_functions()
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    monkeypatch.chdir(tmp_path)
    sys.setprofile(profile)
    try:
        run_pipeline()
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    called = {(str(Path(file).resolve()), line) for file, line in called}
    uncalled = {name for key, name in defined.items() if key not in called}
    assert uncalled - UNCALLED.keys() == set(), "functions no stage calls"
    assert UNCALLED.keys() - uncalled == set(), "listed as uncalled, but called"
