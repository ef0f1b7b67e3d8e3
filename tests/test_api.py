"""The package exports only what its own code or the benchmark uses."""

import argparse
import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path
from typing import Callable

import pytest

import clusterlm
from clusterlm.cli import build_parser, main

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


def test_one_function_splits_text_files_into_lines():
    r"""Every text input is split into lines by ``corpus._read_lines``,
    at ``\n`` only; ``str.splitlines``, read or called, would also break
    at ``\x85``, ``\u2028`` or a lone ``\r``: a second line rule."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "clusterlm").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert found == []


def test_only_events_spells_the_slot_block():
    """The counts file and the class model file share one slot block,
    written by ``events.slot_lines`` and read by ``events.read_slots``; no
    other module spells its line keys."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "clusterlm").glob("*.py"))
        if path.name != "events.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (str, bytes))
        and any(key in str(node.value) for key in ("#slot", "#map"))
    ]
    assert found == []


def enclosing_functions(match: Callable[[ast.AST], bool], skip: str = "") -> set[str]:
    """``module.qualname`` of every function in ``src/clusterlm``, but in
    the module ``skip``, whose own body holds a node that ``match``es, or
    ``<module>`` for a module body."""
    found: set[str] = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if match(child):
                found.add(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "clusterlm").glob("*.py")):
        if path.stem != skip:
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def kernel_callers(name: str) -> set[str]:
    """The functions whose own body reads ``_kernels.<name>``, or
    ``<module>`` for a module body or an import of the name."""
    return enclosing_functions(
        lambda node: (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == "_kernels"
        ) or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("_kernels")
            and name in {a.name for a in node.names}
        ),
        skip="_kernels",
    )


def test_each_move_kernel_is_called_from_one_function():
    """Word and group moves reach their kernels through one dispatch, so
    a second move path cannot come back; the shared row kernel is
    reached only through the two."""
    word, group = kernel_callers("word_move_deltas"), kernel_callers("group_move_deltas")
    assert len(word) == 1 and word == group, (word, group)
    assert kernel_callers("move_deltas") == set()


def test_one_loop_walks_the_class_model_suffix_tables():
    """A class model resolves a context through its suffix tables in one
    loop, ``ClassLM._resolve_states``, shared by ``prob`` and by the
    pruning in ``__init__``: no other function both reads a model's
    ``tables`` and looks rows up, so a second walk that could disagree
    with the pruning cannot come back."""
    reads_tables = enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "tables"
    )
    looks_up = enclosing_functions(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] == "find_rows"
    )
    assert reads_tables & looks_up == {"models.ClassLM._resolve_states"}
    resolves = enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_resolve_states"
    )
    assert resolves == {"models.ClassLM.__init__", "models.ClassLM.prob"}


# numpy names whose work a BLAS library does, with a kernel it picks per CPU
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", "linalg"}


def test_no_output_depends_on_the_blas_kernel():
    """No code in the package multiplies through BLAS (the ``@``
    operator or a ``BLAS_NAMES`` name, read or called), so every output
    is the same bytes whichever kernel OpenBLAS picks for the host."""
    found = enclosing_functions(
        lambda node: isinstance(node, ast.MatMult)
        or isinstance(node, ast.Name) and node.id in BLAS_NAMES
        or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
        or isinstance(node, ast.alias) and node.name.rpartition(".")[2] in BLAS_NAMES
    )
    assert found == set()


def test_only_the_model_writers_unpack_keys():
    """A model keeps each table once, as packed keys; only its writer
    unpacks them, with ``Keys.rows()`` (``Reader.rows`` takes arguments)."""
    found = enclosing_functions(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "rows"
        and not node.args and not node.keywords
    )
    assert found == {"models.save_classlm", "models.save_backoff"}


def test_every_table_lookup_searches_in_key_order():
    """Every row lookup goes through ``_rows.find_rows``, which sorts its
    queries by key before it searches; ``evaluate.perplexity``'s
    per-sentence bounds search needles that are already sorted."""
    found = enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "searchsorted"
        or isinstance(node, ast.Name) and node.id == "searchsorted"
        or isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "searchsorted"
    )
    assert found == {"_rows.find_rows", "evaluate.perplexity"}


def test_perplexity_and_tuning_score_their_events_one_way():
    """``evaluate``'s one scoring path builds the event rows and has the
    models score them, and one ``cli`` helper loads the models that
    ``eval ppl`` and ``interp tune`` score, so the two commands cannot
    come to select, score or check their events apart."""
    scores = enclosing_functions(
        lambda node: isinstance(node, ast.Name) and node.id == "_query_events"
        or isinstance(node, ast.Attribute) and node.attr in {"_query_events", "prob"}
    )
    assert {f for f in scores if f.startswith("evaluate.")} == {"evaluate._score_events"}
    loads = enclosing_functions(
        lambda node: isinstance(node, ast.Name) and node.id == "load_model"
        or isinstance(node, ast.Attribute) and node.attr == "load_model"
    )
    assert {f for f in loads if f.startswith("cli.")} == {"cli._load_scored"}


def test_one_function_sums_weights_per_id():
    """Every exact int64 per-id sum is ``_rows.sum_ids``, the one reader
    of ``np.add.at``, and the n-gram orders are ``sum_rows`` marginals,
    so a second scatter-add path cannot come back beside them."""
    found = enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "at"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
    )
    assert found == {"_rows.sum_ids"}


def test_only_the_spec_reads_a_mapper_size():
    """How many words a slot mapper maps is read once, where the context
    spec checks that its mappers agree (``ContextSpec.n_words``), beside
    the mapper's own range check; no table, model or file writer checks
    it again."""
    found = enclosing_functions(
        lambda node: isinstance(node, ast.Attribute) and node.attr in {"size", "shape"}
        and isinstance(node.value, ast.Attribute) and node.value.attr == "table"
        or isinstance(node, ast.Call) and ast.unparse(node.func) == "len"
        and any(isinstance(a, ast.Attribute) and a.attr == "table" for a in node.args)
    )
    assert found == {"events.ContextSpec.__post_init__", "corpus.FeatureMapper.__post_init__"}


READ_CALLS = {"read_bytes", "read_text", "fromfile", "loadtxt", "genfromtxt", "memmap"}


def reads_a_file(node: ast.AST) -> bool:
    """Whether ``node`` is a call that reads a file: ``read_bytes``,
    ``read_text``, a numpy text or raw file reader, or an ``open``
    (builtin, ``Path``, ``io`` or ``os``) given no mode or flags that
    write."""
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func).rpartition(".")[2]
    return name in READ_CALLS or name == "open" and not any(
        isinstance(arg, ast.Constant) and re.fullmatch("[bt+]*[wax][bt+]*", str(arg.value))
        or "O_WRONLY" in ast.unparse(arg)
        for arg in [*node.args, *(k.value for k in node.keywords)]
    )


# Functions that read a file without splitting it into lines, and why each may.
RAW_READERS = {
    "models._load_model": "reads the first word of the version line to pick the loader, "
    "which opens the file through _rows.Reader",
    "cli._maybe_manifest": "digests each input file's bytes",
}


def test_every_file_is_split_into_lines_by_one_rule():
    r"""Every file the package reads is opened by ``_rows.Reader`` or
    ``corpus._read_lines``, which end a line at ``\n`` and drop one ``\r``
    before it, so a second line rule cannot come back; ``RAW_READERS``
    names the functions that read a file's bytes without lines."""
    readers = enclosing_functions(reads_a_file)
    assert readers == {"_rows.Reader.__init__", "corpus._read_lines", *RAW_READERS}


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
        "per-unit moves: the oracle and the benchmark tracer use them; the sweep "
        "profiles its units from level rows and calls the dispatch, Clustering._deltas",
    ),
    "cluster.Clustering.iterations_run": "the benchmark tracer reads it",
    "events.EventTable.counts": "the benchmark tracer reads it",
    "_rows.tuples": "the benchmark tracer reads it, through EventTable.counts",
    "ctxtree.Level.key": "only an on_move callback reaches it",
    "_rows.Reader.error": "only damaged files reach it",
    "_rows.Reader.rows.bad": "only a damaged row section reaches it",
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
        " --model-out tree.model --vocab v.txt",
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


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand parser of the CLI, by its two words."""
    found = {}

    def children(parser):
        actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return actions[0].choices.items() if actions else []

    for group, group_parser in children(build_parser()):
        for command, parser in children(group_parser):
            found[f"{group} {command}"] = parser
    return found


@pytest.mark.parametrize("command", sorted(subcommands()))
def test_every_flag_is_read_by_its_handler(command):
    """A subcommand's handler reads every flag it accepts, as
    ``args.<dest>`` or the string ``"<dest>"``, so that no flag is
    accepted and then ignored; ``_maybe_manifest`` reads ``manifest``."""
    parser = subcommands()[command]
    handler = parser.get_default("func")
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    } | {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    if "_maybe_manifest" in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}:
        read.add("manifest")
    flags = {a.dest for a in parser._actions if a.dest != "help"}
    assert sorted(flags - read) == []
