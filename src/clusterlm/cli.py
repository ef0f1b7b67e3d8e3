"""Command-line pipeline driver.

Subcommands cover the whole workflow: ``vocab build``, ``counts
collect``, ``cluster run``, ``classes export``, ``ngram train``,
``interp tune`` and ``eval ppl``.  Every output file is written to a
temporary name and renamed into place, so failures never leave partial
artifacts; identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from clusterlm.cluster import (
    ClusterParams,
    export_categories,
    load_clustering,
    run_flat,
    run_tree,
    save_clustering,
)
from clusterlm.corpus import (
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    identity_mapper,
    iter_tokens,
    load_feature_map,
    read_corpus_lines,
)
from clusterlm.ctxtree import build_suffix_tree
from clusterlm.evaluate import format_report, perplexity, report_lines, tune_weights_em
from clusterlm.events import (
    ContextSpec,
    Slot,
    extract_events,
    load_counts,
    save_counts,
)
from clusterlm.models import (
    ClassLM,
    InterpolatedModel,
    _check_discount,
    load_model,
    ngram_counts,
    save_backoff,
    save_classlm,
    save_interpolated,
    train_backoff,
)


# ---------------------------------------------------------------------------
# context spec strings
# ---------------------------------------------------------------------------

_SPEC_KINDS = ("w", "t", "g")


def parse_context_spec(spec: str) -> list[tuple[str, int]]:
    """Parse a comma-separated slot list "m:o" (m in w/t/g, o a negative
    offset) into canonical farthest-first order."""
    slots: list[tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        kind, sep, off_s = part.partition(":")
        if not sep or kind not in _SPEC_KINDS:
            raise ValueError(
                f"malformed context spec slot {part!r}: expected m:o with m in w/t/g"
            )
        try:
            off = int(off_s)
        except ValueError:
            raise ValueError(f"malformed context spec slot {part!r}: bad offset") from None
        if off >= 0:
            raise ValueError(f"context offsets must be negative, got {off}")
        slots.append((kind, off))
    slots.sort(key=lambda s: s[1])
    offsets = [o for _, o in slots]
    if len(set(offsets)) != len(offsets):
        raise ValueError(f"duplicate offsets in context spec {spec!r}")
    return slots


def format_context_spec(slots: Sequence[tuple[str, int]]) -> str:
    """Canonical printed form; ``format(parse(s))`` is idempotent."""
    return ",".join(f"{kind}:{off}" for kind, off in slots)


# ---------------------------------------------------------------------------
# small plumbing helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str | Path, writer: Callable[[Path], None]) -> None:
    """Run ``writer`` on a fresh temporary file next to ``path``, then
    rename it into place.  The temporary file is created exclusively
    under a random name, so runs writing the same output never share
    it, and it is removed when the writer fails."""
    out = Path(path)
    tmp = out.with_name(f"{out.name}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        writer(tmp)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: str | Path, lines: Sequence[str]) -> None:
    _atomic_write(path, lambda p: p.write_text("\n".join(lines) + "\n", encoding="utf-8"))


def _maybe_manifest(args, inputs: Sequence[str | Path | None]) -> None:
    """Write the run's manifest when ``--manifest`` is given: the argv
    and a digest of each input file; unset inputs are left out."""
    if not getattr(args, "manifest", None):
        return
    lines = ["#clusterlm-manifest v1", "#argv\t" + " ".join(args._argv)]
    for p in sorted({str(p) for p in inputs if p}):
        digest = hashlib.sha256(Path(p).read_bytes()).hexdigest()
        lines.append(f"{digest}\t{p}")
    _write_lines(args.manifest, lines)


def _relative_to(path: str | Path, anchor_file: str | Path) -> str:
    """Path string for storing inside ``anchor_file``: relative to its
    directory when possible, absolute otherwise."""
    target = Path(path)
    base = Path(anchor_file).parent
    try:
        return os.path.relpath(target, start=base)
    except ValueError:
        return str(target.resolve())


def _check_not_overwritten(path, flag: str, inputs: Sequence, what: str) -> None:
    """Writing ``path``, given by ``flag``, must not replace a file of
    ``inputs``; paths are compared resolved."""
    if any(Path(path).resolve() == Path(p).resolve() for p in inputs):
        raise ValueError(f"{flag} {path} would overwrite {what}")


def _check_model_vocab(model, model_path, vocab: Vocabulary, vocab_path) -> None:
    """A model scores ids of the vocabulary it was trained with; with
    another vocabulary the ids name other words."""
    if model.n_words != len(vocab):
        raise ValueError(
            f"model {model_path} covers {model.n_words} words but vocabulary "
            f"{vocab_path} has {len(vocab)}"
        )


def _load_scored(vocab_path, model_paths, text_path, no_eos: bool, skip_unknown: bool):
    """The models at ``model_paths``, each checked against the vocabulary,
    the text encoded with it, and the options that score the text."""
    vocab = Vocabulary.load(vocab_path)
    models = [load_model(p) for p in model_paths]
    for model, path in zip(models, model_paths):
        _check_model_vocab(model, path, vocab, vocab_path)
    text = encode_corpus(read_corpus_lines(text_path), vocab)
    options = dict(eos_id=vocab.eos_id, include_eos=not no_eos, skip_unknown=skip_unknown,
                   unk_id=vocab.unk_id)
    return models, text, options


def _mappers_for(names: Sequence[str], vocab: Vocabulary, tagmap, classmap) -> dict:
    """Feature mapper for each slot name w, t or g; a slot without its map,
    or a map no slot uses, is rejected."""
    mappers = {"w": identity_mapper(vocab)}
    for flag, path, name, what in (("--tagmap", tagmap, "t", "tag"), ("--classmap", classmap, "g", "class")):
        if path and name not in names:
            raise ValueError(f"{flag} is given but the context has no {name}: slot")
        if name in names and not path:
            raise ValueError(f"{name}: slots need a {what} map; pass {flag}")
        if path:
            mappers[name] = load_feature_map(path, vocab, name)
    return mappers


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_vocab_build(args) -> int:
    lines = read_corpus_lines(args.corpus)
    vocab = build_vocabulary(iter_tokens(lines), max_size=args.max_size)
    _atomic_write(args.out, vocab.save)
    print(f"vocabulary: {len(vocab)} tokens -> {args.out}")
    _maybe_manifest(args, [args.corpus])
    return 0


def cmd_counts_collect(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    slot_kinds = parse_context_spec(args.context)
    mappers = _mappers_for([kind for kind, _ in slot_kinds], vocab, args.tagmap, args.classmap)
    spec = ContextSpec(tuple(Slot(off, mappers[kind]) for kind, off in slot_kinds))
    sentences = encode_corpus(read_corpus_lines(args.corpus), vocab)
    table = extract_events(sentences, spec, vocab)
    _atomic_write(args.out, lambda p: save_counts(table, p))
    print(
        f"counts [{format_context_spec(slot_kinds)}]: {table.n_contexts} distinct contexts, "
        f"{table.total} events -> {args.out}"
    )
    _maybe_manifest(args, [args.corpus, args.vocab, args.tagmap, args.classmap])
    return 0


def cmd_cluster_run(args) -> int:
    params = ClusterParams(
        n_categories=args.categories,
        n_states=args.states,
        min_count=args.min_count,
        max_iterations=args.max_iterations,
        convergence=args.conv,
    )
    if args.model_out:
        if not args.vocab:
            raise ValueError("--model-out requires --vocab")
        _check_not_overwritten(args.model_out, "--model-out", [args.out], "the --out clustering")
        discount = 0.5 if args.discount is None else args.discount
        _check_discount(discount)
        vocab = Vocabulary.load(args.vocab)
    else:
        for flag in ("vocab", "discount"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is used only with --model-out")
    table = load_counts(args.counts)
    if args.tree:
        clustering = run_tree(table, build_suffix_tree(table), params)
    else:
        clustering = run_flat(table, params)
    _atomic_write(args.out, lambda p: save_clustering(clustering, p))
    print(
        f"clustering: criterion {clustering.criterion():.6f}, "
        f"iterations {clustering.iterations_per_level} -> {args.out}"
    )
    if args.model_out:
        model = ClassLM(clustering, vocab, discount=discount)
        _atomic_write(args.model_out, lambda p: save_classlm(model, p))
        print(f"class model -> {args.model_out}")
    _maybe_manifest(args, [args.counts, args.vocab])
    return 0


def cmd_classes_export(args) -> int:
    if args.show < 0:
        raise ValueError("--show must not be negative")
    vocab = Vocabulary.load(args.vocab)
    table = load_counts(args.counts)
    clustering = load_clustering(args.clustering, table)
    _check_model_vocab(clustering, args.clustering, vocab, args.vocab)
    lines = [f"{vocab.tokens[w]}\t{int(clustering.G[w])}" for w in range(clustering.n_words)]
    _write_lines(args.out, lines)
    print(f"classes: {clustering.n_categories} categories over {clustering.n_words} words -> {args.out}")
    if args.show:
        members = export_categories(clustering, vocab)
        for g in sorted(members):
            head = " ".join(members[g][: args.show])
            print(f"  class {g}: {head}")
    _maybe_manifest(args, [args.vocab, args.counts, args.clustering])
    return 0


def cmd_ngram_train(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    if not 0.0 < args.discount < 1.0:
        raise ValueError("--discount must lie in (0, 1)")
    cutoffs = {k: 1 for k in range(3, args.order + 1)}
    if args.cutoff3 is not None:
        if args.order < 3:
            raise ValueError("--cutoff3 needs --order 3 or more")
        if args.cutoff3 < 0:
            raise ValueError("--cutoff3 must not be negative")
        cutoffs[3] = args.cutoff3
    vocab = Vocabulary.load(args.vocab)
    sentences = encode_corpus(read_corpus_lines(args.corpus), vocab)
    counts = ngram_counts(sentences, args.order, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
    model = train_backoff(
        counts, len(vocab), discount=args.discount, cutoffs=cutoffs, bos_id=vocab.bos_id
    )
    _atomic_write(args.out, lambda p: save_backoff(model, p))
    print(f"backoff model: order {model.order}, {model.n_parameters} entries -> {args.out}")
    _maybe_manifest(args, [args.corpus, args.vocab])
    return 0


def cmd_interp_tune(args) -> int:
    if args.max_iters < 1:
        raise ValueError("--max-iters must be at least 1")
    if not args.tol >= 0.0:
        raise ValueError("--tol must be a non-negative number")
    _check_not_overwritten(args.out, "--out", args.models, "one of its --models")
    components, heldout, options = _load_scored(
        args.vocab, args.models, args.heldout, args.no_eos, args.skip_unknown
    )
    weights, report = tune_weights_em(
        components, heldout, **options, max_iters=args.max_iters, tol=args.tol
    )
    model = InterpolatedModel(components, weights)
    comp_paths = [_relative_to(p, args.out) for p in args.models]
    _atomic_write(args.out, lambda p: save_interpolated(model, p, comp_paths))
    print("weights: " + " ".join(f"{x:.6f}" for x in weights))
    print(f"heldout perplexity: {report.perplexity:.4g} -> {args.out}")
    _maybe_manifest(args, list(args.models) + [args.heldout, args.vocab])
    return 0


def cmd_eval_ppl(args) -> int:
    (model,), test, options = _load_scored(
        args.vocab, [args.model], args.test, args.no_eos, args.skip_unknown
    )
    report = perplexity(
        model, test, **options, model_id=Path(args.model).name, per_sentence=args.per_sentence
    )
    print(format_report(report))
    if args.report:
        _write_lines(args.report, report_lines(report))
    _maybe_manifest(args, [args.model, args.test, args.vocab])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterlm",
        description="Class-based language models by exchange clustering of words and contexts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a run manifest recording flags and input checksums",
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="COMMAND")

    vocab = groups.add_parser("vocab", help="vocabulary construction")
    vsub = vocab.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    vb = vsub.add_parser("build", parents=[common], help="build a frequency-ranked vocabulary")
    vb.add_argument("--corpus", required=True, help="training text, one sentence per line")
    vb.add_argument("--out", required=True, help="vocabulary file to write")
    vb.add_argument("--max-size", type=int, default=None, help="keep only the most frequent tokens")
    vb.set_defaults(func=cmd_vocab_build)

    counts = groups.add_parser("counts", help="context event counting")
    csub = counts.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    cc = csub.add_parser("collect", parents=[common], help="collect context/word event counts")
    cc.add_argument("--corpus", required=True)
    cc.add_argument("--vocab", required=True)
    cc.add_argument(
        "--context",
        required=True,
        help='context spec, e.g. "w:-2,w:-1" (m:o slots, m in w/t/g, negative offsets)',
    )
    cc.add_argument("--tagmap", default=None, help="word/tag file for t: slots")
    cc.add_argument("--classmap", default=None, help="word/class file for g: slots")
    cc.add_argument("--out", required=True)
    cc.set_defaults(func=cmd_counts_collect)

    cluster = groups.add_parser("cluster", help="exchange clustering")
    clsub = cluster.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    cr = clsub.add_parser("run", parents=[common], help="cluster words and contexts")
    cr.add_argument("--counts", required=True)
    cr.add_argument("--states", type=int, default=2000, help="number of context states")
    cr.add_argument("--categories", type=int, default=2000, help="number of word categories")
    cr.add_argument("--tree", action="store_true", help="coarsen context moves along the suffix tree")
    cr.add_argument("--min-count", type=int, default=6, help="never move elements rarer than this")
    cr.add_argument("--conv", type=float, default=0.01, help="stop below this relative improvement per pass")
    cr.add_argument("--max-iterations", type=int, default=20)
    cr.add_argument("--out", required=True, help="clustering file to write")
    cr.add_argument("--model-out", default=None, help="also write a ready-to-eval class model file")
    cr.add_argument("--vocab", default=None, help="vocabulary (required with --model-out)")
    cr.add_argument("--discount", type=float, help="class model smoothing discount (default 0.5)")
    cr.set_defaults(func=cmd_cluster_run)

    classes = groups.add_parser("classes", help="word category inspection/export")
    xsub = classes.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    xe = xsub.add_parser("export", parents=[common], help="export word categories as a class map")
    xe.add_argument("--clustering", required=True)
    xe.add_argument("--counts", required=True, help="the counts the clustering was trained on")
    xe.add_argument("--vocab", required=True)
    xe.add_argument("--out", required=True, help="word<TAB>class file (usable via --classmap)")
    xe.add_argument("--show", type=int, default=0, help="print the first N members of each category")
    xe.set_defaults(func=cmd_classes_export)

    ngram = groups.add_parser("ngram", help="backoff n-gram baseline")
    nsub = ngram.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    nt = nsub.add_parser("train", parents=[common], help="train an absolute-discounting backoff model")
    nt.add_argument("--corpus", required=True)
    nt.add_argument("--vocab", required=True)
    nt.add_argument("--order", type=int, default=3)
    nt.add_argument("--cutoff3", type=int, help="discard order-3 grams seen at most this often (default 1)")
    nt.add_argument("--discount", type=float, default=0.5)
    nt.add_argument("--out", required=True)
    nt.set_defaults(func=cmd_ngram_train)

    interp = groups.add_parser("interp", help="linear model interpolation")
    isub = interp.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    it = isub.add_parser("tune", parents=[common], help="tune mixture weights by EM on held-out text")
    it.add_argument("--models", nargs="+", required=True, help="component model files")
    it.add_argument("--heldout", required=True)
    it.add_argument("--vocab", required=True)
    it.add_argument("--out", required=True, help="interpolated model file to write")
    it.add_argument("--max-iters", type=int, default=100)
    it.add_argument("--tol", type=float, default=1e-6)
    it.add_argument("--no-eos", action="store_true", help="do not score sentence ends")
    it.add_argument("--skip-unknown", action="store_true", help="exclude unknown-word events from tuning")
    it.set_defaults(func=cmd_interp_tune)

    evalp = groups.add_parser("eval", help="model evaluation")
    esub = evalp.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    ep = esub.add_parser("ppl", parents=[common], help="perplexity on a test corpus")
    ep.add_argument("--model", required=True)
    ep.add_argument("--test", required=True)
    ep.add_argument("--vocab", required=True)
    ep.add_argument("--no-eos", action="store_true", help="do not score sentence ends")
    ep.add_argument("--skip-unknown", action="store_true", help="exclude unknown-word events from scoring")
    ep.add_argument("--per-sentence", action="store_true", help="include a per-sentence breakdown")
    ep.add_argument("--report", default=None, help="also write machine-readable metric lines")
    ep.set_defaults(func=cmd_eval_ppl)

    return parser


_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers in glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _fix_mmap_threshold() -> None:
    """Have glibc give every block of 128 KiB or more its own mapping,
    which goes back to the system when the block is freed, and give back
    the free top of the heap once it reaches 128 KiB (a no-op on other C
    libraries).

    By default glibc raises both thresholds whenever a mapped block is
    freed, and from then on large arrays come from the heap, where a
    live block above a freed one keeps it resident and numpy's huge-page
    advice for large arrays outlives the array, and up to the raised
    trim threshold of free heap top stays resident after each command.
    A process's peak memory then depends on the heap layout, which
    shifts with input and path lengths and with what the process freed
    before its first command; with the thresholds fixed it does not.
    The price is that each large temporary is a fresh mapping, paged in
    anew.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 128 * 1024)
        mallopt(_M_TRIM_THRESHOLD, 128 * 1024)


def main(argv: Sequence[str] | None = None) -> int:
    _fix_mmap_threshold()
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = argv
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
